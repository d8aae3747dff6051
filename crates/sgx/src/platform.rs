//! The SGX-capable platform: fuse keys, EPC accounting, enclave loading and
//! launch control, and platform-bound key derivation (`EGETKEY`).

use crate::enclave::{Enclave, EnclaveCode, EnclaveIdentity};
use crate::measurement::{Measurement, MeasurementBuilder, PagePerm};
use crate::quote::QuotingEnclave;
use crate::report::{attributes, ReportBody, TargetInfo};
use crate::seal::SealPolicy;
use crate::sigstruct::SignedEnclave;
use crate::transition::TransitionModel;
use crate::SgxError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_crypto::hkdf;
use vnfguard_crypto::hmac::hmac_sha256;

/// Static configuration of a platform.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Enclave page cache capacity in bytes.
    pub epc_bytes: usize,
    /// Microcode/platform TCB version.
    pub cpu_svn: [u8; 16],
    /// EPID group this platform's attestation key belongs to.
    pub epid_group_id: u32,
    /// Whether launch control admits debug enclaves.
    pub allow_debug: bool,
    /// Security version of the quoting enclave.
    pub qe_svn: u16,
}

impl Default for PlatformConfig {
    fn default() -> PlatformConfig {
        PlatformConfig {
            epc_bytes: 128 << 20,
            cpu_svn: [1; 16],
            epid_group_id: 0x0a0b,
            allow_debug: false,
            qe_svn: 2,
        }
    }
}

/// Key classes for platform key derivation (EGETKEY key names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KeyClass {
    Seal,
    Report,
}

impl KeyClass {
    fn label(self) -> &'static [u8] {
        match self {
            KeyClass::Seal => b"SEAL",
            KeyClass::Report => b"REPORT",
        }
    }
}

pub(crate) struct PlatformInner {
    fuse_key: [u8; 32],
    owner_epoch: [u8; 16],
    pub(crate) config: PlatformConfig,
    epc_used: Mutex<usize>,
    next_enclave_id: AtomicU64,
    /// EPID-style attestation member key held by the quoting enclave.
    pub(crate) attestation_key: SigningKey,
    pub(crate) transition: TransitionModel,
    rng_state: Mutex<vnfguard_crypto::drbg::HmacDrbg>,
}

impl PlatformInner {
    /// EGETKEY: derive a platform- and identity-bound symmetric key.
    ///
    /// `mrenclave` participates only for MRENCLAVE-policy keys; MRSIGNER
    /// keys omit it so sealed data survives enclave updates by the same
    /// author. The SVN is the *minimum of requested and current* enforced by
    /// the caller — lower-SVN keys remain derivable (data migration), higher
    /// ones are refused (rollback protection).
    pub(crate) fn derive_key(
        &self,
        class: KeyClass,
        mrenclave: Option<&Measurement>,
        mrsigner: &Measurement,
        isv_prod_id: u16,
        svn: u16,
        key_id: &[u8; 16],
    ) -> [u8; 32] {
        let prk = hkdf::extract(&self.owner_epoch, &self.fuse_key);
        let mut info = Vec::with_capacity(128);
        info.extend_from_slice(class.label());
        info.push(mrenclave.is_some() as u8);
        if let Some(m) = mrenclave {
            info.extend_from_slice(m.as_bytes());
        }
        info.extend_from_slice(mrsigner.as_bytes());
        info.extend_from_slice(&isv_prod_id.to_be_bytes());
        info.extend_from_slice(&svn.to_be_bytes());
        info.extend_from_slice(&self.config.cpu_svn);
        info.extend_from_slice(key_id);
        hkdf::expand(&prk, &info, 32)
            .try_into()
            .expect("32-byte key")
    }

    /// Derive the report key for a target enclave and MAC a report body.
    pub(crate) fn mac_report(
        &self,
        target: &TargetInfo,
        body: &ReportBody,
        key_id: &[u8; 16],
    ) -> [u8; 32] {
        let key = self.derive_key(
            KeyClass::Report,
            Some(&target.mrenclave),
            // The report key depends only on the target enclave identity.
            &Measurement([0; 32]),
            0,
            0,
            key_id,
        );
        hmac_sha256(&key, &body.encode())
    }

    pub(crate) fn random_bytes(&self, out: &mut [u8]) {
        use vnfguard_crypto::drbg::SecureRandom;
        self.rng_state.lock().fill(out);
    }

    pub(crate) fn seal_key_for(
        &self,
        identity: &EnclaveIdentity,
        policy: SealPolicy,
        svn: u16,
        key_id: &[u8; 16],
    ) -> Result<[u8; 32], SgxError> {
        if svn > identity.isv_svn {
            return Err(SgxError::SvnTooHigh {
                requested: svn,
                current: identity.isv_svn,
            });
        }
        let mrenclave = match policy {
            SealPolicy::MrEnclave => Some(&identity.mrenclave),
            SealPolicy::MrSigner => None,
        };
        Ok(self.derive_key(
            KeyClass::Seal,
            mrenclave,
            &identity.mrsigner,
            identity.isv_prod_id,
            svn,
            key_id,
        ))
    }

    pub(crate) fn release_epc(&self, bytes: usize) {
        let mut used = self.epc_used.lock();
        *used = used.saturating_sub(bytes);
    }
}

/// A machine with (simulated) SGX support.
///
/// Cloning is cheap and shares the platform state, mirroring the fact that
/// all enclaves on one host share fuse keys and the EPC.
#[derive(Clone)]
pub struct SgxPlatform {
    inner: Arc<PlatformInner>,
}

impl SgxPlatform {
    /// Create a platform whose fuse key is derived from `seed`
    /// (deterministic platforms make attestation tests reproducible).
    pub fn new(seed: &[u8]) -> SgxPlatform {
        SgxPlatform::with_config(seed, PlatformConfig::default(), TransitionModel::free())
    }

    pub fn with_config(
        seed: &[u8],
        config: PlatformConfig,
        transition: TransitionModel,
    ) -> SgxPlatform {
        let fuse_key = hkdf::derive(b"sgx-fuse", seed, b"fuse key", 32)
            .try_into()
            .expect("32");
        let owner_epoch = hkdf::derive(b"sgx-epoch", seed, b"owner epoch", 16)
            .try_into()
            .expect("16");
        let ak_seed: [u8; 32] = hkdf::derive(b"sgx-epid", seed, b"attestation key", 32)
            .try_into()
            .expect("32");
        let rng = vnfguard_crypto::drbg::HmacDrbg::new(&hkdf::derive(
            b"sgx-rdrand",
            seed,
            b"platform rng",
            32,
        ));
        SgxPlatform {
            inner: Arc::new(PlatformInner {
                fuse_key,
                owner_epoch,
                config,
                epc_used: Mutex::new(0),
                next_enclave_id: AtomicU64::new(1),
                attestation_key: SigningKey::from_seed(&ak_seed),
                transition,
                rng_state: Mutex::new(rng),
            }),
        }
    }

    /// Compute the MRENCLAVE a given image will measure to. Enclave authors
    /// use this to produce SIGSTRUCTs; the Verification Manager uses it to
    /// compute expected measurements.
    pub fn measure_image(image: &[u8], size_bytes: usize) -> Measurement {
        let mut b = MeasurementBuilder::ecreate(size_bytes);
        b.add_blob(0, PagePerm::Rx, image);
        b.einit()
    }

    /// Load, verify and initialize an enclave
    /// (`ECREATE` + `EADD`/`EEXTEND` + launch control + `EINIT`).
    ///
    /// The image provided by `code` is measured page-by-page; the result
    /// must match the author-signed MRENCLAVE or launch fails — this is the
    /// integrity-verification anchor the paper's workflow relies on.
    pub fn load_enclave(
        &self,
        signed: &SignedEnclave,
        size_bytes: usize,
        code: Box<dyn EnclaveCode>,
    ) -> Result<Enclave, SgxError> {
        let mrsigner = signed.verify()?;
        if signed.debug && !self.inner.config.allow_debug {
            return Err(SgxError::LaunchFailed(
                "debug enclaves not admitted by launch control".into(),
            ));
        }
        let measured = Self::measure_image(&code.image(), size_bytes);
        if measured != signed.mrenclave {
            return Err(SgxError::LaunchFailed(format!(
                "measurement mismatch: image measures to {measured}, SIGSTRUCT expects {}",
                signed.mrenclave
            )));
        }
        {
            let mut used = self.inner.epc_used.lock();
            let available = self.inner.config.epc_bytes - *used;
            if size_bytes > available {
                return Err(SgxError::OutOfEpc {
                    requested: size_bytes,
                    available,
                });
            }
            *used += size_bytes;
        }
        let mut attrs = attributes::INIT;
        if signed.debug {
            attrs |= attributes::DEBUG;
        }
        let identity = EnclaveIdentity {
            mrenclave: measured,
            mrsigner,
            isv_prod_id: signed.isv_prod_id,
            isv_svn: signed.isv_svn,
            attributes: attrs,
        };
        Ok(Enclave::new(
            EnclaveHandle {
                inner: self.inner.clone(),
            },
            self.inner.next_enclave_id.fetch_add(1, Ordering::Relaxed),
            identity,
            size_bytes,
            code,
        ))
    }

    /// The platform's quoting enclave.
    pub fn quoting_enclave(&self) -> QuotingEnclave {
        QuotingEnclave::new(self.inner.clone())
    }

    /// EPID group id of this platform's attestation key.
    pub fn epid_group_id(&self) -> u32 {
        self.inner.config.epid_group_id
    }

    /// Public half of the attestation (EPID member) key — registered with
    /// the attestation service when the platform is provisioned.
    pub fn attestation_public_key(&self) -> vnfguard_crypto::ed25519::VerifyingKey {
        self.inner.attestation_key.public_key()
    }

    /// Bytes of EPC currently in use.
    pub fn epc_used(&self) -> usize {
        *self.inner.epc_used.lock()
    }

    /// Total ecalls performed on this platform (cost-model counter).
    pub fn ecall_count(&self) -> u64 {
        self.inner.transition.ecall_count()
    }
}

impl std::fmt::Debug for SgxPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgxPlatform")
            .field("epid_group_id", &self.inner.config.epid_group_id)
            .field("epc_bytes", &self.inner.config.epc_bytes)
            .field("epc_used", &self.epc_used())
            .finish_non_exhaustive()
    }
}

/// Capability handle enclaves hold back to their platform (private).
pub struct EnclaveHandle {
    pub(crate) inner: Arc<PlatformInner>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveContext;
    use crate::sigstruct::EnclaveAuthor;

    struct NullCode(Vec<u8>);
    impl EnclaveCode for NullCode {
        fn image(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn on_call(
            &mut self,
            _ctx: &mut EnclaveContext,
            opcode: u16,
            _input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            Err(SgxError::BadCall(opcode))
        }
    }

    fn signed_for(author: &EnclaveAuthor, image: &[u8], size: usize, debug: bool) -> SignedEnclave {
        author.sign_enclave(SgxPlatform::measure_image(image, size), 1, 1, debug)
    }

    #[test]
    fn loads_enclave_with_matching_measurement() {
        let platform = SgxPlatform::new(b"p1");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let signed = signed_for(&author, b"enclave code v1", 4096, false);
        let enclave = platform
            .load_enclave(
                &signed,
                4096,
                Box::new(NullCode(b"enclave code v1".to_vec())),
            )
            .unwrap();
        assert_eq!(enclave.identity().mrsigner, author.mrsigner());
        assert_eq!(platform.epc_used(), 4096);
    }

    #[test]
    fn rejects_tampered_image() {
        let platform = SgxPlatform::new(b"p1");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let signed = signed_for(&author, b"enclave code v1", 4096, false);
        // A backdoored image measures differently.
        let err = platform
            .load_enclave(
                &signed,
                4096,
                Box::new(NullCode(b"enclave code vX".to_vec())),
            )
            .unwrap_err();
        assert!(matches!(err, SgxError::LaunchFailed(_)), "{err}");
    }

    #[test]
    fn rejects_debug_when_disallowed() {
        let platform = SgxPlatform::new(b"p1");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let signed = signed_for(&author, b"img", 4096, true);
        assert!(matches!(
            platform.load_enclave(&signed, 4096, Box::new(NullCode(b"img".to_vec()))),
            Err(SgxError::LaunchFailed(_))
        ));
        // But a debug-permitting platform admits it.
        let permissive = SgxPlatform::with_config(
            b"p2",
            PlatformConfig {
                allow_debug: true,
                ..PlatformConfig::default()
            },
            TransitionModel::free(),
        );
        let enclave = permissive
            .load_enclave(&signed, 4096, Box::new(NullCode(b"img".to_vec())))
            .unwrap();
        assert!(enclave.identity().attributes & attributes::DEBUG != 0);
    }

    #[test]
    fn epc_exhaustion() {
        let platform = SgxPlatform::with_config(
            b"p3",
            PlatformConfig {
                epc_bytes: 8192,
                ..PlatformConfig::default()
            },
            TransitionModel::free(),
        );
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let signed = signed_for(&author, b"a", 4096, false);
        let _e1 = platform
            .load_enclave(&signed, 4096, Box::new(NullCode(b"a".to_vec())))
            .unwrap();
        let _e2 = platform
            .load_enclave(&signed, 4096, Box::new(NullCode(b"a".to_vec())))
            .unwrap();
        let err = platform
            .load_enclave(&signed, 4096, Box::new(NullCode(b"a".to_vec())))
            .unwrap_err();
        assert_eq!(
            err,
            SgxError::OutOfEpc {
                requested: 4096,
                available: 0
            }
        );
        // Dropping an enclave releases its EPC.
        drop(_e1);
        assert_eq!(platform.epc_used(), 4096);
        platform
            .load_enclave(&signed, 4096, Box::new(NullCode(b"a".to_vec())))
            .unwrap();
    }

    #[test]
    fn key_derivation_is_platform_bound() {
        let p1 = SgxPlatform::new(b"platform-a");
        let p2 = SgxPlatform::new(b"platform-b");
        let id = [9u8; 16];
        let k1 = p1
            .inner
            .derive_key(KeyClass::Seal, None, &Measurement([1; 32]), 1, 1, &id);
        let k2 = p2
            .inner
            .derive_key(KeyClass::Seal, None, &Measurement([1; 32]), 1, 1, &id);
        assert_ne!(k1, k2, "different fuse keys must give different keys");
        // Same inputs on the same platform are deterministic.
        let k1b = p1
            .inner
            .derive_key(KeyClass::Seal, None, &Measurement([1; 32]), 1, 1, &id);
        assert_eq!(k1, k1b);
    }

    #[test]
    fn key_derivation_separates_identities_and_classes() {
        let p = SgxPlatform::new(b"p");
        let id = [0u8; 16];
        let base = p
            .inner
            .derive_key(KeyClass::Seal, None, &Measurement([1; 32]), 1, 1, &id);
        let by_class = p
            .inner
            .derive_key(KeyClass::Report, None, &Measurement([1; 32]), 1, 1, &id);
        let by_signer = p
            .inner
            .derive_key(KeyClass::Seal, None, &Measurement([2; 32]), 1, 1, &id);
        let by_svn = p
            .inner
            .derive_key(KeyClass::Seal, None, &Measurement([1; 32]), 1, 2, &id);
        let by_mrenclave = p.inner.derive_key(
            KeyClass::Seal,
            Some(&Measurement([3; 32])),
            &Measurement([1; 32]),
            1,
            1,
            &id,
        );
        for (name, k) in [
            ("class", by_class),
            ("signer", by_signer),
            ("svn", by_svn),
            ("mrenclave", by_mrenclave),
        ] {
            assert_ne!(base, k, "{name} must diversify the key");
        }
    }
}
