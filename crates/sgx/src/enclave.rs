//! Enclave instances and the in-enclave execution context.
//!
//! An [`Enclave`] owns its code and private state behind a mutex; the only
//! way in is [`Enclave::ecall`], which pays the transition cost and hands
//! the code an [`EnclaveContext`] with the in-enclave capabilities
//! (`EGETKEY`, `EREPORT`, randomness, sealing). Nothing on `Enclave`
//! exposes the private state — this is the simulator's enforcement of the
//! paper's "credentials do not leave the security context of the enclave".

use crate::measurement::Measurement;
use crate::platform::EnclaveHandle;
use crate::report::{Report, ReportBody, TargetInfo};
use crate::seal::{SealPolicy, SealedBlob};
use crate::SgxError;
use parking_lot::Mutex;

/// Identifier of a loaded enclave on its platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnclaveId(pub u64);

/// The measured identity of a running enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveIdentity {
    pub mrenclave: Measurement,
    pub mrsigner: Measurement,
    pub isv_prod_id: u16,
    pub isv_svn: u16,
    pub attributes: u64,
}

/// Code loaded into an enclave.
///
/// `image()` returns the bytes that are measured at load time (the "code
/// pages"); `on_call` handles ecalls. State kept in the implementing type
/// is enclave-private by construction.
pub trait EnclaveCode: Send {
    /// The measured enclave image. Must be stable for the lifetime of the
    /// value: it is called once at load time.
    fn image(&self) -> Vec<u8>;

    /// Handle an ecall.
    fn on_call(
        &mut self,
        ctx: &mut EnclaveContext,
        opcode: u16,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError>;
}

/// Host-provided ocall handler: enclave code calls out for services the
/// enclave cannot perform itself (network I/O, time). The host decides what
/// each opcode means. Mirrors the `OCALL` mechanism of the SGX SDK.
pub type OcallHandler<'h> = dyn FnMut(u16, &[u8]) -> Result<Vec<u8>, SgxError> + 'h;

/// In-enclave view of platform capabilities, passed to [`EnclaveCode::on_call`].
pub struct EnclaveContext<'a> {
    handle: &'a EnclaveHandle,
    identity: &'a EnclaveIdentity,
    ocall: Option<&'a mut OcallHandler<'a>>,
}

impl<'a> EnclaveContext<'a> {
    /// This enclave's own identity.
    pub fn identity(&self) -> &EnclaveIdentity {
        self.identity
    }

    /// OCALL: leave the enclave to request a host service. Each crossing
    /// pays the transition cost, exactly like an ecall. Fails if the
    /// current ecall was made without an ocall handler.
    pub fn ocall(&mut self, opcode: u16, payload: &[u8]) -> Result<Vec<u8>, SgxError> {
        match self.ocall.as_mut() {
            Some(handler) => {
                self.handle.inner.transition.enter_exit();
                handler(opcode, payload)
            }
            None => Err(SgxError::App(format!(
                "ocall {opcode} attempted without a host handler"
            ))),
        }
    }

    /// RDRAND: platform randomness usable inside the enclave.
    pub fn random_bytes(&mut self, out: &mut [u8]) {
        self.handle.inner.random_bytes(out);
    }

    /// EGETKEY(SEAL): derive this enclave's sealing key for `policy` at
    /// security version `svn` (≤ own SVN) with diversifier `key_id`.
    pub fn get_seal_key(
        &self,
        policy: SealPolicy,
        svn: u16,
        key_id: &[u8; 16],
    ) -> Result<[u8; 32], SgxError> {
        self.handle
            .inner
            .seal_key_for(self.identity, policy, svn, key_id)
    }

    /// EREPORT: produce a report about this enclave targeted at another
    /// enclave, carrying 64 bytes of caller data.
    pub fn create_report(&mut self, target: &TargetInfo, report_data: [u8; 64]) -> Report {
        let body = ReportBody {
            cpu_svn: self.handle.inner.config.cpu_svn,
            attributes: self.identity.attributes,
            mrenclave: self.identity.mrenclave,
            mrsigner: self.identity.mrsigner,
            isv_prod_id: self.identity.isv_prod_id,
            isv_svn: self.identity.isv_svn,
            report_data,
        };
        let mut key_id = [0u8; 16];
        self.handle.inner.random_bytes(&mut key_id);
        let mac = self.handle.inner.mac_report(target, &body, &key_id);
        Report { body, key_id, mac }
    }

    /// Verify a report that was targeted at *this* enclave.
    pub fn verify_report(&self, report: &Report) -> Result<(), SgxError> {
        let target = TargetInfo {
            mrenclave: self.identity.mrenclave,
        };
        let expected = self
            .handle
            .inner
            .mac_report(&target, &report.body, &report.key_id);
        if vnfguard_crypto::ct_eq(&expected, &report.mac) {
            Ok(())
        } else {
            Err(SgxError::BadReport)
        }
    }

    /// Seal `plaintext` under this enclave's identity with `policy`.
    pub fn seal(
        &mut self,
        policy: SealPolicy,
        aad: &[u8],
        plaintext: &[u8],
    ) -> Result<SealedBlob, SgxError> {
        let mut key_id = [0u8; 16];
        self.handle.inner.random_bytes(&mut key_id);
        let mut nonce = [0u8; 12];
        self.handle.inner.random_bytes(&mut nonce);
        let key = self.get_seal_key(policy, self.identity.isv_svn, &key_id)?;
        SealedBlob::seal(
            &key,
            policy,
            self.identity.isv_svn,
            self.identity.isv_prod_id,
            key_id,
            nonce,
            aad,
            plaintext,
        )
    }

    /// Unseal a blob previously sealed by this enclave identity (or, for
    /// MRSIGNER policy, by any enclave from the same author at SVN ≤ ours).
    pub fn unseal(&self, blob: &SealedBlob, aad: &[u8]) -> Result<Vec<u8>, SgxError> {
        let key = self.get_seal_key(blob.policy, blob.svn, &blob.key_id)?;
        blob.unseal(&key, aad)
    }
}

/// A loaded, initialized (and therefore immutable) enclave.
pub struct Enclave {
    id: EnclaveId,
    handle: EnclaveHandle,
    identity: EnclaveIdentity,
    size_bytes: usize,
    code: Mutex<Box<dyn EnclaveCode>>,
    destroyed: bool,
}

impl Enclave {
    pub(crate) fn new(
        handle: EnclaveHandle,
        id: u64,
        identity: EnclaveIdentity,
        size_bytes: usize,
        code: Box<dyn EnclaveCode>,
    ) -> Enclave {
        Enclave {
            id: EnclaveId(id),
            handle,
            identity,
            size_bytes,
            code: Mutex::new(code),
            destroyed: false,
        }
    }

    pub fn id(&self) -> EnclaveId {
        self.id
    }

    pub fn identity(&self) -> &EnclaveIdentity {
        &self.identity
    }

    pub fn mrenclave(&self) -> Measurement {
        self.identity.mrenclave
    }

    /// The target info another enclave needs to direct a report here.
    pub fn target_info(&self) -> TargetInfo {
        TargetInfo {
            mrenclave: self.identity.mrenclave,
        }
    }

    /// Enter the enclave: dispatch `opcode`/`input` to the enclave code.
    ///
    /// Pays the platform's transition cost on every crossing. Ocalls from
    /// the enclave code fail; use [`Enclave::ecall_io`] to provide them.
    pub fn ecall(&self, opcode: u16, input: &[u8]) -> Result<Vec<u8>, SgxError> {
        if self.destroyed {
            return Err(SgxError::EnclaveDestroyed);
        }
        self.handle.inner.transition.enter_exit();
        let mut code = self.code.lock();
        let mut ctx = EnclaveContext {
            handle: &self.handle,
            identity: &self.identity,
            ocall: None,
        };
        code.on_call(&mut ctx, opcode, input)
    }

    /// Enter the enclave with an ocall handler available, so the enclave
    /// code can call back out (e.g. for network I/O during an in-enclave
    /// TLS handshake).
    pub fn ecall_io(
        &self,
        opcode: u16,
        input: &[u8],
        mut ocall: impl FnMut(u16, &[u8]) -> Result<Vec<u8>, SgxError>,
    ) -> Result<Vec<u8>, SgxError> {
        if self.destroyed {
            return Err(SgxError::EnclaveDestroyed);
        }
        self.handle.inner.transition.enter_exit();
        let mut code = self.code.lock();
        let mut ctx = EnclaveContext {
            handle: &self.handle,
            identity: &self.identity,
            ocall: Some(&mut ocall),
        };
        code.on_call(&mut ctx, opcode, input)
    }

    /// Produce a report about this enclave (host-invoked EREPORT wrapper:
    /// the report attests the enclave's measured identity).
    pub fn create_report(&self, target: &TargetInfo, report_data: [u8; 64]) -> Report {
        let mut ctx = EnclaveContext {
            handle: &self.handle,
            identity: &self.identity,
            ocall: None,
        };
        ctx.create_report(target, report_data)
    }

    /// Tear down the enclave, releasing its EPC pages. Further ecalls fail.
    pub fn destroy(&mut self) {
        if !self.destroyed {
            self.destroyed = true;
            self.handle.inner.release_epc(self.size_bytes);
        }
    }
}

impl Drop for Enclave {
    fn drop(&mut self) {
        self.destroy();
    }
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately excludes the code/state: enclave memory is opaque.
        f.debug_struct("Enclave")
            .field("id", &self.id)
            .field("mrenclave", &self.identity.mrenclave)
            .field("size_bytes", &self.size_bytes)
            .field("destroyed", &self.destroyed)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::SgxPlatform;
    use crate::sigstruct::EnclaveAuthor;

    /// A counter enclave: private state only reachable through ecalls.
    struct Counter {
        image: Vec<u8>,
        value: u64,
        secret: [u8; 32],
    }

    impl Counter {
        const OP_INCREMENT: u16 = 1;
        const OP_GET: u16 = 2;
        const OP_SEAL_SECRET: u16 = 3;
        const OP_UNSEAL_SECRET: u16 = 4;
        const OP_HMAC_WITH_SECRET: u16 = 5;

        fn new(image: &[u8]) -> Counter {
            Counter {
                image: image.to_vec(),
                value: 0,
                secret: [0x5a; 32],
            }
        }
    }

    impl EnclaveCode for Counter {
        fn image(&self) -> Vec<u8> {
            self.image.clone()
        }

        fn on_call(
            &mut self,
            ctx: &mut EnclaveContext,
            opcode: u16,
            input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            match opcode {
                Self::OP_INCREMENT => {
                    self.value += 1;
                    Ok(Vec::new())
                }
                Self::OP_GET => Ok(self.value.to_be_bytes().to_vec()),
                Self::OP_SEAL_SECRET => {
                    let blob = ctx.seal(SealPolicy::MrEnclave, b"counter", &self.secret)?;
                    Ok(blob.encode())
                }
                Self::OP_UNSEAL_SECRET => {
                    let blob = SealedBlob::decode(input)?;
                    let secret = ctx.unseal(&blob, b"counter")?;
                    // Restore, returning only a success marker.
                    self.secret = secret
                        .try_into()
                        .map_err(|_| SgxError::App("bad secret length".into()))?;
                    Ok(b"ok".to_vec())
                }
                Self::OP_HMAC_WITH_SECRET => {
                    Ok(vnfguard_crypto::hmac::hmac_sha256(&self.secret, input).to_vec())
                }
                other => Err(SgxError::BadCall(other)),
            }
        }
    }

    fn load_counter(platform: &SgxPlatform, image: &[u8]) -> Enclave {
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let signed = author.sign_enclave(SgxPlatform::measure_image(image, 8192), 1, 1, false);
        platform
            .load_enclave(&signed, 8192, Box::new(Counter::new(image)))
            .unwrap()
    }

    #[test]
    fn ecalls_reach_private_state() {
        let platform = SgxPlatform::new(b"host");
        let enclave = load_counter(&platform, b"counter v1");
        enclave.ecall(Counter::OP_INCREMENT, &[]).unwrap();
        enclave.ecall(Counter::OP_INCREMENT, &[]).unwrap();
        let out = enclave.ecall(Counter::OP_GET, &[]).unwrap();
        assert_eq!(u64::from_be_bytes(out.try_into().unwrap()), 2);
        assert_eq!(platform.ecall_count(), 3);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let platform = SgxPlatform::new(b"host");
        let enclave = load_counter(&platform, b"counter v1");
        assert_eq!(enclave.ecall(999, &[]), Err(SgxError::BadCall(999)));
    }

    #[test]
    fn destroyed_enclave_refuses_calls() {
        let platform = SgxPlatform::new(b"host");
        let mut enclave = load_counter(&platform, b"counter v1");
        enclave.destroy();
        assert_eq!(
            enclave.ecall(Counter::OP_GET, &[]),
            Err(SgxError::EnclaveDestroyed)
        );
        assert_eq!(platform.epc_used(), 0);
    }

    #[test]
    fn seal_unseal_roundtrip_same_enclave() {
        let platform = SgxPlatform::new(b"host");
        let enclave = load_counter(&platform, b"counter v1");
        let blob = enclave.ecall(Counter::OP_SEAL_SECRET, &[]).unwrap();
        let out = enclave.ecall(Counter::OP_UNSEAL_SECRET, &blob).unwrap();
        assert_eq!(out, b"ok");
    }

    #[test]
    fn sealed_blob_bound_to_mrenclave() {
        let platform = SgxPlatform::new(b"host");
        let v1 = load_counter(&platform, b"counter v1");
        let v2 = load_counter(&platform, b"counter v2"); // different measurement
        let blob = v1.ecall(Counter::OP_SEAL_SECRET, &[]).unwrap();
        // The v2 enclave derives a different MRENCLAVE seal key.
        let err = v2.ecall(Counter::OP_UNSEAL_SECRET, &blob).unwrap_err();
        assert!(matches!(err, SgxError::UnsealFailed(_)), "{err}");
    }

    #[test]
    fn sealed_blob_bound_to_platform() {
        let p1 = SgxPlatform::new(b"host-1");
        let p2 = SgxPlatform::new(b"host-2");
        let e1 = load_counter(&p1, b"counter v1");
        let e2 = load_counter(&p2, b"counter v1"); // same image, other machine
        let blob = e1.ecall(Counter::OP_SEAL_SECRET, &[]).unwrap();
        assert!(e2.ecall(Counter::OP_UNSEAL_SECRET, &blob).is_err());
    }

    #[test]
    fn local_attestation_between_enclaves() {
        let platform = SgxPlatform::new(b"host");
        let prover = load_counter(&platform, b"counter v1");
        let verifier = load_counter(&platform, b"counter v2");
        let report = prover.create_report(&verifier.target_info(), [7; 64]);
        assert_eq!(report.body.mrenclave, prover.mrenclave());

        // Verification must run inside the verifier enclave: model it with a
        // context produced through its ecall path. For the test we use the
        // EnclaveContext directly through create_report's host wrapper on
        // verifier, checking the MAC cross-enclave.
        let ctx_identity = verifier.identity();
        let target = TargetInfo {
            mrenclave: ctx_identity.mrenclave,
        };
        let expected_ok = {
            // Re-MAC via a context borrowed from the verifier enclave.
            let ctx = EnclaveContext {
                handle: &verifier.handle,
                identity: &verifier.identity,
                ocall: None,
            };
            ctx.verify_report(&report)
        };
        expected_ok.unwrap();
        let _ = target;

        // A report targeted at someone else fails verification here.
        let misdirected = prover.create_report(&prover.target_info(), [7; 64]);
        let ctx = EnclaveContext {
            handle: &verifier.handle,
            identity: &verifier.identity,
            ocall: None,
        };
        assert_eq!(ctx.verify_report(&misdirected), Err(SgxError::BadReport));

        // A tampered body fails.
        let mut tampered = prover.create_report(&verifier.target_info(), [7; 64]);
        tampered.body.isv_svn = 99;
        let ctx = EnclaveContext {
            handle: &verifier.handle,
            identity: &verifier.identity,
            ocall: None,
        };
        assert_eq!(ctx.verify_report(&tampered), Err(SgxError::BadReport));
    }

    #[test]
    fn private_state_never_escapes_via_api() {
        // The only way to use the secret is an HMAC through an ecall; the
        // Enclave type offers no accessor for it, and Debug is redacted.
        let platform = SgxPlatform::new(b"host");
        let enclave = load_counter(&platform, b"counter v1");
        let mac = enclave.ecall(Counter::OP_HMAC_WITH_SECRET, b"msg").unwrap();
        assert_eq!(mac.len(), 32);
        let dbg = format!("{enclave:?}");
        assert!(!dbg.contains("5a5a"), "secret leaked: {dbg}");
    }
}
