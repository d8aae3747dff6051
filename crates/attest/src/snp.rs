//! Software AMD SEV-SNP attestation: confidential VMs as first-class
//! attested platforms, appraised **offline**.
//!
//! The model reproduces the pieces of the SEV-SNP attestation chain a
//! relying party actually verifies (the shape SNPGuard documents):
//!
//! - an [`SnpReport`] carrying the 48-byte launch measurement, the guest
//!   policy word (debug bit and friends), the 64-byte REPORT_DATA register
//!   the workload binds its nonce/key material into, and the platform TCB
//!   version;
//! - a VCEK-style certificate chain: the per-chip [`VcekCert`] (bound to a
//!   TCB version and an expiry) is signed by the AMD SEV signing key
//!   ([`AskCert`]), which is in turn signed by the AMD root key (ARK) —
//!   modeled by [`AmdRoot`];
//! - offline appraisal: [`SnpVerifier`] walks the chain against a pinned
//!   ARK public key and the deployment [`SimClock`] — **no attestation
//!   service round-trip at all**, which is the operational contrast with
//!   the SGX/IAS path the e18 bench measures.
//!
//! Every signature uses a distinct domain-separation prefix, so no
//! certificate can be replayed as a report (or vice versa), and the
//! evidence bundle opens with the [`SNP_EVIDENCE_MAGIC`] bytes so SGX
//! quotes handed to this appraiser die as structural decode errors —
//! cross-backend confusion fails closed.
//!
//! [`SnpPlatform`] carries seeded fault hooks (forged report signature,
//! stale VCEK, debug guest policy) so the refusal paths are drillable
//! end-to-end; the fault machinery draws on its own splitmix64 stream and
//! never touches any relying-party DRBG.

use crate::{AttestError, AttestationBackend, BackendKind, EvidenceAppraisal, TcbStatus};
use vnfguard_controller::clock::SimClock;
use vnfguard_crypto::ed25519::{SigningKey, VerifyingKey};
use vnfguard_crypto::sha2::sha256;
use vnfguard_encoding::{EncodingError, TlvReader, TlvWriter};

/// First bytes of every encoded [`SnpEvidence`] bundle. Anything else is
/// not SNP evidence and is refused before any cryptography runs.
pub const SNP_EVIDENCE_MAGIC: &[u8; 4] = b"SNPE";

/// Guest-policy bit allowing the hypervisor to debug the guest. Production
/// appraisal policy refuses reports with this bit set.
pub const POLICY_DEBUG_BIT: u64 = 1 << 19;

/// Report format version this model speaks (mirrors SNP's version 2
/// attestation report structure).
pub const SNP_REPORT_VERSION: u32 = 2;

const DOMAIN_ASK: &[u8] = b"vnfguard-snp-ask-v1";
const DOMAIN_VCEK: &[u8] = b"vnfguard-snp-vcek-v1";
const DOMAIN_REPORT: &[u8] = b"vnfguard-snp-report-v1";
const DOMAIN_LAUNCH: &[u8] = b"vnfguard-snp-launch-v1";

const TAG_VERSION: u8 = 0x01;
const TAG_POLICY: u8 = 0x02;
const TAG_MEASUREMENT: u8 = 0x03;
const TAG_REPORT_DATA: u8 = 0x04;
const TAG_TCB: u8 = 0x05;
const TAG_PUBLIC_KEY: u8 = 0x06;
const TAG_NOT_AFTER: u8 = 0x07;
const TAG_SIGNATURE: u8 = 0x08;
const TAG_REPORT: u8 = 0x10;
const TAG_REPORT_SIG: u8 = 0x11;
const TAG_VCEK: u8 = 0x12;
const TAG_ASK: u8 = 0x13;

/// Derive a 48-byte launch measurement from a guest image identifier, the
/// CVM analogue of `SgxPlatform::measure_image`.
pub fn launch_measurement(image: &[u8]) -> [u8; 48] {
    let left = sha256(&[DOMAIN_LAUNCH, b".l", image].concat());
    let right = sha256(&[DOMAIN_LAUNCH, b".r", image].concat());
    let mut out = [0u8; 48];
    out[..32].copy_from_slice(&left);
    out[32..].copy_from_slice(&right[..16]);
    out
}

/// Normalize a 48-byte launch measurement into the 32-byte register space
/// whitelists are keyed on. Domain-separated, so an SNP entry can never be
/// satisfied by raw SGX MRENCLAVE bytes even if an attacker controls both.
pub fn normalize_measurement(measurement: &[u8; 48]) -> [u8; 32] {
    sha256(&[DOMAIN_LAUNCH, &measurement[..]].concat())
}

/// The signed body of an SNP attestation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnpReport {
    pub version: u32,
    /// Guest policy word; see [`POLICY_DEBUG_BIT`].
    pub guest_policy: u64,
    /// Launch measurement of the guest image.
    pub measurement: [u8; 48],
    /// Guest-chosen 64-byte binding register (nonce / key hashes).
    pub report_data: [u8; 64],
    /// Platform TCB version the report was produced under.
    pub tcb_version: u64,
}

impl SnpReport {
    fn encode_into(&self, w: &mut TlvWriter) {
        w.u32(TAG_VERSION, self.version)
            .u64(TAG_POLICY, self.guest_policy)
            .bytes(TAG_MEASUREMENT, &self.measurement)
            .bytes(TAG_REPORT_DATA, &self.report_data)
            .u64(TAG_TCB, self.tcb_version);
    }

    fn decode(mut r: TlvReader) -> Result<SnpReport, EncodingError> {
        let report = SnpReport {
            version: r.expect_u32(TAG_VERSION)?,
            guest_policy: r.expect_u64(TAG_POLICY)?,
            measurement: r.expect_array(TAG_MEASUREMENT)?,
            report_data: r.expect_array(TAG_REPORT_DATA)?,
            tcb_version: r.expect_u64(TAG_TCB)?,
        };
        r.finish()?;
        Ok(report)
    }

    /// The domain-separated byte string the VCEK signs.
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        self.encode_into(&mut w);
        [DOMAIN_REPORT, &w.finish()].concat()
    }
}

/// Versioned chip endorsement key certificate: binds a VCEK public key to
/// a TCB version and an expiry, under the ASK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcekCert {
    pub public_key: [u8; 32],
    /// TCB version this VCEK endorses.
    pub tcb_version: u64,
    /// Expiry (unix seconds); verifiers must refresh endorsement
    /// collateral, so a stale VCEK fails closed.
    pub not_after: u64,
    pub signature: [u8; 64],
}

impl VcekCert {
    fn signed_bytes(public_key: &[u8; 32], tcb_version: u64, not_after: u64) -> Vec<u8> {
        [
            DOMAIN_VCEK,
            &public_key[..],
            &tcb_version.to_be_bytes(),
            &not_after.to_be_bytes(),
        ]
        .concat()
    }

    /// Check the ASK signature over this certificate.
    pub fn verify(&self, ask_key: &VerifyingKey) -> bool {
        ask_key
            .verify(
                &Self::signed_bytes(&self.public_key, self.tcb_version, self.not_after),
                &self.signature,
            )
            .is_ok()
    }

    fn encode_into(&self, w: &mut TlvWriter) {
        w.bytes(TAG_PUBLIC_KEY, &self.public_key)
            .u64(TAG_TCB, self.tcb_version)
            .u64(TAG_NOT_AFTER, self.not_after)
            .bytes(TAG_SIGNATURE, &self.signature);
    }

    fn decode(mut r: TlvReader) -> Result<VcekCert, EncodingError> {
        let cert = VcekCert {
            public_key: r.expect_array(TAG_PUBLIC_KEY)?,
            tcb_version: r.expect_u64(TAG_TCB)?,
            not_after: r.expect_u64(TAG_NOT_AFTER)?,
            signature: r.expect_array(TAG_SIGNATURE)?,
        };
        r.finish()?;
        Ok(cert)
    }
}

/// AMD SEV signing key certificate, signed by the ARK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AskCert {
    pub public_key: [u8; 32],
    pub signature: [u8; 64],
}

impl AskCert {
    fn signed_bytes(public_key: &[u8; 32]) -> Vec<u8> {
        [DOMAIN_ASK, &public_key[..]].concat()
    }

    /// Check the ARK signature over this certificate.
    pub fn verify(&self, ark_key: &VerifyingKey) -> bool {
        ark_key
            .verify(&Self::signed_bytes(&self.public_key), &self.signature)
            .is_ok()
    }

    fn encode_into(&self, w: &mut TlvWriter) {
        w.bytes(TAG_PUBLIC_KEY, &self.public_key)
            .bytes(TAG_SIGNATURE, &self.signature);
    }

    fn decode(mut r: TlvReader) -> Result<AskCert, EncodingError> {
        let cert = AskCert {
            public_key: r.expect_array(TAG_PUBLIC_KEY)?,
            signature: r.expect_array(TAG_SIGNATURE)?,
        };
        r.finish()?;
        Ok(cert)
    }
}

/// The full evidence bundle a CVM presents: report + signature + the VCEK
/// chain needed to appraise it offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnpEvidence {
    pub report: SnpReport,
    pub report_signature: [u8; 64],
    pub vcek: VcekCert,
    pub ask: AskCert,
}

impl SnpEvidence {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.nested(TAG_REPORT, |w| self.report.encode_into(w))
            .bytes(TAG_REPORT_SIG, &self.report_signature)
            .nested(TAG_VCEK, |w| self.vcek.encode_into(w))
            .nested(TAG_ASK, |w| self.ask.encode_into(w));
        [&SNP_EVIDENCE_MAGIC[..], &w.finish()].concat()
    }

    pub fn decode(bytes: &[u8]) -> Result<SnpEvidence, EncodingError> {
        let payload = bytes
            .strip_prefix(&SNP_EVIDENCE_MAGIC[..])
            .ok_or_else(|| EncodingError::Malformed("not SNP evidence (bad magic)".into()))?;
        let mut r = TlvReader::new(payload);
        let evidence = SnpEvidence {
            report: SnpReport::decode(r.expect_nested(TAG_REPORT)?)?,
            report_signature: r.expect_array(TAG_REPORT_SIG)?,
            vcek: VcekCert::decode(r.expect_nested(TAG_VCEK)?)?,
            ask: AskCert::decode(r.expect_nested(TAG_ASK)?)?,
        };
        r.finish()?;
        Ok(evidence)
    }
}

/// The model AMD key hierarchy: ARK at the root, ASK below it, issuing
/// per-chip VCEKs. One `AmdRoot` anchors a whole SNP fleet, the way one
/// `AttestationService` anchors the SGX fleet.
pub struct AmdRoot {
    ark: SigningKey,
    ask: SigningKey,
    ask_cert: AskCert,
}

impl AmdRoot {
    pub fn new(seed: &[u8]) -> AmdRoot {
        let ark = SigningKey::from_seed(&sha256(&[b"vnfguard-snp-ark", seed].concat()));
        let ask = SigningKey::from_seed(&sha256(&[b"vnfguard-snp-ask", seed].concat()));
        let ask_public = *ask.public_key().as_bytes();
        let ask_cert = AskCert {
            public_key: ask_public,
            signature: ark.sign(&AskCert::signed_bytes(&ask_public)),
        };
        AmdRoot { ark, ask, ask_cert }
    }

    /// The ARK public key relying parties pin.
    pub fn ark_public(&self) -> VerifyingKey {
        self.ark.public_key()
    }

    /// The ARK-signed ASK certificate distributed with evidence.
    pub fn ask_cert(&self) -> AskCert {
        self.ask_cert.clone()
    }

    /// Endorse a chip key at a TCB version, valid until `not_after`.
    pub fn issue_vcek(&self, public_key: [u8; 32], tcb_version: u64, not_after: u64) -> VcekCert {
        VcekCert {
            public_key,
            tcb_version,
            not_after,
            signature: self
                .ask
                .sign(&VcekCert::signed_bytes(&public_key, tcb_version, not_after)),
        }
    }
}

/// Seeded misbehaviors an [`SnpPlatform`] can be provisioned with, for
/// drilling refusal paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnpFault {
    /// Sign reports with a key the VCEK does not endorse.
    ForgedSignature,
    /// Present a properly signed but long-expired VCEK.
    StaleVcek,
    /// Set the debug bit in the guest policy.
    DebugPolicy,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A (simulated) SEV-SNP machine: holds the chip's VCEK private key, its
/// ASK/VCEK certificates, and the launch measurement of the CVM image it
/// booted. Endorsement collateral (including a deliberately stale VCEK for
/// the fault hook) is captured at provisioning time, so faulted platforms
/// need no later access to the [`AmdRoot`].
pub struct SnpPlatform {
    vcek_key: SigningKey,
    vcek_fresh: VcekCert,
    vcek_stale: VcekCert,
    ask: AskCert,
    measurement: [u8; 48],
    tcb_version: u64,
    fault: Option<SnpFault>,
    forge_key: SigningKey,
}

impl SnpPlatform {
    /// Provision a chip under `root`: derive the VCEK pair from `seed`,
    /// obtain fresh (and, for fault drills, stale) endorsements at
    /// `tcb_version`, and record the booted image's launch measurement.
    pub fn provision(
        root: &AmdRoot,
        seed: &[u8],
        measurement: [u8; 48],
        tcb_version: u64,
    ) -> SnpPlatform {
        let vcek_key = SigningKey::from_seed(&sha256(&[b"vnfguard-snp-vcek", seed].concat()));
        let vcek_public = *vcek_key.public_key().as_bytes();
        // The fault RNG is deliberately local (splitmix64 over a seed
        // digest): relying-party DRBG streams are replayed byte-for-byte
        // by oracle twins and must never observe platform faults.
        let mut fault_rng = u64::from_be_bytes(
            sha256(&[seed, b".fault"].concat())[..8]
                .try_into()
                .expect("8"),
        );
        let forge_seed = sha256(&splitmix(&mut fault_rng).to_be_bytes());
        SnpPlatform {
            vcek_fresh: root.issue_vcek(vcek_public, tcb_version, u64::MAX),
            vcek_stale: root.issue_vcek(vcek_public, tcb_version, 1),
            vcek_key,
            ask: root.ask_cert(),
            measurement,
            tcb_version,
            fault: None,
            forge_key: SigningKey::from_seed(&forge_seed),
        }
    }

    /// Arm one of the seeded fault hooks.
    pub fn with_fault(mut self, fault: SnpFault) -> SnpPlatform {
        self.fault = Some(fault);
        self
    }

    pub fn set_fault(&mut self, fault: Option<SnpFault>) {
        self.fault = fault;
    }

    pub fn fault(&self) -> Option<SnpFault> {
        self.fault
    }

    /// Launch measurement of the CVM image this platform booted.
    pub fn launch_measurement(&self) -> [u8; 48] {
        self.measurement
    }

    pub fn tcb_version(&self) -> u64 {
        self.tcb_version
    }

    /// Produce an evidence bundle for a workload measuring to
    /// `measurement`, binding `report_data`. Fault hooks apply here.
    pub fn attest(&self, measurement: [u8; 48], report_data: [u8; 64]) -> Vec<u8> {
        let mut guest_policy = 0u64;
        if self.fault == Some(SnpFault::DebugPolicy) {
            guest_policy |= POLICY_DEBUG_BIT;
        }
        let report = SnpReport {
            version: SNP_REPORT_VERSION,
            guest_policy,
            measurement,
            report_data,
            tcb_version: self.tcb_version,
        };
        let signer = if self.fault == Some(SnpFault::ForgedSignature) {
            &self.forge_key
        } else {
            &self.vcek_key
        };
        let vcek = if self.fault == Some(SnpFault::StaleVcek) {
            self.vcek_stale.clone()
        } else {
            self.vcek_fresh.clone()
        };
        SnpEvidence {
            report_signature: signer.sign(&report.signing_bytes()),
            report,
            vcek,
            ask: self.ask.clone(),
        }
        .encode()
    }

    /// Evidence for the platform's own CVM (host attestation).
    pub fn attest_self(&self, report_data: [u8; 64]) -> Vec<u8> {
        self.attest(self.measurement, report_data)
    }
}

/// Offline SNP appraiser: pins an ARK public key, walks the
/// ARK → ASK → VCEK → report chain, checks VCEK freshness against the
/// deployment clock, and distills the normalized appraisal. No service
/// round-trip; [`crate::Availability::Available`] always.
#[derive(Clone)]
pub struct SnpVerifier {
    ark: VerifyingKey,
    clock: SimClock,
    min_tcb: u64,
}

impl SnpVerifier {
    pub fn new(ark: VerifyingKey, clock: SimClock) -> SnpVerifier {
        SnpVerifier {
            ark,
            clock,
            min_tcb: 0,
        }
    }

    /// Reports below this TCB version appraise as
    /// [`TcbStatus::OutOfDate`] (policy decides acceptance).
    pub fn with_min_tcb(mut self, min_tcb: u64) -> SnpVerifier {
        self.min_tcb = min_tcb;
        self
    }
}

impl AttestationBackend for SnpVerifier {
    fn kind(&self) -> BackendKind {
        BackendKind::SevSnp
    }

    fn appraise(
        &mut self,
        evidence: &[u8],
        _nonce: &[u8],
    ) -> Result<EvidenceAppraisal, AttestError> {
        let evidence =
            SnpEvidence::decode(evidence).map_err(|e| AttestError::Encoding(e.to_string()))?;
        if !evidence.ask.verify(&self.ark) {
            return Err(AttestError::Rejected(
                "SNP ASK certificate not signed by the pinned ARK".into(),
            ));
        }
        let ask_key = VerifyingKey::from_bytes(&evidence.ask.public_key);
        if !evidence.vcek.verify(&ask_key) {
            return Err(AttestError::Rejected(
                "SNP VCEK certificate not signed by the ASK".into(),
            ));
        }
        if evidence.vcek.not_after < self.clock.now() {
            return Err(AttestError::Rejected(format!(
                "SNP VCEK endorsement expired at {} (now {})",
                evidence.vcek.not_after,
                self.clock.now()
            )));
        }
        let vcek_key = VerifyingKey::from_bytes(&evidence.vcek.public_key);
        if vcek_key
            .verify(&evidence.report.signing_bytes(), &evidence.report_signature)
            .is_err()
        {
            return Err(AttestError::Rejected(
                "SNP report signature does not verify under the VCEK".into(),
            ));
        }
        if evidence.report.version != SNP_REPORT_VERSION {
            return Err(AttestError::Rejected(format!(
                "SNP report version {} unsupported",
                evidence.report.version
            )));
        }
        if evidence.report.tcb_version > evidence.vcek.tcb_version {
            return Err(AttestError::Rejected(
                "SNP report claims a TCB newer than its VCEK endorsement".into(),
            ));
        }
        let mut advisories = Vec::new();
        let (tcb, native_status) = if evidence.report.tcb_version < self.min_tcb {
            advisories.push(format!(
                "AMD-TCB-BELOW-BASELINE: report {} < baseline {}",
                evidence.report.tcb_version, self.min_tcb
            ));
            (
                TcbStatus::OutOfDate,
                format!(
                    "TCB_BELOW_BASELINE ({} < {})",
                    evidence.report.tcb_version, self.min_tcb
                ),
            )
        } else {
            (TcbStatus::UpToDate, "TCB_CURRENT".to_string())
        };
        Ok(EvidenceAppraisal {
            backend: BackendKind::SevSnp,
            measurement: normalize_measurement(&evidence.report.measurement),
            report_data: evidence.report.report_data,
            debug: evidence.report.guest_policy & POLICY_DEBUG_BIT != 0,
            tcb,
            advisories,
            native_status,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AppraisalPolicy;

    fn fixture() -> (AmdRoot, SnpPlatform, SnpVerifier) {
        let root = AmdRoot::new(b"amd root");
        let platform =
            SnpPlatform::provision(&root, b"chip-0", launch_measurement(b"cvm image"), 7);
        let verifier = SnpVerifier::new(root.ark_public(), SimClock::at(1_700_000_000));
        (root, platform, verifier)
    }

    #[test]
    fn valid_evidence_appraises_offline() {
        let (_root, platform, mut verifier) = fixture();
        let report_data = [9u8; 64];
        let evidence = platform.attest_self(report_data);
        let appraisal = verifier.appraise(&evidence, b"unused").unwrap();
        assert_eq!(appraisal.backend, BackendKind::SevSnp);
        assert_eq!(appraisal.tcb, TcbStatus::UpToDate);
        assert_eq!(appraisal.report_data, report_data);
        assert_eq!(
            appraisal.measurement,
            normalize_measurement(&platform.launch_measurement())
        );
        assert!(!appraisal.debug);
        assert!(AppraisalPolicy::strict().check(&appraisal).is_ok());
    }

    #[test]
    fn forged_signature_rejected() {
        let (_root, platform, mut verifier) = fixture();
        let platform = platform.with_fault(SnpFault::ForgedSignature);
        let err = verifier
            .appraise(&platform.attest_self([0; 64]), b"")
            .unwrap_err();
        assert!(matches!(err, AttestError::Rejected(_)), "{err:?}");
    }

    #[test]
    fn stale_vcek_rejected() {
        let (_root, platform, mut verifier) = fixture();
        let platform = platform.with_fault(SnpFault::StaleVcek);
        let err = verifier
            .appraise(&platform.attest_self([0; 64]), b"")
            .unwrap_err();
        match err {
            AttestError::Rejected(msg) => assert!(msg.contains("expired"), "{msg}"),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn debug_policy_surfaces_and_strict_policy_refuses() {
        let (_root, platform, mut verifier) = fixture();
        let platform = platform.with_fault(SnpFault::DebugPolicy);
        let appraisal = verifier
            .appraise(&platform.attest_self([0; 64]), b"")
            .unwrap();
        assert!(appraisal.debug);
        assert!(AppraisalPolicy::strict().check(&appraisal).is_err());
        assert!(AppraisalPolicy::lenient().check(&appraisal).is_err());
    }

    #[test]
    fn non_snp_bytes_are_an_encoding_error() {
        let (_root, _platform, mut verifier) = fixture();
        let err = verifier
            .appraise(b"clearly not snp evidence", b"")
            .unwrap_err();
        assert!(matches!(err, AttestError::Encoding(_)), "{err:?}");
    }

    #[test]
    fn wrong_root_rejects_chain() {
        let (_root, platform, _verifier) = fixture();
        let other_root = AmdRoot::new(b"some other amd");
        let mut verifier = SnpVerifier::new(other_root.ark_public(), SimClock::at(1_700_000_000));
        let err = verifier
            .appraise(&platform.attest_self([0; 64]), b"")
            .unwrap_err();
        match err {
            AttestError::Rejected(msg) => assert!(msg.contains("ARK"), "{msg}"),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn tampered_measurement_breaks_report_signature() {
        let (_root, platform, mut verifier) = fixture();
        let mut evidence = SnpEvidence::decode(&platform.attest_self([0; 64])).unwrap();
        evidence.report.measurement[0] ^= 0xff;
        let err = verifier.appraise(&evidence.encode(), b"").unwrap_err();
        assert!(matches!(err, AttestError::Rejected(_)), "{err:?}");
    }

    #[test]
    fn below_baseline_tcb_is_out_of_date() {
        let root = AmdRoot::new(b"amd root");
        let platform = SnpPlatform::provision(&root, b"chip-1", launch_measurement(b"img"), 3);
        let mut verifier =
            SnpVerifier::new(root.ark_public(), SimClock::at(1_700_000_000)).with_min_tcb(5);
        let appraisal = verifier
            .appraise(&platform.attest_self([0; 64]), b"")
            .unwrap();
        assert_eq!(appraisal.tcb, TcbStatus::OutOfDate);
        assert!(AppraisalPolicy::strict().check(&appraisal).is_err());
        assert!(AppraisalPolicy::lenient().check(&appraisal).is_ok());
    }
}
