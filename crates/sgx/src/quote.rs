//! Remote attestation quotes and the quoting enclave.
//!
//! The quoting enclave (QE) converts a local report into a *quote*: the
//! report body plus the platform's EPID group id, signed with the
//! platform's attestation member key. Relying parties cannot verify quotes
//! themselves — they submit them to the attestation service
//! (`vnfguard-ias`), which knows the group membership and revocation state.
//! This mirrors the paper's step 2/4: "the Verification Manager contacts
//! the Intel Attestation Service … to both verify the validity of the
//! enclave key against the revocation list and the validity of the
//! integrity quote."

use crate::platform::PlatformInner;
use crate::report::{Report, ReportBody, TargetInfo};
use crate::SgxError;
use std::sync::Arc;
use vnfguard_crypto::sha2::sha256;
use vnfguard_encoding::{TlvReader, TlvWriter};

const TAG_BODY: u8 = 0x70;
const TAG_VERSION: u8 = 0x71;
const TAG_GROUP_ID: u8 = 0x72;
const TAG_QE_SVN: u8 = 0x73;
const TAG_BASENAME: u8 = 0x74;
const TAG_MEMBER_ID: u8 = 0x75;
const TAG_REPORT_BODY: u8 = 0x76;
const TAG_SIGNATURE: u8 = 0x77;

/// Current quote format version.
pub const QUOTE_VERSION: u16 = 2;

/// A remotely verifiable attestation quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    pub version: u16,
    /// EPID group of the attesting platform.
    pub epid_group_id: u32,
    /// Security version of the quoting enclave that produced this quote.
    pub qe_svn: u16,
    /// Verifier-chosen basename (linkable mode); binds the quote to one
    /// attestation exchange.
    pub basename: [u8; 32],
    /// Identity and user data of the attested enclave.
    pub report_body: ReportBody,
    /// Pseudonymous member identifier (hash of the member public key) the
    /// attestation service uses for signature-revocation checks.
    pub member_id: [u8; 32],
    signature: Vec<u8>,
}

impl Quote {
    fn signed_bytes(
        version: u16,
        epid_group_id: u32,
        qe_svn: u16,
        basename: &[u8; 32],
        member_id: &[u8; 32],
        report_body: &ReportBody,
    ) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.u32(TAG_VERSION, version as u32)
            .u32(TAG_GROUP_ID, epid_group_id)
            .u32(TAG_QE_SVN, qe_svn as u32)
            .bytes(TAG_BASENAME, basename)
            .bytes(TAG_MEMBER_ID, member_id)
            .bytes(TAG_REPORT_BODY, &report_body.encode());
        w.finish()
    }

    /// Verify the quote signature against a candidate member public key,
    /// prepared once per registration. (Only the attestation service holds
    /// the member key registry.)
    pub fn verify_with_member_key(
        &self,
        member_key: &vnfguard_crypto::ed25519::PreparedVerifyingKey,
    ) -> Result<(), SgxError> {
        let bytes = Self::signed_bytes(
            self.version,
            self.epid_group_id,
            self.qe_svn,
            &self.basename,
            &self.member_id,
            &self.report_body,
        );
        member_key
            .verify(&bytes, &self.signature)
            .map_err(|_| SgxError::BadReport)
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.nested(TAG_BODY, |inner| {
            inner
                .u32(TAG_VERSION, self.version as u32)
                .u32(TAG_GROUP_ID, self.epid_group_id)
                .u32(TAG_QE_SVN, self.qe_svn as u32)
                .bytes(TAG_BASENAME, &self.basename)
                .bytes(TAG_MEMBER_ID, &self.member_id)
                .bytes(TAG_REPORT_BODY, &self.report_body.encode());
        })
        .bytes(TAG_SIGNATURE, &self.signature);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<Quote, SgxError> {
        let mut r = TlvReader::new(bytes);
        let mut body = r.expect_nested(TAG_BODY)?;
        let version = body.expect_u32(TAG_VERSION)? as u16;
        let epid_group_id = body.expect_u32(TAG_GROUP_ID)?;
        let qe_svn = body.expect_u32(TAG_QE_SVN)? as u16;
        let basename = body.expect_array::<32>(TAG_BASENAME)?;
        let member_id = body.expect_array::<32>(TAG_MEMBER_ID)?;
        let report_body = ReportBody::decode(body.expect(TAG_REPORT_BODY)?)?;
        body.finish()?;
        let signature = r.expect(TAG_SIGNATURE)?.to_vec();
        r.finish()?;
        Ok(Quote {
            version,
            epid_group_id,
            qe_svn,
            basename,
            member_id,
            report_body,
            signature,
        })
    }
}

/// The platform's quoting enclave.
pub struct QuotingEnclave {
    inner: Arc<PlatformInner>,
    target: TargetInfo,
}

impl QuotingEnclave {
    pub(crate) fn new(inner: Arc<PlatformInner>) -> QuotingEnclave {
        // The QE's own measured identity, to which reports must be targeted.
        let target = TargetInfo {
            mrenclave: crate::measurement::Measurement(sha256(b"vnfguard quoting enclave")),
        };
        QuotingEnclave { inner, target }
    }

    /// The target info application enclaves must use when creating reports
    /// for quoting.
    pub fn target_info(&self) -> TargetInfo {
        self.target
    }

    /// Pseudonymous member id of this platform's attestation key.
    pub fn member_id(&self) -> [u8; 32] {
        sha256(self.inner.attestation_key.public_key().as_bytes())
    }

    /// Verify the local report (it must be targeted at the QE) and produce
    /// a quote over its body.
    pub fn quote(&self, report: &Report, basename: [u8; 32]) -> Result<Quote, SgxError> {
        let expected = self
            .inner
            .mac_report(&self.target, &report.body, &report.key_id);
        if !vnfguard_crypto::ct_eq(&expected, &report.mac) {
            return Err(SgxError::BadReport);
        }
        self.inner.transition.enter_exit();
        let member_id = self.member_id();
        let bytes = Quote::signed_bytes(
            QUOTE_VERSION,
            self.inner.config.epid_group_id,
            self.inner.config.qe_svn,
            &basename,
            &member_id,
            &report.body,
        );
        let signature = self.inner.attestation_key.sign(&bytes).to_vec();
        Ok(Quote {
            version: QUOTE_VERSION,
            epid_group_id: self.inner.config.epid_group_id,
            qe_svn: self.inner.config.qe_svn,
            basename,
            member_id,
            report_body: report.body.clone(),
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::{EnclaveCode, EnclaveContext};
    use crate::platform::SgxPlatform;
    use crate::sigstruct::EnclaveAuthor;
    use vnfguard_crypto::ed25519::{PreparedVerifyingKey, VerifyingKey};

    fn prepared(key: VerifyingKey) -> PreparedVerifyingKey {
        PreparedVerifyingKey::new(key).unwrap()
    }

    struct Null(Vec<u8>);
    impl EnclaveCode for Null {
        fn image(&self) -> Vec<u8> {
            self.0.clone()
        }
        fn on_call(
            &mut self,
            _ctx: &mut EnclaveContext,
            op: u16,
            _input: &[u8],
        ) -> Result<Vec<u8>, SgxError> {
            Err(SgxError::BadCall(op))
        }
    }

    fn setup() -> (SgxPlatform, crate::enclave::Enclave) {
        let platform = SgxPlatform::new(b"quote tests");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let image = b"app enclave";
        let signed = author.sign_enclave(SgxPlatform::measure_image(image, 4096), 1, 1, false);
        let enclave = platform
            .load_enclave(&signed, 4096, Box::new(Null(image.to_vec())))
            .unwrap();
        (platform, enclave)
    }

    #[test]
    fn quote_generation_and_member_verification() {
        let (platform, enclave) = setup();
        let qe = platform.quoting_enclave();
        let report = enclave.create_report(&qe.target_info(), [3; 64]);
        let quote = qe.quote(&report, [9; 32]).unwrap();
        assert_eq!(quote.epid_group_id, platform.epid_group_id());
        assert_eq!(quote.report_body.mrenclave, enclave.mrenclave());
        assert_eq!(quote.report_body.report_data, [3; 64]);
        quote
            .verify_with_member_key(&prepared(platform.attestation_public_key()))
            .unwrap();
    }

    #[test]
    fn qe_rejects_misdirected_report() {
        let (platform, enclave) = setup();
        let qe = platform.quoting_enclave();
        // Report targeted at the app enclave itself, not the QE.
        let report = enclave.create_report(&enclave.target_info(), [0; 64]);
        assert_eq!(qe.quote(&report, [0; 32]), Err(SgxError::BadReport));
    }

    #[test]
    fn qe_rejects_cross_platform_report() {
        let (_p1, enclave) = setup();
        let other = SgxPlatform::new(b"other platform");
        let qe = other.quoting_enclave();
        let report = enclave.create_report(&qe.target_info(), [0; 64]);
        assert_eq!(qe.quote(&report, [0; 32]), Err(SgxError::BadReport));
    }

    #[test]
    fn quote_tamper_detected() {
        let (platform, enclave) = setup();
        let qe = platform.quoting_enclave();
        let report = enclave.create_report(&qe.target_info(), [3; 64]);
        let quote = qe.quote(&report, [9; 32]).unwrap();
        let key = prepared(platform.attestation_public_key());

        let mut bad = quote.clone();
        bad.report_body.mrenclave = crate::measurement::Measurement([0xee; 32]);
        assert!(bad.verify_with_member_key(&key).is_err());

        let mut bad = quote.clone();
        bad.basename = [0; 32];
        assert!(bad.verify_with_member_key(&key).is_err());

        let mut bad = quote;
        bad.epid_group_id ^= 1;
        assert!(bad.verify_with_member_key(&key).is_err());
    }

    #[test]
    fn quote_roundtrip() {
        let (platform, enclave) = setup();
        let qe = platform.quoting_enclave();
        let report = enclave.create_report(&qe.target_info(), [1; 64]);
        let quote = qe.quote(&report, [2; 32]).unwrap();
        let decoded = Quote::decode(&quote.encode()).unwrap();
        assert_eq!(decoded, quote);
        decoded
            .verify_with_member_key(&prepared(platform.attestation_public_key()))
            .unwrap();
    }

    #[test]
    fn wrong_member_key_rejected() {
        let (platform, enclave) = setup();
        let qe = platform.quoting_enclave();
        let report = enclave.create_report(&qe.target_info(), [1; 64]);
        let quote = qe.quote(&report, [2; 32]).unwrap();
        let other = SgxPlatform::new(b"other");
        assert!(quote
            .verify_with_member_key(&prepared(other.attestation_public_key()))
            .is_err());
    }
}
