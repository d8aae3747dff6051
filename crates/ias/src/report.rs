//! Attestation verification reports (AVRs).

use crate::IasError;
use vnfguard_crypto::ed25519::{PreparedVerifyingKey, SigningKey};
use vnfguard_encoding::{TlvReader, TlvWriter};
use vnfguard_sgx::report::ReportBody;

const TAG_BODY: u8 = 0x80;
const TAG_ID: u8 = 0x81;
const TAG_TIMESTAMP: u8 = 0x82;
const TAG_STATUS: u8 = 0x83;
const TAG_NONCE: u8 = 0x84;
const TAG_QUOTE_BODY: u8 = 0x85;
const TAG_ADVISORY: u8 = 0x86;
const TAG_SIGNATURE: u8 = 0x87;

/// Verification verdicts, matching the real IAS status vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuoteStatus {
    /// The quote is valid and the platform TCB is current.
    Ok,
    /// The EPID signature over the quote is invalid.
    SignatureInvalid,
    /// The platform's EPID group has been revoked entirely.
    GroupRevoked,
    /// The platform's member key appears on the group's SigRL.
    SignatureRevoked,
    /// The attestation key itself is revoked.
    KeyRevoked,
    /// The quote is valid but the platform TCB is outdated.
    GroupOutOfDate,
    /// Valid quote, but additional platform configuration is required.
    ConfigurationNeeded,
    /// The EPID group is not known to the service.
    UnknownGroup,
    /// The quote format version is unsupported.
    VersionUnsupported,
}

impl QuoteStatus {
    /// Statuses that a strict appraisal policy accepts.
    pub fn is_ok_strict(self) -> bool {
        self == QuoteStatus::Ok
    }

    /// Statuses a lenient policy may accept (TCB warnings allowed).
    pub fn is_ok_lenient(self) -> bool {
        matches!(
            self,
            QuoteStatus::Ok | QuoteStatus::GroupOutOfDate | QuoteStatus::ConfigurationNeeded
        )
    }

    fn to_u8(self) -> u8 {
        match self {
            QuoteStatus::Ok => 0,
            QuoteStatus::SignatureInvalid => 1,
            QuoteStatus::GroupRevoked => 2,
            QuoteStatus::SignatureRevoked => 3,
            QuoteStatus::KeyRevoked => 4,
            QuoteStatus::GroupOutOfDate => 5,
            QuoteStatus::ConfigurationNeeded => 6,
            QuoteStatus::UnknownGroup => 7,
            QuoteStatus::VersionUnsupported => 8,
        }
    }

    fn from_u8(v: u8) -> Result<QuoteStatus, IasError> {
        Ok(match v {
            0 => QuoteStatus::Ok,
            1 => QuoteStatus::SignatureInvalid,
            2 => QuoteStatus::GroupRevoked,
            3 => QuoteStatus::SignatureRevoked,
            4 => QuoteStatus::KeyRevoked,
            5 => QuoteStatus::GroupOutOfDate,
            6 => QuoteStatus::ConfigurationNeeded,
            7 => QuoteStatus::UnknownGroup,
            8 => QuoteStatus::VersionUnsupported,
            other => return Err(IasError::Encoding(format!("bad status {other}"))),
        })
    }
}

impl std::fmt::Display for QuoteStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QuoteStatus::Ok => "OK",
            QuoteStatus::SignatureInvalid => "SIGNATURE_INVALID",
            QuoteStatus::GroupRevoked => "GROUP_REVOKED",
            QuoteStatus::SignatureRevoked => "SIGRL_VERSION_MISMATCH", // historical
            QuoteStatus::KeyRevoked => "KEY_REVOKED",
            QuoteStatus::GroupOutOfDate => "GROUP_OUT_OF_DATE",
            QuoteStatus::ConfigurationNeeded => "CONFIGURATION_NEEDED",
            QuoteStatus::UnknownGroup => "EPID_GROUP_UNKNOWN",
            QuoteStatus::VersionUnsupported => "QUOTE_VERSION_UNSUPPORTED",
        };
        f.write_str(s)
    }
}

/// A signed attestation verification report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// Monotonic report id assigned by the service.
    pub id: u64,
    /// Service-side timestamp (unix seconds).
    pub timestamp: u64,
    pub status: QuoteStatus,
    /// Echo of the verifier's nonce, binding the report to one exchange.
    pub nonce: Vec<u8>,
    /// The quoted enclave identity (present when the quote parsed).
    pub quote_body: Option<ReportBody>,
    /// Security advisories applying to the platform (e.g. on GROUP_OUT_OF_DATE).
    pub advisories: Vec<String>,
    signature: Vec<u8>,
}

impl AttestationReport {
    fn body_bytes(
        id: u64,
        timestamp: u64,
        status: QuoteStatus,
        nonce: &[u8],
        quote_body: &Option<ReportBody>,
        advisories: &[String],
    ) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.u64(TAG_ID, id)
            .u64(TAG_TIMESTAMP, timestamp)
            .u8(TAG_STATUS, status.to_u8())
            .bytes(TAG_NONCE, nonce);
        if let Some(body) = quote_body {
            w.bytes(TAG_QUOTE_BODY, &body.encode());
        }
        for advisory in advisories {
            w.string(TAG_ADVISORY, advisory);
        }
        w.finish()
    }

    /// Build and sign a report. Public so alternative [`crate::QuoteVerifier`]
    /// implementations (remote clients, test doubles) can synthesize
    /// fail-closed reports; relying parties only trust reports whose
    /// signature verifies under the expected IAS key.
    pub fn create(
        id: u64,
        timestamp: u64,
        status: QuoteStatus,
        nonce: &[u8],
        quote_body: Option<ReportBody>,
        advisories: Vec<String>,
        key: &SigningKey,
    ) -> AttestationReport {
        let body = Self::body_bytes(id, timestamp, status, nonce, &quote_body, &advisories);
        AttestationReport {
            id,
            timestamp,
            status,
            nonce: nonce.to_vec(),
            quote_body,
            advisories,
            signature: key.sign(&body).to_vec(),
        }
    }

    /// Verify the service signature over this report under the service's
    /// prepared report key.
    pub fn verify(&self, ias_key: &PreparedVerifyingKey) -> Result<(), IasError> {
        let body = Self::body_bytes(
            self.id,
            self.timestamp,
            self.status,
            &self.nonce,
            &self.quote_body,
            &self.advisories,
        );
        ias_key
            .verify(&body, &self.signature)
            .map_err(|_| IasError::BadReportSignature)
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        let body = Self::body_bytes(
            self.id,
            self.timestamp,
            self.status,
            &self.nonce,
            &self.quote_body,
            &self.advisories,
        );
        w.bytes(TAG_BODY, &body)
            .bytes(TAG_SIGNATURE, &self.signature);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<AttestationReport, IasError> {
        let mut r = TlvReader::new(bytes);
        let body = r.expect(TAG_BODY)?;
        let signature = r.expect(TAG_SIGNATURE)?.to_vec();
        r.finish()?;

        let mut br = TlvReader::new(body);
        let id = br.expect_u64(TAG_ID)?;
        let timestamp = br.expect_u64(TAG_TIMESTAMP)?;
        let status = QuoteStatus::from_u8(br.expect_u8(TAG_STATUS)?)?;
        let nonce = br.expect(TAG_NONCE)?.to_vec();
        let mut quote_body = None;
        let mut advisories = Vec::new();
        while !br.is_empty() {
            let (tag, value) = br.next()?;
            match tag {
                TAG_QUOTE_BODY => {
                    quote_body = Some(
                        ReportBody::decode(value).map_err(|e| IasError::Encoding(e.to_string()))?,
                    );
                }
                TAG_ADVISORY => {
                    advisories.push(
                        String::from_utf8(value.to_vec())
                            .map_err(|_| IasError::Encoding("bad advisory utf-8".into()))?,
                    );
                }
                other => return Err(IasError::Encoding(format!("unexpected tag {other:#x}"))),
            }
        }
        Ok(AttestationReport {
            id,
            timestamp,
            status,
            nonce,
            quote_body,
            advisories,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_sgx::measurement::Measurement;

    fn prepared(key: &SigningKey) -> PreparedVerifyingKey {
        PreparedVerifyingKey::new(key.public_key()).unwrap()
    }

    fn sample_body() -> ReportBody {
        ReportBody {
            cpu_svn: [1; 16],
            attributes: 1,
            mrenclave: Measurement([2; 32]),
            mrsigner: Measurement([3; 32]),
            isv_prod_id: 4,
            isv_svn: 5,
            report_data: [6; 64],
        }
    }

    #[test]
    fn create_verify_roundtrip() {
        let key = SigningKey::from_seed(&[1; 32]);
        let report = AttestationReport::create(
            1,
            1000,
            QuoteStatus::Ok,
            b"nonce",
            Some(sample_body()),
            vec!["INTEL-SA-00123".into()],
            &key,
        );
        report.verify(&prepared(&key)).unwrap();
        let decoded = AttestationReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded, report);
        decoded.verify(&prepared(&key)).unwrap();
    }

    #[test]
    fn report_without_quote_body() {
        let key = SigningKey::from_seed(&[1; 32]);
        let report = AttestationReport::create(
            2,
            1000,
            QuoteStatus::SignatureInvalid,
            b"n",
            None,
            vec![],
            &key,
        );
        let decoded = AttestationReport::decode(&report.encode()).unwrap();
        assert_eq!(decoded.quote_body, None);
        decoded.verify(&prepared(&key)).unwrap();
    }

    #[test]
    fn tamper_detected() {
        let key = SigningKey::from_seed(&[1; 32]);
        let report = AttestationReport::create(
            1,
            1000,
            QuoteStatus::Ok,
            b"nonce",
            Some(sample_body()),
            vec![],
            &key,
        );
        let mut bad = report.clone();
        bad.status = QuoteStatus::GroupRevoked;
        assert!(bad.verify(&prepared(&key)).is_err());
        let mut bad = report.clone();
        bad.nonce = b"other".to_vec();
        assert!(bad.verify(&prepared(&key)).is_err());
        let mut bad = report;
        bad.advisories.push("FAKE".into());
        assert!(bad.verify(&prepared(&key)).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let key = SigningKey::from_seed(&[1; 32]);
        let other = SigningKey::from_seed(&[2; 32]);
        let report = AttestationReport::create(1, 0, QuoteStatus::Ok, b"", None, vec![], &key);
        assert_eq!(
            report.verify(&prepared(&other)),
            Err(IasError::BadReportSignature)
        );
    }

    #[test]
    fn status_policies() {
        assert!(QuoteStatus::Ok.is_ok_strict());
        assert!(!QuoteStatus::GroupOutOfDate.is_ok_strict());
        assert!(QuoteStatus::GroupOutOfDate.is_ok_lenient());
        assert!(!QuoteStatus::GroupRevoked.is_ok_lenient());
        assert!(!QuoteStatus::SignatureRevoked.is_ok_lenient());
    }

    #[test]
    fn status_u8_roundtrip() {
        for v in 0..=8u8 {
            let s = QuoteStatus::from_u8(v).unwrap();
            assert_eq!(s.to_u8(), v);
        }
        assert!(QuoteStatus::from_u8(99).is_err());
    }
}
