//! Certificate signing requests with proof-of-possession.
//!
//! In the paper's workflow the key pair is generated *by the Verification
//! Manager* and pushed into the enclave (step 5 of Figure 1). The CSR path
//! exists for the alternative enrollment mode (key generated inside the
//! enclave, never leaving it even towards the VM) — implemented here as the
//! `enclave-keygen` extension and compared in the E3 bench.

use crate::cert::DistinguishedName;
use crate::PkiError;
use vnfguard_crypto::ed25519::{SigningKey, VerifyingKey};
use vnfguard_encoding::{TlvReader, TlvWriter};

const TAG_BODY: u8 = 0x20;
const TAG_SUBJECT: u8 = 0x21;
const TAG_PUBKEY: u8 = 0x22;
const TAG_CONTEXT: u8 = 0x23;
const TAG_POP: u8 = 0x24;
const TAG_CN: u8 = 0x10;
const TAG_ORG: u8 = 0x11;
const TAG_UNIT: u8 = 0x12;

/// A request for certification of `public_key` under `subject`.
///
/// `context` carries free-form binding data (e.g. the hex MRENCLAVE of the
/// requesting enclave) that the CA can cross-check against attestation
/// evidence before issuing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateRequest {
    pub subject: DistinguishedName,
    pub public_key: VerifyingKey,
    pub context: Vec<u8>,
    proof_of_possession: Vec<u8>,
}

impl CertificateRequest {
    /// Create a request, signing the body with the subject key to prove
    /// possession of the private half.
    pub fn new(subject: DistinguishedName, key: &SigningKey, context: &[u8]) -> CertificateRequest {
        let body = Self::body_bytes(&subject, &key.public_key(), context);
        CertificateRequest {
            subject,
            public_key: key.public_key(),
            context: context.to_vec(),
            proof_of_possession: key.sign(&body).to_vec(),
        }
    }

    fn body_bytes(subject: &DistinguishedName, key: &VerifyingKey, context: &[u8]) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.nested(TAG_SUBJECT, |inner| {
            inner
                .string(TAG_CN, &subject.common_name)
                .string(TAG_ORG, &subject.organization)
                .string(TAG_UNIT, &subject.unit);
        })
        .bytes(TAG_PUBKEY, key.as_bytes())
        .bytes(TAG_CONTEXT, context);
        w.finish()
    }

    /// Verify the proof-of-possession signature.
    pub fn verify(&self) -> Result<(), PkiError> {
        let body = Self::body_bytes(&self.subject, &self.public_key, &self.context);
        self.public_key
            .verify(&body, &self.proof_of_possession)
            .map_err(|_| PkiError::BadSignature)
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        let body = Self::body_bytes(&self.subject, &self.public_key, &self.context);
        w.bytes(TAG_BODY, &body)
            .bytes(TAG_POP, &self.proof_of_possession);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<CertificateRequest, PkiError> {
        let mut r = TlvReader::new(bytes);
        let body = r.expect(TAG_BODY)?;
        let pop = r.expect(TAG_POP)?.to_vec();
        r.finish()?;

        let mut br = TlvReader::new(body);
        let mut subject_r = br.expect_nested(TAG_SUBJECT)?;
        let subject = DistinguishedName {
            common_name: subject_r.expect_string(TAG_CN)?,
            organization: subject_r.expect_string(TAG_ORG)?,
            unit: subject_r.expect_string(TAG_UNIT)?,
        };
        subject_r.finish()?;
        let pubkey = br.expect_array::<32>(TAG_PUBKEY)?;
        let context = br.expect(TAG_CONTEXT)?.to_vec();
        br.finish()?;

        Ok(CertificateRequest {
            subject,
            public_key: VerifyingKey::from_bytes(&pubkey),
            context,
            proof_of_possession: pop,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_verify() {
        let key = SigningKey::from_seed(&[1; 32]);
        let csr = CertificateRequest::new(DistinguishedName::new("vnf-9"), &key, b"mrenclave");
        csr.verify().unwrap();
    }

    #[test]
    fn roundtrip() {
        let key = SigningKey::from_seed(&[2; 32]);
        let csr = CertificateRequest::new(
            DistinguishedName::new("vnf-9").with_org("org"),
            &key,
            &[1, 2, 3],
        );
        let decoded = CertificateRequest::decode(&csr.encode()).unwrap();
        assert_eq!(decoded, csr);
        decoded.verify().unwrap();
    }

    #[test]
    fn tampered_subject_rejected() {
        let key = SigningKey::from_seed(&[3; 32]);
        let mut csr = CertificateRequest::new(DistinguishedName::new("honest"), &key, b"");
        csr.subject.common_name = "mallory".into();
        assert_eq!(csr.verify(), Err(PkiError::BadSignature));
    }

    #[test]
    fn tampered_context_rejected() {
        let key = SigningKey::from_seed(&[4; 32]);
        let mut csr = CertificateRequest::new(DistinguishedName::new("vnf"), &key, b"real");
        csr.context = b"fake".to_vec();
        assert!(csr.verify().is_err());
    }

    #[test]
    fn foreign_key_substitution_rejected() {
        // An attacker replacing the public key cannot produce a valid PoP.
        let victim = SigningKey::from_seed(&[5; 32]);
        let attacker = SigningKey::from_seed(&[6; 32]);
        let mut csr = CertificateRequest::new(DistinguishedName::new("vnf"), &victim, b"");
        csr.public_key = attacker.public_key();
        assert!(csr.verify().is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let key = SigningKey::from_seed(&[7; 32]);
        let bytes = CertificateRequest::new(DistinguishedName::new("v"), &key, b"x").encode();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                CertificateRequest::decode(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }
}
