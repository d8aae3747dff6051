//! Certificate structure, encoding and primitive verification.

use crate::PkiError;
use vnfguard_crypto::ed25519::{SigningKey, VerifyingKey};
use vnfguard_crypto::sha2::sha256;
use vnfguard_encoding::{TlvReader, TlvWriter};

// TLV tags for the certificate structure.
const TAG_TBS: u8 = 0x01;
const TAG_SERIAL: u8 = 0x02;
const TAG_SUBJECT: u8 = 0x03;
const TAG_ISSUER: u8 = 0x04;
const TAG_NOT_BEFORE: u8 = 0x05;
const TAG_NOT_AFTER: u8 = 0x06;
const TAG_PUBKEY: u8 = 0x07;
const TAG_KEY_USAGE: u8 = 0x08;
const TAG_IS_CA: u8 = 0x09;
const TAG_ENCLAVE_BINDING: u8 = 0x0a;
const TAG_SIGNATURE: u8 = 0x0b;
const TAG_CN: u8 = 0x10;
const TAG_ORG: u8 = 0x11;
const TAG_UNIT: u8 = 0x12;

/// Key-usage flags carried in a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyUsage(pub u8);

impl KeyUsage {
    pub const DIGITAL_SIGNATURE: KeyUsage = KeyUsage(0b0000_0001);
    pub const KEY_CERT_SIGN: KeyUsage = KeyUsage(0b0000_0010);
    pub const CRL_SIGN: KeyUsage = KeyUsage(0b0000_0100);
    pub const CLIENT_AUTH: KeyUsage = KeyUsage(0b0000_1000);
    pub const SERVER_AUTH: KeyUsage = KeyUsage(0b0001_0000);

    pub fn union(self, other: KeyUsage) -> KeyUsage {
        KeyUsage(self.0 | other.0)
    }

    pub fn permits(self, required: KeyUsage) -> bool {
        self.0 & required.0 == required.0
    }
}

/// A simplified X.500 distinguished name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DistinguishedName {
    pub common_name: String,
    pub organization: String,
    pub unit: String,
}

impl DistinguishedName {
    pub fn new(common_name: &str) -> DistinguishedName {
        DistinguishedName {
            common_name: common_name.to_string(),
            organization: String::new(),
            unit: String::new(),
        }
    }

    pub fn with_org(mut self, org: &str) -> DistinguishedName {
        self.organization = org.to_string();
        self
    }

    pub fn with_unit(mut self, unit: &str) -> DistinguishedName {
        self.unit = unit.to_string();
        self
    }

    fn encode(&self, w: &mut TlvWriter, tag: u8) {
        w.nested(tag, |inner| {
            inner
                .string(TAG_CN, &self.common_name)
                .string(TAG_ORG, &self.organization)
                .string(TAG_UNIT, &self.unit);
        });
    }

    fn decode(r: &mut TlvReader, tag: u8) -> Result<DistinguishedName, PkiError> {
        let mut inner = r.expect_nested(tag)?;
        let dn = DistinguishedName {
            common_name: inner.expect_string(TAG_CN)?,
            organization: inner.expect_string(TAG_ORG)?,
            unit: inner.expect_string(TAG_UNIT)?,
        };
        inner.finish()?;
        Ok(dn)
    }
}

impl std::fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CN={}", self.common_name)?;
        if !self.organization.is_empty() {
            write!(f, ",O={}", self.organization)?;
        }
        if !self.unit.is_empty() {
            write!(f, ",OU={}", self.unit)?;
        }
        Ok(())
    }
}

/// A validity window in unix seconds, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Validity {
    pub not_before: u64,
    pub not_after: u64,
}

impl Validity {
    pub fn new(not_before: u64, not_after: u64) -> Validity {
        Validity {
            not_before,
            not_after,
        }
    }

    pub fn contains(&self, now: u64) -> bool {
        self.not_before <= now && now <= self.not_after
    }
}

/// The to-be-signed content of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TbsCertificate {
    pub serial: u64,
    pub subject: DistinguishedName,
    pub issuer: DistinguishedName,
    pub validity: Validity,
    pub public_key: VerifyingKey,
    pub key_usage: KeyUsage,
    pub is_ca: bool,
    /// Optional binding to an SGX enclave measurement (MRENCLAVE): a relying
    /// party may require that the presented credential was provisioned into
    /// an enclave with this exact measurement.
    pub enclave_binding: Option<[u8; 32]>,
}

impl TbsCertificate {
    /// Canonical TLV encoding of the signed content.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.u64(TAG_SERIAL, self.serial);
        self.subject.encode(&mut w, TAG_SUBJECT);
        self.issuer.encode(&mut w, TAG_ISSUER);
        w.u64(TAG_NOT_BEFORE, self.validity.not_before)
            .u64(TAG_NOT_AFTER, self.validity.not_after)
            .bytes(TAG_PUBKEY, self.public_key.as_bytes())
            .u8(TAG_KEY_USAGE, self.key_usage.0)
            .u8(TAG_IS_CA, self.is_ca as u8);
        if let Some(binding) = &self.enclave_binding {
            w.bytes(TAG_ENCLAVE_BINDING, binding);
        }
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<TbsCertificate, PkiError> {
        let mut r = TlvReader::new(bytes);
        let serial = r.expect_u64(TAG_SERIAL)?;
        let subject = DistinguishedName::decode(&mut r, TAG_SUBJECT)?;
        let issuer = DistinguishedName::decode(&mut r, TAG_ISSUER)?;
        let not_before = r.expect_u64(TAG_NOT_BEFORE)?;
        let not_after = r.expect_u64(TAG_NOT_AFTER)?;
        let pubkey = r.expect_array::<32>(TAG_PUBKEY)?;
        let key_usage = KeyUsage(r.expect_u8(TAG_KEY_USAGE)?);
        let is_ca = r.expect_u8(TAG_IS_CA)? != 0;
        let enclave_binding = if !r.is_empty() {
            Some(r.expect_array::<32>(TAG_ENCLAVE_BINDING)?)
        } else {
            None
        };
        r.finish()?;
        Ok(TbsCertificate {
            serial,
            subject,
            issuer,
            validity: Validity::new(not_before, not_after),
            public_key: VerifyingKey::from_bytes(&pubkey),
            key_usage,
            is_ca,
            enclave_binding,
        })
    }
}

/// A signed certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    pub tbs: TbsCertificate,
    pub signature: Vec<u8>,
}

impl Certificate {
    /// Sign a TBS structure with the issuer's key.
    pub fn sign(tbs: TbsCertificate, issuer_key: &SigningKey) -> Certificate {
        let signature = issuer_key.sign(&tbs.encode()).to_vec();
        Certificate { tbs, signature }
    }

    /// Verify this certificate's signature against an issuer public key.
    pub fn verify_signature(&self, issuer_key: &VerifyingKey) -> Result<(), PkiError> {
        issuer_key
            .verify(&self.tbs.encode(), &self.signature)
            .map_err(|_| PkiError::BadSignature)
    }

    /// True for a self-signed certificate that verifies under its own key.
    pub fn is_self_signed(&self) -> bool {
        self.tbs.subject == self.tbs.issuer && self.verify_signature(&self.tbs.public_key).is_ok()
    }

    /// SHA-256 fingerprint over the complete encoded certificate.
    pub fn fingerprint(&self) -> [u8; 32] {
        sha256(&self.encode())
    }

    /// Full TLV encoding: TBS followed by the signature.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.bytes(TAG_TBS, &self.tbs.encode())
            .bytes(TAG_SIGNATURE, &self.signature);
        w.finish()
    }

    /// Decode a certificate; the signature is *not* verified here.
    pub fn decode(bytes: &[u8]) -> Result<Certificate, PkiError> {
        let mut r = TlvReader::new(bytes);
        let tbs_bytes = r.expect(TAG_TBS)?;
        let signature = r.expect(TAG_SIGNATURE)?.to_vec();
        r.finish()?;
        Ok(Certificate {
            tbs: TbsCertificate::decode(tbs_bytes)?,
            signature,
        })
    }

    /// Convenience accessors.
    pub fn subject_cn(&self) -> &str {
        &self.tbs.subject.common_name
    }

    pub fn serial(&self) -> u64 {
        self.tbs.serial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_crypto::ed25519::SigningKey;

    fn sample_tbs(key: &SigningKey) -> TbsCertificate {
        TbsCertificate {
            serial: 7,
            subject: DistinguishedName::new("vnf-1")
                .with_org("tenant-a")
                .with_unit("edge"),
            issuer: DistinguishedName::new("verification-manager"),
            validity: Validity::new(1000, 2000),
            public_key: key.public_key(),
            key_usage: KeyUsage::DIGITAL_SIGNATURE.union(KeyUsage::CLIENT_AUTH),
            is_ca: false,
            enclave_binding: Some([0xaa; 32]),
        }
    }

    #[test]
    fn sign_and_verify() {
        let issuer = SigningKey::from_seed(&[1; 32]);
        let leaf_key = SigningKey::from_seed(&[2; 32]);
        let cert = Certificate::sign(sample_tbs(&leaf_key), &issuer);
        cert.verify_signature(&issuer.public_key()).unwrap();
        // Wrong issuer key fails.
        let other = SigningKey::from_seed(&[3; 32]);
        assert_eq!(
            cert.verify_signature(&other.public_key()),
            Err(PkiError::BadSignature)
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let issuer = SigningKey::from_seed(&[1; 32]);
        let leaf_key = SigningKey::from_seed(&[2; 32]);
        let cert = Certificate::sign(sample_tbs(&leaf_key), &issuer);
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
        decoded.verify_signature(&issuer.public_key()).unwrap();
    }

    #[test]
    fn roundtrip_without_binding() {
        let issuer = SigningKey::from_seed(&[1; 32]);
        let mut tbs = sample_tbs(&issuer);
        tbs.enclave_binding = None;
        let cert = Certificate::sign(tbs, &issuer);
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded.tbs.enclave_binding, None);
    }

    #[test]
    fn tampered_tbs_fails_verification() {
        let issuer = SigningKey::from_seed(&[1; 32]);
        let cert = Certificate::sign(sample_tbs(&issuer), &issuer);
        let mut tampered = cert.clone();
        tampered.tbs.serial = 999;
        assert_eq!(
            tampered.verify_signature(&issuer.public_key()),
            Err(PkiError::BadSignature)
        );
        let mut tampered = cert.clone();
        tampered.tbs.subject.common_name = "mallory".into();
        assert!(tampered.verify_signature(&issuer.public_key()).is_err());
        let mut tampered = cert;
        tampered.tbs.enclave_binding = Some([0xbb; 32]);
        assert!(tampered.verify_signature(&issuer.public_key()).is_err());
    }

    #[test]
    fn self_signed_detection() {
        let key = SigningKey::from_seed(&[5; 32]);
        let tbs = TbsCertificate {
            serial: 1,
            subject: DistinguishedName::new("root"),
            issuer: DistinguishedName::new("root"),
            validity: Validity::new(0, u64::MAX),
            public_key: key.public_key(),
            key_usage: KeyUsage::KEY_CERT_SIGN,
            is_ca: true,
            enclave_binding: None,
        };
        let cert = Certificate::sign(tbs, &key);
        assert!(cert.is_self_signed());

        // Same subject/issuer but signed by someone else is not self-signed.
        let other = SigningKey::from_seed(&[6; 32]);
        let cert2 = Certificate::sign(cert.tbs.clone(), &other);
        assert!(!cert2.is_self_signed());
    }

    #[test]
    fn key_usage_flags() {
        let u = KeyUsage::DIGITAL_SIGNATURE.union(KeyUsage::CLIENT_AUTH);
        assert!(u.permits(KeyUsage::CLIENT_AUTH));
        assert!(u.permits(KeyUsage::DIGITAL_SIGNATURE));
        assert!(!u.permits(KeyUsage::KEY_CERT_SIGN));
        assert!(!u.permits(KeyUsage::CLIENT_AUTH.union(KeyUsage::SERVER_AUTH)));
    }

    #[test]
    fn validity_window() {
        let v = Validity::new(100, 200);
        assert!(!v.contains(99));
        assert!(v.contains(100));
        assert!(v.contains(200));
        assert!(!v.contains(201));
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let issuer = SigningKey::from_seed(&[1; 32]);
        let a = Certificate::sign(sample_tbs(&issuer), &issuer);
        let mut tbs = sample_tbs(&issuer);
        tbs.serial = 8;
        let b = Certificate::sign(tbs, &issuer);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn dn_display() {
        let dn = DistinguishedName::new("vnf-1").with_org("acme");
        assert_eq!(dn.to_string(), "CN=vnf-1,O=acme");
        assert_eq!(DistinguishedName::new("x").to_string(), "CN=x");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Certificate::decode(&[0xff, 0x00]).is_err());
        assert!(Certificate::decode(&[]).is_err());
    }
}
