//! Certificate revocation lists.
//!
//! The Verification Manager "provisions **or revokes** authentication keys"
//! (paper §2). Revocation is delivered to relying parties (the network
//! controller) as a signed CRL; experiment E8 measures how lookup and
//! distribution costs grow with the number of revoked credentials.

use crate::cert::DistinguishedName;
use crate::PkiError;
use std::collections::BTreeMap;
use vnfguard_crypto::ed25519::{SigningKey, VerifyingKey};
use vnfguard_encoding::{TlvReader, TlvWriter};

const TAG_BODY: u8 = 0x30;
const TAG_ISSUER_CN: u8 = 0x31;
const TAG_ISSUED_AT: u8 = 0x32;
const TAG_NEXT_UPDATE: u8 = 0x33;
const TAG_ENTRY: u8 = 0x34;
const TAG_SIGNATURE: u8 = 0x35;
const TAG_SERIAL: u8 = 0x36;
const TAG_REVOKED_AT: u8 = 0x37;
const TAG_REASON: u8 = 0x38;
const TAG_NUMBER: u8 = 0x39;

/// Why a credential was revoked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevocationReason {
    /// Key material suspected or known to be exposed.
    KeyCompromise,
    /// The platform hosting the enclave failed a later attestation.
    PlatformCompromise,
    /// Normal decommissioning of the VNF.
    CessationOfOperation,
    /// Superseded by a re-issued credential.
    Superseded,
    /// Unspecified.
    Unspecified,
}

impl RevocationReason {
    /// Stable wire code for this reason (CRL entries and the manager's
    /// write-ahead log share this encoding).
    pub fn to_u8(self) -> u8 {
        match self {
            RevocationReason::KeyCompromise => 1,
            RevocationReason::PlatformCompromise => 2,
            RevocationReason::CessationOfOperation => 3,
            RevocationReason::Superseded => 4,
            RevocationReason::Unspecified => 0,
        }
    }

    /// Decode a wire code; unknown values map to `Unspecified`.
    pub fn from_u8(v: u8) -> RevocationReason {
        match v {
            1 => RevocationReason::KeyCompromise,
            2 => RevocationReason::PlatformCompromise,
            3 => RevocationReason::CessationOfOperation,
            4 => RevocationReason::Superseded,
            _ => RevocationReason::Unspecified,
        }
    }
}

/// One revoked certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrlEntry {
    pub serial: u64,
    pub revoked_at: u64,
    pub reason: RevocationReason,
}

/// A signed certificate revocation list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crl {
    pub issuer: DistinguishedName,
    pub issued_at: u64,
    pub next_update: u64,
    /// Monotonically increasing issue number (RFC 5280 CRL number). Relying
    /// parties must never replace a cached CRL with a lower-numbered one;
    /// the Verification Manager journals the counter so it survives crash
    /// recovery.
    pub crl_number: u64,
    entries: BTreeMap<u64, CrlEntry>,
    signature: Vec<u8>,
}

impl Crl {
    /// Build and sign a CRL.
    pub fn build(
        issuer: DistinguishedName,
        issued_at: u64,
        next_update: u64,
        crl_number: u64,
        entries: impl IntoIterator<Item = CrlEntry>,
        key: &SigningKey,
    ) -> Crl {
        let entries: BTreeMap<u64, CrlEntry> = entries.into_iter().map(|e| (e.serial, e)).collect();
        let body = Self::body_bytes(&issuer, issued_at, next_update, crl_number, &entries);
        Crl {
            issuer,
            issued_at,
            next_update,
            crl_number,
            entries,
            signature: key.sign(&body).to_vec(),
        }
    }

    fn body_bytes(
        issuer: &DistinguishedName,
        issued_at: u64,
        next_update: u64,
        crl_number: u64,
        entries: &BTreeMap<u64, CrlEntry>,
    ) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.string(TAG_ISSUER_CN, &issuer.common_name)
            .u64(TAG_ISSUED_AT, issued_at)
            .u64(TAG_NEXT_UPDATE, next_update)
            .u64(TAG_NUMBER, crl_number);
        for entry in entries.values() {
            w.nested(TAG_ENTRY, |inner| {
                inner
                    .u64(TAG_SERIAL, entry.serial)
                    .u64(TAG_REVOKED_AT, entry.revoked_at)
                    .u8(TAG_REASON, entry.reason.to_u8());
            });
        }
        w.finish()
    }

    /// Verify the issuer signature.
    pub fn verify(&self, issuer_key: &VerifyingKey) -> Result<(), PkiError> {
        let body = Self::body_bytes(
            &self.issuer,
            self.issued_at,
            self.next_update,
            self.crl_number,
            &self.entries,
        );
        issuer_key
            .verify(&body, &self.signature)
            .map_err(|_| PkiError::BadSignature)
    }

    /// Is the serial revoked according to this list?
    pub fn lookup(&self, serial: u64) -> Option<&CrlEntry> {
        self.entries.get(&serial)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the list is stale at `now` and should be refreshed.
    pub fn is_stale(&self, now: u64) -> bool {
        now > self.next_update
    }

    pub fn entries(&self) -> impl Iterator<Item = &CrlEntry> {
        self.entries.values()
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        let body = Self::body_bytes(
            &self.issuer,
            self.issued_at,
            self.next_update,
            self.crl_number,
            &self.entries,
        );
        w.bytes(TAG_BODY, &body)
            .bytes(TAG_SIGNATURE, &self.signature);
        w.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<Crl, PkiError> {
        let mut r = TlvReader::new(bytes);
        let body = r.expect(TAG_BODY)?;
        let signature = r.expect(TAG_SIGNATURE)?.to_vec();
        r.finish()?;

        let mut br = TlvReader::new(body);
        let issuer_cn = br.expect_string(TAG_ISSUER_CN)?;
        let issued_at = br.expect_u64(TAG_ISSUED_AT)?;
        let next_update = br.expect_u64(TAG_NEXT_UPDATE)?;
        let crl_number = br.expect_u64(TAG_NUMBER)?;
        let mut entries = BTreeMap::new();
        while !br.is_empty() {
            let mut er = br.expect_nested(TAG_ENTRY)?;
            let entry = CrlEntry {
                serial: er.expect_u64(TAG_SERIAL)?,
                revoked_at: er.expect_u64(TAG_REVOKED_AT)?,
                reason: RevocationReason::from_u8(er.expect_u8(TAG_REASON)?),
            };
            er.finish()?;
            entries.insert(entry.serial, entry);
        }
        Ok(Crl {
            issuer: DistinguishedName::new(&issuer_cn),
            issued_at,
            next_update,
            crl_number,
            entries,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<CrlEntry> {
        vec![
            CrlEntry {
                serial: 3,
                revoked_at: 500,
                reason: RevocationReason::KeyCompromise,
            },
            CrlEntry {
                serial: 9,
                revoked_at: 600,
                reason: RevocationReason::CessationOfOperation,
            },
        ]
    }

    #[test]
    fn build_verify_lookup() {
        let key = SigningKey::from_seed(&[1; 32]);
        let crl = Crl::build(
            DistinguishedName::new("vm-ca"),
            1000,
            2000,
            7,
            sample_entries(),
            &key,
        );
        crl.verify(&key.public_key()).unwrap();
        assert_eq!(crl.len(), 2);
        assert_eq!(crl.crl_number, 7);
        assert!(crl.lookup(3).is_some());
        assert_eq!(
            crl.lookup(3).unwrap().reason,
            RevocationReason::KeyCompromise
        );
        assert!(crl.lookup(4).is_none());
    }

    #[test]
    fn roundtrip() {
        let key = SigningKey::from_seed(&[2; 32]);
        let crl = Crl::build(
            DistinguishedName::new("vm-ca"),
            1,
            2,
            42,
            sample_entries(),
            &key,
        );
        let decoded = Crl::decode(&crl.encode()).unwrap();
        assert_eq!(decoded, crl);
        assert_eq!(decoded.crl_number, 42);
        decoded.verify(&key.public_key()).unwrap();
    }

    #[test]
    fn empty_crl_is_valid() {
        let key = SigningKey::from_seed(&[3; 32]);
        let crl = Crl::build(DistinguishedName::new("ca"), 1, 2, 0, [], &key);
        crl.verify(&key.public_key()).unwrap();
        assert!(crl.is_empty());
        let decoded = Crl::decode(&crl.encode()).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn forged_entry_rejected() {
        let key = SigningKey::from_seed(&[4; 32]);
        let crl = Crl::build(
            DistinguishedName::new("ca"),
            1,
            2,
            1,
            sample_entries(),
            &key,
        );
        let mut bytes = crl.encode();
        // Tamper a byte inside the body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        if let Ok(tampered) = Crl::decode(&bytes) {
            assert!(tampered.verify(&key.public_key()).is_err());
        } // a decode failure is equally a rejection
    }

    #[test]
    fn wrong_issuer_key_rejected() {
        let key = SigningKey::from_seed(&[5; 32]);
        let crl = Crl::build(DistinguishedName::new("ca"), 1, 2, 0, [], &key);
        let other = SigningKey::from_seed(&[6; 32]);
        assert!(crl.verify(&other.public_key()).is_err());
    }

    #[test]
    fn staleness() {
        let key = SigningKey::from_seed(&[7; 32]);
        let crl = Crl::build(DistinguishedName::new("ca"), 100, 200, 0, [], &key);
        assert!(!crl.is_stale(150));
        assert!(!crl.is_stale(200));
        assert!(crl.is_stale(201));
    }

    #[test]
    fn duplicate_serials_deduplicate() {
        let key = SigningKey::from_seed(&[8; 32]);
        let entries = vec![
            CrlEntry {
                serial: 5,
                revoked_at: 1,
                reason: RevocationReason::Unspecified,
            },
            CrlEntry {
                serial: 5,
                revoked_at: 2,
                reason: RevocationReason::KeyCompromise,
            },
        ];
        let crl = Crl::build(DistinguishedName::new("ca"), 1, 2, 0, entries, &key);
        assert_eq!(crl.len(), 1);
        // Last write wins.
        assert_eq!(crl.lookup(5).unwrap().revoked_at, 2);
    }
}
