//! The certificate authority operated by the Verification Manager.
//!
//! Paper §3: "The Verification Manager acts as a certificate authority, and
//! signs all newly created client certificates. The Floodlight controller
//! must only validate that the client certificate has a valid signature
//! from the trusted certificate authority."

use crate::cert::{Certificate, DistinguishedName, KeyUsage, TbsCertificate, Validity};
use crate::crl::{Crl, CrlEntry, RevocationReason};
use crate::csr::CertificateRequest;
use crate::PkiError;
use std::collections::BTreeMap;
use vnfguard_crypto::drbg::SecureRandom;
use vnfguard_crypto::ed25519::{SigningKey, VerifyingKey};

/// Issuance profile: what kind of certificate the CA should mint.
#[derive(Debug, Clone)]
pub struct IssueProfile {
    pub validity_secs: u64,
    pub key_usage: KeyUsage,
    pub is_ca: bool,
    /// Bind the issued certificate to an enclave measurement.
    pub enclave_binding: Option<[u8; 32]>,
}

impl IssueProfile {
    /// The profile used for VNF north-bound client credentials.
    pub fn vnf_client(enclave_binding: [u8; 32]) -> IssueProfile {
        IssueProfile {
            validity_secs: 24 * 3600,
            key_usage: KeyUsage::DIGITAL_SIGNATURE.union(KeyUsage::CLIENT_AUTH),
            is_ca: false,
            enclave_binding: Some(enclave_binding),
        }
    }

    /// The profile for controller (server) certificates.
    pub fn server() -> IssueProfile {
        IssueProfile {
            validity_secs: 365 * 24 * 3600,
            key_usage: KeyUsage::DIGITAL_SIGNATURE.union(KeyUsage::SERVER_AUTH),
            is_ca: false,
            enclave_binding: None,
        }
    }
}

/// A serial allocated by [`CertificateAuthority::reserve`], with the issuer
/// name and the signing key of the epoch that allocated it. Signing
/// consumes it, so a reserved serial is signed at most once.
pub struct Issuance {
    serial: u64,
    issuer: DistinguishedName,
    key: SigningKey,
}

impl Issuance {
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// Build the TBS certificate for `public_key` under `profile`, valid
    /// from `now`, and sign it.
    pub fn sign(
        self,
        subject: DistinguishedName,
        public_key: VerifyingKey,
        profile: &IssueProfile,
        now: u64,
    ) -> Certificate {
        let tbs = TbsCertificate {
            serial: self.serial,
            subject,
            issuer: self.issuer,
            validity: Validity::new(now, now.saturating_add(profile.validity_secs)),
            public_key,
            key_usage: profile.key_usage,
            is_ca: profile.is_ca,
            enclave_binding: profile.enclave_binding,
        };
        Certificate::sign(tbs, &self.key)
    }
}

/// A certificate authority with an in-memory revocation registry.
///
/// The CA key can be **rotated**: [`rotate_to`](Self::rotate_to) installs a
/// successor signing key under the same distinguished name, keeping the
/// outgoing self-signed root (for the relying parties' dual-trust window)
/// and minting a cross-signed copy of the new root under the old key so the
/// handover is verifiable rather than trust-on-first-use.
pub struct CertificateAuthority {
    key: SigningKey,
    certificate: Certificate,
    next_serial: u64,
    revoked: BTreeMap<u64, CrlEntry>,
    issued: u64,
    /// Monotonic CRL issue number; the last number handed out by
    /// [`issue_crl`](Self::issue_crl).
    crl_number: u64,
    /// Self-signed roots from earlier key epochs, oldest first.
    previous_roots: Vec<Certificate>,
    /// The current root's public key endorsed (signed) by the previous
    /// epoch's key; `None` before the first rotation.
    cross_signed: Option<Certificate>,
    /// Every cross-signed handover cert ever minted, oldest first (index
    /// `i` endorses the epoch `i + 1` root under the epoch `i` key). A
    /// relying party that missed intermediate rotations walks this chain
    /// to re-establish trust step by step.
    cross_history: Vec<Certificate>,
    /// Key epoch: 0 for the original key, +1 per rotation.
    epoch: u32,
}

impl CertificateAuthority {
    /// Create a new root CA with a self-signed certificate.
    pub fn new(
        name: DistinguishedName,
        validity: Validity,
        rng: &mut dyn SecureRandom,
    ) -> CertificateAuthority {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let key = SigningKey::from_seed(&seed);
        let tbs = TbsCertificate {
            serial: 1,
            subject: name.clone(),
            issuer: name,
            validity,
            public_key: key.public_key(),
            key_usage: KeyUsage::KEY_CERT_SIGN
                .union(KeyUsage::CRL_SIGN)
                .union(KeyUsage::DIGITAL_SIGNATURE),
            is_ca: true,
            enclave_binding: None,
        };
        let certificate = Certificate::sign(tbs, &key);
        CertificateAuthority {
            key,
            certificate,
            next_serial: 2,
            revoked: BTreeMap::new(),
            issued: 0,
            crl_number: 0,
            previous_roots: Vec::new(),
            cross_signed: None,
            cross_history: Vec::new(),
            epoch: 0,
        }
    }

    /// The CA's own (self-signed) certificate — this is what the paper
    /// provisions into the controller's trust store.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    pub fn public_key(&self) -> VerifyingKey {
        self.key.public_key()
    }

    /// Number of certificates issued so far (excluding the root).
    pub fn issued_count(&self) -> u64 {
        self.issued
    }

    /// The serial the next issuance will mint. Lets a journaling caller
    /// record serials durably *before* the allocation happens.
    pub fn next_serial(&self) -> u64 {
        self.next_serial
    }

    /// Issue a certificate for an externally generated public key
    /// (the paper's primary flow: the VM generates the key pair itself and
    /// provisions it into the enclave).
    pub fn issue(
        &mut self,
        subject: DistinguishedName,
        public_key: VerifyingKey,
        profile: &IssueProfile,
        now: u64,
    ) -> Certificate {
        self.reserve().sign(subject, public_key, profile, now)
    }

    /// Allocate the next serial and take what signing it needs, so the
    /// certificate can be built and signed later without the CA:
    /// [`issue`](Self::issue) is `reserve` then [`Issuance::sign`].
    pub fn reserve(&mut self) -> Issuance {
        let serial = self.next_serial;
        self.next_serial += 1;
        self.issued += 1;
        Issuance {
            serial,
            issuer: self.certificate.tbs.subject.clone(),
            key: self.key.clone(),
        }
    }

    /// Issue from a CSR after checking proof-of-possession (the
    /// enclave-keygen enrollment mode).
    pub fn sign_request(
        &mut self,
        request: &CertificateRequest,
        profile: &IssueProfile,
        now: u64,
    ) -> Result<Certificate, PkiError> {
        request.verify()?;
        Ok(self.issue(request.subject.clone(), request.public_key, profile, now))
    }

    /// Mark a serial revoked.
    pub fn revoke(&mut self, serial: u64, reason: RevocationReason, now: u64) {
        self.revoked.insert(
            serial,
            CrlEntry {
                serial,
                revoked_at: now,
                reason,
            },
        );
    }

    pub fn is_revoked(&self, serial: u64) -> bool {
        self.revoked.contains_key(&serial)
    }

    /// Restore issuance continuity after a crash-recovery replay: the next
    /// serial to mint and the lifetime issued count. Serial allocation
    /// never moves backwards — a recovered CA must not re-mint a serial a
    /// previous incarnation already signed.
    pub fn restore_issuance(&mut self, next_serial: u64, issued: u64) {
        self.next_serial = self.next_serial.max(next_serial);
        self.issued = self.issued.max(issued);
    }

    /// Restore the CRL counter after a crash-recovery replay; never moves
    /// backwards, so a recovered CA cannot re-issue an already published
    /// CRL number.
    pub fn restore_crl_number(&mut self, crl_number: u64) {
        self.crl_number = self.crl_number.max(crl_number);
    }

    /// The last CRL number handed out by [`issue_crl`](Self::issue_crl).
    pub fn crl_number(&self) -> u64 {
        self.crl_number
    }

    /// Produce a freshly signed CRL valid until `now + lifetime_secs`,
    /// carrying the *current* CRL number (no bump). Relying parties that
    /// enforce number monotonicity should be fed from
    /// [`issue_crl`](Self::issue_crl) instead.
    pub fn current_crl(&self, now: u64, lifetime_secs: u64) -> Crl {
        Crl::build(
            self.certificate.tbs.subject.clone(),
            now,
            now.saturating_add(lifetime_secs),
            self.crl_number,
            self.revoked.values().copied(),
            &self.key,
        )
    }

    /// Mint the next numbered CRL: bumps the monotonic counter and signs.
    /// The Verification Manager journals the bump before calling this so
    /// the sequence survives crash recovery.
    pub fn issue_crl(&mut self, now: u64, lifetime_secs: u64) -> Crl {
        self.crl_number += 1;
        self.current_crl(now, lifetime_secs)
    }

    /// Like [`current_crl`](Self::current_crl) but merging `extra`
    /// revocation entries into the signed list — the sharded deployment's
    /// authority CA folds the other shards' revocations in here, so one
    /// signed CRL still covers the whole fleet. Duplicate serials keep the
    /// authority's own entry.
    pub fn current_crl_with(&self, extra: &[CrlEntry], now: u64, lifetime_secs: u64) -> Crl {
        let mut merged: std::collections::BTreeMap<u64, CrlEntry> =
            extra.iter().map(|entry| (entry.serial, *entry)).collect();
        for entry in self.revoked.values() {
            merged.insert(entry.serial, *entry);
        }
        Crl::build(
            self.certificate.tbs.subject.clone(),
            now,
            now.saturating_add(lifetime_secs),
            self.crl_number,
            merged.into_values(),
            &self.key,
        )
    }

    /// [`issue_crl`](Self::issue_crl) with merged `extra` entries: bumps
    /// the monotonic counter and signs the fleet-wide list.
    pub fn issue_crl_with(&mut self, extra: &[CrlEntry], now: u64, lifetime_secs: u64) -> Crl {
        self.crl_number += 1;
        self.current_crl_with(extra, now, lifetime_secs)
    }

    /// Serials currently in the revocation registry, with their entries.
    pub fn revoked_entries(&self) -> impl Iterator<Item = &CrlEntry> {
        self.revoked.values()
    }

    /// Rotate to a successor signing key under the same distinguished name.
    ///
    /// Allocates two serials: a new self-signed root for `new_key`, and a
    /// cross-signed copy of that root signed by the *outgoing* key — the
    /// cryptographic handover evidence a relying party checks against its
    /// currently trusted anchor before adopting the new root. The outgoing
    /// root is retained (served for the dual-trust drain window) and the
    /// revocation registry carries over, so post-rotation CRLs still cover
    /// serials minted by earlier epochs.
    pub fn rotate_to(
        &mut self,
        new_key: SigningKey,
        validity: Validity,
    ) -> (Certificate, Certificate) {
        let root_serial = self.next_serial;
        let cross_serial = self.next_serial + 1;
        self.next_serial += 2;
        self.issued += 2;
        self.install_rotation(new_key, validity, root_serial, cross_serial)
    }

    /// Deterministically re-apply a journaled rotation during crash
    /// recovery: same key, validity and serials as the pre-crash rotation.
    /// Does **not** advance the serial allocator — recovery restores that
    /// separately from the journaled issuance records.
    pub fn install_rotation(
        &mut self,
        new_key: SigningKey,
        validity: Validity,
        root_serial: u64,
        cross_serial: u64,
    ) -> (Certificate, Certificate) {
        let subject = self.certificate.tbs.subject.clone();
        let usage = KeyUsage::KEY_CERT_SIGN
            .union(KeyUsage::CRL_SIGN)
            .union(KeyUsage::DIGITAL_SIGNATURE);
        let root_tbs = TbsCertificate {
            serial: root_serial,
            subject: subject.clone(),
            issuer: subject.clone(),
            validity,
            public_key: new_key.public_key(),
            key_usage: usage,
            is_ca: true,
            enclave_binding: None,
        };
        let new_root = Certificate::sign(root_tbs, &new_key);
        let cross_tbs = TbsCertificate {
            serial: cross_serial,
            subject: subject.clone(),
            issuer: subject,
            validity,
            public_key: new_key.public_key(),
            key_usage: usage,
            is_ca: true,
            enclave_binding: None,
        };
        let cross = Certificate::sign(cross_tbs, &self.key);
        let old_root = std::mem::replace(&mut self.certificate, new_root.clone());
        self.previous_roots.push(old_root);
        self.key = new_key;
        self.cross_signed = Some(cross.clone());
        self.cross_history.push(cross.clone());
        self.epoch += 1;
        (new_root, cross)
    }

    /// Self-signed roots from earlier key epochs, oldest first.
    pub fn previous_roots(&self) -> &[Certificate] {
        &self.previous_roots
    }

    /// The current root endorsed by the previous epoch's key (`None`
    /// before the first rotation).
    pub fn cross_signed(&self) -> Option<&Certificate> {
        self.cross_signed.as_ref()
    }

    /// Every cross-signed handover cert ever minted, oldest first: entry
    /// `i` endorses the epoch `i + 1` root under the epoch `i` key.
    pub fn cross_signed_history(&self) -> &[Certificate] {
        &self.cross_history
    }

    /// Key epoch: 0 for the original key, +1 per rotation.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }
}

impl std::fmt::Debug for CertificateAuthority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CertificateAuthority")
            .field("subject", &self.certificate.tbs.subject.common_name)
            .field("issued", &self.issued)
            .field("revoked", &self.revoked.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_crypto::drbg::HmacDrbg;
    use vnfguard_crypto::ed25519::Point;

    fn test_ca() -> CertificateAuthority {
        let mut rng = HmacDrbg::new(b"ca test seed");
        CertificateAuthority::new(
            DistinguishedName::new("verification-manager").with_org("rise-sics"),
            Validity::new(0, 1_000_000),
            &mut rng,
        )
    }

    #[test]
    fn root_is_self_signed_ca() {
        let ca = test_ca();
        assert!(ca.certificate().is_self_signed());
        assert!(ca.certificate().tbs.is_ca);
        assert!(ca
            .certificate()
            .tbs
            .key_usage
            .permits(KeyUsage::KEY_CERT_SIGN));
    }

    #[test]
    fn issues_verifiable_certificates_with_unique_serials() {
        let mut ca = test_ca();
        let leaf = SigningKey::from_seed(&[9; 32]);
        let a = ca.issue(
            DistinguishedName::new("vnf-1"),
            leaf.public_key(),
            &IssueProfile::vnf_client([1; 32]),
            100,
        );
        let b = ca.issue(
            DistinguishedName::new("vnf-2"),
            leaf.public_key(),
            &IssueProfile::vnf_client([1; 32]),
            100,
        );
        a.verify_signature(&ca.public_key()).unwrap();
        b.verify_signature(&ca.public_key()).unwrap();
        assert_ne!(a.serial(), b.serial());
        assert_eq!(ca.issued_count(), 2);
        assert_eq!(a.tbs.enclave_binding, Some([1; 32]));
        assert!(a.tbs.key_usage.permits(KeyUsage::CLIENT_AUTH));
        assert!(!a.tbs.is_ca);
        assert_eq!(a.tbs.validity.not_after, 100 + 24 * 3600);
    }

    /// Serials are taken in reservation order and signed in any order,
    /// each to the certificate `issue` would have minted for it.
    #[test]
    fn reserved_serials_sign_like_issue() {
        let mut issuing = test_ca();
        let mut reserving = test_ca();
        let leaf = SigningKey::from_seed(&[4; 32]);
        let profile = IssueProfile::vnf_client([3; 32]);
        let issue = |ca: &mut CertificateAuthority, name: &str| {
            ca.issue(DistinguishedName::new(name), leaf.public_key(), &profile, 7)
        };
        let expected = [issue(&mut issuing, "vnf-a"), issue(&mut issuing, "vnf-b")];
        let (a, b) = (reserving.reserve(), reserving.reserve());
        assert_eq!((a.serial(), b.serial()), (2, 3));
        let sign = |issuance: Issuance, name: &str| {
            issuance.sign(DistinguishedName::new(name), leaf.public_key(), &profile, 7)
        };
        let second = sign(b, "vnf-b");
        let first = sign(a, "vnf-a");
        assert_eq!([first, second], expected);
        assert_eq!(reserving.issued_count(), 2);
        assert_eq!(reserving.next_serial(), issuing.next_serial());
    }

    #[test]
    fn sign_request_checks_pop() {
        let mut ca = test_ca();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let csr = CertificateRequest::new(DistinguishedName::new("vnf"), &leaf, b"ctx");
        let cert = ca
            .sign_request(&csr, &IssueProfile::vnf_client([2; 32]), 0)
            .unwrap();
        cert.verify_signature(&ca.public_key()).unwrap();

        // A tampered CSR is refused.
        let mut bad = csr;
        bad.subject.common_name = "other".into();
        assert!(ca
            .sign_request(&bad, &IssueProfile::vnf_client([2; 32]), 0)
            .is_err());
    }

    #[test]
    fn sign_request_refuses_identity_key_without_secret() {
        // Under the identity point as public key, R = [r]B with S = r
        // satisfies the verification equation over any body, so a CSR for
        // that key can "prove" possession with no secret at all.
        let mut ca = test_ca();
        let mut r = [0u8; 32];
        r[0] = 5;
        let mut pop = Point::base().scalar_mul(&r).compress().to_vec();
        pop.extend_from_slice(&r);
        let mut identity = [0u8; 32];
        identity[0] = 1;

        // The proof of possession is the last 64 bytes of the encoding.
        let mut csr = CertificateRequest::new(
            DistinguishedName::new("vnf"),
            &SigningKey::from_seed(&[1; 32]),
            b"ctx",
        );
        csr.public_key = VerifyingKey::from_bytes(&identity);
        let mut encoded = csr.encode();
        let len = encoded.len();
        encoded[len - 64..].copy_from_slice(&pop);
        let forged = CertificateRequest::decode(&encoded).unwrap();

        assert!(forged.verify().is_err());
        assert!(ca
            .sign_request(&forged, &IssueProfile::vnf_client([2; 32]), 0)
            .is_err());
    }

    #[test]
    fn revocation_appears_in_crl() {
        let mut ca = test_ca();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("vnf"),
            leaf.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        assert!(!ca.is_revoked(cert.serial()));
        ca.revoke(cert.serial(), RevocationReason::KeyCompromise, 50);
        assert!(ca.is_revoked(cert.serial()));

        let crl = ca.current_crl(60, 300);
        crl.verify(&ca.public_key()).unwrap();
        let entry = crl.lookup(cert.serial()).unwrap();
        assert_eq!(entry.reason, RevocationReason::KeyCompromise);
        assert_eq!(entry.revoked_at, 50);
        assert_eq!(crl.next_update, 360);
    }

    #[test]
    fn crl_reflects_current_registry() {
        let mut ca = test_ca();
        assert!(ca.current_crl(0, 10).is_empty());
        ca.revoke(5, RevocationReason::Unspecified, 1);
        ca.revoke(6, RevocationReason::Unspecified, 2);
        assert_eq!(ca.current_crl(3, 10).len(), 2);
    }

    #[test]
    fn issue_crl_bumps_number_monotonically() {
        let mut ca = test_ca();
        assert_eq!(ca.crl_number(), 0);
        assert_eq!(ca.issue_crl(10, 100).crl_number, 1);
        assert_eq!(ca.issue_crl(20, 100).crl_number, 2);
        // current_crl re-serves the latest number without bumping.
        assert_eq!(ca.current_crl(30, 100).crl_number, 2);
        // Restoration never moves backwards.
        ca.restore_crl_number(1);
        assert_eq!(ca.crl_number(), 2);
        ca.restore_crl_number(9);
        assert_eq!(ca.issue_crl(40, 100).crl_number, 10);
    }

    #[test]
    fn rotation_swaps_key_and_keeps_registry() {
        let mut ca = test_ca();
        let old_key = ca.public_key();
        let old_root = ca.certificate().clone();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let pre = ca.issue(
            DistinguishedName::new("vnf"),
            leaf.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        ca.revoke(pre.serial(), RevocationReason::KeyCompromise, 5);

        let next = SigningKey::from_seed(&[77; 32]);
        let (new_root, cross) = ca.rotate_to(next.clone(), Validity::new(0, 9_000_000));
        assert_eq!(ca.epoch(), 1);
        assert_eq!(ca.previous_roots(), &[old_root]);
        assert_eq!(ca.cross_signed(), Some(&cross));
        assert_eq!(ca.public_key().as_bytes(), next.public_key().as_bytes());
        // Same DN, new self-signed root; the cross cert verifies under the
        // outgoing key and the two minted serials are distinct.
        assert_eq!(new_root.tbs.subject, ca.certificate().tbs.subject);
        assert!(new_root.is_self_signed());
        cross.verify_signature(&old_key).unwrap();
        assert_ne!(new_root.serial(), cross.serial());

        // Post-rotation issuance signs with the new key; post-rotation CRLs
        // still cover the pre-rotation revocation.
        let post = ca.issue(
            DistinguishedName::new("vnf-2"),
            leaf.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            10,
        );
        post.verify_signature(&ca.public_key()).unwrap();
        assert!(post.verify_signature(&old_key).is_err());
        let crl = ca.issue_crl(20, 100);
        crl.verify(&ca.public_key()).unwrap();
        assert!(crl.lookup(pre.serial()).is_some());
    }

    #[test]
    fn install_rotation_replays_deterministically() {
        let mut a = test_ca();
        let mut b = test_ca();
        let key = SigningKey::from_seed(&[13; 32]);
        let validity = Validity::new(100, 5_000_000);
        let (root_a, cross_a) = a.rotate_to(key.clone(), validity);
        let (root_b, cross_b) =
            b.install_rotation(key, validity, root_a.serial(), cross_a.serial());
        assert_eq!(root_a, root_b);
        assert_eq!(cross_a, cross_b);
    }

    #[test]
    fn server_profile_lacks_client_auth() {
        let mut ca = test_ca();
        let key = SigningKey::from_seed(&[2; 32]);
        let cert = ca.issue(
            DistinguishedName::new("controller"),
            key.public_key(),
            &IssueProfile::server(),
            0,
        );
        assert!(cert.tbs.key_usage.permits(KeyUsage::SERVER_AUTH));
        assert!(!cert.tbs.key_usage.permits(KeyUsage::CLIENT_AUTH));
        assert_eq!(cert.tbs.enclave_binding, None);
    }
}
