//! Trust-anchor based certificate validation — the CA model the paper
//! adopts for the controller.

use crate::cert::{Certificate, KeyUsage};
use crate::crl::Crl;
use crate::PkiError;

/// What a relying party does when its cached CRL is past `next_update`.
///
/// The lifecycle subsystem distributes CRLs on a poll loop; a partitioned
/// controller eventually holds a stale list. Fail-open keeps the network
/// running on possibly outdated revocation data, fail-closed refuses every
/// client from that issuer until a fresh CRL arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RevocationPolicy {
    /// Keep honoring a stale CRL's entries; do not reject on staleness.
    #[default]
    FailOpen,
    /// Reject all certificates from an issuer whose cached CRL is stale.
    FailClosed,
}

/// A set of trust anchors plus current revocation data.
///
/// This is what the network controller holds instead of a per-client
/// keystore: one CA certificate and a CRL, independent of how many VNF
/// clients exist. During a CA rotation's dual-trust window the store holds
/// *two* self-signed roots sharing one distinguished name (old and new
/// generation); all lookups therefore try every matching anchor rather than
/// the first.
#[derive(Debug, Default)]
pub struct TrustStore {
    anchors: Vec<Certificate>,
    crls: Vec<Crl>,
    revocation_policy: RevocationPolicy,
}

impl TrustStore {
    pub fn new() -> TrustStore {
        TrustStore::default()
    }

    /// Install a trust anchor. Rejects certificates that are not self-signed
    /// CA certificates with the cert-sign usage.
    pub fn add_anchor(&mut self, anchor: Certificate) -> Result<(), PkiError> {
        if !anchor.tbs.is_ca {
            return Err(PkiError::NotAuthorized("anchor is not a CA".into()));
        }
        if !anchor.tbs.key_usage.permits(KeyUsage::KEY_CERT_SIGN) {
            return Err(PkiError::NotAuthorized(
                "anchor lacks keyCertSign usage".into(),
            ));
        }
        if !anchor.is_self_signed() {
            return Err(PkiError::BadSignature);
        }
        if self
            .anchors
            .iter()
            .any(|a| a.fingerprint() == anchor.fingerprint())
        {
            return Ok(()); // idempotent re-install
        }
        self.anchors.push(anchor);
        Ok(())
    }

    /// Remove the anchor with this fingerprint (end of a rotation's drain
    /// window). Returns whether an anchor was removed. Cached CRLs are kept:
    /// they are re-verified against the remaining anchors on replacement.
    pub fn remove_anchor(&mut self, fingerprint: &[u8; 32]) -> bool {
        let before = self.anchors.len();
        self.anchors.retain(|a| a.fingerprint() != *fingerprint);
        self.anchors.len() != before
    }

    /// The installed trust anchors.
    pub fn anchors(&self) -> impl Iterator<Item = &Certificate> {
        self.anchors.iter()
    }

    /// How to treat a stale cached CRL during validation.
    pub fn set_revocation_policy(&mut self, policy: RevocationPolicy) {
        self.revocation_policy = policy;
    }

    pub fn revocation_policy(&self) -> RevocationPolicy {
        self.revocation_policy
    }

    /// Install or replace the CRL from `issuer`, verifying its signature
    /// against any matching anchor (during a rotation window two anchors
    /// share the issuer name — the CRL is signed by the current key).
    /// Refuses to replace a cached CRL with a lower-numbered one.
    pub fn install_crl(&mut self, crl: Crl) -> Result<(), PkiError> {
        let mut seen_issuer = false;
        let mut verified = false;
        for anchor in &self.anchors {
            if anchor.tbs.subject.common_name == crl.issuer.common_name {
                seen_issuer = true;
                if crl.verify(&anchor.tbs.public_key).is_ok() {
                    verified = true;
                    break;
                }
            }
        }
        if !seen_issuer {
            return Err(PkiError::UnknownIssuer(crl.issuer.common_name.clone()));
        }
        if !verified {
            return Err(PkiError::BadSignature);
        }
        if let Some(existing) = self
            .crls
            .iter()
            .find(|existing| existing.issuer.common_name == crl.issuer.common_name)
        {
            if existing.crl_number > crl.crl_number {
                return Err(PkiError::CrlReplay {
                    issuer: crl.issuer.common_name.clone(),
                    cached: existing.crl_number,
                    offered: crl.crl_number,
                });
            }
        }
        self.crls
            .retain(|existing| existing.issuer.common_name != crl.issuer.common_name);
        self.crls.push(crl);
        Ok(())
    }

    /// The cached CRL from `issuer_cn`, if any (controller-side freshness
    /// gauges read its `issued_at`/`crl_number`).
    pub fn crl(&self, issuer_cn: &str) -> Option<&Crl> {
        self.crls
            .iter()
            .find(|crl| crl.issuer.common_name == issuer_cn)
    }

    pub fn anchor_count(&self) -> usize {
        self.anchors.len()
    }

    /// Validate a leaf certificate at time `now`, requiring `usage`.
    ///
    /// Checks, in order: issuer known → signature → validity window →
    /// revocation (incl. the fail-open/fail-closed staleness policy) → key
    /// usage. The cost of this routine is independent of the number of
    /// clients ever enrolled (experiment E5). Every anchor whose subject
    /// matches the leaf's issuer is tried, so a dual-trust rotation window
    /// accepts leaves from either CA generation.
    pub fn validate(&self, cert: &Certificate, now: u64, usage: KeyUsage) -> Result<(), PkiError> {
        let mut seen_issuer = false;
        let mut verified = false;
        for anchor in &self.anchors {
            if anchor.tbs.subject == cert.tbs.issuer {
                seen_issuer = true;
                if cert.verify_signature(&anchor.tbs.public_key).is_ok() {
                    verified = true;
                    break;
                }
            }
        }
        if !seen_issuer {
            return Err(PkiError::UnknownIssuer(cert.tbs.issuer.to_string()));
        }
        if !verified {
            return Err(PkiError::BadSignature);
        }
        if !cert.tbs.validity.contains(now) {
            return Err(PkiError::Expired {
                now,
                not_before: cert.tbs.validity.not_before,
                not_after: cert.tbs.validity.not_after,
            });
        }
        for crl in &self.crls {
            if crl.issuer.common_name == cert.tbs.issuer.common_name {
                if let Some(entry) = crl.lookup(cert.serial()) {
                    return Err(PkiError::Revoked {
                        serial: cert.serial(),
                        reason: entry.reason,
                    });
                }
                if self.revocation_policy == RevocationPolicy::FailClosed && crl.is_stale(now) {
                    return Err(PkiError::StaleCrl {
                        issuer: crl.issuer.common_name.clone(),
                        next_update: crl.next_update,
                        now,
                    });
                }
            }
        }
        if !cert.tbs.key_usage.permits(usage) {
            return Err(PkiError::ConstraintViolated(format!(
                "key usage {:#04x} does not permit required {:#04x}",
                cert.tbs.key_usage.0, usage.0
            )));
        }
        Ok(())
    }

    /// Validate and additionally require an enclave binding matching
    /// `expected_mrenclave` — used by relying parties that insist the
    /// credential lives inside an attested enclave.
    pub fn validate_with_binding(
        &self,
        cert: &Certificate,
        now: u64,
        usage: KeyUsage,
        expected_mrenclave: &[u8; 32],
    ) -> Result<(), PkiError> {
        self.validate(cert, now, usage)?;
        match &cert.tbs.enclave_binding {
            Some(binding) if binding == expected_mrenclave => Ok(()),
            Some(_) => Err(PkiError::ConstraintViolated(
                "enclave binding mismatch".into(),
            )),
            None => Err(PkiError::ConstraintViolated(
                "certificate carries no enclave binding".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::{CertificateAuthority, IssueProfile};
    use crate::cert::{DistinguishedName, TbsCertificate, Validity};
    use crate::crl::RevocationReason;
    use vnfguard_crypto::drbg::HmacDrbg;
    use vnfguard_crypto::ed25519::SigningKey;

    fn setup() -> (CertificateAuthority, TrustStore) {
        let mut rng = HmacDrbg::new(b"chain tests");
        let ca = CertificateAuthority::new(
            DistinguishedName::new("vm-ca"),
            Validity::new(0, 1_000_000),
            &mut rng,
        );
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        (ca, store)
    }

    #[test]
    fn valid_leaf_accepted() {
        let (mut ca, store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        store.validate(&cert, 200, KeyUsage::CLIENT_AUTH).unwrap();
        store
            .validate_with_binding(&cert, 200, KeyUsage::CLIENT_AUTH, &[7; 32])
            .unwrap();
    }

    #[test]
    fn unknown_issuer_rejected() {
        let (_ca, store) = setup();
        let mut rng = HmacDrbg::new(b"rogue");
        let mut rogue = CertificateAuthority::new(
            DistinguishedName::new("rogue-ca"),
            Validity::new(0, 1_000_000),
            &mut rng,
        );
        let leaf = SigningKey::from_seed(&[1; 32]);
        let cert = rogue.issue(
            DistinguishedName::new("vnf-1"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        assert!(matches!(
            store.validate(&cert, 200, KeyUsage::CLIENT_AUTH),
            Err(PkiError::UnknownIssuer(_))
        ));
    }

    #[test]
    fn forged_signature_rejected() {
        let (mut ca, store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let mut cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        // Attacker upgrades their own name after issuance.
        cert.tbs.subject.common_name = "admin".into();
        assert_eq!(
            store.validate(&cert, 200, KeyUsage::CLIENT_AUTH),
            Err(PkiError::BadSignature)
        );
    }

    #[test]
    fn expiry_enforced() {
        let (mut ca, store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        let expiry = cert.tbs.validity.not_after;
        assert!(store.validate(&cert, expiry, KeyUsage::CLIENT_AUTH).is_ok());
        assert!(matches!(
            store.validate(&cert, expiry + 1, KeyUsage::CLIENT_AUTH),
            Err(PkiError::Expired { .. })
        ));
        assert!(matches!(
            store.validate(&cert, 99, KeyUsage::CLIENT_AUTH),
            Err(PkiError::Expired { .. })
        ));
    }

    #[test]
    fn revocation_enforced_after_crl_install() {
        let (mut ca, mut store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        ca.revoke(cert.serial(), RevocationReason::PlatformCompromise, 150);
        // Until the CRL reaches the relying party, the cert still validates.
        store.validate(&cert, 200, KeyUsage::CLIENT_AUTH).unwrap();
        store.install_crl(ca.current_crl(200, 300)).unwrap();
        assert!(matches!(
            store.validate(&cert, 201, KeyUsage::CLIENT_AUTH),
            Err(PkiError::Revoked { .. })
        ));
    }

    #[test]
    fn crl_from_unknown_issuer_rejected() {
        let (_, mut store) = setup();
        let key = SigningKey::from_seed(&[9; 32]);
        let crl = Crl::build(DistinguishedName::new("nobody"), 0, 10, 0, [], &key);
        assert!(store.install_crl(crl).is_err());
    }

    #[test]
    fn lower_numbered_crl_rejected() {
        let (mut ca, mut store) = setup();
        let fresh = ca.issue_crl(10, 100);
        let newer = ca.issue_crl(20, 100);
        store.install_crl(newer).unwrap();
        assert!(matches!(
            store.install_crl(fresh),
            Err(PkiError::CrlReplay {
                cached: 2,
                offered: 1,
                ..
            })
        ));
        // Re-installing the same number is idempotent, not a replay.
        store.install_crl(ca.current_crl(30, 100)).unwrap();
    }

    #[test]
    fn fail_closed_rejects_on_stale_crl() {
        let (mut ca, mut store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        store.install_crl(ca.issue_crl(100, 50)).unwrap();
        // Fresh CRL: fine under either policy.
        store.validate(&cert, 140, KeyUsage::CLIENT_AUTH).unwrap();
        store.set_revocation_policy(RevocationPolicy::FailClosed);
        store.validate(&cert, 150, KeyUsage::CLIENT_AUTH).unwrap();
        // One past next_update: fail-closed rejects, fail-open does not.
        assert!(matches!(
            store.validate(&cert, 151, KeyUsage::CLIENT_AUTH),
            Err(PkiError::StaleCrl {
                next_update: 150,
                ..
            })
        ));
        store.set_revocation_policy(RevocationPolicy::FailOpen);
        store.validate(&cert, 151, KeyUsage::CLIENT_AUTH).unwrap();
    }

    #[test]
    fn dual_trust_window_accepts_both_epochs() {
        let (mut ca, mut store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let old_leaf = ca.issue(
            DistinguishedName::new("vnf-old"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        let old_root = ca.certificate().clone();
        let (new_root, cross) = ca.rotate_to(
            SigningKey::from_seed(&[42; 32]),
            Validity::new(0, 2_000_000),
        );
        // The handover is verifiable: cross cert carries the new key, signed
        // by the old one — and cannot itself be abused as an anchor.
        assert_eq!(cross.tbs.public_key, new_root.tbs.public_key);
        cross.verify_signature(&old_root.tbs.public_key).unwrap();
        assert!(!cross.is_self_signed());
        assert!(store.add_anchor(cross.clone()).is_err());

        store.add_anchor(new_root.clone()).unwrap();
        assert_eq!(store.anchor_count(), 2);
        let new_leaf = ca.issue(
            DistinguishedName::new("vnf-new"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            100,
        );
        // Both epochs validate while both anchors are installed, and the
        // post-rotation CRL (signed by the new key) still installs and
        // covers serials minted by the old epoch.
        store
            .validate(&old_leaf, 200, KeyUsage::CLIENT_AUTH)
            .unwrap();
        store
            .validate(&new_leaf, 200, KeyUsage::CLIENT_AUTH)
            .unwrap();
        ca.revoke(old_leaf.serial(), RevocationReason::Superseded, 250);
        store.install_crl(ca.issue_crl(260, 300)).unwrap();
        assert!(matches!(
            store.validate(&old_leaf, 270, KeyUsage::CLIENT_AUTH),
            Err(PkiError::Revoked { .. })
        ));

        // Drain deadline: retire the old root; old-epoch signatures stop
        // verifying, the new epoch is untouched.
        assert!(store.remove_anchor(&old_root.fingerprint()));
        assert!(!store.remove_anchor(&old_root.fingerprint()));
        assert_eq!(store.anchor_count(), 1);
        assert!(store
            .validate(&new_leaf, 300, KeyUsage::CLIENT_AUTH)
            .is_ok());
        assert_eq!(
            store.validate(&old_leaf, 300, KeyUsage::CLIENT_AUTH),
            Err(PkiError::BadSignature)
        );
    }

    #[test]
    fn crl_replacement_keeps_latest() {
        let (mut ca, mut store) = setup();
        ca.revoke(42, RevocationReason::Unspecified, 1);
        store.install_crl(ca.current_crl(2, 10)).unwrap();
        ca.revoke(43, RevocationReason::Unspecified, 3);
        store.install_crl(ca.current_crl(4, 10)).unwrap();
        assert_eq!(store.crls.len(), 1);
        assert_eq!(store.crls[0].len(), 2);
    }

    #[test]
    fn usage_constraints_enforced() {
        let (mut ca, store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("controller"),
            leaf.public_key(),
            &IssueProfile::server(),
            0,
        );
        store.validate(&cert, 10, KeyUsage::SERVER_AUTH).unwrap();
        assert!(matches!(
            store.validate(&cert, 10, KeyUsage::CLIENT_AUTH),
            Err(PkiError::ConstraintViolated(_))
        ));
    }

    #[test]
    fn binding_mismatch_rejected() {
        let (mut ca, store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        let bound = ca.issue(
            DistinguishedName::new("vnf"),
            leaf.public_key(),
            &IssueProfile::vnf_client([7; 32]),
            0,
        );
        assert!(matches!(
            store.validate_with_binding(&bound, 10, KeyUsage::CLIENT_AUTH, &[8; 32]),
            Err(PkiError::ConstraintViolated(_))
        ));
        let unbound = ca.issue(
            DistinguishedName::new("srv"),
            leaf.public_key(),
            &IssueProfile::server(),
            0,
        );
        assert!(store
            .validate_with_binding(&unbound, 10, KeyUsage::SERVER_AUTH, &[7; 32])
            .is_err());
    }

    #[test]
    fn anchor_requirements() {
        let (mut ca, mut store) = setup();
        let leaf = SigningKey::from_seed(&[1; 32]);
        // Leaf certs cannot be anchors.
        let cert = ca.issue(
            DistinguishedName::new("vnf"),
            leaf.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        assert!(store.add_anchor(cert).is_err());
        // Self-signed-looking cert with a bad signature is refused.
        let key = SigningKey::from_seed(&[2; 32]);
        let tbs = TbsCertificate {
            serial: 1,
            subject: DistinguishedName::new("fake-ca"),
            issuer: DistinguishedName::new("fake-ca"),
            validity: Validity::new(0, 100),
            public_key: key.public_key(),
            key_usage: KeyUsage::KEY_CERT_SIGN,
            is_ca: true,
            enclave_binding: None,
        };
        let wrong_signer = SigningKey::from_seed(&[3; 32]);
        let forged = Certificate::sign(tbs, &wrong_signer);
        assert_eq!(store.add_anchor(forged), Err(PkiError::BadSignature));
    }
}
