//! Client-certificate validation: the two models the paper contrasts.

use crate::TlsError;
use parking_lot::RwLock;
use std::sync::Arc;
use vnfguard_pki::cert::KeyUsage;
use vnfguard_pki::{Certificate, KeyStore, PkiError, TrustStore};

/// How a server decides whether to trust a presented client certificate.
#[derive(Clone)]
pub enum ClientValidator {
    /// CA model (the paper's choice): validate the signature chain against
    /// trust anchors, plus expiry and revocation. O(1) in the number of
    /// enrolled clients.
    Ca(Arc<RwLock<TrustStore>>),
    /// Keystore model (Floodlight's default): the exact certificate must be
    /// present in the server's keystore. O(n) scan, and the store must be
    /// updated for every newly created key.
    Keystore(Arc<RwLock<KeyStore>>),
}

impl ClientValidator {
    pub fn ca(store: TrustStore) -> ClientValidator {
        ClientValidator::Ca(Arc::new(RwLock::new(store)))
    }

    pub fn keystore(store: KeyStore) -> ClientValidator {
        ClientValidator::Keystore(Arc::new(RwLock::new(store)))
    }

    /// Validate the client certificate at time `now`.
    pub fn validate(&self, cert: &Certificate, now: u64) -> Result<(), TlsError> {
        match self {
            ClientValidator::Ca(store) => store
                .read()
                .validate(cert, now, KeyUsage::CLIENT_AUTH)
                .map_err(TlsError::CertificateRejected),
            ClientValidator::Keystore(store) => {
                if store.read().contains_certificate(cert) {
                    Ok(())
                } else {
                    Err(TlsError::CertificateRejected(PkiError::UnknownIssuer(
                        format!("certificate of {} not in keystore", cert.subject_cn()),
                    )))
                }
            }
        }
    }

    /// Shared handle for runtime updates (CRL installs / keystore churn).
    pub fn trust_store(&self) -> Option<Arc<RwLock<TrustStore>>> {
        match self {
            ClientValidator::Ca(store) => Some(store.clone()),
            ClientValidator::Keystore(_) => None,
        }
    }

    pub fn key_store(&self) -> Option<Arc<RwLock<KeyStore>>> {
        match self {
            ClientValidator::Keystore(store) => Some(store.clone()),
            ClientValidator::Ca(_) => None,
        }
    }
}

impl std::fmt::Debug for ClientValidator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientValidator::Ca(_) => write!(f, "ClientValidator::Ca"),
            ClientValidator::Keystore(store) => {
                write!(
                    f,
                    "ClientValidator::Keystore({} entries)",
                    store.read().len()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_crypto::drbg::HmacDrbg;
    use vnfguard_crypto::ed25519::SigningKey;
    use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
    use vnfguard_pki::cert::{DistinguishedName, Validity};
    use vnfguard_pki::crl::RevocationReason;

    fn ca_and_cert() -> (CertificateAuthority, Certificate) {
        let mut rng = HmacDrbg::new(b"validate");
        let mut ca = CertificateAuthority::new(
            DistinguishedName::new("vm-ca"),
            Validity::new(0, 1_000_000),
            &mut rng,
        );
        let key = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            key.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            10,
        );
        (ca, cert)
    }

    #[test]
    fn ca_model_accepts_issued_cert() {
        let (ca, cert) = ca_and_cert();
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        let validator = ClientValidator::ca(store);
        validator.validate(&cert, 100).unwrap();
    }

    #[test]
    fn ca_model_rejects_foreign_cert() {
        let (_ca, cert) = ca_and_cert();
        let validator = ClientValidator::ca(TrustStore::new());
        assert!(validator.validate(&cert, 100).is_err());
    }

    #[test]
    fn ca_model_honors_revocation_updates() {
        let (mut ca, cert) = ca_and_cert();
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        let validator = ClientValidator::ca(store);
        validator.validate(&cert, 100).unwrap();
        // Revoke and push the CRL through the shared handle — this is how
        // the Verification Manager evicts a credential live.
        ca.revoke(cert.serial(), RevocationReason::KeyCompromise, 150);
        validator
            .trust_store()
            .unwrap()
            .write()
            .install_crl(ca.current_crl(150, 1000))
            .unwrap();
        assert!(validator.validate(&cert, 200).is_err());
    }

    #[test]
    fn keystore_model_requires_exact_membership() {
        let (_ca, cert) = ca_and_cert();
        let validator = ClientValidator::keystore(KeyStore::new());
        assert!(validator.validate(&cert, 100).is_err());
        validator
            .key_store()
            .unwrap()
            .write()
            .set("vnf-1", cert.clone());
        validator.validate(&cert, 100).unwrap();
        // Removal (the maintenance burden the paper avoids) de-trusts it.
        validator.key_store().unwrap().write().remove("vnf-1");
        assert!(validator.validate(&cert, 100).is_err());
    }

    #[test]
    fn handles_expose_correct_variants() {
        let (_, _) = ca_and_cert();
        let ca_validator = ClientValidator::ca(TrustStore::new());
        assert!(ca_validator.trust_store().is_some());
        assert!(ca_validator.key_store().is_none());
        let ks_validator = ClientValidator::keystore(KeyStore::new());
        assert!(ks_validator.key_store().is_some());
        assert!(ks_validator.trust_store().is_none());
    }
}
