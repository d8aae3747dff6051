//! # vnfguard-pki
//!
//! Public-key infrastructure for the vnfguard workspace: certificates,
//! certificate signing requests, a certificate authority, revocation lists,
//! and the two client-validation models the paper contrasts in §3:
//!
//! > "Floodlight performs client certificate validation by adding client
//! > certificates to its keystore, which introduces the challenge of
//! > maintaining the keystore updated with newly created keys. We solve this
//! > by provisioning the controller with a trusted certificate authority."
//!
//! [`keystore::KeyStore`] models the per-client keystore; [`chain`] and
//! [`ca::CertificateAuthority`] model the CA approach the paper adopts.
//! Experiment **E5** benchmarks the two against each other.
//!
//! Certificates use a compact TLV encoding (not DER) with Ed25519
//! signatures, and carry an optional **enclave binding** extension tying a
//! credential to an SGX enclave measurement — the mechanism the Verification
//! Manager uses to ensure a provisioned key is only meaningful together with
//! the attested enclave identity.

pub mod ca;
pub mod cert;
pub mod chain;
pub mod crl;
pub mod csr;
pub mod keystore;

pub use ca::CertificateAuthority;
pub use cert::{Certificate, DistinguishedName, KeyUsage, Validity};
pub use chain::{RevocationPolicy, TrustStore};
pub use crl::{Crl, RevocationReason};
pub use csr::CertificateRequest;
pub use keystore::KeyStore;

/// Errors raised by PKI operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PkiError {
    /// A TLV/structural decoding problem.
    Encoding(String),
    /// The signature over a certificate, CRL or CSR did not verify.
    BadSignature,
    /// The certificate is outside its validity window.
    Expired {
        now: u64,
        not_before: u64,
        not_after: u64,
    },
    /// The certificate's serial appears on a CRL.
    Revoked {
        serial: u64,
        reason: crl::RevocationReason,
    },
    /// No trust anchor matches the certificate's issuer.
    UnknownIssuer(String),
    /// The issuing certificate is not a CA or lacks the required key usage.
    NotAuthorized(String),
    /// The certificate does not carry a required property (usage, binding).
    ConstraintViolated(String),
    /// The cached CRL for the issuer is past `next_update` and the relying
    /// party runs a fail-closed revocation policy.
    StaleCrl {
        issuer: String,
        next_update: u64,
        now: u64,
    },
    /// An offered CRL carries a lower number than the cached one — a replay
    /// or out-of-order distribution that must not overwrite fresher data.
    CrlReplay {
        issuer: String,
        cached: u64,
        offered: u64,
    },
}

impl std::fmt::Display for PkiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PkiError::Encoding(msg) => write!(f, "encoding error: {msg}"),
            PkiError::BadSignature => write!(f, "signature verification failed"),
            PkiError::Expired {
                now,
                not_before,
                not_after,
            } => write!(
                f,
                "certificate not valid at {now} (window {not_before}..{not_after})"
            ),
            PkiError::Revoked { serial, reason } => {
                write!(f, "certificate {serial} revoked ({reason:?})")
            }
            PkiError::UnknownIssuer(name) => write!(f, "unknown issuer: {name}"),
            PkiError::NotAuthorized(msg) => write!(f, "issuer not authorized: {msg}"),
            PkiError::ConstraintViolated(msg) => write!(f, "constraint violated: {msg}"),
            PkiError::StaleCrl {
                issuer,
                next_update,
                now,
            } => write!(
                f,
                "CRL from {issuer} stale at {now} (next_update {next_update}) under fail-closed policy"
            ),
            PkiError::CrlReplay {
                issuer,
                cached,
                offered,
            } => write!(
                f,
                "CRL replay from {issuer}: offered number {offered} below cached {cached}"
            ),
        }
    }
}

impl std::error::Error for PkiError {}

impl From<vnfguard_encoding::EncodingError> for PkiError {
    fn from(e: vnfguard_encoding::EncodingError) -> PkiError {
        PkiError::Encoding(e.to_string())
    }
}

/// Current wall-clock time as unix seconds. Validation functions take `now`
/// explicitly so tests and the simulator control time; this helper is for
/// binaries at the edge.
pub fn wall_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}
