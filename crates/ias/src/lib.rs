//! # vnfguard-ias
//!
//! A protocol-faithful simulation of the Intel Attestation Service (IAS).
//!
//! The paper's Verification Manager "contacts the Intel Attestation Service
//! (IAS) … to both verify the validity of the enclave key against the
//! revocation list and the validity of the integrity quote" (§2, steps 2
//! and 4 of Figure 1). This crate provides that service:
//!
//! - an **EPID group registry** with per-group status (OK / revoked /
//!   out-of-date TCB) and member attestation keys;
//! - **signature revocation lists** (SigRL) per group;
//! - **attestation verification reports** signed by the service's report
//!   key, carrying the same status vocabulary real IAS responses use.
//!
//! The substitution from real IAS is documented in DESIGN.md §2: the
//! verifier-side logic in `vnfguard-core` consumes only the signed report,
//! so it exercises exactly the code path it would against Intel's endpoint.

pub mod report;
pub mod service;

pub use report::{AttestationReport, QuoteStatus};
pub use service::{AttestationService, GroupStatus};

use vnfguard_crypto::ed25519::PreparedVerifyingKey;

/// Reachability of a quote-verification backend, as judged by the handle
/// itself (an in-process service is always available; a remote client may
/// report `Unavailable` while its circuit breaker is open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    Available,
    Unavailable,
}

/// Anything that can verify quotes on behalf of a relying party — the local
/// [`AttestationService`] instance, or a client handle to a remote one.
/// The Verification Manager is written against this trait, so the same
/// appraisal logic runs whether the IAS is in-process or across the fabric.
pub trait QuoteVerifier {
    /// Submit an encoded quote with a nonce; always returns a signed report.
    fn verify_quote(&mut self, quote_bytes: &[u8], nonce: &[u8]) -> AttestationReport;

    /// The report-signing public key relying parties check reports
    /// against, prepared once for the life of the handle. `None` when the
    /// configured key is one under which no signature verifies, so every
    /// report is refused.
    fn report_key(&self) -> Option<&PreparedVerifyingKey>;

    /// Whether the backend is currently worth calling. Callers may use an
    /// `Unavailable` answer to fall back to a degraded-verdict policy
    /// instead of issuing a request that is known to fail.
    fn availability(&self) -> Availability {
        Availability::Available
    }
}

impl<T: QuoteVerifier + ?Sized> QuoteVerifier for &mut T {
    fn verify_quote(&mut self, quote_bytes: &[u8], nonce: &[u8]) -> AttestationReport {
        (**self).verify_quote(quote_bytes, nonce)
    }

    fn report_key(&self) -> Option<&PreparedVerifyingKey> {
        (**self).report_key()
    }

    fn availability(&self) -> Availability {
        (**self).availability()
    }
}

impl QuoteVerifier for AttestationService {
    fn verify_quote(&mut self, quote_bytes: &[u8], nonce: &[u8]) -> AttestationReport {
        AttestationService::verify_quote(self, quote_bytes, nonce)
    }

    fn report_key(&self) -> Option<&PreparedVerifyingKey> {
        Some(self.report_verifier())
    }
}

/// Errors from the attestation service or report handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IasError {
    /// Structural problem with a submitted quote or report.
    Encoding(String),
    /// The report signature did not verify against the IAS key.
    BadReportSignature,
}

impl std::fmt::Display for IasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IasError::Encoding(msg) => write!(f, "encoding: {msg}"),
            IasError::BadReportSignature => write!(f, "IAS report signature invalid"),
        }
    }
}

impl std::error::Error for IasError {}

impl From<vnfguard_encoding::EncodingError> for IasError {
    fn from(e: vnfguard_encoding::EncodingError) -> IasError {
        IasError::Encoding(e.to_string())
    }
}
