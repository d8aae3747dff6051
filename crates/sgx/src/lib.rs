//! # vnfguard-sgx
//!
//! A software model of Intel SGX sufficient to reproduce the protocols of
//! *Safeguarding VNF Credentials with Intel SGX* without SGX hardware
//! (substitution documented in DESIGN.md §2).
//!
//! The model covers the pieces the paper's architecture exercises:
//!
//! - **Enclave lifecycle and measurement** ([`enclave`], [`measurement`]):
//!   pages are added and extended into an MRENCLAVE digest exactly in the
//!   spirit of `ECREATE`/`EADD`/`EEXTEND`/`EINIT`; after initialization the
//!   enclave is immutable ("after that the enclave becomes immutable",
//!   paper §2).
//! - **SIGSTRUCT and launch control** ([`sigstruct`]): enclaves are signed
//!   by their author; MRSIGNER is the hash of the author's public key.
//! - **Local attestation** ([`report`]): `EREPORT`/`EGETKEY`-style reports
//!   MAC'd with a platform-bound report key that only the target enclave
//!   (on the same platform) can re-derive.
//! - **Remote attestation** ([`quote`]): a quoting enclave converts local
//!   reports into quotes signed with an EPID-style group member key,
//!   carrying the group id that the (simulated) IAS resolves against its
//!   revocation lists.
//! - **Sealed storage** ([`seal`]): AES-GCM blobs under keys derived from
//!   the per-CPU fuse key with MRENCLAVE or MRSIGNER binding policies and
//!   SVN-based anti-rollback.
//! - **Transition cost model** ([`transition`]): a calibrated per-crossing
//!   busy-wait so the enclave-boundary overhead the paper defers to future
//!   work has a measurable, configurable shape (experiments E4/E7).
//!
//! ## What the model enforces
//!
//! The *confidentiality contract* of the paper — "the credentials do not
//! leave at any point the security context of the enclave" — is enforced by
//! construction: enclave-resident state lives behind [`enclave::Enclave`]
//! and is only reachable through `ecall`s dispatched to the enclave's
//! [`enclave::EnclaveCode`]; there is no accessor that returns the private
//! state, and `Debug` output never includes it.

pub mod enclave;
pub mod measurement;
pub mod platform;
pub mod quote;
pub mod report;
pub mod seal;
pub mod sigstruct;
pub mod transition;

pub use enclave::{Enclave, EnclaveCode, EnclaveContext, EnclaveId};
pub use measurement::Measurement;
pub use platform::{PlatformConfig, SgxPlatform};
pub use quote::{Quote, QuotingEnclave};
pub use report::{Report, TargetInfo};
pub use seal::SealPolicy;
pub use sigstruct::{EnclaveAuthor, SignedEnclave};

/// Errors from the SGX model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SgxError {
    /// The SIGSTRUCT signature did not verify or launch control refused it.
    LaunchFailed(String),
    /// The EPC has no room for the requested enclave.
    OutOfEpc { requested: usize, available: usize },
    /// An ecall to an opcode the enclave code does not implement.
    BadCall(u16),
    /// An ecall into a destroyed enclave.
    EnclaveDestroyed,
    /// Report MAC verification failure.
    BadReport,
    /// Sealed blob could not be opened (wrong platform/enclave/policy or
    /// tampered ciphertext).
    UnsealFailed(String),
    /// A key request for a higher SVN than the enclave's own (rollback
    /// protection refuses to derive future keys).
    SvnTooHigh { requested: u16, current: u16 },
    /// Malformed structure.
    Encoding(String),
    /// Code inside the enclave returned an application-level error.
    App(String),
}

impl std::fmt::Display for SgxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SgxError::LaunchFailed(msg) => write!(f, "enclave launch failed: {msg}"),
            SgxError::OutOfEpc {
                requested,
                available,
            } => write!(
                f,
                "EPC exhausted: requested {requested}, available {available}"
            ),
            SgxError::BadCall(op) => write!(f, "unhandled ecall opcode {op}"),
            SgxError::EnclaveDestroyed => write!(f, "enclave has been destroyed"),
            SgxError::BadReport => write!(f, "report MAC verification failed"),
            SgxError::UnsealFailed(msg) => write!(f, "unseal failed: {msg}"),
            SgxError::SvnTooHigh { requested, current } => {
                write!(
                    f,
                    "key request for SVN {requested} exceeds current {current}"
                )
            }
            SgxError::Encoding(msg) => write!(f, "encoding: {msg}"),
            SgxError::App(msg) => write!(f, "enclave application error: {msg}"),
        }
    }
}

impl std::error::Error for SgxError {}

impl From<vnfguard_encoding::EncodingError> for SgxError {
    fn from(e: vnfguard_encoding::EncodingError) -> SgxError {
        SgxError::Encoding(e.to_string())
    }
}
