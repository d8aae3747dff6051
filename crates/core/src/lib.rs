//! # vnfguard-core
//!
//! The paper's primary contribution: the **Verification Manager** and the
//! end-to-end workflow of Figure 1.
//!
//! > "We introduce a Verification Manager module that has a central
//! > position in our proposed architecture: it obtains integrity
//! > measurements of VNFs through an attestation protocol and appraises the
//! > trustworthiness of the platform. Furthermore, it handles the
//! > communication with third-party attestation services, generates the
//! > HMAC key and nonces, as well as the certificates for the client
//! > authentication." (§2)
//!
//! The crate provides:
//!
//! - [`manager::VerificationManager`] — attestation orchestration (host and
//!   VNF), appraisal, the certificate authority, credential provisioning
//!   and revocation, and an audit trail;
//! - [`attestation`] — the evidence structures exchanged in steps 1–4 of
//!   Figure 1, and the **integrity attestation enclave** that quotes the
//!   host's IMA measurement list;
//! - [`deployment`] — a full testbed assembling network, IAS, controller,
//!   container hosts, and VNFs, with one method per workflow step. The
//!   examples and every benchmark build on it.
//!
//! ## The six steps of Figure 1
//!
//! | Step | API |
//! |---|---|
//! | 1–2 host attestation via IAS | [`manager::Handshake::begin_host_attestation`] → [`attestation::host_evidence`] → [`manager::Handshake::complete_host_attestation`] |
//! | 3–4 VNF enclave attestation via IAS | [`manager::Handshake::begin_vnf_attestation`] → [`manager::VerificationManager::prepare_vnf_enrollment`] → [`manager::VerificationManager::commit_vnf_enrollment`] |
//! | 5 credential provisioning | returned wrapped bundle → `VnfGuard::provision` |
//! | 6 VNF ↔ controller TLS | `VnfGuard::open_session` / `request` |

pub mod attestation;
pub mod backend;
pub mod chaos;
pub mod crash;
pub mod deployment;
pub mod fleet;
pub mod lifecycle;
pub mod manager;
pub mod overload;
pub mod remote;
pub mod replication;
pub mod resilience;
pub mod revocation;
pub mod service;
mod state;
pub mod trust;

pub use attestation::{HostEvidence, IntegrityAttestationEnclave};
pub use backend::MultiBackend;
pub use crash::{CrashEvent, CrashPlan};
pub use deployment::{Testbed, TestbedBuilder, TestbedHost};
pub use fleet::{serve_fleet_api, serve_standby_health, FleetMonitor, FleetStatus, NodeKind};
pub use lifecycle::{
    verify_handover, CaRotation, LifecycleMonitor, LifecycleStatus, LifecycleTick, RenewalDue,
};
pub use manager::{ManagerConfig, ManagerConfigBuilder, RecoveryReport, VerificationManager};
pub use overload::{current_deadline, AdmissionConfig, AdmissionController, Deadline, Workclass};
pub use remote::{HostAgent, RemoteIas};
pub use resilience::{BreakerState, CircuitBreaker, RetryPolicy};
pub use revocation::RevocationNotifier;
pub use service::VmService;

/// Errors from the Verification Manager and workflow orchestration.
#[derive(Debug)]
pub enum CoreError {
    // backend-opt-out: error plumbing for agent-side SGX platform calls;
    // appraisal verdicts travel as AttestationRefused, not SgxError.
    Sgx(vnfguard_sgx::SgxError),
    Vnf(vnfguard_vnf::VnfError),
    Controller(vnfguard_controller::ControllerError),
    Pki(vnfguard_pki::PkiError),
    /// Attestation was refused; the string carries the appraisal reason.
    AttestationFailed(String),
    /// An unknown or expired challenge was presented.
    BadChallenge(String),
    /// The workflow was invoked out of order (e.g. enrollment before host
    /// attestation).
    WorkflowViolation(String),
    /// Structural error in evidence.
    Encoding(String),
    /// A required backing service (e.g. IAS) is unreachable and no
    /// degradation policy permits proceeding without it.
    ServiceUnavailable(String),
    /// A container host's agent could not be reached.
    HostUnreachable(String),
    /// Credential delivery failed mid-provisioning; the issued certificate
    /// was revoked and the enrollment rolled back.
    ProvisioningRolledBack(String),
    /// A [`manager::ManagerConfig`] builder was given an inconsistent or
    /// unsafe combination of settings.
    InvalidConfig(String),
    /// The VM process crashed at the named injection site. The manager is
    /// dead: every further workflow call fails until state is rebuilt with
    /// [`service::VmService::recover`].
    VmCrashed(String),
    /// The durability layer failed: sealing, unsealing, or media
    /// corruption beyond the tolerated torn tail.
    Store(String),
    /// The request's propagated deadline budget ran out before the work
    /// completed; the remaining work was abandoned because nobody is
    /// waiting for the answer. Maps to HTTP 504 `code:"deadline"`.
    DeadlineExceeded(String),
    /// Admission control shed the request before any state was touched.
    /// `retry_after_secs` tells the client how long to back off, sized to
    /// the queue it failed to join. Maps to HTTP 503 `code:"overloaded"`.
    Overloaded {
        detail: String,
        retry_after_secs: u64,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Sgx(e) => write!(f, "sgx: {e}"),
            CoreError::Vnf(e) => write!(f, "vnf: {e}"),
            CoreError::Controller(e) => write!(f, "controller: {e}"),
            CoreError::Pki(e) => write!(f, "pki: {e}"),
            CoreError::AttestationFailed(msg) => write!(f, "attestation failed: {msg}"),
            CoreError::BadChallenge(msg) => write!(f, "bad challenge: {msg}"),
            CoreError::WorkflowViolation(msg) => write!(f, "workflow violation: {msg}"),
            CoreError::Encoding(msg) => write!(f, "encoding: {msg}"),
            CoreError::ServiceUnavailable(msg) => write!(f, "service unavailable: {msg}"),
            CoreError::HostUnreachable(msg) => write!(f, "host unreachable: {msg}"),
            CoreError::ProvisioningRolledBack(msg) => {
                write!(f, "provisioning rolled back: {msg}")
            }
            CoreError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            CoreError::VmCrashed(site) => {
                write!(
                    f,
                    "verification manager crashed at {site}; recovery required"
                )
            }
            CoreError::Store(msg) => write!(f, "state store: {msg}"),
            CoreError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            CoreError::Overloaded {
                detail,
                retry_after_secs,
            } => write!(f, "overloaded: {detail} (retry after {retry_after_secs}s)"),
        }
    }
}

impl std::error::Error for CoreError {}

// backend-opt-out: error conversion for agent-side SGX platform calls.
impl From<vnfguard_sgx::SgxError> for CoreError {
    fn from(e: vnfguard_sgx::SgxError) -> CoreError {
        CoreError::Sgx(e)
    }
}

impl From<vnfguard_vnf::VnfError> for CoreError {
    fn from(e: vnfguard_vnf::VnfError) -> CoreError {
        CoreError::Vnf(e)
    }
}

impl From<vnfguard_controller::ControllerError> for CoreError {
    fn from(e: vnfguard_controller::ControllerError) -> CoreError {
        CoreError::Controller(e)
    }
}

impl From<vnfguard_pki::PkiError> for CoreError {
    fn from(e: vnfguard_pki::PkiError) -> CoreError {
        CoreError::Pki(e)
    }
}

impl From<vnfguard_encoding::EncodingError> for CoreError {
    fn from(e: vnfguard_encoding::EncodingError) -> CoreError {
        CoreError::Encoding(e.to_string())
    }
}

impl From<vnfguard_store::StoreError> for CoreError {
    fn from(e: vnfguard_store::StoreError) -> CoreError {
        CoreError::Store(e.to_string())
    }
}
