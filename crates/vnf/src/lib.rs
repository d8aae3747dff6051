//! # vnfguard-vnf
//!
//! The VNF framework: the **credential enclave** that holds a VNF's
//! north-bound TLS credentials, the host-side [`guard::VnfGuard`] wrapper
//! that deploys and drives it, and the packet-processing network functions
//! (firewall, NAT, load balancer, DPI) that make the VNFs real.
//!
//! ## The credential enclave
//!
//! [`credential_enclave::CredentialEnclave`] is the paper's TEE 1 / TEE 2
//! (Figure 1): it is measured at load, attested remotely through a quote
//! whose report data binds a freshly generated **provisioning key**, and
//! receives its credentials wrapped to that key — so only the attested
//! enclave instance can unwrap them (paper step 5). All TLS sessions to the
//! controller are terminated *inside* the enclave: the handshake runs in
//! enclave code over ocall-backed network I/O, and the session keys remain
//! in enclave memory between ecalls ("the security context established for
//! each TLS session (including the session key) does not leave the
//! enclave", §2).
//!
//! There is deliberately **no opcode that returns key material**: the
//! enclave's public surface is attest / provision / seal / request / wipe.

pub mod credential_enclave;
pub mod guard;
pub mod nf;

pub use credential_enclave::{wrap_credentials, CredentialEnclave, ProvisionBundle, WrapRandomness};
pub use guard::{RenewFn, VnfGuard};
pub use nf::{DpiCounter, Firewall, LoadBalancer, NatGateway, NetworkFunction};

/// Errors from the VNF layer.
#[derive(Debug)]
pub enum VnfError {
    Sgx(vnfguard_sgx::SgxError),
    Net(vnfguard_net::NetError),
    /// The enclave has not been provisioned with credentials yet.
    NotProvisioned,
    /// Malformed structure crossing the enclave boundary.
    Encoding(String),
    /// The controller shed the request under load; retry after the hint.
    Backpressure { retry_after_secs: u64 },
}

impl std::fmt::Display for VnfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VnfError::Sgx(e) => write!(f, "sgx: {e}"),
            VnfError::Net(e) => write!(f, "net: {e}"),
            VnfError::NotProvisioned => write!(f, "enclave holds no credentials"),
            VnfError::Encoding(msg) => write!(f, "encoding: {msg}"),
            VnfError::Backpressure { retry_after_secs } => {
                write!(f, "controller overloaded, retry after {retry_after_secs}s")
            }
        }
    }
}

impl std::error::Error for VnfError {}

impl From<vnfguard_sgx::SgxError> for VnfError {
    fn from(e: vnfguard_sgx::SgxError) -> VnfError {
        VnfError::Sgx(e)
    }
}

impl From<vnfguard_net::NetError> for VnfError {
    fn from(e: vnfguard_net::NetError) -> VnfError {
        VnfError::Net(e)
    }
}

impl From<vnfguard_encoding::EncodingError> for VnfError {
    fn from(e: vnfguard_encoding::EncodingError) -> VnfError {
        VnfError::Encoding(e.to_string())
    }
}
