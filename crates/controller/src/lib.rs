//! # vnfguard-controller
//!
//! A network controller modeled on Floodlight v1.2, the controller of the
//! paper's prototype (§3): an SDN control plane with a REST north-bound
//! API offering **three security modes** —
//!
//! 1. [`SecurityMode::Http`] — plain HTTP (no protection);
//! 2. [`SecurityMode::Https`] — TLS with server authentication;
//! 3. [`SecurityMode::TrustedHttps`] — TLS with mutual authentication,
//!    validating clients either against a per-client keystore (Floodlight's
//!    native model) or against the Verification Manager's CA certificate
//!    (the paper's improvement).
//!
//! The API surface mirrors the Floodlight endpoints the demo exercises:
//! controller summary, switch inventory, device list, topology links and
//! the static flow pusher.

pub mod api;
pub mod client;
pub mod clock;
pub mod controller;
pub mod flowspec;
pub mod security;
pub mod state;

pub use client::NorthboundClient;
pub use clock::SimClock;
pub use controller::{Controller, ControllerConfig};
pub use flowspec::FlowSpec;
pub use security::SecurityMode;

/// Errors surfaced by controller operations and the north-bound client.
#[derive(Debug)]
pub enum ControllerError {
    Net(vnfguard_net::NetError),
    Tls(vnfguard_tls::TlsError),
    /// The API returned a non-success status.
    Api {
        status: u16,
        message: String,
    },
    /// Required configuration is missing for the selected security mode.
    Misconfigured(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::Net(e) => write!(f, "network: {e}"),
            ControllerError::Tls(e) => write!(f, "tls: {e}"),
            ControllerError::Api { status, message } => {
                write!(f, "API error {status}: {message}")
            }
            ControllerError::Misconfigured(msg) => write!(f, "misconfigured: {msg}"),
        }
    }
}

impl std::error::Error for ControllerError {}

impl From<vnfguard_net::NetError> for ControllerError {
    fn from(e: vnfguard_net::NetError) -> ControllerError {
        ControllerError::Net(e)
    }
}

impl From<vnfguard_tls::TlsError> for ControllerError {
    fn from(e: vnfguard_tls::TlsError) -> ControllerError {
        ControllerError::Tls(e)
    }
}
