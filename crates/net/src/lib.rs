//! # vnfguard-net
//!
//! The in-memory network fabric the simulated SDN deployment runs on, plus
//! a from-scratch HTTP/1.1 implementation and a REST router.
//!
//! - [`stream`] — bidirectional byte streams (implementing `std::io::Read`
//!   / `Write`) built on crossbeam channels, with optional per-link latency
//!   and passive **taps** (the eavesdropping adversary of the paper's §1);
//! - [`fabric`] — a named-endpoint network: `listen("controller:8443")`,
//!   `connect(...)`, per-address taps, connection accounting;
//! - [`fault`] — deterministic fault injection: refused connections,
//!   latency/jitter, mid-stream drops, stalls and partitions, driven by a
//!   seeded [`FaultPlan`] so failure sequences replay;
//! - [`http`] — HTTP/1.1 requests/responses with Content-Length framing;
//! - [`rest`] — a path-pattern router (`/wm/device/:id`) with JSON helpers;
//! - [`server`] — serving on a pool of reusable handler threads, with
//!   graceful shutdown.
//!
//! The fabric deliberately models the *layering* rather than TCP dynamics:
//! streams are reliable and ordered, which is what the REST-over-TLS
//! north-bound interface of the paper assumes.

pub mod fabric;
pub mod fault;
pub mod http;
pub mod rest;
pub mod server;
pub mod stream;

pub use fabric::{Listener, Network};
pub use fault::{FaultEvent, FaultPlan, InjectedFault, LinkControl, RefuseReason};
pub use http::{Method, Request, Response, Status};
pub use rest::Router;
pub use server::ServerHandle;
pub use stream::{Duplex, TapHandle};

/// Errors from the fabric and HTTP layers.
#[derive(Debug)]
pub enum NetError {
    /// No listener is registered at the address (or a fault refused it).
    ConnectionRefused(String),
    /// The address is already bound.
    AddressInUse(String),
    /// The peer closed the stream mid-message.
    ConnectionClosed,
    /// A read deadline elapsed (see `Duplex::set_read_timeout`).
    TimedOut(String),
    /// A fault-injected failure mid-stream (severed link, forced reset).
    Injected(String),
    /// An I/O error from the stream layer.
    Io(std::io::Error),
    /// Malformed HTTP or JSON payload.
    Protocol(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::ConnectionRefused(addr) => write!(f, "connection refused: {addr}"),
            NetError::AddressInUse(addr) => write!(f, "address in use: {addr}"),
            NetError::ConnectionClosed => write!(f, "connection closed by peer"),
            NetError::TimedOut(what) => write!(f, "timed out: {what}"),
            NetError::Injected(what) => write!(f, "injected fault: {what}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        if e.kind() == std::io::ErrorKind::TimedOut {
            return NetError::TimedOut(e.to_string());
        }
        if e.get_ref().is_some_and(|inner| inner.is::<InjectedFault>()) {
            return NetError::Injected(e.to_string());
        }
        NetError::Io(e)
    }
}

impl From<vnfguard_encoding::EncodingError> for NetError {
    fn from(e: vnfguard_encoding::EncodingError) -> NetError {
        NetError::Protocol(e.to_string())
    }
}
