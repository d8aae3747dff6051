//! The controller process: binds the REST API on the fabric under one of
//! the three security modes.

use crate::api::build_router;
use crate::clock::SimClock;
use crate::security::{SecurityMode, TlsUpgrade};
use crate::state::ControllerState;
use crate::ControllerError;
use parking_lot::RwLock;
use std::sync::Arc;
use vnfguard_net::fabric::Network;
use vnfguard_net::server::{serve, PlainUpgrade, ServerHandle};
use vnfguard_telemetry::Telemetry;
use vnfguard_tls::signer::IdentitySigner;
use vnfguard_tls::validate::ClientValidator;

/// Configuration for starting a controller.
pub struct ControllerConfig {
    /// Fabric address to bind, e.g. `"controller:8080"`.
    pub address: String,
    pub mode: SecurityMode,
    /// Server TLS identity (required for HTTPS / trusted HTTPS).
    pub identity: Option<Arc<dyn IdentitySigner>>,
    /// Client validation (required for trusted HTTPS).
    pub client_validator: Option<ClientValidator>,
    pub clock: SimClock,
    /// Telemetry bundle for distributed tracing of north-bound requests;
    /// `None` serves untraced.
    pub telemetry: Option<Telemetry>,
}

impl ControllerConfig {
    pub fn http(address: &str) -> ControllerConfig {
        ControllerConfig {
            address: address.to_string(),
            mode: SecurityMode::Http,
            identity: None,
            client_validator: None,
            clock: SimClock::wall(),
            telemetry: None,
        }
    }

    pub fn https(address: &str, identity: Arc<dyn IdentitySigner>) -> ControllerConfig {
        ControllerConfig {
            address: address.to_string(),
            mode: SecurityMode::Https,
            identity: Some(identity),
            client_validator: None,
            clock: SimClock::wall(),
            telemetry: None,
        }
    }

    pub fn trusted_https(
        address: &str,
        identity: Arc<dyn IdentitySigner>,
        validator: ClientValidator,
    ) -> ControllerConfig {
        ControllerConfig {
            address: address.to_string(),
            mode: SecurityMode::TrustedHttps,
            identity: Some(identity),
            client_validator: Some(validator),
            clock: SimClock::wall(),
            telemetry: None,
        }
    }

    pub fn with_clock(mut self, clock: SimClock) -> ControllerConfig {
        self.clock = clock;
        self
    }

    /// Record north-bound requests as distributed-trace server spans, and
    /// TLS handshakes as `vnfguard_tls_*` series, in `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> ControllerConfig {
        self.telemetry = Some(telemetry.clone());
        self
    }

    /// The server-side TLS upgrade of the two HTTPS modes: trusted HTTPS
    /// adds client validation to HTTPS's server identity.
    fn tls_upgrade(&self) -> Result<TlsUpgrade, ControllerError> {
        let mode = self.mode.as_str();
        let identity = self.identity.clone().ok_or_else(|| {
            ControllerError::Misconfigured(format!("{mode} mode requires a server identity"))
        })?;
        let client_validator = match self.mode {
            SecurityMode::TrustedHttps => Some(self.client_validator.clone().ok_or_else(|| {
                ControllerError::Misconfigured(format!("{mode} mode requires a client validator"))
            })?),
            SecurityMode::Http | SecurityMode::Https => None,
        };
        Ok(TlsUpgrade {
            identity,
            client_validator,
            clock: self.clock.clone(),
            telemetry: self.telemetry.clone().unwrap_or_else(Telemetry::disabled),
        })
    }
}

/// A running controller.
pub struct Controller {
    state: Arc<RwLock<ControllerState>>,
    handle: ServerHandle,
    mode: SecurityMode,
    address: String,
    /// Handle to the client validator, for live CRL/keystore updates.
    validator: Option<ClientValidator>,
}

impl Controller {
    /// Start serving the REST API on `network`.
    pub fn start(
        network: &Network,
        config: ControllerConfig,
    ) -> Result<Controller, ControllerError> {
        let state = Arc::new(RwLock::new(ControllerState::new()));
        let router = build_router(
            state.clone(),
            config.clock.clone(),
            config.telemetry.as_ref(),
        );
        let listener = network.listen(&config.address)?;

        let handle = match config.mode {
            SecurityMode::Http => serve(listener, PlainUpgrade, router),
            SecurityMode::Https | SecurityMode::TrustedHttps => {
                serve(listener, config.tls_upgrade()?, router)
            }
        };
        Ok(Controller {
            state,
            handle,
            mode: config.mode,
            address: config.address,
            validator: config.client_validator,
        })
    }

    pub fn mode(&self) -> SecurityMode {
        self.mode
    }

    pub fn address(&self) -> &str {
        &self.address
    }

    /// Shared state handle (e.g. to sync dataplane switches or inspect the
    /// audit log from tests).
    pub fn state(&self) -> Arc<RwLock<ControllerState>> {
        self.state.clone()
    }

    /// The client validator, if running in trusted-HTTPS mode.
    pub fn client_validator(&self) -> Option<&ClientValidator> {
        self.validator.as_ref()
    }

    pub fn requests_served(&self) -> u64 {
        self.handle.requests()
    }

    pub fn handshake_failures(&self) -> u64 {
        self.handle.upgrade_failures()
    }

    /// Stop serving.
    pub fn stop(self) {
        self.handle.stop();
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("address", &self.address)
            .field("mode", &self.mode.as_str())
            .field("requests", &self.requests_served())
            .finish()
    }
}
