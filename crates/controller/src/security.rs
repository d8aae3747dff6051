//! The controller's three REST security modes and the TLS stream upgrade.

use crate::clock::SimClock;
use std::sync::Arc;
use vnfguard_crypto::drbg::SystemEntropy;
use vnfguard_net::server::{PeerIdentity, StreamUpgrade};
use vnfguard_net::stream::Duplex;
use vnfguard_net::NetError;
use vnfguard_telemetry::Telemetry;
use vnfguard_tls::handshake::{server_handshake, ServerConfig};
use vnfguard_tls::signer::IdentitySigner;
use vnfguard_tls::stream::TlsStream;
use vnfguard_tls::validate::ClientValidator;

/// Floodlight's REST API security modes (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityMode {
    /// Plain HTTP: no confidentiality, no authentication.
    Http,
    /// HTTPS: server-authenticated TLS.
    Https,
    /// Trusted HTTPS: mutually-authenticated TLS with client validation.
    TrustedHttps,
}

impl SecurityMode {
    pub fn as_str(self) -> &'static str {
        match self {
            SecurityMode::Http => "HTTP",
            SecurityMode::Https => "HTTPS",
            SecurityMode::TrustedHttps => "TRUSTED_HTTPS",
        }
    }
}

/// Stream upgrade performing the server-side TLS handshake.
pub struct TlsUpgrade {
    pub identity: Arc<dyn IdentitySigner>,
    /// Some → mutual auth (trusted HTTPS); None → server-auth only.
    pub client_validator: Option<ClientValidator>,
    pub clock: SimClock,
    /// Where each handshake's duration and outcome are recorded
    /// (`vnfguard_tls_*`); a disabled bundle records nothing.
    pub telemetry: Telemetry,
}

impl StreamUpgrade for TlsUpgrade {
    type Upgraded = TlsStream<Duplex>;

    fn upgrade(&self, raw: Duplex) -> Result<(Self::Upgraded, PeerIdentity), NetError> {
        let mut config = ServerConfig::new(self.identity.clone(), self.clock.now())
            .with_telemetry(&self.telemetry);
        if let Some(validator) = &self.client_validator {
            config = config.require_client_auth(validator.clone());
        }
        let mut rng = SystemEntropy;
        let (stream, info) = server_handshake(raw, &config, &mut rng)
            .map_err(|e| NetError::Protocol(format!("TLS handshake: {e}")))?;
        let identity = PeerIdentity {
            common_name: info
                .peer_certificate
                .as_ref()
                .map(|c| c.subject_cn().to_string()),
            cert_serial: info.peer_certificate.as_ref().map(|c| c.serial()),
        };
        Ok((stream, identity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_match_floodlight_vocabulary() {
        assert_eq!(SecurityMode::Http.as_str(), "HTTP");
        assert_eq!(SecurityMode::Https.as_str(), "HTTPS");
        assert_eq!(SecurityMode::TrustedHttps.as_str(), "TRUSTED_HTTPS");
    }
}
