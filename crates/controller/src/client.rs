//! The north-bound REST client used by the Verification Manager, operator
//! tooling and (non-enclave) VNFs.
//!
//! Enclave-guarded VNFs do *not* use this client directly: their TLS
//! session lives inside the credential enclave (`vnfguard-vnf`). This
//! client exists for the plain/HTTPS modes and as the baseline in E4.

use crate::clock::SimClock;
use crate::flowspec::FlowSpec;
use crate::ControllerError;
use std::sync::Arc;
use vnfguard_crypto::drbg::SystemEntropy;
use vnfguard_encoding::Json;
use vnfguard_net::fabric::Network;
use vnfguard_net::http::{roundtrip, Request, Response, Status};
use vnfguard_net::stream::Duplex;
use vnfguard_pki::TrustStore;
use vnfguard_tls::handshake::{client_handshake, ClientConfig};
use vnfguard_tls::signer::IdentitySigner;
use vnfguard_tls::stream::TlsStream;

enum Transport {
    Plain(Duplex),
    Tls(Box<TlsStream<Duplex>>),
}

// Both transports satisfy Read + Write; dispatch happens per-request.

/// A connected north-bound API client (persistent connection).
pub struct NorthboundClient {
    transport: Transport,
}

impl NorthboundClient {
    /// Connect without any transport security (controller HTTP mode).
    pub fn connect_plain(
        network: &Network,
        address: &str,
    ) -> Result<NorthboundClient, ControllerError> {
        let stream = network.connect(address)?;
        Ok(NorthboundClient {
            transport: Transport::Plain(stream),
        })
    }

    /// Connect over TLS (controller HTTPS / trusted HTTPS modes).
    ///
    /// `identity` provides the client certificate under trusted HTTPS; pass
    /// `None` against plain-HTTPS controllers.
    pub fn connect_tls(
        network: &Network,
        address: &str,
        trust: Arc<TrustStore>,
        identity: Option<Arc<dyn IdentitySigner>>,
        expected_server_cn: Option<&str>,
        now: u64,
    ) -> Result<NorthboundClient, ControllerError> {
        let raw = network.connect(address)?;
        let mut config = ClientConfig::new(trust, now);
        if let Some(identity) = identity {
            config = config.with_identity(identity);
        }
        if let Some(cn) = expected_server_cn {
            config = config.expecting_server(cn);
        }
        let mut rng = SystemEntropy;
        let (stream, _info) = client_handshake(raw, &config, &mut rng)?;
        Ok(NorthboundClient {
            transport: Transport::Tls(Box::new(stream)),
        })
    }

    /// Raw request/response exchange. The request carries the calling
    /// thread's current trace context unless it sets its own.
    pub fn request(&mut self, request: &Request) -> Result<Response, ControllerError> {
        match &mut self.transport {
            Transport::Plain(stream) => Ok(roundtrip(stream, request)?),
            Transport::Tls(stream) => Ok(roundtrip(stream.as_mut(), request)?),
        }
    }

    /// Like [`request`](Self::request), but honors overload backpressure: a
    /// 503 carrying a `retry-after` hint waits the hinted seconds out on the
    /// sim clock and retries, up to `max_attempts` total tries. The last
    /// shed response is returned if every attempt was refused; responses
    /// without a retry hint (including other errors) return immediately.
    pub fn request_with_backpressure(
        &mut self,
        request: &Request,
        clock: &SimClock,
        max_attempts: u32,
    ) -> Result<Response, ControllerError> {
        let attempts = max_attempts.max(1);
        let mut last = None;
        for _ in 0..attempts {
            let response = self.request(request)?;
            if response.status == Status::ServiceUnavailable {
                if let Some(hint) = response.retry_after_secs() {
                    clock.advance(hint.max(1));
                    last = Some(response);
                    continue;
                }
            }
            return Ok(response);
        }
        Ok(last.expect("at least one attempt ran"))
    }

    fn expect_success(response: Response) -> Result<Json, ControllerError> {
        if !response.status.is_success() {
            let message = response
                .parse_json()
                .ok()
                .and_then(|d| d.get("error").and_then(Json::as_str).map(String::from))
                .unwrap_or_default();
            return Err(ControllerError::Api {
                status: response.status.code(),
                message,
            });
        }
        Ok(response.parse_json().unwrap_or(Json::Null))
    }

    /// GET the controller summary.
    pub fn summary(&mut self) -> Result<Json, ControllerError> {
        let response = self.request(&Request::get("/wm/core/controller/summary/json"))?;
        Self::expect_success(response)
    }

    /// Register a switch (simulation southbound stand-in).
    pub fn register_switch(&mut self, dpid: u64, ports: &[u16]) -> Result<(), ControllerError> {
        let body = Json::object()
            .with("dpid", format!("{dpid:016x}"))
            .with("ports", ports.iter().map(|&p| p as i64).collect::<Json>());
        let response = self.request(&Request::post("/wm/core/switch/register").with_json(&body))?;
        Self::expect_success(response).map(|_| ())
    }

    /// Push a static flow.
    pub fn push_flow(&mut self, spec: &FlowSpec) -> Result<(), ControllerError> {
        let response =
            self.request(&Request::post("/wm/staticflowpusher/json").with_json(&spec.to_json()))?;
        Self::expect_success(response).map(|_| ())
    }

    /// Delete a static flow by name.
    pub fn delete_flow(&mut self, name: &str) -> Result<(), ControllerError> {
        let response = self.request(
            &Request::delete("/wm/staticflowpusher/json")
                .with_json(&Json::object().with("name", name)),
        )?;
        Self::expect_success(response).map(|_| ())
    }

    /// List flows installed on a switch.
    pub fn list_flows(&mut self, dpid: u64) -> Result<Vec<FlowSpec>, ControllerError> {
        let response = self.request(&Request::get(&format!(
            "/wm/staticflowpusher/list/{dpid:016x}/json"
        )))?;
        let doc = Self::expect_success(response)?;
        let mut flows = Vec::new();
        if let Some(items) = doc.as_array() {
            for item in items {
                flows.push(
                    FlowSpec::from_json(item).map_err(|msg| ControllerError::Api {
                        status: 200,
                        message: msg,
                    })?,
                );
            }
        }
        Ok(flows)
    }

    /// Fetch the audit log.
    pub fn audit(&mut self) -> Result<Json, ControllerError> {
        let response = self.request(&Request::get("/wm/core/audit/json"))?;
        Self::expect_success(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, ControllerConfig};
    use crate::security::SecurityMode;
    use crate::SimClock;
    use vnfguard_crypto::drbg::HmacDrbg;
    use vnfguard_crypto::ed25519::SigningKey;
    use vnfguard_dataplane::flow::{FlowAction, FlowMatch};
    use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
    use vnfguard_pki::cert::{DistinguishedName, Validity};
    use vnfguard_tls::signer::LocalSigner;
    use vnfguard_tls::validate::ClientValidator;

    struct Setup {
        network: Network,
        controller: Controller,
        trust: Arc<TrustStore>,
        client_identity: Arc<LocalSigner>,
    }

    fn flow(name: &str, dpid: u64) -> FlowSpec {
        FlowSpec {
            name: name.into(),
            dpid,
            priority: 5,
            matcher: FlowMatch::any(),
            actions: vec![FlowAction::Output(1)],
        }
    }

    fn setup(mode: SecurityMode) -> Setup {
        let mut rng = HmacDrbg::new(b"client tests");
        let mut ca = CertificateAuthority::new(
            DistinguishedName::new("vm-ca"),
            Validity::new(0, u64::MAX / 2),
            &mut rng,
        );
        let clock = SimClock::at(1000);
        let server_key = SigningKey::from_seed(&[20; 32]);
        let server_cert = ca.issue(
            DistinguishedName::new("controller"),
            server_key.public_key(),
            &IssueProfile::server(),
            0,
        );
        let server_identity = Arc::new(LocalSigner::new(server_key, server_cert));
        let client_key = SigningKey::from_seed(&[21; 32]);
        let client_cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            client_key.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        let client_identity = Arc::new(LocalSigner::new(client_key, client_cert));

        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone()).unwrap();
        let mut validator_store = TrustStore::new();
        validator_store
            .add_anchor(ca.certificate().clone())
            .unwrap();

        let network = Network::new();
        let config = match mode {
            SecurityMode::Http => ControllerConfig::http("controller:8080"),
            SecurityMode::Https => {
                ControllerConfig::https("controller:8080", server_identity.clone())
            }
            SecurityMode::TrustedHttps => ControllerConfig::trusted_https(
                "controller:8080",
                server_identity.clone(),
                ClientValidator::ca(validator_store),
            ),
        }
        .with_clock(clock);
        let controller = Controller::start(&network, config).unwrap();
        Setup {
            network,
            controller,
            trust: Arc::new(trust),
            client_identity,
        }
    }

    #[test]
    fn plain_http_flow_management() {
        let s = setup(SecurityMode::Http);
        let mut client = NorthboundClient::connect_plain(&s.network, "controller:8080").unwrap();
        client.register_switch(0xab, &[1, 2]).unwrap();
        client.push_flow(&flow("f1", 0xab)).unwrap();
        let flows = client.list_flows(0xab).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].name, "f1");
        client.delete_flow("f1").unwrap();
        assert!(client.list_flows(0xab).unwrap().is_empty());
        let summary = client.summary().unwrap();
        assert_eq!(summary.get("# Switches").and_then(Json::as_i64), Some(1));
        s.controller.stop();
    }

    #[test]
    fn https_mode_works_and_verifies_server() {
        let s = setup(SecurityMode::Https);
        let mut client = NorthboundClient::connect_tls(
            &s.network,
            "controller:8080",
            s.trust.clone(),
            None,
            Some("controller"),
            1000,
        )
        .unwrap();
        client.register_switch(1, &[1]).unwrap();
        // Wrong expected CN is refused during the handshake.
        let err = NorthboundClient::connect_tls(
            &s.network,
            "controller:8080",
            s.trust.clone(),
            None,
            Some("evil-controller"),
            1000,
        );
        assert!(err.is_err());
        s.controller.stop();
    }

    #[test]
    fn trusted_https_requires_client_certificate() {
        let s = setup(SecurityMode::TrustedHttps);
        // Without a client identity the handshake fails.
        let err = NorthboundClient::connect_tls(
            &s.network,
            "controller:8080",
            s.trust.clone(),
            None,
            Some("controller"),
            1000,
        );
        assert!(err.is_err());
        // With the CA-issued identity it succeeds, and the audit log shows
        // the authenticated CN.
        let mut client = NorthboundClient::connect_tls(
            &s.network,
            "controller:8080",
            s.trust.clone(),
            Some(s.client_identity.clone()),
            Some("controller"),
            1000,
        )
        .unwrap();
        client.register_switch(2, &[1]).unwrap();
        client.push_flow(&flow("f2", 2)).unwrap();
        let audit = client.audit().unwrap();
        let entries = audit.as_array().unwrap();
        assert!(entries
            .iter()
            .any(|e| e.get("peer").and_then(Json::as_str) == Some("vnf-1")
                && e.get("action").and_then(Json::as_str) == Some("push_flow")));
        assert!(s.controller.handshake_failures() >= 1);
        s.controller.stop();
    }

    #[test]
    fn spoofed_peer_header_is_audited_as_anonymous() {
        for mode in [SecurityMode::Http, SecurityMode::Https] {
            let s = setup(mode);
            let mut client = match mode {
                SecurityMode::Http => {
                    NorthboundClient::connect_plain(&s.network, "controller:8080").unwrap()
                }
                _ => NorthboundClient::connect_tls(
                    &s.network,
                    "controller:8080",
                    s.trust.clone(),
                    None,
                    Some("controller"),
                    1000,
                )
                .unwrap(),
            };
            client.register_switch(3, &[1]).unwrap();
            let spoofed = Request::post("/wm/staticflowpusher/json")
                .with_header("X-Peer-CN", "vnf-7")
                .with_json(&flow("f3", 3).to_json());
            assert!(client.request(&spoofed).unwrap().status.is_success());
            let audit = client.audit().unwrap();
            let push = audit
                .as_array()
                .unwrap()
                .iter()
                .find(|e| e.get("action").and_then(Json::as_str) == Some("push_flow"))
                .expect("push audited");
            assert_eq!(
                push.get("peer").and_then(Json::as_str),
                Some("anonymous"),
                "{} mode trusted a client-sent identity header",
                mode.as_str()
            );
            s.controller.stop();
        }
    }

    #[test]
    fn backpressure_waits_out_the_retry_hint() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use vnfguard_net::rest::{ApiError, Router};
        use vnfguard_net::server::{serve, PlainUpgrade};

        let network = Network::new();
        let clock = SimClock::at(5000);
        let sheds = Arc::new(AtomicU32::new(2));
        let mut router = Router::new();
        {
            let sheds = sheds.clone();
            router.get_api("/busy", move |_, _| {
                if sheds.fetch_sub(1, Ordering::SeqCst) > 0 {
                    return Err(ApiError::overloaded("queue full", 3));
                }
                Ok(Response::json(Status::Ok, &Json::object().with("ok", true)))
            });
        }
        let listener = network.listen("svc:80").unwrap();
        let handle = serve(listener, PlainUpgrade, router);

        let mut client = NorthboundClient::connect_plain(&network, "svc:80").unwrap();
        let response = client
            .request_with_backpressure(&Request::get("/busy"), &clock, 5)
            .unwrap();
        assert_eq!(response.status, Status::Ok);
        // Two sheds, each advancing the hinted 3 seconds before retrying.
        assert_eq!(clock.now(), 5006);

        // With the budget exhausted, the shed response itself comes back.
        sheds.store(10, Ordering::SeqCst);
        let mut client = NorthboundClient::connect_plain(&network, "svc:80").unwrap();
        let refused = client
            .request_with_backpressure(&Request::get("/busy"), &clock, 2)
            .unwrap();
        assert_eq!(refused.status, Status::ServiceUnavailable);
        assert_eq!(refused.retry_after_secs(), Some(3));
        handle.stop();
    }

    #[test]
    fn api_errors_are_typed() {
        let s = setup(SecurityMode::Http);
        let mut client = NorthboundClient::connect_plain(&s.network, "controller:8080").unwrap();
        let err = client.push_flow(&flow("f", 0x99)).unwrap_err();
        match err {
            ControllerError::Api { status, .. } => assert_eq!(status, 404),
            other => panic!("expected Api error, got {other}"),
        }
        s.controller.stop();
    }
}
