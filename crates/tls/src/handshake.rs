//! The handshake state machines.

use crate::keyschedule::{traffic_keys, KeySchedule, Transcript};
use crate::messages::Handshake;
use crate::record::{
    read_plaintext, read_protected, write_plaintext, write_protected, SealState, INNER_HANDSHAKE,
};
use crate::signer::{certificate_verify_payload, IdentitySigner};
use crate::stream::TlsStream;
use crate::validate::ClientValidator;
use crate::{CipherSuite, TlsError};
use std::io::{Read, Write};
use std::sync::Arc;
use vnfguard_crypto::drbg::SecureRandom;
use vnfguard_crypto::x25519;
use vnfguard_pki::cert::KeyUsage;
use vnfguard_pki::{Certificate, TrustStore};
use vnfguard_telemetry::Telemetry;

/// Client-side configuration.
pub struct ClientConfig {
    /// Anchors used to validate the server certificate.
    pub trust: Arc<TrustStore>,
    /// If set, the server certificate's CN must equal this.
    pub expected_server_cn: Option<String>,
    /// Client identity for mutual authentication (None → anonymous client).
    pub identity: Option<Arc<dyn IdentitySigner>>,
    /// Offered cipher suites, in preference order.
    pub suites: Vec<CipherSuite>,
    /// Validation time (unix seconds).
    pub now: u64,
    /// Observability sink for handshake spans and counters (disabled by
    /// default).
    pub telemetry: Telemetry,
}

impl ClientConfig {
    pub fn new(trust: Arc<TrustStore>, now: u64) -> ClientConfig {
        ClientConfig {
            trust,
            expected_server_cn: None,
            identity: None,
            suites: vec![CipherSuite::Aes128Gcm, CipherSuite::ChaCha20Poly1305],
            now,
            telemetry: Telemetry::disabled(),
        }
    }

    pub fn with_identity(mut self, identity: Arc<dyn IdentitySigner>) -> ClientConfig {
        self.identity = Some(identity);
        self
    }

    pub fn expecting_server(mut self, cn: &str) -> ClientConfig {
        self.expected_server_cn = Some(cn.to_string());
        self
    }

    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> ClientConfig {
        self.telemetry = telemetry.clone();
        self
    }
}

/// Server-side configuration.
pub struct ServerConfig {
    pub identity: Arc<dyn IdentitySigner>,
    /// Some(validator) → mutual TLS (Floodlight's "trusted HTTPS");
    /// None → server-auth only ("HTTPS").
    pub client_auth: Option<ClientValidator>,
    pub suites: Vec<CipherSuite>,
    pub now: u64,
    /// Observability sink for handshake spans and counters (disabled by
    /// default).
    pub telemetry: Telemetry,
}

impl ServerConfig {
    pub fn new(identity: Arc<dyn IdentitySigner>, now: u64) -> ServerConfig {
        ServerConfig {
            identity,
            client_auth: None,
            suites: vec![CipherSuite::Aes128Gcm, CipherSuite::ChaCha20Poly1305],
            now,
            telemetry: Telemetry::disabled(),
        }
    }

    pub fn require_client_auth(mut self, validator: ClientValidator) -> ServerConfig {
        self.client_auth = Some(validator);
        self
    }

    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> ServerConfig {
        self.telemetry = telemetry.clone();
        self
    }
}

/// Negotiated session facts.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    pub suite: CipherSuite,
    /// The authenticated peer certificate (server cert on the client side;
    /// client cert on the server side under mutual auth).
    pub peer_certificate: Option<Certificate>,
    /// Exporter value usable for channel binding.
    pub session_binding: [u8; 32],
}

fn send_hs(
    stream: &mut impl Write,
    seal: &mut SealState,
    transcript: &mut Transcript,
    message: &Handshake,
) -> Result<(), TlsError> {
    let bytes = message.encode();
    transcript.absorb(&bytes);
    write_protected(stream, seal, INNER_HANDSHAKE, &bytes)
}

fn recv_hs(stream: &mut impl Read, seal: &mut SealState) -> Result<(Handshake, Vec<u8>), TlsError> {
    let (inner_type, bytes) = read_protected(stream, seal)?;
    if inner_type != INNER_HANDSHAKE {
        return Err(TlsError::Protocol(
            "expected handshake message during handshake".into(),
        ));
    }
    let message = Handshake::decode(&bytes)?;
    Ok((message, bytes))
}

/// Run the client side of the handshake over `stream`.
pub fn client_handshake<S: Read + Write>(
    stream: S,
    config: &ClientConfig,
    rng: &mut dyn SecureRandom,
) -> Result<(TlsStream<S>, SessionInfo), TlsError> {
    let begun = std::time::Instant::now();
    let result = client_handshake_inner(stream, config, rng);
    record_handshake(
        &config.telemetry,
        "client_handshake_micros",
        begun,
        result.is_err(),
    );
    result
}

/// Count a finished handshake and record its duration in the side's
/// `histogram`. The failure counter registers on the first failure.
fn record_handshake(
    telemetry: &Telemetry,
    histogram: &str,
    begun: std::time::Instant,
    failed: bool,
) {
    let tls = telemetry.namespace("tls");
    tls.histogram(histogram, &[])
        .record(begun.elapsed().as_micros() as u64);
    tls.counter("handshakes_total", &[]).inc();
    if failed {
        tls.counter("handshake_failures_total", &[]).inc();
    }
}

fn client_handshake_inner<S: Read + Write>(
    mut stream: S,
    config: &ClientConfig,
    rng: &mut dyn SecureRandom,
) -> Result<(TlsStream<S>, SessionInfo), TlsError> {
    let mut transcript = Transcript::new();

    // ClientHello.
    let mut random = [0u8; 32];
    rng.fill(&mut random);
    let mut kx_seed = [0u8; 32];
    rng.fill(&mut kx_seed);
    let kx = x25519::EphemeralKeyPair::from_seed(kx_seed);
    let client_hello = Handshake::ClientHello {
        random,
        kx_public: kx.public,
        suites: config.suites.clone(),
    };
    let ch_bytes = client_hello.encode();
    transcript.absorb(&ch_bytes);
    write_plaintext(&mut stream, &ch_bytes)?;

    // ServerHello.
    let sh_bytes = read_plaintext(&mut stream)?;
    transcript.absorb(&sh_bytes);
    let (server_kx, suite) = match Handshake::decode(&sh_bytes)? {
        Handshake::ServerHello {
            kx_public, suite, ..
        } => (kx_public, suite),
        other => {
            return Err(TlsError::Protocol(format!(
                "expected ServerHello, got {other:?}"
            )))
        }
    };
    if !config.suites.contains(&suite) {
        return Err(TlsError::NoSuiteOverlap);
    }

    // Key schedule.
    let shared = kx.agree(&server_kx);
    if shared == [0u8; 32] {
        return Err(TlsError::BadKeyShare);
    }
    let schedule = KeySchedule::after_hellos(&shared, &transcript.current());
    let mut write_seal = SealState::new(suite, &traffic_keys(&schedule.handshake.client, suite));
    let mut read_seal = SealState::new(suite, &traffic_keys(&schedule.handshake.server, suite));

    // Server's encrypted flight.
    let mut cert_requested = false;
    let mut server_cert: Option<Certificate> = None;
    let app_secrets;
    loop {
        let (message, bytes) = recv_hs(&mut stream, &mut read_seal)?;
        match message {
            Handshake::CertificateRequest => {
                cert_requested = true;
                transcript.absorb(&bytes);
            }
            Handshake::Certificate(cert) => {
                config
                    .trust
                    .validate(&cert, config.now, KeyUsage::SERVER_AUTH)
                    .map_err(TlsError::CertificateRejected)?;
                if let Some(expected) = &config.expected_server_cn {
                    if cert.subject_cn() != expected {
                        return Err(TlsError::AuthenticationFailed(format!(
                            "server CN {:?} != expected {:?}",
                            cert.subject_cn(),
                            expected
                        )));
                    }
                }
                server_cert = Some(cert);
                transcript.absorb(&bytes);
            }
            Handshake::CertificateVerify { signature } => {
                let cert = server_cert.as_ref().ok_or_else(|| {
                    TlsError::Protocol("CertificateVerify before Certificate".into())
                })?;
                let payload = certificate_verify_payload(true, &transcript.current());
                cert.tbs
                    .public_key
                    .verify(&payload, &signature)
                    .map_err(|_| {
                        TlsError::AuthenticationFailed("server CertificateVerify".into())
                    })?;
                transcript.absorb(&bytes);
            }
            Handshake::Finished { mac } => {
                let expected =
                    KeySchedule::finished_mac(&schedule.handshake.server, &transcript.current());
                if !vnfguard_crypto::ct_eq(&expected, &mac) {
                    return Err(TlsError::AuthenticationFailed("server Finished".into()));
                }
                if server_cert.is_none() {
                    return Err(TlsError::Protocol("server sent no certificate".into()));
                }
                transcript.absorb(&bytes);
                // Application keys are fixed at the server-Finished transcript.
                app_secrets = Some(schedule.application(&transcript.current()));
                break;
            }
            other => {
                return Err(TlsError::Protocol(format!(
                    "unexpected message in server flight: {other:?}"
                )))
            }
        }
    }
    let app = app_secrets.expect("set at Finished");

    // Client authentication flight.
    if cert_requested {
        let identity = config
            .identity
            .as_ref()
            .ok_or(TlsError::ClientCertificateRequired)?;
        let cert_msg = Handshake::Certificate(identity.certificate());
        send_hs(&mut stream, &mut write_seal, &mut transcript, &cert_msg)?;
        let payload = certificate_verify_payload(false, &transcript.current());
        let verify_msg = Handshake::CertificateVerify {
            signature: identity.sign(&payload),
        };
        send_hs(&mut stream, &mut write_seal, &mut transcript, &verify_msg)?;
    }
    let finished = Handshake::Finished {
        mac: KeySchedule::finished_mac(&schedule.handshake.client, &transcript.current()),
    };
    send_hs(&mut stream, &mut write_seal, &mut transcript, &finished)?;

    // Wait for the server's confirmation: under mutual auth this is where a
    // rejected client certificate surfaces (the server aborts instead).
    match recv_hs(&mut stream, &mut read_seal) {
        Ok((Handshake::SessionConfirm, _)) => {}
        Ok((other, _)) => {
            return Err(TlsError::Protocol(format!(
                "expected SessionConfirm, got {other:?}"
            )))
        }
        Err(TlsError::Io(_)) => {
            return Err(TlsError::AuthenticationFailed(
                "server aborted before confirming the session".into(),
            ))
        }
        Err(e) => return Err(e),
    }

    let info = SessionInfo {
        suite,
        peer_certificate: server_cert,
        session_binding: schedule
            .exporter("session binding", b"", 32)
            .try_into()
            .expect("32"),
    };
    let tls = TlsStream::new(
        stream,
        SealState::new(suite, &traffic_keys(&app.client, suite)),
        SealState::new(suite, &traffic_keys(&app.server, suite)),
    );
    Ok((tls, info))
}

/// Run the server side of the handshake over `stream`.
pub fn server_handshake<S: Read + Write>(
    stream: S,
    config: &ServerConfig,
    rng: &mut dyn SecureRandom,
) -> Result<(TlsStream<S>, SessionInfo), TlsError> {
    let begun = std::time::Instant::now();
    let result = server_handshake_inner(stream, config, rng);
    record_handshake(
        &config.telemetry,
        "server_handshake_micros",
        begun,
        result.is_err(),
    );
    result
}

fn server_handshake_inner<S: Read + Write>(
    mut stream: S,
    config: &ServerConfig,
    rng: &mut dyn SecureRandom,
) -> Result<(TlsStream<S>, SessionInfo), TlsError> {
    let mut transcript = Transcript::new();

    // ClientHello.
    let ch_bytes = read_plaintext(&mut stream)?;
    transcript.absorb(&ch_bytes);
    let (client_kx, client_suites) = match Handshake::decode(&ch_bytes)? {
        Handshake::ClientHello {
            kx_public, suites, ..
        } => (kx_public, suites),
        other => {
            return Err(TlsError::Protocol(format!(
                "expected ClientHello, got {other:?}"
            )))
        }
    };
    // Pick the server's most preferred mutually supported suite.
    let suite = *config
        .suites
        .iter()
        .find(|s| client_suites.contains(s))
        .ok_or(TlsError::NoSuiteOverlap)?;

    // ServerHello.
    let mut random = [0u8; 32];
    rng.fill(&mut random);
    let mut kx_seed = [0u8; 32];
    rng.fill(&mut kx_seed);
    let kx = x25519::EphemeralKeyPair::from_seed(kx_seed);
    let server_hello = Handshake::ServerHello {
        random,
        kx_public: kx.public,
        suite,
    };
    let sh_bytes = server_hello.encode();
    transcript.absorb(&sh_bytes);
    write_plaintext(&mut stream, &sh_bytes)?;

    let shared = kx.agree(&client_kx);
    if shared == [0u8; 32] {
        return Err(TlsError::BadKeyShare);
    }
    let schedule = KeySchedule::after_hellos(&shared, &transcript.current());
    let mut write_seal = SealState::new(suite, &traffic_keys(&schedule.handshake.server, suite));
    let mut read_seal = SealState::new(suite, &traffic_keys(&schedule.handshake.client, suite));

    // Server flight.
    if config.client_auth.is_some() {
        send_hs(
            &mut stream,
            &mut write_seal,
            &mut transcript,
            &Handshake::CertificateRequest,
        )?;
    }
    let cert_msg = Handshake::Certificate(config.identity.certificate());
    send_hs(&mut stream, &mut write_seal, &mut transcript, &cert_msg)?;
    let payload = certificate_verify_payload(true, &transcript.current());
    let verify_msg = Handshake::CertificateVerify {
        signature: config.identity.sign(&payload),
    };
    send_hs(&mut stream, &mut write_seal, &mut transcript, &verify_msg)?;
    let finished = Handshake::Finished {
        mac: KeySchedule::finished_mac(&schedule.handshake.server, &transcript.current()),
    };
    send_hs(&mut stream, &mut write_seal, &mut transcript, &finished)?;
    let app = schedule.application(&transcript.current());

    // Client flight.
    let mut client_cert: Option<Certificate> = None;
    loop {
        let (message, bytes) = recv_hs(&mut stream, &mut read_seal)?;
        match message {
            Handshake::Certificate(cert) => {
                let validator = config
                    .client_auth
                    .as_ref()
                    .ok_or_else(|| TlsError::Protocol("unsolicited client certificate".into()))?;
                validator.validate(&cert, config.now)?;
                client_cert = Some(cert);
                transcript.absorb(&bytes);
            }
            Handshake::CertificateVerify { signature } => {
                let cert = client_cert.as_ref().ok_or_else(|| {
                    TlsError::Protocol("CertificateVerify before Certificate".into())
                })?;
                let payload = certificate_verify_payload(false, &transcript.current());
                cert.tbs
                    .public_key
                    .verify(&payload, &signature)
                    .map_err(|_| {
                        TlsError::AuthenticationFailed("client CertificateVerify".into())
                    })?;
                transcript.absorb(&bytes);
            }
            Handshake::Finished { mac } => {
                if config.client_auth.is_some() && client_cert.is_none() {
                    return Err(TlsError::ClientCertificateRequired);
                }
                let expected =
                    KeySchedule::finished_mac(&schedule.handshake.client, &transcript.current());
                if !vnfguard_crypto::ct_eq(&expected, &mac) {
                    return Err(TlsError::AuthenticationFailed("client Finished".into()));
                }
                transcript.absorb(&bytes);
                break;
            }
            other => {
                return Err(TlsError::Protocol(format!(
                    "unexpected message in client flight: {other:?}"
                )))
            }
        }
    }

    // Confirm the accepted session to the client.
    send_hs(
        &mut stream,
        &mut write_seal,
        &mut transcript,
        &Handshake::SessionConfirm,
    )?;

    let info = SessionInfo {
        suite,
        peer_certificate: client_cert,
        session_binding: schedule
            .exporter("session binding", b"", 32)
            .try_into()
            .expect("32"),
    };
    let tls = TlsStream::new(
        stream,
        SealState::new(suite, &traffic_keys(&app.server, suite)),
        SealState::new(suite, &traffic_keys(&app.client, suite)),
    );
    Ok((tls, info))
}
