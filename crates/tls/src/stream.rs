//! The post-handshake protected stream.

use crate::record::{read_protected, write_protected, SealState, INNER_APPLICATION, MAX_FRAGMENT};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Decomposed session state: `(transport, send state, recv state, buffered
/// plaintext)` — see [`TlsStream::into_parts`].
pub type SessionParts<S> = (S, SealState, SealState, Vec<u8>);

/// An established TLS session: `Read`/`Write` with AEAD record protection.
pub struct TlsStream<S> {
    inner: S,
    send: SealState,
    recv: SealState,
    read_buffer: VecDeque<u8>,
    records_sent: u64,
    records_received: u64,
}

impl<S: Read + Write> TlsStream<S> {
    pub(crate) fn new(inner: S, send: SealState, recv: SealState) -> TlsStream<S> {
        TlsStream {
            inner,
            send,
            recv,
            read_buffer: VecDeque::new(),
            records_sent: 0,
            records_received: 0,
        }
    }

    pub fn records_sent(&self) -> u64 {
        self.records_sent
    }

    pub fn records_received(&self) -> u64 {
        self.records_received
    }

    /// Access the underlying transport (e.g. for byte accounting).
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Decompose into transport and directional record states.
    ///
    /// This exists for hosts that must persist a session across execution
    /// boundaries while swapping the transport — the SGX credential enclave
    /// keeps the [`SealState`]s (the session keys) inside enclave memory
    /// between ecalls and reattaches an ocall-backed transport on each
    /// entry. Buffered undelivered plaintext is returned as the final
    /// element and must be replayed into the successor.
    pub fn into_parts(self) -> SessionParts<S> {
        (
            self.inner,
            self.send,
            self.recv,
            self.read_buffer.into_iter().collect(),
        )
    }

    /// Reassemble a stream from parts produced by [`TlsStream::into_parts`]
    /// (possibly with a different transport instance).
    pub fn from_parts(
        inner: S,
        send: SealState,
        recv: SealState,
        buffered: Vec<u8>,
    ) -> TlsStream<S> {
        TlsStream {
            inner,
            send,
            recv,
            read_buffer: buffered.into(),
            records_sent: 0,
            records_received: 0,
        }
    }
}

impl<S: Read + Write> Read for TlsStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.read_buffer.is_empty() {
            match read_protected(&mut self.inner, &mut self.recv) {
                Ok((inner_type, data)) => {
                    if inner_type != INNER_APPLICATION {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "unexpected non-application record",
                        ));
                    }
                    self.records_received += 1;
                    self.read_buffer.extend(data);
                }
                Err(crate::TlsError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                    return Ok(0); // clean transport EOF
                }
                Err(crate::TlsError::Io(e)) => return Err(e),
                Err(other) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        other.to_string(),
                    ))
                }
            }
        }
        let n = buf.len().min(self.read_buffer.len());
        for slot in buf.iter_mut().take(n) {
            *slot = self.read_buffer.pop_front().expect("non-empty");
        }
        Ok(n)
    }
}

impl<S: Read + Write> Write for TlsStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for chunk in buf.chunks(MAX_FRAGMENT) {
            write_protected(&mut self.inner, &mut self.send, INNER_APPLICATION, chunk)
                .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()))?;
            self.records_sent += 1;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S> std::fmt::Debug for TlsStream<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Keys and buffered plaintext are never printed.
        f.debug_struct("TlsStream")
            .field("records_sent", &self.records_sent)
            .field("records_received", &self.records_received)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{client_handshake, server_handshake, ClientConfig, ServerConfig};
    use crate::signer::LocalSigner;
    use crate::validate::ClientValidator;
    use crate::{CipherSuite, TlsError};
    use std::sync::Arc;
    use vnfguard_crypto::drbg::HmacDrbg;
    use vnfguard_crypto::ed25519::SigningKey;
    use vnfguard_net::stream::{Duplex, TapHandle};
    use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
    use vnfguard_pki::cert::{DistinguishedName, Validity};
    use vnfguard_pki::crl::RevocationReason;
    use vnfguard_pki::{Certificate, KeyStore, TrustStore};

    struct TestPki {
        ca: CertificateAuthority,
        server_signer: Arc<LocalSigner>,
        client_signer: Arc<LocalSigner>,
        client_cert: Certificate,
    }

    fn pki() -> TestPki {
        let mut rng = HmacDrbg::new(b"tls tests");
        let mut ca = CertificateAuthority::new(
            DistinguishedName::new("vm-ca"),
            Validity::new(0, 1_000_000),
            &mut rng,
        );
        let server_key = SigningKey::from_seed(&[10; 32]);
        let server_cert = ca.issue(
            DistinguishedName::new("controller"),
            server_key.public_key(),
            &IssueProfile::server(),
            0,
        );
        let client_key = SigningKey::from_seed(&[11; 32]);
        let client_cert = ca.issue(
            DistinguishedName::new("vnf-1"),
            client_key.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        TestPki {
            server_signer: Arc::new(LocalSigner::new(server_key, server_cert)),
            client_signer: Arc::new(LocalSigner::new(client_key, client_cert.clone())),
            client_cert,
            ca,
        }
    }

    fn trust(ca: &CertificateAuthority) -> Arc<TrustStore> {
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        Arc::new(store)
    }

    fn ca_validator(ca: &CertificateAuthority) -> ClientValidator {
        let mut store = TrustStore::new();
        store.add_anchor(ca.certificate().clone()).unwrap();
        ClientValidator::ca(store)
    }

    type HandshakeResult = Result<(TlsStream<Duplex>, crate::handshake::SessionInfo), TlsError>;

    /// Run client and server handshakes concurrently over a pipe.
    fn run_handshake(
        client_config: ClientConfig,
        server_config: ServerConfig,
    ) -> (HandshakeResult, HandshakeResult, TapHandle) {
        let tap = TapHandle::new();
        let (client_end, server_end) = Duplex::pair(std::time::Duration::ZERO, Some(&tap));
        let server_thread = std::thread::spawn(move || {
            let mut rng = HmacDrbg::new(b"server rng");
            server_handshake(server_end, &server_config, &mut rng)
        });
        let mut rng = HmacDrbg::new(b"client rng");
        let client_result = client_handshake(client_end, &client_config, &mut rng);
        let server_result = server_thread.join().expect("server thread");
        (client_result, server_result, tap)
    }

    #[test]
    fn server_auth_handshake_and_data() {
        let pki = pki();
        let (client, server, tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100).expecting_server("controller"),
            ServerConfig::new(pki.server_signer.clone(), 100),
        );
        let (mut client, client_info) = client.unwrap();
        let (mut server, server_info) = server.unwrap();
        assert_eq!(client_info.suite, server_info.suite);
        assert_eq!(
            client_info
                .peer_certificate
                .as_ref()
                .map(|c| c.subject_cn()),
            Some("controller")
        );
        assert_eq!(server_info.peer_certificate, None);
        // Channel binding agrees on both ends.
        assert_eq!(client_info.session_binding, server_info.session_binding);

        client.write_all(b"GET /secret-credential").unwrap();
        let mut buf = [0u8; 22];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"GET /secret-credential");
        server.write_all(b"response body").unwrap();
        let mut buf = [0u8; 13];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"response body");

        // The wire never saw the plaintext.
        assert!(!tap.contains(b"secret-credential"));
        assert!(!tap.contains(b"response body"));
    }

    #[test]
    fn handshake_telemetry_records_timings_and_counters() {
        use vnfguard_telemetry::Telemetry;
        let pki = pki();
        // Separate bundles per side, so each side's series are its own.
        let client_tele = Telemetry::new();
        let server_tele = Telemetry::new();
        let (client, server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100)
                .expecting_server("controller")
                .with_telemetry(&client_tele),
            ServerConfig::new(pki.server_signer.clone(), 100).with_telemetry(&server_tele),
        );
        client.unwrap();
        server.unwrap();
        assert_eq!(
            client_tele
                .metrics()
                .counter_value("vnfguard_tls_handshakes_total"),
            Some(1)
        );
        assert_eq!(
            client_tele
                .metrics()
                .counter_value("vnfguard_tls_handshake_failures_total"),
            None
        );
        let snapshot = client_tele
            .metrics()
            .histogram_snapshot("vnfguard_tls_client_handshake_micros")
            .unwrap();
        assert_eq!(snapshot.count(), 1);
        let snapshot = server_tele
            .metrics()
            .histogram_snapshot("vnfguard_tls_server_handshake_micros")
            .unwrap();
        assert_eq!(snapshot.count(), 1);
    }

    #[test]
    fn mutual_auth_handshake() {
        let pki = pki();
        let (client, server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100).with_identity(pki.client_signer.clone()),
            ServerConfig::new(pki.server_signer.clone(), 100)
                .require_client_auth(ca_validator(&pki.ca)),
        );
        let (_c, _ci) = client.unwrap();
        let (_s, server_info) = server.unwrap();
        assert_eq!(
            server_info
                .peer_certificate
                .map(|c| c.subject_cn().to_string()),
            Some("vnf-1".to_string())
        );
    }

    #[test]
    fn client_without_identity_rejected_under_mutual_auth() {
        let pki = pki();
        let (client, server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100),
            ServerConfig::new(pki.server_signer.clone(), 100)
                .require_client_auth(ca_validator(&pki.ca)),
        );
        assert!(matches!(client, Err(TlsError::ClientCertificateRequired)));
        assert!(server.is_err());
    }

    #[test]
    fn untrusted_server_rejected() {
        let pki = pki();
        // Client trusts a different CA.
        let mut rng = HmacDrbg::new(b"other ca");
        let other_ca = CertificateAuthority::new(
            DistinguishedName::new("rogue"),
            Validity::new(0, 1_000_000),
            &mut rng,
        );
        let (client, _server, _tap) = run_handshake(
            ClientConfig::new(trust(&other_ca), 100),
            ServerConfig::new(pki.server_signer.clone(), 100),
        );
        assert!(matches!(client, Err(TlsError::CertificateRejected(_))));
    }

    #[test]
    fn wrong_server_name_rejected() {
        let pki = pki();
        let (client, _server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100).expecting_server("other-controller"),
            ServerConfig::new(pki.server_signer.clone(), 100),
        );
        assert!(matches!(client, Err(TlsError::AuthenticationFailed(_))));
    }

    #[test]
    fn revoked_client_rejected() {
        let mut pki = pki();
        let serial = pki.client_cert.serial();
        pki.ca.revoke(serial, RevocationReason::KeyCompromise, 50);
        let validator = ca_validator(&pki.ca);
        validator
            .trust_store()
            .unwrap()
            .write()
            .install_crl(pki.ca.current_crl(60, 1000))
            .unwrap();
        let (client, server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100).with_identity(pki.client_signer.clone()),
            ServerConfig::new(pki.server_signer.clone(), 100).require_client_auth(validator),
        );
        assert!(matches!(server, Err(TlsError::CertificateRejected(_))));
        // The client may complete its half of the handshake before the
        // server aborts (it sends its flight without waiting) — but the
        // session is unusable: the first read sees EOF or an error.
        if let Ok((mut stream, _)) = client {
            let mut buf = [0u8; 1];
            match stream.read(&mut buf) {
                Ok(0) => {} // clean EOF from the aborted server
                Ok(_) => panic!("revoked client received data"),
                Err(_) => {} // transport error is equally a rejection
            }
        }
    }

    #[test]
    fn keystore_validation_mode() {
        let pki = pki();
        let mut keystore = KeyStore::new();
        keystore.set("vnf-1", pki.client_cert.clone());
        let (client, server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100).with_identity(pki.client_signer.clone()),
            ServerConfig::new(pki.server_signer.clone(), 100)
                .require_client_auth(ClientValidator::keystore(keystore)),
        );
        client.unwrap();
        server.unwrap();

        // An issued-but-not-enrolled certificate is refused in this model.
        let (client, server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100).with_identity(pki.client_signer.clone()),
            ServerConfig::new(pki.server_signer.clone(), 100)
                .require_client_auth(ClientValidator::keystore(KeyStore::new())),
        );
        assert!(client.is_err());
        assert!(matches!(server, Err(TlsError::CertificateRejected(_))));
    }

    #[test]
    fn suite_negotiation() {
        let pki = pki();
        let mut client_config = ClientConfig::new(trust(&pki.ca), 100);
        client_config.suites = vec![CipherSuite::ChaCha20Poly1305];
        let (client, server, _tap) = run_handshake(
            client_config,
            ServerConfig::new(pki.server_signer.clone(), 100),
        );
        let (_c, info) = client.unwrap();
        assert_eq!(info.suite, CipherSuite::ChaCha20Poly1305);
        server.unwrap();
    }

    #[test]
    fn no_suite_overlap_fails() {
        let pki = pki();
        let mut client_config = ClientConfig::new(trust(&pki.ca), 100);
        client_config.suites = vec![CipherSuite::ChaCha20Poly1305];
        let mut server_config = ServerConfig::new(pki.server_signer.clone(), 100);
        server_config.suites = vec![CipherSuite::Aes128Gcm];
        let (client, server, _tap) = run_handshake(client_config, server_config);
        assert!(matches!(server, Err(TlsError::NoSuiteOverlap)));
        assert!(client.is_err());
    }

    #[test]
    fn expired_certificates_rejected() {
        let pki = pki();
        // Validate far in the future: the server cert (365d) has expired.
        let far_future = 400 * 24 * 3600;
        let (client, _server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), far_future),
            ServerConfig::new(pki.server_signer.clone(), far_future),
        );
        assert!(matches!(client, Err(TlsError::CertificateRejected(_))));
    }

    #[test]
    fn large_transfers_fragment_correctly() {
        let pki = pki();
        let (client, server, _tap) = run_handshake(
            ClientConfig::new(trust(&pki.ca), 100),
            ServerConfig::new(pki.server_signer.clone(), 100),
        );
        let (mut client, _) = client.unwrap();
        let (mut server, _) = server.unwrap();
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let expected = payload.clone();
        let writer = std::thread::spawn(move || {
            client.write_all(&payload).unwrap();
            client
        });
        let mut received = vec![0u8; expected.len()];
        server.read_exact(&mut received).unwrap();
        assert_eq!(received, expected);
        let client = writer.join().unwrap();
        assert!(client.records_sent() >= 7, "expected fragmentation");
    }
}
