//! The credential enclave: VNF credentials and TLS sessions in enclave
//! memory, reachable only through a fixed ecall surface.

use crate::VnfError;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Arc;
use vnfguard_crypto::drbg::{HmacDrbg, SecureRandom};
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_crypto::gcm::AesGcm;
use vnfguard_crypto::hkdf;
use vnfguard_crypto::sha2::sha256;
use vnfguard_crypto::x25519::EphemeralKeyPair;
use vnfguard_encoding::{TlvReader, TlvWriter};
use vnfguard_pki::{Certificate, TrustStore};
use vnfguard_sgx::enclave::{EnclaveCode, EnclaveContext};
use vnfguard_sgx::measurement::Measurement;
use vnfguard_sgx::report::TargetInfo;
use vnfguard_sgx::seal::SealPolicy;
use vnfguard_sgx::SgxError;
use vnfguard_tls::handshake::{client_handshake, ClientConfig};
use vnfguard_tls::record::SealState;
use vnfguard_tls::signer::LocalSigner;
use vnfguard_tls::stream::TlsStream;

/// Ecall opcodes of the credential enclave.
pub mod op {
    /// → provisioning X25519 public key (32 bytes).
    pub const GET_PROVISION_KEY: u16 = 1;
    /// TLV{target mrenclave, nonce} → local report bound to the key.
    pub const ATTEST: u16 = 2;
    /// wrapped bundle → ().
    pub const PROVISION: u16 = 3;
    /// → sealed credential blob (MRENCLAVE policy).
    pub const EXPORT_SEALED: u16 = 4;
    /// sealed blob → ().
    pub const IMPORT_SEALED: u16 = 5;
    /// TLV{addr, now} → session id (4 bytes BE). Runs the TLS handshake.
    pub const OPEN_SESSION: u16 = 6;
    /// TLV{session, raw HTTP request bytes} → raw HTTP response bytes.
    pub const SESSION_REQUEST: u16 = 7;
    /// session id → ().
    pub const CLOSE_SESSION: u16 = 8;
    /// → TLV{provisioned, subject, serial}.
    pub const STATUS: u16 = 9;
    /// → (). Destroys credentials and sessions (local revocation).
    pub const WIPE: u16 = 10;
}

/// Ocall opcodes the enclave issues for network I/O.
pub mod ocall {
    /// addr utf-8 → connection id (4 bytes BE).
    pub const NET_CONNECT: u16 = 100;
    /// TLV{conn, bytes} → ().
    pub const NET_SEND: u16 = 101;
    /// TLV{conn, max} → bytes (empty = EOF).
    pub const NET_RECV: u16 = 102;
    /// conn id → ().
    pub const NET_CLOSE: u16 = 103;
}

const TAG_TARGET: u8 = 0x01;
const TAG_NONCE32: u8 = 0x02;
const TAG_EPH_PUB: u8 = 0x03;
const TAG_GCM_NONCE: u8 = 0x04;
const TAG_CIPHERTEXT: u8 = 0x05;
const TAG_KEY_SEED: u8 = 0x10;
const TAG_CERT: u8 = 0x11;
const TAG_CA_CERT: u8 = 0x12;
const TAG_SERVER_CN: u8 = 0x13;
const TAG_ADDR: u8 = 0x20;
const TAG_NOW: u8 = 0x21;
const TAG_SESSION: u8 = 0x22;
const TAG_REQUEST: u8 = 0x23;
const TAG_CONN: u8 = 0x24;
const TAG_BYTES: u8 = 0x25;
const TAG_MAX: u8 = 0x26;
const TAG_PROVISIONED: u8 = 0x30;
const TAG_SUBJECT: u8 = 0x31;
const TAG_SERIAL: u8 = 0x32;
const TAG_CA_PREVIOUS: u8 = 0x33;

/// The plaintext credentials the Verification Manager provisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvisionBundle {
    /// Ed25519 seed of the client key (generated by the VM, paper step 5).
    pub key_seed: [u8; 32],
    /// The CA-signed client certificate for that key.
    pub certificate: Certificate,
    /// The VM's CA certificate — the enclave's trust anchor for the
    /// controller's server certificate.
    pub ca_certificate: Certificate,
    /// Expected controller CN.
    pub server_cn: String,
    /// Additional trust anchors during a CA-rotation drain window: the
    /// previous roots, so the enclave keeps validating a controller whose
    /// server certificate still chains to the outgoing key.
    pub ca_previous: Vec<Certificate>,
}

impl ProvisionBundle {
    fn encode(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.bytes(TAG_KEY_SEED, &self.key_seed)
            .bytes(TAG_CERT, &self.certificate.encode())
            .bytes(TAG_CA_CERT, &self.ca_certificate.encode())
            .string(TAG_SERVER_CN, &self.server_cn);
        for previous in &self.ca_previous {
            w.bytes(TAG_CA_PREVIOUS, &previous.encode());
        }
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<ProvisionBundle, SgxError> {
        let mut r = TlvReader::new(bytes);
        let key_seed = r.expect_array::<32>(TAG_KEY_SEED)?;
        let certificate = Certificate::decode(r.expect(TAG_CERT)?)
            .map_err(|e| SgxError::Encoding(e.to_string()))?;
        let ca_certificate = Certificate::decode(r.expect(TAG_CA_CERT)?)
            .map_err(|e| SgxError::Encoding(e.to_string()))?;
        let server_cn = r.expect_string(TAG_SERVER_CN)?;
        let mut ca_previous = Vec::new();
        while !r.is_empty() {
            let (tag, value) = r.next()?;
            if tag != TAG_CA_PREVIOUS {
                return Err(SgxError::Encoding(format!(
                    "unexpected trailing tag {tag:#04x} in credential bundle"
                )));
            }
            ca_previous
                .push(Certificate::decode(value).map_err(|e| SgxError::Encoding(e.to_string()))?);
        }
        Ok(ProvisionBundle {
            key_seed,
            certificate,
            ca_certificate,
            server_cn,
            ca_previous,
        })
    }
}

fn wrap_key(shared: &[u8; 32], eph_pub: &[u8; 32], prov_pub: &[u8; 32]) -> [u8; 32] {
    let prk = hkdf::extract(b"vnfguard provisioning", shared);
    let mut info = Vec::with_capacity(64);
    info.extend_from_slice(eph_pub);
    info.extend_from_slice(prov_pub);
    hkdf::expand(&prk, &info, 32).try_into().expect("32")
}

/// The randomness one [`wrap_credentials`] call consumes: the ephemeral
/// X25519 seed and the AES-GCM nonce.
pub struct WrapRandomness {
    seed: [u8; 32],
    nonce: [u8; 12],
}

impl WrapRandomness {
    /// Draw the seed, then the nonce, from `rng`.
    pub fn draw(rng: &mut dyn SecureRandom) -> WrapRandomness {
        let mut seed = [0u8; 32];
        rng.fill(&mut seed);
        let mut nonce = [0u8; 12];
        rng.fill(&mut nonce);
        WrapRandomness { seed, nonce }
    }
}

/// VM-side: wrap a credential bundle to an attested enclave's provisioning
/// public key, with randomness drawn beforehand. Only the holder of the
/// matching private key — which never leaves the enclave — can unwrap it.
pub fn wrap_credentials(
    randomness: &WrapRandomness,
    enclave_provisioning_key: &[u8; 32],
    bundle: &ProvisionBundle,
) -> Vec<u8> {
    let eph = EphemeralKeyPair::from_seed(randomness.seed);
    let shared = eph.agree(enclave_provisioning_key);
    let key = wrap_key(&shared, &eph.public, enclave_provisioning_key);
    let nonce = &randomness.nonce;
    let sealed = AesGcm::new(&key).seal(nonce, &eph.public, &bundle.encode());
    let mut w = TlvWriter::new();
    w.bytes(TAG_EPH_PUB, &eph.public)
        .bytes(TAG_GCM_NONCE, nonce)
        .bytes(TAG_CIPHERTEXT, &sealed);
    w.finish()
}

/// VM-side: the report data an honest credential enclave must present —
/// binds the provisioning key (hash) and the verifier nonce into the quote.
pub fn provisioning_report_data(provisioning_key: &[u8; 32], nonce: &[u8; 32]) -> [u8; 64] {
    let mut data = [0u8; 64];
    data[..32].copy_from_slice(&sha256(provisioning_key));
    data[32..].copy_from_slice(nonce);
    data
}

/// Encode the `ATTEST` ecall input.
pub fn encode_attest_input(target: &TargetInfo, nonce: &[u8; 32]) -> Vec<u8> {
    let mut w = TlvWriter::new();
    w.bytes(TAG_TARGET, target.mrenclave.as_bytes())
        .bytes(TAG_NONCE32, nonce);
    w.finish()
}

/// Encode the `OPEN_SESSION` ecall input.
pub fn encode_open_session(addr: &str, now: u64) -> Vec<u8> {
    let mut w = TlvWriter::new();
    w.string(TAG_ADDR, addr).u64(TAG_NOW, now);
    w.finish()
}

/// Encode the `SESSION_REQUEST` ecall input.
pub fn encode_session_request(session: u32, raw_request: &[u8]) -> Vec<u8> {
    let mut w = TlvWriter::new();
    w.u32(TAG_SESSION, session).bytes(TAG_REQUEST, raw_request);
    w.finish()
}

/// Decoded `STATUS` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveStatus {
    pub provisioned: bool,
    pub subject: String,
    pub serial: u64,
}

impl EnclaveStatus {
    pub fn decode(bytes: &[u8]) -> Result<EnclaveStatus, VnfError> {
        let mut r = TlvReader::new(bytes);
        let provisioned = r.expect_u8(TAG_PROVISIONED)? != 0;
        let subject = r.expect_string(TAG_SUBJECT)?;
        let serial = r.expect_u64(TAG_SERIAL)?;
        r.finish()?;
        Ok(EnclaveStatus {
            provisioned,
            subject,
            serial,
        })
    }
}

struct Credentials {
    key: SigningKey,
    certificate: Certificate,
    ca_certificate: Certificate,
    server_cn: String,
    ca_previous: Vec<Certificate>,
}

struct Session {
    conn: u32,
    send: SealState,
    recv: SealState,
    buffered: Vec<u8>,
}

/// Ocall-backed network transport used inside the enclave.
struct OcallNet<'c, 'a> {
    ctx: &'c mut EnclaveContext<'a>,
    conn: u32,
}

impl OcallNet<'_, '_> {
    fn conn_tlv(&self, extra: Option<(u8, &[u8])>) -> Vec<u8> {
        let mut w = TlvWriter::new();
        w.u32(TAG_CONN, self.conn);
        if let Some((tag, value)) = extra {
            w.bytes(tag, value);
        }
        w.finish()
    }
}

impl Read for OcallNet<'_, '_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let payload = self.conn_tlv(Some((TAG_MAX, &(buf.len() as u32).to_be_bytes())));
        let data = self
            .ctx
            .ocall(ocall::NET_RECV, &payload)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        if data.is_empty() {
            return Ok(0);
        }
        let n = data.len().min(buf.len());
        buf[..n].copy_from_slice(&data[..n]);
        Ok(n)
    }
}

impl Write for OcallNet<'_, '_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let payload = self.conn_tlv(Some((TAG_BYTES, buf)));
        self.ctx
            .ocall(ocall::NET_SEND, &payload)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::BrokenPipe, e.to_string()))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Parse the `TLV{conn, bytes/max}` ocall payloads (host side).
pub fn decode_net_send(payload: &[u8]) -> Result<(u32, Vec<u8>), VnfError> {
    let mut r = TlvReader::new(payload);
    let conn = r.expect_u32(TAG_CONN)?;
    let bytes = r.expect(TAG_BYTES)?.to_vec();
    r.finish()?;
    Ok((conn, bytes))
}

/// Parse the `TLV{conn, max}` NET_RECV payload (host side).
pub fn decode_net_recv(payload: &[u8]) -> Result<(u32, usize), VnfError> {
    let mut r = TlvReader::new(payload);
    let conn = r.expect_u32(TAG_CONN)?;
    let max = r.expect(TAG_MAX)?;
    let max: [u8; 4] = max
        .try_into()
        .map_err(|_| VnfError::Encoding("bad max field".into()))?;
    r.finish()?;
    Ok((conn, u32::from_be_bytes(max) as usize))
}

/// The enclave program.
pub struct CredentialEnclave {
    image: Vec<u8>,
    drbg: Option<HmacDrbg>,
    provisioning: Option<EphemeralKeyPair>,
    credentials: Option<Credentials>,
    sessions: HashMap<u32, Session>,
    next_session: u32,
}

impl CredentialEnclave {
    /// Create the enclave program for a given image (the bytes that will be
    /// measured into MRENCLAVE — ship the same bytes in the container).
    pub fn new(image: &[u8]) -> CredentialEnclave {
        CredentialEnclave {
            image: image.to_vec(),
            drbg: None,
            provisioning: None,
            credentials: None,
            sessions: HashMap::new(),
            next_session: 1,
        }
    }

    /// The canonical enclave image bytes for a VNF credential enclave of
    /// the given version — what images embed and the VM whitelists.
    pub fn image_for(vnf_name: &str, version: u32) -> Vec<u8> {
        format!("vnfguard credential enclave v{version} for {vnf_name}").into_bytes()
    }

    fn rng(&mut self, ctx: &mut EnclaveContext) -> &mut HmacDrbg {
        if self.drbg.is_none() {
            let mut seed = [0u8; 32];
            ctx.random_bytes(&mut seed);
            self.drbg = Some(HmacDrbg::new(&seed));
        }
        self.drbg.as_mut().expect("just seeded")
    }

    fn provisioning_key(&mut self, ctx: &mut EnclaveContext) -> [u8; 32] {
        if self.provisioning.is_none() {
            let mut seed = [0u8; 32];
            self.rng(ctx).fill(&mut seed);
            self.provisioning = Some(EphemeralKeyPair::from_seed(seed));
        }
        self.provisioning.as_ref().expect("just generated").public
    }

    fn credentials(&self) -> Result<&Credentials, SgxError> {
        self.credentials
            .as_ref()
            .ok_or_else(|| SgxError::App("enclave not provisioned".into()))
    }

    fn handle_attest(
        &mut self,
        ctx: &mut EnclaveContext,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let mut r = TlvReader::new(input);
        let target = TargetInfo {
            mrenclave: Measurement(r.expect_array::<32>(TAG_TARGET)?),
        };
        let nonce = r.expect_array::<32>(TAG_NONCE32)?;
        r.finish()?;
        let prov_pub = self.provisioning_key(ctx);
        let report = ctx.create_report(&target, provisioning_report_data(&prov_pub, &nonce));
        Ok(report.encode())
    }

    fn handle_provision(
        &mut self,
        ctx: &mut EnclaveContext,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let mut r = TlvReader::new(input);
        let eph_pub = r.expect_array::<32>(TAG_EPH_PUB)?;
        let nonce = r.expect_array::<12>(TAG_GCM_NONCE)?;
        let ciphertext = r.expect(TAG_CIPHERTEXT)?;
        r.finish()?;
        let _ = self.provisioning_key(ctx); // ensure key exists
        let provisioning = self.provisioning.as_ref().expect("ensured");
        let shared = provisioning.agree(&eph_pub);
        let key = wrap_key(&shared, &eph_pub, &provisioning.public);
        let plaintext = AesGcm::new(&key)
            .open(&nonce, &eph_pub, ciphertext)
            .map_err(|_| SgxError::App("credential bundle authentication failed".into()))?;
        let bundle = ProvisionBundle::decode(&plaintext)?;
        self.credentials = Some(Credentials {
            key: SigningKey::from_seed(&bundle.key_seed),
            certificate: bundle.certificate,
            ca_certificate: bundle.ca_certificate,
            server_cn: bundle.server_cn,
            ca_previous: bundle.ca_previous,
        });
        Ok(Vec::new())
    }

    fn handle_export_sealed(&mut self, ctx: &mut EnclaveContext) -> Result<Vec<u8>, SgxError> {
        let credentials = self.credentials()?;
        let bundle = ProvisionBundle {
            key_seed: *credentials.key.seed(),
            certificate: credentials.certificate.clone(),
            ca_certificate: credentials.ca_certificate.clone(),
            server_cn: credentials.server_cn.clone(),
            ca_previous: credentials.ca_previous.clone(),
        };
        ctx.seal(SealPolicy::MrEnclave, b"vnf-credentials", &bundle.encode())
    }

    fn handle_import_sealed(
        &mut self,
        ctx: &mut EnclaveContext,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let plaintext = ctx.unseal(input, b"vnf-credentials")?;
        let bundle = ProvisionBundle::decode(&plaintext)?;
        self.credentials = Some(Credentials {
            key: SigningKey::from_seed(&bundle.key_seed),
            certificate: bundle.certificate,
            ca_certificate: bundle.ca_certificate,
            server_cn: bundle.server_cn,
            ca_previous: bundle.ca_previous,
        });
        Ok(Vec::new())
    }

    fn handle_open_session(
        &mut self,
        ctx: &mut EnclaveContext,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let mut r = TlvReader::new(input);
        let addr = r.expect_string(TAG_ADDR)?;
        let now = r.expect_u64(TAG_NOW)?;
        r.finish()?;

        // Build the client config from enclave-held credentials.
        let (config, _cn) = {
            let credentials = self.credentials()?;
            let mut trust = TrustStore::new();
            trust
                .add_anchor(credentials.ca_certificate.clone())
                .map_err(|e| SgxError::App(format!("bad trust anchor: {e}")))?;
            for previous in &credentials.ca_previous {
                trust
                    .add_anchor(previous.clone())
                    .map_err(|e| SgxError::App(format!("bad trust anchor: {e}")))?;
            }
            let signer = Arc::new(LocalSigner::new(
                credentials.key.clone(),
                credentials.certificate.clone(),
            ));
            let config = ClientConfig::new(Arc::new(trust), now)
                .with_identity(signer)
                .expecting_server(&credentials.server_cn);
            (config, credentials.server_cn.clone())
        };
        // Seed the in-enclave DRBG before borrowing ctx for transport.
        self.rng(ctx);

        let conn_bytes = ctx.ocall(ocall::NET_CONNECT, addr.as_bytes())?;
        let conn = u32::from_be_bytes(
            conn_bytes
                .as_slice()
                .try_into()
                .map_err(|_| SgxError::App("bad NET_CONNECT reply".into()))?,
        );
        let transport = OcallNet { ctx, conn };
        let drbg = self.drbg.as_mut().expect("seeded above");
        let (stream, _info) = client_handshake(transport, &config, drbg)
            .map_err(|e| SgxError::App(format!("in-enclave TLS handshake failed: {e}")))?;
        let (_net, send, recv, buffered) = stream.into_parts();

        let session = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
            session,
            Session {
                conn,
                send,
                recv,
                buffered,
            },
        );
        Ok(session.to_be_bytes().to_vec())
    }

    fn handle_session_request(
        &mut self,
        ctx: &mut EnclaveContext,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        let mut r = TlvReader::new(input);
        let session_id = r.expect_u32(TAG_SESSION)?;
        let raw_request = r.expect(TAG_REQUEST)?.to_vec();
        r.finish()?;
        let session = self
            .sessions
            .remove(&session_id)
            .ok_or_else(|| SgxError::App(format!("no session {session_id}")))?;

        let transport = OcallNet {
            ctx,
            conn: session.conn,
        };
        let mut stream =
            TlsStream::from_parts(transport, session.send, session.recv, session.buffered);
        let result = (|| -> Result<Vec<u8>, SgxError> {
            stream
                .write_all(&raw_request)
                .map_err(|e| SgxError::App(format!("session write: {e}")))?;
            let response = vnfguard_net::http::read_response(&mut stream)
                .map_err(|e| SgxError::App(format!("session read: {e}")))?;
            let mut out = Vec::new();
            vnfguard_net::http::write_response(&mut out, &response)
                .map_err(|e| SgxError::App(format!("serialize: {e}")))?;
            Ok(out)
        })();
        let (_net, send, recv, buffered) = stream.into_parts();
        match result {
            Ok(out) => {
                self.sessions.insert(
                    session_id,
                    Session {
                        conn: session.conn,
                        send,
                        recv,
                        buffered,
                    },
                );
                Ok(out)
            }
            Err(e) => Err(e), // broken sessions are dropped
        }
    }

    fn handle_status(&self) -> Vec<u8> {
        let mut w = TlvWriter::new();
        match &self.credentials {
            Some(credentials) => {
                w.u8(TAG_PROVISIONED, 1)
                    .string(TAG_SUBJECT, credentials.certificate.subject_cn())
                    .u64(TAG_SERIAL, credentials.certificate.serial());
            }
            None => {
                w.u8(TAG_PROVISIONED, 0)
                    .string(TAG_SUBJECT, "")
                    .u64(TAG_SERIAL, 0);
            }
        }
        w.finish()
    }
}

impl EnclaveCode for CredentialEnclave {
    fn image(&self) -> Vec<u8> {
        self.image.clone()
    }

    fn on_call(
        &mut self,
        ctx: &mut EnclaveContext,
        opcode: u16,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            op::GET_PROVISION_KEY => Ok(self.provisioning_key(ctx).to_vec()),
            op::ATTEST => self.handle_attest(ctx, input),
            op::PROVISION => self.handle_provision(ctx, input),
            op::EXPORT_SEALED => self.handle_export_sealed(ctx),
            op::IMPORT_SEALED => self.handle_import_sealed(ctx, input),
            op::OPEN_SESSION => self.handle_open_session(ctx, input),
            op::SESSION_REQUEST => self.handle_session_request(ctx, input),
            op::CLOSE_SESSION => {
                let id = u32::from_be_bytes(
                    input
                        .try_into()
                        .map_err(|_| SgxError::Encoding("bad session id".into()))?,
                );
                if let Some(session) = self.sessions.remove(&id) {
                    let _ = ctx.ocall(ocall::NET_CLOSE, &session.conn.to_be_bytes());
                }
                Ok(Vec::new())
            }
            op::STATUS => Ok(self.handle_status()),
            op::WIPE => {
                self.credentials = None;
                self.sessions.clear();
                Ok(Vec::new())
            }
            other => Err(SgxError::BadCall(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_crypto::drbg::HmacDrbg;
    use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
    use vnfguard_pki::cert::{DistinguishedName, Validity};

    fn test_bundle() -> ProvisionBundle {
        let mut rng = HmacDrbg::new(b"bundle");
        let mut ca = CertificateAuthority::new(
            DistinguishedName::new("vm-ca"),
            Validity::new(0, 1_000_000),
            &mut rng,
        );
        let key_seed = [42u8; 32];
        let key = SigningKey::from_seed(&key_seed);
        let certificate = ca.issue(
            DistinguishedName::new("vnf-1"),
            key.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        ProvisionBundle {
            key_seed,
            certificate,
            ca_certificate: ca.certificate().clone(),
            server_cn: "controller".into(),
            ca_previous: Vec::new(),
        }
    }

    #[test]
    fn bundle_roundtrip() {
        let bundle = test_bundle();
        assert_eq!(ProvisionBundle::decode(&bundle.encode()).unwrap(), bundle);
    }

    #[test]
    fn wrap_unwrap_requires_matching_private_key() {
        let mut rng = HmacDrbg::new(b"wrap test");
        let enclave_key = EphemeralKeyPair::from_seed([7; 32]);
        let bundle = test_bundle();
        let wrapped = wrap_credentials(
            &WrapRandomness::draw(&mut rng),
            &enclave_key.public,
            &bundle,
        );

        // Unwrap with the right key succeeds.
        let mut r = TlvReader::new(&wrapped);
        let eph_pub = r.expect_array::<32>(TAG_EPH_PUB).unwrap();
        let nonce = r.expect_array::<12>(TAG_GCM_NONCE).unwrap();
        let ciphertext = r.expect(TAG_CIPHERTEXT).unwrap();
        let shared = enclave_key.agree(&eph_pub);
        let key = wrap_key(&shared, &eph_pub, &enclave_key.public);
        let plaintext = AesGcm::new(&key)
            .open(&nonce, &eph_pub, ciphertext)
            .unwrap();
        assert_eq!(ProvisionBundle::decode(&plaintext).unwrap(), bundle);

        // A different provisioning key cannot unwrap (MITM substitution).
        let wrong = EphemeralKeyPair::from_seed([8; 32]);
        let shared = wrong.agree(&eph_pub);
        let key = wrap_key(&shared, &eph_pub, &wrong.public);
        assert!(AesGcm::new(&key)
            .open(&nonce, &eph_pub, ciphertext)
            .is_err());
    }

    #[test]
    fn report_data_binds_key_and_nonce() {
        let a = provisioning_report_data(&[1; 32], &[2; 32]);
        let b = provisioning_report_data(&[1; 32], &[3; 32]);
        let c = provisioning_report_data(&[4; 32], &[2; 32]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(&a[32..], &[2u8; 32]);
    }

    #[test]
    fn status_decoding() {
        let enclave = CredentialEnclave::new(b"img");
        let status = EnclaveStatus::decode(&enclave.handle_status()).unwrap();
        assert!(!status.provisioned);
        assert_eq!(status.subject, "");
    }

    #[test]
    fn image_naming_is_versioned() {
        assert_ne!(
            CredentialEnclave::image_for("fw", 1),
            CredentialEnclave::image_for("fw", 2)
        );
        assert_ne!(
            CredentialEnclave::image_for("fw", 1),
            CredentialEnclave::image_for("nat", 1)
        );
    }
}
