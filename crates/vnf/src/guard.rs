//! Host-side wrapper deploying and driving a credential enclave.

use crate::credential_enclave::{
    self, decode_net_recv, decode_net_send, encode_attest_input, encode_open_session,
    encode_session_request, op, CredentialEnclave, EnclaveStatus,
};
use crate::VnfError;
use std::collections::HashMap;
use std::io::{Read, Write};
use vnfguard_net::fabric::Network;
use vnfguard_net::http::{read_response, write_request, Request, Response};
use vnfguard_net::stream::Duplex;
use vnfguard_sgx::enclave::Enclave;
use vnfguard_sgx::measurement::Measurement;
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::quote::Quote;
use vnfguard_sgx::report::{Report, TargetInfo};
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::SgxError;

/// Default enclave size for credential enclaves.
pub const ENCLAVE_SIZE: usize = 256 * 1024;

/// Callback the guard invokes to obtain a freshly wrapped credential
/// bundle when its certificate enters the renewal window. Returns the
/// wrapped bundle and the new credential's `not_after`.
pub type RenewFn = Box<dyn FnMut() -> Result<(Vec<u8>, u64), VnfError> + Send + Sync>;

/// Auto-renewal state: when the credential expires, how early to renew,
/// and the callback that fetches a replacement bundle.
struct AutoRenew {
    not_after: u64,
    window_secs: u64,
    /// Jittered instant this guard actually starts renewing — a per-guard
    /// point in the first half of the renewal window, so a fleet whose
    /// certificates expire together does not stampede the manager at the
    /// window edge. The second half of the window is retry headroom.
    renew_at: u64,
    /// Earliest next attempt after a refusal (backpressure backoff).
    next_attempt_at: u64,
    consecutive_refusals: u32,
    renewer: RenewFn,
}

/// Stateless splitmix64 finalizer: deterministic per-guard jitter without
/// carrying an RNG (the guard must stay reproducible run-to-run).
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The jittered renewal start for a credential expiring at `not_after`:
/// window opening plus a (name, not_after)-keyed offset into the first
/// half of the window.
fn jittered_renew_at(name: &str, not_after: u64, window_secs: u64) -> u64 {
    let opens = not_after.saturating_sub(window_secs);
    let spread = window_secs / 2;
    if spread == 0 {
        return opens;
    }
    opens + splitmix(name_seed(name) ^ not_after) % (spread + 1)
}

/// A VNF's enclave-guarded credential store, as deployed on a container
/// host. Owns the enclave and the network connections its ocalls use.
pub struct VnfGuard {
    pub name: String,
    enclave: Enclave,
    network: Network,
    connections: HashMap<u32, Duplex>,
    next_conn: u32,
    auto_renew: Option<AutoRenew>,
}

impl VnfGuard {
    /// Load the credential enclave for `name` on `platform`, using the
    /// canonical image bytes for (name, version) signed by `author`.
    pub fn load(
        platform: &SgxPlatform,
        network: &Network,
        author: &EnclaveAuthor,
        name: &str,
        version: u32,
    ) -> Result<VnfGuard, VnfError> {
        let image = CredentialEnclave::image_for(name, version);
        VnfGuard::load_image(platform, network, author, name, &image, version as u16)
    }

    /// Load from explicit image bytes (e.g. the enclave image shipped in a
    /// container). A tampered image fails launch control here.
    pub fn load_image(
        platform: &SgxPlatform,
        network: &Network,
        author: &EnclaveAuthor,
        name: &str,
        image: &[u8],
        isv_svn: u16,
    ) -> Result<VnfGuard, VnfError> {
        let mrenclave = SgxPlatform::measure_image(image, ENCLAVE_SIZE);
        let signed = author.sign_enclave(mrenclave, 1, isv_svn, false);
        let enclave = platform.load_enclave(
            &signed,
            ENCLAVE_SIZE,
            Box::new(CredentialEnclave::new(image)),
        )?;
        Ok(VnfGuard {
            name: name.to_string(),
            enclave,
            network: network.clone(),
            connections: HashMap::new(),
            next_conn: 1,
            auto_renew: None,
        })
    }

    /// The enclave's measured identity.
    pub fn mrenclave(&self) -> Measurement {
        self.enclave.mrenclave()
    }

    pub fn enclave(&self) -> &Enclave {
        &self.enclave
    }

    /// Fetch the enclave's provisioning public key.
    pub fn provisioning_key(&self) -> Result<[u8; 32], VnfError> {
        let bytes = self.enclave.ecall(op::GET_PROVISION_KEY, &[])?;
        bytes
            .as_slice()
            .try_into()
            .map_err(|_| VnfError::Encoding("bad provisioning key length".into()))
    }

    /// Produce a local attestation report targeted at `target` carrying the
    /// provisioning-key binding and `nonce`.
    pub fn attestation_report(
        &self,
        target: &TargetInfo,
        nonce: &[u8; 32],
    ) -> Result<Report, VnfError> {
        let bytes = self
            .enclave
            .ecall(op::ATTEST, &encode_attest_input(target, nonce))?;
        Ok(Report::decode(&bytes)?)
    }

    /// Full quote flow: report targeted at the platform QE, then quoted.
    pub fn quote(
        &self,
        platform: &SgxPlatform,
        nonce: &[u8; 32],
        basename: [u8; 32],
    ) -> Result<Quote, VnfError> {
        let qe = platform.quoting_enclave();
        let report = self.attestation_report(&qe.target_info(), nonce)?;
        Ok(qe.quote(&report, basename)?)
    }

    /// Deliver a wrapped credential bundle into the enclave.
    pub fn provision(&self, wrapped: &[u8]) -> Result<(), VnfError> {
        self.enclave.ecall(op::PROVISION, wrapped)?;
        Ok(())
    }

    /// Export the sealed credential blob for restart persistence.
    pub fn export_sealed(&self) -> Result<Vec<u8>, VnfError> {
        Ok(self.enclave.ecall(op::EXPORT_SEALED, &[])?)
    }

    /// Restore credentials from a sealed blob (same enclave identity and
    /// platform only).
    pub fn import_sealed(&self, blob: &[u8]) -> Result<(), VnfError> {
        self.enclave.ecall(op::IMPORT_SEALED, blob)?;
        Ok(())
    }

    /// Current provisioning status.
    pub fn status(&self) -> Result<EnclaveStatus, VnfError> {
        EnclaveStatus::decode(&self.enclave.ecall(op::STATUS, &[])?)
    }

    /// Wipe credentials (local revocation; paper: "provision or revoke").
    pub fn wipe(&self) -> Result<(), VnfError> {
        self.enclave.ecall(op::WIPE, &[])?;
        Ok(())
    }

    fn run_io_ecall(&mut self, opcode: u16, input: &[u8]) -> Result<Vec<u8>, VnfError> {
        let network = self.network.clone();
        let connections = &mut self.connections;
        let next_conn = &mut self.next_conn;
        let result = self
            .enclave
            .ecall_io(opcode, input, |ocall_op, payload| match ocall_op {
                credential_enclave::ocall::NET_CONNECT => {
                    let addr = std::str::from_utf8(payload)
                        .map_err(|_| SgxError::App("bad address".into()))?;
                    let stream = network
                        .connect(addr)
                        .map_err(|e| SgxError::App(format!("connect {addr}: {e}")))?;
                    let conn = *next_conn;
                    *next_conn += 1;
                    connections.insert(conn, stream);
                    Ok(conn.to_be_bytes().to_vec())
                }
                credential_enclave::ocall::NET_SEND => {
                    let (conn, bytes) =
                        decode_net_send(payload).map_err(|e| SgxError::App(e.to_string()))?;
                    let stream = connections
                        .get_mut(&conn)
                        .ok_or_else(|| SgxError::App(format!("no connection {conn}")))?;
                    stream
                        .write_all(&bytes)
                        .map_err(|e| SgxError::App(format!("send: {e}")))?;
                    Ok(Vec::new())
                }
                credential_enclave::ocall::NET_RECV => {
                    let (conn, max) =
                        decode_net_recv(payload).map_err(|e| SgxError::App(e.to_string()))?;
                    let stream = connections
                        .get_mut(&conn)
                        .ok_or_else(|| SgxError::App(format!("no connection {conn}")))?;
                    let mut buf = vec![0u8; max.min(64 * 1024)];
                    let n = stream
                        .read(&mut buf)
                        .map_err(|e| SgxError::App(format!("recv: {e}")))?;
                    buf.truncate(n);
                    Ok(buf)
                }
                credential_enclave::ocall::NET_CLOSE => {
                    let conn = u32::from_be_bytes(
                        payload
                            .try_into()
                            .map_err(|_| SgxError::App("bad close payload".into()))?,
                    );
                    connections.remove(&conn);
                    Ok(Vec::new())
                }
                other => Err(SgxError::App(format!("unknown ocall {other}"))),
            })?;
        Ok(result)
    }

    /// Arm transparent credential renewal: once `now` enters the window
    /// `window_secs` before `not_after`, the next
    /// [`open_session`](Self::open_session) calls `renewer` for a fresh
    /// wrapped bundle and provisions it before opening — sessions never
    /// start on a certificate about to expire. The renewer typically posts
    /// to the manager's `/vm/renew` endpoint.
    pub fn set_auto_renew(&mut self, not_after: u64, window_secs: u64, renewer: RenewFn) {
        self.auto_renew = Some(AutoRenew {
            not_after,
            window_secs,
            renew_at: jittered_renew_at(&self.name, not_after, window_secs),
            next_attempt_at: 0,
            consecutive_refusals: 0,
            renewer,
        });
    }

    /// The jittered instant this guard starts renewing, if armed. Distinct
    /// per guard even when a whole fleet's certificates share `not_after`.
    pub fn renew_at(&self) -> Option<u64> {
        self.auto_renew.as_ref().map(|r| r.renew_at)
    }

    /// `not_after` of the credential auto-renewal is tracking, if armed.
    pub fn credential_not_after(&self) -> Option<u64> {
        self.auto_renew.as_ref().map(|r| r.not_after)
    }

    /// Run the auto-renew hook if the credential has reached its jittered
    /// renewal point at `now`. Returns whether a renewal happened. A failing
    /// renewal — whether fetching the wrapped bundle or provisioning it
    /// into the enclave — propagates its error only once the credential is
    /// actually expired; while the old certificate is still valid, the
    /// session can proceed and retry renewal later. Either way the hook
    /// stays armed: a transient failure must not silently disarm renewal.
    ///
    /// A [`VnfError::Backpressure`] refusal (manager shed the renewal under
    /// load) parks the hook until the server's retry hint elapses, doubled
    /// and jittered per consecutive refusal so a shed stampede fans back
    /// out instead of re-forming. An expired credential ignores the parking
    /// and retries every call — correctness beats politeness once the cert
    /// is dead.
    pub fn maybe_renew(&mut self, now: u64) -> Result<bool, VnfError> {
        let Some(mut renew) = self.auto_renew.take() else {
            return Ok(false);
        };
        let expired = now > renew.not_after;
        let due = expired || now >= renew.renew_at;
        if !due || (!expired && now < renew.next_attempt_at) {
            self.auto_renew = Some(renew);
            return Ok(false);
        }
        let outcome = (renew.renewer)().and_then(|(wrapped, not_after)| {
            self.provision(&wrapped)?;
            Ok(not_after)
        });
        match outcome {
            Ok(not_after) => {
                renew.not_after = not_after;
                renew.renew_at = jittered_renew_at(&self.name, not_after, renew.window_secs);
                renew.next_attempt_at = 0;
                renew.consecutive_refusals = 0;
                self.auto_renew = Some(renew);
                Ok(true)
            }
            Err(VnfError::Backpressure { retry_after_secs }) if !expired => {
                renew.consecutive_refusals += 1;
                let shift = (renew.consecutive_refusals - 1).min(6);
                let bound = retry_after_secs.max(1).saturating_mul(1 << shift);
                let jitter = splitmix(name_seed(&self.name) ^ now) % (bound / 2 + 1);
                renew.next_attempt_at = now.saturating_add(bound / 2 + jitter);
                self.auto_renew = Some(renew);
                Ok(false)
            }
            Err(e) if expired => {
                self.auto_renew = Some(renew);
                Err(e)
            }
            Err(_) => {
                // Still valid: degrade to the old credential, retry next
                // session.
                self.auto_renew = Some(renew);
                Ok(false)
            }
        }
    }

    /// Open an in-enclave TLS session to the controller at `addr`. With
    /// auto-renewal armed, the credential is refreshed first when due (see
    /// [`maybe_renew`](Self::maybe_renew)).
    pub fn open_session(&mut self, addr: &str, now: u64) -> Result<u32, VnfError> {
        self.maybe_renew(now)?;
        let bytes = self.run_io_ecall(op::OPEN_SESSION, &encode_open_session(addr, now))?;
        let id: [u8; 4] = bytes
            .as_slice()
            .try_into()
            .map_err(|_| VnfError::Encoding("bad session id".into()))?;
        Ok(u32::from_be_bytes(id))
    }

    /// Perform an HTTPS request over an established in-enclave session.
    pub fn request(&mut self, session: u32, request: &Request) -> Result<Response, VnfError> {
        let mut raw = Vec::new();
        write_request(&mut raw, request)?;
        let response_bytes =
            self.run_io_ecall(op::SESSION_REQUEST, &encode_session_request(session, &raw))?;
        let mut reader = response_bytes.as_slice();
        Ok(read_response(&mut reader)?)
    }

    /// Like [`request`](Self::request), but stamps the wire-format trace
    /// context (`traceparent` value) onto the request first. The VNF crate
    /// carries no telemetry handle, so the caller hands over the header
    /// string produced by `TraceContext::traceparent()`; `None` leaves the
    /// request untraced.
    pub fn request_traced(
        &mut self,
        session: u32,
        request: &Request,
        traceparent: Option<&str>,
    ) -> Result<Response, VnfError> {
        match traceparent {
            Some(value) if !request.headers.contains_key("traceparent") => {
                let traced = request.clone().with_header("traceparent", value);
                self.request(session, &traced)
            }
            _ => self.request(session, request),
        }
    }

    /// Close an in-enclave session.
    pub fn close_session(&mut self, session: u32) -> Result<(), VnfError> {
        self.run_io_ecall(op::CLOSE_SESSION, &session.to_be_bytes())?;
        Ok(())
    }
}

impl std::fmt::Debug for VnfGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VnfGuard")
            .field("name", &self.name)
            .field("mrenclave", &self.mrenclave())
            .field("open_connections", &self.connections.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::jittered_renew_at;

    #[test]
    fn renew_jitter_stays_in_first_half_of_window() {
        let not_after = 1_600_086_400;
        let window = 7200;
        for i in 0..100 {
            let at = jittered_renew_at(&format!("vnf-{i}"), not_after, window);
            assert!(at >= not_after - window, "vnf-{i} renews inside the window");
            assert!(
                at <= not_after - window + window / 2,
                "vnf-{i} leaves the second half as retry headroom"
            );
        }
    }

    #[test]
    fn renew_jitter_spreads_a_fleet() {
        let not_after = 1_600_086_400;
        let points: std::collections::BTreeSet<u64> = (0..100)
            .map(|i| jittered_renew_at(&format!("vnf-{i}"), not_after, 7200))
            .collect();
        // 100 guards sharing one expiry must not renew in lockstep.
        assert!(points.len() > 50, "only {} distinct points", points.len());
    }

    #[test]
    fn renew_jitter_is_deterministic_and_degrades_to_window_edge() {
        assert_eq!(
            jittered_renew_at("vnf-a", 1_600_086_400, 7200),
            jittered_renew_at("vnf-a", 1_600_086_400, 7200),
        );
        // A zero-width window renews exactly at expiry.
        assert_eq!(jittered_renew_at("vnf-a", 500, 0), 500);
        // A one-second window cannot jitter past the opening.
        assert_eq!(jittered_renew_at("vnf-a", 500, 1), 499);
    }
}
