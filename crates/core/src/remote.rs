//! The deployment's network services: remote IAS, host agents and the
//! Verification Manager's own API.
//!
//! The testbed drives the workflow with in-process calls; this module
//! provides the same protocol **across the fabric**, matching the paper's
//! architecture where the Verification Manager, the attestation service,
//! the container hosts and the controller are separate network entities:
//!
//! - [`serve_ias`] exposes an [`AttestationService`] as a REST endpoint
//!   (`POST /attestation/v4/report`, like Intel's), and [`RemoteIas`] is
//!   the client handle implementing [`QuoteVerifier`] — the manager code
//!   is identical either way;
//! - [`HostAgent`] runs on each container host and answers the VM's
//!   challenges (produce host evidence; relay VNF enclave attestation and
//!   provisioning);
//! - [`serve_vm_api`] exposes the manager's operator surface (trigger
//!   attestation/enrollment, revoke, fetch CA/CRL, scrape metrics, tail
//!   the audit journal).
//!
//! Handlers use the [`ApiResult`] convention: they return
//! `Result<Response, ApiError>` and the router maps every error through a
//! single `ApiError → Response` conversion, so status-code policy lives in
//! one place per route instead of being re-spelled at each early return.
//!
//! Payload binary fields travel base64-encoded inside JSON bodies.

use crate::attestation::{host_tee_evidence, vnf_tee_evidence, HostEvidence};
use crate::backend::MultiBackend;
use crate::overload::check_deadline;
use crate::resilience::{AttemptRecord, BreakerState, CircuitBreaker, RetryPolicy};
use crate::service::{HealthSnapshot, VmService};
use crate::CoreError;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;
use vnfguard_attest::snp::SnpPlatform;
use vnfguard_attest::{AttestationBackend, Availability, BackendKind};
use vnfguard_container::host::ContainerHost;
use vnfguard_controller::SimClock;
use vnfguard_crypto::ed25519::PreparedVerifyingKey;
use vnfguard_crypto::hmac::hmac_sha256;
use vnfguard_encoding::{base64, Json};
// backend-opt-out: this module hosts the IAS transport itself (serve_ias,
// RemoteIas) and the SGX host agent; they legitimately speak IAS/SGX types.
use vnfguard_ias::{AttestationReport, AttestationService, QuoteVerifier};
use vnfguard_ima::list::IMA_PCR;
use vnfguard_ima::tpm::SimTpm;
use vnfguard_net::fabric::Network;
use vnfguard_net::http::{Request, Response, Status};
use vnfguard_net::rest::{ApiError, ApiResult, Router};
use vnfguard_net::server::{serve, PlainUpgrade, ServerHandle};
// backend-opt-out: agent-side SGX platform plumbing (the host side of the
// paper's Figure 1), not verifier-side appraisal.
use vnfguard_sgx::enclave::Enclave;
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_telemetry::{Counter, Histogram, Telemetry, TraceSpan};
use vnfguard_vnf::VnfGuard;

fn b64_field(doc: &Json, field: &str) -> Result<Vec<u8>, String> {
    let text = doc
        .get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing field {field:?}"))?;
    base64::decode(text).map_err(|e| format!("bad base64 in {field:?}: {e}"))
}

fn b64_array32(doc: &Json, field: &str) -> Result<[u8; 32], String> {
    let bytes = b64_field(doc, field)?;
    bytes
        .try_into()
        .map_err(|_| format!("{field:?} must be 32 bytes"))
}

/// Parse the JSON body of an API request, mapping malformed input to 400.
fn api_json(request: &Request) -> ApiResult<Json> {
    request
        .json()
        .map_err(|_| ApiError::bad_request("invalid JSON"))
}

/// Render one span (and, recursively, its children) as a JSON node for the
/// `GET /vm/traces/{id}` tree view.
fn span_node(span: &TraceSpan, children: &HashMap<u64, Vec<&TraceSpan>>) -> Json {
    let annotations: Json = span
        .annotations
        .iter()
        .map(|annotation| {
            Json::object()
                .with("time", annotation.time as i64)
                .with("kind", annotation.kind.as_str())
                .with("detail", annotation.detail.as_str())
        })
        .collect();
    let kids: Json = children
        .get(&span.span_id)
        .map(|kids| kids.iter().map(|kid| span_node(kid, children)).collect())
        .unwrap_or_else(|| std::iter::empty::<Json>().collect());
    Json::object()
        .with("span_id", format!("{:016x}", span.span_id))
        .with("service", span.service.as_str())
        .with("name", span.name.as_str())
        .with("started_at", span.started_at as i64)
        .with("offset_micros", span.offset_micros as i64)
        .with("duration_micros", span.duration_micros as i64)
        .with("annotations", annotations)
        .with("children", kids)
}

/// Serialize a [`ReplicationStatus`](crate::replication::ReplicationStatus)
/// — shared by `GET /vm/replication` and the per-shard health snapshot.
fn replication_json(status: &crate::replication::ReplicationStatus) -> Json {
    let standbys: Json = status
        .standbys
        .iter()
        .map(|s| {
            let mut entry = Json::object()
                .with("addr", s.addr.as_str())
                .with("acked_seq", s.acked_seq as i64)
                .with("lag_records", s.lag_records as i64)
                .with("snapshots_sent", s.snapshots_sent as i64);
            if let Some(secs) = s.lag_seconds {
                entry = entry.with("lag_seconds", secs as i64);
            }
            entry
        })
        .collect();
    let mut body = Json::object()
        .with("role", status.role)
        .with("epoch", status.epoch as i64)
        .with("head_seq", status.head_seq as i64)
        .with("fenced", status.fenced)
        .with("standbys", standbys);
    if let Some(age) = status.heartbeat_age_seconds {
        body = body.with("heartbeat_age_seconds", age as i64);
    }
    body
}

fn histogram_json(snapshot: &vnfguard_telemetry::HistogramSnapshot) -> Json {
    let buckets: Json = snapshot
        .buckets
        .iter()
        .map(|&b| Json::from(b as i64))
        .collect();
    let exemplars: Json = snapshot
        .exemplars
        .iter()
        .map(|e| {
            Json::object()
                .with("value", e.value as i64)
                .with("trace_id", format!("{:032x}", e.trace_id))
                .with("bucket", e.bucket as i64)
        })
        .collect();
    Json::object()
        .with("buckets", buckets)
        .with("count", snapshot.count as i64)
        .with("sum", snapshot.sum as i64)
        .with("max", snapshot.max as i64)
        .with("exemplars", exemplars)
}

/// Serialize a [`HealthSnapshot`] for `GET /vm/health` — the same wire
/// shape the fleet monitor parses back for cross-node aggregation.
pub(crate) fn health_json(snapshot: &HealthSnapshot) -> Json {
    let admission: Json = snapshot
        .admission
        .iter()
        .map(|a| {
            Json::object()
                .with("class", a.class)
                .with("depth", a.depth as i64)
                .with("bound", a.bound as i64)
                .with("shed", a.shed as i64)
                .with("deadline_exceeded", a.deadline_exceeded as i64)
        })
        .collect();
    let shards: Json = snapshot
        .shards
        .iter()
        .map(|s| {
            let mut entry = Json::object()
                .with("shard", s.shard as i64)
                .with("wal_records", s.wal_records as i64)
                .with("wal_append_p50_micros", s.wal_append_p50_micros as i64)
                .with("wal_append_p99_micros", s.wal_append_p99_micros as i64)
                .with("wal_append_max_micros", s.wal_append_max_micros as i64)
                .with("recovery_generation", s.recovery_generation as i64);
            if let Some(site) = &s.crashed_site {
                entry = entry.with("crashed_site", site.as_str());
            }
            if let Some(replication) = &s.replication {
                entry = entry.with("replication", replication_json(replication));
            }
            entry
        })
        .collect();
    let latency: Json = snapshot
        .latency
        .iter()
        .map(|l| {
            Json::object()
                .with("class", l.class.as_str())
                .with("histogram", histogram_json(&l.histogram))
        })
        .collect();
    let alerts: Json = snapshot
        .alerts
        .iter()
        .map(|a| {
            let exemplars: Json = a
                .exemplar_trace_ids
                .iter()
                .map(|id| Json::from(format!("{id:032x}")))
                .collect();
            let mut entry = Json::object()
                .with("slo", a.slo.as_str())
                .with("workclass", a.workclass.as_str())
                .with("state", a.state.as_str())
                .with("state_code", a.state.code())
                .with("fast_burn_milli", (a.fast_burn * 1000.0).round() as i64)
                .with("slow_burn_milli", (a.slow_burn * 1000.0).round() as i64)
                .with("since", a.since as i64)
                .with("fast_good", a.fast_good as i64)
                .with("fast_bad", a.fast_bad as i64)
                .with("exemplar_trace_ids", exemplars);
            if let Some(at) = a.resolved_at {
                entry = entry.with("resolved_at", at as i64);
            }
            entry
        })
        .collect();
    Json::object()
        .with("at", snapshot.at as i64)
        .with("shard_count", snapshot.shard_count as i64)
        .with("admission", admission)
        .with("shards", shards)
        .with("latency", latency)
        .with("alerts", alerts)
}

/// Assemble a trace's spans into the nested-tree JSON body served by
/// `GET /vm/traces/{id}`. Spans whose parent fell out of the ring buffer
/// surface as additional roots rather than disappearing.
fn trace_tree_json(trace_id_hex: &str, spans: &[TraceSpan]) -> Json {
    let ids: BTreeSet<u64> = spans.iter().map(|span| span.span_id).collect();
    let mut children: HashMap<u64, Vec<&TraceSpan>> = HashMap::new();
    let mut roots: Vec<&TraceSpan> = Vec::new();
    for span in spans {
        match span.parent_id {
            Some(parent) if ids.contains(&parent) => children.entry(parent).or_default().push(span),
            _ => roots.push(span),
        }
    }
    let tree: Json = roots
        .iter()
        .map(|root| span_node(root, &children))
        .collect();
    Json::object()
        .with("trace_id", trace_id_hex)
        .with("span_count", spans.len() as i64)
        .with("roots", tree)
}

// ---------------------------------------------------------------------------
// Remote IAS
// ---------------------------------------------------------------------------

/// Serve an attestation service on the fabric.
///
/// Endpoint: `POST /attestation/v4/report` with
/// `{"isvEnclaveQuote": base64, "nonce": base64}` → `{"report": base64}`.
pub fn serve_ias(
    network: &Network,
    address: &str,
    service: AttestationService,
) -> Result<(ServerHandle, Arc<Mutex<AttestationService>>), CoreError> {
    let service = Arc::new(Mutex::new(service));
    let mut router = Router::new();
    {
        let service = service.clone();
        router.post_api("/attestation/v4/report", move |request, _| {
            let body = api_json(request)?;
            let quote = b64_field(&body, "isvEnclaveQuote").map_err(ApiError::bad_request)?;
            let nonce = b64_field(&body, "nonce").map_err(ApiError::bad_request)?;
            let report = service.lock().verify_quote(&quote, &nonce);
            Ok(Response::json(
                Status::Ok,
                &Json::object().with("report", base64::encode(&report.encode())),
            ))
        });
    }
    {
        let service = service.clone();
        router.get_api("/attestation/v4/sigrl/:gid", move |_, params| {
            let gid = params
                .get("gid")
                .and_then(|g| u32::from_str_radix(g, 16).ok())
                .unwrap_or(0);
            Ok(Response::json(
                Status::Ok,
                &Json::object().with("sigrl_size", service.lock().sigrl_len(gid) as i64),
            ))
        });
    }
    // Server-side trace spans for requests that carry a `traceparent`
    // header, attributed to the `ias` service and timestamped from the
    // service's own clock.
    if let Some(telemetry) = service.lock().telemetry().cloned() {
        let service = service.clone();
        router.instrument_traces(&telemetry, "ias", move || service.lock().now());
    }
    let listener = network
        .listen(address)
        .map_err(|e| CoreError::WorkflowViolation(e.to_string()))?;
    Ok((serve(listener, PlainUpgrade, router), service))
}

/// Read deadline for one IAS request attempt.
const IAS_READ_TIMEOUT: Duration = Duration::from_millis(750);

/// Read deadline for one host-agent request.
const AGENT_READ_TIMEOUT: Duration = Duration::from_millis(750);

/// Client handle to a remote attestation service; implements
/// [`QuoteVerifier`] so the Verification Manager uses it transparently.
///
/// Every `POST /attestation/v4/report` runs under a [`RetryPolicy`] behind
/// a [`CircuitBreaker`]: transient refusals/timeouts are retried with
/// jittered backoff, and once the service has failed `failure_threshold`
/// consecutive operations the breaker opens and the handle reports
/// [`Availability::Unavailable`] until a half-open probe succeeds.
///
/// With [`with_telemetry`](Self::with_telemetry), each retried operation
/// records its wall-clock round-trip into
/// `vnfguard_core_ias_roundtrip_micros`, retries and exhausted operations
/// bump `vnfguard_core_ias_retries_total` /
/// `vnfguard_core_ias_failures_total`, and every breaker transition is
/// counted and journaled.
pub struct RemoteIas {
    network: Network,
    address: String,
    /// Prepared once here; `None` for a key no report verifies under.
    report_key: Option<PreparedVerifyingKey>,
    clock: SimClock,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    last_attempts: Vec<AttemptRecord>,
    telemetry: Telemetry,
    retries: Counter,
    failures: Counter,
    breaker_transitions: Counter,
    roundtrip_micros: Histogram,
}

impl RemoteIas {
    /// Connect parameters plus the out-of-band-distributed report signing
    /// key (Intel publishes this as a certificate), prepared here for every
    /// report the handle will check. Uses a default retry
    /// policy and breaker against a private clock; deployments that want
    /// the breaker's cooldown tied to simulation time should follow up
    /// with [`with_resilience`](Self::with_resilience).
    pub fn new(
        network: &Network,
        address: &str,
        report_key: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> RemoteIas {
        RemoteIas {
            network: network.clone(),
            address: address.to_string(),
            report_key: PreparedVerifyingKey::new(report_key).ok(),
            clock: SimClock::at(0),
            retry: RetryPolicy::default(),
            breaker: CircuitBreaker::new(3, 60),
            last_attempts: Vec::new(),
            telemetry: Telemetry::disabled(),
            retries: Counter::detached(),
            failures: Counter::detached(),
            breaker_transitions: Counter::detached(),
            roundtrip_micros: Histogram::detached(),
        }
    }

    /// Share the deployment clock and choose the retry/breaker parameters.
    pub fn with_resilience(
        mut self,
        clock: SimClock,
        retry: RetryPolicy,
        breaker: CircuitBreaker,
    ) -> RemoteIas {
        self.clock = clock;
        self.retry = retry;
        self.breaker = breaker;
        self
    }

    /// Record round-trips, retries, failures and breaker transitions into a
    /// shared telemetry bundle.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> RemoteIas {
        self.telemetry = telemetry.clone();
        let core = telemetry.namespace("core");
        self.retries = core.counter("ias_retries_total", &[]);
        self.failures = core.counter("ias_failures_total", &[]);
        self.breaker_transitions = core.counter("ias_breaker_transitions_total", &[]);
        self.roundtrip_micros = core.histogram("ias_roundtrip_micros", &[]);
        self
    }

    /// Current breaker state at the handle's clock.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state(self.clock.now())
    }

    /// Attempt log of the most recent retried operation.
    pub fn last_attempts(&self) -> &[AttemptRecord] {
        &self.last_attempts
    }

    fn post_report(
        network: &Network,
        address: &str,
        quote_bytes: &[u8],
        nonce: &[u8],
    ) -> Result<AttestationReport, String> {
        let mut stream = network
            .connect_from("vm", address)
            .map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(IAS_READ_TIMEOUT));
        let mut client = vnfguard_net::server::HttpClient::new(stream);
        let request = Request::post("/attestation/v4/report").with_json(
            &Json::object()
                .with("isvEnclaveQuote", base64::encode(quote_bytes))
                .with("nonce", base64::encode(nonce)),
        );
        let response = client.request(&request).map_err(|e| e.to_string())?;
        let doc = response.parse_json().map_err(|e| e.to_string())?;
        let bytes = b64_field(&doc, "report")?;
        AttestationReport::decode(&bytes).map_err(|e| e.to_string())
    }

    /// An unverifiable self-signed report: the caller's signature check
    /// against the real report key fails closed.
    // backend-opt-out: the IAS transport synthesizes a fail-closed report
    // in the service's own vocabulary when the round-trip dies.
    fn unverifiable_report(nonce: &[u8], advisory: &str) -> AttestationReport {
        let key = vnfguard_crypto::ed25519::SigningKey::from_seed(&[0; 32]);
        AttestationReport::create(
            0,
            0,
            vnfguard_ias::QuoteStatus::SignatureInvalid,
            nonce,
            None,
            vec![advisory.into()],
            &key,
        )
    }

    /// Count and journal any breaker transitions recorded past `before`.
    fn note_transitions(&self, before: usize) {
        let transitions = self.breaker.transitions();
        for (at, state) in &transitions[before.min(transitions.len())..] {
            self.breaker_transitions.inc();
            self.telemetry
                .event(*at, "ias_breaker_transition", &format!("{state:?}"));
        }
    }
}

impl QuoteVerifier for RemoteIas {
    fn verify_quote(&mut self, quote_bytes: &[u8], nonce: &[u8]) -> AttestationReport {
        if check_deadline(&self.clock, "ias verify_quote").is_err() {
            // The request's budget is already gone: don't spend a network
            // round-trip (or a breaker sample) on an answer nobody will
            // read. The unverifiable report fails closed like the rest.
            self.telemetry.annotate(
                self.clock.now(),
                "deadline",
                &format!("{}: budget exhausted before IAS round-trip", self.address),
            );
            return Self::unverifiable_report(nonce, "IAS_DEADLINE_EXCEEDED");
        }
        if !self.breaker.allows(self.clock.now()) {
            // Open circuit: fail fast without touching the network. The
            // report is unverifiable, so callers that ignore availability
            // still fail closed.
            self.telemetry.annotate(
                self.clock.now(),
                "breaker",
                &format!("{}: circuit open, failing fast", self.address),
            );
            return Self::unverifiable_report(nonce, "IAS_CIRCUIT_OPEN");
        }
        let (roundtrip_ctx, outcome) = {
            // The whole retried operation is one `ias_roundtrip` span; each
            // attempt gets its own child span so retries show up as
            // distinct bars in the waterfall, and each attempt's request
            // carries its span's context.
            let span = self
                .telemetry
                .span("vm", "ias_roundtrip", self.clock.now())
                .with_histogram(self.roundtrip_micros.clone());
            // The retry loop itself re-checks the request deadline before
            // every backoff.
            let outcome = self.retry.run(&self.clock, |attempt| {
                let _attempt_span =
                    self.telemetry
                        .span("vm", &format!("ias_attempt_{attempt}"), self.clock.now());
                Self::post_report(&self.network, &self.address, quote_bytes, nonce)
            });
            (span.context().clone(), outcome)
        };
        // Failed attempts become `fault`/`retry` annotations naming the
        // fault site, attached to the round-trip span.
        for record in &outcome.attempts {
            if let Some(error) = &record.error {
                let kind = if record.attempt == 0 {
                    "fault"
                } else {
                    "retry"
                };
                self.telemetry.trace_annotate(
                    &roundtrip_ctx,
                    record.at,
                    kind,
                    &format!("{} attempt {}: {}", self.address, record.attempt, error),
                );
            }
        }
        self.retries
            .add(outcome.attempts.len().saturating_sub(1) as u64);
        self.last_attempts = outcome.attempts;
        let transitions_before = self.breaker.transitions().len();
        let report = match outcome.result {
            Ok(report) => {
                self.breaker.record_success(self.clock.now());
                report
            }
            Err(_) => {
                // One retried operation is one breaker sample.
                self.breaker.record_failure(self.clock.now());
                self.failures.inc();
                Self::unverifiable_report(nonce, "IAS_UNREACHABLE")
            }
        };
        self.note_transitions(transitions_before);
        report
    }

    fn report_key(&self) -> Option<&PreparedVerifyingKey> {
        self.report_key.as_ref()
    }

    fn availability(&self) -> Availability {
        if self.breaker.allows(self.clock.now()) {
            Availability::Available
        } else {
            Availability::Unavailable
        }
    }
}

// ---------------------------------------------------------------------------
// Host agent
// ---------------------------------------------------------------------------

/// Shared state of a container host served by its agent.
pub struct HostAgentState {
    pub host_id: String,
    pub platform: SgxPlatform,
    pub container_host: RwLock<ContainerHost>,
    pub integrity_enclave: Enclave,
    pub tpm: Option<Mutex<SimTpm>>,
    pub guards: RwLock<HashMap<String, Arc<VnfGuard>>>,
    /// Serials revoked by VM notification (evicted ahead of the next CRL).
    pub revoked_serials: RwLock<BTreeSet<u64>>,
    /// The VM's HMAC key for authenticating revocation notices; `None`
    /// accepts unauthenticated notices (testbed convenience).
    pub vm_hmac_key: Option<[u8; 32]>,
    /// When `Some`, this host is a SEV-SNP confidential VM: attestation
    /// routes produce SNP report bundles instead of SGX quotes (binding
    /// the exact same report data), and `/agent/health` advertises the
    /// `snp` backend. `None` keeps the original SGX behavior untouched.
    pub snp: Option<SnpPlatform>,
}

impl HostAgentState {
    /// The attestation backend this host enrolls under.
    pub fn backend(&self) -> BackendKind {
        if self.snp.is_some() {
            BackendKind::SevSnp
        } else {
            BackendKind::SgxEpid
        }
    }
}

/// The per-host agent: answers the Verification Manager's attestation and
/// provisioning requests over the fabric.
pub struct HostAgent {
    pub state: Arc<HostAgentState>,
    handle: ServerHandle,
    pub address: String,
}

impl HostAgent {
    /// Serve the agent for a host at `agent:{host_id}`.
    pub fn serve(network: &Network, state: Arc<HostAgentState>) -> Result<HostAgent, CoreError> {
        Self::launch(network, state, None)
    }

    /// Serve the agent with distributed tracing: requests carrying a
    /// `traceparent` header are recorded as server spans attributed to the
    /// `agent` service, timestamped via `now_fn` (simulated unix seconds).
    pub fn serve_traced(
        network: &Network,
        state: Arc<HostAgentState>,
        telemetry: &Telemetry,
        now_fn: impl Fn() -> u64 + Send + Sync + 'static,
    ) -> Result<HostAgent, CoreError> {
        Self::launch(
            network,
            state,
            Some((
                telemetry.clone(),
                Arc::new(now_fn) as Arc<dyn Fn() -> u64 + Send + Sync>,
            )),
        )
    }

    fn launch(
        network: &Network,
        state: Arc<HostAgentState>,
        tracing: Option<(Telemetry, Arc<dyn Fn() -> u64 + Send + Sync>)>,
    ) -> Result<HostAgent, CoreError> {
        let address = format!("agent:{}", state.host_id);
        let mut router = Router::new();

        // POST /agent/attest {nonce: b64} → {evidence: b64}
        {
            let state = state.clone();
            router.post_api("/agent/attest", move |request, _| {
                let body = api_json(request)?;
                let nonce = b64_array32(&body, "nonce").map_err(ApiError::bad_request)?;
                let tpm_quote = state
                    .tpm
                    .as_ref()
                    .map(|tpm| tpm.lock().quote(IMA_PCR, nonce).encode());
                let iml = state.container_host.read().measurement_list().encode();
                let evidence = host_tee_evidence(
                    &state.platform,
                    state.snp.as_ref(),
                    &state.integrity_enclave,
                    iml,
                    &nonce,
                    tpm_quote,
                )
                .map_err(|e| ApiError::server_error(e.to_string()))?;
                Ok(Response::json(
                    Status::Ok,
                    &Json::object().with("evidence", base64::encode(&evidence.encode())),
                ))
            });
        }

        // POST /agent/vnf/:name/attest {nonce: b64, basename: b64}
        //   → {quote: b64, provisioning_key: b64}
        {
            let state = state.clone();
            router.post_api("/agent/vnf/:name/attest", move |request, params| {
                let name = params.get("name").unwrap_or("");
                let guards = state.guards.read();
                let guard = guards
                    .get(name)
                    .ok_or_else(|| ApiError::not_found(format!("no VNF {name:?}")))?;
                let body = api_json(request)?;
                let nonce = b64_array32(&body, "nonce").map_err(ApiError::bad_request)?;
                let basename = b64_array32(&body, "basename").map_err(ApiError::bad_request)?;
                let provisioning_key = guard
                    .provisioning_key()
                    .map_err(|e| ApiError::server_error(e.to_string()))?;
                let quote = vnf_tee_evidence(
                    &state.platform,
                    state.snp.as_ref(),
                    guard,
                    &provisioning_key,
                    &nonce,
                    basename,
                )
                .map_err(|e| ApiError::server_error(e.to_string()))?;
                Ok(Response::json(
                    Status::Ok,
                    &Json::object()
                        .with("quote", base64::encode(&quote))
                        .with("provisioning_key", base64::encode(&provisioning_key)),
                ))
            });
        }

        // POST /agent/vnf/:name/provision {wrapped: b64} → {}
        {
            let state = state.clone();
            router.post_api("/agent/vnf/:name/provision", move |request, params| {
                let name = params.get("name").unwrap_or("");
                let guards = state.guards.read();
                let guard = guards
                    .get(name)
                    .ok_or_else(|| ApiError::not_found(format!("no VNF {name:?}")))?;
                let body = api_json(request)?;
                let wrapped = b64_field(&body, "wrapped").map_err(ApiError::bad_request)?;
                guard
                    .provision(&wrapped)
                    .map_err(|e| ApiError::server_error(e.to_string()))?;
                Ok(Response::json(Status::Ok, &Json::object().with("ok", true)))
            });
        }

        // POST /agent/revocations {serial, tag: b64} → {} — a VM-pushed
        // revocation notice, authenticated with the VM's HMAC key.
        {
            let state = state.clone();
            router.post_api("/agent/revocations", move |request, _| {
                let body = api_json(request)?;
                let serial = body
                    .get("serial")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| ApiError::bad_request("missing 'serial'"))?
                    as u64;
                if let Some(key) = &state.vm_hmac_key {
                    let tag = b64_array32(&body, "tag").map_err(ApiError::bad_request)?;
                    let message = crate::revocation::revocation_message(&state.host_id, serial);
                    if hmac_sha256(key, &message) != tag {
                        return Err(ApiError::forbidden("bad revocation tag"));
                    }
                }
                state.revoked_serials.write().insert(serial);
                Ok(Response::json(
                    Status::Ok,
                    &Json::object().with("revoked", true),
                ))
            });
        }

        // GET /agent/vnfs → list of deployed guard names.
        {
            let state = state.clone();
            router.get_api("/agent/vnfs", move |_, _| {
                let guards = state.guards.read();
                let names: Json = guards.keys().map(|k| Json::from(k.as_str())).collect();
                Ok(Response::json(Status::Ok, &names))
            });
        }

        // GET /agent/health → liveness + workload summary, scraped by the
        // fleet monitor alongside the VM nodes.
        {
            let state = state.clone();
            router.get_api("/agent/health", move |_, _| {
                let vnfs: Json = state
                    .guards
                    .read()
                    .keys()
                    .map(|k| Json::from(k.as_str()))
                    .collect();
                Ok(Response::json(
                    Status::Ok,
                    &Json::object()
                        .with("host_id", state.host_id.as_str())
                        .with("backend", state.backend().label())
                        .with("vnfs", vnfs)
                        .with("revoked_serials", state.revoked_serials.read().len() as i64),
                ))
            });
        }

        if let Some((telemetry, now_fn)) = tracing {
            router.instrument_traces(&telemetry, "agent", move || now_fn());
        }

        let listener = network
            .listen(&address)
            .map_err(|e| CoreError::WorkflowViolation(e.to_string()))?;
        let handle = serve(listener, PlainUpgrade, router);
        Ok(HostAgent {
            state,
            handle,
            address,
        })
    }

    pub fn requests_served(&self) -> u64 {
        self.handle.requests()
    }
}

// ---------------------------------------------------------------------------
// Remote orchestration (the VM driving agents over the fabric)
// ---------------------------------------------------------------------------

fn connect_agent(
    network: &Network,
    host_id: &str,
) -> Result<vnfguard_net::server::HttpClient<vnfguard_net::stream::Duplex>, CoreError> {
    let mut stream = network
        .connect_from("vm", &format!("agent:{host_id}"))
        .map_err(|e| CoreError::HostUnreachable(format!("agent:{host_id}: {e}")))?;
    stream.set_read_timeout(Some(AGENT_READ_TIMEOUT));
    Ok(vnfguard_net::server::HttpClient::new(stream))
}

/// Drive the full host attestation (steps 1–2) against a remote agent
/// through any [`AttestationBackend`]. Time comes from the manager's
/// injected clock.
///
/// When the backend reports itself [`Availability::Unavailable`]
/// (circuit open), no fresh appraisal is possible; the call falls back to
/// [`VmService::degraded_host_verdict`] — policy-gated reuse of
/// the cached verdict, audit-logged as `DegradedVerdict`.
pub fn remote_attest_host(
    vm: &VmService,
    backend: &mut dyn AttestationBackend,
    network: &Network,
    host_id: &str,
) -> Result<vnfguard_ima::appraisal::Verdict, CoreError> {
    if backend.availability() == Availability::Unavailable {
        return vm.degraded_host_verdict(host_id);
    }
    let telemetry = vm.telemetry();
    // Each `vm.*` call locks its shard only for the duration of the
    // manager work; the agent hop below runs with no shard lock held.
    let challenge = vm.begin_host_attestation(host_id)?;
    answering(vm, challenge.id, || {
        let mut client = connect_agent(network, host_id)?;
        let response = {
            let _span = telemetry.span("vm", "agent_attest", vm.clock().now());
            client
                .request(
                    &Request::post("/agent/attest")
                        .with_json(&Json::object().with("nonce", base64::encode(&challenge.nonce))),
                )
                .map_err(|e| CoreError::HostUnreachable(format!("agent:{host_id}: {e}")))?
        };
        if !response.status.is_success() {
            return Err(CoreError::AttestationFailed(format!(
                "agent returned {}",
                response.status.code()
            )));
        }
        let body = response
            .parse_json()
            .map_err(|e| CoreError::Encoding(e.to_string()))?;
        let evidence_bytes = b64_field(&body, "evidence").map_err(CoreError::Encoding)?;
        let evidence = HostEvidence::decode(&evidence_bytes)?;
        vm.complete_host_attestation(backend, challenge.id, &evidence)
    })
}

/// The rest of a handshake that issued challenge `challenge_id`, up to the
/// step that answers it. On any failure the challenge is withdrawn (a
/// no-op once the answering step consumed it), so an agent error, a bad
/// reply or a shed request leaves no challenge outstanding.
fn answering<T>(
    vm: &VmService,
    challenge_id: u64,
    rest: impl FnOnce() -> Result<T, CoreError>,
) -> Result<T, CoreError> {
    rest().inspect_err(|_| vm.withdraw_challenge(challenge_id))
}

/// Drive VNF enrollment (steps 3–5) against a remote agent through any
/// [`AttestationBackend`]. Time comes from the manager's injected clock.
///
/// Credential issuance has no degraded mode: when the attestation backend
/// is unavailable the call fails fast and closed with
/// [`CoreError::ServiceUnavailable`]. Delivery uses the two-phase
/// prepare → commit protocol: if the wrapped bundle cannot be confirmed
/// delivered, the issued certificate is revoked and the enrollment rolled
/// back, so no half-provisioned state survives a mid-transfer fault.
pub fn remote_enroll_vnf(
    vm: &VmService,
    backend: &mut dyn AttestationBackend,
    network: &Network,
    host_id: &str,
    vnf_name: &str,
    controller_cn: &str,
) -> Result<vnfguard_pki::Certificate, CoreError> {
    if backend.availability() == Availability::Unavailable {
        return Err(CoreError::ServiceUnavailable(format!(
            "attestation service unavailable; refusing to enroll {vnf_name}"
        )));
    }
    let telemetry = vm.telemetry();
    // Shard locks are scoped inside each `vm.*` call: both agent hops in
    // this flow run with no shard lock held.
    let challenge = vm.begin_vnf_attestation(host_id, vnf_name)?;
    let (mut client, (serial, wrapped, certificate)) = answering(vm, challenge.id, || {
        let mut client = connect_agent(network, host_id)?;

        // Step 3: challenge the enclave through the agent.
        let response = {
            let _span = telemetry.span("vm", "agent_vnf_attest", vm.clock().now());
            client
                .request(
                    &Request::post(&format!("/agent/vnf/{vnf_name}/attest")).with_json(
                        &Json::object()
                            .with("nonce", base64::encode(&challenge.nonce))
                            .with("basename", base64::encode(&challenge.nonce)),
                    ),
                )
                .map_err(|e| CoreError::HostUnreachable(format!("agent:{host_id}: {e}")))?
        };
        if !response.status.is_success() {
            return Err(CoreError::AttestationFailed(format!(
                "agent returned {}",
                response.status.code()
            )));
        }
        let body = response
            .parse_json()
            .map_err(|e| CoreError::Encoding(e.to_string()))?;
        let quote = b64_field(&body, "quote").map_err(CoreError::Encoding)?;
        let provisioning_key =
            b64_array32(&body, "provisioning_key").map_err(CoreError::Encoding)?;

        // Steps 4-5: verify + generate + wrap (prepare), deliver through
        // the agent, and only then commit the enrollment.
        let prepared = vm.prepare_vnf_enrollment(
            backend,
            challenge.id,
            &quote,
            &provisioning_key,
            controller_cn,
        )?;
        Ok((client, prepared))
    })?;
    let delivery = {
        let _span = telemetry.span("vm", "agent_provision", vm.clock().now());
        client
            .request(
                &Request::post(&format!("/agent/vnf/{vnf_name}/provision"))
                    .with_json(&Json::object().with("wrapped", base64::encode(&wrapped))),
            )
            .map_err(|e| e.to_string())
            .and_then(|response| {
                if response.status.is_success() {
                    Ok(())
                } else {
                    Err(format!("agent returned {}", response.status.code()))
                }
            })
    };
    match delivery {
        Ok(()) => {
            vm.commit_vnf_enrollment(serial)?;
            Ok(certificate)
        }
        Err(reason) => {
            vm.abort_vnf_enrollment(serial, &reason)?;
            Err(CoreError::ProvisioningRolledBack(format!(
                "{vnf_name} serial {serial}: {reason}"
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// The VM's operator API
// ---------------------------------------------------------------------------

/// Map a manager error to an API error: a halted (crashed) or fenced
/// manager is a zombie, and every route reports it as `503` with the
/// machine-readable code `"fenced"` so clients can tell zombie rejection
/// from overload; other errors fall through to the route's own mapping.
fn fenced_or(error: CoreError, fallback: impl FnOnce(CoreError) -> ApiError) -> ApiError {
    match &error {
        CoreError::VmCrashed(_) => ApiError::unavailable(error.to_string()).with_code("fenced"),
        CoreError::ServiceUnavailable(detail) if detail.contains("fenced") => {
            ApiError::unavailable(error.to_string()).with_code("fenced")
        }
        // Admission shed: 503 `"overloaded"` with the retry hint in both
        // the body and a `retry-after` header, distinct from `"fenced"`.
        CoreError::Overloaded {
            retry_after_secs, ..
        } => ApiError::overloaded(error.to_string(), *retry_after_secs),
        // Budget ran out mid-request: 504 `"deadline"`, no retry hint —
        // the caller's own (refreshed) budget decides what happens next.
        CoreError::DeadlineExceeded(_) => ApiError::deadline(error.to_string()),
        _ => fallback(error),
    }
}

/// Serve the Verification Manager's operator API on the fabric.
///
/// Endpoints:
/// - `POST /vm/hosts/:id/attest` → `{verdict}`
/// - `POST /vm/hosts/:id/vnfs/:name/enroll` → `{serial, subject}`
/// - `POST /vm/revoke` `{serial, reason}` → `{}`
/// - `POST /vm/renew` `{serial, provisioning_key: b64}` → `{wrapped: b64,
///   serial, subject}` — the lightweight renewal path: re-issues a live
///   credential against the cached attestation verdict, without the
///   six-step protocol (403 when the verdict is stale)
/// - `POST /vm/rotate` → `{epoch, drain_deadline}` — rotate the CA key,
///   cross-signing the new root with the outgoing key
/// - `GET  /vm/ca` → `{certificate: b64, epoch, cross_signed?: b64,
///   chain: [{epoch, root: b64, cross_signed: b64}], previous: [b64],
///   drain_deadline?}` — everything a relying party needs to verify a
///   rotation handover and run the dual-trust window; `chain` carries one
///   entry per rotation so a monitor that missed intermediate epochs can
///   walk trust forward instead of wedging
/// - `GET  /vm/crl` → `{crl: b64, crl_number}` — re-serves the most
///   recently issued numbered CRL; a fresh one is minted (journaled,
///   monotonic) only when revocations, a rotation, or expiry obsoleted
///   the cached copy, so polling neither grows the WAL nor burns numbers
/// - `GET  /vm/lifecycle` → credential-estate posture (active/expiring
///   counts, CRL age, CA epoch, drain deadline)
/// - `GET  /vm/status` → summary counts
/// - `GET  /vm/recovery` → `{recovered}` plus the last recovery report and
///   sealed-store occupancy, for operators auditing a crash restart
/// - `GET  /vm/replication` → role (`primary`/`fenced`/`unreplicated`),
///   fencing epoch, and per-standby ack high-water mark and lag (records
///   and seconds); reading refreshes the replication lag gauges
/// - `GET  /vm/metrics` → Prometheus text exposition of every registered
///   metric in the manager's telemetry bundle
/// - `GET  /vm/events?since=N` → journal events with `seq > N` (use the
///   returned `next_seq` as the next `since` cursor)
/// - `GET  /vm/traces` → index of assembled distributed traces
/// - `GET  /vm/traces/{trace_id}` → one trace as a nested span tree
///   (append `?format=chrome` for Chrome `trace_event` JSON or
///   `?format=ascii` for the waterfall rendering)
///
/// The router itself is instrumented: every dispatch bumps
/// `vnfguard_core_api_requests_total`, every non-2xx response
/// `vnfguard_core_api_request_errors_total`. Workflow timestamps come from
/// the manager's injected clock, which also anchors each request's
/// `x-vnfguard-deadline` budget in the request scope. Admission gates, IAS
/// retries and replication waits check that budget; the diagnostic routes
/// (health, metrics, traces, events) reach none of them, so they answer
/// under any budget.
pub fn serve_vm_api(
    network: &Network,
    address: &str,
    vm: VmService,
    ias: Arc<Mutex<dyn QuoteVerifier + Send>>,
    controller_cn: &str,
) -> Result<ServerHandle, CoreError> {
    let mut router = Router::new();
    let controller_cn = controller_cn.to_string();
    let telemetry = vm.telemetry();
    let core = telemetry.namespace("core");
    router.instrument(
        core.counter("api_requests_total", &[]),
        core.counter("api_request_errors_total", &[]),
    );
    let clock = vm.clock();
    router.instrument_traces(&telemetry, "vm_api", move || clock.now());

    // Both evidence-carrying routes dispatch through a MultiBackend built
    // per request (two Arc clones): SNP evidence self-describes and goes
    // to the service's offline appraiser, everything else rides the IAS
    // path exactly as before.
    let snp = vm.snp_verifier().cloned();
    {
        let vm = vm.clone();
        let ias = ias.clone();
        let snp = snp.clone();
        let network = network.clone();
        router.post_api("/vm/hosts/:id/attest", move |_, params| {
            let host_id = params.get("id").unwrap_or("");
            let mut backend = MultiBackend::new(ias.clone(), snp.clone());
            let verdict = remote_attest_host(&vm, &mut backend, &network, host_id)
                .map_err(|e| fenced_or(e, |e| ApiError::forbidden(e.to_string())))?;
            Ok(Response::json(
                Status::Ok,
                &Json::object().with("verdict", format!("{verdict:?}")),
            ))
        });
    }
    {
        let vm = vm.clone();
        let ias = ias.clone();
        let snp = snp.clone();
        let network = network.clone();
        let controller_cn = controller_cn.clone();
        router.post_api("/vm/hosts/:id/vnfs/:name/enroll", move |_, params| {
            let host_id = params.get("id").unwrap_or("");
            let vnf_name = params.get("name").unwrap_or("");
            let mut backend = MultiBackend::new(ias.clone(), snp.clone());
            let cert = remote_enroll_vnf(
                &vm,
                &mut backend,
                &network,
                host_id,
                vnf_name,
                &controller_cn,
            )
            .map_err(|e| fenced_or(e, |e| ApiError::forbidden(e.to_string())))?;
            Ok(Response::json(
                Status::Ok,
                &Json::object()
                    .with("serial", cert.serial() as i64)
                    .with("subject", cert.subject_cn()),
            ))
        });
    }
    {
        let vm = vm.clone();
        router.post_api("/vm/revoke", move |request, _| {
            let body = api_json(request)?;
            let serial = body
                .get("serial")
                .and_then(Json::as_i64)
                .ok_or_else(|| ApiError::bad_request("missing 'serial'"))?;
            vm.revoke_credential(
                serial as u64,
                vnfguard_pki::crl::RevocationReason::KeyCompromise,
            )
            .map_err(|e| fenced_or(e, |e| ApiError::not_found(e.to_string())))?;
            Ok(Response::json(
                Status::Ok,
                &Json::object().with("revoked", true),
            ))
        });
    }
    {
        let vm = vm.clone();
        let controller_cn = controller_cn.clone();
        router.post_api("/vm/renew", move |request, _| {
            let body = api_json(request)?;
            let serial = body
                .get("serial")
                .and_then(Json::as_i64)
                .ok_or_else(|| ApiError::bad_request("missing 'serial'"))?;
            let provisioning_key =
                b64_array32(&body, "provisioning_key").map_err(ApiError::bad_request)?;
            let (wrapped, cert) = vm
                .renew_vnf_credential(serial as u64, &provisioning_key, &controller_cn)
                .map_err(|e| {
                    // A shed or expired renewal must not wait for the cert's
                    // renewal window to come around again: park this serial on
                    // a jittered backoff so the next lifecycle sweep retries
                    // it off-peak instead of rejoining the stampede.
                    match &e {
                        CoreError::Overloaded {
                            retry_after_secs, ..
                        } => vm.note_renewal_refused(serial as u64, *retry_after_secs),
                        CoreError::DeadlineExceeded(_) => vm.note_renewal_refused(serial as u64, 1),
                        _ => {}
                    }
                    fenced_or(e, |e| match e {
                        CoreError::WorkflowViolation(_) => ApiError::not_found(e.to_string()),
                        _ => ApiError::forbidden(e.to_string()),
                    })
                })?;
            Ok(Response::json(
                Status::Ok,
                &Json::object()
                    .with("wrapped", base64::encode(&wrapped))
                    .with("serial", cert.serial() as i64)
                    .with("subject", cert.subject_cn()),
            ))
        });
    }
    {
        let vm = vm.clone();
        router.post_api("/vm/rotate", move |_, _| {
            let rotation = vm
                .rotate_ca()
                .map_err(|e| fenced_or(e, |e| ApiError::forbidden(e.to_string())))?;
            Ok(Response::json(
                Status::Ok,
                &Json::object()
                    .with("epoch", rotation.epoch as i64)
                    .with("drain_deadline", rotation.drain_deadline as i64),
            ))
        });
    }
    {
        let vm = vm.clone();
        router.get_api("/vm/ca", move |_, _| {
            let mut body = Json::object()
                .with("certificate", base64::encode(&vm.ca_certificate().encode()))
                .with("epoch", vm.ca_epoch() as i64);
            if let Some(cross) = vm.ca_cross_signed() {
                body = body.with("cross_signed", base64::encode(&cross.encode()));
            }
            let chain: Vec<Json> = vm
                .ca_rotation_chain()
                .into_iter()
                .map(|(epoch, root, cross)| {
                    Json::object()
                        .with("epoch", epoch as i64)
                        .with("root", base64::encode(&root.encode()))
                        .with("cross_signed", base64::encode(&cross.encode()))
                })
                .collect();
            body = body.with("chain", chain);
            let previous: Vec<Json> = vm
                .ca_previous_roots()
                .iter()
                .map(|c| Json::from(base64::encode(&c.encode())))
                .collect();
            body = body.with("previous", previous);
            if let Some(deadline) = vm.rotation_drain_deadline() {
                body = body.with("drain_deadline", deadline as i64);
            }
            Ok(Response::json(Status::Ok, &body))
        });
    }
    {
        let vm = vm.clone();
        router.get_api("/vm/crl", move |_, _| {
            let crl = vm
                .latest_crl()
                .map_err(|e| fenced_or(e, |e| ApiError::forbidden(e.to_string())))?;
            Ok(Response::json(
                Status::Ok,
                &Json::object()
                    .with("crl", base64::encode(&crl.encode()))
                    .with("crl_number", crl.crl_number as i64),
            ))
        });
    }
    {
        let vm = vm.clone();
        router.get_api("/vm/lifecycle", move |_, _| {
            let status = vm
                .lifecycle_status_admitted()
                .map_err(|e| fenced_or(e, |e| ApiError::unavailable(e.to_string())))?;
            let mut body = Json::object()
                .with("at", status.at as i64)
                .with("active", status.active as i64)
                .with("expiring", status.expiring as i64)
                .with("epoch", status.epoch as i64)
                .with("crl_number", status.crl_number as i64);
            if let Some(age) = status.crl_age_secs {
                body = body.with("crl_age_secs", age as i64);
            }
            if let Some(deadline) = status.drain_deadline {
                body = body.with("drain_deadline", deadline as i64);
            }
            Ok(Response::json(Status::Ok, &body))
        });
    }
    {
        let vm = vm.clone();
        router.get_api("/vm/status", move |_, _| {
            Ok(Response::json(
                Status::Ok,
                &Json::object()
                    .with("issued", vm.issued_count() as i64)
                    .with("enrollments", vm.enrollments().count() as i64)
                    .with("events", vm.events().len() as i64),
            ))
        });
    }
    {
        let vm = vm.clone();
        router.get_api("/vm/recovery", move |_, _| {
            let report = vm.recovery_report();
            let mut body = Json::object().with("recovered", report.is_some());
            if let Some(report) = report {
                body = body
                    .with("generation", report.generation as i64)
                    .with("recovered_at", report.at as i64)
                    .with("from_snapshot", report.from_snapshot)
                    .with("truncated_tail", report.truncated_tail)
                    .with("replayed_records", report.replayed_records as i64)
                    .with("enrollments_restored", report.enrollments_restored as i64)
                    .with("pending_restored", report.pending_restored as i64)
                    .with("revocations_restored", report.revocations_restored as i64)
                    .with("rotations_restored", report.rotations_restored as i64)
                    .with("rotation_rolled_back", report.rotation_rolled_back)
                    .with("orphans_aborted", report.orphans_aborted as i64)
                    .with("notices_requeued", report.notices_requeued as i64);
            }
            if let Some(stats) = vm.store_stats() {
                body = body.with(
                    "store",
                    Json::object()
                        .with("log_frames", stats.log_frames as i64)
                        .with("log_bytes", stats.log_bytes as i64)
                        .with("compactions", stats.compactions as i64)
                        .with("has_snapshot", stats.has_snapshot),
                );
            }
            Ok(Response::json(Status::Ok, &body))
        });
    }
    {
        let vm = vm.clone();
        router.get_api("/vm/replication", move |_, _| {
            // Reading the status refreshes the replication gauges, so a
            // metrics scrape right after this sees current lag numbers.
            let body = match vm.replication_status() {
                None => Json::object().with("role", "unreplicated"),
                Some(status) => replication_json(&status),
            };
            Ok(Response::json(Status::Ok, &body))
        });
    }
    {
        let vm = vm.clone();
        router.get_api("/vm/health", move |_, _| {
            Ok(Response::json(
                Status::Ok,
                &health_json(&vm.health_snapshot()),
            ))
        });
    }
    {
        let telemetry = telemetry.clone();
        router.get_api("/vm/metrics", move |_, _| {
            Ok(Response::text(Status::Ok, &telemetry.render_prometheus()))
        });
    }
    {
        let telemetry = telemetry.clone();
        router.get_api("/vm/traces", move |_, _| {
            let traces: Json = telemetry
                .traces()
                .summaries()
                .iter()
                .map(|summary| {
                    Json::object()
                        .with("trace_id", format!("{:032x}", summary.trace_id))
                        .with("root", summary.root_name.as_str())
                        .with("spans", summary.span_count as i64)
                        .with("annotations", summary.annotation_count as i64)
                        .with("started_at", summary.started_at as i64)
                        .with("duration_micros", summary.duration_micros as i64)
                })
                .collect();
            Ok(Response::json(
                Status::Ok,
                &Json::object()
                    .with("traces", traces)
                    .with("dropped", telemetry.traces().dropped() as i64),
            ))
        });
    }
    {
        let telemetry = telemetry.clone();
        router.get_api("/vm/traces/:id", move |request, params| {
            let raw = params.get("id").unwrap_or("");
            let trace_id = u128::from_str_radix(raw, 16)
                .map_err(|_| ApiError::bad_request("trace id must be hex"))?;
            let spans = telemetry.traces().trace(trace_id);
            if spans.is_empty() {
                return Err(ApiError::not_found(format!("no trace {raw}")));
            }
            match request.query_param("format") {
                None => Ok(Response::json(Status::Ok, &trace_tree_json(raw, &spans))),
                Some("chrome") => {
                    let body = telemetry
                        .traces()
                        .render_chrome(trace_id)
                        .unwrap_or_else(|| "[]".to_string());
                    let mut response = Response::new(Status::Ok);
                    response.body = body.into_bytes();
                    response
                        .headers
                        .insert("content-type".into(), "application/json".into());
                    Ok(response)
                }
                Some("ascii") => {
                    let body = telemetry
                        .traces()
                        .render_waterfall(trace_id)
                        .unwrap_or_default();
                    Ok(Response::text(Status::Ok, &body))
                }
                Some(other) => Err(ApiError::bad_request(format!(
                    "unknown format {other:?}; expected 'chrome' or 'ascii'"
                ))),
            }
        });
    }
    {
        let telemetry = telemetry.clone();
        router.get_api("/vm/events", move |request, _| {
            let since = match request.query_param("since") {
                Some(raw) => raw.parse::<u64>().map_err(|_| {
                    ApiError::bad_request("'since' must be an integer sequence number")
                })?,
                None => 0,
            };
            let journal = telemetry.journal();
            let events: Json = journal
                .since(since)
                .iter()
                .map(|e| {
                    Json::object()
                        .with("seq", e.seq as i64)
                        .with("time", e.time as i64)
                        .with("kind", e.kind.as_str())
                        .with("detail", e.detail.as_str())
                })
                .collect();
            Ok(Response::json(
                Status::Ok,
                &Json::object()
                    .with("events", events)
                    .with("next_seq", journal.next_seq() as i64),
            ))
        });
    }

    let listener = network
        .listen(address)
        .map_err(|e| CoreError::WorkflowViolation(e.to_string()))?;
    Ok(serve(listener, PlainUpgrade, router))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::TestbedBuilder;

    /// A handshake that fails after its challenge was issued withdraws the
    /// challenge: enrollments of VNFs the agent does not run and
    /// attestations of a host no agent serves leave none outstanding.
    #[test]
    fn failed_handshakes_leave_no_challenge_outstanding() {
        let mut tb = TestbedBuilder::new(b"abandoned challenges").build();
        tb.attest_host(0).unwrap();
        let state = tb.take_agent_state(HashMap::new(), None);
        let _agent = HostAgent::serve(&tb.network, state).unwrap();
        let vm = tb.vm_service();
        for i in 0..50 {
            let unknown = format!("vnf-unknown-{i}");
            let refused =
                remote_enroll_vnf(&vm, &mut tb.ias, &tb.network, "host-0", &unknown, "ctl");
            assert!(
                matches!(refused, Err(CoreError::AttestationFailed(_))),
                "{refused:?}"
            );
        }
        let unreachable = remote_attest_host(&vm, &mut tb.ias, &tb.network, "host-9");
        assert!(
            matches!(unreachable, Err(CoreError::HostUnreachable(_))),
            "{unreachable:?}"
        );
        let outstanding = vm.handshake(0, |handshake| handshake.outstanding_challenges());
        assert_eq!(outstanding, 0, "failed handshakes left challenges behind");
    }
}
