//! Fleet health plane: the controller-side monitor that scrapes every
//! node's health surface and folds the results into one operator view.
//!
//! The [`FleetMonitor`] follows the same *pull-based* discipline as the
//! CRL [`LifecycleMonitor`](crate::lifecycle::LifecycleMonitor): the
//! controller polls `GET /vm/health` on the primary, `GET /standby/health`
//! on each standby (served by [`serve_standby_health`] — standbys speak
//! the framed replication protocol, so their health gets its own tiny
//! HTTP endpoint), and `GET /agent/health` on each container host. A
//! partitioned node degrades to its **last good view, marked stale** —
//! the monitor never wedges on an unreachable peer, because an outage is
//! exactly when the cockpit must stay responsive.
//!
//! Cross-node aggregation is *exact*: per-workclass latency histograms
//! arrive as full log₂ bucket vectors and merge bucket-by-bucket
//! ([`HistogramSnapshot::merge`]), so fleet quantiles are computed over
//! the union distribution rather than averaged per-node percentiles —
//! averaging percentiles is the classic observability mistake this module
//! exists to avoid. Exemplar trace ids survive the merge, so a fleet-wide
//! tail-latency number still links back to `GET /vm/traces/{id}`.
//!
//! [`serve_fleet_api`] exposes the merged view as `GET /fleet/status`
//! (JSON, or `?format=ascii` for the operator cockpit).

use crate::replication::StandbyProbe;
use crate::CoreError;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use vnfguard_controller::SimClock;
use vnfguard_encoding::Json;
use vnfguard_net::fabric::Network;
use vnfguard_net::http::{Request, Response, Status};
use vnfguard_net::rest::Router;
use vnfguard_net::server::{serve, HttpClient, PlainUpgrade, ServerHandle};
use vnfguard_telemetry::{AlertState, Counter, Gauge, HistogramSnapshot, Telemetry};

/// What kind of node a fleet entry is — determines the path scraped and
/// how its summary line reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A Verification Manager serving `GET /vm/health`.
    Vm,
    /// A standby's health endpoint (`GET /standby/health`).
    Standby,
    /// A container-host agent (`GET /agent/health`).
    Agent,
}

impl NodeKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            NodeKind::Vm => "vm",
            NodeKind::Standby => "standby",
            NodeKind::Agent => "agent",
        }
    }

    fn path(&self) -> &'static str {
        match self {
            NodeKind::Vm => "/vm/health",
            NodeKind::Standby => "/standby/health",
            NodeKind::Agent => "/agent/health",
        }
    }
}

/// One scraped node: its address plus the last good document and
/// staleness bookkeeping.
struct NodeRecord {
    name: String,
    kind: NodeKind,
    addr: String,
    last_good: Option<Json>,
    observed_at: Option<u64>,
    stale_since: Option<u64>,
    failures: u64,
}

/// One node's row in a [`FleetStatus`].
#[derive(Debug, Clone)]
pub struct NodeStatus {
    pub name: String,
    pub kind: NodeKind,
    pub addr: String,
    /// The most recent scrape succeeded.
    pub reachable: bool,
    /// When the last good document was obtained (simulated seconds).
    pub observed_at: Option<u64>,
    /// Set while the node is unreachable: when it went dark.
    pub stale_since: Option<u64>,
    /// Consecutive or cumulative scrape failures.
    pub failures: u64,
    /// Attestation backend the node advertises (`"sgx"` / `"snp"` from a
    /// host agent's `GET /agent/health`); `None` for nodes that are not
    /// TEE hosts or were never scraped.
    pub backend: Option<String>,
    /// Human-oriented one-liner derived from the last good document.
    pub summary: String,
}

/// Fleet-merged latency for one workclass (union distribution).
#[derive(Debug, Clone)]
pub struct FleetLatency {
    pub class: String,
    pub histogram: HistogramSnapshot,
}

/// One SLO alert as reported by a VM node.
#[derive(Debug, Clone)]
pub struct FleetAlert {
    /// Which node reported it.
    pub node: String,
    pub slo: String,
    pub workclass: String,
    pub state: AlertState,
    pub fast_burn_milli: i64,
    pub slow_burn_milli: i64,
    /// Hex trace ids resolvable via `GET /vm/traces/{id}`.
    pub exemplar_trace_ids: Vec<String>,
}

/// Fleet-level availability for one workclass, summed across VM nodes
/// over the fast burn window.
#[derive(Debug, Clone)]
pub struct FleetSlo {
    pub workclass: String,
    pub fast_good: u64,
    pub fast_bad: u64,
    /// `good / (good + bad)` in milli-units; 1000 when no traffic.
    pub availability_milli: i64,
    /// Worst alert state any node reports for this workclass.
    pub worst_state: AlertState,
}

/// The merged fleet view served by `GET /fleet/status`.
#[derive(Debug, Clone)]
pub struct FleetStatus {
    /// Simulated time the view was assembled.
    pub at: u64,
    pub nodes: Vec<NodeStatus>,
    pub latency: Vec<FleetLatency>,
    pub alerts: Vec<FleetAlert>,
    pub slos: Vec<FleetSlo>,
    /// Nodes currently marked stale.
    pub stale_nodes: usize,
    /// Host-agent population per attestation backend (label → count),
    /// so a mixed SGX+SNP fleet reads at a glance.
    pub backend_counts: Vec<(String, usize)>,
}

/// Controller-side fleet scraper. Pull-based: `scrape` polls every
/// registered node once and returns the merged [`FleetStatus`]; nodes
/// that fail to answer keep their last good view, marked stale.
pub struct FleetMonitor {
    network: Network,
    clock: SimClock,
    origin: String,
    nodes: Vec<NodeRecord>,
    scrapes: Counter,
    scrape_failures: Counter,
    stale_gauge: Gauge,
}

impl FleetMonitor {
    /// A monitor scraping on behalf of `origin` (the fabric endpoint name
    /// its connections originate from).
    pub fn new(
        network: Network,
        clock: SimClock,
        origin: &str,
        telemetry: &Telemetry,
    ) -> FleetMonitor {
        let core = telemetry.namespace("core");
        FleetMonitor {
            network,
            clock,
            origin: origin.to_string(),
            nodes: Vec::new(),
            scrapes: core.counter("fleet_scrapes_total", &[]),
            scrape_failures: core.counter("fleet_scrape_failures_total", &[]),
            stale_gauge: core.gauge("fleet_stale_nodes", &[]),
        }
    }

    /// Register a Verification Manager node (scraped at `GET /vm/health`).
    pub fn add_vm(&mut self, name: &str, addr: &str) {
        self.add(name, NodeKind::Vm, addr);
    }

    /// Register a standby health endpoint ([`serve_standby_health`]).
    pub fn add_standby(&mut self, name: &str, addr: &str) {
        self.add(name, NodeKind::Standby, addr);
    }

    /// Register a container-host agent (scraped at `GET /agent/health`).
    pub fn add_agent(&mut self, name: &str, addr: &str) {
        self.add(name, NodeKind::Agent, addr);
    }

    fn add(&mut self, name: &str, kind: NodeKind, addr: &str) {
        self.nodes.push(NodeRecord {
            name: name.to_string(),
            kind,
            addr: addr.to_string(),
            last_good: None,
            observed_at: None,
            stale_since: None,
            failures: 0,
        });
    }

    fn fetch(&self, addr: &str, path: &str) -> Result<Json, CoreError> {
        let stream = self
            .network
            .connect_from(&self.origin, addr)
            .map_err(|e| CoreError::ServiceUnavailable(format!("{addr}: {e}")))?;
        let mut client = HttpClient::new(stream);
        let response = client
            .request(&Request::get(path))
            .map_err(|e| CoreError::ServiceUnavailable(format!("{addr}{path}: {e}")))?;
        if !response.status.is_success() {
            return Err(CoreError::ServiceUnavailable(format!(
                "{addr}{path}: status {}",
                response.status.code()
            )));
        }
        response
            .parse_json()
            .map_err(|e| CoreError::Encoding(format!("{addr}{path}: {e}")))
    }

    /// Poll every registered node once and return the merged view. An
    /// unreachable node keeps its last good document and is marked stale
    /// from the first failed pass; the scrape itself always completes.
    pub fn scrape(&mut self) -> FleetStatus {
        let now = self.clock.now();
        self.scrapes.inc();
        for i in 0..self.nodes.len() {
            let (addr, path) = {
                let node = &self.nodes[i];
                (node.addr.clone(), node.kind.path())
            };
            match self.fetch(&addr, path) {
                Ok(doc) => {
                    let node = &mut self.nodes[i];
                    node.last_good = Some(doc);
                    node.observed_at = Some(now);
                    node.stale_since = None;
                }
                Err(_) => {
                    self.scrape_failures.inc();
                    let node = &mut self.nodes[i];
                    node.failures += 1;
                    node.stale_since.get_or_insert(now);
                }
            }
        }
        let status = self.status();
        self.stale_gauge.set(status.stale_nodes as i64);
        status
    }

    /// Assemble the fleet view from the last good documents without
    /// touching the network.
    pub fn status(&self) -> FleetStatus {
        let now = self.clock.now();
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut latency: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        let mut alerts: Vec<FleetAlert> = Vec::new();
        let mut slos: BTreeMap<String, FleetSlo> = BTreeMap::new();
        let mut backend_counts: BTreeMap<String, usize> = BTreeMap::new();
        for node in &self.nodes {
            let backend = node
                .last_good
                .as_ref()
                .and_then(|doc| doc.get("backend"))
                .and_then(Json::as_str)
                .map(str::to_string);
            if let Some(label) = &backend {
                *backend_counts.entry(label.clone()).or_insert(0) += 1;
            }
            nodes.push(NodeStatus {
                name: node.name.clone(),
                kind: node.kind,
                addr: node.addr.clone(),
                reachable: node.stale_since.is_none() && node.observed_at.is_some(),
                observed_at: node.observed_at,
                stale_since: node.stale_since,
                failures: node.failures,
                backend,
                summary: node
                    .last_good
                    .as_ref()
                    .map(|doc| summarize(node.kind, doc))
                    .unwrap_or_else(|| "never scraped".to_string()),
            });
            let doc = match (&node.last_good, node.kind) {
                (Some(doc), NodeKind::Vm) => doc,
                _ => continue,
            };
            if let Some(entries) = doc.get("latency").and_then(Json::as_array) {
                for entry in entries {
                    let class = entry
                        .get("class")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string();
                    let snapshot = entry
                        .get("histogram")
                        .map(histogram_from_json)
                        .unwrap_or_else(HistogramSnapshot::empty);
                    latency
                        .entry(class)
                        .or_insert_with(HistogramSnapshot::empty)
                        .merge(&snapshot);
                }
            }
            if let Some(entries) = doc.get("alerts").and_then(Json::as_array) {
                for entry in entries {
                    let alert = alert_from_json(&node.name, entry);
                    let slo = slos
                        .entry(alert.workclass.clone())
                        .or_insert_with(|| FleetSlo {
                            workclass: alert.workclass.clone(),
                            fast_good: 0,
                            fast_bad: 0,
                            availability_milli: 1000,
                            worst_state: AlertState::Ok,
                        });
                    if alert.state.code() > slo.worst_state.code() {
                        slo.worst_state = alert.state;
                    }
                    // Availability traffic comes from the availability SLO
                    // only — counting the latency SLO too would double the
                    // workclass's request volume.
                    if alert.slo.ends_with("-availability") {
                        slo.fast_good +=
                            entry.get("fast_good").and_then(Json::as_i64).unwrap_or(0) as u64;
                        slo.fast_bad +=
                            entry.get("fast_bad").and_then(Json::as_i64).unwrap_or(0) as u64;
                    }
                    alerts.push(alert);
                }
            }
        }
        for slo in slos.values_mut() {
            if let Some(milli) = (slo.fast_good * 1000).checked_div(slo.fast_good + slo.fast_bad) {
                slo.availability_milli = milli as i64;
            }
        }
        let stale_nodes = nodes.iter().filter(|n| n.stale_since.is_some()).count();
        FleetStatus {
            at: now,
            nodes,
            latency: latency
                .into_iter()
                .map(|(class, histogram)| FleetLatency { class, histogram })
                .collect(),
            alerts,
            slos: slos.into_values().collect(),
            stale_nodes,
            backend_counts: backend_counts.into_iter().collect(),
        }
    }
}

impl std::fmt::Debug for FleetMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetMonitor")
            .field("origin", &self.origin)
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

/// One-line human summary of a node's last good document.
fn summarize(kind: NodeKind, doc: &Json) -> String {
    match kind {
        NodeKind::Vm => {
            let shards = doc.get("shard_count").and_then(Json::as_i64).unwrap_or(0);
            let firing = doc
                .get("alerts")
                .and_then(Json::as_array)
                .map(|alerts| {
                    alerts
                        .iter()
                        .filter(|a| a.get("state").and_then(Json::as_str) == Some("firing"))
                        .count()
                })
                .unwrap_or(0);
            format!("{shards} shard(s), {firing} firing alert(s)")
        }
        NodeKind::Standby => {
            let epoch = doc.get("epoch").and_then(Json::as_i64).unwrap_or(0);
            let applied = doc
                .get("applied_records")
                .and_then(Json::as_i64)
                .unwrap_or(0);
            match doc.get("heartbeat_age_seconds").and_then(Json::as_i64) {
                Some(age) => {
                    format!("epoch {epoch}, applied {applied}, heartbeat {age}s ago")
                }
                None => format!("epoch {epoch}, applied {applied}, no heartbeat yet"),
            }
        }
        NodeKind::Agent => {
            let vnfs = doc
                .get("vnfs")
                .and_then(Json::as_array)
                .map(<[Json]>::len)
                .unwrap_or(0);
            let revoked = doc
                .get("revoked_serials")
                .and_then(Json::as_i64)
                .unwrap_or(0);
            format!("{vnfs} vnf(s), {revoked} revoked serial(s)")
        }
    }
}

/// Parse the histogram wire shape of `GET /vm/health` back into an exact
/// [`HistogramSnapshot`] — full bucket vector, count/sum/max, exemplars.
fn histogram_from_json(doc: &Json) -> HistogramSnapshot {
    let mut snapshot = HistogramSnapshot::empty();
    if let Some(buckets) = doc.get("buckets").and_then(Json::as_array) {
        for (i, bucket) in buckets.iter().enumerate() {
            let v = bucket.as_i64().unwrap_or(0) as u64;
            if i < snapshot.buckets.len() {
                snapshot.buckets[i] = v;
            }
        }
    }
    snapshot.count = doc.get("count").and_then(Json::as_i64).unwrap_or(0) as u64;
    snapshot.sum = doc.get("sum").and_then(Json::as_i64).unwrap_or(0) as u64;
    snapshot.max = doc.get("max").and_then(Json::as_i64).unwrap_or(0) as u64;
    if let Some(exemplars) = doc.get("exemplars").and_then(Json::as_array) {
        for exemplar in exemplars {
            let trace_id = exemplar
                .get("trace_id")
                .and_then(Json::as_str)
                .and_then(|hex| u128::from_str_radix(hex, 16).ok())
                .unwrap_or(0);
            snapshot.exemplars.push(vnfguard_telemetry::Exemplar {
                value: exemplar.get("value").and_then(Json::as_i64).unwrap_or(0) as u64,
                trace_id,
                bucket: exemplar.get("bucket").and_then(Json::as_i64).unwrap_or(0) as usize,
            });
        }
    }
    snapshot
}

fn alert_from_json(node: &str, entry: &Json) -> FleetAlert {
    let exemplar_trace_ids = entry
        .get("exemplar_trace_ids")
        .and_then(Json::as_array)
        .map(|ids| {
            ids.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    FleetAlert {
        node: node.to_string(),
        slo: entry
            .get("slo")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        workclass: entry
            .get("workclass")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        state: AlertState::from_code(entry.get("state_code").and_then(Json::as_i64).unwrap_or(2)),
        fast_burn_milli: entry
            .get("fast_burn_milli")
            .and_then(Json::as_i64)
            .unwrap_or(0),
        slow_burn_milli: entry
            .get("slow_burn_milli")
            .and_then(Json::as_i64)
            .unwrap_or(0),
        exemplar_trace_ids,
    }
}

/// Serialize a [`FleetStatus`] for `GET /fleet/status`.
pub fn fleet_json(status: &FleetStatus) -> Json {
    let nodes: Json = status
        .nodes
        .iter()
        .map(|n| {
            let mut entry = Json::object()
                .with("name", n.name.as_str())
                .with("kind", n.kind.as_str())
                .with("addr", n.addr.as_str())
                .with("reachable", n.reachable)
                .with("failures", n.failures as i64)
                .with("summary", n.summary.as_str());
            if let Some(backend) = &n.backend {
                entry = entry.with("backend", backend.as_str());
            }
            if let Some(at) = n.observed_at {
                entry = entry.with("observed_at", at as i64);
            }
            if let Some(at) = n.stale_since {
                entry = entry.with("stale_since", at as i64);
            }
            entry
        })
        .collect();
    let latency: Json = status
        .latency
        .iter()
        .map(|l| {
            let exemplars: Json = l
                .histogram
                .exemplars
                .iter()
                .map(|e| {
                    Json::object()
                        .with("value", e.value as i64)
                        .with("trace_id", format!("{:032x}", e.trace_id))
                })
                .collect();
            Json::object()
                .with("class", l.class.as_str())
                .with("count", l.histogram.count as i64)
                .with("p50_micros", l.histogram.quantile(0.50) as i64)
                .with("p99_micros", l.histogram.quantile(0.99) as i64)
                .with("max_micros", l.histogram.max as i64)
                .with("exemplars", exemplars)
        })
        .collect();
    let alerts: Json = status
        .alerts
        .iter()
        .map(|a| {
            let exemplars: Json = a
                .exemplar_trace_ids
                .iter()
                .map(|id| Json::from(id.as_str()))
                .collect();
            Json::object()
                .with("node", a.node.as_str())
                .with("slo", a.slo.as_str())
                .with("workclass", a.workclass.as_str())
                .with("state", a.state.as_str())
                .with("fast_burn_milli", a.fast_burn_milli)
                .with("slow_burn_milli", a.slow_burn_milli)
                .with("exemplar_trace_ids", exemplars)
        })
        .collect();
    let slos: Json = status
        .slos
        .iter()
        .map(|s| {
            Json::object()
                .with("workclass", s.workclass.as_str())
                .with("fast_good", s.fast_good as i64)
                .with("fast_bad", s.fast_bad as i64)
                .with("availability_milli", s.availability_milli)
                .with("worst_state", s.worst_state.as_str())
        })
        .collect();
    let backends = status
        .backend_counts
        .iter()
        .fold(Json::object(), |acc, (label, count)| {
            acc.with(label.as_str(), *count as i64)
        });
    Json::object()
        .with("at", status.at as i64)
        .with("stale_nodes", status.stale_nodes as i64)
        .with("backends", backends)
        .with("nodes", nodes)
        .with("latency", latency)
        .with("alerts", alerts)
        .with("slos", slos)
}

/// Render the ASCII operator cockpit (`GET /fleet/status?format=ascii`).
pub fn render_cockpit(status: &FleetStatus) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "vnfguard fleet cockpit @ {} — {} node(s), {} stale",
        status.at,
        status.nodes.len(),
        status.stale_nodes
    ));
    if !status.backend_counts.is_empty() {
        let populations: Vec<String> = status
            .backend_counts
            .iter()
            .map(|(label, count)| format!("{count} {label}"))
            .collect();
        out.push_str(&format!(" — hosts: {}", populations.join(", ")));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<18} {:<8} {:<8} {:<6} DETAIL\n",
        "NODE", "KIND", "BACKEND", "STATE"
    ));
    for node in &status.nodes {
        let state = match node.stale_since {
            Some(_) => "STALE",
            None if node.observed_at.is_some() => "ok",
            None => "-",
        };
        let mut detail = node.summary.clone();
        if let Some(since) = node.stale_since {
            detail.push_str(&format!(" (stale since {since})"));
        }
        out.push_str(&format!(
            "{:<18} {:<8} {:<8} {:<6} {}\n",
            node.name,
            node.kind.as_str(),
            node.backend.as_deref().unwrap_or("-"),
            state,
            detail
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<28} {:<8} {:>8} {:>8}  TRAFFIC(fast window)\n",
        "SLO", "STATE", "FASTx", "SLOWx"
    ));
    for alert in &status.alerts {
        out.push_str(&format!(
            "{:<28} {:<8} {:>8.2} {:>8.2}  ",
            alert.slo,
            alert.state.as_str(),
            alert.fast_burn_milli as f64 / 1000.0,
            alert.slow_burn_milli as f64 / 1000.0,
        ));
        if alert.exemplar_trace_ids.is_empty() {
            out.push_str("-\n");
        } else {
            out.push_str(&format!("trace {}\n", alert.exemplar_trace_ids[0]));
        }
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<16} {:>8} {:>10} {:>10} {:>10}\n",
        "WORKCLASS", "COUNT", "P50us", "P99us", "MAXus"
    ));
    for entry in &status.latency {
        out.push_str(&format!(
            "{:<16} {:>8} {:>10} {:>10} {:>10}\n",
            entry.class,
            entry.histogram.count,
            entry.histogram.quantile(0.50),
            entry.histogram.quantile(0.99),
            entry.histogram.max
        ));
    }
    for slo in &status.slos {
        out.push_str(&format!(
            "availability[{}] = {}.{:03} ({} good / {} bad, worst {})\n",
            slo.workclass,
            slo.availability_milli / 1000,
            slo.availability_milli % 1000,
            slo.fast_good,
            slo.fast_bad,
            slo.worst_state.as_str()
        ));
    }
    out
}

/// Serve one standby's replication state as `GET /standby/health`.
///
/// Standbys answer the framed replication protocol, not HTTP — this
/// wraps a [`StandbyProbe`] in the one extra endpoint the fleet monitor
/// needs. Heartbeat age is computed on the deployment clock at scrape
/// time, so a silent primary shows up as a growing number.
pub fn serve_standby_health(
    network: &Network,
    address: &str,
    probe: StandbyProbe,
    clock: SimClock,
) -> Result<ServerHandle, CoreError> {
    let mut router = Router::new();
    router.get_api("/standby/health", move |_, _| {
        let status = probe.status();
        let mut body = Json::object()
            .with("addr", status.addr.as_str())
            .with("epoch", status.epoch as i64)
            .with("next_seq", status.next_seq as i64)
            .with("applied_records", status.applied_records as i64)
            .with("snapshots_installed", status.snapshots_installed as i64)
            .with("fenced_rejections", status.fenced_rejections as i64);
        if let Some(at) = status.last_heartbeat_at {
            body = body.with("last_heartbeat_at", at as i64).with(
                "heartbeat_age_seconds",
                clock.now().saturating_sub(at) as i64,
            );
        }
        Ok(Response::json(Status::Ok, &body))
    });
    let listener = network
        .listen(address)
        .map_err(|e| CoreError::ServiceUnavailable(e.to_string()))?;
    Ok(serve(listener, PlainUpgrade, router))
}

/// Serve the merged fleet view at `address`:
///
/// - `GET /fleet/status` → [`fleet_json`]
/// - `GET /fleet/status?format=ascii` → [`render_cockpit`]
///
/// Each request runs one scrape pass, so the cockpit is always at most
/// one round-trip stale — and a partitioned node costs one failed
/// connect, not a hang.
pub fn serve_fleet_api(
    network: &Network,
    address: &str,
    monitor: Arc<Mutex<FleetMonitor>>,
) -> Result<ServerHandle, CoreError> {
    let mut router = Router::new();
    {
        let monitor = monitor.clone();
        router.get_api("/fleet/status", move |request, _| {
            let status = monitor.lock().scrape();
            match request.query_param("format") {
                Some("ascii") => Ok(Response::text(Status::Ok, &render_cockpit(&status))),
                _ => Ok(Response::json(Status::Ok, &fleet_json(&status))),
            }
        });
    }
    let listener = network
        .listen(address)
        .map_err(|e| CoreError::ServiceUnavailable(e.to_string()))?;
    Ok(serve(listener, PlainUpgrade, router))
}
