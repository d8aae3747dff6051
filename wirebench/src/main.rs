//! Wire-level credential benchmark.
//!
//! Stands up the distributed deployment (IAS, host agents, the VM's
//! operator API and the trusted-HTTPS controller, each a service on the
//! in-memory fabric) and drives one workload through it:
//!
//! - `onboard`: host attestation and VNF enrollment (the paper's steps 1–5);
//! - `lifecycle`: renewals, CRL polls and revocations on an enrolled fleet;
//! - `northbound`: in-enclave mutual TLS to the controller (step 6).
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload onboard --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
//! untraced and then traced and prints the per-layer metrics. The last line
//! of standard output is one JSON object; earlier lines are a readable
//! table. A failed output check makes the run exit non-zero.

mod deploy;
mod lifecycle;
mod northbound;
mod onboard;
mod outcome;
mod probes;
mod steal;
mod tracing;

use deploy::{build_repeated, Builds, Deployment};
use outcome::Outcome;
use probes::Probes;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use tracing::BenchTrace;
use wirebench::spans::{accounted_by_request, self_times_by_name, Span};
use wirebench::stats::{median, per, Summary, Tally};

/// Builds per run for the set-up time median. A build's CPU runs at
/// uneven speed on a shared machine (the same northbound build took 0.08
/// or 0.14 s, an onboard one 0.10 or 0.19 s, back to back, with no page
/// faults), so short set-ups repeat until they cover several seconds.
const SETUP_BUILDS: Builds = Builds {
    min: 3,
    seconds: 6.0,
};
/// Work per second of `--seconds`. Closed-loop phases run a fixed count,
/// never a fixed duration: state grows with every renewal and enrollment,
/// so a faster build run for a fixed time would carry a bigger state.
const ONBOARD_OPS_PER_SECOND: f64 = 50.0;
const LIFECYCLE_CLOSED_PER_SECOND: f64 = 60.0;
const NORTHBOUND_TURNS_PER_SECOND: f64 = 160.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Onboard,
    Lifecycle,
    Northbound,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "onboard" => Some(Workload::Onboard),
            "lifecycle" => Some(Workload::Lifecycle),
            "northbound" => Some(Workload::Northbound),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Onboard => "onboard",
            Workload::Lifecycle => "lifecycle",
            Workload::Northbound => "northbound",
        }
    }

    /// The operation behind `op_*` and the one behind `aux_ms`.
    fn ops(self) -> (&'static str, &'static str) {
        match self {
            Workload::Onboard => ("enroll", "attest"),
            Workload::Lifecycle => ("renew", "revoke"),
            Workload::Northbound => ("request", "handshake"),
        }
    }

    /// What `aux_ms` reports of the secondary operation's latencies: the
    /// p50, except on onboard.
    ///
    /// - onboard reports the interquartile mean of host attestations.
    ///   Attests fall in two modes, 3–4.5 ms and 5.5–8.5 ms (about 40 : 60,
    ///   by how they overlap the other connection's operations), and the
    ///   p50 of a run's 126 attests flipped between the modes from run to
    ///   run.
    /// - lifecycle reports revocations, not CRL polls. A poll finds the
    ///   cached CRL (~0.15 ms, mostly thread hand-offs) or, after a
    ///   revocation, re-mints it (~2.3 ms, a quarter of polls): the p50
    ///   fell among the cached polls and tracked how fast the machine woke
    ///   threads, and the p90 jumped out of the re-mint cluster whenever a
    ///   stall delayed a few polls. Both stay in the readable table.
    fn aux_of(self, s: &Summary) -> f64 {
        match self {
            Workload::Onboard => s.iqm,
            Workload::Lifecycle | Workload::Northbound => s.p50,
        }
    }

    /// The benchmark span that roots each main operation's trace.
    fn root_spans(self) -> &'static [&'static str] {
        match self {
            Workload::Onboard => &["client.enroll"],
            Workload::Lifecycle => &["client.renew"],
            Workload::Northbound => &["client.get_links", "client.push_flow"],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one pass measured, plus what the layers read at its end.
struct Pass {
    out: Outcome,
    setup: Vec<f64>,
    spans: Vec<Span>,
    layers: Layers,
}

/// Layer readings taken from the deployment before it is torn down.
#[derive(Default)]
struct Layers {
    compactions: f64,
    snapshot_bytes: f64,
    records_per_flush: f64,
    wal_append: Option<(f64, f64)>,
    probes: Probes,
}

fn run_pass(args: &Args, traced: bool, builds: Builds) -> Pass {
    let s = args.seconds;
    let seed = args.seed;
    match args.workload {
        Workload::Onboard => {
            let ops = (ONBOARD_OPS_PER_SECOND * s).round() as usize;
            let (dep, setup) = build_repeated(builds, seed, traced, onboard::prep(seed, ops));
            let bench = traced.then(|| BenchTrace::new(&dep.telemetry));
            let out = onboard::run(&dep, seed, bench.as_ref());
            finish_pass(&dep, out, setup, bench, traced)
        }
        Workload::Lifecycle => {
            let open = lifecycle::open_ops(s);
            let closed = (LIFECYCLE_CLOSED_PER_SECOND * s).round() as usize;
            let (dep, setup) = build_repeated(builds, seed, traced, lifecycle::prep(seed));
            let bench = traced.then(|| BenchTrace::new(&dep.telemetry));
            let out = lifecycle::run(&dep, seed, open, closed, bench.as_ref());
            finish_pass(&dep, out, setup, bench, traced)
        }
        Workload::Northbound => {
            let turns = (NORTHBOUND_TURNS_PER_SECOND * s).round() as usize;
            let (dep, setup) = build_repeated(builds, seed, traced, northbound::prep(seed));
            let bench = traced.then(|| BenchTrace::new(&dep.telemetry));
            let out = northbound::run(&dep, seed, turns, bench.as_ref());
            finish_pass(&dep, out, setup, bench, traced)
        }
    }
}

fn finish_pass<T>(
    dep: &Deployment<T>,
    out: Outcome,
    setup: Vec<f64>,
    bench: Option<BenchTrace>,
    traced: bool,
) -> Pass {
    let mut layers = Layers {
        compactions: dep.vm.store_stats().map_or(0, |s| s.compactions) as f64,
        snapshot_bytes: dep.media.snapshot().map_or(0, |s| s.len()) as f64,
        records_per_flush: records_per_flush(&dep.media.log()),
        ..Layers::default()
    };
    if traced {
        layers.wal_append = [
            "vnfguard_core_wal_append_micros",
            "vnfguard_core_wal_append_micros{shard=\"0\"}",
        ]
        .iter()
        .find_map(|name| dep.telemetry.metrics().histogram_snapshot(name))
        .filter(|h| h.count() > 0)
        .map(|h| (h.quantile(0.5) as f64, h.quantile(0.99) as f64));
        probes::wire(dep, &mut layers.probes);
    }
    let spans = bench.map(|b| b.log.take()).unwrap_or_default();
    Pass {
        out,
        setup,
        spans,
        layers,
    }
}

/// Records per device flush in the WAL tail since the last compaction
/// (group frames hold several records and cost one flush).
fn records_per_flush(log: &[u8]) -> f64 {
    let (mut flushes, mut records, mut at) = (0u64, 0u64, 0usize);
    while at + 5 <= log.len() {
        let len = u32::from_be_bytes(log[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
        let body = &log[(at + 5).min(log.len())..(at + 5 + len).min(log.len())];
        match log[at] {
            0xA5 => records += 1,
            0xA6 => {
                let mut i = 0;
                while i + 4 <= body.len() {
                    let n =
                        u32::from_be_bytes(body[i..i + 4].try_into().expect("4 bytes")) as usize;
                    i += 4 + n;
                    records += 1;
                }
            }
            _ => break,
        }
        flushes += 1;
        at += 5 + len + 4;
    }
    per(records as f64, flushes)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples: None,
    }
}

fn summary(out: &Outcome, kind: &str) -> Option<Summary> {
    out.samples.get(kind).and_then(|s| Summary::of(s))
}

/// The four end-to-end metrics every workload reports; `op` and `aux`
/// name the workload's main and secondary operation (see `Workload::ops`
/// and `Workload::aux_of`).
/// Tail percentiles move with every stall of a shared 2-core machine, so
/// the traced run reports them as the diagnostics `diag.op_p90_ms` and
/// `diag.op_p99_ms` instead.
fn end_to_end(w: Workload, pass: &Pass) -> Result<Vec<Metric>, String> {
    let (op, aux) = w.ops();
    let main = summary(&pass.out, op).ok_or_else(|| format!("no successful {op} samples"))?;
    let second = summary(&pass.out, aux).ok_or_else(|| format!("no successful {aux} samples"))?;
    let setup = median(&pass.setup).expect("at least one build");
    let mut metrics = vec![
        metric("setup_s", setup, "s"),
        metric("op_p50_ms", main.p50, "ms"),
        metric("ops_per_s", pass.out.throughput, "1/s"),
        metric("aux_ms", w.aux_of(&second), "ms"),
    ];
    metrics[0].samples = Some(pass.setup.len());
    metrics[1].samples = Some(main.count);
    metrics[3].samples = Some(second.count);
    Ok(metrics)
}

/// The workload's metrics under the names the design uses for them, each
/// with unit and sample count.
fn named_table(w: Workload, pass: &Pass) -> Vec<String> {
    let out = &pass.out;
    let mut rows = Vec::new();
    // (name suffix, operation, scale to the unit, unit, percentile)
    let rows_for: &[(&str, &str, f64, &str, u8)] = match w {
        Workload::Onboard => &[
            ("enroll_p50_ms", "enroll", 1.0, "ms", 50),
            ("enroll_p90_ms", "enroll", 1.0, "ms", 90),
            ("enroll_p99_ms", "enroll", 1.0, "ms", 99),
            ("attest_p50_ms", "attest", 1.0, "ms", 50),
        ],
        Workload::Lifecycle => &[
            ("renew_p50_ms", "renew", 1.0, "ms", 50),
            ("renew_p90_ms", "renew", 1.0, "ms", 90),
            ("renew_p99_ms", "renew", 1.0, "ms", 99),
            ("crl_p50_ms", "crl", 1.0, "ms", 50),
            ("crl_p90_ms", "crl", 1.0, "ms", 90),
            ("revoke_p50_ms", "revoke", 1.0, "ms", 50),
        ],
        Workload::Northbound => &[
            ("handshake_p50_ms", "handshake", 1.0, "ms", 50),
            ("handshake_p99_ms", "handshake", 1.0, "ms", 99),
            ("request_p50_us", "request", 1e3, "us", 50),
            ("request_p90_us", "request", 1e3, "us", 90),
            ("request_p99_us", "request", 1e3, "us", 99),
        ],
    };
    let p = w.name();
    for &(suffix, kind, scale, unit, q) in rows_for {
        let name = format!("{p}.{suffix}");
        let (value, n) = match summary(out, kind) {
            Some(s) => {
                let v = match q {
                    50 => Some(s.p50),
                    90 => s.p90,
                    _ => s.p99,
                };
                (v, s.count)
            }
            None => (None, 0),
        };
        rows.push(match value {
            Some(v) => format!("{name:<34} {:>12.4} {unit:<5} n={n}", v * scale),
            None => format!("{name:<34} {:>12} {unit:<5} n={n} (too few samples)", "-"),
        });
    }
    let throughput = match w {
        Workload::Onboard => "enroll_per_s",
        Workload::Lifecycle => "renew_per_s",
        Workload::Northbound => "requests_per_s",
    };
    let basis = match w {
        Workload::Lifecycle => out.samples.get("closed_renew").map_or(0, Vec::len),
        _ => out.samples.get(w.ops().0).map_or(0, Vec::len),
    };
    rows.push(format!(
        "{:<34} {:>12.4} {:<5} n={basis}",
        format!("{p}.{throughput}"),
        out.throughput,
        "ops/s"
    ));
    let setup = median(&pass.setup).unwrap_or(0.0);
    rows.push(format!(
        "{:<34} {:>12.4} {:<5} n={} {:.3?}",
        "setup_s",
        setup,
        "s",
        pass.setup.len(),
        pass.setup
    ));
    let (ratio, base) = out.tally.failed_ratio();
    rows.push(format!(
        "{:<34} {:>12} {:<5} failed share {ratio:.4} of {base}",
        format!("{p}.failed"),
        out.tally.failed,
        "ops"
    ));
    rows
}

/// Per-layer metrics from the traced pass, with the untraced pass as the
/// tracing-overhead baseline. Layers a workload bypasses read zero.
fn per_layer(w: Workload, plain: &Pass, traced: &Pass) -> Vec<Metric> {
    let out = &traced.out;
    let ops = out.acknowledged;
    let d = |k: &str| out.deltas.get(k).copied().unwrap_or(0.0);
    let selfs = self_times_by_name(&traced.spans);
    let self_med = |names: &[&str]| {
        let all: Vec<f64> = names
            .iter()
            .flat_map(|n| selfs.get(*n).cloned().unwrap_or_default())
            .collect();
        median(&all).unwrap_or(0.0)
    };
    let durations = |name: &str| {
        let all: Vec<f64> = traced
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .collect();
        median(&all).unwrap_or(0.0)
    };
    let probe = |name: &str| traced.layers.probes.get(name).copied().unwrap_or(0.0);
    let mut accounted = Vec::new();
    let mut roots = Vec::new();
    for root in w.root_spans() {
        for (total, covered) in accounted_by_request(&traced.spans, root) {
            roots.push(total as f64);
            accounted.push(covered as f64);
        }
    }
    let accounted_share = match (median(&accounted), median(&roots)) {
        (Some(a), Some(r)) if r > 0.0 => a / r,
        _ => 0.0,
    };
    let (op, _) = w.ops();
    let tail = summary(&plain.out, op);
    let overhead = match (summary(&plain.out, op), summary(out, op)) {
        (Some(a), Some(b)) => (b.p50 / a.p50 - 1.0) * 100.0,
        _ => 0.0,
    };
    let fetches = d("crl_fetches");
    let crl_hit = if fetches > 0.0 {
        1.0 - d("crls_issued") / fetches
    } else {
        0.0
    };
    let late = {
        let mut l = out.lateness.clone();
        l.sort_by(f64::total_cmp);
        if l.is_empty() {
            0.0
        } else {
            wirebench::stats::percentile_sorted(&l, 0.99)
        }
    };
    let wal = traced.layers.wal_append.unwrap_or((0.0, 0.0));
    let records_per_op = per(d("wal_records"), ops);
    vec![
        metric(
            "net.connections_per_op",
            per(d("connections"), ops),
            "count",
        ),
        metric("net.bytes_per_op", per(d("bytes"), ops), "B"),
        metric(
            "net.fresh_roundtrip_us",
            probe("net.fresh_roundtrip_us"),
            "us",
        ),
        metric(
            "net.keepalive_roundtrip_us",
            probe("net.keepalive_roundtrip_us"),
            "us",
        ),
        metric(
            "tls.client_handshake_us",
            probe("tls.client_handshake_us"),
            "us",
        ),
        metric(
            "tls.server_handshake_us",
            probe("tls.server_handshake_us"),
            "us",
        ),
        metric(
            "crypto.ed25519_keygen_us",
            probe("crypto.ed25519_keygen_us"),
            "us",
        ),
        metric(
            "crypto.ed25519_sign_us",
            probe("crypto.ed25519_sign_us"),
            "us",
        ),
        metric(
            "crypto.ed25519_verify_us",
            probe("crypto.ed25519_verify_us"),
            "us",
        ),
        metric("crypto.x25519_us", probe("crypto.x25519_us"), "us"),
        metric(
            "crypto.aes_gcm_us_per_kib",
            probe("crypto.aes_gcm_us_per_kib"),
            "us",
        ),
        metric(
            "crypto.aes_gcm_1kib_us",
            probe("crypto.aes_gcm_1kib_us"),
            "us",
        ),
        metric(
            "crypto.sha256_us_per_kib",
            probe("crypto.sha256_us_per_kib"),
            "us",
        ),
        metric("pki.issue_us", probe("pki.issue_us"), "us"),
        metric("pki.crl_issue_us", probe("pki.crl_issue_us"), "us"),
        metric("pki.validate_us", probe("pki.validate_us"), "us"),
        metric("sgx.ecalls_per_op", per(d("ecalls"), ops), "count"),
        metric("sgx.quote_us", probe("sgx.quote_us"), "us"),
        metric("vnf.provision_us", probe("vnf.provision_us"), "us"),
        metric("ias.roundtrip_us", durations("ias_roundtrip"), "us"),
        metric("ima.appraise_us", self_med(&["appraise"]), "us"),
        metric("core.enrollment_us", durations("vnf_enrollment"), "us"),
        metric("core.renewal_us", durations("credential_renewal"), "us"),
        metric(
            "core.host_attestation_us",
            durations("host_attestation"),
            "us",
        ),
        metric(
            "core.issue_certificate_us",
            self_med(&["issue_certificate"]),
            "us",
        ),
        metric(
            "core.wrap_credentials_us",
            self_med(&["wrap_credentials"]),
            "us",
        ),
        metric(
            "core.agent_hop_us",
            self_med(&["agent_attest", "agent_vnf_attest", "agent_provision"]),
            "us",
        ),
        metric("core.crl_cache_hit_ratio", crl_hit, "ratio"),
        metric("store.wal_append_p50_us", wal.0, "us"),
        metric("store.wal_append_p99_us", wal.1, "us"),
        metric("store.wal_records_per_op", records_per_op, "count"),
        metric(
            "store.flushes_per_op",
            if traced.layers.records_per_flush > 0.0 {
                records_per_op / traced.layers.records_per_flush
            } else {
                0.0
            },
            "count",
        ),
        metric("store.compactions", traced.layers.compactions, "count"),
        metric("store.snapshot_bytes", traced.layers.snapshot_bytes, "B"),
        metric(
            "controller.plain_get_us",
            probe("controller.plain_get_us"),
            "us",
        ),
        metric(
            "controller.plain_post_us",
            probe("controller.plain_post_us"),
            "us",
        ),
        metric(
            "encoding.renew_json_us",
            probe("encoding.renew_json_us"),
            "us",
        ),
        metric("harness.generator_late_ms", late, "ms"),
        metric("harness.accounted_share", accounted_share, "ratio"),
        metric("harness.tracing_overhead_pct", overhead, "%"),
        metric(
            "diag.op_p90_ms",
            tail.as_ref().and_then(|s| s.p90).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "diag.op_p99_ms",
            tail.as_ref().and_then(|s| s.p99).unwrap_or(0.0),
            "ms",
        ),
    ]
}

/// Self time per span name in the traced pass, largest first.
fn layer_table(spans: &[Span]) -> Vec<String> {
    let mut rows: Vec<(String, f64, usize)> = self_times_by_name(spans)
        .into_iter()
        .map(|(name, v)| (name, median(&v).unwrap_or(0.0), v.len()))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.into_iter()
        .map(|(name, med, n)| format!("  self {name:<28} p50 {med:>10.1} us  n={n}"))
        .collect()
}

fn write_spans(w: Workload, seed: u64, spans: &[Span]) {
    let dir = std::path::Path::new("wirebench").join("out");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"request\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            s.request, s.id, s.name, s.start_us, s.end_us
        );
    }
    let _ = std::fs::write(dir.join(format!("spans-{}-{seed}.jsonl", w.name())), text);
}

fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}");
            eprintln!("usage: wirebench --workload onboard|lifecycle|northbound --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let on = match steal::init() {
        Ok(on) => on,
        Err(e) => {
            eprintln!("wirebench: cannot read the cores' steal time: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "wirebench {} seed={} seconds={} trace={} on cores {on:?} of {cores}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );

    let (pass, metrics) = if args.trace {
        let plain = run_pass(&args, false, Builds::ONCE);
        let mut traced = run_pass(&args, true, Builds::ONCE);
        let revoked = traced.out.deltas.get("revoked").copied().unwrap_or(0.0) as usize;
        probes::primitives(
            revoked + northbound::SETUP_REVOCATIONS,
            &mut traced.layers.probes,
        );
        probes::enclave(&mut traced.layers.probes);
        let metrics = per_layer(w, &plain, &traced);
        println!("per-layer self time (traced pass):");
        for row in layer_table(&traced.spans) {
            println!("{row}");
        }
        write_spans(w, args.seed, &traced.spans);
        let mut combined = traced;
        combined.out.merge(plain.out);
        (combined, metrics)
    } else {
        let pass = run_pass(&args, false, SETUP_BUILDS);
        for row in named_table(w, &pass) {
            println!("{row}");
        }
        match end_to_end(w, &pass) {
            Ok(metrics) => (pass, metrics),
            Err(e) => {
                eprintln!("wirebench: {e}");
                std::process::exit(1);
            }
        }
    };
    for m in &metrics {
        let n = m.samples.map_or(String::new(), |n| format!(" n={n}"));
        println!("{:<34} {:>14.4} {}{n}", m.name, m.value, m.unit);
    }
    let correct = pass.out.violations.is_empty() && pass.out.tally.failed == 0;
    for v in &pass.out.violations {
        println!("CHECK FAILED: {v}");
    }
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for (kind, samples) in &pass.out.samples {
        by_kind.insert(kind, samples.len());
    }
    println!("samples: {by_kind:?}");
    println!("{}", json_line(correct, pass.out.tally, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
