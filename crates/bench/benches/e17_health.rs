//! E17 — health plane: SLO accounting overhead, the burn-rate alert
//! drill, and fleet staleness under partition.
//!
//! Three enforced bars, all gating CI:
//!
//! - **overhead** — chained in-process renewals with the health monitor
//!   attached must stay within [`MAX_OVERHEAD`] of the identical world
//!   without it. Measured with the shared drift-cancelling harness
//!   ([`vnfguard_bench::paired_overhead`]): adjacent enabled/disabled
//!   batch pairs with alternating order, median per-pair ratio.
//! - **burn drill** — isolating the remote IAS turns every enrollment
//!   bad. The `enrollment-availability` alert must walk
//!   pending→firing within the fast window, the firing snapshot must
//!   carry a bad-event trace exemplar that resolves to a real span tree
//!   via `GET /vm/traces/{id}`, and after the fault heals the alert must
//!   resolve (with `resolved_at` journaled) once the windows age clear.
//! - **fleet partition** — `GET /fleet/status` must mark an unreachable
//!   standby stale without wedging the scrape, keep the primary's data
//!   flowing, and clear the staleness after heal.
//!
//! The drill runs on the simulated clock, so the alert timeline is
//! deterministic: only the overhead bar gets noisy-machine retries.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnfguard_bench::{deploy_agent_guard, paired_overhead};
use vnfguard_core::deployment::{Testbed, TestbedBuilder};
use vnfguard_core::fleet::serve_fleet_api;
use vnfguard_core::remote::{
    remote_attest_host, remote_enroll_vnf, serve_vm_api, HostAgent, RemoteIas,
};
use vnfguard_core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard_core::CoreError;
use vnfguard_encoding::Json;
use vnfguard_ias::{AttestationService, QuoteVerifier};
use vnfguard_net::server::HttpClient;
use vnfguard_net::{FaultPlan, Request, ServerHandle};
use vnfguard_telemetry::{AlertState, Telemetry};

/// Health-enabled renewal must finish within 5% of health-disabled.
const MAX_OVERHEAD: f64 = 0.05;
/// Enabled/disabled batch pairs; the median per-pair ratio is compared.
const BATCHES: usize = 9;
/// Chained renewals per batch.
const BATCH_SIZE: usize = 200;
/// Noisy-machine retries before the overhead bar is declared failed.
const ATTEMPTS: usize = 3;
/// Good traced enrollments before the fault is injected.
const WARMUP_ENROLLMENTS: usize = 10;
/// The enrollment-availability fast window (must match
/// `SloSpec::availability`): the alert has to fire within one of these.
const FAST_WINDOW_SECS: u64 = 300;

// ---------------------------------------------------------------------------
// Part 1 — overhead: renewals with and without the health monitor
// ---------------------------------------------------------------------------

struct RenewWorld {
    tb: Testbed,
    key: [u8; 32],
    serial: u64,
}

/// Identical single-shard worlds; the only difference is whether the
/// builder attaches the SLO monitor to the service.
fn renew_world(seed: &[u8], health: bool) -> RenewWorld {
    let mut builder = TestbedBuilder::new(seed).telemetry(Telemetry::new());
    if health {
        builder = builder.health();
    }
    let mut tb = builder.build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-e17", 1).unwrap();
    let cert = tb.enroll(0, &guard).unwrap();
    let key = guard.provisioning_key().unwrap();
    RenewWorld {
        serial: cert.serial(),
        tb,
        key,
    }
}

/// Time one batch of chained renewals (each renewal's certificate seeds
/// the next request, like a long-lived VNF refreshing its credential).
fn renew_batch(world: &mut RenewWorld) -> Duration {
    let start = Instant::now();
    for _ in 0..BATCH_SIZE {
        let (_, certificate) = world
            .tb
            .vm
            .renew_vnf_credential(world.serial, &world.key, "controller")
            .unwrap();
        world.serial = black_box(certificate).serial();
    }
    start.elapsed()
}

/// One full overhead measurement: fresh worlds, paired batches, median
/// per-pair ratio. Returns `(enabled_us, disabled_us, overhead)` per
/// renewal.
fn measure_overhead(attempt: usize) -> (f64, f64, f64) {
    let seed_on = format!("e17 health on {attempt}");
    let seed_off = format!("e17 health off {attempt}");
    let mut on = renew_world(seed_on.as_bytes(), true);
    let mut off = renew_world(seed_off.as_bytes(), false);
    // Warm both paths before timing.
    for _ in 0..2 {
        renew_batch(&mut on);
        renew_batch(&mut off);
    }
    let per_iter = |d: Duration| d.as_micros() as f64 / BATCH_SIZE as f64;
    paired_overhead(
        BATCHES,
        || per_iter(renew_batch(&mut on)),
        || per_iter(renew_batch(&mut off)),
    )
}

fn overhead_bar() -> bool {
    for attempt in 0..ATTEMPTS {
        let (enabled, disabled, overhead) = measure_overhead(attempt);
        println!(
            "e17_health/renewal_health_on       {enabled:>10.1} µs/iter (median of {BATCHES} batches)"
        );
        println!(
            "e17_health/renewal_health_off      {disabled:>10.1} µs/iter (median of {BATCHES} batches)"
        );
        println!(
            "e17_health/overhead                {:>10.2} % (median pair ratio, bar {:.0} %)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        if overhead <= MAX_OVERHEAD {
            return true;
        }
        println!("e17_health: attempt {} over the bar, retrying", attempt + 1);
    }
    false
}

// ---------------------------------------------------------------------------
// Part 2 — burn drill: IAS outage → firing alert → exemplar → resolution
// ---------------------------------------------------------------------------

/// The replicated remote world the drill runs against: IAS served over
/// the fault-injectable fabric, one host agent, the VM REST surface for
/// trace/health reads, and a durable primary with one streaming standby
/// (the fleet part needs the standby).
struct DrillWorld {
    tb: Testbed,
    agent: HostAgent,
    remote_ias: RemoteIas,
    telemetry: Telemetry,
    plan: FaultPlan,
    next_vnf: u64,
    _ias_handle: ServerHandle,
    _api_handle: ServerHandle,
}

fn drill_world() -> DrillWorld {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::seeded(0xe17);
    let mut tb = TestbedBuilder::new(b"e17 burn drill")
        .telemetry(telemetry.clone())
        .tracing(1.0)
        .health()
        .durable()
        .replicas(1)
        .faults(plan.clone())
        .build();
    let (_ias_handle, remote_ias) = tb.serve_ias("ias:443").unwrap();
    // Resilience rides the deployment clock so the breaker's cooldown
    // participates in the simulated outage-and-recovery timeline.
    let mut remote_ias = remote_ias.with_telemetry(&telemetry).with_resilience(
        tb.clock.clone(),
        RetryPolicy::new(2, 1, 4),
        CircuitBreaker::new(3, 60),
    );
    let state = tb.take_agent_state(HashMap::new(), Some(tb.vm.share_hmac_key()));
    let agent = HostAgent::serve(&tb.network, state).unwrap();
    remote_attest_host(&tb.vm, &mut remote_ias, &tb.network, "host-0").unwrap();
    let api_ias: Arc<Mutex<dyn QuoteVerifier + Send>> =
        Arc::new(Mutex::new(AttestationService::new(b"placeholder")));
    let _api_handle = serve_vm_api(
        &tb.network,
        "vm:8443",
        tb.vm_service(),
        api_ias,
        "controller",
    )
    .unwrap();
    DrillWorld {
        tb,
        agent,
        remote_ias,
        telemetry,
        plan,
        next_vnf: 0,
        _ias_handle,
        _api_handle,
    }
}

/// Whitelist a fresh VNF on the agent (the drill enrolls a new name per
/// attempt, like a rolling deployment).
fn deploy(world: &mut DrillWorld) -> String {
    world.next_vnf += 1;
    let name = format!("vnf-drill-{}", world.next_vnf);
    deploy_agent_guard(&world.tb, &world.agent, &name);
    name
}

/// One operator-rooted traced enrollment, exactly like the REST path.
fn enroll(world: &mut DrillWorld) -> Result<(), CoreError> {
    let name = deploy(world);
    let host_id = world.agent.state.host_id.clone();
    let now = world.tb.clock.now();
    let _root = world.telemetry.trace_root("operator", "enrollment", now);
    remote_enroll_vnf(
        &world.tb.vm,
        &mut world.remote_ias,
        &world.tb.network,
        &host_id,
        &name,
        "controller",
    )
    .map(|_| ())
}

/// Drive the outage timeline and return
/// `(time_to_fire, exemplar_span_count, time_to_resolve)`.
fn burn_drill(world: &mut DrillWorld) -> (u64, i64, u64) {
    let health = world
        .tb
        .vm
        .health()
        .expect("health monitor attached")
        .clone();
    let clock = world.tb.clock.clone();

    // Healthy baseline: good traced enrollments, a couple of simulated
    // seconds apart.
    for _ in 0..WARMUP_ENROLLMENTS {
        clock.advance(2);
        enroll(world).expect("warmup enrollment succeeds");
    }
    let baseline = health
        .alert("enrollment-availability", clock.now())
        .expect("enrollment availability SLO configured");
    assert_eq!(
        baseline.state,
        AlertState::Ok,
        "alert must be quiet before the fault: {baseline:?}"
    );

    // Outage: sever the IAS link. Every enrollment attempt now fails at
    // the attestation step and is charged as a bad availability event
    // carrying its trace id.
    let stall_start = clock.now();
    world.plan.isolate("ias:443");
    let mut firing = None;
    for _ in 0..60 {
        clock.advance(5);
        assert!(
            enroll(world).is_err(),
            "enrollment must fail while IAS is unreachable"
        );
        let alert = health
            .alert("enrollment-availability", clock.now())
            .expect("SLO still configured");
        if alert.state == AlertState::Firing {
            firing = Some((alert, clock.now()));
            break;
        }
    }
    let (firing, fired_at) = firing.expect("fast-burn alert never fired during the outage");
    let time_to_fire = fired_at - stall_start;
    assert!(
        time_to_fire <= FAST_WINDOW_SECS,
        "alert took {time_to_fire}s to fire, over the {FAST_WINDOW_SECS}s fast window"
    );
    assert!(
        !firing.exemplar_trace_ids.is_empty(),
        "firing alert carries no trace exemplars: {firing:?}"
    );

    // The exemplar must resolve to a real span tree in the collector.
    let trace_id = firing.exemplar_trace_ids[0];
    let mut client = HttpClient::new(world.tb.network.connect("vm:8443").unwrap());
    let response = client
        .request(&Request::get(&format!("/vm/traces/{trace_id:032x}")))
        .unwrap();
    assert_eq!(
        response.status.code(),
        200,
        "exemplar trace {trace_id:032x} not resolvable"
    );
    let tree = response.parse_json().unwrap();
    let span_count = tree.get("span_count").and_then(Json::as_i64).unwrap_or(0);
    assert!(
        span_count >= 1,
        "exemplar trace resolved to an empty tree: {tree:?}"
    );

    // Recovery: heal the link and keep serving good traffic. The breaker
    // half-opens after its cooldown, the bad buckets age out of the fast
    // window, and the clear hold-down finally resolves the alert.
    world.plan.heal("ias:443");
    let mut resolved = None;
    for _ in 0..80 {
        clock.advance(10);
        let _ = enroll(world);
        let alert = health
            .alert("enrollment-availability", clock.now())
            .expect("SLO still configured");
        if alert.state == AlertState::Ok {
            resolved = Some((alert, clock.now()));
            break;
        }
    }
    let (resolved, resolved_tick) = resolved.expect("alert never resolved after the heal");
    assert!(
        resolved.resolved_at.is_some(),
        "resolution must be journaled with its instant: {resolved:?}"
    );
    (time_to_fire, span_count, resolved_tick - fired_at)
}

// ---------------------------------------------------------------------------
// Part 3 — fleet partition: staleness without wedging
// ---------------------------------------------------------------------------

fn fleet_status<S: std::io::Read + std::io::Write>(client: &mut HttpClient<S>) -> Json {
    let response = client.request(&Request::get("/fleet/status")).unwrap();
    assert_eq!(response.status.code(), 200, "/fleet/status must answer");
    response.parse_json().unwrap()
}

fn node_reachable(status: &Json, name: &str) -> bool {
    status
        .get("nodes")
        .and_then(Json::as_array)
        .and_then(|nodes| {
            nodes
                .iter()
                .find(|n| n.get("name").and_then(Json::as_str) == Some(name))
        })
        .and_then(|n| n.get("reachable").and_then(Json::as_bool))
        .unwrap_or(false)
}

/// Partition the standby's health endpoint and check the cockpit stays
/// live: the stale node is marked, the rest of the fleet keeps
/// reporting, and healing clears the mark. Returns the stale count
/// observed mid-partition.
fn fleet_partition_drill(world: &mut DrillWorld) -> i64 {
    let (monitor, _standby_handles) = world.tb.fleet_monitor("operator", "vm:8443").unwrap();
    let monitor = Arc::new(Mutex::new(monitor));
    let _fleet = serve_fleet_api(&world.tb.network, "fleet:9443", monitor).unwrap();
    let mut client = HttpClient::new(world.tb.network.connect("fleet:9443").unwrap());

    let healthy = fleet_status(&mut client);
    assert_eq!(
        healthy.get("stale_nodes").and_then(Json::as_i64),
        Some(0),
        "fleet must start fully reachable: {healthy:?}"
    );
    assert!(node_reachable(&healthy, "vm-primary"));
    assert!(node_reachable(&healthy, "vm-standby-0"));

    // Partition the standby's health endpoint. The scrape must complete
    // anyway: one failed connect, staleness marked, primary data intact.
    world.plan.isolate("health-vm-standby-0:7600");
    world.tb.clock.advance(5);
    let partitioned = fleet_status(&mut client);
    let stale = partitioned
        .get("stale_nodes")
        .and_then(Json::as_i64)
        .unwrap_or(-1);
    assert_eq!(
        stale, 1,
        "partitioned standby must be stale: {partitioned:?}"
    );
    assert!(
        node_reachable(&partitioned, "vm-primary"),
        "primary must stay reachable through the partition"
    );
    assert!(
        !node_reachable(&partitioned, "vm-standby-0"),
        "standby must be marked unreachable"
    );

    // The operator rendering serves from the same route, mid-partition.
    let ascii = client
        .request(&Request::get("/fleet/status?format=ascii"))
        .unwrap();
    assert_eq!(ascii.status.code(), 200);
    let cockpit = String::from_utf8(ascii.body).unwrap();
    assert!(
        cockpit.contains("fleet cockpit"),
        "cockpit header missing:\n{cockpit}"
    );

    world.plan.heal("health-vm-standby-0:7600");
    world.tb.clock.advance(5);
    let healed = fleet_status(&mut client);
    assert_eq!(
        healed.get("stale_nodes").and_then(Json::as_i64),
        Some(0),
        "staleness must clear after heal: {healed:?}"
    );
    assert!(node_reachable(&healed, "vm-standby-0"));
    stale
}

fn main() {
    println!("e17_health: SLO accounting overhead, burn-rate drill, fleet partition");

    if !overhead_bar() {
        eprintln!("e17_health: FAIL — health monitor overhead over {MAX_OVERHEAD:.0?}");
        std::process::exit(1);
    }

    let mut world = drill_world();
    let (time_to_fire, span_count, time_to_resolve) = burn_drill(&mut world);
    println!(
        "e17_health/time_to_fire            {time_to_fire:>10} s (IAS outage → firing, bar {FAST_WINDOW_SECS} s)"
    );
    println!(
        "e17_health/exemplar_spans          {span_count:>10} spans (firing exemplar via /vm/traces/{{id}})"
    );
    println!(
        "e17_health/time_to_resolve         {time_to_resolve:>10} s (heal → resolved, windows aged clear)"
    );

    let stale = fleet_partition_drill(&mut world);
    println!(
        "e17_health/partition_stale_nodes   {stale:>10} node (standby partitioned, scrape never wedged)"
    );

    println!("e17_health: PASS");
}
