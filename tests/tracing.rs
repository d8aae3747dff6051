//! End-to-end distributed tracing over the fault-injected fabric.
//!
//! One operator-rooted trace follows an enrollment across every process
//! boundary in Figure 1: the VM's REST API, the Verification Manager's
//! workflow spans, the remote IAS round-trips (with per-attempt retry
//! children while the IAS link is stalled), the host agent, and the SDN
//! controller's north-bound API — through a mid-enrollment crash of the
//! manager and its recovery into a new incarnation. The assembled trace
//! must come back from `GET /vm/traces/{id}` as a *single connected tree*
//! whose annotations name the fault site and the recovery generation.

use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use vnfguard::controller::{NorthboundClient, SecurityMode};
use vnfguard::core::crash::CrashPlan;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::core::remote::{serve_vm_api, HostAgent};
use vnfguard::core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard::encoding::Json;
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::http::Request;
use vnfguard::net::server::HttpClient;
use vnfguard::net::FaultPlan;
use vnfguard::telemetry::Telemetry;

/// Walk a `/vm/traces/{id}` span tree, collecting the services, span names
/// and `(kind, detail)` annotation pairs of every node.
fn collect(
    node: &Json,
    services: &mut BTreeSet<String>,
    names: &mut Vec<String>,
    annotations: &mut Vec<(String, String)>,
) {
    if let Some(service) = node.get("service").and_then(Json::as_str) {
        services.insert(service.to_string());
    }
    if let Some(name) = node.get("name").and_then(Json::as_str) {
        names.push(name.to_string());
    }
    if let Some(list) = node.get("annotations").and_then(Json::as_array) {
        for a in list {
            let kind = a.get("kind").and_then(Json::as_str).unwrap_or("");
            let detail = a.get("detail").and_then(Json::as_str).unwrap_or("");
            annotations.push((kind.to_string(), detail.to_string()));
        }
    }
    if let Some(children) = node.get("children").and_then(Json::as_array) {
        for child in children {
            collect(child, services, names, annotations);
        }
    }
}

#[test]
fn faulted_crashed_enrollment_assembles_one_connected_trace() {
    let crash = CrashPlan::seeded(11);
    crash.crash_once("enrollment.commit");
    let telemetry = Telemetry::new();
    let mut tb = TestbedBuilder::new(b"tracing drill")
        .mode(SecurityMode::Http)
        .telemetry(telemetry.clone())
        .tracing(1.0)
        .durable()
        .crash_plan(crash)
        .build();
    let network = tb.network.clone();
    let clock = tb.clock.clone();
    let faults = FaultPlan::seeded(5);
    network.install_faults(&faults);

    // IAS as its own HTTP service, reached through a resilient client.
    let (_ias_handle, remote_ias) = tb.serve_ias("ias:443").unwrap();
    let remote_ias = remote_ias
        .with_resilience(
            clock.clone(),
            RetryPolicy::new(6, 1, 8).with_seed(5),
            CircuitBreaker::new(32, 600),
        )
        .with_telemetry(&telemetry);

    // Host agent serving host-0's enclaves, with trace instrumentation.
    let guard = tb.deploy_guard(0, "vnf-traced", 1).unwrap();
    let guards = HashMap::from([("vnf-traced".to_string(), Arc::new(guard))]);
    let state = tb.take_agent_state(guards, Some(tb.vm.share_hmac_key()));
    let agent_clock = clock.clone();
    let _agent =
        HostAgent::serve_traced(&network, state, &telemetry, move || agent_clock.now()).unwrap();

    // The manager behind its REST API: the server routes against a clone
    // of the testbed's service handle.
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(remote_ias));
    let _api = serve_vm_api(&network, "vm:8443", tb.vm_service(), ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    // The operator's root span: everything below joins this trace.
    let (root, root_span) = telemetry.trace_root("operator", "enrollment_drill", clock.now());
    assert!(root.is_recording(), "sample rate 1.0 must record the root");
    let root_hex = format!("{:032x}", root.trace_id);

    // Stall the IAS link so the first round-trip times out and retries;
    // a background hand lifts the stall while the retry is in flight.
    faults.stall("ias:443");
    let lift = faults.clone();
    let unstaller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(1100));
        lift.unstall("ias:443");
    });
    let response = client
        .request(&Request::post("/vm/hosts/host-0/attest").with_trace(&root))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);
    unstaller.join().unwrap();

    // Enrollment crashes the manager at the commit site.
    let response = client
        .request(&Request::post("/vm/hosts/host-0/vnfs/vnf-traced/enroll").with_trace(&root))
        .unwrap();
    assert!(!response.status.is_success(), "the crash plan must fire");
    // The error response still echoes the request's trace id so the
    // operator can jump from the failure to its trace.
    assert_eq!(
        response.headers.get("x-vnfguard-trace"),
        Some(&root_hex),
        "error responses must carry x-vnfguard-trace"
    );

    // Restart the manager in place: recovery swaps the incarnation inside
    // the shared service handle, so HTTP clients keep the same address and
    // reach the recovered incarnation.
    let report = tb.recover_vm().unwrap();
    assert_eq!(report.generation, 1);

    // The new incarnation trusts no host until it re-attests; then the
    // enrollment goes through.
    let response = client
        .request(&Request::post("/vm/hosts/host-0/attest").with_trace(&root))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);
    let response = client
        .request(&Request::post("/vm/hosts/host-0/vnfs/vnf-traced/enroll").with_trace(&root))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);

    // One controller hop in the same trace, via the north-bound client.
    let mut northbound = NorthboundClient::connect_plain(&network, &tb.controller_addr).unwrap();
    northbound.summary().unwrap();

    // Close the root span, then read the assembled trace back over HTTP.
    drop(root_span);
    let index = client
        .request(&Request::get("/vm/traces"))
        .unwrap()
        .parse_json()
        .unwrap();
    let traces = index.get("traces").and_then(Json::as_array).unwrap();
    let summary = traces
        .iter()
        .find(|t| t.get("trace_id").and_then(Json::as_str) == Some(root_hex.as_str()))
        .expect("the drill's trace is listed");
    assert_eq!(
        summary.get("root").and_then(Json::as_str),
        Some("enrollment_drill")
    );

    let tree = client
        .request(&Request::get(&format!("/vm/traces/{root_hex}")))
        .unwrap()
        .parse_json()
        .unwrap();
    let roots = tree.get("roots").and_then(Json::as_array).unwrap();
    assert_eq!(roots.len(), 1, "the trace must be one connected tree");

    let mut services = BTreeSet::new();
    let mut names = Vec::new();
    let mut annotations = Vec::new();
    collect(&roots[0], &mut services, &mut names, &mut annotations);

    // Every tier of the deployment contributed spans to the one trace.
    for service in ["operator", "vm_api", "vm", "ias", "agent", "controller"] {
        assert!(
            services.contains(service),
            "missing {service}: {services:?}"
        );
    }
    for name in ["host_attestation", "vnf_enrollment", "ias_roundtrip"] {
        assert!(
            names.iter().any(|n| n == name),
            "missing span {name}: {names:?}"
        );
    }
    // The stalled round-trip produced per-attempt retry children.
    let attempts = names
        .iter()
        .filter(|n| n.starts_with("ias_attempt_"))
        .count();
    assert!(attempts >= 2, "expected retry attempts, got {names:?}");

    // Annotations name the fault site, the crash site and the recovery
    // generation.
    assert!(
        annotations
            .iter()
            .any(|(kind, detail)| kind == "fault" && detail.contains("ias:443")),
        "no fault annotation naming ias:443: {annotations:?}"
    );
    assert!(
        annotations
            .iter()
            .any(|(kind, detail)| kind == "crash" && detail.contains("enrollment.commit")),
        "no crash annotation naming the site: {annotations:?}"
    );
    assert!(
        annotations
            .iter()
            .any(|(kind, detail)| kind == "recovery" && detail.contains("generation 1")),
        "no recovery annotation naming the generation: {annotations:?}"
    );

    // The alternative renderings serve from the same route.
    let ascii = client
        .request(&Request::get(&format!(
            "/vm/traces/{root_hex}?format=ascii"
        )))
        .unwrap();
    let waterfall = String::from_utf8(ascii.body).unwrap();
    assert!(waterfall.contains("enrollment_drill"));
    assert!(
        waterfall.contains('#'),
        "waterfall bars missing:\n{waterfall}"
    );
    let chrome = client
        .request(&Request::get(&format!(
            "/vm/traces/{root_hex}?format=chrome"
        )))
        .unwrap();
    let chrome_doc = chrome.parse_json().unwrap();
    assert!(
        chrome_doc.as_array().map(|a| a.len()).unwrap_or(0) >= names.len(),
        "chrome export must carry one event per span"
    );
}

#[test]
fn trace_ids_are_deterministic_per_deployment_seed() {
    let roots: Vec<u128> = (0..2)
        .map(|_| {
            let telemetry = Telemetry::new();
            let _tb = TestbedBuilder::new(b"trace determinism")
                .telemetry(telemetry.clone())
                .tracing(1.0)
                .build();
            let (ctx, span) = telemetry.trace_root("operator", "probe", 0);
            drop(span);
            ctx.trace_id
        })
        .collect();
    assert_eq!(roots[0], roots[1], "same seed, same trace ids");

    let telemetry = Telemetry::new();
    let _tb = TestbedBuilder::new(b"a different seed")
        .telemetry(telemetry.clone())
        .tracing(1.0)
        .build();
    let (ctx, span) = telemetry.trace_root("operator", "probe", 0);
    drop(span);
    assert_ne!(roots[0], ctx.trace_id, "different seed, different ids");
}

#[test]
fn untraced_requests_stay_untraced_and_the_surface_validates_input() {
    let telemetry = Telemetry::new();
    let mut tb = TestbedBuilder::new(b"tracing off")
        .telemetry(telemetry.clone())
        .build();
    let network = tb.network.clone();
    tb.attest_host(0).unwrap();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(std::mem::replace(
        &mut tb.ias,
        vnfguard::ias::AttestationService::new(b"placeholder"),
    )));
    let _api = serve_vm_api(&network, "vm:8443", tb.vm_service(), ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    // A request without a traceparent makes no server span and gets no
    // trace echo header.
    let response = client.request(&Request::get("/vm/status")).unwrap();
    assert!(response.status.is_success());
    assert!(!response.headers.contains_key("x-vnfguard-trace"));
    assert_eq!(telemetry.traces().span_count(), 0);

    // The trace surface rejects garbage and misses cleanly.
    let bad = client.request(&Request::get("/vm/traces/zzz")).unwrap();
    assert_eq!(bad.status.code(), 400);
    let missing = client
        .request(&Request::get(&format!(
            "/vm/traces/{:032x}",
            0xdead_beefu128
        )))
        .unwrap();
    assert_eq!(missing.status.code(), 404);
    let unknown_format = client
        .request(&Request::get(&format!(
            "/vm/traces/{:032x}?format=svg",
            0xdead_beefu128
        )))
        .unwrap();
    assert!(unknown_format.status.code() == 400 || unknown_format.status.code() == 404);
}

/// Concurrent traced enrollments share one `RemoteIas` behind the VM API,
/// yet each keeps its IAS spans in its own trace: every enrollment's trace
/// holds exactly one `ias_verify` and one `ias_roundtrip`.
#[test]
fn concurrent_enrollments_keep_ias_spans_in_their_own_traces() {
    const PER_CONNECTION: usize = 150;
    let telemetry = Telemetry::new();
    let mut tb = TestbedBuilder::new(b"trace isolation")
        .telemetry(telemetry.clone())
        .tracing(1.0)
        .build();
    let network = tb.network.clone();
    let clock = tb.clock.clone();
    let (_ias_handle, remote_ias) = tb.serve_ias("ias:443").unwrap();
    let remote_ias = remote_ias.with_telemetry(&telemetry);

    let mut guards = HashMap::new();
    for vnf in 0..2 * PER_CONNECTION {
        let name = format!("vnf-{vnf}");
        let guard = tb.deploy_guard(0, &name, 1).unwrap();
        guards.insert(name, Arc::new(guard));
    }
    let state = tb.take_agent_state(guards, Some(tb.vm.share_hmac_key()));
    let agent_clock = clock.clone();
    let _agent =
        HostAgent::serve_traced(&network, state, &telemetry, move || agent_clock.now()).unwrap();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(remote_ias));
    let _api = serve_vm_api(&network, "vm:8443", tb.vm_service(), ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());
    let response = client
        .request(&Request::post("/vm/hosts/host-0/attest"))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);

    std::thread::scope(|s| {
        for connection in 0..2 {
            let (network, telemetry, clock) = (&network, &telemetry, &clock);
            s.spawn(move || {
                let mut client = HttpClient::new(network.connect("vm:8443").unwrap());
                for i in 0..PER_CONNECTION {
                    let vnf = connection * PER_CONNECTION + i;
                    let (root, _root_span) =
                        telemetry.trace_root("operator", "enrollment", clock.now());
                    let path = format!("/vm/hosts/host-0/vnfs/vnf-{vnf}/enroll");
                    let response = client.request(&Request::post(&path)).unwrap();
                    assert!(
                        response.status.is_success(),
                        "{path}: {:?}",
                        response.status
                    );
                    // Every span of the enrollment closed before its response
                    // was written; only the operator root is still open.
                    let spans = telemetry.traces().trace(root.trace_id);
                    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
                    assert_eq!(
                        (count("ias_verify"), count("ias_roundtrip")),
                        (1, 1),
                        "vnf-{vnf}: {:?}",
                        spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
                    );
                }
            });
        }
    });
}
