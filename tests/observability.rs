//! End-to-end observability: one shared [`Telemetry`] bundle wired through
//! the fabric, the IAS, the Verification Manager and its REST surface,
//! exercised over a fault-injected network so the resilience metrics are
//! non-trivial.
//!
//! The scenario drives the full Figure 1 workflow through the operator
//! API (host attestation, then VNF enrollment, with 30% of IAS
//! connections refused so retries fire), then scrapes `GET /vm/metrics`
//! and pages `GET /vm/events?since=` exactly as an external Prometheus /
//! audit collector would.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::core::remote::{serve_vm_api, HostAgent, RemoteIas};
use vnfguard::core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard::encoding::Json;
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::http::Request;
use vnfguard::net::server::HttpClient;
use vnfguard::net::{FaultEvent, FaultPlan};
use vnfguard::telemetry::Telemetry;

struct ObservedWorld {
    testbed: vnfguard::core::deployment::Testbed,
    remote_ias: RemoteIas,
    plan: FaultPlan,
    _agent: HostAgent,
    _ias_handle: vnfguard::net::server::ServerHandle,
}

/// A networked deployment sharing one telemetry bundle across every layer,
/// with a seeded fault plan installed on the fabric.
fn observed_world(seed: &[u8], plan_seed: u64) -> ObservedWorld {
    let telemetry = Telemetry::new();
    let mut testbed = TestbedBuilder::new(seed)
        .telemetry(telemetry.clone())
        .build();
    let plan = FaultPlan::seeded(plan_seed);
    testbed.network.install_faults(&plan);

    let (_ias_handle, remote_ias) = testbed.serve_ias("ias:443").unwrap();
    let remote_ias = remote_ias
        .with_resilience(
            testbed.clock.clone(),
            RetryPolicy::new(8, 1, 16).with_seed(plan_seed),
            CircuitBreaker::new(32, 600),
        )
        .with_telemetry(&telemetry);

    let guard = testbed.deploy_guard(0, "vnf-obs", 1).unwrap();
    let guards = HashMap::from([("vnf-obs".to_string(), Arc::new(guard))]);
    let state = testbed.take_agent_state(guards, Some(testbed.vm.share_hmac_key()));
    let _agent = HostAgent::serve(&testbed.network, state).unwrap();

    ObservedWorld {
        testbed,
        remote_ias,
        plan,
        _agent,
        _ias_handle,
    }
}

fn metric_value(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find(|line| line.starts_with(name) && line[name.len()..].starts_with(' '))
        .and_then(|line| line[name.len() + 1..].trim().parse().ok())
}

#[test]
fn metrics_surface_reflects_a_fault_injected_enrollment() {
    let world = observed_world(b"observability e2e", 7);
    let network = world.testbed.network.clone();
    let telemetry = world.testbed.telemetry.clone();
    world.plan.refuse_connections("ias:443", 0.30);

    // Serve the operator API and drive the whole workflow through it.
    let vm = world.testbed.vm_service();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(world.remote_ias));
    let _api = serve_vm_api(&network, "vm:8443", vm, ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    let response = client
        .request(&Request::post("/vm/hosts/host-0/attest"))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);
    let response = client
        .request(&Request::post("/vm/hosts/host-0/vnfs/vnf-obs/enroll"))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);

    // The fault plan really refused IAS connections, so the retry counter
    // must be non-trivial.
    let refusals = world
        .plan
        .events()
        .iter()
        .filter(|e| matches!(e, FaultEvent::Refused { addr, .. } if addr == "ias:443"))
        .count();
    assert!(refusals > 0, "fault plan never fired; scenario is vacuous");

    // Scrape the Prometheus surface like a collector would.
    let scrape = client.request(&Request::get("/vm/metrics")).unwrap();
    assert!(scrape.status.is_success());
    assert!(scrape
        .headers
        .iter()
        .any(|(k, v)| k.eq_ignore_ascii_case("content-type") && v.contains("text/plain")));
    let text = String::from_utf8(scrape.body.clone()).unwrap();

    // Workflow counters: one host attestation, one enrollment, no failures.
    assert_eq!(
        metric_value(&text, "vnfguard_core_host_attestations_total"),
        Some(1)
    );
    assert_eq!(
        metric_value(&text, "vnfguard_core_enrollments_total"),
        Some(1)
    );
    assert_eq!(
        metric_value(&text, "vnfguard_core_enrollment_failures_total"),
        Some(0)
    );

    // Resilience counters: retries fired, nothing failed terminally.
    let retries = metric_value(&text, "vnfguard_core_ias_retries_total").unwrap();
    assert!(
        retries > 0,
        "30% IAS refusals should force retries:\n{text}"
    );
    assert_eq!(
        metric_value(&text, "vnfguard_core_ias_failures_total"),
        Some(0)
    );

    // Fabric + IAS service counters observed the same traffic.
    assert_eq!(
        metric_value(&text, "vnfguard_net_refusals_total"),
        Some(refusals as u64)
    );
    assert!(metric_value(&text, "vnfguard_net_connections_total").unwrap() > 0);
    assert!(metric_value(&text, "vnfguard_ias_requests_total").unwrap() >= 2);

    // Latency histograms carry real samples with full quantile companions.
    for h in [
        "vnfguard_core_host_attestation_micros",
        "vnfguard_core_enrollment_micros",
        "vnfguard_core_ias_roundtrip_micros",
    ] {
        assert!(
            metric_value(&text, &format!("{h}_count")).unwrap() > 0,
            "{h} empty"
        );
        for q in ["p50", "p90", "p99", "max"] {
            assert!(text.contains(&format!("{h}_{q} ")), "{h}_{q} missing");
        }
    }

    // The API server metered its own dispatches (attest, enroll, and —
    // depending on when the router counts — this very scrape).
    assert!(metric_value(&text, "vnfguard_core_api_requests_total").unwrap() >= 2);

    // The journal pages through the same audit trail the manager kept.
    let page = client
        .request(&Request::get("/vm/events?since=0"))
        .unwrap()
        .parse_json()
        .unwrap();
    let events = page.get("events").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty());
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"host_attested"), "kinds: {kinds:?}");
    assert!(kinds.contains(&"vnf_enrolled"), "kinds: {kinds:?}");

    // Cursor semantics: `next_seq` resumes after everything served.
    let next_seq = page.get("next_seq").and_then(Json::as_i64).unwrap();
    assert!(next_seq > 0);
    let tail = client
        .request(&Request::get(&format!("/vm/events?since={next_seq}")))
        .unwrap()
        .parse_json()
        .unwrap();
    assert_eq!(
        tail.get("events").and_then(Json::as_array).map(|a| a.len()),
        Some(0)
    );

    // A malformed cursor is a client error, not a panic.
    let bad = client
        .request(&Request::get("/vm/events?since=banana"))
        .unwrap();
    assert_eq!(bad.status.code(), 400);

    // The REST surface and the in-process registry agree.
    assert_eq!(
        metric_value(
            &telemetry.render_prometheus(),
            "vnfguard_core_enrollments_total"
        ),
        Some(1)
    );
}

#[test]
fn disabled_telemetry_keeps_the_workflow_silent() {
    // A testbed without explicit telemetry still works; building one with
    // a disabled bundle must record nothing while the workflow succeeds.
    let telemetry = Telemetry::disabled();
    let mut testbed = TestbedBuilder::new(b"observability disabled")
        .telemetry(telemetry.clone())
        .build();
    testbed.attest_host(0).unwrap();
    let deployed = testbed.deploy_guard(0, "vnf-quiet", 1).unwrap();
    testbed.enroll(0, &deployed).unwrap();

    assert_eq!(telemetry.render_prometheus(), "");
    assert!(testbed.vm.events().is_empty());
}

#[test]
fn controller_tls_handshakes_are_measured_on_a_traced_testbed() {
    let mut testbed = TestbedBuilder::new(b"observability tls")
        .tracing(1.0)
        .build();
    testbed.attest_host(0).unwrap();
    let mut guard = testbed.deploy_guard(0, "vnf-tls", 1).unwrap();
    testbed.enroll(0, &guard).unwrap();
    let session = testbed.open_session(&mut guard).unwrap();
    // A request answered over the session means the server finished (and
    // recorded) its side of the handshake.
    guard
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
    guard.close_session(session).unwrap();

    let metrics = testbed.telemetry.metrics();
    let server = metrics
        .histogram_snapshot("vnfguard_tls_server_handshake_micros")
        .expect("the controller's handshake was measured");
    assert!(server.count() >= 1);
    assert!(metrics
        .counter_value("vnfguard_tls_handshakes_total")
        .is_some_and(|handshakes| handshakes >= 1));
}
