//! Overload control end to end: admission gates in front of the shard
//! locks, deadline propagation over the VM API, and the invariant that a
//! shed request leaves no partial state behind — no pending enrollment,
//! no orphaned WAL prepare, no drift versus a WAL-replayed oracle twin.

use parking_lot::Mutex;
use std::sync::Arc;
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_core::fleet::serve_fleet_api;
use vnfguard_core::overload::{AdmissionConfig, Workclass};
use vnfguard_core::remote::serve_vm_api;
use vnfguard_core::CoreError;
use vnfguard_encoding::Json;
use vnfguard_ias::QuoteVerifier;
use vnfguard_net::http::{Request, DEADLINE_HEADER};
use vnfguard_net::server::HttpClient;
use vnfguard_telemetry::Telemetry;

fn tight_admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_bound: 8,
        ..AdmissionConfig::default()
    }
}

/// An enrollment flood fills the enrollment class queue and gets shed with
/// a retry hint — while revocation, holding a strictly larger queue bound,
/// still goes through. The priority order is enforced by queue asymmetry,
/// not by reordering.
#[test]
fn enrollment_flood_sheds_while_revocation_completes() {
    let telemetry = Telemetry::new();
    let mut tb = TestbedBuilder::new(b"overload priority")
        .telemetry(telemetry.clone())
        .admission_config(tight_admission())
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-victim", 1).unwrap();
    let cert = tb.enroll(0, &guard).unwrap();

    let admission = tb.vm.admission().expect("testbed built with admission");
    // With queue_bound 8: enrollment gets 4 slots, revocation the full 8.
    assert_eq!(
        AdmissionConfig::default().retry_after_base_secs,
        admission.config().retry_after_base_secs
    );

    // Occupy every enrollment slot, as a stalled flood would.
    let flood: Vec<_> = (0..4)
        .map(|_| admission.admit(Workclass::Enrollment).expect("slot"))
        .collect();

    // The next enrollment is refused before it can queue, with a hint.
    let err = tb
        .vm
        .begin_vnf_attestation("host-0", "vnf-late")
        .unwrap_err();
    match err {
        CoreError::Overloaded {
            retry_after_secs, ..
        } => assert!(retry_after_secs >= 1),
        other => panic!("expected Overloaded, got {other}"),
    }

    // Revocation still has headroom: the control-plane action the paper's
    // operator actually needs under attack completes despite the flood.
    tb.vm
        .revoke_credential(
            cert.serial(),
            vnfguard_pki::crl::RevocationReason::KeyCompromise,
        )
        .unwrap();
    assert!(tb.vm.credential_is_revoked(cert.serial()));

    drop(flood);
    // Slots released: enrollment admission works again.
    let challenge = tb.vm.begin_vnf_attestation("host-0", "vnf-late").unwrap();
    assert!(challenge.id > 0);

    // The shed surfaced in telemetry, attributed to the enrollment class.
    let rendered = telemetry.render_prometheus();
    assert!(
        rendered.contains("vnfguard_net_shed_total_enrollment 1"),
        "missing enrollment shed counter:\n{rendered}"
    );
}

/// A shed enrollment must leave no partial WAL state: no pending
/// two-phase prepare, and a WAL-replayed oracle twin stays byte-identical
/// to the primary's fleet view.
#[test]
fn shed_enrollments_leave_no_partial_wal_state() {
    let mut tb = TestbedBuilder::new(b"overload no orphans")
        .durable()
        .admission_config(tight_admission())
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-kept", 1).unwrap();
    tb.enroll(0, &guard).unwrap();

    let admission = tb.vm.admission().unwrap();
    let flood: Vec<_> = (0..4)
        .map(|_| admission.admit(Workclass::Enrollment).expect("slot"))
        .collect();

    // Both the challenge phase and the prepare phase are refused at the
    // gate, before any journal write.
    let begin = tb.vm.begin_vnf_attestation("host-0", "vnf-shed");
    assert!(matches!(begin, Err(CoreError::Overloaded { .. })));
    drop(flood);

    // Nothing in flight: a shed is a clean no-op, not a half-enrollment.
    assert_eq!(tb.vm.pending_enrollments().count(), 0);
    assert_eq!(tb.vm.enrollments().count(), 1);

    // The WAL agrees: replaying it into an oracle twin reproduces the
    // primary exactly — a shed request wrote nothing durable.
    let twin = tb.oracle_twin().unwrap();
    assert_eq!(twin.enrollments().count(), 1);
    assert_eq!(twin.pending_enrollments().count(), 0);
    assert_eq!(twin.fingerprint(), tb.vm.fingerprint());
}

/// The `x-vnfguard-deadline` header propagates into the admission gate: a
/// request arriving with an exhausted budget is answered 504
/// `code:"deadline"` without touching the shard, while the same request
/// with budget (or none) succeeds. Shed renewals advertise
/// `retry-after-secs` and park the serial on the manager-side backoff.
#[test]
fn vm_api_honors_deadlines_and_advertises_retry_hints() {
    let telemetry = Telemetry::new();
    let mut tb = TestbedBuilder::new(b"overload api deadlines")
        .telemetry(telemetry.clone())
        .admission_config(tight_admission())
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-api", 1).unwrap();
    let cert = tb.enroll(0, &guard).unwrap();
    let provisioning_key = guard.provisioning_key().unwrap();

    let network = tb.network.clone();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(std::mem::replace(
        &mut tb.ias,
        vnfguard_ias::AttestationService::new(b"placeholder"),
    )));
    let _api = serve_vm_api(&network, "vm:8443", tb.vm_service(), ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    // Exhausted budget → 504 before the shard is touched.
    let response = client
        .request(&Request::get("/vm/lifecycle").with_header(DEADLINE_HEADER, "0"))
        .unwrap();
    assert_eq!(response.status.code(), 504);
    let body = response.parse_json().unwrap();
    assert_eq!(body.get("code").and_then(Json::as_str), Some("deadline"));

    // Generous budget → normal answer.
    let response = client
        .request(&Request::get("/vm/lifecycle").with_header(DEADLINE_HEADER, "30000"))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);

    // Diagnostics opt out of deadline enforcement entirely: a dead budget
    // must not lock operators out of metrics mid-incident.
    let response = client
        .request(&Request::get("/vm/metrics").with_header(DEADLINE_HEADER, "0"))
        .unwrap();
    assert!(response.status.is_success());

    // Fill the renewal queue, then renew over the API: 503 "overloaded"
    // with a retry hint in the body, and the serial parked on backoff so
    // the next sweep retries it off-peak instead of stampeding.
    let admission = tb.vm.admission().unwrap();
    let flood: Vec<_> = (0..6)
        .map(|_| admission.admit(Workclass::Renewal).expect("slot"))
        .collect();
    let renew = Request::post("/vm/renew").with_json(
        &Json::object().with("serial", cert.serial() as i64).with(
            "provisioning_key",
            vnfguard_encoding::base64::encode(&provisioning_key),
        ),
    );
    let response = client.request(&renew).unwrap();
    assert_eq!(response.status.code(), 503);
    let body = response.parse_json().unwrap();
    assert_eq!(body.get("code").and_then(Json::as_str), Some("overloaded"));
    let hint = body
        .get("retry-after-secs")
        .and_then(Json::as_i64)
        .expect("shed renewal advertises retry-after-secs");
    assert!(hint >= 1);
    assert_eq!(response.retry_after_secs(), Some(hint as u64));
    let parked = tb
        .vm
        .renewal_backoff_until(cert.serial())
        .expect("refused renewal parks the serial");
    assert!(parked > tb.clock.now());
    drop(flood);

    // Once the queue drains, the same renewal goes through.
    let response = client.request(&renew).unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);

    // Deadline refusals surfaced in telemetry.
    let rendered = telemetry.render_prometheus();
    assert!(
        rendered.contains("vnfguard_net_deadline_exceeded_total 1"),
        "missing deadline counter:\n{rendered}"
    );
}

/// The health plane opts out of deadline enforcement end to end: both
/// `GET /vm/health` and `GET /fleet/status` answer a request whose
/// `x-vnfguard-deadline` budget is already exhausted. An incident is
/// exactly when those surfaces get read, and an incident is exactly when
/// caller budgets are all burned.
#[test]
fn health_surfaces_ignore_exhausted_deadlines() {
    let mut tb = TestbedBuilder::new(b"overload health optout")
        .durable()
        .replicas(1)
        .admission_config(tight_admission())
        .health()
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-health", 1).unwrap();
    tb.enroll(0, &guard).unwrap();

    let network = tb.network.clone();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(std::mem::replace(
        &mut tb.ias,
        vnfguard_ias::AttestationService::new(b"placeholder"),
    )));
    let _api = serve_vm_api(&network, "vm:8443", tb.vm_service(), ias, "controller").unwrap();
    let (monitor, _standby_health) = tb.fleet_monitor("operator", "vm:8443").unwrap();
    let _fleet = serve_fleet_api(&network, "fleet:9443", Arc::new(Mutex::new(monitor))).unwrap();

    // Dead budget straight at the VM's health surface → still a full 200.
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());
    let response = client
        .request(&Request::get("/vm/health").with_header(DEADLINE_HEADER, "0"))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);
    let body = response.parse_json().unwrap();
    let alerts = body
        .get("alerts")
        .and_then(Json::as_array)
        .expect("health body carries the alert list");
    assert!(!alerts.is_empty(), "default SLO set evaluates to alerts");
    assert!(body.get("shards").and_then(Json::as_array).is_some());

    // Same contract one layer up, on the fleet cockpit (which scrapes the
    // VM and the standby endpoint underneath this request).
    let mut client = HttpClient::new(network.connect("fleet:9443").unwrap());
    let response = client
        .request(&Request::get("/fleet/status").with_header(DEADLINE_HEADER, "0"))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);
    let body = response.parse_json().unwrap();
    assert_eq!(body.get("stale_nodes").and_then(Json::as_i64), Some(0));
    let nodes = body.get("nodes").and_then(Json::as_array).unwrap();
    assert_eq!(nodes.len(), 2, "primary + one standby: {body:?}");
    assert!(nodes
        .iter()
        .all(|n| n.get("reachable").and_then(Json::as_bool) == Some(true)));

    // The ASCII cockpit answers under the same dead budget.
    let response = client
        .request(&Request::get("/fleet/status?format=ascii").with_header(DEADLINE_HEADER, "0"))
        .unwrap();
    assert!(response.status.is_success());
    let text = String::from_utf8(response.body.clone()).unwrap();
    assert!(text.contains("fleet cockpit"), "{text}");
}

/// Manager-side renewal backoff: a refused serial disappears from the
/// renewal sweep until its jittered next-attempt instant, reappears after,
/// always reappears once expired, and is wiped by a successful renewal.
#[test]
fn refused_renewals_back_off_until_their_jittered_retry() {
    let mut tb = TestbedBuilder::new(b"overload renewal backoff")
        .renewal_window(6 * 3600)
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-backoff", 1).unwrap();
    let cert = tb.enroll(0, &guard).unwrap();

    // Walk into the renewal window: the serial is due.
    tb.clock.advance(20 * 3600);
    let due: Vec<u64> = tb.vm.certs_expiring().iter().map(|d| d.serial).collect();
    assert!(due.contains(&cert.serial()));

    // Refuse it: hidden from the sweep while the backoff runs.
    tb.vm.note_renewal_refused(cert.serial(), 5);
    let until = tb.vm.renewal_backoff_until(cert.serial()).unwrap();
    let now = tb.clock.now();
    assert!(
        until > now && until <= now + 10,
        "first backoff ~5s: {until}"
    );
    assert!(!tb
        .vm
        .certs_expiring()
        .iter()
        .any(|d| d.serial == cert.serial()));

    // A second refusal doubles the bound (still jittered).
    tb.vm.note_renewal_refused(cert.serial(), 5);
    let until = tb.vm.renewal_backoff_until(cert.serial()).unwrap();
    assert!(until <= tb.clock.now() + 20);

    // Past the backoff, the serial is offered again.
    tb.clock.advance(21);
    assert!(tb
        .vm
        .certs_expiring()
        .iter()
        .any(|d| d.serial == cert.serial()));

    // An *expired* credential ignores backoff: correctness over politeness.
    tb.vm.note_renewal_refused(cert.serial(), 3600);
    tb.clock.advance(5 * 3600);
    assert!(tb
        .vm
        .certs_expiring()
        .iter()
        .any(|d| d.serial == cert.serial()));

    // A successful renewal clears the backoff entry. (The host verdict
    // went stale over the hours this test skipped; re-attest first.)
    tb.attest_host(0).unwrap();
    let renewed = tb.renew(&guard, cert.serial()).unwrap();
    assert_ne!(renewed.serial(), cert.serial());
    assert!(tb.vm.renewal_backoff_until(cert.serial()).is_none());
}
