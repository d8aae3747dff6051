//! Cross-crate integration: multi-host, multi-VNF deployments at (small)
//! scale, exercising the whole stack through the umbrella crate.

use vnfguard::controller::SecurityMode;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::encoding::Json;
use vnfguard::net::http::Request;

#[test]
fn three_hosts_nine_vnfs() {
    let mut testbed = TestbedBuilder::new(b"scale test").hosts(3).build();
    for host in 0..3 {
        assert!(testbed.attest_host(host).unwrap().is_trusted());
    }

    let mut guards = Vec::new();
    for host in 0..3 {
        for i in 0..3 {
            let name = format!("vnf-{host}-{i}");
            let guard = testbed.deploy_guard(host, &name, 1).unwrap();
            let cert = testbed.enroll(host, &guard).unwrap();
            assert_eq!(cert.subject_cn(), name);
            guards.push(guard);
        }
    }
    assert_eq!(testbed.vm.issued_count(), 9 + 1); // +1 controller cert

    // Every VNF can reach the controller, each with its own identity.
    for guard in &mut guards {
        let session = guard
            .open_session(&testbed.controller_addr, testbed.clock.now())
            .unwrap();
        let response = guard
            .request(session, &Request::get("/wm/core/health/json"))
            .unwrap();
        assert!(response.status.is_success());
        guard.close_session(session).unwrap();
    }
    assert_eq!(testbed.controller.requests_served(), 9);

    // All enrollments are recorded with the right hosts.
    let per_host = |host: &str| {
        testbed
            .vm
            .enrollments()
            .filter(|e| e.host_id == host)
            .count()
    };
    assert_eq!(per_host("host-0"), 3);
    assert_eq!(per_host("host-1"), 3);
    assert_eq!(per_host("host-2"), 3);
}

#[test]
fn session_survives_many_requests() {
    let mut testbed = TestbedBuilder::new(b"session endurance").build();
    testbed.attest_host(0).unwrap();
    let mut guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    testbed.enroll(0, &guard).unwrap();
    let session = testbed.open_session(&mut guard).unwrap();

    guard
        .request(
            session,
            &Request::post("/wm/core/switch/register").with_json(
                &Json::object()
                    .with("dpid", "01")
                    .with("ports", vec![Json::from(1i64)]),
            ),
        )
        .unwrap();
    // 50 flow pushes over one in-enclave session: record sequence numbers
    // keep advancing, keys stay inside.
    for i in 0..50i64 {
        let response = guard
            .request(
                session,
                &Request::post("/wm/staticflowpusher/json").with_json(
                    &Json::object()
                        .with("switch", "01")
                        .with("name", format!("flow-{i}"))
                        .with("priority", i)
                        .with("actions", "output=1"),
                ),
            )
            .unwrap();
        assert!(response.status.is_success(), "request {i}");
    }
    let summary = guard
        .request(session, &Request::get("/wm/core/controller/summary/json"))
        .unwrap()
        .parse_json()
        .unwrap();
    assert_eq!(
        summary.get("# static flows").and_then(Json::as_i64),
        Some(50)
    );
}

#[test]
fn mixed_mode_deployments_coexist() {
    // Two independent fabrics: an HTTP controller and a trusted one.
    let http = TestbedBuilder::new(b"mixed http")
        .mode(SecurityMode::Http)
        .build();
    let mut trusted = TestbedBuilder::new(b"mixed trusted").build();

    let mut plain_client =
        vnfguard::controller::NorthboundClient::connect_plain(&http.network, &http.controller_addr)
            .unwrap();
    plain_client.summary().unwrap();

    trusted.attest_host(0).unwrap();
    let mut guard = trusted.deploy_guard(0, "vnf", 1).unwrap();
    trusted.enroll(0, &guard).unwrap();
    let session = trusted.open_session(&mut guard).unwrap();
    guard
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
}

#[test]
fn sealed_restore_then_session() {
    // Restart persistence feeding directly into step 6.
    let mut testbed = TestbedBuilder::new(b"seal to session").build();
    testbed.attest_host(0).unwrap();
    let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    testbed.enroll(0, &guard).unwrap();
    let sealed = guard.export_sealed().unwrap();
    drop(guard);

    // New enclave instance (same image, same platform) restores and
    // connects without re-enrollment.
    let mut restarted = testbed.deploy_guard(0, "vnf", 1).unwrap();
    restarted.import_sealed(&sealed).unwrap();
    let session = testbed.open_session(&mut restarted).unwrap();
    let response = restarted
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
    assert!(response.status.is_success());
}

#[test]
fn ecall_accounting_reflects_activity() {
    let mut testbed = TestbedBuilder::new(b"accounting").build();
    testbed.attest_host(0).unwrap();
    let before = testbed.hosts[0].platform.ecall_count();
    let mut guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    testbed.enroll(0, &guard).unwrap();
    let session = testbed.open_session(&mut guard).unwrap();
    guard
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
    let after = testbed.hosts[0].platform.ecall_count();
    assert!(
        after > before + 5,
        "enrollment + session should cross the boundary many times ({before} → {after})"
    );
}
