//! The fully networked deployment: Verification Manager, IAS and host
//! agents as separate services on the fabric, driven through the VM's
//! operator API — the distributed shape of the paper's Figure 1.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_core::remote::{
    remote_attest_host, remote_enroll_vnf, serve_vm_api, HostAgent, RemoteIas,
};
use vnfguard_encoding::{base64, Json};
use vnfguard_ias::QuoteVerifier;
use vnfguard_net::http::Request;
use vnfguard_net::server::HttpClient;
use vnfguard_pki::Certificate;

/// Assemble a networked deployment from a testbed: move the IAS behind a
/// REST endpoint and put an agent in front of host 0.
struct RemoteWorld {
    testbed: vnfguard_core::deployment::Testbed,
    agent: HostAgent,
    remote_ias: RemoteIas,
    _ias_handle: vnfguard_net::server::ServerHandle,
}

fn remote_world(seed: &[u8]) -> RemoteWorld {
    let mut testbed = TestbedBuilder::new(seed).build();

    // Move the IAS out onto the fabric.
    let (_ias_handle, remote_ias) = testbed.serve_ias("ias:443").unwrap();

    // Put an agent in front of host 0. The testbed host's parts move into
    // the shared agent state.
    let guard = testbed.deploy_guard(0, "vnf-remote", 1).unwrap();
    let guards = HashMap::from([("vnf-remote".to_string(), Arc::new(guard))]);
    let state = testbed.take_agent_state(guards, None);
    let agent = HostAgent::serve(&testbed.network, state).unwrap();

    RemoteWorld {
        testbed,
        agent,
        remote_ias,
        _ias_handle,
    }
}

#[test]
fn networked_attestation_and_enrollment() {
    let mut world = remote_world(b"remote world 1");

    // Steps 1-2 across the fabric (VM → agent → integrity enclave → QE,
    // then VM → remote IAS).
    let verdict = remote_attest_host(
        &world.testbed.vm,
        &mut world.remote_ias,
        &world.testbed.network,
        "host-0",
    )
    .unwrap();
    assert!(verdict.is_trusted());

    // Steps 3-5 across the fabric.
    let certificate: Certificate = remote_enroll_vnf(
        &world.testbed.vm,
        &mut world.remote_ias,
        &world.testbed.network,
        "host-0",
        "vnf-remote",
        "controller",
    )
    .unwrap();
    assert_eq!(certificate.subject_cn(), "vnf-remote");

    // The enclave actually holds the credentials now.
    let guards = world.agent.state.guards.read();
    let status = guards["vnf-remote"].status().unwrap();
    assert!(status.provisioned);
    assert_eq!(status.serial, certificate.serial());
    assert!(world.agent.requests_served() >= 3);
}

#[test]
fn networked_enrollment_of_unknown_vnf_fails() {
    let mut world = remote_world(b"remote world 2");
    remote_attest_host(
        &world.testbed.vm,
        &mut world.remote_ias,
        &world.testbed.network,
        "host-0",
    )
    .unwrap();
    let err = remote_enroll_vnf(
        &world.testbed.vm,
        &mut world.remote_ias,
        &world.testbed.network,
        "host-0",
        "ghost-vnf",
        "controller",
    )
    .unwrap_err();
    assert!(err.to_string().contains("404") || err.to_string().contains("agent"));
}

#[test]
fn unreachable_ias_fails_closed() {
    let world = remote_world(b"remote world 3");
    // Point the client at an address nobody serves.
    let mut dead_ias = RemoteIas::new(
        &world.testbed.network,
        "ias:9999",
        *world.remote_ias.report_key().unwrap().key(),
    );
    let err = remote_attest_host(
        &world.testbed.vm,
        &mut dead_ias,
        &world.testbed.network,
        "host-0",
    )
    .unwrap_err();
    // The synthesized fail-closed report does not verify under the real key.
    assert!(matches!(
        err,
        vnfguard_core::CoreError::AttestationFailed(_)
    ));
}

#[test]
fn operator_api_drives_the_workflow() {
    let world = remote_world(b"remote world 4");
    let network = world.testbed.network.clone();

    // Hand the service handle + wrapped IAS to the API server.
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(world.remote_ias));
    let _api = serve_vm_api(
        &network,
        "vm:8443",
        world.testbed.vm_service(),
        ias,
        "controller",
    )
    .unwrap();

    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    // Trigger host attestation through the API.
    let response = client
        .request(&Request::post("/vm/hosts/host-0/attest"))
        .unwrap();
    assert!(response.status.is_success(), "{:?}", response.status);
    assert_eq!(
        response
            .parse_json()
            .unwrap()
            .get("verdict")
            .and_then(Json::as_str),
        Some("Trusted")
    );

    // Enroll through the API.
    let response = client
        .request(&Request::post("/vm/hosts/host-0/vnfs/vnf-remote/enroll"))
        .unwrap();
    assert!(response.status.is_success());
    let body = response.parse_json().unwrap();
    let serial = body.get("serial").and_then(Json::as_i64).unwrap();
    assert_eq!(
        body.get("subject").and_then(Json::as_str),
        Some("vnf-remote")
    );

    // Status reflects the enrollment.
    let status = client
        .request(&Request::get("/vm/status"))
        .unwrap()
        .parse_json()
        .unwrap();
    assert_eq!(status.get("enrollments").and_then(Json::as_i64), Some(1));

    // Fetch the CA certificate and CRL.
    let ca_doc = client
        .request(&Request::get("/vm/ca"))
        .unwrap()
        .parse_json()
        .unwrap();
    let ca_bytes =
        base64::decode(ca_doc.get("certificate").and_then(Json::as_str).unwrap()).unwrap();
    let ca_cert = Certificate::decode(&ca_bytes).unwrap();
    assert!(ca_cert.is_self_signed());

    // Revoke via the API; the CRL grows.
    let response = client
        .request(&Request::post("/vm/revoke").with_json(&Json::object().with("serial", serial)))
        .unwrap();
    assert!(response.status.is_success());
    let crl_doc = client
        .request(&Request::get("/vm/crl"))
        .unwrap()
        .parse_json()
        .unwrap();
    let crl_bytes = base64::decode(crl_doc.get("crl").and_then(Json::as_str).unwrap()).unwrap();
    let crl = vnfguard_pki::Crl::decode(&crl_bytes).unwrap();
    assert!(crl.lookup(serial as u64).is_some());
    crl.verify(&ca_cert.tbs.public_key).unwrap();

    // Unknown serial → 404.
    let response = client
        .request(&Request::post("/vm/revoke").with_json(&Json::object().with("serial", 424242i64)))
        .unwrap();
    assert_eq!(response.status.code(), 404);
}
