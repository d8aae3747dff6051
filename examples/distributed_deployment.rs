//! The distributed deployment: every box of Figure 1 as its own network
//! service, driven through the Verification Manager's operator API.
//!
//! - the IAS serves `POST /attestation/v4/report` on `ias:443`;
//! - each container host runs an agent answering attestation and
//!   provisioning requests on `agent:host-0`;
//! - the VM exposes its operator API on `vm:8443`;
//! - the controller serves trusted HTTPS on `controller:8443`.
//!
//! Run with: `cargo run --example distributed_deployment`

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::core::remote::{serve_vm_api, HostAgent};
use vnfguard::encoding::Json;
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::http::Request;
use vnfguard::net::server::HttpClient;

fn main() {
    println!("=== distributed deployment: one service per Figure-1 box ===\n");
    let mut testbed = TestbedBuilder::new(b"distributed").build();
    let network = testbed.network.clone();

    // Detach the IAS onto the fabric.
    let (_ias_server, remote_ias) = testbed.serve_ias("ias:443").unwrap();
    println!("[svc] IAS serving at ias:443");

    // Host 0 becomes an agent-fronted host with one guarded VNF.
    let guard = testbed.deploy_guard(0, "vnf-edge-fw", 1).unwrap();
    let guards = HashMap::from([("vnf-edge-fw".to_string(), Arc::new(guard))]);
    let state = testbed.take_agent_state(guards, None);
    let agent = HostAgent::serve(&network, state).unwrap();
    println!("[svc] host agent serving at {}", agent.address);

    // The VM's operator API: the service handle clones into the server,
    // so per-connection threads route to the shards concurrently.
    let remote_ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(remote_ias));
    let _vm_api = serve_vm_api(
        &network,
        "vm:8443",
        testbed.vm_service(),
        remote_ias,
        "controller",
    )
    .unwrap();
    println!("[svc] Verification Manager API serving at vm:8443");
    println!(
        "[svc] controller serving at {} (trusted HTTPS)\n",
        testbed.controller_addr
    );

    // Operate the deployment purely through the VM's REST API.
    let mut operator = HttpClient::new(network.connect("vm:8443").unwrap());

    let verdict = operator
        .request(&Request::post("/vm/hosts/host-0/attest"))
        .unwrap()
        .parse_json()
        .unwrap();
    println!(
        "[op ] POST /vm/hosts/host-0/attest → verdict {}",
        verdict.get("verdict").and_then(Json::as_str).unwrap_or("?")
    );

    let enrolled = operator
        .request(&Request::post("/vm/hosts/host-0/vnfs/vnf-edge-fw/enroll"))
        .unwrap()
        .parse_json()
        .unwrap();
    println!(
        "[op ] POST …/vnfs/vnf-edge-fw/enroll → subject {} serial {}",
        enrolled
            .get("subject")
            .and_then(Json::as_str)
            .unwrap_or("?"),
        enrolled.get("serial").and_then(Json::as_i64).unwrap_or(-1),
    );

    let status = operator
        .request(&Request::get("/vm/status"))
        .unwrap()
        .parse_json()
        .unwrap();
    println!(
        "[op ] GET /vm/status → issued={} enrollments={} events={}",
        status.get("issued").and_then(Json::as_i64).unwrap_or(0),
        status
            .get("enrollments")
            .and_then(Json::as_i64)
            .unwrap_or(0),
        status.get("events").and_then(Json::as_i64).unwrap_or(0),
    );

    // Step 6 still happens at the VNF: its enclave now holds credentials
    // (provisioned across the fabric) and talks to the controller directly.
    let guards = agent.state.guards.read();
    let enclave_status = guards["vnf-edge-fw"].status().unwrap();
    println!(
        "\n[vnf] enclave status after remote provisioning: provisioned={} subject={}",
        enclave_status.provisioned, enclave_status.subject
    );
    println!(
        "[net] fabric carried {} connections; agent answered {} requests",
        network.connection_count(),
        agent.requests_served()
    );

    // The observability surface: scrape the Prometheus exposition and tail
    // the audit journal, both over the same operator API.
    let metrics = operator.request(&Request::get("/vm/metrics")).unwrap();
    let exposition = String::from_utf8_lossy(&metrics.body).into_owned();
    let interesting = exposition
        .lines()
        .filter(|l| l.contains("enrollments_total") || l.contains("host_attestations_total"))
        .map(str::to_string)
        .collect::<Vec<_>>();
    println!("\n[obs] GET /vm/metrics (excerpt):");
    for line in interesting {
        println!("      {line}");
    }
    let events = operator
        .request(&Request::get("/vm/events?since=0"))
        .unwrap()
        .parse_json()
        .unwrap();
    println!(
        "[obs] GET /vm/events?since=0 → {} events, next_seq={}",
        events
            .get("events")
            .and_then(Json::as_array)
            .map(|a| a.len())
            .unwrap_or(0),
        events.get("next_seq").and_then(Json::as_i64).unwrap_or(0),
    );
    println!(
        "\nEvery workflow interaction crossed the network, none carried key material in clear."
    );
}
