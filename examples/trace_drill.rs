//! Trace drill: one operator-rooted distributed trace following an
//! enrollment across the VM API, the Verification Manager, a retried IAS
//! round-trip, the host agent and the controller — rendered as the ASCII
//! waterfall an operator sees at `GET /vm/traces/{id}?format=ascii`.
//!
//! ```text
//! cargo run --example trace_drill
//! ```

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vnfguard::controller::{NorthboundClient, SecurityMode};
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::core::remote::{serve_vm_api, HostAgent};
use vnfguard::core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::http::Request;
use vnfguard::net::server::HttpClient;
use vnfguard::net::FaultPlan;
use vnfguard::telemetry::Telemetry;

fn main() {
    let telemetry = Telemetry::new();
    let mut tb = TestbedBuilder::new(b"trace drill")
        .mode(SecurityMode::Http)
        .telemetry(telemetry.clone())
        .tracing(1.0)
        .build();
    let network = tb.network.clone();
    let clock = tb.clock.clone();
    let faults = FaultPlan::seeded(3);
    network.install_faults(&faults);

    // Deploy the IAS, the host agent and the VM API as separate services.
    let (_ias_handle, remote_ias) = tb.serve_ias("ias:443").unwrap();
    let remote_ias = remote_ias
        .with_resilience(
            clock.clone(),
            RetryPolicy::new(6, 1, 8).with_seed(3),
            CircuitBreaker::new(32, 600),
        )
        .with_telemetry(&telemetry);

    let guard = tb.deploy_guard(0, "vnf-traced", 1).unwrap();
    let guards = HashMap::from([("vnf-traced".to_string(), Arc::new(guard))]);
    let state = tb.take_agent_state(guards, Some(tb.vm.share_hmac_key()));
    let agent_clock = clock.clone();
    let _agent =
        HostAgent::serve_traced(&network, state, &telemetry, move || agent_clock.now()).unwrap();

    let vm = tb.vm_service();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(remote_ias));
    let _api = serve_vm_api(&network, "vm:8443", vm, ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    // The operator's trace root; every request below carries its context.
    let (root, root_span) = telemetry.trace_root("operator", "enrollment_drill", clock.now());
    let root_hex = format!("{:032x}", root.trace_id);
    println!("trace {root_hex} started\n");

    // Refuse the first two IAS connections so retry child spans appear.
    faults.refuse_next("ias:443", 2);

    for path in [
        "/vm/hosts/host-0/attest".to_string(),
        "/vm/hosts/host-0/vnfs/vnf-traced/enroll".to_string(),
    ] {
        let response = client
            .request(&Request::post(&path).with_trace(&root))
            .unwrap();
        println!(
            "POST {path} -> {} (x-vnfguard-trace: {})",
            response.status.code(),
            response
                .headers
                .get("x-vnfguard-trace")
                .cloned()
                .unwrap_or_default()
        );
    }

    // One controller hop inside the same trace.
    let mut northbound = NorthboundClient::connect_plain(&network, &tb.controller_addr).unwrap();
    northbound.summary().unwrap();
    println!("GET /wm/core/controller/summary/json -> 200 (controller hop)\n");

    drop(root_span);

    // What the operator sees at GET /vm/traces/{id}?format=ascii.
    let waterfall = client
        .request(&Request::get(&format!(
            "/vm/traces/{root_hex}?format=ascii"
        )))
        .unwrap();
    println!("GET /vm/traces/{root_hex}?format=ascii\n");
    println!("{}", String::from_utf8(waterfall.body).unwrap());

    let chrome = client
        .request(&Request::get(&format!(
            "/vm/traces/{root_hex}?format=chrome"
        )))
        .unwrap();
    println!(
        "?format=chrome -> {} bytes of trace_event JSON (load in chrome://tracing)",
        chrome.body.len()
    );
}
