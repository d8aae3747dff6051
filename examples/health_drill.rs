//! Health-plane drill: watch the SLO burn-rate alert fire, follow its
//! trace exemplar into the collector, read the fleet cockpit through a
//! standby partition, and watch the alert resolve.
//!
//! ```text
//! cargo run --example health_drill
//! ```
//!
//! The timeline rides the simulated clock, so every run produces the
//! same alert trajectory:
//!
//! 1. healthy traced enrollments establish the baseline;
//! 2. the IAS link is severed — every enrollment fails at attestation
//!    and is charged as a bad availability event with its trace id;
//! 3. the `enrollment-availability` alert walks pending → firing once
//!    both burn windows breach, carrying the bad traces as exemplars;
//! 4. the exemplar resolves to a full span tree via `/vm/traces/{id}`;
//! 5. the fleet cockpit stays readable while a standby is partitioned
//!    (the node is marked stale, the scrape never wedges);
//! 6. the link heals, the windows age clear, and the alert resolves.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::fleet::serve_fleet_api;
use vnfguard::core::remote::{
    remote_attest_host, remote_enroll_vnf, serve_vm_api, HostAgent, RemoteIas,
};
use vnfguard::core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard::core::CoreError;
use vnfguard::ias::{AttestationService, QuoteVerifier};
use vnfguard::net::server::HttpClient;
use vnfguard::net::{FaultPlan, Request};
use vnfguard::telemetry::{AlertState, Telemetry};
use vnfguard::vnf::VnfGuard;

struct World {
    testbed: Testbed,
    agent: HostAgent,
    remote_ias: RemoteIas,
    telemetry: Telemetry,
    plan: FaultPlan,
    next_vnf: u64,
    _ias_handle: vnfguard::net::ServerHandle,
    _api_handle: vnfguard::net::ServerHandle,
}

fn world() -> World {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::seeded(0xd01);
    let mut testbed = TestbedBuilder::new(b"health drill")
        .telemetry(telemetry.clone())
        .tracing(1.0)
        .health()
        .durable()
        .replicas(1)
        .faults(plan.clone())
        .build();
    let (_ias_handle, remote_ias) = testbed.serve_ias("ias:443").unwrap();
    let mut remote_ias = remote_ias.with_telemetry(&telemetry).with_resilience(
        testbed.clock.clone(),
        RetryPolicy::new(2, 1, 4),
        CircuitBreaker::new(3, 60),
    );
    let state = testbed.take_agent_state(HashMap::new(), Some(testbed.vm.share_hmac_key()));
    let agent = HostAgent::serve(&testbed.network, state).unwrap();
    remote_attest_host(&testbed.vm, &mut remote_ias, &testbed.network, "host-0").unwrap();
    let api_ias: Arc<Mutex<dyn QuoteVerifier + Send>> =
        Arc::new(Mutex::new(AttestationService::new(b"placeholder")));
    let _api_handle = serve_vm_api(
        &testbed.network,
        "vm:8443",
        testbed.vm_service(),
        api_ias,
        "controller",
    )
    .unwrap();
    World {
        testbed,
        agent,
        remote_ias,
        telemetry,
        plan,
        next_vnf: 0,
        _ias_handle,
        _api_handle,
    }
}

/// One operator-rooted traced enrollment of a fresh VNF name.
fn enroll(world: &mut World) -> Result<(), CoreError> {
    world.next_vnf += 1;
    let name = format!("vnf-{}", world.next_vnf);
    let guard = VnfGuard::load(
        &world.agent.state.platform,
        &world.testbed.network,
        &world.testbed.enclave_author,
        &name,
        1,
    )
    .unwrap();
    world.testbed.vm.trust_enclave(guard.mrenclave(), &name);
    world
        .agent
        .state
        .guards
        .write()
        .insert(name.clone(), Arc::new(guard));
    let host_id = world.agent.state.host_id.clone();
    let now = world.testbed.clock.now();
    let _root = world.telemetry.trace_root("operator", "enrollment", now);
    remote_enroll_vnf(
        &world.testbed.vm,
        &mut world.remote_ias,
        &world.testbed.network,
        &host_id,
        &name,
        "controller",
    )
    .map(|_| ())
}

fn main() {
    let mut world = world();
    let health = world.testbed.vm.health().expect("health attached").clone();
    let clock = world.testbed.clock.clone();
    let slo = "enrollment-availability";

    println!("== baseline: healthy traced enrollments ==");
    for _ in 0..10 {
        clock.advance(2);
        enroll(&mut world).expect("healthy enrollment");
    }
    let baseline = health.alert(slo, clock.now()).unwrap();
    println!(
        "  {} after 10 good enrollments: {} (fast burn {:.2}, slow burn {:.2})",
        slo,
        baseline.state.as_str(),
        baseline.fast_burn,
        baseline.slow_burn
    );

    println!("\n== incident: severing the IAS link ==");
    let stall_start = clock.now();
    world.plan.isolate("ias:443");
    let mut firing = None;
    let mut last_state = AlertState::Ok;
    while firing.is_none() {
        clock.advance(5);
        let _ = enroll(&mut world);
        let alert = health.alert(slo, clock.now()).unwrap();
        if alert.state != last_state {
            println!(
                "  t+{:>4}s  {} -> {} (fast burn {:.1}x, slow burn {:.1}x)",
                clock.now() - stall_start,
                last_state.as_str(),
                alert.state.as_str(),
                alert.fast_burn,
                alert.slow_burn
            );
            last_state = alert.state;
        }
        if alert.state == AlertState::Firing {
            firing = Some(alert);
        }
    }
    let firing = firing.unwrap();

    println!("\n== exemplar: from the firing alert into the trace collector ==");
    let trace_id = *firing
        .exemplar_trace_ids
        .first()
        .expect("firing alert carries exemplars");
    let mut vm_client = HttpClient::new(world.testbed.network.connect("vm:8443").unwrap());
    let tree = vm_client
        .request(&Request::get(&format!("/vm/traces/{trace_id:032x}")))
        .unwrap()
        .parse_json()
        .unwrap();
    println!(
        "  GET /vm/traces/{trace_id:032x} -> {} spans of the failed enrollment",
        tree.get("span_count")
            .and_then(vnfguard::encoding::Json::as_i64)
            .unwrap_or(0)
    );

    println!("\n== cockpit: fleet status while a standby is partitioned ==");
    let (monitor, _standby_handles) = world.testbed.fleet_monitor("operator", "vm:8443").unwrap();
    let _fleet = serve_fleet_api(
        &world.testbed.network,
        "fleet:9443",
        Arc::new(Mutex::new(monitor)),
    )
    .unwrap();
    let mut fleet_client = HttpClient::new(world.testbed.network.connect("fleet:9443").unwrap());
    // One healthy scrape first, so the standby has data to go stale.
    fleet_client
        .request(&Request::get("/fleet/status"))
        .unwrap();
    world.plan.isolate("health-vm-standby-0:7600");
    clock.advance(5);
    let cockpit = fleet_client
        .request(&Request::get("/fleet/status?format=ascii"))
        .unwrap();
    println!("{}", String::from_utf8(cockpit.body).unwrap());
    world.plan.heal("health-vm-standby-0:7600");

    println!("== recovery: healing the IAS link ==");
    world.plan.heal("ias:443");
    loop {
        clock.advance(10);
        let _ = enroll(&mut world);
        let alert = health.alert(slo, clock.now()).unwrap();
        if alert.state != last_state {
            println!(
                "  t+{:>4}s  {} -> {} (resolved_at {:?})",
                clock.now() - stall_start,
                last_state.as_str(),
                alert.state.as_str(),
                alert.resolved_at
            );
            last_state = alert.state;
        }
        if alert.state == AlertState::Ok {
            break;
        }
    }
    println!("\nhealth drill complete: fired, exemplified, survived a partition, resolved.");
}
