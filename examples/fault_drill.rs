//! Fault drill: the attestation/enrollment pipeline driven through every
//! injected-failure mode, narrated.
//!
//! ```text
//! cargo run --example fault_drill
//! ```

use std::collections::HashMap;
use std::sync::Arc;
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::remote::{remote_attest_host, remote_enroll_vnf, HostAgent, RemoteIas};
use vnfguard::core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard::core::revocation::{revocation_message, RevocationNotifier};
use vnfguard::core::CoreError;
use vnfguard::net::{FaultEvent, FaultPlan};

struct World {
    testbed: Testbed,
    agent: HostAgent,
    remote_ias: RemoteIas,
    plan: FaultPlan,
    _ias_handle: vnfguard::net::ServerHandle,
}

fn world(seed: &[u8], plan_seed: u64, retry: RetryPolicy, breaker: CircuitBreaker) -> World {
    world_with(seed, plan_seed, retry, breaker, |b| b)
}

fn world_with(
    seed: &[u8],
    plan_seed: u64,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    configure: impl FnOnce(TestbedBuilder) -> TestbedBuilder,
) -> World {
    let mut testbed = configure(TestbedBuilder::new(seed)).build();
    let plan = FaultPlan::seeded(plan_seed);
    testbed.network.install_faults(&plan);
    let (_ias_handle, remote_ias) = testbed.serve_ias("ias:443").unwrap();
    let remote_ias = remote_ias.with_resilience(testbed.clock.clone(), retry, breaker);
    let guard = testbed.deploy_guard(0, "vnf-drill", 1).unwrap();
    let guards = HashMap::from([("vnf-drill".to_string(), Arc::new(guard))]);
    let state = testbed.take_agent_state(guards, Some(testbed.vm.share_hmac_key()));
    let agent = HostAgent::serve(&testbed.network, state).unwrap();
    World {
        testbed,
        agent,
        remote_ias,
        plan,
        _ias_handle,
    }
}

fn attest(w: &mut World) -> Result<vnfguard::ima::appraisal::Verdict, CoreError> {
    remote_attest_host(
        &w.testbed.vm,
        &mut w.remote_ias,
        &w.testbed.network,
        "host-0",
    )
}

fn enroll(w: &mut World) -> Result<vnfguard::pki::Certificate, CoreError> {
    remote_enroll_vnf(
        &w.testbed.vm,
        &mut w.remote_ias,
        &w.testbed.network,
        "host-0",
        "vnf-drill",
        "controller",
    )
}

fn main() {
    // ---- 1: flaky IAS, retries absorb ----------------------------------
    println!("== drill 1: 30% IAS connection refusals ==");
    let mut w = world(
        b"drill flaky",
        7,
        RetryPolicy::new(8, 1, 16).with_seed(7),
        CircuitBreaker::new(32, 600),
    );
    w.plan.refuse_connections("ias:443", 0.30);
    for round in 0..3 {
        let verdict = attest(&mut w).unwrap();
        println!(
            "  attest round {round}: {verdict:?} after {} attempt(s)",
            w.remote_ias.last_attempts().len()
        );
    }
    let cert = enroll(&mut w).unwrap();
    let refused = w
        .plan
        .events()
        .iter()
        .filter(|e| matches!(e, FaultEvent::Refused { .. }))
        .count();
    println!(
        "  enrolled {} (serial {}); plan refused {} connection(s); breaker {:?}",
        cert.subject_cn(),
        cert.serial(),
        refused,
        w.remote_ias.breaker_state()
    );

    // ---- 2: hard partition, breaker + degraded verdicts ----------------
    println!("== drill 2: VM partitioned from IAS ==");
    let mut w = world(
        b"drill partition",
        11,
        RetryPolicy::new(2, 1, 4).with_seed(11),
        CircuitBreaker::new(2, 3600),
    );
    attest(&mut w).unwrap();
    w.plan.partition(&["vm"], &["ias:443"]);
    println!(
        "  degraded policy OFF (default): attest → {}",
        attest(&mut w).unwrap_err()
    );
    println!(
        "                        2nd try → {}",
        attest(&mut w).unwrap_err()
    );
    println!("  breaker is now {:?}", w.remote_ias.breaker_state());
    println!(
        "  open circuit, policy OFF: {}",
        attest(&mut w).unwrap_err()
    );

    // Degradation is a build-time policy now (ManagerConfig::builder()'s
    // degraded_verdicts): stand up the same drill with the policy ON.
    let mut w = world_with(
        b"drill partition",
        11,
        RetryPolicy::new(2, 1, 4).with_seed(11),
        CircuitBreaker::new(2, 3600),
        |b| b.degraded(true, 900),
    );
    attest(&mut w).unwrap();
    w.plan.partition(&["vm"], &["ias:443"]);
    let _ = attest(&mut w); // trip the breaker...
    let _ = attest(&mut w); // ...two failed operations open it
    let verdict = attest(&mut w).unwrap();
    let audited = w
        .testbed
        .vm
        .events()
        .iter()
        .filter(|e| e.kind == "DegradedVerdict")
        .count();
    println!("  policy ON: cached {verdict:?} accepted; {audited} DegradedVerdict audit event(s)");
    println!("  enrollment stays closed: {}", enroll(&mut w).unwrap_err());

    // ---- 3: link cut mid-provisioning ----------------------------------
    println!("== drill 3: connection cut after 900 bytes, mid-provisioning ==");
    let mut w = world(
        b"drill drop",
        23,
        RetryPolicy::new(1, 0, 0),
        CircuitBreaker::new(32, 600),
    );
    attest(&mut w).unwrap();
    w.plan.drop_after_bytes("agent:host-0", 900);
    match enroll(&mut w) {
        Err(CoreError::ProvisioningRolledBack(detail)) => {
            println!("  rolled back: {detail}");
        }
        other => println!("  unexpected: {other:?}"),
    }
    let crl = w.testbed.vm.current_crl(3600);
    println!(
        "  pending enrollments: {}; committed: {}; CRL entries: {}; enclave provisioned: {}",
        w.testbed.vm.pending_enrollments().count(),
        w.testbed.vm.enrollments().count(),
        crl.len(),
        w.agent.state.guards.read()["vnf-drill"]
            .status()
            .unwrap()
            .provisioned,
    );

    // ---- 4: revocation notices queue and drain -------------------------
    println!("== drill 4: revocation notice to an isolated host ==");
    let mut w = world(
        b"drill revoke",
        31,
        RetryPolicy::new(2, 1, 4).with_seed(31),
        CircuitBreaker::new(8, 600),
    );
    attest(&mut w).unwrap();
    let cert = enroll(&mut w).unwrap();
    let serial = cert.serial();
    let now = w.testbed.clock.now();
    w.testbed
        .vm
        .revoke_credential(serial, vnfguard::pki::crl::RevocationReason::KeyCompromise)
        .unwrap();
    let tag = w.testbed.vm.hmac_tag(&revocation_message("host-0", serial));
    w.plan.isolate("agent:host-0");
    let mut notifier = RevocationNotifier::new(&w.testbed.network);
    let sent = notifier.notify("host-0", serial, tag, now);
    println!(
        "  host isolated: delivered={sent}, queued={}",
        notifier.pending().len()
    );
    w.plan.heal("agent:host-0");
    let drained = notifier.drain(now);
    println!(
        "  host healed: drained={drained}, agent evicted serial {serial}: {}",
        w.agent.state.revoked_serials.read().contains(&serial)
    );
    let forged = notifier.notify("host-0", 999, [0xAA; 32], now);
    println!(
        "  forged tag for serial 999: delivered={forged}, agent accepted it: {}",
        w.agent.state.revoked_serials.read().contains(&999)
    );

    println!("\nEvery failure mode was injected, survived or failed closed, and audited.");
}
