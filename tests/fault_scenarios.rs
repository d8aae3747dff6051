//! Chaos scenarios: the attestation/enrollment pipeline under injected
//! network faults.
//!
//! Each scenario assembles the distributed deployment (Verification
//! Manager, remote IAS, host agent on the fabric), installs a seeded
//! [`FaultPlan`], and asserts the resilience contract:
//!
//! - transient IAS refusals are absorbed by retries;
//! - a hard IAS partition opens the circuit breaker, degraded verdicts
//!   are policy-gated and audit-logged, and credential issuance fails
//!   closed;
//! - a connection cut mid-provisioning leaves zero half-provisioned
//!   enclaves (prepare → commit with rollback);
//! - revocation notices to an unreachable host queue and drain on heal;
//! - the same fault-plan seed replays the same failure sequence.

use std::collections::HashMap;
use std::sync::Arc;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::core::remote::{remote_attest_host, remote_enroll_vnf, HostAgent, RemoteIas};
use vnfguard::core::resilience::{BreakerState, CircuitBreaker, RetryPolicy};
use vnfguard::core::revocation::{revocation_message, RevocationNotifier};
use vnfguard::core::CoreError;
use vnfguard::net::{FaultEvent, FaultPlan, NetError};

/// The distributed deployment under test: testbed + remote IAS + one host
/// agent, with a fault plan installed on the shared fabric.
struct ChaosWorld {
    testbed: vnfguard::core::deployment::Testbed,
    agent: HostAgent,
    remote_ias: RemoteIas,
    plan: FaultPlan,
    _ias_handle: vnfguard::net::server::ServerHandle,
}

fn chaos_world(
    seed: &[u8],
    plan_seed: u64,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
) -> ChaosWorld {
    chaos_world_with(seed, plan_seed, retry, breaker, |b| b)
}

fn chaos_world_with(
    seed: &[u8],
    plan_seed: u64,
    retry: RetryPolicy,
    breaker: CircuitBreaker,
    configure: impl FnOnce(TestbedBuilder) -> TestbedBuilder,
) -> ChaosWorld {
    let mut testbed = configure(TestbedBuilder::new(seed)).build();
    let plan = FaultPlan::seeded(plan_seed);
    testbed.network.install_faults(&plan);

    // IAS onto the fabric; the client handle shares the deployment clock.
    let (_ias_handle, remote_ias) = testbed.serve_ias("ias:443").unwrap();
    let remote_ias = remote_ias.with_resilience(testbed.clock.clone(), retry, breaker);

    // An agent in front of host 0, holding one deployable VNF guard. The
    // agent knows the VM's HMAC key so it can authenticate revocations.
    let guard = testbed.deploy_guard(0, "vnf-chaos", 1).unwrap();
    let guards = HashMap::from([("vnf-chaos".to_string(), Arc::new(guard))]);
    let state = testbed.take_agent_state(guards, Some(testbed.vm.share_hmac_key()));
    let agent = HostAgent::serve(&testbed.network, state).unwrap();

    ChaosWorld {
        testbed,
        agent,
        remote_ias,
        plan,
        _ias_handle,
    }
}

fn attest_host0(world: &mut ChaosWorld) -> Result<vnfguard::ima::appraisal::Verdict, CoreError> {
    remote_attest_host(
        &world.testbed.vm,
        &mut world.remote_ias,
        &world.testbed.network,
        "host-0",
    )
}

fn enroll_vnf(world: &mut ChaosWorld) -> Result<vnfguard::pki::Certificate, CoreError> {
    remote_enroll_vnf(
        &world.testbed.vm,
        &mut world.remote_ias,
        &world.testbed.network,
        "host-0",
        "vnf-chaos",
        "controller",
    )
}

// ---------------------------------------------------------------------------
// Scenario 1: probabilistic IAS refusals are absorbed by retries.
// ---------------------------------------------------------------------------

#[test]
fn enrollment_completes_despite_ias_refusals() {
    // Generous retry budget, breaker slack enough not to open.
    let mut world = chaos_world(
        b"chaos: flaky ias",
        7,
        RetryPolicy::new(8, 1, 16).with_seed(7),
        CircuitBreaker::new(32, 600),
    );
    world.plan.refuse_connections("ias:443", 0.30);

    // Several host attestations plus an enrollment, each crossing the
    // faulty VM → IAS link.
    for _ in 0..3 {
        assert!(attest_host0(&mut world).unwrap().is_trusted());
    }
    let certificate = enroll_vnf(&mut world).expect("retries should absorb 30% refusals");
    assert_eq!(certificate.subject_cn(), "vnf-chaos");

    // The enclave really holds the credentials.
    let guards = world.agent.state.guards.read();
    assert!(guards["vnf-chaos"].status().unwrap().provisioned);
    drop(guards);

    // The faults were real: the plan refused at least one connection, and
    // the client logged retried attempts.
    let refusals = world
        .plan
        .events()
        .iter()
        .filter(|e| matches!(e, FaultEvent::Refused { addr, .. } if addr == "ias:443"))
        .count();
    assert!(refusals > 0, "fault plan never fired; scenario is vacuous");
    assert!(
        !world.remote_ias.last_attempts().is_empty(),
        "attempt log missing"
    );
    assert_eq!(world.remote_ias.breaker_state(), BreakerState::Closed);
}

// ---------------------------------------------------------------------------
// Scenario 2: hard IAS partition → breaker opens, degradation is gated
// and audited, issuance fails closed.
// ---------------------------------------------------------------------------

#[test]
fn ias_partition_opens_breaker_and_gates_degradation() {
    // Graceful degradation is a build-time policy decision now: the
    // manager config opts in before the deployment exists.
    let mut world = chaos_world_with(
        b"chaos: ias partition",
        11,
        RetryPolicy::new(2, 1, 4).with_seed(11),
        CircuitBreaker::new(2, 3600),
        |b| b.degraded(true, 900),
    );

    // Healthy attestation first: the VM caches a trusted verdict.
    assert!(attest_host0(&mut world).unwrap().is_trusted());

    // Partition the VM away from IAS.
    world.plan.partition(&["vm"], &["ias:443"]);

    // Two failed operations (each a full retried POST) trip the breaker.
    for _ in 0..2 {
        let err = attest_host0(&mut world).unwrap_err();
        assert!(
            matches!(err, CoreError::AttestationFailed(_)),
            "unverifiable fallback report must fail closed, got: {err}"
        );
    }
    assert_eq!(world.remote_ias.breaker_state(), BreakerState::Open);

    // Open circuit + degradation policy: the cached verdict stands in and
    // the decision is audit-logged as a DegradedVerdict event.
    let verdict = attest_host0(&mut world).expect("degraded verdict should apply");
    assert!(verdict.is_trusted());
    let degraded_events = world
        .testbed
        .vm
        .events()
        .iter()
        .filter(|e| e.kind == "DegradedVerdict")
        .count();
    assert_eq!(degraded_events, 1);

    // Credential issuance has no degraded mode: fail fast, fail closed.
    let err = enroll_vnf(&mut world).unwrap_err();
    assert!(
        matches!(err, CoreError::ServiceUnavailable(_)),
        "got: {err}"
    );
    assert_eq!(world.testbed.vm.enrollments().count(), 0);

    // A host whose last real appraisal failed gets nothing under
    // degradation, trusted cache or not.
    world.testbed.vm.revoke_host("host-0").unwrap();
    let err = attest_host0(&mut world).unwrap_err();
    assert!(
        matches!(err, CoreError::ServiceUnavailable(_)),
        "got: {err}"
    );
    assert_eq!(
        world
            .testbed
            .vm
            .events()
            .iter()
            .filter(|e| e.kind == "DegradedVerdict")
            .count(),
        1,
        "no degraded verdict for a failed appraisal"
    );

    // Heal the partition: the half-open probe recovers the breaker.
    world.plan.heal_partition();
    world.testbed.clock.advance(3600);
    assert_eq!(world.remote_ias.breaker_state(), BreakerState::HalfOpen);
    // host-0's record is now Mismatch, so re-attest through the healed
    // link: IAS answers again and the fresh appraisal restores trust.
    assert!(attest_host0(&mut world).unwrap().is_trusted());
    assert_eq!(world.remote_ias.breaker_state(), BreakerState::Closed);
    let certificate = enroll_vnf(&mut world).unwrap();
    assert_eq!(certificate.subject_cn(), "vnf-chaos");
}

// ---------------------------------------------------------------------------
// Scenario 3: a link cut mid-provisioning never leaves a half-provisioned
// enclave: either commit (delivered) or rollback (revoked serial).
// ---------------------------------------------------------------------------

#[test]
fn mid_provision_drop_never_half_provisions() {
    // Sweep cut points from "dies during the attest exchange" to "survives
    // everything". The invariant must hold at every cut point.
    let mut rolled_back = 0;
    let mut delivered = 0;
    for (i, budget) in [900u64, 2500, 4500, 9000, 200_000].into_iter().enumerate() {
        let mut world = chaos_world(
            format!("chaos: drop {i}").as_bytes(),
            23 + i as u64,
            RetryPolicy::new(1, 0, 0),
            CircuitBreaker::new(32, 600),
        );
        assert!(attest_host0(&mut world).unwrap().is_trusted());

        // Cut every future VM → agent connection after `budget` bytes.
        world.plan.drop_after_bytes("agent:host-0", budget);
        let result = enroll_vnf(&mut world);
        let vm = &world.testbed.vm;
        assert_eq!(
            vm.pending_enrollments().count(),
            0,
            "budget {budget}: a pending enrollment survived"
        );
        let guards = world.agent.state.guards.read();
        let provisioned = guards["vnf-chaos"].status().unwrap().provisioned;
        match result {
            Ok(certificate) => {
                delivered += 1;
                assert!(provisioned, "budget {budget}: committed but undelivered");
                assert_eq!(vm.enrollments().count(), 1);
                assert!(vm.current_crl(3600).lookup(certificate.serial()).is_none());
            }
            Err(CoreError::ProvisioningRolledBack(detail)) => {
                rolled_back += 1;
                assert!(
                    !provisioned,
                    "budget {budget}: rollback but enclave provisioned"
                );
                assert_eq!(vm.enrollments().count(), 0, "budget {budget}");
                // The issued-then-rolled-back serial is on the CRL.
                let serial: u64 = detail
                    .split("serial ")
                    .nth(1)
                    .and_then(|s| s.split(':').next())
                    .and_then(|s| s.trim().parse().ok())
                    .expect("rollback error names the serial");
                assert!(
                    vm.current_crl(3600).lookup(serial).is_some(),
                    "budget {budget}: rolled-back serial {serial} missing from CRL"
                );
            }
            Err(other) => {
                // Cut before issuance (e.g. during the attest exchange):
                // nothing was prepared, nothing to roll back.
                assert!(
                    matches!(
                        other,
                        CoreError::HostUnreachable(_) | CoreError::Encoding(_)
                    ),
                    "budget {budget}: unexpected error {other}"
                );
                assert!(!provisioned, "budget {budget}");
                assert_eq!(vm.enrollments().count(), 0, "budget {budget}");
            }
        }
    }
    assert!(delivered >= 1, "sweep never delivered; budgets too small");
    assert!(
        rolled_back >= 1,
        "sweep never cut between issuance and delivery; adjust budgets"
    );
}

// ---------------------------------------------------------------------------
// Scenario 4: revocation notices queue while the host is unreachable and
// drain once it heals.
// ---------------------------------------------------------------------------

#[test]
fn revocations_queue_and_drain_after_heal() {
    let mut world = chaos_world(
        b"chaos: revocation queue",
        31,
        RetryPolicy::new(2, 1, 4).with_seed(31),
        CircuitBreaker::new(8, 600),
    );
    assert!(attest_host0(&mut world).unwrap().is_trusted());
    let certificate = enroll_vnf(&mut world).unwrap();
    let serial = certificate.serial();
    let now = world.testbed.clock.now();
    world
        .testbed
        .vm
        .revoke_credential(serial, vnfguard::pki::crl::RevocationReason::KeyCompromise)
        .unwrap();
    let tag = world
        .testbed
        .vm
        .hmac_tag(&revocation_message("host-0", serial));

    // Host-0 drops off the network; the notice queues instead of failing.
    world.plan.isolate("agent:host-0");
    let mut notifier = RevocationNotifier::new(&world.testbed.network);
    assert!(!notifier.notify("host-0", serial, tag, now));
    assert_eq!(notifier.pending().len(), 1);
    assert!(world.agent.state.revoked_serials.read().is_empty());

    // Still down: drain delivers nothing, the notice stays queued.
    assert_eq!(notifier.drain(now), 0);
    assert_eq!(notifier.pending().len(), 1);
    assert!(notifier.pending()[0].attempts >= 2);

    // Heal: the queue drains and the agent evicts the serial.
    world.plan.heal("agent:host-0");
    assert_eq!(notifier.drain(now), 1);
    assert!(notifier.pending().is_empty());
    assert!(world.agent.state.revoked_serials.read().contains(&serial));

    // Forged notices are refused even when the host is reachable.
    let mut forger = RevocationNotifier::new(&world.testbed.network);
    assert!(!forger.notify("host-0", serial + 1, [0xAA; 32], now));
    assert!(!world
        .agent
        .state
        .revoked_serials
        .read()
        .contains(&(serial + 1)));
}

// ---------------------------------------------------------------------------
// Scenario 5: determinism — the same fault-plan seed replays the same
// failure sequence; a different seed diverges.
// ---------------------------------------------------------------------------

#[test]
fn same_fault_seed_replays_same_failure_sequence() {
    let run = |seed: u64| -> (Vec<bool>, Vec<FaultEvent>) {
        let network = vnfguard::net::Network::new();
        let plan = FaultPlan::seeded(seed);
        network.install_faults(&plan);
        let _listener = network.listen("svc:1").unwrap();
        plan.refuse_connections("svc:1", 0.5);
        let outcomes = (0..24)
            .map(|_| match network.connect_from("vm", "svc:1") {
                Ok(_) => true,
                Err(NetError::ConnectionRefused(_)) => false,
                Err(other) => panic!("unexpected error: {other}"),
            })
            .collect();
        (outcomes, plan.events())
    };

    let (outcomes_a, events_a) = run(1234);
    let (outcomes_b, events_b) = run(1234);
    assert_eq!(outcomes_a, outcomes_b, "same seed must replay admissions");
    assert_eq!(events_a, events_b, "same seed must replay the event log");
    assert!(
        outcomes_a.iter().any(|ok| *ok) && outcomes_a.iter().any(|ok| !*ok),
        "p=0.5 over 24 draws should mix admissions and refusals"
    );

    let (outcomes_c, _) = run(4321);
    assert_ne!(outcomes_a, outcomes_c, "different seeds should diverge");
}
