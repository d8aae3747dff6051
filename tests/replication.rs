//! Replicated Verification Manager: streaming, catch-up, failover chaos
//! matrix, and zombie-primary fencing.
//!
//! The scenarios cover the replication subsystem end to end:
//!
//! - steady-state streaming keeps every standby byte-equivalent to the
//!   primary's journaled state;
//! - a standby cut off long enough to outrun the resend buffer is caught
//!   up with a sealed snapshot and converges anyway;
//! - the failover chaos matrix kills the primary mid-enrollment,
//!   mid-renewal, and mid-rotation under seeded load, promotes a standby,
//!   and asserts **zero divergence** against an uncrashed oracle twin
//!   recovered from the dead primary's own media — plus a bounded
//!   promotion time;
//! - a deposed primary that keeps appending after its partition heals is
//!   fenced by the epoch check, its operation fails, and the rejection is
//!   journaled;
//! - the failed primary's undelivered revocation notices survive node
//!   loss inside the replicated state and drain at promotion.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnfguard::core::crash::CrashPlan;
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::service::VmService;
use vnfguard::core::remote::{serve_vm_api, HostAgent};
use vnfguard::core::replication::ReplicationConfig;
use vnfguard::core::revocation::revocation_message;
use vnfguard::core::CoreError;
use vnfguard::encoding::Json;
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::http::Request;
use vnfguard::net::server::HttpClient;
use vnfguard::net::FaultPlan;
use vnfguard::pki::crl::RevocationReason;

/// Promotion must complete well under this (wall-clock) bound; the sim
/// does no real I/O waiting, so seconds of slack absorb CI noise.
const MAX_FAILOVER: Duration = Duration::from_secs(2);

/// Everything two managers must agree on for "zero certificate
/// divergence": CA root bytes, key epoch, serial high-water, CRL number,
/// committed enrollment records, and prepared-but-uncommitted serials.
#[allow(clippy::type_complexity)]
fn authority_view(
    vm: &VmService,
) -> (
    Vec<u8>,
    u64,
    u64,
    u64,
    Vec<(u64, String, String, bool)>,
    Vec<u64>,
) {
    (
        vm.ca_certificate().encode(),
        vm.ca_epoch(),
        vm.issued_count(),
        vm.lifecycle_status().crl_number,
        vm.enrollments()
            .map(|e| (e.serial, e.vnf_name.clone(), e.host_id.clone(), e.revoked))
            .collect(),
        vm.pending_enrollments().map(|p| p.serial).collect(),
    )
}

// ---------------------------------------------------------------------------
// Steady state: standbys mirror the primary's journaled state exactly.
// ---------------------------------------------------------------------------

#[test]
fn standbys_mirror_the_primary_in_steady_state() {
    let mut tb = TestbedBuilder::new(b"replication steady state")
        .replicas(2)
        .build();
    tb.attest_host(0).unwrap();
    let mut serials = Vec::new();
    for i in 0..3 {
        let guard = tb.deploy_guard(0, &format!("vnf-{i}"), 1).unwrap();
        serials.push(tb.enroll(0, &guard).unwrap().serial());
    }
    tb.vm
        .revoke_credential(serials[0], RevocationReason::KeyCompromise)
        .unwrap();
    tb.push_crl().unwrap();
    let rotation = tb.rotate_ca().unwrap();
    tb.distribute_ca(&rotation).unwrap();

    let a = tb.standbys[0].store().replay().unwrap().state;
    let b = tb.standbys[1].store().replay().unwrap().state;
    assert_eq!(a, b, "standbys diverged from each other");
    assert_eq!(a.max_serial, serials[2] + 2, "rotation serials missing");
    assert_eq!(a.enrollments.len(), 3);
    assert!(a.revoked.contains_key(&serials[0]));
    assert_eq!(a.crl_number, 1);
    assert_eq!(a.ca_epoch, 1);

    let status = tb.vm.replication_status().expect("replicated deployment");
    assert_eq!(status.role, "primary");
    assert_eq!(status.epoch, 0);
    assert!(!status.fenced);
    assert_eq!(status.standbys.len(), 2);
    for standby in &status.standbys {
        assert_eq!(
            standby.lag_records, 0,
            "{} lagging after synchronous streaming",
            standby.addr
        );
        assert_eq!(standby.acked_seq, status.head_seq);
    }
}

// ---------------------------------------------------------------------------
// Catch-up: a severed standby that outruns the resend buffer converges
// via snapshot; one within the buffer converges via retransmission.
// ---------------------------------------------------------------------------

#[test]
fn severed_standby_catches_up_with_a_snapshot() {
    let plan = FaultPlan::seeded(11);
    let mut tb = TestbedBuilder::new(b"replication catch-up")
        .replicas(2)
        .replication_config(ReplicationConfig {
            window: 2,
            retain: 2,
            ..ReplicationConfig::default()
        })
        .faults(plan.clone())
        .build();
    tb.attest_host(0).unwrap();

    // Cut standby 1 off and push far more records than the retain budget.
    plan.isolate("vm-standby-1:7600");
    let mut serials = Vec::new();
    for i in 0..4 {
        let guard = tb.deploy_guard(0, &format!("vnf-{i}"), 1).unwrap();
        serials.push(tb.enroll(0, &guard).unwrap().serial());
    }
    let behind = tb.standbys[1].status();
    let ahead = tb.standbys[0].status();
    assert!(
        behind.next_seq < ahead.next_seq,
        "severed standby should have fallen behind"
    );

    // Heal; the next heartbeat drives catch-up. The gap outruns the
    // 2-record buffer, so the standby must be caught up by snapshot.
    plan.heal("vm-standby-1:7600");
    tb.vm.replication_heartbeat();
    let caught_up = tb.standbys[1].status();
    assert_eq!(caught_up.next_seq, ahead.next_seq, "standby still behind");
    assert!(
        caught_up.snapshots_installed >= 1,
        "a gap beyond the resend buffer must be closed by snapshot"
    );
    assert_eq!(
        tb.standbys[0].store().replay().unwrap().state,
        tb.standbys[1].store().replay().unwrap().state,
        "snapshot catch-up diverged from record-by-record apply"
    );

    // And the converged standby keeps tracking normal streaming.
    let guard = tb.deploy_guard(0, "vnf-after", 1).unwrap();
    tb.enroll(0, &guard).unwrap();
    assert_eq!(
        tb.standbys[0].store().replay().unwrap().state,
        tb.standbys[1].store().replay().unwrap().state,
    );
    let status = tb.vm.replication_status().unwrap();
    assert!(status.standbys.iter().all(|s| s.lag_records == 0));
}

// ---------------------------------------------------------------------------
// Failover chaos matrix.
// ---------------------------------------------------------------------------

struct Outcome {
    crashes: usize,
    promotions: usize,
    issued: u64,
    ca_epoch: u64,
    fingerprint: String,
}

/// Ride out a primary loss: divergence-check a promoted standby against
/// an oracle twin recovered from the dead primary's own media, inside a
/// bounded failover window, then re-attest so the workload can continue.
fn ride_out(tb: &mut Testbed, seed: u64, promotions: &mut usize) {
    if tb.standbys.is_empty() {
        // Standbys exhausted (multiple crashes in one seed): restart in
        // place from the current primary's own WAL.
        tb.recover_vm().unwrap();
    } else {
        let oracle = tb.oracle_twin().unwrap_or_else(|e| {
            panic!("seed {seed}: oracle twin recovery failed: {e}")
        });
        let started = Instant::now();
        let report = tb.promote().unwrap_or_else(|e| {
            panic!("seed {seed}: promotion failed: {e}")
        });
        let elapsed = started.elapsed();
        assert!(
            elapsed < MAX_FAILOVER,
            "seed {seed}: failover took {elapsed:?} (bound {MAX_FAILOVER:?})"
        );
        *promotions += 1;
        assert_eq!(
            authority_view(&oracle),
            authority_view(&tb.vm),
            "seed {seed}: promoted standby diverged from the oracle twin \
             (epoch {}, high-water {})",
            report.epoch,
            report.high_water
        );
    }
    tb.attest_host(0).unwrap();
}

/// One full scenario: enrollments, a renewal, a CA rotation, a CRL push,
/// and a revocation, with the crash plan killing the primary at journal-
/// adjacent sites throughout. Every node loss is ridden out by promotion.
fn run_failover_scenario(seed: u64) -> Outcome {
    let plan = CrashPlan::seeded(seed);
    plan.crash_with_probability("enrollment.prepare", 0.12)
        .crash_with_probability("enrollment.commit", 0.12)
        .crash_with_probability("revocation.revoke", 0.15)
        .crash_with_probability("renewal.issue", 0.25)
        .crash_with_probability("rotation.commit", 0.25);
    let mut tb = TestbedBuilder::new(format!("failover matrix {seed}").as_bytes())
        .replicas(2)
        // Half the seeds exercise snapshot-seeded promotion, half replay
        // the standby's full log.
        .wal_compaction(if seed.is_multiple_of(2) { 6 } else { 0 })
        .crash_plan(plan)
        .pending_enrollment_ttl(600)
        .build();
    tb.attest_host(0).unwrap();

    let mut crashes = 0;
    let mut promotions = 0;
    let mut guards = Vec::new();
    let mut serials = Vec::new();

    // Enroll three VNFs to acknowledged completion.
    for i in 0..3 {
        let guard = tb.deploy_guard(0, &format!("vnf-{i}"), 1).unwrap();
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts <= 24, "seed {seed}: enrollment livelocked");
            match tb.enroll(0, &guard) {
                Ok(certificate) => {
                    serials.push(certificate.serial());
                    break;
                }
                Err(CoreError::VmCrashed(_)) => {
                    crashes += 1;
                    ride_out(&mut tb, seed, &mut promotions);
                }
                Err(other) => panic!("seed {seed}: enrollment error: {other}"),
            }
        }
        guards.push(guard);
    }

    // Renew the first credential (mid-renewal crashes fail over too).
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts <= 24, "seed {seed}: renewal livelocked");
        match tb.renew(&guards[0], serials[0]) {
            Ok(certificate) => {
                serials.push(certificate.serial());
                break;
            }
            Err(CoreError::VmCrashed(_)) => {
                crashes += 1;
                ride_out(&mut tb, seed, &mut promotions);
            }
            Err(other) => panic!("seed {seed}: renewal error: {other}"),
        }
    }

    // Rotate the CA (a crash after the committed record still rotates —
    // the retried call simply opens the next epoch).
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts <= 24, "seed {seed}: rotation livelocked");
        match tb.rotate_ca() {
            Ok(_) => {
                // The controller must learn every rotated root before it
                // can validate anything the new CA signs (CRLs included) —
                // a crash after the commit record still rotates, so the
                // retry may leave more than one epoch to catch up on.
                tb.distribute_ca_chain().unwrap();
                break;
            }
            Err(CoreError::VmCrashed(_)) => {
                crashes += 1;
                ride_out(&mut tb, seed, &mut promotions);
            }
            Err(other) => panic!("seed {seed}: rotation error: {other}"),
        }
    }

    // Publish a CRL and revoke one credential.
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts <= 24, "seed {seed}: crl livelocked");
        match tb.push_crl() {
            Ok(()) => break,
            Err(CoreError::VmCrashed(_)) => {
                crashes += 1;
                ride_out(&mut tb, seed, &mut promotions);
            }
            Err(other) => panic!("seed {seed}: crl error: {other}"),
        }
    }
    match tb
        .vm
        .revoke_credential(serials[1], RevocationReason::KeyCompromise)
    {
        Ok(()) => {}
        Err(CoreError::VmCrashed(_)) => {
            crashes += 1;
            ride_out(&mut tb, seed, &mut promotions);
            // WAL-before-response: the journaled revocation survived the
            // node, not just the process.
            assert!(
                tb.vm.credential_is_revoked(serials[1]),
                "seed {seed}: replicated revocation lost in failover"
            );
        }
        Err(other) => panic!("seed {seed}: revocation error: {other}"),
    }

    // Closing divergence check: an oracle recovered from the live
    // primary's current media agrees with the primary's actual authority
    // state (replication never forked the timeline).
    let oracle = tb.oracle_twin().unwrap();
    assert_eq!(
        authority_view(&oracle),
        authority_view(&tb.vm),
        "seed {seed}: final state diverged from the oracle twin"
    );

    Outcome {
        crashes,
        promotions,
        issued: tb.vm.issued_count(),
        ca_epoch: tb.vm.ca_epoch(),
        fingerprint: tb.vm.fingerprint(),
    }
}

/// The chaos matrix: ten seeds of kill-the-primary-under-load, each
/// promotion divergence-checked against an oracle twin. Non-vacuous: the
/// matrix as a whole must actually crash and actually promote.
#[test]
fn failover_matrix_preserves_authority_state_across_seeds() {
    let mut total_crashes = 0;
    let mut total_promotions = 0;
    for seed in 0..10 {
        let outcome = run_failover_scenario(seed);
        total_crashes += outcome.crashes;
        total_promotions += outcome.promotions;
    }
    assert!(
        total_crashes >= 5,
        "matrix is vacuous: only {total_crashes} crashes fired"
    );
    assert!(
        total_promotions >= 3,
        "matrix is vacuous: only {total_promotions} promotions ran"
    );
}

/// Same seed, same failure schedule, same promoted state — failover is
/// deterministic end to end.
#[test]
fn failover_scenarios_are_deterministic_per_seed() {
    let a = run_failover_scenario(4);
    let b = run_failover_scenario(4);
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.promotions, b.promotions);
    assert_eq!(a.issued, b.issued);
    assert_eq!(a.ca_epoch, b.ca_epoch);
    assert_eq!(a.fingerprint, b.fingerprint);
}

// ---------------------------------------------------------------------------
// Zombie fencing.
// ---------------------------------------------------------------------------

#[test]
fn zombie_primary_is_fenced_after_partition_heals() {
    let plan = FaultPlan::seeded(5);
    let mut tb = TestbedBuilder::new(b"replication zombie")
        .replicas(2)
        .faults(plan.clone())
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-z", 1).unwrap();
    let serial = tb.enroll(0, &guard).unwrap().serial();

    // Partition the primary away from both standbys. It keeps serving —
    // this revocation lands only in its own, soon-to-be-dead timeline.
    plan.isolate("vm-standby-0:7600");
    plan.isolate("vm-standby-1:7600");
    tb.vm
        .revoke_credential(serial, RevocationReason::KeyCompromise)
        .unwrap();
    assert!(tb.vm.credential_is_revoked(serial));

    // Operators declare the partitioned primary dead and fail over.
    let zombie_handle = tb.detach_primary();
    plan.heal("vm-standby-0:7600");
    plan.heal("vm-standby-1:7600");
    let report = tb.promote().unwrap();
    assert_eq!(report.epoch, 1);
    // The promoted timeline never saw the partitioned-away revocation.
    assert!(!tb.vm.credential_is_revoked(serial));

    // The partition heals and the zombie tries to keep being primary.
    // Its append is rejected by the surviving standby's epoch check; the
    // operation fails instead of committing into the dead timeline.
    let zombie = zombie_handle;
    let err = zombie.issue_crl().unwrap_err();
    assert!(
        matches!(err, CoreError::Store(_)),
        "zombie append should fail at the journal layer, got: {err}"
    );
    let status = zombie.replication_status().unwrap();
    assert!(status.fenced);
    assert_eq!(status.role, "fenced");
    // Once fenced, the zombie fast-fails before touching any state.
    assert!(matches!(
        zombie.issue_crl().unwrap_err(),
        CoreError::ServiceUnavailable(_)
    ));

    // The survivor counted and journaled the rejection.
    assert!(tb.standbys[0].status().fenced_rejections >= 1);
    assert!(
        tb.telemetry
            .journal()
            .events()
            .iter()
            .any(|e| e.kind == "replication_fenced"),
        "fencing must leave an audit event"
    );
    // The zombie's stale records never reached the survivor's store.
    let survivor_state = tb.standbys[0].store().replay().unwrap().state;
    assert!(!survivor_state.revoked.contains_key(&serial));

    // And the rightful primary keeps serving.
    tb.attest_host(0).unwrap();
    let guard2 = tb.deploy_guard(0, "vnf-after-fence", 1).unwrap();
    tb.enroll(0, &guard2).unwrap();
}

/// Concurrent calls on a deposed primary share commit batches; the veto
/// its standbys return fails every caller in a batch, not just the leader
/// that streamed it.
#[test]
fn fenced_primary_veto_fails_every_waiter_in_its_batch() {
    let mut tb = TestbedBuilder::new(b"replication veto batch")
        .replicas(2)
        .group_commit(true)
        .build();
    tb.attest_host(0).unwrap();
    let serials: Vec<u64> = (0..4)
        .map(|i| {
            let guard = tb.deploy_guard(0, &format!("vnf-veto-{i}"), 1).unwrap();
            tb.enroll(0, &guard).unwrap().serial()
        })
        .collect();
    let media = tb.store_media().unwrap().clone();
    let zombie = tb.detach_primary();
    tb.promote().unwrap();

    // A slow flush lets the later callers queue behind the first batch.
    media.set_write_latency(Duration::from_millis(300));
    let flushes_before = media.flushes();
    let results: Vec<Result<(), CoreError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = serials
            .iter()
            .map(|&serial| {
                let zombie = zombie.clone();
                scope.spawn(move || {
                    zombie.revoke_credential(serial, RevocationReason::KeyCompromise)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let flushes = media.flushes() - flushes_before;
    let vetoed = results
        .iter()
        .filter(|r| matches!(r, Err(CoreError::Store(_))))
        .count();
    // Callers that reached the manager after the fence landed are refused
    // up front; every caller whose record was journaled fails its commit.
    assert!(
        results.iter().all(|r| matches!(
            r,
            Err(CoreError::Store(_)) | Err(CoreError::ServiceUnavailable(_))
        )),
        "a deposed primary acknowledged a revocation: {results:?}"
    );
    assert!(
        vetoed > flushes as usize,
        "{vetoed} vetoed callers over {flushes} flushes: no batch held several waiters"
    );
    assert!(zombie.replication_status().unwrap().fenced);
    let survivor = tb.standbys[0].store().replay().unwrap().state;
    assert!(serials.iter().all(|s| !survivor.revoked.contains_key(s)));
}

// ---------------------------------------------------------------------------
// Missed-heartbeat promotion trigger.
// ---------------------------------------------------------------------------

#[test]
fn missed_heartbeats_trigger_promotion() {
    let mut tb = TestbedBuilder::new(b"replication heartbeat")
        .replicas(2)
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-hb", 1).unwrap();
    tb.enroll(0, &guard).unwrap();

    tb.vm.replication_heartbeat();
    assert!(!tb.failover_due(300), "fresh heartbeat must not be suspect");

    // The primary goes silent past the timeout.
    tb.kill_primary("node loss");
    tb.clock.advance(301);
    assert!(tb.failover_due(300), "silent primary must become suspect");

    let report = tb.promote().unwrap();
    assert_eq!(report.epoch, 1);
    tb.attest_host(0).unwrap();
    let guard2 = tb.deploy_guard(0, "vnf-hb2", 1).unwrap();
    tb.enroll(0, &guard2).unwrap();
}

// ---------------------------------------------------------------------------
// Satellite: undelivered revocation notices survive the node.
// ---------------------------------------------------------------------------

#[test]
fn promotion_requeues_and_drains_undelivered_notices() {
    let mut tb = TestbedBuilder::new(b"replication notices")
        .replicas(2)
        .build();
    let plan = FaultPlan::seeded(9);
    tb.network.install_faults(&plan);
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-notice", 1).unwrap();
    let serial = tb.enroll(0, &guard).unwrap().serial();
    tb.vm
        .revoke_credential(serial, RevocationReason::KeyCompromise)
        .unwrap();
    let now = tb.clock.now();
    let tag = tb.vm.hmac_tag(&revocation_message("host-0", serial));

    // An agent that knows the VM's HMAC key fronts host 0, but is
    // unreachable when the notice goes out: the notice enters the
    // store-and-forward queue — which journals into the replicated WAL.
    let agent_state = tb.take_agent_state(HashMap::new(), Some(tb.vm.share_hmac_key()));
    let _agent = HostAgent::serve(&tb.network, agent_state.clone()).unwrap();
    plan.isolate("agent:host-0");
    assert!(!tb.notifier.notify("host-0", serial, tag, now));
    assert_eq!(tb.notifier.pending().len(), 1);

    // The primary dies with the notice still queued; the host heals.
    tb.kill_primary("node loss");
    plan.heal("agent:host-0");
    let report = tb.promote().unwrap();

    // The queue was part of the replicated state: promotion requeues it
    // from the replayed WAL and the drain delivers it. The agent accepts
    // the tag because the promoted manager re-derived the same HMAC key.
    assert_eq!(report.notices_requeued, 1, "notice lost with the node");
    assert_eq!(report.notices_delivered, 1, "requeued notice not drained");
    assert!(tb.notifier.pending().is_empty());
    assert!(
        agent_state.revoked_serials.read().contains(&serial),
        "agent never learned of the revocation"
    );
}

// ---------------------------------------------------------------------------
// Satellite: operator route and gauges.
// ---------------------------------------------------------------------------

#[test]
fn replication_status_is_served_over_the_operator_api() {
    let mut tb = TestbedBuilder::new(b"replication api")
        .replicas(2)
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-api", 1).unwrap();
    tb.enroll(0, &guard).unwrap();

    let network = tb.network.clone();
    let telemetry = tb.telemetry.clone();
    let vm = tb.vm_service();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(tb.ias));
    let _api = serve_vm_api(&network, "vm:8443", vm, ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    let body = client
        .request(&Request::get("/vm/replication"))
        .unwrap()
        .parse_json()
        .unwrap();
    assert_eq!(body.get("role").and_then(Json::as_str), Some("primary"));
    assert_eq!(body.get("epoch").and_then(Json::as_i64), Some(0));
    assert_eq!(body.get("fenced").and_then(Json::as_bool), Some(false));
    let head = body.get("head_seq").and_then(Json::as_i64).unwrap();
    assert!(head > 0, "enrollment records must have streamed");
    let standbys = body.get("standbys").and_then(Json::as_array).unwrap();
    assert_eq!(standbys.len(), 2);
    for standby in standbys {
        assert_eq!(
            standby.get("acked_seq").and_then(Json::as_i64),
            Some(head),
            "standby behind over the operator surface"
        );
        assert_eq!(standby.get("lag_records").and_then(Json::as_i64), Some(0));
    }

    // The status read refreshed the gauges; the Prometheus exposition
    // must carry them (satellite metric names are part of the contract).
    let metrics = String::from_utf8(
        client.request(&Request::get("/vm/metrics")).unwrap().body,
    )
    .unwrap();
    assert!(metrics.contains("vnfguard_core_replication_lag_records 0"));
    assert!(metrics.contains("vnfguard_core_replication_heartbeat_age_seconds"));
    assert!(metrics.contains("vnfguard_core_replication_records_total"));
    drop(telemetry);
}

/// An unreplicated deployment answers the route too — dashboards need no
/// special-casing.
#[test]
fn replication_route_reports_unreplicated_deployments() {
    let tb = TestbedBuilder::new(b"replication api bare").durable().build();
    let network = tb.network.clone();
    let vm = tb.vm_service();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(tb.ias));
    let _api = serve_vm_api(&network, "vm:8443", vm, ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());
    let body = client
        .request(&Request::get("/vm/replication"))
        .unwrap()
        .parse_json()
        .unwrap();
    assert_eq!(body.get("role").and_then(Json::as_str), Some("unreplicated"));
    assert!(body.get("epoch").is_none());
}
