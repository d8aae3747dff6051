//! Replicated Verification Manager: streaming, catch-up, failover chaos
//! matrix, and zombie-primary fencing.
//!
//! The scenarios cover the replication subsystem end to end:
//!
//! - steady-state streaming keeps every standby byte-equivalent to the
//!   primary's journaled state;
//! - a standby cut off long enough to outrun the resend buffer is caught
//!   up with a sealed snapshot and converges anyway;
//! - the failover chaos matrix, a schedule on the chaos driver, kills the
//!   primary mid-enrollment, mid-renewal, and mid-rotation under seeded
//!   load; the driver promotes a standby and asserts **zero divergence**
//!   against an uncrashed oracle twin recovered from the dead primary's
//!   own media — plus a bounded promotion time;
//! - a deposed primary that keeps appending after its partition heals is
//!   fenced by the epoch check, its operation fails, and the rejection is
//!   journaled;
//! - the failed primary's undelivered revocation notices survive node
//!   loss inside the replicated state and drain at promotion.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vnfguard::core::chaos::{Chaos, Fault, Outcome, Step};
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::remote::{serve_vm_api, HostAgent};
use vnfguard::core::replication::ReplicationConfig;
use vnfguard::core::revocation::revocation_message;
use vnfguard::core::CoreError;
use vnfguard::crypto::ed25519::SigningKey;
use vnfguard::encoding::Json;
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::http::Request;
use vnfguard::net::server::HttpClient;
use vnfguard::net::FaultPlan;
use vnfguard::pki::crl::RevocationReason;

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

/// A standby lands each streamed batch as one frame, so its log keeps the
/// primary's batch boundaries: a prepare's two records cost one write on
/// either node.
#[test]
fn a_standby_lands_a_streamed_batch_with_one_write() {
    let mut tb = TestbedBuilder::new(b"standby batch frames")
        .replicas(1)
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-batch", 1).unwrap();
    let challenge = tb.vm.begin_vnf_attestation("host-0", &guard.name).unwrap();
    let nonce = challenge.nonce;
    let quote = guard.quote(&tb.hosts[0].platform, &nonce, nonce).unwrap();
    let key = guard.provisioning_key().unwrap();
    let (primary, standby) = (tb.store_media().unwrap().clone(), tb.standbys[0].store());
    let writes = || [primary.flushes(), standby.media().flushes()];
    let before = writes();
    let ias = &mut tb.ias;
    let (serial, _, _) = tb
        .vm
        .prepare_vnf_enrollment(ias, challenge.id, &quote.encode(), &key, "controller")
        .unwrap();
    assert_eq!(
        writes(),
        before.map(|flushes| flushes + 1),
        "[primary, standby]"
    );
    let state = standby.replay().unwrap().state;
    assert!(state.pending.contains_key(&serial) && state.max_serial == serial);
}

// ---------------------------------------------------------------------------
// Recovery in place on a replicated deployment.
// ---------------------------------------------------------------------------

/// A primary recovered in place keeps its standby set: what it journals
/// after the recovery still streams.
#[test]
fn a_primary_recovered_in_place_keeps_streaming_to_its_standbys() {
    let mut tb = TestbedBuilder::new(b"replicated recovery")
        .replicas(2)
        .build();
    let enroll = |tb: &mut Testbed, name: &str| {
        tb.attest_host(0).unwrap();
        let guard = tb.deploy_guard(0, name, 1).unwrap();
        tb.enroll(0, &guard).unwrap().serial()
    };
    let before = enroll(&mut tb, "vnf-before");
    tb.recover_vm().unwrap();
    let after = enroll(&mut tb, "vnf-after");
    let status = tb.vm.replication_status().expect("still replicated");
    assert!(status
        .standbys
        .iter()
        .all(|s| s.acked_seq == status.head_seq));
    for node in &tb.standbys {
        let state = node.store().replay().unwrap().state;
        assert_eq!(state.generation, 1, "the recovery record never streamed");
        assert!([before, after]
            .iter()
            .all(|s| state.enrollments.contains_key(s)));
    }
}

/// A dropped testbed takes its standbys down with it: each one's accept
/// loop ends and its fabric address is free again.
#[test]
fn a_dropped_testbed_releases_its_standby_addresses() {
    let tb = TestbedBuilder::new(b"standby drop").replicas(1).build();
    let network = tb.network.clone();
    assert!(network.connect("vm-standby-0:7600").is_ok());
    drop(tb);
    assert!(
        network.connect("vm-standby-0:7600").is_err(),
        "a dropped standby still accepts connections"
    );
}

/// Failover covers the authority shard alone, so a sharded testbed with
/// standbys is refused at build time instead of losing its other shards
/// at the first node loss.
#[test]
#[should_panic(expected = "failover covers the authority shard only")]
fn replicas_on_a_sharded_testbed_are_refused() {
    TestbedBuilder::new(b"replicas and shards")
        .replicas(1)
        .shards(2)
        .build();
}

// ---------------------------------------------------------------------------
// Failover chaos matrix.
// ---------------------------------------------------------------------------

/// One failover-matrix seed: enrollments, a renewal, a CA rotation, a CRL
/// push, a revocation and a CRL poll while the primary crashes at
/// journal-adjacent sites. The driver rides out every node loss by promotion, inside the
/// failover bound and checked against an oracle twin of the dead primary.
/// Half the seeds promote from a snapshot, half replay the standby's log.
fn failover_matrix_seed(seed: u64) -> Outcome {
    let builder = TestbedBuilder::new(format!("failover matrix {seed}").as_bytes())
        .replicas(2)
        .wal_compaction(if seed.is_multiple_of(2) { 6 } else { 0 })
        .pending_enrollment_ttl(600);
    Chaos::new(seed, builder)
        .run(&[
            Step::Fault(Fault::Crash("enrollment.prepare", 0.12)),
            Step::Fault(Fault::Crash("enrollment.commit", 0.12)),
            Step::Fault(Fault::Crash("revocation.revoke", 0.15)),
            Step::Fault(Fault::Crash("renewal.issue", 0.25)),
            Step::Fault(Fault::Crash("rotation.commit", 0.25)),
            Step::Enroll(3),
            Step::Renew,
            Step::Rotate,
            Step::IssueCrl,
            Step::Revoke,
            Step::CrlPoll,
        ])
        .finish()
}

/// The chaos matrix: ten seeds of kill-the-primary-under-load, each
/// promotion divergence-checked against an oracle twin. Non-vacuous: the
/// matrix as a whole must actually crash and actually promote.
#[test]
fn failover_matrix_preserves_authority_state_across_seeds() {
    let outcomes: Vec<Outcome> = (0..10).map(failover_matrix_seed).collect();
    let crashes: usize = outcomes.iter().map(|o| o.crashes).sum();
    let promotions: usize = outcomes.iter().map(|o| o.promotions).sum();
    assert!(
        crashes >= 5,
        "matrix is vacuous: only {crashes} crashes fired"
    );
    assert!(
        promotions >= 3,
        "matrix is vacuous: only {promotions} promotions ran"
    );
}

/// Same seed, same failure schedule, same promoted state — failover is
/// deterministic end to end.
#[test]
fn failover_scenarios_are_deterministic_per_seed() {
    assert_eq!(failover_matrix_seed(4), failover_matrix_seed(4));
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

/// A fenced zombie signs no operator certificate: its serial would come
/// from a dead timeline the promoted primary never saw, and no surviving
/// journal would hold it.
#[test]
#[should_panic(expected = "operator certificate refused")]
fn a_fenced_zombie_issues_no_operator_certificate() {
    let plan = FaultPlan::seeded(5);
    let mut tb = TestbedBuilder::new(b"replication zombie certificate")
        .replicas(2)
        .faults(plan.clone())
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-zc", 1).unwrap();
    let serial = tb.enroll(0, &guard).unwrap().serial();
    // The partitioned primary journals a revocation only it will hold,
    // then is declared dead and replaced.
    plan.isolate("vm-standby-0:7600");
    plan.isolate("vm-standby-1:7600");
    tb.vm
        .revoke_credential(serial, RevocationReason::KeyCompromise)
        .unwrap();
    let zombie = tb.detach_primary();
    plan.heal("vm-standby-0:7600");
    plan.heal("vm-standby-1:7600");
    tb.promote().unwrap();
    // Its next append meets the survivor's epoch check and fences it.
    zombie.issue_crl().unwrap_err();
    assert!(zombie.replication_status().unwrap().fenced);
    let key = SigningKey::from_seed(&[9; 32]);
    zombie.issue_client_certificate("operator", key.public_key());
}

/// Concurrent calls on a deposed primary share commit batches; the veto
/// its standbys return fails every caller in a batch, not just the leader
/// that streamed it.
#[test]
fn fenced_primary_veto_fails_every_waiter_in_its_batch() {
    let mut tb = TestbedBuilder::new(b"replication veto batch")
        .replicas(2)
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
    let mut tb = TestbedBuilder::new(b"replication api").replicas(2).build();
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
    let metrics =
        String::from_utf8(client.request(&Request::get("/vm/metrics")).unwrap().body).unwrap();
    assert!(metrics.contains("vnfguard_core_replication_lag_records 0"));
    assert!(metrics.contains("vnfguard_core_replication_heartbeat_age_seconds"));
    assert!(metrics.contains("vnfguard_core_replication_records_total"));
    drop(telemetry);
}

/// An unreplicated deployment answers the route too — dashboards need no
/// special-casing.
#[test]
fn replication_route_reports_unreplicated_deployments() {
    let tb = TestbedBuilder::new(b"replication api bare")
        .durable()
        .build();
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
    assert_eq!(
        body.get("role").and_then(Json::as_str),
        Some("unreplicated")
    );
    assert!(body.get("epoch").is_none());
}
