//! Crash-fault tolerance: the crash matrix and the renewal crash race run
//! on the chaos driver ([`Chaos`]), whose invariant set is checked after
//! every step: nothing acknowledged is lost, no serial is acknowledged
//! twice, live state is the replay of the sealed store and every issued
//! serial is enrolled, pending or revoked, each recovered fleet equals its
//! oracle twins, and every shard serves a renewal once faults stop. The
//! single-purpose tests below pin one recovery rule each.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;
use vnfguard::core::chaos::{Burst, Chaos, Fault, Outcome, Step};
use vnfguard::core::crash::CrashPlan;
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::remote::serve_vm_api;
use vnfguard::core::CoreError;
use vnfguard::encoding::Json;
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::http::Request;
use vnfguard::net::server::HttpClient;
use vnfguard::pki::crl::RevocationReason;

/// How long a prepared enrollment may sit uncommitted before the sweep (or
/// a recovery past the grace window) aborts it.
const PENDING_TTL: u64 = 600;

/// Enrollments driven to acknowledged completion per seed.
const VNFS_PER_SEED: usize = 5;

/// One crash-matrix seed: enroll [`VNFS_PER_SEED`] VNFs and revoke two
/// while crashes fire at the WAL sites, each ridden out by recovery, then
/// age and sweep every orphan, with a relying party polling the CRL before
/// and after the sweep. Half the seeds recover through a snapshot, half
/// replay the full log from frame zero.
fn crash_matrix_seed(seed: u64) -> Outcome {
    let builder = TestbedBuilder::new(format!("crash matrix {seed}").as_bytes())
        .durable()
        .wal_compaction(if seed.is_multiple_of(2) { 6 } else { 0 })
        .pending_enrollment_ttl(PENDING_TTL);
    Chaos::new(seed, builder)
        .run(&[
            Step::Fault(Fault::Crash("enrollment.prepare", 0.20)),
            Step::Fault(Fault::Crash("enrollment.commit", 0.20)),
            Step::Fault(Fault::Crash("revocation.revoke", 0.25)),
            Step::Fault(Fault::Crash("enrollment.expire", 0.20)),
            Step::Enroll(VNFS_PER_SEED),
            Step::Revoke,
            Step::Revoke,
            Step::CrlPoll,
            Step::Sweep,
            Step::CrlPoll,
        ])
        .finish()
}

/// The chaos matrix: ten seeds, each a full crash/recover scenario. The
/// matrix must be non-vacuous — across the seeds a healthy number of
/// crashes actually fire, and every crash is matched by a recovery.
#[test]
fn crash_matrix_preserves_consistency_across_seeds() {
    let mut total_crashes = 0;
    let mut total_enrolled = 0;
    for seed in 0..10 {
        let outcome = crash_matrix_seed(seed);
        assert_eq!(outcome.crashes, outcome.recoveries, "seed {seed}");
        total_crashes += outcome.crashes;
        total_enrolled += outcome.enrolled;
    }
    assert!(
        total_crashes >= 8,
        "matrix too tame: only {total_crashes} crashes fired across all seeds"
    );
    assert_eq!(total_enrolled, 10 * VNFS_PER_SEED);
}

/// The same crash-plan seed replays the same crash schedule and converges
/// to the same recovered state — the crash matrix is a deterministic
/// regression witness, not a flaky fuzzer.
#[test]
fn same_crash_seed_replays_the_same_schedule() {
    assert_eq!(crash_matrix_seed(3), crash_matrix_seed(3));
}

/// A torn WAL tail (the medium lost the end of the final append) rolls the
/// log back to the last intact record, and the recovery report says so.
/// The dropped record was never acknowledged-and-persisted as a unit, so
/// the recovered state is a consistent prefix: earlier enrollments intact,
/// the torn commit demoted to a pending prepare, which the sweep then
/// aborts and revokes.
#[test]
fn torn_wal_tail_recovers_to_a_consistent_prefix() {
    let builder = TestbedBuilder::new(b"torn tail")
        .durable()
        .pending_enrollment_ttl(PENDING_TTL);
    let schedule = [
        Step::Enroll(1),
        Step::Fault(Fault::TornTail(3)),
        Step::Sweep,
    ];
    Chaos::new(0, builder).run(&schedule).finish();
}

/// Records acknowledged after a torn-tail recovery survive the next
/// recovery, which finds no torn tail: the first write after recovery cuts
/// the torn bytes instead of landing behind them, where every later replay
/// would stop.
#[test]
fn renewal_after_a_torn_tail_recovery_survives_the_next_recovery() {
    let builder = TestbedBuilder::new(b"torn tail renewal").durable();
    let torn = Step::Fault(Fault::TornTail(3));
    let schedule = [Step::Enroll(1), torn, Step::Renew, Step::Recover];
    Chaos::new(0, builder).run(&schedule).finish();
}

/// Concurrent renewals on one shard while a seeded plan crashes the
/// manager at `renewal.issue` and the driver recovers it as soon as a
/// client sees the crash, with the other clients still calling. Every
/// acknowledged renewal survives, and the recovered fleet equals an
/// independent replay of a fork of the medium.
#[test]
fn crashes_under_concurrent_renewals_recover_to_the_fork_replay() {
    let crashes: usize = (0..4).map(|seed| renewals_under_crashes(seed, 256)).sum();
    assert!(crashes > 0, "the race never crashed the manager");
}

/// The same race with a compaction every four frames, so crashes land
/// while another client's commit leader is still compacting. The crashed
/// incarnation's store is idle before recovery replays the medium, so its
/// late compaction cannot truncate what the recovered incarnation
/// journals: every recovery generation, and a renewal acknowledged after
/// the last one, survive the next recovery.
#[test]
fn a_crash_during_another_clients_compaction_loses_no_later_record() {
    let crashes: usize = (0..4).map(|seed| renewals_under_crashes(seed, 4)).sum();
    assert!(crashes > 0, "the race never crashed the manager");
}

/// One seed of the renewal crash race (see the two tests above) on a
/// store that compacts every `wal_compaction` frames: four clients chain
/// four renewals each, then a renewal lands between two quiet recoveries.
/// Returns the crashes the plan fired.
fn renewals_under_crashes(seed: u64, wal_compaction: u64) -> usize {
    let builder = TestbedBuilder::new(format!("renewal crash race {seed}").as_bytes())
        .durable()
        .wal_compaction(wal_compaction)
        .wal_write_latency(Duration::from_micros(300));
    let renewals = Burst {
        renewers: 4,
        rounds: 4,
        ..Burst::default()
    };
    Chaos::new(seed, builder)
        .run(&[
            Step::Enroll(4),
            Step::Fault(Fault::Crash("renewal.issue", 0.15)),
            Step::Burst(renewals),
            Step::Fault(Fault::Crash("renewal.issue", 0.0)),
            Step::Recover,
            Step::Renew,
            Step::Recover,
        ])
        .finish()
        .crashes
}

/// A crash that strands a prepared enrollment past the grace window:
/// recovery itself aborts the orphan, puts its serial on the CRL, and
/// queues a store-and-forward revocation notice for the host. The new
/// incarnation refuses VNF work for the host until it re-attests.
#[test]
fn recovery_aborts_expired_orphans_and_queues_notices() {
    let plan = CrashPlan::seeded(9);
    plan.crash_once("enrollment.prepare");
    let mut tb = TestbedBuilder::new(b"orphan abort")
        .durable()
        .crash_plan(plan)
        .pending_enrollment_ttl(120)
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-orphan", 1).unwrap();
    let err = tb.enroll(0, &guard).unwrap_err();
    assert!(matches!(err, CoreError::VmCrashed(ref s) if s == "enrollment.prepare"));
    // The dead incarnation refuses everything.
    assert!(matches!(
        tb.vm.sweep_pending_enrollments(),
        Err(CoreError::VmCrashed(_))
    ));

    // The manager stays down well past the orphan grace window.
    tb.clock.advance(600);
    let report = tb.recover_vm().unwrap();
    assert_eq!(report.orphans_aborted, 1);
    assert_eq!(report.pending_restored, 0);
    assert_eq!(report.enrollments_restored, 0);

    // Serial 3 (the first leaf after the controller cert) was orphaned:
    // revoked, with its notice queued (no agent is listening here).
    assert!(tb.vm.credential_is_revoked(3));
    assert!(tb
        .notifier
        .pending()
        .iter()
        .any(|n| n.serial == 3 && n.host_id == "host-0"));

    // Fresh incarnation, fresh trust: the host must re-attest first.
    let err = tb
        .vm
        .begin_vnf_attestation("host-0", "vnf-orphan")
        .unwrap_err();
    assert!(matches!(err, CoreError::WorkflowViolation(_)));
    tb.attest_host(0).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();
    assert!(
        certificate.serial() > 3,
        "the orphaned serial is never reused"
    );
}

/// Snapshot-seeded recovery and full-log replay converge to the same
/// state; only the replay work differs.
#[test]
fn snapshot_and_full_replay_agree() {
    let run = |compaction: u64| {
        let mut tb = TestbedBuilder::new(b"snapshot equivalence")
            .durable()
            .wal_compaction(compaction)
            .build();
        tb.attest_host(0).unwrap();
        for i in 0..5 {
            let guard = tb.deploy_guard(0, &format!("vnf-{i}"), 1).unwrap();
            tb.enroll(0, &guard).unwrap();
        }
        tb.vm
            .revoke_credential(3, RevocationReason::KeyCompromise)
            .unwrap();
        let report = tb.recover_vm().unwrap();
        (tb, report)
    };
    let (tb_snap, report_snap) = run(4);
    let (tb_full, report_full) = run(0);

    assert!(report_snap.from_snapshot);
    assert!(!report_full.from_snapshot);
    assert!(
        report_snap.replayed_records < report_full.replayed_records,
        "the snapshot must absorb most of the log"
    );

    let view = |tb: &Testbed| {
        tb.vm
            .enrollments()
            .map(|e| (e.serial, e.vnf_name.clone(), e.host_id.clone(), e.revoked))
            .collect::<Vec<_>>()
    };
    assert_eq!(view(&tb_snap), view(&tb_full));
    assert_eq!(tb_snap.vm.issued_count(), tb_full.vm.issued_count());
    assert!(tb_snap.vm.credential_is_revoked(3));
    assert!(tb_full.vm.credential_is_revoked(3));
}

/// `GET /vm/recovery` serves the last recovery report and live WAL
/// occupancy to operators, exactly as a collector would scrape it.
#[test]
fn recovery_report_is_served_over_the_operator_api() {
    let plan = CrashPlan::seeded(42);
    plan.crash_once("revocation.revoke");
    let mut tb = TestbedBuilder::new(b"recovery api")
        .durable()
        .crash_plan(plan)
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-api", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();

    let err = tb
        .vm
        .revoke_credential(certificate.serial(), RevocationReason::KeyCompromise)
        .unwrap_err();
    assert!(matches!(err, CoreError::VmCrashed(_)));
    let report = tb.recover_vm().unwrap();
    assert_eq!(report.generation, 1);
    // WAL-before-response: the revocation the caller never saw confirmed
    // still survived the crash.
    assert!(tb.vm.credential_is_revoked(certificate.serial()));

    let network = tb.network.clone();
    let vm = tb.vm_service();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(tb.ias));
    let _api = serve_vm_api(&network, "vm:8443", vm, ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());

    let body = client
        .request(&Request::get("/vm/recovery"))
        .unwrap()
        .parse_json()
        .unwrap();
    assert_eq!(body.get("recovered").and_then(Json::as_bool), Some(true));
    assert_eq!(body.get("generation").and_then(Json::as_i64), Some(1));
    assert_eq!(body.get("orphans_aborted").and_then(Json::as_i64), Some(0));
    assert_eq!(
        body.get("enrollments_restored").and_then(Json::as_i64),
        Some(1)
    );
    let store = body.get("store").expect("store occupancy block");
    assert!(store.get("log_frames").and_then(Json::as_i64).unwrap() > 0);
}

/// A never-crashed manager reports `recovered: false` — the route is
/// always live, so dashboards need no special-casing.
#[test]
fn recovery_route_on_a_fresh_manager_reports_nothing() {
    let tb = TestbedBuilder::new(b"fresh vm api").durable().build();
    let network = tb.network.clone();
    let vm = tb.vm_service();
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(tb.ias));
    let _api = serve_vm_api(&network, "vm:8443", vm, ias, "controller").unwrap();
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());
    let body = client
        .request(&Request::get("/vm/recovery"))
        .unwrap()
        .parse_json()
        .unwrap();
    assert_eq!(body.get("recovered").and_then(Json::as_bool), Some(false));
    assert!(body.get("generation").is_none());
}

/// A halted incarnation is a zombie: it neither completes a host
/// attestation begun before the halt, nor challenges a host, registers a
/// TPM key or hands out a VNF challenge, and no call touches its journaled
/// state or its host records or logs an event (the driver's halt probe).
#[test]
fn a_halted_manager_neither_attests_hosts_nor_issues_vnf_challenges() {
    let builder = TestbedBuilder::new(b"halted zombie").durable();
    let schedule = [Step::Enroll(1), Step::Prepare, Step::Fault(Fault::Halt)];
    Chaos::new(0, builder).run(&schedule).finish();
}

/// A crash partway through a host revocation fails the call instead of
/// reporting credentials revoked that recovery keeps valid: the driver
/// retries on the recovered incarnation and every revocation it was told
/// of must hold. A halted manager revokes nothing and keeps trusting the
/// host (the halt probe).
#[test]
fn a_crash_during_revoke_host_fails_the_call_and_the_retry_revokes_the_rest() {
    let builder = TestbedBuilder::new(b"revoke host crash").durable();
    let outcome = Chaos::new(1, builder)
        .run(&[
            Step::Enroll(2),
            Step::Fault(Fault::CrashOnce("revocation.revoke")),
            Step::RevokeHost,
            Step::Enroll(1),
            Step::Fault(Fault::Halt),
        ])
        .finish();
    assert_eq!((outcome.crashes, outcome.recoveries), (1, 2));
}
