//! Crash-fault tolerance chaos matrix.
//!
//! A durable testbed runs the Figure 1 workflow while a seeded
//! [`CrashPlan`] kills the Verification Manager at WAL-adjacent injection
//! sites. After every crash the testbed restarts the manager from the
//! sealed snapshot + log ([`Testbed::recover_vm`]) and the scenario keeps
//! going. The crash-consistency contract checked for every seed:
//!
//! - **no acknowledged enrollment is lost** — a certificate handed to the
//!   caller survives any later crash;
//! - **every orphaned prepare is eventually revoked** — a serial issued by
//!   a dead incarnation either completes or ends up on the CRL;
//! - **no serial is both active and revoked** — the in-memory `revoked`
//!   flag and the CA agree at all times;
//! - **every issued leaf serial is accounted for** — enrolled, revoked, or
//!   the controller's own server certificate; nothing leaks.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use vnfguard::core::attestation::host_evidence;
use vnfguard::core::crash::CrashPlan;
use vnfguard::core::deployment::{Testbed, TestbedBuilder};
use vnfguard::core::remote::serve_vm_api;
use vnfguard::core::service::VmService;
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

struct Outcome {
    committed: BTreeSet<u64>,
    crashes: usize,
    recoveries: usize,
}

/// One full chaos scenario: enroll [`VNFS_PER_SEED`] VNFs and revoke half,
/// riding out every injected crash via recovery, then age and sweep the
/// orphans and check the consistency contract.
fn run_crash_scenario(seed: u64) -> Outcome {
    let plan = CrashPlan::seeded(seed);
    plan.crash_with_probability("enrollment.prepare", 0.20)
        .crash_with_probability("enrollment.commit", 0.20)
        .crash_with_probability("revocation.revoke", 0.25)
        .crash_with_probability("enrollment.expire", 0.20);
    let mut tb = TestbedBuilder::new(format!("crash matrix {seed}").as_bytes())
        .durable()
        // Half the seeds recover through a snapshot, half replay the
        // full log from frame zero.
        .wal_compaction(if seed.is_multiple_of(2) { 6 } else { 0 })
        .crash_plan(plan.clone())
        .pending_enrollment_ttl(PENDING_TTL)
        .build();
    tb.attest_host(0).unwrap();

    let mut committed = BTreeSet::new();
    let mut crashes = 0;
    let mut recoveries = 0;

    // Phase 1: enroll until every VNF holds an acknowledged certificate.
    for i in 0..VNFS_PER_SEED {
        let name = format!("vnf-{i}");
        let guard = tb.deploy_guard(0, &name, 1).unwrap();
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts <= 24, "seed {seed}: enrollment of {name} livelocked");
            match tb.enroll(0, &guard) {
                Ok(certificate) => {
                    committed.insert(certificate.serial());
                    break;
                }
                Err(CoreError::VmCrashed(site)) => {
                    crashes += 1;
                    let report = tb.recover_vm().unwrap_or_else(|e| {
                        panic!("seed {seed}: recovery after crash at {site} failed: {e}")
                    });
                    recoveries += 1;
                    assert_eq!(
                        report.generation as usize, recoveries,
                        "seed {seed}: recovery generations must count up"
                    );
                    for serial in &committed {
                        assert!(
                            tb.vm.enrollments().any(|e| e.serial == *serial),
                            "seed {seed}: committed serial {serial} lost in crash at {site}"
                        );
                    }
                    // Host attestations die with the incarnation; the new
                    // one only trusts hosts that re-attest to it.
                    tb.attest_host(0).unwrap();
                }
                Err(other) => panic!("seed {seed}: unexpected enrollment error: {other}"),
            }
        }
    }
    assert_eq!(committed.len(), VNFS_PER_SEED);

    // Phase 2: revoke half of the acknowledged credentials. A crash at the
    // revocation site strikes *after* the WAL append, so the revocation
    // must be visible in the recovered incarnation even though the caller
    // saw an error.
    let to_revoke: Vec<u64> = committed.iter().copied().take(VNFS_PER_SEED / 2).collect();
    for serial in &to_revoke {
        match tb.vm.revoke_credential(*serial, RevocationReason::KeyCompromise) {
            Ok(()) => {}
            Err(CoreError::VmCrashed(_)) => {
                crashes += 1;
                tb.recover_vm().unwrap();
                recoveries += 1;
                assert!(
                    tb.vm.credential_is_revoked(*serial),
                    "seed {seed}: WAL-journaled revocation of {serial} lost in crash"
                );
            }
            Err(other) => panic!("seed {seed}: unexpected revocation error: {other}"),
        }
    }

    // Phase 3: age every orphaned prepare past its TTL and sweep. A crash
    // mid-sweep is fine — recovery aborts expired orphans itself.
    tb.clock.advance(PENDING_TTL + 1);
    let mut attempts = 0;
    loop {
        attempts += 1;
        assert!(attempts <= 24, "seed {seed}: sweep livelocked");
        match tb.vm.sweep_pending_enrollments() {
            Ok(_) => break,
            Err(CoreError::VmCrashed(_)) => {
                crashes += 1;
                tb.recover_vm().unwrap();
                recoveries += 1;
            }
            Err(other) => panic!("seed {seed}: unexpected sweep error: {other}"),
        }
    }
    assert_eq!(
        tb.vm.pending_enrollments().count(),
        0,
        "seed {seed}: orphaned prepares survived the sweep"
    );

    // The contract.
    for serial in &committed {
        let record = tb
            .vm
            .enrollments()
            .find(|e| e.serial == *serial)
            .unwrap_or_else(|| panic!("seed {seed}: committed serial {serial} missing"));
        assert_eq!(
            record.revoked,
            to_revoke.contains(serial),
            "seed {seed}: serial {serial} revocation flag wrong"
        );
    }
    for record in tb.vm.enrollments() {
        assert_eq!(
            record.revoked,
            tb.vm.credential_is_revoked(record.serial),
            "seed {seed}: serial {} disagrees with the CA",
            record.serial
        );
    }
    // Serial 2 is the controller's server certificate; every later leaf
    // serial must be an enrollment or on the CRL.
    let max_serial = tb.vm.issued_count() + 1;
    for serial in 3..=max_serial {
        let enrolled = tb.vm.enrollments().any(|e| e.serial == serial && !e.revoked);
        let revoked = tb.vm.credential_is_revoked(serial);
        assert!(
            enrolled || revoked,
            "seed {seed}: serial {serial} leaked — neither enrolled nor revoked"
        );
    }

    Outcome {
        committed,
        crashes,
        recoveries,
    }
}

/// The chaos matrix: ten seeds, each a full crash/recover scenario. The
/// matrix must be non-vacuous — across the seeds a healthy number of
/// crashes actually fire, and every crash is matched by a recovery.
#[test]
fn crash_matrix_preserves_consistency_across_seeds() {
    let mut total_crashes = 0;
    let mut total_committed = 0;
    for seed in 0..10 {
        let outcome = run_crash_scenario(seed);
        assert_eq!(outcome.crashes, outcome.recoveries, "seed {seed}");
        total_crashes += outcome.crashes;
        total_committed += outcome.committed.len();
    }
    assert!(
        total_crashes >= 8,
        "matrix too tame: only {total_crashes} crashes fired across all seeds"
    );
    assert_eq!(total_committed, 10 * VNFS_PER_SEED);
}

/// The same crash-plan seed replays the same crash schedule and converges
/// to the same recovered state — the crash matrix is a deterministic
/// regression witness, not a flaky fuzzer.
#[test]
fn same_crash_seed_replays_the_same_schedule() {
    let run = |seed: u64| {
        let outcome = run_crash_scenario(seed);
        (outcome.committed, outcome.crashes)
    };
    assert_eq!(run(3), run(3));
}

/// A torn WAL tail (the medium lost the end of the final append) rolls the
/// log back to the last intact record. The dropped record was never
/// acknowledged-and-persisted as a unit, so the recovered state is a
/// consistent prefix: earlier enrollments intact, the torn commit demoted
/// to a pending prepare.
#[test]
fn torn_wal_tail_recovers_to_a_consistent_prefix() {
    let mut tb = TestbedBuilder::new(b"torn tail")
        .durable()
        .pending_enrollment_ttl(PENDING_TTL)
        .build();
    tb.attest_host(0).unwrap();
    let guard_a = tb.deploy_guard(0, "vnf-a", 1).unwrap();
    let cert_a = tb.enroll(0, &guard_a).unwrap();
    let guard_b = tb.deploy_guard(0, "vnf-b", 1).unwrap();
    let cert_b = tb.enroll(0, &guard_b).unwrap();

    // Clip bytes off the final frame — vnf-b's EnrollmentCommitted record.
    tb.store_media().unwrap().tear_tail(3);
    let report = tb.recover_vm().unwrap();
    assert!(report.truncated_tail, "the torn tail must be detected");

    // vnf-a's enrollment is intact; vnf-b rolled back to prepared (its
    // commit never fully reached the medium) and will be aborted by the
    // sweep if nobody completes it.
    assert!(tb.vm.enrollments().any(|e| e.serial == cert_a.serial()));
    assert!(!tb.vm.enrollments().any(|e| e.serial == cert_b.serial()));
    assert!(tb
        .vm
        .pending_enrollments()
        .any(|p| p.serial == cert_b.serial()));

    tb.clock.advance(PENDING_TTL + 1);
    assert_eq!(tb.vm.sweep_pending_enrollments().unwrap(), 1);
    assert!(tb.vm.credential_is_revoked(cert_b.serial()));
    assert!(!tb.vm.credential_is_revoked(cert_a.serial()));
}

/// Records acknowledged after a torn-tail recovery survive the next
/// recovery: the first write after recovery cuts the torn bytes instead of
/// landing behind them, where every later replay would stop.
#[test]
fn renewal_after_a_torn_tail_recovery_survives_the_next_recovery() {
    let mut tb = TestbedBuilder::new(b"torn tail renewal").durable().build();
    tb.attest_host(0).unwrap();
    let guard_a = tb.deploy_guard(0, "vnf-a", 1).unwrap();
    let cert_a = tb.enroll(0, &guard_a).unwrap();
    let guard_b = tb.deploy_guard(0, "vnf-b", 1).unwrap();
    tb.enroll(0, &guard_b).unwrap();

    // Tear vnf-b's commit frame, recover, and renew vnf-a on the new
    // incarnation (hosts re-attest to every incarnation).
    tb.store_media().unwrap().tear_tail(3);
    assert!(tb.recover_vm().unwrap().truncated_tail);
    tb.attest_host(0).unwrap();
    let renewed = tb.renew(&guard_a, cert_a.serial()).unwrap();

    let report = tb.recover_vm().unwrap();
    assert!(
        !report.truncated_tail,
        "nothing acknowledged sits behind torn bytes"
    );
    assert_eq!(report.generation, 2);
    assert!(
        tb.vm.enrollments().any(|e| e.serial == renewed.serial()),
        "the renewal acknowledged after the first recovery was lost"
    );
}

/// Concurrent renewals on one shard while a seeded plan crashes the
/// manager at `renewal.issue` and the harness recovers it as soon as a
/// client sees the crash, with the other clients still calling. Every
/// acknowledged renewal survives, and the final recovered state equals an
/// independent replay of a fork of the medium.
#[test]
fn crashes_under_concurrent_renewals_recover_to_the_fork_replay() {
    let crashes: usize = (0..4).map(|seed| renewal_crash_race(seed, 256)).sum();
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
    let crashes: usize = (0..4).map(|seed| renewal_crash_race(seed, 4)).sum();
    assert!(crashes > 0, "the race never crashed the manager");
}

/// One seed of the renewal crash race (see the two tests above) on a
/// store that compacts every `wal_compaction` frames. Returns the crashes
/// the plan fired.
fn renewal_crash_race(seed: u64, wal_compaction: u64) -> usize {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;
    const CLIENTS: usize = 4;
    const RENEWALS: usize = 4;
    let plan = CrashPlan::seeded(seed);
    plan.crash_with_probability("renewal.issue", 0.15);
    let mut tb = TestbedBuilder::new(format!("renewal crash race {seed}").as_bytes())
        .durable()
        .group_commit(true)
        .wal_compaction(wal_compaction)
        .wal_write_latency(Duration::from_micros(300))
        .crash_plan(plan.clone())
        .build();
    let mut recoveries = 0;
    let mut recover = |tb: &mut Testbed| {
        recoveries += 1;
        let report = tb
            .recover_vm()
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        assert_eq!(
            report.generation, recoveries,
            "seed {seed}: an earlier recovery's generation was lost"
        );
        tb.attest_host(0).unwrap();
    };
    tb.attest_host(0).unwrap();
    let mut clients = Vec::new();
    for t in 0..CLIENTS {
        let guard = tb.deploy_guard(0, &format!("vnf-race-{t}"), 1).unwrap();
        let key = guard.provisioning_key().unwrap();
        loop {
            match tb.enroll(0, &guard) {
                Ok(certificate) => break clients.push((certificate.serial(), key)),
                Err(CoreError::VmCrashed(_)) => recover(&mut tb),
                Err(other) => panic!("seed {seed}: enrollment failed: {other}"),
            }
        }
    }
    let vm = tb.vm_service();
    let crashed = AtomicBool::new(false);
    let finished = AtomicUsize::new(0);
    let newest: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|&(serial, key)| {
                let (vm, crashed, finished) = (vm.clone(), &crashed, &finished);
                scope.spawn(move || {
                    let mut serial = serial;
                    let mut renewed = 0;
                    for _ in 0..400 {
                        match vm.renew_vnf_credential(serial, &key, "controller") {
                            Ok((_, certificate)) => {
                                serial = certificate.serial();
                                renewed += 1;
                                if renewed == RENEWALS {
                                    break;
                                }
                            }
                            // Dead, or alive again but not yet trusting
                            // the host: back off until recovered.
                            Err(CoreError::VmCrashed(_)) => {
                                crashed.store(true, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(1)),
                        }
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                    serial
                })
            })
            .collect();
        while finished.load(Ordering::SeqCst) < CLIENTS {
            if crashed.swap(false, Ordering::SeqCst) {
                recover(&mut tb);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Recover, renew on the new incarnation, recover again: the renewal
    // and both generations survive.
    plan.clear("renewal.issue");
    recover(&mut tb);
    let (_, renewed) = vm
        .renew_vnf_credential(newest[0], &clients[0].1, "controller")
        .unwrap_or_else(|e| panic!("seed {seed}: renewal after recovery failed: {e}"));
    recover(&mut tb);
    for serial in newest[1..].iter().chain([&renewed.serial()]) {
        assert!(
            tb.vm.enrollments().any(|e| e.serial == *serial),
            "seed {seed}: acknowledged serial {serial} lost"
        );
    }
    let view = |vm: &VmService| {
        let enrollments: Vec<_> = vm
            .enrollments()
            .map(|e| (e.serial, e.vnf_name.clone(), e.revoked))
            .collect();
        (
            enrollments,
            vm.issued_count(),
            vm.lifecycle_status().crl_number,
        )
    };
    assert_eq!(
        view(&tb.vm),
        view(&tb.oracle_twin().unwrap()),
        "seed {seed}: recovered state diverged from the fork replay"
    );
    plan.fired_count()
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
    let err = tb.vm.begin_vnf_attestation("host-0", "vnf-orphan").unwrap_err();
    assert!(matches!(err, CoreError::WorkflowViolation(_)));
    tb.attest_host(0).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();
    assert!(certificate.serial() > 3, "the orphaned serial is never reused");
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
    assert_eq!(body.get("enrollments_restored").and_then(Json::as_i64), Some(1));
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
/// attestation begun before the halt nor hands out a VNF challenge, and
/// neither call touches its state.
#[test]
fn a_halted_manager_neither_attests_hosts_nor_issues_vnf_challenges() {
    let mut tb = TestbedBuilder::new(b"halted zombie").durable().build();
    tb.attest_host(0).unwrap();
    let before = tb.vm.host_record("host-0").expect("host attested");

    let challenge = tb.vm.begin_host_attestation("host-0");
    let host = &tb.hosts[0];
    let iml = host.container_host.measurement_list().encode();
    let evidence = host_evidence(
        &host.platform,
        &host.integrity_enclave,
        &iml,
        &challenge.nonce,
        None,
    )
    .unwrap();
    // A verdict stored after the halt would carry the later time.
    tb.clock.advance(60);
    tb.vm.halt("node loss");

    let err = tb
        .vm
        .complete_host_attestation(&mut tb.ias, challenge.id, &evidence)
        .unwrap_err();
    assert!(matches!(err, CoreError::VmCrashed(_)), "{err}");
    let after = tb.vm.host_record("host-0").expect("record kept");
    assert_eq!(after.attested_at, before.attested_at);
    assert_eq!(after.verdict, before.verdict);

    let err = tb
        .vm
        .begin_vnf_attestation("host-0", "vnf-after-halt")
        .unwrap_err();
    assert!(matches!(err, CoreError::VmCrashed(_)), "{err}");
    let events = tb.vm.events();
    let halted = events.iter().position(|e| e.kind == "vm_halted").unwrap();
    assert!(
        events[halted..]
            .iter()
            .all(|e| e.kind != "vnf_attestation_started"),
        "a halted manager issued a VNF challenge"
    );
}
