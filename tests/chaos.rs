//! Combined-fault schedules on the chaos driver: faults that no
//! single-purpose harness combined. The driver checks its whole invariant
//! set after every step (see `vnfguard::core::chaos`).

use vnfguard::core::chaos::{Burst, Chaos, Fault, Step};
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::core::AdmissionConfig;

/// A crash on the incarnation a promotion just installed: the second
/// standby takes over, and nothing either primary acknowledged is lost.
#[test]
fn a_crash_on_a_freshly_promoted_primary_fails_over_again() {
    let builder = TestbedBuilder::new(b"crash after promotion")
        .replicas(2)
        .pending_enrollment_ttl(600);
    let outcome = Chaos::new(1, builder)
        .run(&[
            Step::Enroll(2),
            Step::Prepare,
            Step::Fault(Fault::Halt),
            Step::Fault(Fault::CrashOnce("enrollment.commit")),
            Step::Enroll(1),
            Step::Renew,
            Step::Revoke,
            Step::Commit,
            Step::CrlPoll,
        ])
        .finish();
    assert_eq!((outcome.crashes, outcome.promotions), (1, 2));
}

/// An admission storm while recoveries swap incarnations under it, on a
/// store that compacts every four frames: sheds leave nothing half done,
/// every acknowledged operation survives, and every poll's CRL carries the
/// revocations acknowledged before it.
#[test]
fn an_admission_storm_during_recovery_loses_nothing() {
    let builder = TestbedBuilder::new(b"storm during recovery")
        .durable()
        .shards(2)
        .wal_compaction(4)
        .admission_config(AdmissionConfig {
            queue_bound: 8,
            ..AdmissionConfig::default()
        });
    let storm = Burst {
        renewers: 12,
        rounds: 2,
        revokers: 2,
        revocations: 8,
        pollers: 2,
        enrollments: 8,
        recoveries: 2,
    };
    let outcome = Chaos::new(7, builder)
        .run(&[Step::Enroll(32), Step::Burst(storm), Step::CrlPoll])
        .finish();
    assert_eq!(outcome.recoveries, 2);
    assert!(outcome.shed > 0, "the storm shed nothing");
}

/// A standby partitioned while the primary compacts: the first node loss
/// promotes the standby that kept up, the partition heals, the lagging
/// standby catches up from the new primary, and the second node loss
/// promotes it.
#[test]
fn a_standby_partitioned_through_compaction_is_promoted_later() {
    let builder = TestbedBuilder::new(b"partition through compaction")
        .replicas(2)
        .wal_compaction(6);
    let outcome = Chaos::new(11, builder)
        .run(&[
            Step::Enroll(1),
            Step::Fault(Fault::Partition("vm-standby-1:7600")),
            Step::Enroll(4),
            Step::Renew,
            Step::Revoke,
            Step::Fault(Fault::Halt),
            Step::Fault(Fault::Heal("vm-standby-1:7600")),
            Step::Enroll(2),
            Step::Fault(Fault::Halt),
            Step::Renew,
            Step::CrlPoll,
        ])
        .finish();
    assert_eq!(outcome.promotions, 2);
}

/// A recovery in place on a replicated testbed: the recovered primary
/// keeps streaming, so the standby promoted at the next node loss holds
/// every enrollment and the revocation acknowledged after the recovery.
#[test]
fn a_primary_recovered_in_place_keeps_feeding_its_standbys() {
    let builder = TestbedBuilder::new(b"recovery with standbys").replicas(2);
    let outcome = Chaos::new(3, builder)
        .run(&[
            Step::Enroll(2),
            Step::Recover,
            Step::Enroll(2),
            Step::Revoke,
            Step::Fault(Fault::Halt),
            Step::Renew,
            Step::CrlPoll,
        ])
        .finish();
    assert_eq!((outcome.recoveries, outcome.promotions), (1, 1));
}
