//! Overload control: deadline propagation and admission control.
//!
//! The Verification Manager sits on the critical path of every enrollment,
//! renewal, and revocation in the network. Without overload control a
//! renewal stampede drives queueing delay unbounded until *every* request
//! times out at once — zero goodput at peak demand. This module gives the
//! serving stack two defenses:
//!
//! - **[`Deadline`] propagation** — requests carry a remaining-budget
//!   header (`x-vnfguard-deadline`, milliseconds) that the router installs
//!   in the request scope at dispatch; every layer that might wait (shard
//!   queues, IAS retry loops, replication acks) checks the budget first and
//!   fails fast with [`CoreError::DeadlineExceeded`] instead of doing work
//!   nobody will wait for. A deadline has **two components** because the
//!   testbed runs on a [`SimClock`] that stands still during real waits
//!   (queueing, WAL flush latency): a simulated expiry for backoff loops
//!   that advance the clock, and a wall-clock expiry for real stalls.
//! - **[`AdmissionController`]** — bounded per-class FIFO accounting in
//!   front of the shard mutexes, with a CoDel-style sojourn test at
//!   dequeue. Once a class's queue is full, or queueing delay has stayed
//!   above target for a full interval, new arrivals are shed with
//!   [`CoreError::Overloaded`] carrying a `retry-after-secs` hint sized to
//!   the congestion — turning collapse into bounded latency for admitted
//!   requests plus fast, honest rejections for the rest.
//!
//! Priority is expressed through queue bounds, not reordering: revocation
//! and CRL work (the security-critical path — a revoked credential must
//! die *now*) gets the full bound, renewals three quarters, enrollments
//! half, and introspection a quarter. Under sustained enrollment flood the
//! enrollment queue saturates and sheds while revocations still find room.

use crate::CoreError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vnfguard_controller::clock::SimClock;
pub use vnfguard_telemetry::{current_deadline, Deadline};
use vnfguard_telemetry::{Counter, Gauge, Telemetry};

/// Whether the current request's deadline (installed by the router's
/// [`RequestScope`](vnfguard_telemetry::RequestScope)) has run out on
/// `clock`. Requests without a deadline never expire.
pub fn deadline_expired(clock: &SimClock) -> bool {
    current_deadline().is_some_and(|deadline| deadline.expired(clock.now()))
}

/// Fail fast if the current request's deadline has expired. `what` names
/// the work being abandoned (it lands in the error detail and, via the
/// remote layer, in the 504 body).
pub fn check_deadline(clock: &SimClock, what: &str) -> Result<(), CoreError> {
    if deadline_expired(clock) {
        return Err(CoreError::DeadlineExceeded(format!(
            "{what}: request budget exhausted"
        )));
    }
    Ok(())
}

/// Priority class of a request, highest first. Priority is enforced by
/// queue-bound asymmetry (see [`AdmissionConfig`]), not reordering: lower
/// classes run out of queue room first and shed while higher classes still
/// admit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workclass {
    /// Revocations and CRL issue/fetch: the security-critical path.
    Revocation,
    /// Credential renewals: losing one strands a VNF when its cert lapses.
    Renewal,
    /// New enrollments: deferrable — the VNF is not serving yet.
    Enrollment,
    /// Status and lifecycle reads.
    Introspection,
}

impl Workclass {
    pub const ALL: [Workclass; 4] = [
        Workclass::Revocation,
        Workclass::Renewal,
        Workclass::Enrollment,
        Workclass::Introspection,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Workclass::Revocation => "revocation",
            Workclass::Renewal => "renewal",
            Workclass::Enrollment => "enrollment",
            Workclass::Introspection => "introspection",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Workclass::Revocation => 0,
            Workclass::Renewal => 1,
            Workclass::Enrollment => 2,
            Workclass::Introspection => 3,
        }
    }
}

/// Tuning for an [`AdmissionController`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Queue bound for the highest class ([`Workclass::Revocation`]).
    /// Lower classes get a fraction: renewal ¾, enrollment ½,
    /// introspection ¼ (minimum 1 each).
    pub queue_bound: usize,
    /// CoDel target: sojourn above this is "standing queue" territory.
    pub sojourn_target_micros: u64,
    /// CoDel interval: shed once sojourn has stayed above target for this
    /// long without a single below-target dequeue.
    pub sojourn_interval_micros: u64,
    /// Base of the `retry-after-secs` hint; scaled up with total queue
    /// depth so a deeper storm spreads retries wider.
    pub retry_after_base_secs: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_bound: 64,
            sojourn_target_micros: 5_000,
            sojourn_interval_micros: 100_000,
            retry_after_base_secs: 1,
        }
    }
}

impl AdmissionConfig {
    fn bound_for(&self, class: Workclass) -> usize {
        let bound = self.queue_bound.max(1);
        match class {
            Workclass::Revocation => bound,
            Workclass::Renewal => (bound * 3 / 4).max(1),
            Workclass::Enrollment => (bound / 2).max(1),
            Workclass::Introspection => (bound / 4).max(1),
        }
    }
}

struct ClassState {
    bound: usize,
    waiting: AtomicUsize,
    codel: Mutex<CodelState>,
    depth_gauge: Gauge,
    sojourn_gauge: Gauge,
    shed: Counter,
    deadline_exceeded: Counter,
}

#[derive(Default)]
struct CodelState {
    /// Wall-clock moment sojourn first exceeded target with no
    /// below-target dequeue since; `None` while the queue is draining
    /// promptly.
    above_since: Option<Instant>,
}

/// Bounded-FIFO admission accounting with a CoDel-style sojourn test,
/// shared by every route in front of the shard mutexes.
///
/// Two gates per request:
///
/// 1. [`admit`](Self::admit) **before** queueing for a shard lock — sheds
///    immediately when the class queue is full (depth gate) or the
///    ambient deadline is already dead.
/// 2. [`dequeued`](Self::dequeued) **after** the lock is acquired — sheds
///    when the measured sojourn shows a standing queue (CoDel gate), and
///    re-checks the deadline so work that waited too long is abandoned
///    before it touches state.
///
/// The depth gate keeps memory bounded; the sojourn gate keeps *latency*
/// bounded, catching overload that a depth bound alone admits (many short
/// queues all moving slowly).
pub struct AdmissionController {
    config: AdmissionConfig,
    clock: SimClock,
    classes: [ClassState; 4],
    shed_total: Counter,
    deadline_total: Counter,
    telemetry: Telemetry,
}

impl AdmissionController {
    /// A controller with detached (unrendered) metrics; use
    /// [`instrumented`](Self::instrumented) to publish them.
    pub fn new(config: AdmissionConfig, clock: SimClock) -> AdmissionController {
        AdmissionController::instrumented(config, clock, &Telemetry::disabled())
    }

    /// A controller whose gauges and counters register with `telemetry`
    /// (rendered by the Prometheus endpoint) and whose shed/deadline
    /// events annotate active trace spans.
    pub fn instrumented(
        config: AdmissionConfig,
        clock: SimClock,
        telemetry: &Telemetry,
    ) -> AdmissionController {
        // Admission control guards the serving surface, so its series live
        // in the net namespace even though the controller lives in core.
        let net = telemetry.namespace("net");
        let class = |c: Workclass| {
            let label = c.label();
            ClassState {
                bound: config.bound_for(c),
                waiting: AtomicUsize::new(0),
                codel: Mutex::new(CodelState::default()),
                depth_gauge: net.gauge(&format!("queue_depth_{label}"), &[]),
                sojourn_gauge: net.gauge(&format!("sojourn_micros_{label}"), &[]),
                shed: net.counter(&format!("shed_total_{label}"), &[]),
                deadline_exceeded: net.counter(&format!("deadline_exceeded_total_{label}"), &[]),
            }
        };
        AdmissionController {
            clock,
            classes: [
                class(Workclass::Revocation),
                class(Workclass::Renewal),
                class(Workclass::Enrollment),
                class(Workclass::Introspection),
            ],
            shed_total: net.counter("shed_total", &[]),
            deadline_total: net.counter("deadline_exceeded_total", &[]),
            telemetry: telemetry.clone(),
            config,
        }
    }

    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Requests of `class` currently queued (admitted, not yet released).
    pub fn waiting(&self, class: Workclass) -> usize {
        self.classes[class.index()].waiting.load(Ordering::Relaxed)
    }

    /// The depth bound for `class` under the current config.
    pub fn bound(&self, class: Workclass) -> usize {
        self.classes[class.index()].bound
    }

    /// Requests of `class` shed by the depth or sojourn gate so far.
    pub fn shed_count(&self, class: Workclass) -> u64 {
        self.classes[class.index()].shed.get()
    }

    /// Requests of `class` abandoned because their deadline expired.
    pub fn deadline_count(&self, class: Workclass) -> u64 {
        self.classes[class.index()].deadline_exceeded.get()
    }

    fn total_waiting(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.waiting.load(Ordering::Relaxed))
            .sum()
    }

    /// How long a shed client should back off, scaled to total congestion
    /// so deeper storms spread their retries across a wider window.
    fn retry_after_secs(&self) -> u64 {
        let congestion = self.total_waiting() / self.config.queue_bound.max(1);
        self.config
            .retry_after_base_secs
            .max(1)
            .saturating_mul(1 + congestion as u64)
    }

    fn note_shed(&self, class: Workclass, detail: &str) {
        self.classes[class.index()].shed.inc();
        self.shed_total.inc();
        self.annotate("shed", detail);
    }

    fn note_deadline(&self, class: Workclass, detail: &str) {
        self.classes[class.index()].deadline_exceeded.inc();
        self.deadline_total.inc();
        self.annotate("deadline", detail);
    }

    /// Record why a request died into its current trace span, so waterfall
    /// views show shed/deadline events inline.
    pub fn annotate(&self, kind: &str, detail: &str) {
        self.telemetry.annotate(self.clock.now(), kind, detail);
    }

    /// The depth gate: admit a request of `class` into its queue, or shed.
    /// Call **before** waiting on a shard lock; hold the returned
    /// [`Permit`] until the request is finished (its `Drop` releases the
    /// queue slot).
    pub fn admit(&self, class: Workclass) -> Result<Permit<'_>, CoreError> {
        if deadline_expired(&self.clock) {
            let detail = format!("{} request arrived with exhausted budget", class.label());
            self.note_deadline(class, &detail);
            return Err(CoreError::DeadlineExceeded(detail));
        }
        let state = &self.classes[class.index()];
        // Optimistically reserve, then back out if over bound: racing
        // admits may both see room, but depth never exceeds bound + racers
        // and the accounting stays exact.
        let depth = state.waiting.fetch_add(1, Ordering::Relaxed) + 1;
        if depth > state.bound {
            state.waiting.fetch_sub(1, Ordering::Relaxed);
            let retry_after_secs = self.retry_after_secs();
            let detail = format!(
                "{} queue full ({} waiting, bound {})",
                class.label(),
                depth - 1,
                state.bound
            );
            self.note_shed(class, &detail);
            return Err(CoreError::Overloaded {
                detail,
                retry_after_secs,
            });
        }
        state.depth_gauge.set(depth as i64);
        Ok(Permit {
            controller: self,
            class,
            enqueued: Instant::now(),
        })
    }

    /// The sojourn gate: call once the shard lock is acquired. Sheds if
    /// queueing delay shows a standing queue (CoDel: sojourn above target
    /// for a full interval) or if the request's deadline died while it
    /// waited. On `Err` the caller must release the lock without touching
    /// state; the permit's `Drop` still releases the queue slot.
    pub fn dequeued(&self, permit: &Permit<'_>) -> Result<(), CoreError> {
        let class = permit.class;
        let state = &self.classes[class.index()];
        let sojourn_micros = permit.enqueued.elapsed().as_micros() as u64;
        state.sojourn_gauge.set(sojourn_micros as i64);
        if deadline_expired(&self.clock) {
            let detail = format!(
                "{} request budget died in queue ({sojourn_micros}us sojourn)",
                class.label()
            );
            self.note_deadline(class, &detail);
            return Err(CoreError::DeadlineExceeded(detail));
        }
        let shed = {
            let mut codel = state.codel.lock().expect("codel state poisoned");
            if sojourn_micros <= self.config.sojourn_target_micros {
                codel.above_since = None;
                false
            } else {
                let now = Instant::now();
                match codel.above_since {
                    None => {
                        codel.above_since = Some(now);
                        false
                    }
                    Some(since)
                        if now.duration_since(since).as_micros() as u64
                            >= self.config.sojourn_interval_micros =>
                    {
                        // Restart the interval rather than shedding every
                        // subsequent dequeue while above target.
                        codel.above_since = Some(now);
                        true
                    }
                    Some(_) => false,
                }
            }
        };
        if shed {
            let retry_after_secs = self.retry_after_secs();
            let detail = format!(
                "{} sojourn {}us above {}us target for a full interval",
                class.label(),
                sojourn_micros,
                self.config.sojourn_target_micros
            );
            self.note_shed(class, &detail);
            return Err(CoreError::Overloaded {
                detail,
                retry_after_secs,
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("AdmissionController");
        for class in Workclass::ALL {
            s.field(class.label(), &self.waiting(class));
        }
        s.finish()
    }
}

/// A queue slot held by an admitted request; dropping it releases the
/// slot and updates the depth gauge.
#[derive(Debug)]
pub struct Permit<'a> {
    controller: &'a AdmissionController,
    class: Workclass,
    enqueued: Instant,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let state = &self.controller.classes[self.class.index()];
        let before = state.waiting.fetch_sub(1, Ordering::Relaxed);
        state.depth_gauge.set(before.saturating_sub(1) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vnfguard_telemetry::{RequestScope, TraceContext};

    fn config(bound: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_bound: bound,
            // Effectively disable the sojourn gate unless a test opts in.
            sojourn_target_micros: u64::MAX,
            sojourn_interval_micros: u64::MAX,
            retry_after_base_secs: 2,
        }
    }

    #[test]
    fn check_deadline_reads_the_request_scope() {
        let clock = SimClock::at(0);
        assert!(check_deadline(&clock, "unscoped").is_ok());
        let start = |budget| Some(Deadline::start(Some(clock.now()), budget));
        let outer = RequestScope::enter(TraceContext::disabled(), start(60_000));
        assert!(check_deadline(&clock, "outer").is_ok());
        {
            let _inner = RequestScope::enter(TraceContext::disabled(), start(0));
            assert!(matches!(
                check_deadline(&clock, "inner"),
                Err(CoreError::DeadlineExceeded(_))
            ));
        }
        // Inner scope dropped: the outer (live) deadline is back.
        assert!(check_deadline(&clock, "outer again").is_ok());
        // Backoff loops burn the simulated half of the budget.
        clock.advance(60);
        assert!(check_deadline(&clock, "outer after backoff").is_err());
        drop(outer);
        assert!(current_deadline().is_none());
    }

    #[test]
    fn depth_gate_sheds_at_bound_and_permits_release() {
        let controller = AdmissionController::new(config(4), SimClock::at(0));
        let permits: Vec<_> = (0..4)
            .map(|_| controller.admit(Workclass::Revocation).expect("room"))
            .collect();
        assert_eq!(controller.waiting(Workclass::Revocation), 4);
        let shed = controller.admit(Workclass::Revocation);
        match shed {
            Err(CoreError::Overloaded {
                retry_after_secs, ..
            }) => assert!(retry_after_secs >= 2),
            other => panic!("expected overloaded, got {other:?}"),
        }
        drop(permits);
        assert_eq!(controller.waiting(Workclass::Revocation), 0);
        let permit = controller.admit(Workclass::Revocation).expect("drained");
        assert!(controller.dequeued(&permit).is_ok());
    }

    #[test]
    fn lower_classes_run_out_of_room_first() {
        let controller = AdmissionController::new(config(8), SimClock::at(0));
        // Enrollment gets half the bound; fill it.
        let _enrollments: Vec<_> = (0..4)
            .map(|_| controller.admit(Workclass::Enrollment).expect("room"))
            .collect();
        assert!(controller.admit(Workclass::Enrollment).is_err());
        // Revocations still admit: priority by bound asymmetry.
        assert!(controller.admit(Workclass::Revocation).is_ok());
        // Introspection has the smallest queue of all.
        let _reads: Vec<_> = (0..2)
            .map(|_| controller.admit(Workclass::Introspection).expect("room"))
            .collect();
        assert!(controller.admit(Workclass::Introspection).is_err());
    }

    #[test]
    fn codel_sheds_only_after_a_standing_queue_persists() {
        let clock = SimClock::at(0);
        let controller = AdmissionController::new(
            AdmissionConfig {
                queue_bound: 8,
                sojourn_target_micros: 500,
                sojourn_interval_micros: 3_000,
                retry_after_base_secs: 1,
            },
            clock,
        );
        let slow_dequeue = || {
            let permit = controller.admit(Workclass::Renewal).expect("room");
            std::thread::sleep(Duration::from_millis(2));
            controller.dequeued(&permit)
        };
        // First above-target sojourn starts the interval, no shed yet.
        assert!(slow_dequeue().is_ok());
        std::thread::sleep(Duration::from_millis(4));
        // Still above target a full interval later: shed.
        assert!(matches!(slow_dequeue(), Err(CoreError::Overloaded { .. })));
        // A prompt dequeue resets the interval.
        let quick = controller.admit(Workclass::Renewal).expect("room");
        assert!(controller.dequeued(&quick).is_ok());
        drop(quick);
        assert!(slow_dequeue().is_ok(), "interval restarted after drain");
    }

    #[test]
    fn expired_ambient_deadline_is_refused_at_both_gates() {
        let clock = SimClock::at(0);
        let controller = AdmissionController::new(config(8), clock.clone());
        let _scope = RequestScope::enter(
            TraceContext::disabled(),
            Some(Deadline::start(Some(clock.now()), 2_000)),
        );
        let permit = controller.admit(Workclass::Renewal).expect("live budget");
        clock.advance(5);
        assert!(matches!(
            controller.dequeued(&permit),
            Err(CoreError::DeadlineExceeded(_))
        ));
        drop(permit);
        assert!(matches!(
            controller.admit(Workclass::Renewal),
            Err(CoreError::DeadlineExceeded(_))
        ));
    }

    #[test]
    fn instrumented_controller_publishes_metrics() {
        let telemetry = Telemetry::new();
        let clock = SimClock::at(0);
        // queue_bound 4 → enrollment (half) gets 2 slots.
        let controller = AdmissionController::instrumented(config(4), clock, &telemetry);
        let _held: Vec<_> = (0..2)
            .map(|_| controller.admit(Workclass::Enrollment).expect("room"))
            .collect();
        let _ = controller.admit(Workclass::Enrollment);
        let rendered = telemetry.render_prometheus();
        assert!(rendered.contains("vnfguard_net_queue_depth_enrollment 2"));
        assert!(rendered.contains("vnfguard_net_shed_total_enrollment 1"));
        assert!(rendered.contains("vnfguard_net_shed_total 1"));
    }
}
