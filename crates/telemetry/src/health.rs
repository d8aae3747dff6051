//! SLO burn-rate health evaluation: declarative [`SloSpec`]s per
//! workclass, multi-window burn-rate rules on the simulated clock, and an
//! alert state machine with flap suppression.
//!
//! The burn-rate model follows the multi-window construction from
//! Google's SRE workbook: the *burn rate* over a window is the fraction
//! of bad events divided by the error budget `1 - objective`. A burn of
//! 1.0 spends the budget exactly at the sustainable rate; an alert fires
//! only when **both** a fast window (~5 min, catches the acute incident)
//! and a slow window (~1 h, proves it is not a blip) burn above their
//! thresholds. Pending confirmation before firing and a clear hold-down
//! before resolving suppress flapping on the boundary.
//!
//! Event timestamps ride the deployment's simulated clock (callers pass
//! unix seconds), so alert timelines are deterministic and replayable;
//! latencies are wall-clock microseconds as everywhere else in the
//! workspace. Bad events recorded from traced requests keep their trace
//! ids, so a firing alert carries exemplars an operator can resolve via
//! `/vm/traces/{id}`.

use crate::metrics::Gauge;
use crate::Telemetry;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Width of one accounting bucket on the simulated timeline.
const BUCKET_SECS: u64 = 10;

/// How many bad-event trace exemplars each SLO tracker retains.
const ALERT_EXEMPLAR_CAP: usize = 8;

/// What an [`SloSpec`] measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Fraction of requests that complete successfully.
    Availability,
    /// Fraction of *successful* requests finishing within the threshold
    /// (wall-clock microseconds); failures are charged to the
    /// availability SLO, not double-counted here.
    Latency {
        /// Requests slower than this many microseconds are bad events.
        threshold_micros: u64,
    },
}

/// A declarative service-level objective for one workclass.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Unique name, used as the `slo` label on exported series.
    pub name: String,
    /// The workclass label this SLO observes (`enrollment`, `renewal`,
    /// `revocation`, `introspection`). A plain string keeps the telemetry
    /// crate free of a dependency on core's `Workclass` enum.
    pub workclass: String,
    /// Availability or latency objective.
    pub kind: SloKind,
    /// Target good fraction, e.g. `0.99`. The error budget is
    /// `1 - objective`.
    pub objective: f64,
    /// The acute window (seconds of simulated time), ~5 min.
    pub fast_window_secs: u64,
    /// The sustained window (seconds of simulated time), ~1 h.
    pub slow_window_secs: u64,
    /// Fast-window burn must reach this to count as breaching.
    pub fast_burn_threshold: f64,
    /// Slow-window burn must reach this to count as breaching.
    pub slow_burn_threshold: f64,
    /// Breach must hold this long before `pending` becomes `firing`.
    pub pending_secs: u64,
    /// Burns must stay clear this long before `firing` resolves.
    pub resolve_secs: u64,
}

impl SloSpec {
    /// An availability SLO with the default windows and thresholds
    /// (fast 5 min at 14×, slow 1 h at 6× — the SRE-workbook page pair).
    pub fn availability(workclass: &str, objective: f64) -> SloSpec {
        SloSpec {
            name: format!("{workclass}-availability"),
            workclass: workclass.to_string(),
            kind: SloKind::Availability,
            objective,
            fast_window_secs: 300,
            slow_window_secs: 3600,
            fast_burn_threshold: 14.0,
            slow_burn_threshold: 6.0,
            pending_secs: 30,
            resolve_secs: 60,
        }
    }

    /// A latency SLO: `objective` of successful requests must finish
    /// within `threshold_micros`.
    pub fn latency(workclass: &str, objective: f64, threshold_micros: u64) -> SloSpec {
        SloSpec {
            name: format!("{workclass}-latency"),
            kind: SloKind::Latency { threshold_micros },
            ..SloSpec::availability(workclass, objective)
        }
    }

    /// The stock fleet objectives: availability 99% and latency 95%
    /// within 100 ms for each of the four workclasses.
    pub fn default_set() -> Vec<SloSpec> {
        let mut specs = Vec::new();
        for class in ["enrollment", "renewal", "revocation", "introspection"] {
            specs.push(SloSpec::availability(class, 0.99));
            specs.push(SloSpec::latency(class, 0.95, 100_000));
        }
        specs
    }
}

/// Alert lifecycle state. `Ok` covers both "never breached" and "breach
/// resolved"; the resolution instant is reported separately so operators
/// can tell the two apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlertState {
    /// Within objective (or resolved after a past breach).
    Ok,
    /// Both windows breaching, awaiting the confirmation hold.
    Pending,
    /// Confirmed breach.
    Firing,
}

impl AlertState {
    /// Stable wire/gauge encoding: 0 ok, 1 pending, 2 firing.
    pub fn code(self) -> i64 {
        match self {
            AlertState::Ok => 0,
            AlertState::Pending => 1,
            AlertState::Firing => 2,
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }

    /// Inverse of [`code`](Self::code); unknown codes clamp to firing so a
    /// corrupt fleet report fails loud, not quiet.
    pub fn from_code(code: i64) -> AlertState {
        match code {
            0 => AlertState::Ok,
            1 => AlertState::Pending,
            _ => AlertState::Firing,
        }
    }
}

/// One SLO's evaluated condition at a point in simulated time.
#[derive(Clone, Debug)]
pub struct AlertSnapshot {
    /// The spec's name (`slo` label).
    pub slo: String,
    /// The workclass the SLO observes.
    pub workclass: String,
    /// Current state-machine position.
    pub state: AlertState,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// When the current state was entered (simulated seconds).
    pub since: u64,
    /// When the last firing breach resolved, if any.
    pub resolved_at: Option<u64>,
    /// Trace ids of recent bad events (most recent first) — the operator
    /// path from this alert to `/vm/traces/{id}`.
    pub exemplar_trace_ids: Vec<u128>,
    /// Good events in the fast window.
    pub fast_good: u64,
    /// Bad events in the fast window.
    pub fast_bad: u64,
}

#[derive(Clone, Copy, Default)]
struct WindowBucket {
    epoch: u64,
    good: u64,
    bad: u64,
}

struct SloTracker {
    spec: SloSpec,
    buckets: Vec<WindowBucket>,
    state: AlertState,
    since: u64,
    clear_since: Option<u64>,
    resolved_at: Option<u64>,
    exemplars: VecDeque<u128>,
    state_gauge: Gauge,
    fast_gauge: Gauge,
    slow_gauge: Gauge,
}

impl SloTracker {
    fn new(telemetry: &Telemetry, spec: SloSpec) -> SloTracker {
        let slots = (spec.slow_window_secs / BUCKET_SECS).max(1) as usize + 1;
        // The health plane exports fleet-level series under its own
        // namespace, not the telemetry crate's.
        let health = telemetry.namespace("health");
        let burn_gauge =
            |window: &str| health.gauge("burn_rate", &[("slo", &spec.name), ("window", window)]);
        SloTracker {
            buckets: vec![WindowBucket::default(); slots],
            state: AlertState::Ok,
            since: 0,
            clear_since: None,
            resolved_at: None,
            exemplars: VecDeque::new(),
            state_gauge: health.gauge("alert_state", &[("slo", &spec.name)]),
            fast_gauge: burn_gauge("fast"),
            slow_gauge: burn_gauge("slow"),
            spec,
        }
    }

    fn record(&mut self, now: u64, good: bool, trace_id: Option<u128>) {
        let epoch = now / BUCKET_SECS;
        let idx = (epoch as usize) % self.buckets.len();
        let bucket = &mut self.buckets[idx];
        if bucket.epoch != epoch {
            *bucket = WindowBucket {
                epoch,
                good: 0,
                bad: 0,
            };
        }
        if good {
            bucket.good += 1;
        } else {
            bucket.bad += 1;
            if let Some(id) = trace_id {
                if self.exemplars.front() != Some(&id) {
                    self.exemplars.push_front(id);
                    self.exemplars.truncate(ALERT_EXEMPLAR_CAP);
                }
            }
        }
    }

    fn window_counts(&self, now: u64, window_secs: u64) -> (u64, u64) {
        let newest = now / BUCKET_SECS;
        let oldest = now.saturating_sub(window_secs) / BUCKET_SECS;
        let (mut good, mut bad) = (0u64, 0u64);
        for bucket in &self.buckets {
            if bucket.epoch > oldest && bucket.epoch <= newest {
                good += bucket.good;
                bad += bucket.bad;
            }
        }
        (good, bad)
    }

    fn burn(&self, now: u64, window_secs: u64) -> f64 {
        let (good, bad) = self.window_counts(now, window_secs);
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        let budget = (1.0 - self.spec.objective).max(1e-9);
        (bad as f64 / total as f64) / budget
    }

    fn evaluate(&mut self, now: u64, telemetry: &Telemetry) -> AlertSnapshot {
        let fast = self.burn(now, self.spec.fast_window_secs);
        let slow = self.burn(now, self.spec.slow_window_secs);
        let breaching =
            fast >= self.spec.fast_burn_threshold && slow >= self.spec.slow_burn_threshold;
        let transition = |tracker: &mut SloTracker, now: u64, kind: &str| {
            tracker.since = now;
            telemetry.event(
                now,
                kind,
                &format!(
                    "{}: fast burn {fast:.2}, slow burn {slow:.2}",
                    tracker.spec.name
                ),
            );
        };
        match self.state {
            AlertState::Ok => {
                if breaching {
                    self.state = AlertState::Pending;
                    transition(self, now, "health_alert_pending");
                }
            }
            AlertState::Pending => {
                if !breaching {
                    // A blip shorter than the confirmation hold never fires.
                    self.state = AlertState::Ok;
                    transition(self, now, "health_alert_cleared");
                } else if now.saturating_sub(self.since) >= self.spec.pending_secs {
                    self.state = AlertState::Firing;
                    self.clear_since = None;
                    transition(self, now, "health_alert_firing");
                }
            }
            AlertState::Firing => {
                if breaching {
                    // Flap suppression: any re-breach restarts the clear
                    // hold-down, so an oscillating burn stays firing.
                    self.clear_since = None;
                } else {
                    let clear_start = *self.clear_since.get_or_insert(now);
                    if now.saturating_sub(clear_start) >= self.spec.resolve_secs {
                        self.state = AlertState::Ok;
                        self.resolved_at = Some(now);
                        self.clear_since = None;
                        transition(self, now, "health_alert_resolved");
                    }
                }
            }
        }
        self.state_gauge.set(self.state.code());
        // Gauges are integers; burns export in milli-units (1000 = 1.0×).
        self.fast_gauge.set((fast * 1000.0).round() as i64);
        self.slow_gauge.set((slow * 1000.0).round() as i64);
        let (fast_good, fast_bad) = self.window_counts(now, self.spec.fast_window_secs);
        AlertSnapshot {
            slo: self.spec.name.clone(),
            workclass: self.spec.workclass.clone(),
            state: self.state,
            fast_burn: fast,
            slow_burn: slow,
            since: self.since,
            resolved_at: self.resolved_at,
            exemplar_trace_ids: self.exemplars.iter().copied().collect(),
            fast_good,
            fast_bad,
        }
    }
}

struct MonitorInner {
    trackers: Vec<SloTracker>,
}

/// Evaluates a set of [`SloSpec`]s against a stream of request outcomes.
///
/// Cloning shares state. `record` is the hot-path entry (one mutex, two
/// bucket bumps per matching spec); `evaluate` steps every alert state
/// machine to `now`, updates the exported gauges, journals transitions,
/// and returns the snapshots diagnostics endpoints serve.
#[derive(Clone)]
pub struct HealthMonitor {
    inner: Arc<Mutex<MonitorInner>>,
    telemetry: Telemetry,
}

impl HealthMonitor {
    pub fn new(telemetry: &Telemetry, specs: Vec<SloSpec>) -> HealthMonitor {
        let trackers = specs
            .into_iter()
            .map(|spec| SloTracker::new(telemetry, spec))
            .collect();
        HealthMonitor {
            inner: Arc::new(Mutex::new(MonitorInner { trackers })),
            telemetry: telemetry.clone(),
        }
    }

    /// A monitor over [`SloSpec::default_set`].
    pub fn with_defaults(telemetry: &Telemetry) -> HealthMonitor {
        HealthMonitor::new(telemetry, SloSpec::default_set())
    }

    /// Record one request outcome for `workclass` at simulated time `now`.
    /// Availability SLOs count `success`; latency SLOs grade successful
    /// requests against their threshold. Bad events keep `trace_id` as an
    /// alert exemplar when the request was traced.
    pub fn record(
        &self,
        workclass: &str,
        now: u64,
        success: bool,
        latency_micros: u64,
        trace_id: Option<u128>,
    ) {
        let mut inner = self.inner.lock().expect("health monitor poisoned");
        for tracker in &mut inner.trackers {
            if tracker.spec.workclass != workclass {
                continue;
            }
            match tracker.spec.kind {
                SloKind::Availability => tracker.record(now, success, trace_id),
                SloKind::Latency { threshold_micros } => {
                    if success {
                        tracker.record(now, latency_micros <= threshold_micros, trace_id);
                    }
                }
            }
        }
    }

    /// Step every alert state machine to `now` and return the evaluated
    /// conditions (one per spec, spec order).
    pub fn evaluate(&self, now: u64) -> Vec<AlertSnapshot> {
        let mut inner = self.inner.lock().expect("health monitor poisoned");
        inner
            .trackers
            .iter_mut()
            .map(|t| t.evaluate(now, &self.telemetry))
            .collect()
    }

    /// The evaluated condition of one SLO by name, if configured.
    pub fn alert(&self, name: &str, now: u64) -> Option<AlertSnapshot> {
        self.evaluate(now).into_iter().find(|a| a.slo == name)
    }
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("health monitor poisoned");
        f.debug_struct("HealthMonitor")
            .field("slos", &inner.trackers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec::availability("enrollment", 0.99)
    }

    fn monitor() -> (Telemetry, HealthMonitor) {
        let tele = Telemetry::new();
        let monitor = HealthMonitor::new(&tele, vec![spec()]);
        (tele, monitor)
    }

    fn state_of(monitor: &HealthMonitor, now: u64) -> AlertState {
        monitor.evaluate(now)[0].state
    }

    #[test]
    fn healthy_traffic_stays_ok() {
        let (_tele, monitor) = monitor();
        let mut now = 1_600_000_000;
        for _ in 0..50 {
            monitor.record("enrollment", now, true, 1_000, None);
            now += 5;
        }
        assert_eq!(state_of(&monitor, now), AlertState::Ok);
        let alert = &monitor.evaluate(now)[0];
        assert_eq!(alert.fast_burn, 0.0);
        assert_eq!(alert.fast_good, 50);
    }

    #[test]
    fn sustained_breach_walks_pending_then_firing() {
        let (tele, monitor) = monitor();
        let mut now = 1_600_000_000;
        for _ in 0..10 {
            monitor.record("enrollment", now, false, 1_000, Some(0xBEEF));
            now += 5;
        }
        // First evaluation sees both windows burning: pending.
        assert_eq!(state_of(&monitor, now), AlertState::Pending);
        // Breach persists past the confirmation hold: firing.
        now += 31;
        monitor.record("enrollment", now, false, 1_000, Some(0xBEEF));
        let alert = &monitor.evaluate(now)[0];
        assert_eq!(alert.state, AlertState::Firing);
        assert!(alert.fast_burn >= 14.0);
        assert_eq!(alert.exemplar_trace_ids, vec![0xBEEF]);
        assert!(tele
            .journal()
            .events()
            .iter()
            .any(|e| e.kind == "health_alert_firing"));
    }

    #[test]
    fn short_blip_never_fires() {
        let (_tele, monitor) = monitor();
        let now = 1_600_000_000;
        monitor.record("enrollment", now, false, 1_000, None);
        assert_eq!(state_of(&monitor, now), AlertState::Pending);
        // Good traffic swamps the blip before the confirmation hold ends.
        for i in 0..200 {
            monitor.record("enrollment", now + 10 + i % 5, true, 1_000, None);
        }
        assert_eq!(state_of(&monitor, now + 20), AlertState::Ok);
    }

    #[test]
    fn firing_resolves_only_after_clear_holddown() {
        let (tele, monitor) = monitor();
        let mut now = 1_600_000_000;
        for _ in 0..10 {
            monitor.record("enrollment", now, false, 1_000, None);
            now += 10;
        }
        assert_eq!(state_of(&monitor, now), AlertState::Pending);
        now += 31;
        assert_eq!(state_of(&monitor, now), AlertState::Firing);
        // Recovery: the bad window ages out, good traffic replaces it.
        now += 400;
        for _ in 0..100 {
            monitor.record("enrollment", now, true, 1_000, None);
        }
        // Clear observed, but the hold-down keeps it firing (flap guard)...
        assert_eq!(state_of(&monitor, now), AlertState::Firing);
        // ...until the clear has held for resolve_secs.
        now += 61;
        let alert = &monitor.evaluate(now)[0];
        assert_eq!(alert.state, AlertState::Ok);
        assert_eq!(alert.resolved_at, Some(now));
        assert!(tele
            .journal()
            .events()
            .iter()
            .any(|e| e.kind == "health_alert_resolved"));
    }

    #[test]
    fn flapping_burn_stays_firing() {
        let (_tele, monitor) = monitor();
        let mut now = 1_600_000_000;
        for _ in 0..10 {
            monitor.record("enrollment", now, false, 1_000, None);
            now += 10;
        }
        let _ = monitor.evaluate(now);
        now += 31;
        assert_eq!(state_of(&monitor, now), AlertState::Firing);
        // Oscillate: clear for less than resolve_secs, then breach again.
        now += 400;
        for _ in 0..100 {
            monitor.record("enrollment", now, true, 1_000, None);
        }
        assert_eq!(state_of(&monitor, now), AlertState::Firing);
        now += 30; // clear hold not yet satisfied
        monitor.record("enrollment", now, false, 1_000, None);
        for _ in 0..30 {
            monitor.record("enrollment", now, false, 1_000, None);
        }
        assert_eq!(state_of(&monitor, now), AlertState::Firing);
        now += 30;
        // Still firing: the re-breach restarted the hold-down.
        assert_eq!(state_of(&monitor, now), AlertState::Firing);
    }

    #[test]
    fn latency_slo_grades_successes_against_threshold() {
        let tele = Telemetry::new();
        let monitor = HealthMonitor::new(&tele, vec![SloSpec::latency("renewal", 0.95, 10_000)]);
        let now = 1_600_000_000;
        monitor.record("renewal", now, true, 5_000, None); // good
        monitor.record("renewal", now, true, 50_000, None); // bad: slow
        monitor.record("renewal", now, false, 1_000, None); // ignored: failed
        let alert = &monitor.evaluate(now)[0];
        assert_eq!(alert.fast_good, 1);
        assert_eq!(alert.fast_bad, 1);
    }

    #[test]
    fn gauges_export_state_and_milliburns() {
        let (tele, monitor) = monitor();
        let now = 1_600_000_000;
        for _ in 0..10 {
            monitor.record("enrollment", now, false, 1_000, None);
        }
        let _ = monitor.evaluate(now);
        let text = tele.render_prometheus();
        assert!(text.contains("vnfguard_health_alert_state{slo=\"enrollment-availability\"} 1"));
        // 100% bad at a 1% budget = burn 100.0 → 100000 milli-units.
        assert!(text.contains(
            "vnfguard_health_burn_rate{slo=\"enrollment-availability\",window=\"fast\"} 100000"
        ));
    }

    #[test]
    fn old_buckets_age_out_of_the_windows() {
        let (_tele, monitor) = monitor();
        let now = 1_600_000_000;
        for _ in 0..10 {
            monitor.record("enrollment", now, false, 1_000, None);
        }
        assert!(monitor.evaluate(now)[0].fast_burn > 0.0);
        // Two hours later both windows have rolled past the bad buckets.
        let later = now + 7200;
        let alert = &monitor.evaluate(later)[0];
        assert_eq!(alert.fast_burn, 0.0);
        assert_eq!(alert.slow_burn, 0.0);
    }
}
