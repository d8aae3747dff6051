//! Deterministic crash-point injection for the Verification Manager.
//!
//! The network failure domain is covered by `vnfguard_net::fault`; this
//! module covers the *process* failure domain: a [`CrashPlan`] kills the
//! VM at named sites placed **between a WAL append and the response** —
//! the window where crash consistency is actually decided. Like
//! `FaultPlan`, a plan is seeded: the same seed replays the same crash
//! schedule, and the recorded [`CrashEvent`] log is the witness.
//!
//! A fired crash surfaces as [`CoreError::VmCrashed`](crate::CoreError)
//! and marks the manager dead — every subsequent workflow call fails until
//! the operator runs `VmService::recover` against the sealed
//! store, exactly as a real restart would.

use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The named crash sites the manager evaluates. Each sits after the
/// operation's WAL append and before its acknowledgement.
pub const CRASH_SITES: &[&str] = &[
    "enrollment.prepare",
    "enrollment.commit",
    "enrollment.abort",
    "enrollment.expire",
    "revocation.revoke",
    "degraded.verdict",
    "renewal.issue",
    "rotation.prepare",
    "rotation.commit",
    "crl.issue",
];

/// One evaluated crash decision (the replay witness).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashEvent {
    pub site: String,
    /// 1-based hit count of the site at evaluation time.
    pub hit: u64,
    pub fired: bool,
}

#[derive(Default)]
struct SiteRule {
    /// Explicit 1-based hit numbers that crash.
    at_hits: BTreeSet<u64>,
    /// Per-hit crash probability (seeded draw).
    probability: f64,
}

struct PlanInner {
    seed: u64,
    rng: u64,
    rules: HashMap<String, SiteRule>,
    hits: HashMap<String, u64>,
    events: Vec<CrashEvent>,
}

pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A seeded, shareable crash schedule. Clones observe the same state, so
/// the testbed and the manager hold the same plan.
#[derive(Clone)]
pub struct CrashPlan {
    inner: Arc<Mutex<PlanInner>>,
}

impl CrashPlan {
    /// A plan whose probabilistic decisions replay from `seed`.
    pub fn seeded(seed: u64) -> CrashPlan {
        CrashPlan {
            inner: Arc::new(Mutex::new(PlanInner {
                seed,
                rng: seed,
                rules: HashMap::new(),
                hits: HashMap::new(),
                events: Vec::new(),
            })),
        }
    }

    pub fn seed(&self) -> u64 {
        self.inner.lock().seed
    }

    /// Crash at the next hit of `site`.
    pub fn crash_once(&self, site: &str) -> &CrashPlan {
        let mut inner = self.inner.lock();
        let next = inner.hits.get(site).copied().unwrap_or(0) + 1;
        inner
            .rules
            .entry(site.to_string())
            .or_default()
            .at_hits
            .insert(next);
        drop(inner);
        self
    }

    /// Crash at the `hit`-th (1-based) hit of `site`.
    pub fn crash_at_hit(&self, site: &str, hit: u64) -> &CrashPlan {
        self.inner
            .lock()
            .rules
            .entry(site.to_string())
            .or_default()
            .at_hits
            .insert(hit.max(1));
        self
    }

    /// Crash each hit of `site` with probability `p` (seeded draw).
    pub fn crash_with_probability(&self, site: &str, p: f64) -> &CrashPlan {
        self.inner
            .lock()
            .rules
            .entry(site.to_string())
            .or_default()
            .probability = p.clamp(0.0, 1.0);
        self
    }

    /// Remove every rule for `site` (scheduled hits and probability).
    pub fn clear(&self, site: &str) {
        self.inner.lock().rules.remove(site);
    }

    /// Evaluate the plan at `site`: count the hit, decide, record the
    /// decision. Called by the manager at each crash point.
    pub fn fires(&self, site: &str) -> bool {
        let mut inner = self.inner.lock();
        let hit = inner.hits.entry(site.to_string()).or_insert(0);
        *hit += 1;
        let hit = *hit;
        let (scheduled, probability) = match inner.rules.get(site) {
            Some(rule) => (rule.at_hits.contains(&hit), rule.probability),
            None => (false, 0.0),
        };
        let fired = scheduled
            || (probability > 0.0 && {
                let draw = splitmix(&mut inner.rng) as f64 / u64::MAX as f64;
                draw < probability
            });
        inner.events.push(CrashEvent {
            site: site.to_string(),
            hit,
            fired,
        });
        fired
    }

    /// Every decision taken so far, in order.
    pub fn events(&self) -> Vec<CrashEvent> {
        self.inner.lock().events.clone()
    }

    /// Number of crashes that actually fired.
    pub fn fired_count(&self) -> usize {
        self.inner.lock().events.iter().filter(|e| e.fired).count()
    }
}

impl std::fmt::Debug for CrashPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CrashPlan")
            .field("seed", &inner.seed)
            .field("rules", &inner.rules.len())
            .field("evaluations", &inner.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_hit_fires_exactly_once() {
        let plan = CrashPlan::seeded(1);
        plan.crash_at_hit("enrollment.commit", 2);
        assert!(!plan.fires("enrollment.commit"));
        assert!(plan.fires("enrollment.commit"));
        assert!(!plan.fires("enrollment.commit"));
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn crash_once_targets_the_next_hit() {
        let plan = CrashPlan::seeded(2);
        assert!(!plan.fires("enrollment.prepare"));
        plan.crash_once("enrollment.prepare");
        assert!(plan.fires("enrollment.prepare"));
        assert!(!plan.fires("enrollment.prepare"));
    }

    #[test]
    fn sites_are_independent() {
        let plan = CrashPlan::seeded(3);
        plan.crash_at_hit("revocation.revoke", 1);
        assert!(!plan.fires("enrollment.prepare"));
        assert!(plan.fires("revocation.revoke"));
    }

    #[test]
    fn same_seed_replays_probabilistic_schedule() {
        let run = |seed: u64| {
            let plan = CrashPlan::seeded(seed);
            plan.crash_with_probability("enrollment.commit", 0.5);
            (0..32)
                .map(|_| plan.fires("enrollment.commit"))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    #[test]
    fn event_log_witnesses_every_decision() {
        let plan = CrashPlan::seeded(4);
        plan.crash_at_hit("degraded.verdict", 1);
        plan.fires("degraded.verdict");
        plan.fires("enrollment.abort");
        let events = plan.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].fired);
        assert_eq!(events[0].hit, 1);
        assert!(!events[1].fired);
    }

    #[test]
    fn clear_removes_rules() {
        let plan = CrashPlan::seeded(5);
        plan.crash_at_hit("enrollment.commit", 1);
        plan.clear("enrollment.commit");
        assert!(!plan.fires("enrollment.commit"));
    }
}
