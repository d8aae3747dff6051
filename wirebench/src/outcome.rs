//! What one measured pass of a workload produced.

use crate::deploy::COUNTERS;
use std::collections::BTreeMap;
use wirebench::stats::Tally;

/// Latency samples (milliseconds) per operation kind, failures, output
/// check findings and the counter deltas the per-layer table divides.
#[derive(Default)]
pub struct Outcome {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub tally: Tally,
    /// Operations the program acknowledged (the base of per-op ratios).
    pub acknowledged: u64,
    /// Closed-loop completions of the workload's main operation per second
    /// of available time (see `steal`).
    pub throughput: f64,
    /// Open-loop send lateness, milliseconds.
    pub lateness: Vec<f64>,
    /// Output checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    /// Counter deltas over the measured window, by name.
    pub deltas: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn sample(&mut self, kind: &'static str, ms: f64) {
        self.samples.entry(kind).or_default().push(ms);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.violations.len() < 20 {
            self.violations.push(what());
        }
    }

    /// Add the change of each deployment counter over a measured window.
    pub fn add_deltas(&mut self, before: [f64; 5], after: [f64; 5]) {
        for (name, (a, b)) in COUNTERS.into_iter().zip(before.into_iter().zip(after)) {
            *self.deltas.entry(name).or_default() += b - a;
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        for (kind, mut values) in other.samples {
            self.samples.entry(kind).or_default().append(&mut values);
        }
        self.tally.merge(other.tally);
        self.acknowledged += other.acknowledged;
        self.lateness.extend(other.lateness);
        for v in other.violations {
            if self.violations.len() < 20 {
                self.violations.push(v);
            }
        }
    }
}
