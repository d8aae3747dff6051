//! Percentiles, open-loop timing and failure accounting.

use std::time::{Duration, Instant};

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of already sorted samples (`q` in `0..=1`).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// Whether `n` samples support reporting the `q` percentile: at least
/// [`TAIL_MIN_BEYOND`] samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= TAIL_MIN_BEYOND
}

/// The median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_sorted(&sorted, 0.5))
}

/// Mean of the middle half of already sorted samples (ranks `n/4` up to
/// `n - n/4`). Where two modes meet near the median, the p50 jumps from one
/// to the other as a run shifts a little weight between them; this mean
/// moves in proportion to the weight shifted, and stalls in the tail leave
/// it alone.
pub fn interquartile_mean(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "mean of no samples");
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// The [`interquartile_mean`].
    pub iqm: f64,
    /// The p90 and p99, each present only when the samples support it.
    pub p90: Option<f64>,
    pub p99: Option<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            count: sorted.len(),
            p50: percentile_sorted(&sorted, 0.5),
            iqm: interquartile_mean(&sorted),
            p90: supports(sorted.len(), 0.9).then(|| percentile_sorted(&sorted, 0.9)),
            p99: supports(sorted.len(), 0.99).then(|| percentile_sorted(&sorted, 0.99)),
        })
    }
}

/// Milliseconds from `from` to `to`, never negative. Open-loop latency is
/// `ms(due, done)`: a stall that delays later sends is charged to them.
/// Generator lateness is `ms(due, sent)`.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// When operation `index` falls due at a fixed offered `rate` per second,
/// counted from `start`.
pub fn due_at(start: Instant, index: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(index as f64 / rate)
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempts, with its base: `(ratio, attempted)`.
    /// No attempts is a zero ratio over a zero base, not a division.
    pub fn failed_ratio(&self) -> (f64, u64) {
        if self.attempted == 0 {
            (0.0, 0)
        } else {
            (self.failed as f64 / self.attempted as f64, self.attempted)
        }
    }
}

/// `numerator / base`, or zero over an empty base.
pub fn per(numerator: f64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        numerator / base as f64
    }
}
