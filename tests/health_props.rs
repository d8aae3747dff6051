//! Property tests for the health plane's exact histogram aggregation —
//! the invariant the fleet monitor's cross-node merge relies on.
//!
//! Fleet quantiles are computed by merging full log₂ bucket vectors, not
//! by averaging per-node percentiles, so three properties carry the
//! design:
//!
//! - **merge is associative and commutative**: the fleet view must not
//!   depend on scrape order or on how nodes are grouped (a monitor
//!   merging `(primary + standby) + agent-side` must equal
//!   `primary + (standby + agent-side)`);
//! - **merged quantiles are bounded**: a merged quantile never drops
//!   below every part's quantile and never exceeds the merged max —
//!   aggregation cannot invent latency that no node observed;
//! - **exemplars survive the merge**: the slowest observation's trace id
//!   is still attached after merging, so a fleet-wide tail number still
//!   links to `GET /vm/traces/{id}`.

use proptest::collection::vec;
use proptest::prelude::*;
use vnfguard::telemetry::{Histogram, HistogramSnapshot, EXEMPLAR_CAP};

/// One node's worth of observations: latency values, each optionally
/// carrying a trace id (sampled requests carry one, unsampled don't).
type Part = Vec<(u64, Option<u128>)>;

fn part() -> impl Strategy<Value = Part> {
    vec(
        (
            0u64..2_000_000,
            prop_oneof![Just(None), (1u128..u128::MAX).prop_map(Some)],
        ),
        0..40,
    )
}

/// Record a part through a real [`Histogram`](vnfguard::telemetry::Histogram)
/// and snapshot it — properties run against the production record path,
/// not a reimplementation.
fn snapshot_of(values: &[(u64, Option<u128>)]) -> HistogramSnapshot {
    let histogram = Histogram::detached();
    for (value, trace) in values {
        match trace {
            Some(id) => histogram.record_with_exemplar(*value, *id),
            None => histogram.record(*value),
        }
    }
    histogram.snapshot()
}

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(a in part(), b in part()) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        prop_assert_eq!(merged(&sa, &sb), merged(&sb, &sa));
    }

    #[test]
    fn merge_is_associative(a in part(), b in part(), c in part()) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        let left = merged(&merged(&sa, &sb), &sc);
        let right = merged(&sa, &merged(&sb, &sc));
        prop_assert_eq!(left, right);
    }

    #[test]
    fn merge_totals_are_exact(a in part(), b in part()) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let m = merged(&sa, &sb);
        prop_assert_eq!(m.count, sa.count + sb.count);
        prop_assert_eq!(m.sum, sa.sum + sb.sum);
        prop_assert_eq!(m.max, sa.max.max(sb.max));
        for (i, &count) in m.buckets.iter().enumerate() {
            let a_i = sa.buckets.get(i).copied().unwrap_or(0);
            let b_i = sb.buckets.get(i).copied().unwrap_or(0);
            prop_assert_eq!(count, a_i + b_i, "bucket {}", i);
        }
    }

    #[test]
    fn merged_quantiles_are_bounded(a in part(), b in part()) {
        prop_assume!(!a.is_empty() && !b.is_empty());
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let m = merged(&sa, &sb);
        for q in [0.5, 0.9, 0.99, 1.0] {
            let (qa, qb, qm) = (sa.quantile(q), sb.quantile(q), m.quantile(q));
            // The union's quantile can't lie below both parts' — merging
            // cannot make the fleet look faster than its fastest node...
            prop_assert!(qm >= qa.min(qb), "q={}: {} < min({}, {})", q, qm, qa, qb);
            // ...and can't exceed the slowest observation anyone made.
            prop_assert!(qm <= m.max, "q={}: {} > max {}", q, qm, m.max);
        }
        // Quantiles stay monotone in q after a merge.
        prop_assert!(m.quantile(0.5) <= m.quantile(0.99));
        prop_assert!(m.quantile(0.99) <= m.quantile(1.0));
    }

    #[test]
    fn slowest_exemplar_survives_merge(a in part(), b in part(), slow_id in 1u128..u128::MAX) {
        // Plant a traced observation strictly slower than everything else:
        // whatever else the nodes saw, the fleet view must keep its trace.
        let mut a = a;
        a.push((10_000_000, Some(slow_id)));
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let m = merged(&sa, &sb);
        prop_assert!(
            m.exemplars.iter().any(|e| e.trace_id == slow_id),
            "slowest trace id lost in merge: {:?}",
            m.exemplars
        );
        // Retention honors the cap and keeps exemplars rank-sorted, so
        // the first entry is always the slowest surviving observation.
        prop_assert!(m.exemplars.len() <= EXEMPLAR_CAP);
        prop_assert!(m
            .exemplars
            .windows(2)
            .all(|w| w[0].value >= w[1].value));
        prop_assert_eq!(m.exemplars[0].trace_id, slow_id);
        // Nothing is invented: every merged exemplar came from a part.
        for exemplar in &m.exemplars {
            prop_assert!(
                sa.exemplars.contains(exemplar) || sb.exemplars.contains(exemplar),
                "merge invented exemplar {:?}",
                exemplar
            );
        }
    }
}
