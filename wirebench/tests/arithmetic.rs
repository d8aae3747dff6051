//! The benchmark's own arithmetic on hand-made inputs.

use std::time::{Duration, Instant};
use wirebench::spans::{
    accounted, accounted_by_request, covered, self_times, self_times_by_name, Span,
};
use wirebench::stats::{
    due_at, interquartile_mean, median, ms, per, percentile_sorted, samples_beyond, supports,
    Summary, Tally, TAIL_MIN_BEYOND,
};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_percentiles() {
    let sorted = ramp(100);
    assert_eq!(percentile_sorted(&sorted, 0.5), 50.0);
    assert_eq!(percentile_sorted(&sorted, 0.99), 99.0);
    assert_eq!(percentile_sorted(&sorted, 1.0), 100.0);
    assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
    assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(TAIL_MIN_BEYOND, 10);
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert!(supports(1000, 0.99));
    assert!(!supports(999, 0.99));
    assert!(supports(100, 0.9));
    assert!(!supports(0, 0.5));

    let short = Summary::of(&ramp(999)).expect("samples");
    assert_eq!(short.count, 999);
    assert_eq!(short.p99, None, "999 samples leave only 9 beyond the p99");
    assert_eq!(short.p90, Some(900.0));
    assert_eq!(Summary::of(&ramp(99)).expect("samples").p90, None);
    assert_eq!(Summary::of(&ramp(100)).expect("samples").p90, Some(90.0));
    let long = Summary::of(&ramp(1000)).expect("samples");
    assert_eq!(long.count, 1000);
    assert_eq!(long.p99, Some(990.0));
    assert_eq!(long.p50, 500.0);
    assert_eq!(Summary::of(&[]), None);
}

#[test]
fn summary_ignores_input_order() {
    let mut shuffled = ramp(1000);
    shuffled.reverse();
    shuffled.swap(3, 700);
    assert_eq!(Summary::of(&shuffled), Summary::of(&ramp(1000)));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn interquartile_mean_averages_the_middle_half() {
    // Ranks 25..75 of 1..=100 hold 26..=75.
    assert_eq!(interquartile_mean(&ramp(100)), 50.5);
    assert_eq!(interquartile_mean(&[4.0]), 4.0);
    assert_eq!(interquartile_mean(&[1.0, 2.0, 9.0]), 4.0);
    // A tail stall does not move it.
    let mut stalled = ramp(100);
    stalled[99] = 1e6;
    assert_eq!(interquartile_mean(&stalled), 50.5);
    assert_eq!(Summary::of(&ramp(100)).expect("samples").iqm, 50.5);
}

#[test]
fn interquartile_mean_moves_smoothly_between_two_modes() {
    let modes = |fast: usize| -> Vec<f64> {
        let mut v = vec![1.0; fast];
        v.extend(vec![10.0; 100 - fast]);
        v
    };
    // One sample moving from the slow to the fast mode flips the p50 ...
    assert_eq!(percentile_sorted(&modes(49), 0.5), 10.0);
    assert_eq!(percentile_sorted(&modes(50), 0.5), 1.0);
    // ... and moves the interquartile mean by 9 / 50.
    let step = interquartile_mean(&modes(49)) - interquartile_mean(&modes(50));
    assert!((step - 9.0 / 50.0).abs() < 1e-12, "{step}");
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    let start = Instant::now();
    // 100 ops/s: operation 7 falls due 70 ms into the phase.
    assert_eq!(due_at(start, 7, 100.0), start + Duration::from_millis(70));
    assert_eq!(due_at(start, 0, 100.0), start);
    // Sent 5 ms late, served in 2 ms: the user waited 7 ms, and the
    // generator ran 5 ms late.
    let due = due_at(start, 7, 100.0);
    let sent = due + Duration::from_millis(5);
    let done = sent + Duration::from_millis(2);
    assert!((ms(due, done) - 7.0).abs() < 1e-9);
    assert!((ms(due, sent) - 5.0).abs() < 1e-9);
    // Sending early is never negative lateness.
    assert_eq!(ms(due, due - Duration::from_millis(1)), 0.0);
}

#[test]
fn failed_ratio_carries_its_base() {
    let mut tally = Tally::default();
    assert_eq!(tally.failed_ratio(), (0.0, 0));
    for ok in [true, true, false, true] {
        tally.record(ok);
    }
    assert_eq!(
        tally,
        Tally {
            attempted: 4,
            failed: 1
        }
    );
    assert_eq!(tally.failed_ratio(), (0.25, 4));
    let mut merged = Tally {
        attempted: 6,
        failed: 0,
    };
    merged.merge(tally);
    assert_eq!(merged.failed_ratio(), (0.1, 10));
    assert_eq!(per(10.0, 4), 2.5);
    assert_eq!(per(10.0, 0), 0.0);
}

fn span(
    id: u64,
    parent: Option<u64>,
    name: &str,
    start_us: u64,
    end_us: u64,
    request: u64,
) -> Span {
    Span {
        id,
        parent,
        name: name.to_string(),
        start_us,
        end_us,
        request,
    }
}

/// client [0,100) ─┬─ server [10,80) ─┬─ issue [20,40)
///                 │                  └─ wrap  [35,50)   (overlaps issue)
///                 └─ provision [85,95)
fn tree(request: u64) -> Vec<Span> {
    vec![
        span(1, None, "client", 0, 100, request),
        span(2, Some(1), "server", 10, 80, request),
        span(3, Some(2), "issue", 20, 40, request),
        span(4, Some(2), "wrap", 35, 50, request),
        span(5, Some(1), "provision", 85, 95, request),
    ]
}

#[test]
fn interval_union_merges_overlaps_and_clips() {
    assert_eq!(covered(&[(20, 40), (35, 50)], 0, 100), 30);
    assert_eq!(covered(&[(20, 40), (60, 70)], 0, 100), 30);
    assert_eq!(covered(&[(0, 200)], 10, 80), 70);
    assert_eq!(covered(&[], 0, 10), 0);
    assert_eq!(covered(&[(50, 60)], 0, 10), 0);
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = tree(1);
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - 70 - 10);
    assert_eq!(selfs[&2], 70 - 30, "overlapping children count once");
    assert_eq!(selfs[&3], 20);
    assert_eq!(selfs[&4], 15);
    assert_eq!(selfs[&5], 10);
    // Self times along a sequential tree add back up to the root.
    assert_eq!(
        selfs.values().sum::<u64>(),
        100 + 5,
        "the 5 us overlap counts twice"
    );
}

#[test]
fn accounted_share_is_what_children_cover() {
    let spans = tree(1);
    assert_eq!(accounted(&spans, &spans[0]), 80);
    let mut both = tree(1);
    both.extend(tree(2).into_iter().map(|mut s| {
        s.id += 10;
        s.parent = s.parent.map(|p| p + 10);
        s
    }));
    assert_eq!(
        accounted_by_request(&both, "client"),
        vec![(100, 80), (100, 80)]
    );
    assert!(
        accounted_by_request(&both, "server").is_empty(),
        "only roots qualify"
    );
    let by_name = self_times_by_name(&both);
    assert_eq!(by_name["server"], vec![40.0, 40.0]);
    assert_eq!(by_name["client"], vec![20.0, 20.0]);
}
