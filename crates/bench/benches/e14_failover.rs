//! E14 — replication overhead and failover time.
//!
//! Two measurements, one bar:
//!
//! - **Steady-state overhead**: enrollment on a WAL-replicated deployment
//!   (two standbys, synchronous stream-on-append) versus the same durable
//!   deployment without standbys. Batches run as adjacent pairs with
//!   alternating order and the reported overhead is the median per-pair
//!   ratio ([`vnfguard_bench::paired_overhead`]). Replication must stay
//!   within [`MAX_OVERHEAD`] of unreplicated or the process exits
//!   non-zero, failing CI.
//! - **Failover time**: wall-clock for [`Testbed::promote`] — standby
//!   selection, epoch fence, recovery replay of the replicated WAL, key
//!   re-derivation, and the queued-notice drain — on a deployment with a
//!   populated log. Reported for the record; the acceptance bound on this
//!   path lives in the chaos matrix (`tests/replication.rs`).

use std::hint::black_box;
use std::time::{Duration, Instant};
use vnfguard_bench::{median, paired_overhead};
use vnfguard_core::deployment::{Testbed, TestbedBuilder};

/// Replicated enrollment must finish within 10% of unreplicated.
const MAX_OVERHEAD: f64 = 0.10;
/// Replicated/unreplicated batch pairs; the median per-pair ratio is compared.
const BATCHES: usize = 9;
/// Enrollments per batch.
const BATCH_SIZE: u64 = 6;
/// Noisy-machine retries before the bar is declared failed.
const ATTEMPTS: usize = 3;
/// Standbys behind the replicated side.
const STANDBYS: usize = 2;
/// Enrollments journaled before each timed promotion.
const FAILOVER_LOAD: u64 = 25;
/// Timed promotions (fresh deployment each).
const FAILOVER_RUNS: usize = 5;

struct World {
    testbed: Testbed,
    next_vnf: u64,
}

fn world(seed: &[u8], replicated: bool) -> World {
    let mut builder = TestbedBuilder::new(seed);
    builder = if replicated {
        builder.replicas(STANDBYS)
    } else {
        builder.durable()
    };
    let mut testbed = builder.build();
    testbed.attest_host(0).unwrap();
    World {
        testbed,
        next_vnf: 0,
    }
}

/// Time one batch of enrollments (guard deployment excluded — only the
/// journaled two-phase enrollment differs between the two sides).
fn batch(world: &mut World) -> Duration {
    let guards: Vec<_> = (0..BATCH_SIZE)
        .map(|_| {
            world.next_vnf += 1;
            world
                .testbed
                .deploy_guard(0, &format!("vnf-{}", world.next_vnf), 1)
                .unwrap()
        })
        .collect();
    let start = Instant::now();
    for guard in &guards {
        black_box(world.testbed.enroll(0, guard).unwrap());
    }
    start.elapsed()
}

/// One full measurement: fresh worlds, paired batches, median per-pair
/// ratio. Returns `(replicated_us, unreplicated_us, overhead)`.
fn measure(attempt: usize) -> (f64, f64, f64) {
    let seed_on = format!("e14 replicated {attempt}");
    let seed_off = format!("e14 unreplicated {attempt}");
    let mut on = world(seed_on.as_bytes(), true);
    let mut off = world(seed_off.as_bytes(), false);
    // Warm both paths before timing.
    for _ in 0..2 {
        batch(&mut on);
        batch(&mut off);
    }
    let per_iter = |d: Duration| d.as_micros() as f64 / BATCH_SIZE as f64;
    paired_overhead(
        BATCHES,
        || per_iter(batch(&mut on)),
        || per_iter(batch(&mut off)),
    )
}

/// Median promotion time over fresh deployments with a populated WAL.
fn measure_failover() -> f64 {
    let mut times_ms = Vec::with_capacity(FAILOVER_RUNS);
    for run in 0..FAILOVER_RUNS {
        let seed = format!("e14 failover {run}");
        let mut w = world(seed.as_bytes(), true);
        for _ in 0..FAILOVER_LOAD / BATCH_SIZE + 1 {
            batch(&mut w);
        }
        w.testbed.kill_primary("bench node loss");
        let start = Instant::now();
        let report = w.testbed.promote().unwrap();
        times_ms.push(start.elapsed().as_micros() as f64 / 1_000.0);
        black_box(report);
    }
    median(times_ms)
}

fn main() {
    println!(
        "e14_failover: enrollment with {STANDBYS} WAL-streaming standbys vs unreplicated durable"
    );
    let failover_ms = measure_failover();
    println!(
        "e14_failover/promotion             {failover_ms:>10.2} ms (median of {FAILOVER_RUNS} runs, {FAILOVER_LOAD}+ records)"
    );
    let mut last = (0.0, 0.0, 0.0);
    for attempt in 0..ATTEMPTS {
        let (replicated, unreplicated, overhead) = measure(attempt);
        println!(
            "e14_failover/enroll_replicated     {replicated:>10.1} µs/iter (median of {BATCHES} batches)"
        );
        println!(
            "e14_failover/enroll_unreplicated   {unreplicated:>10.1} µs/iter (median of {BATCHES} batches)"
        );
        println!(
            "e14_failover/overhead              {:>10.2} % (median pair ratio, bar {:.0} %)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        if overhead <= MAX_OVERHEAD {
            println!("e14_failover: PASS");
            return;
        }
        last = (replicated, unreplicated, overhead);
        println!(
            "e14_failover: attempt {} over the bar, retrying",
            attempt + 1
        );
    }
    eprintln!(
        "e14_failover: FAIL — replicated {:.1} µs vs unreplicated {:.1} µs ({:+.2} % > {:.0} %)",
        last.0,
        last.1,
        last.2 * 100.0,
        MAX_OVERHEAD * 100.0
    );
    std::process::exit(1);
}
