//! E12 — distributed-tracing overhead: the full remote enrollment path
//! with every span recorded into the trace collector (sample rate 1.0,
//! operator-rooted trace per enrollment) versus the same path with
//! `Telemetry::disabled()`.
//!
//! This is a custom harness, not a criterion bench: it *enforces* the
//! acceptance bar. Enabled and disabled batches run as adjacent pairs
//! ([`vnfguard_bench::paired_overhead`]: order alternating pair to pair)
//! so scheduler and thermal drift hit both sides of a pair equally; the
//! reported overhead is the median of the per-pair ratios, which cancels
//! drift a global mean would absorb.
//! Tracing-enabled enrollment must stay within [`MAX_OVERHEAD`] of
//! disabled or the process exits non-zero, failing CI.

use std::hint::black_box;
use std::time::Instant;
use vnfguard_bench::{paired_overhead, RemoteWorld};
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_telemetry::Telemetry;

/// Tracing-enabled enrollment must finish within 5% of disabled.
const MAX_OVERHEAD: f64 = 0.05;
/// Enabled/disabled batch pairs; the median per-pair ratio is compared.
const BATCHES: usize = 9;
/// Enrollments per batch.
const BATCH_SIZE: u64 = 6;
/// Noisy-machine retries before the bar is declared failed.
const ATTEMPTS: usize = 3;

/// The distributed deployment with `telemetry` threaded through, tracing
/// every request when `traced`, host 0 attested.
fn remote_world(seed: &[u8], telemetry: Telemetry, traced: bool) -> RemoteWorld {
    let mut builder = TestbedBuilder::new(seed).telemetry(telemetry.clone());
    if traced {
        builder = builder.tracing(1.0);
    }
    let mut world = RemoteWorld::new(builder, |_, ias| ias.with_telemetry(&telemetry));
    world.attest_host();
    world
}

/// Time one batch of enrollments, in µs per enrollment. Traced batches
/// open an operator root span per enrollment, exactly like the `/vm/...`
/// REST handlers do; the enrollment runs under it.
fn batch(world: &mut RemoteWorld, traced: bool) -> f64 {
    let names: Vec<String> = (0..BATCH_SIZE).map(|_| world.deploy_guard()).collect();
    let start = Instant::now();
    for name in &names {
        let now = world.testbed.clock.now();
        let telemetry = &world.testbed.telemetry;
        let _root = traced.then(|| telemetry.trace_root("operator", "enrollment", now));
        black_box(world.enroll(name));
    }
    start.elapsed().as_micros() as f64 / BATCH_SIZE as f64
}

/// One full measurement: fresh worlds, paired batches, median per-pair
/// ratio. Returns `(enabled_us, disabled_us, overhead)` per enrollment.
fn measure(attempt: usize) -> (f64, f64, f64) {
    let seed_on = format!("e12 traced {attempt}");
    let seed_off = format!("e12 disabled {attempt}");
    let mut on = remote_world(seed_on.as_bytes(), Telemetry::new(), true);
    let mut off = remote_world(seed_off.as_bytes(), Telemetry::disabled(), false);
    // Warm both paths before timing.
    for _ in 0..2 {
        batch(&mut on, true);
        batch(&mut off, false);
    }
    paired_overhead(BATCHES, || batch(&mut on, true), || batch(&mut off, false))
}

fn main() {
    println!("e12_tracing: enrollment with full trace recording vs Telemetry::disabled()");
    let mut last = (0.0, 0.0, 0.0);
    for attempt in 0..ATTEMPTS {
        let (enabled, disabled, overhead) = measure(attempt);
        println!(
            "e12_tracing/enrollment_traced      {enabled:>10.1} µs/iter (median of {BATCHES} batches)"
        );
        println!(
            "e12_tracing/enrollment_disabled    {disabled:>10.1} µs/iter (median of {BATCHES} batches)"
        );
        println!(
            "e12_tracing/overhead               {:>10.2} % (median pair ratio, bar {:.0} %)",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        );
        if overhead <= MAX_OVERHEAD {
            println!("e12_tracing: PASS");
            return;
        }
        last = (enabled, disabled, overhead);
        println!(
            "e12_tracing: attempt {} over the bar, retrying",
            attempt + 1
        );
    }
    eprintln!(
        "e12_tracing: FAIL — traced {:.1} µs vs disabled {:.1} µs ({:+.2} % > {:.0} %)",
        last.0,
        last.1,
        last.2 * 100.0,
        MAX_OVERHEAD * 100.0
    );
    std::process::exit(1);
}
