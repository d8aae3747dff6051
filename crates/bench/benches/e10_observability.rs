//! E10 — observability overhead: what the telemetry bundle (counters,
//! span timings, the ring-buffered journal) costs on the hot enrollment
//! path, plus microbenchmarks of the primitives themselves and of the
//! Prometheus render an operator scrape pays for.
//!
//! The acceptance bar is that `enrollment_telemetry_enabled` stays within
//! a few percent of `enrollment_telemetry_disabled` — the bundle is
//! always-on in the testbed, so its cost must be negligible next to the
//! crypto and fabric round-trips it annotates.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vnfguard_bench::RemoteWorld;
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_telemetry::Telemetry;

/// The distributed deployment with an explicit telemetry bundle threaded
/// through fabric, IAS, manager and IAS client, host 0 attested.
fn remote_world(seed: &[u8], telemetry: Telemetry) -> RemoteWorld {
    let builder = TestbedBuilder::new(seed).telemetry(telemetry.clone());
    let mut world = RemoteWorld::new(builder, |_, ias| ias.with_telemetry(&telemetry));
    world.attest_host();
    world
}

fn bench_e10(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_observability");

    // Primitive costs: what one instrumentation touch adds to a hot path.
    group.bench_function("counter_inc", |b| {
        let telemetry = Telemetry::new();
        let counter = telemetry.namespace("bench").counter("ticks_total", &[]);
        b.iter(|| counter.inc());
    });
    group.bench_function("counter_inc_detached", |b| {
        let telemetry = Telemetry::disabled();
        let counter = telemetry.namespace("bench").counter("ticks_total", &[]);
        b.iter(|| counter.inc());
    });
    group.bench_function("histogram_record", |b| {
        let telemetry = Telemetry::new();
        let histogram = telemetry.namespace("bench").histogram("lat_micros", &[]);
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 17) % 10_000;
            histogram.record(black_box(v));
        });
    });
    group.bench_function("span_open_close", |b| {
        let telemetry = Telemetry::new();
        let histogram = telemetry.namespace("bench").histogram("span_micros", &[]);
        b.iter(|| {
            let _span = telemetry
                .span("bench", "bench_span", 0)
                .with_histogram(histogram.clone());
        });
    });
    group.bench_function("journal_record", |b| {
        let telemetry = Telemetry::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(telemetry.event(t, "bench_event", "detail"));
        });
    });

    // What an operator scrape costs once the registry is populated.
    group.bench_function("render_prometheus_populated", |b| {
        let telemetry = Telemetry::new();
        let bench = telemetry.namespace("bench");
        for i in 0..16 {
            bench.counter(&format!("c{i}_total"), &[]).add(i);
            let h = bench.histogram(&format!("h{i}_micros"), &[]);
            for v in [3, 40, 500, 6_000] {
                h.record(v * (i + 1));
            }
        }
        b.iter(|| black_box(telemetry.render_prometheus().len()));
    });

    // The headline comparison: the full remote enrollment path with the
    // bundle recording everything vs. fully disabled. These two must stay
    // within a few percent of each other.
    group.sample_size(10);
    group.bench_function("enrollment_telemetry_enabled", |b| {
        remote_world(b"e10 enabled", Telemetry::new()).bench_enrollments(b);
    });
    group.bench_function("enrollment_telemetry_disabled", |b| {
        remote_world(b"e10 disabled", Telemetry::disabled()).bench_enrollments(b);
    });

    group.finish();
}

criterion_group!(benches, bench_e10);
criterion_main!(benches);
