//! E9 — resilience overhead: what the retry/breaker machinery and the
//! fault-injecting fabric cost on the happy path, and what enrollment
//! latency looks like when the path to IAS is flaky.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vnfguard_bench::RemoteWorld;
use vnfguard_controller::SimClock;
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard_net::{FaultPlan, Network};

/// The distributed deployment behind a fault plan, with host 0 attested
/// through a resilient IAS client.
fn remote_world(seed: &[u8], plan: &FaultPlan) -> RemoteWorld {
    let builder = TestbedBuilder::new(seed).faults(plan.clone());
    let mut world = RemoteWorld::new(builder, |testbed, ias| {
        ias.with_resilience(
            testbed.clock.clone(),
            RetryPolicy::new(8, 1, 16),
            CircuitBreaker::new(64, 600),
        )
    });
    world.attest_host();
    world
}

fn bench_e9(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_resilience");

    // The pure machinery: a retried operation that succeeds immediately.
    group.bench_function("retry_run_success_path", |b| {
        let policy = RetryPolicy::default();
        let clock = SimClock::at(0);
        b.iter(|| black_box(policy.run(&clock, |_| Ok::<_, String>(1)).result.unwrap()));
    });

    // A breaker sample (allow check + success record).
    group.bench_function("breaker_sample", |b| {
        let mut breaker = CircuitBreaker::new(5, 60);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            assert!(breaker.allows(now));
            breaker.record_success(now);
        });
    });

    // Connection admission with no fault plan vs. an installed (but
    // permissive) plan: the per-connect cost of the fault fabric.
    group.bench_function("connect_no_fault_plan", |b| {
        let network = Network::new();
        let listener = network.listen("svc:1").unwrap();
        b.iter(|| {
            black_box(network.connect("svc:1").unwrap());
            listener.try_accept();
        });
    });
    group.bench_function("connect_with_fault_plan", |b| {
        let network = Network::new();
        let plan = FaultPlan::seeded(1);
        plan.add_latency(
            "svc:1",
            std::time::Duration::ZERO,
            std::time::Duration::ZERO,
        );
        network.install_faults(&plan);
        let listener = network.listen("svc:1").unwrap();
        b.iter(|| {
            black_box(network.connect("svc:1").unwrap());
            listener.try_accept();
        });
    });

    // Full remote enrollment over a clean fabric vs. one refusing 30% of
    // IAS connections (retries absorb the refusals).
    group.sample_size(10);
    group.bench_function("remote_enrollment_clean", |b| {
        remote_world(b"e9 clean", &FaultPlan::seeded(9)).bench_enrollments(b);
    });
    group.bench_function("remote_enrollment_30pct_ias_refusal", |b| {
        let plan = FaultPlan::seeded(9);
        let mut world = remote_world(b"e9 flaky", &plan);
        plan.refuse_connections("ias:443", 0.30);
        world.bench_enrollments(b);
    });

    group.finish();
}

criterion_group!(benches, bench_e9);
criterion_main!(benches);
