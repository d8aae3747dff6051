//! E9 — resilience overhead: what the retry/breaker machinery and the
//! fault-injecting fabric cost on the happy path, and what enrollment
//! latency looks like when the path to IAS is flaky.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use vnfguard_bench::deploy_agent_guard;
use vnfguard_controller::SimClock;
use vnfguard_core::deployment::{Testbed, TestbedBuilder};
use vnfguard_core::remote::{remote_attest_host, remote_enroll_vnf, HostAgent, RemoteIas};
use vnfguard_core::resilience::{CircuitBreaker, RetryPolicy};
use vnfguard_net::{FaultPlan, Network};

struct RemoteWorld {
    testbed: Testbed,
    agent: HostAgent,
    remote_ias: RemoteIas,
    plan: FaultPlan,
    _ias_handle: vnfguard_net::ServerHandle,
}

fn remote_world(seed: &[u8]) -> RemoteWorld {
    let mut testbed = TestbedBuilder::new(seed).build();
    let plan = FaultPlan::seeded(9);
    testbed.network.install_faults(&plan);
    let (_ias_handle, remote_ias) = testbed.serve_ias("ias:443").unwrap();
    let remote_ias = remote_ias.with_resilience(
        testbed.clock.clone(),
        RetryPolicy::new(8, 1, 16),
        CircuitBreaker::new(64, 600),
    );
    let state = testbed.take_agent_state(HashMap::new(), Some(testbed.vm.share_hmac_key()));
    let agent = HostAgent::serve(&testbed.network, state).unwrap();
    RemoteWorld {
        testbed,
        agent,
        remote_ias,
        plan,
        _ias_handle,
    }
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
        plan.add_latency("svc:1", std::time::Duration::ZERO, std::time::Duration::ZERO);
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
        let mut world = remote_world(b"e9 clean");
        remote_attest_host(
            &world.testbed.vm,
            &mut world.remote_ias,
            &world.testbed.network,
            "host-0",
        )
        .unwrap();
        let mut n = 0;
        b.iter(|| {
            n += 1;
            let name = format!("vnf-{n}");
            deploy_agent_guard(&world.testbed, &world.agent, &name);
            remote_enroll_vnf(
                &world.testbed.vm,
                &mut world.remote_ias,
                &world.testbed.network,
                "host-0",
                &name,
                "controller",
            )
            .unwrap();
        });
    });
    group.bench_function("remote_enrollment_30pct_ias_refusal", |b| {
        let mut world = remote_world(b"e9 flaky");
        remote_attest_host(
            &world.testbed.vm,
            &mut world.remote_ias,
            &world.testbed.network,
            "host-0",
        )
        .unwrap();
        world.plan.refuse_connections("ias:443", 0.30);
        let mut n = 0;
        b.iter(|| {
            n += 1;
            let name = format!("vnf-{n}");
            deploy_agent_guard(&world.testbed, &world.agent, &name);
            remote_enroll_vnf(
                &world.testbed.vm,
                &mut world.remote_ias,
                &world.testbed.network,
                "host-0",
                &name,
                "controller",
            )
            .unwrap();
        });
    });

    group.finish();
}

criterion_group!(benches, bench_e9);
criterion_main!(benches);
