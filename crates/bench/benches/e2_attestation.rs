//! E2 — VNF integrity attestation cost: quote generation (enclave + QE
//! side) vs quote verification (IAS side) vs the VM's full check.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vnfguard_bench::attested_testbed;
use vnfguard_ias::QuoteVerifier;

fn bench_e2(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_attestation");
    group.sample_size(30);

    // Quote generation: report inside the enclave + QE signature.
    group.bench_function("quote_generation", |b| {
        let mut testbed = attested_testbed(b"e2 gen");
        let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
        let platform = testbed.hosts[0].platform.clone();
        b.iter(|| {
            black_box(guard.quote(&platform, &[7; 32], [1; 32]).unwrap());
        });
    });

    // IAS verification: decode, member lookup, EPID signature check,
    // SigRL scan, signed report production.
    group.bench_function("ias_verification", |b| {
        let mut testbed = attested_testbed(b"e2 ias");
        let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
        let quote = guard
            .quote(&testbed.hosts[0].platform, &[7; 32], [1; 32])
            .unwrap()
            .encode();
        b.iter(|| black_box(testbed.ias.verify_quote(&quote, b"nonce")));
    });

    // The verifier's report-signature check alone (what the VM pays to
    // trust an IAS response): under the report key the relying party
    // holds prepared, as the VM does.
    group.bench_function("avr_signature_check", |b| {
        let mut testbed = attested_testbed(b"e2 avr");
        let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
        let quote = guard
            .quote(&testbed.hosts[0].platform, &[7; 32], [1; 32])
            .unwrap()
            .encode();
        let report = testbed.ias.verify_quote(&quote, b"nonce");
        let key = testbed.ias.report_key().expect("the IAS's own key");
        b.iter(|| black_box(report.verify(key).is_ok()));
    });

    // Full VNF attestation + enrollment decision at the VM (steps 3-5
    // verifier side only, no provisioning transfer).
    group.bench_function("vm_full_vnf_check", |b| {
        let mut testbed = attested_testbed(b"e2 vm");
        let mut counter = 0u32;
        b.iter(|| {
            counter += 1;
            let guard = testbed
                .deploy_guard(0, &format!("vnf-{counter}"), 1)
                .unwrap();
            black_box(testbed.enroll(0, &guard).unwrap());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_e2);
criterion_main!(benches);
