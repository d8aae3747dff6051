//! E4 — north-bound request cost across Floodlight's three security modes,
//! and the enclave-residency overhead the paper defers to future work.
//!
//! Series: plain HTTP, HTTPS (server auth), trusted HTTPS (mutual auth)
//! with a native client, and trusted HTTPS with the credential enclave —
//! with free and SGX1-calibrated transition costs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use vnfguard_bench::{attested_testbed, testbed_with_mode};
use vnfguard_controller::{NorthboundClient, SecurityMode};
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_net::http::Request;
use vnfguard_pki::TrustStore;

fn request() -> Request {
    Request::get("/wm/core/health/json")
}

fn bench_e4(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_request_latency");
    group.sample_size(50);

    // Plain HTTP.
    group.bench_function("http", |b| {
        let testbed = testbed_with_mode(b"e4 http", SecurityMode::Http);
        let mut client =
            NorthboundClient::connect_plain(&testbed.network, &testbed.controller_addr).unwrap();
        b.iter(|| black_box(client.request(&request()).unwrap()));
    });

    // HTTPS (server auth only), persistent session.
    group.bench_function("https", |b| {
        let testbed = testbed_with_mode(b"e4 https", SecurityMode::Https);
        let mut trust = TrustStore::new();
        trust
            .add_anchor(testbed.vm.ca_certificate().clone())
            .unwrap();
        let mut client = NorthboundClient::connect_tls(
            &testbed.network,
            &testbed.controller_addr,
            Arc::new(trust),
            None,
            Some("controller"),
            testbed.clock.now(),
        )
        .unwrap();
        b.iter(|| black_box(client.request(&request()).unwrap()));
    });

    // Trusted HTTPS with a native (non-enclave) client: same mutual-auth
    // handshake, key material held in ordinary process memory.
    group.bench_function("trusted_https_native", |b| {
        let testbed = attested_testbed(b"e4 mtls native");
        let client_key = vnfguard_crypto::ed25519::SigningKey::from_seed(&[10; 32]);
        let client_cert = testbed
            .vm
            .issue_client_certificate("native-client", client_key.public_key());
        let signer = Arc::new(vnfguard_tls::LocalSigner::new(client_key, client_cert));
        let mut trust = TrustStore::new();
        trust
            .add_anchor(testbed.vm.ca_certificate().clone())
            .unwrap();
        let mut client = NorthboundClient::connect_tls(
            &testbed.network,
            &testbed.controller_addr,
            Arc::new(trust),
            Some(signer),
            Some("controller"),
            testbed.clock.now(),
        )
        .unwrap();
        b.iter(|| black_box(client.request(&request()).unwrap()));
    });

    // Trusted HTTPS through the credential enclave (free transitions).
    group.bench_function("trusted_https_enclave_free", |b| {
        let mut testbed = attested_testbed(b"e4 enclave free");
        let mut guard = vnfguard_bench::enrolled_guard(&mut testbed, "vnf-enclave");
        let session = testbed.open_session(&mut guard).unwrap();
        b.iter(|| black_box(guard.request(session, &request()).unwrap()));
    });

    // Trusted HTTPS through the enclave with SGX1-like transition costs.
    group.bench_function("trusted_https_enclave_sgx1", |b| {
        let mut testbed = TestbedBuilder::new(b"e4 enclave sgx1")
            .transition_cost(8_000, 4_000)
            .build();
        testbed.attest_host(0).unwrap();
        let mut guard = vnfguard_bench::enrolled_guard(&mut testbed, "vnf-enclave");
        let session = testbed.open_session(&mut guard).unwrap();
        b.iter(|| black_box(guard.request(session, &request()).unwrap()));
    });

    group.finish();

    // Handshake (connection establishment) comparison.
    let mut group = c.benchmark_group("e4_handshake");
    group.sample_size(30);

    group.bench_function("https_handshake", |b| {
        let testbed = testbed_with_mode(b"e4 hs https", SecurityMode::Https);
        let mut trust = TrustStore::new();
        trust
            .add_anchor(testbed.vm.ca_certificate().clone())
            .unwrap();
        let trust = Arc::new(trust);
        b.iter(|| {
            black_box(
                NorthboundClient::connect_tls(
                    &testbed.network,
                    &testbed.controller_addr,
                    trust.clone(),
                    None,
                    Some("controller"),
                    testbed.clock.now(),
                )
                .unwrap(),
            );
        });
    });

    group.bench_function("trusted_https_enclave_handshake", |b| {
        let mut testbed = attested_testbed(b"e4 hs enclave");
        let mut guard = vnfguard_bench::enrolled_guard(&mut testbed, "vnf");
        b.iter(|| {
            let session = testbed.open_session(&mut guard).unwrap();
            guard.close_session(session).unwrap();
        });
    });

    group.finish();
}

criterion_group!(benches, bench_e4);
criterion_main!(benches);
