//! E7 — packet processing inside vs outside the enclave model
//! (the Trusted Click question from the paper's related work).
//!
//! Expected shape: with calibrated SGX1-like transition costs, per-packet
//! ecalls pay a large fixed overhead; batching amortizes it back toward
//! native throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::net::Ipv4Addr;
use vnfguard_dataplane::wire::{build_udp_frame, MacAddr};
use vnfguard_sgx::platform::{PlatformConfig, SgxPlatform};
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::transition::TransitionModel;
use vnfguard_vnf::nf::{
    decode_batch, decode_verdict, encode_batch, load_enclave_nf, Firewall, FirewallRule,
    NetworkFunction, OP_PROCESS, OP_PROCESS_BATCH,
};

fn frames(count: usize) -> Vec<Vec<u8>> {
    (0..count)
        .map(|i| {
            build_udp_frame(
                MacAddr([1; 6]),
                MacAddr([2; 6]),
                Ipv4Addr::new(10, 0, 0, (i % 250) as u8 + 1),
                Ipv4Addr::new(10, 0, 1, 1),
                40000 + (i % 1000) as u16,
                if i % 3 == 0 { 53 } else { 80 },
                b"payload bytes",
            )
        })
        .collect()
}

fn firewall() -> Firewall {
    Firewall::default_deny(vec![FirewallRule::allow().port(53)])
}

fn sgx1_platform(seed: &[u8]) -> SgxPlatform {
    SgxPlatform::with_config(
        seed,
        PlatformConfig::default(),
        TransitionModel::sgx1_like(),
    )
}

fn bench_e7(c: &mut Criterion) {
    let packets = frames(256);

    let mut group = c.benchmark_group("e7_packet_processing");
    group.throughput(Throughput::Elements(packets.len() as u64));

    // Native baseline.
    group.bench_function("native", |b| {
        let mut fw = firewall();
        b.iter(|| {
            for frame in &packets {
                black_box(fw.process(frame));
            }
        });
    });

    // Enclave, free transitions (pure dispatch overhead).
    group.bench_function("enclave_free_per_packet", |b| {
        let platform = SgxPlatform::new(b"e7 free");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let enclave = load_enclave_nf(&platform, &author, firewall()).unwrap();
        b.iter(|| {
            for frame in &packets {
                black_box(decode_verdict(&enclave.ecall(OP_PROCESS, frame).unwrap()).unwrap());
            }
        });
    });

    // Enclave with SGX1-like transition cost, one ecall per packet.
    group.bench_function("enclave_sgx1_per_packet", |b| {
        let platform = sgx1_platform(b"e7 sgx1");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let enclave = load_enclave_nf(&platform, &author, firewall()).unwrap();
        b.iter(|| {
            for frame in &packets {
                black_box(decode_verdict(&enclave.ecall(OP_PROCESS, frame).unwrap()).unwrap());
            }
        });
    });

    // Enclave with SGX1-like cost, batched (amortized transitions).
    for batch in [16usize, 64, 256] {
        group.bench_with_input(
            BenchmarkId::new("enclave_sgx1_batched", batch),
            &batch,
            |b, &batch| {
                let platform = sgx1_platform(b"e7 sgx1 batch");
                let author = EnclaveAuthor::from_seed(&[1; 32]);
                let enclave = load_enclave_nf(&platform, &author, firewall()).unwrap();
                b.iter(|| {
                    for chunk in packets.chunks(batch) {
                        let encoded = encode_batch(chunk.iter().map(|f| f.as_slice()));
                        let reply = enclave.ecall(OP_PROCESS_BATCH, &encoded).unwrap();
                        black_box(decode_batch(&reply).unwrap());
                    }
                });
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_e7);
criterion_main!(benches);
