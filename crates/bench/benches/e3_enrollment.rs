//! E3 — enrollment throughput scaling: per-VNF enrollment cost as the
//! deployment grows, and the component costs (key generation, certificate
//! issuance, wrapping).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vnfguard_bench::attested_testbed;
use vnfguard_crypto::drbg::{HmacDrbg, SecureRandom};
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
use vnfguard_pki::cert::{DistinguishedName, Validity};

fn bench_e3(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_enrollment");
    group.sample_size(20);

    // Per-enrollment latency with 0 / 100 / 500 prior enrollments: the
    // paper's CA design keeps this flat (no keystore to grow).
    for pre_enrolled in [0usize, 100, 500] {
        group.bench_with_input(
            BenchmarkId::new("enroll_with_prior", pre_enrolled),
            &pre_enrolled,
            |b, &pre| {
                let mut testbed = attested_testbed(b"e3 scale");
                for i in 0..pre {
                    let guard = testbed.deploy_guard(0, &format!("pre-{i}"), 1).unwrap();
                    testbed.enroll(0, &guard).unwrap();
                }
                let mut counter = 0u32;
                b.iter(|| {
                    counter += 1;
                    let guard = testbed
                        .deploy_guard(0, &format!("vnf-{counter}"), 1)
                        .unwrap();
                    black_box(testbed.enroll(0, &guard).unwrap());
                });
            },
        );
    }

    // Component: VM-side key generation + certificate issuance.
    group.bench_function("keygen_and_issue", |b| {
        let mut rng = HmacDrbg::new(b"e3 ca");
        let mut ca = CertificateAuthority::new(
            DistinguishedName::new("vm"),
            Validity::new(0, u64::MAX / 2),
            &mut rng,
        );
        b.iter(|| {
            let seed = rng.gen_array::<32>();
            let key = SigningKey::from_seed(&seed);
            black_box(ca.issue(
                DistinguishedName::new("vnf"),
                key.public_key(),
                &IssueProfile::vnf_client([0; 32]),
                0,
            ));
        });
    });

    // Component: wrapping the bundle to the enclave provisioning key.
    group.bench_function("wrap_bundle", |b| {
        let mut rng = HmacDrbg::new(b"e3 wrap");
        let mut ca = CertificateAuthority::new(
            DistinguishedName::new("vm"),
            Validity::new(0, u64::MAX / 2),
            &mut rng,
        );
        let key = SigningKey::from_seed(&[1; 32]);
        let cert = ca.issue(
            DistinguishedName::new("vnf"),
            key.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        let bundle = vnfguard_vnf::credential_enclave::ProvisionBundle {
            key_seed: [1; 32],
            certificate: cert,
            ca_certificate: ca.certificate().clone(),
            server_cn: "controller".into(),
            ca_previous: Vec::new(),
        };
        let enclave_key = vnfguard_crypto::x25519::EphemeralKeyPair::from_seed([9; 32]);
        b.iter(|| {
            black_box(vnfguard_vnf::wrap_credentials(
                &vnfguard_vnf::WrapRandomness::draw(&mut rng),
                &enclave_key.public,
                &bundle,
            ));
        });
    });

    group.finish();
}

criterion_group!(benches, bench_e3);
criterion_main!(benches);
