//! E5 — client validation models: per-client keystore membership vs CA
//! signature validation, as the number of enrolled clients grows.
//!
//! Expected shape: CA validation is flat (one signature verification plus
//! a CRL lookup); the keystore scan grows linearly with enrolled clients,
//! and every enrollment additionally costs a keystore update.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vnfguard_crypto::drbg::HmacDrbg;
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
use vnfguard_pki::cert::{Certificate, DistinguishedName, KeyUsage, Validity};
use vnfguard_pki::{KeyStore, TrustStore};

fn ca_and_certs(count: usize) -> (CertificateAuthority, Vec<Certificate>) {
    let mut rng = HmacDrbg::new(b"e5");
    let mut ca = CertificateAuthority::new(
        DistinguishedName::new("vm-ca"),
        Validity::new(0, u64::MAX / 2),
        &mut rng,
    );
    let key = SigningKey::from_seed(&[1; 32]);
    let certs = (0..count)
        .map(|i| {
            ca.issue(
                DistinguishedName::new(&format!("vnf-{i}")),
                key.public_key(),
                &IssueProfile::vnf_client([i as u8; 32]),
                0,
            )
        })
        .collect();
    (ca, certs)
}

fn bench_e5(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_validation");

    for clients in [10usize, 100, 1000, 5000] {
        let (ca, certs) = ca_and_certs(clients);

        // Keystore model: exact-membership scan over `clients` entries.
        // Validate the *last* enrolled client (worst case for the scan).
        group.bench_with_input(
            BenchmarkId::new("keystore_lookup", clients),
            &clients,
            |b, _| {
                let mut keystore = KeyStore::new();
                for (i, cert) in certs.iter().enumerate() {
                    keystore.set(&format!("vnf-{i}"), cert.clone());
                }
                let target = certs.last().unwrap();
                b.iter(|| black_box(keystore.contains_certificate(target)));
            },
        );

        // CA model: signature + validity + CRL, independent of `clients`.
        group.bench_with_input(
            BenchmarkId::new("ca_validation", clients),
            &clients,
            |b, _| {
                let mut store = TrustStore::new();
                store.add_anchor(ca.certificate().clone()).unwrap();
                store.install_crl(ca.current_crl(0, 1000)).unwrap();
                let target = certs.last().unwrap();
                b.iter(|| black_box(store.validate(target, 100, KeyUsage::CLIENT_AUTH).is_ok()));
            },
        );
    }

    // The maintenance cost the paper highlights: keystore update per
    // enrollment vs nothing at all in the CA model.
    group.bench_function("keystore_update_on_enroll", |b| {
        let (_ca, certs) = ca_and_certs(1000);
        let mut keystore = KeyStore::new();
        for (i, cert) in certs.iter().enumerate() {
            keystore.set(&format!("vnf-{i}"), cert.clone());
        }
        let mut counter = 0usize;
        b.iter(|| {
            counter += 1;
            keystore.set(&format!("new-{counter}"), certs[0].clone());
            keystore.remove(&format!("new-{counter}"));
        });
    });

    group.finish();
}

criterion_group!(benches, bench_e5);
criterion_main!(benches);
