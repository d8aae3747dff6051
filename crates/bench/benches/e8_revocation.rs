//! E8 — revocation: CRL production and distribution cost as revocations
//! accumulate, per-validation CRL lookup cost, and time to evict a host's
//! worth of credentials.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vnfguard_crypto::drbg::HmacDrbg;
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
use vnfguard_pki::cert::{DistinguishedName, KeyUsage, Validity};
use vnfguard_pki::crl::RevocationReason;
use vnfguard_pki::TrustStore;

fn ca_with_revocations(revoked: usize) -> CertificateAuthority {
    let mut rng = HmacDrbg::new(b"e8");
    let mut ca = CertificateAuthority::new(
        DistinguishedName::new("vm-ca"),
        Validity::new(0, u64::MAX / 2),
        &mut rng,
    );
    let key = SigningKey::from_seed(&[1; 32]);
    for i in 0..revoked.max(1) {
        let cert = ca.issue(
            DistinguishedName::new(&format!("vnf-{i}")),
            key.public_key(),
            &IssueProfile::vnf_client([0; 32]),
            0,
        );
        if i < revoked {
            ca.revoke(cert.serial(), RevocationReason::KeyCompromise, 1);
        }
    }
    ca
}

fn bench_e8(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_revocation");

    for revoked in [0usize, 10, 100, 1000] {
        let ca = ca_with_revocations(revoked);

        // Producing a signed CRL (the VM's periodic cost).
        group.bench_with_input(BenchmarkId::new("build_crl", revoked), &revoked, |b, _| {
            b.iter(|| black_box(ca.current_crl(10, 300)));
        });

        // Installing the CRL at a relying party (signature + replace).
        group.bench_with_input(
            BenchmarkId::new("install_crl", revoked),
            &revoked,
            |b, _| {
                let crl = ca.current_crl(10, 300);
                let mut store = TrustStore::new();
                store.add_anchor(ca.certificate().clone()).unwrap();
                b.iter(|| {
                    black_box(store.install_crl(crl.clone()).is_ok());
                });
            },
        );

        // Validation of a *good* certificate while the CRL holds `revoked`
        // entries (the steady-state lookup cost).
        group.bench_with_input(
            BenchmarkId::new("validate_with_crl", revoked),
            &revoked,
            |b, _| {
                let mut ca = ca_with_revocations(revoked);
                let key = SigningKey::from_seed(&[2; 32]);
                let good = ca.issue(
                    DistinguishedName::new("vnf-good"),
                    key.public_key(),
                    &IssueProfile::vnf_client([0; 32]),
                    0,
                );
                let mut store = TrustStore::new();
                store.add_anchor(ca.certificate().clone()).unwrap();
                store.install_crl(ca.current_crl(10, 300)).unwrap();
                b.iter(|| black_box(store.validate(&good, 100, KeyUsage::CLIENT_AUTH).is_ok()));
            },
        );
    }

    // Time to evict N credentials (revoke + fresh CRL), the incident
    // response metric.
    for fleet in [10usize, 100, 1000] {
        group.bench_with_input(
            BenchmarkId::new("evict_fleet", fleet),
            &fleet,
            |b, &fleet| {
                b.iter_with_setup(
                    || ca_with_revocations(0),
                    |mut ca| {
                        for serial in 2..2 + fleet as u64 {
                            ca.revoke(serial, RevocationReason::PlatformCompromise, 5);
                        }
                        black_box(ca.current_crl(5, 300));
                    },
                );
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_e8);
criterion_main!(benches);
