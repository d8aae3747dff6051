//! E11 — recovery latency vs log length: cold-start Verification Manager
//! recovery from a sealed WAL holding 10 / 100 / 1000 committed
//! enrollments, comparing full-log replay against snapshot-seeded replay,
//! plus the raw store-layer replay cost underneath both.
//!
//! Each sample forks the pre-built medium ([`Media::fork`]) so repeated
//! cold starts never observe each other's `RecoveryCompleted` appends.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use vnfguard_controller::SimClock;
use vnfguard_core::manager::ManagerConfig;
use vnfguard_core::service::VmService;
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_store::{Media, StateStore, StateVault, WalRecord};
use vnfguard_telemetry::Telemetry;

const LOG_LENGTHS: [u64; 3] = [10, 100, 1000];

struct Fixture {
    platform: SgxPlatform,
    author: EnclaveAuthor,
    media: Media,
}

/// Build a sealed WAL of `n` committed enrollments (three records each:
/// issue, prepare, commit), optionally folded into a snapshot.
fn logged_media(n: u64, compact: bool) -> Fixture {
    let platform = SgxPlatform::new(b"e11 vm platform");
    let author = EnclaveAuthor::from_seed(&[7; 32]);
    let vault = StateVault::load(&platform, &author).unwrap();
    let media = Media::new();
    let store = StateStore::new(media.clone(), vault);
    for i in 0..n {
        let serial = 2 + i;
        let name = format!("vnf-{i}");
        store
            .append(&WalRecord::CertIssued {
                serial,
                subject: name.clone(),
                at: 100 + i,
            })
            .unwrap();
        store
            .append(&WalRecord::EnrollmentPrepared {
                serial,
                vnf_name: name,
                host_id: format!("host-{}", i % 8),
                mrenclave: [i as u8; 32],
                provisioning_key_hash: [i as u8; 32],
                backend: 0,
                at: 100 + i,
            })
            .unwrap();
        store
            .append(&WalRecord::EnrollmentCommitted {
                serial,
                at: 101 + i,
            })
            .unwrap();
    }
    if compact {
        store.compact().unwrap();
    }
    Fixture {
        platform,
        author,
        media,
    }
}

/// A fresh store over a fork of the fixture's medium, as a restarted VM
/// process would open it.
fn reopen(fixture: &Fixture) -> StateStore {
    let vault = StateVault::load(&fixture.platform, &fixture.author).unwrap();
    StateStore::new(fixture.media.fork(), vault)
}

fn bench_e11(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_recovery");
    let config = ManagerConfig::builder().build().unwrap();

    for n in LOG_LENGTHS {
        if n >= 1000 {
            group.sample_size(10);
        }
        for (mode, compact) in [("full_replay", false), ("snapshot", true)] {
            let fixture = logged_media(n, compact);

            // The store layer alone: unseal + decode + fold every record.
            group.bench_with_input(
                BenchmarkId::new(format!("store_replay/{mode}"), n),
                &n,
                |b, _| {
                    let store = reopen(&fixture);
                    b.iter(|| black_box(store.replay().unwrap().state.enrollments.len()));
                },
            );

            // Full cold start: replay plus CA re-derivation, serial
            // restoration, orphan resolution, and the recovery journal.
            group.bench_with_input(
                BenchmarkId::new(format!("vm_recover/{mode}"), n),
                &n,
                |b, _| {
                    b.iter_batched(
                        || reopen(&fixture),
                        |store| {
                            let (vm, report) = VmService::recover(
                                config.clone(),
                                b"e11 recovery bench",
                                SimClock::at(1_600_000_000),
                                Telemetry::disabled(),
                                store,
                                None,
                            )
                            .unwrap();
                            assert_eq!(report.enrollments_restored as u64, n);
                            black_box(vm.issued_count())
                        },
                        BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_e11);
criterion_main!(benches);
