//! E6 — IMA costs: measurement, aggregate maintenance, list encoding and
//! appraisal as the measurement list grows; plus the TPM-anchored variant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vnfguard_ima::appraisal::{AppraisalPolicy, ReferenceDatabase};
use vnfguard_ima::list::{MeasurementList, IMA_PCR};
use vnfguard_ima::tpm::SimTpm;

fn list_with(entries: usize) -> (MeasurementList, ReferenceDatabase) {
    let mut list = MeasurementList::new(b"bench host");
    let mut db = ReferenceDatabase::new();
    for i in 0..entries {
        let path = format!("/usr/bin/component-{i}");
        let content = format!("component {i} contents");
        list.measure_file(&path, content.as_bytes());
        db.allow_content(&path, content.as_bytes());
    }
    (list, db)
}

fn bench_e6(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_ima");

    // Single measurement cost (hash + template + extend).
    group.bench_function("measure_one_file_1kb", |b| {
        let content = vec![0xabu8; 1024];
        let mut list = MeasurementList::new(b"host");
        b.iter(|| list.measure_file("/usr/bin/tool", black_box(&content)));
    });

    for entries in [10usize, 100, 1000, 5000] {
        let (list, db) = list_with(entries);
        group.throughput(Throughput::Elements(entries as u64));

        // Appraisal time against the reference database.
        group.bench_with_input(BenchmarkId::new("appraise", entries), &entries, |b, _| {
            let policy = AppraisalPolicy::default();
            b.iter(|| black_box(db.appraise(&list, &policy).verdict));
        });

        // Encoding (what crosses the network) and its size implication.
        group.bench_with_input(BenchmarkId::new("encode", entries), &entries, |b, _| {
            b.iter(|| black_box(list.encode().len()));
        });

        // Consistency verification (verifier-side chain recomputation).
        group.bench_with_input(
            BenchmarkId::new("verify_chain", entries),
            &entries,
            |b, _| {
                b.iter(|| black_box(list.verify_consistency()));
            },
        );
    }

    // TPM extend (the §4 anchor's per-measurement overhead).
    group.bench_function("tpm_extend", |b| {
        let mut tpm = SimTpm::new(&[1; 32]);
        b.iter(|| tpm.extend(IMA_PCR, black_box(&[7; 32])));
    });

    // TPM quote generation + verification round.
    group.bench_function("tpm_quote_roundtrip", |b| {
        let mut tpm = SimTpm::new(&[1; 32]);
        tpm.extend(IMA_PCR, &[7; 32]);
        let aik = tpm.aik_public();
        b.iter(|| {
            let quote = tpm.quote(IMA_PCR, [3; 32]);
            black_box(quote.verify(&aik, &[3; 32]).is_ok())
        });
    });

    group.finish();

    // Report the list sizes alongside (printed once; shape data for
    // EXPERIMENTS.md).
    println!("\ne6 list sizes:");
    for entries in [10usize, 100, 1000, 5000] {
        let (list, _) = list_with(entries);
        println!(
            "  {} entries → {} bytes encoded",
            entries,
            list.encode().len()
        );
    }
}

criterion_group!(benches, bench_e6);
criterion_main!(benches);
