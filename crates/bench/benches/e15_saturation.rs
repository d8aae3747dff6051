//! E15 — shard saturation: concurrent renewal throughput vs client and
//! shard count, and a crash-under-load matrix.
//!
//! The testbed models cloud block storage by charging a fixed sleep per
//! WAL flush ([`WRITE_LATENCY`]). Each shard's store commits across
//! requests: a renewal journals under the shard lock, releases it, and
//! waits while a leader flushes every queued record in one group frame,
//! with up to two leaders' writes in flight at once. So one shard is no
//! longer pinned near `1 / flush_latency`: concurrent clients share and
//! overlap flushes. The client scan times [`SCAN_RENEWALS_PER_CLIENT`]
//! renewals per client on one shard at 1, 2, 4 and [`CLIENTS`] clients and
//! prints the median of [`SCAN_BUILDS`] builds' renewals/sec with the
//! flushes each acknowledged renewal cost (ROADMAP item 5's measure). The
//! shard scan then enrolls
//! [`CLIENTS`] credentials (one per client thread, pinned to
//! `thread % shards` by VNF-name routing) and measures aggregate
//! renewals/sec at 1, 2, 4 and 8 shards. CI gates on 4-shard throughput ≥
//! [`MIN_SCALING`]× 1-shard; with cross-request group commit one shard
//! already gets most of the way to four, so that bar measures how much
//! sharding adds on top (DESIGN §12 has why the shards stay).
//!
//! The crash matrix runs first, so a missed scaling bar still reports it.
//! It is a schedule on the chaos driver ([`Chaos`]): concurrent renewals
//! on four shards while a seeded crash plan fires at the renewal and
//! enrollment-commit WAL sites and the driver thread recovers every
//! crashed fleet. After every step the driver checks that no acknowledged
//! renewal is lost, that no serial is acknowledged twice across shards,
//! that each shard's live state is the replay of its sealed log, and,
//! after each recovery, that the fleet equals oracle twins replayed from
//! forks of each shard's media. Once the faults stop, every shard must
//! serve a renewal.

use std::hint::black_box;
use std::time::{Duration, Instant};
use vnfguard_core::chaos::{Burst, Chaos, Fault, Step};
use vnfguard_core::deployment::{Testbed, TestbedBuilder};
use vnfguard_core::service::shard_of_vnf;

/// Simulated device flush latency on every shard WAL.
const WRITE_LATENCY: Duration = Duration::from_micros(1500);
/// Shard counts scanned for the throughput curve.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Client counts scanned on one shard.
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Concurrent client threads (each owns one credential) in the shard scan.
const CLIENTS: usize = 8;
/// Chained renewals per client in a timed run of the shard scan.
const RENEWALS_PER_CLIENT: usize = 15;
/// Chained renewals per client in the one-shard client scan. A burst of
/// [`RENEWALS_PER_CLIENT`] lasts about 100 ms, short enough for one host
/// stall to move its reading: at 1 client, which the commit path cannot
/// change, six such bursts on a quiet 2-vCPU host read 479–537/s.
const SCAN_RENEWALS_PER_CLIENT: usize = 300;
/// Builds per client count in the client scan; it reports their median.
const SCAN_BUILDS: usize = 3;
/// 4-shard throughput must reach this multiple of 1-shard throughput.
const MIN_SCALING: f64 = 2.0;
/// Noisy-machine retries before the scaling bar is declared failed.
const ATTEMPTS: usize = 3;
/// Seeds in the crash-under-load matrix.
const CRASH_SEEDS: u64 = 10;
/// Shards in every crash scenario.
const CRASH_SHARDS: usize = 4;
/// Chained renewals per client under crash injection.
const CRASH_RENEWALS: usize = 6;

/// One client thread's credential: the serial it chains renewals on and
/// the provisioning key the renewals stay bound to.
struct Client {
    serial: u64,
    key: [u8; 32],
}

/// A VNF name that routes to `target` under `shards`-way routing, so the
/// bench can pin client `t` to shard `t % shards`.
fn name_on_shard(t: usize, target: usize, shards: usize) -> String {
    (0..)
        .map(|j| format!("vnf-sat-{t}-{j}"))
        .find(|name| shard_of_vnf(name, shards) == target)
        .expect("some candidate name routes to every shard")
}

/// A saturated world: sharded, durable, slow-flush testbed with one
/// enrolled credential per client, client `t` pinned to shard
/// `t % shards`.
fn saturated_world(seed: &[u8], shards: usize, clients: usize) -> (Testbed, Vec<Client>) {
    let mut tb = TestbedBuilder::new(seed)
        .durable()
        .shards(shards)
        .wal_write_latency(WRITE_LATENCY)
        .build();
    tb.attest_host(0).unwrap();
    let enrolled = (0..clients)
        .map(|t| {
            let name = name_on_shard(t, t % shards, shards);
            let guard = tb.deploy_guard(0, &name, 1).unwrap();
            let key = guard.provisioning_key().unwrap();
            let certificate = tb.enroll(0, &guard).unwrap();
            Client {
                serial: certificate.serial(),
                key,
            }
        })
        .collect();
    (tb, enrolled)
}

/// One concurrent burst: `clients` threads chain `renewals` renewals each
/// through clones of the service handle. Returns aggregate renewals/sec
/// (wall-clock over the whole burst) and the device flushes, summed over
/// every shard's medium, per acknowledged renewal.
fn renewal_burst(shards: usize, clients: usize, renewals: usize, attempt: usize) -> (f64, f64) {
    // The `gtrue` suffix keeps each build's seed, and so its key material,
    // what it was when group commit was an option.
    let seed = format!("e15 saturation s{shards} c{clients} a{attempt} gtrue");
    let (tb, clients) = saturated_world(seed.as_bytes(), shards, clients);
    let flushes = || -> u64 {
        (0..shards)
            .map(|s| tb.shard_store_media(s).unwrap().flushes())
            .sum()
    };
    let flushes_before = flushes();
    let vm = tb.vm_service();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in &clients {
            let vm = vm.clone();
            scope.spawn(move || {
                let mut serial = client.serial;
                for _ in 0..renewals {
                    let (_, certificate) = vm
                        .renew_vnf_credential(serial, &client.key, "controller")
                        .unwrap();
                    serial = black_box(certificate.serial());
                }
            });
        }
    });
    let renewals = (clients.len() * renewals) as f64;
    let throughput = renewals / start.elapsed().as_secs_f64();
    (throughput, (flushes() - flushes_before) as f64 / renewals)
}

/// One crash-under-load seed: [`CLIENTS`] credentials over
/// [`CRASH_SHARDS`] shards, then every client chains [`CRASH_RENEWALS`]
/// renewals under crashes. Returns the crashes that fired, so the matrix
/// can prove it was non-vacuous.
fn crash_under_load(seed: u64) -> usize {
    let builder = TestbedBuilder::new(format!("e15 crash {seed}").as_bytes())
        .durable()
        .shards(CRASH_SHARDS);
    let renewals = Burst {
        renewers: CLIENTS,
        rounds: CRASH_RENEWALS,
        ..Burst::default()
    };
    Chaos::new(seed, builder)
        .run(&[
            Step::Fault(Fault::Crash("renewal.issue", 0.10)),
            Step::Fault(Fault::Crash("enrollment.commit", 0.10)),
            Step::Enroll(CLIENTS),
            Step::Burst(renewals),
        ])
        .finish()
        .crashes
}

fn main() {
    println!(
        "e15_saturation: {SCAN_RENEWALS_PER_CLIENT} (client scan) and {RENEWALS_PER_CLIENT} (shard scan) chained renewals per client, {:?} flush latency, group commit",
        WRITE_LATENCY
    );
    // The crash matrix runs before the scaling verdict, so a missed bar
    // never hides its result.
    let mut crashes = 0;
    for seed in 0..CRASH_SEEDS {
        crashes += crash_under_load(seed);
    }
    println!(
        "e15_saturation/crash_matrix         {CRASH_SEEDS:>10} seeds, {crashes} injected crashes, every shard recovered"
    );
    assert!(crashes > 0, "crash matrix was vacuous: no crash ever fired");

    for clients in CLIENT_COUNTS {
        let mut builds: Vec<(f64, f64)> = (0..SCAN_BUILDS)
            .map(|build| renewal_burst(1, clients, SCAN_RENEWALS_PER_CLIENT, build))
            .collect();
        builds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (throughput, flushes) = builds[SCAN_BUILDS / 2];
        let (low, high) = (builds[0].0, builds[SCAN_BUILDS - 1].0);
        println!(
            "e15_saturation/renewals_1shard_{clients}c    {throughput:>10.0} renewals/s {flushes:>6.3} flushes/renewal (median of {SCAN_BUILDS}, {low:.0}–{high:.0})"
        );
    }
    let mut scaling = 0.0;
    for attempt in 0..ATTEMPTS {
        let mut one_shard = 0.0;
        let mut four_shard = 0.0;
        for shards in SHARD_COUNTS {
            let (throughput, flushes) =
                renewal_burst(shards, CLIENTS, RENEWALS_PER_CLIENT, attempt);
            println!(
                "e15_saturation/renewals_{shards}shard      {throughput:>10.0} renewals/s {flushes:>6.3} flushes/renewal"
            );
            if shards == 1 {
                one_shard = throughput;
            }
            if shards == 4 {
                four_shard = throughput;
            }
        }
        scaling = four_shard / one_shard;
        println!("e15_saturation/scaling_1_to_4       {scaling:>10.2} x (bar {MIN_SCALING:.1} x)");
        if scaling >= MIN_SCALING {
            break;
        }
        println!(
            "e15_saturation: attempt {} under the bar, retrying",
            attempt + 1
        );
    }
    if scaling < MIN_SCALING {
        eprintln!(
            "e15_saturation: FAIL — 4-shard throughput only {scaling:.2}x 1-shard (bar {MIN_SCALING:.1}x)"
        );
        std::process::exit(1);
    }
    println!("e15_saturation: PASS");
}
