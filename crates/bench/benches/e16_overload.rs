//! E16 — overload: admission control under a renewal stampede, measured
//! open-loop against a 10k-credential fleet.
//!
//! The storm driver schedules renewal arrivals at twice the system's
//! measured capacity and measures each request from its *scheduled*
//! arrival, not from when a worker got around to it — the open-loop view
//! in which queueing collapse is visible as unbounded latency growth.
//! With admission control on, the per-class queues in front of the shard
//! locks shed the excess with `retry-after` hints and the admitted
//! requests keep a bounded p99; with it off, the same offered load piles
//! onto the shard mutexes and p99 grows with the backlog. CI gates:
//!
//! - **bounded admitted p99** — under 2x overload, admitted renewals
//!   finish within [`P99_MULT`]x the unloaded p99;
//! - **goodput floor** — while shedding, completed renewals/sec stay at
//!   or above [`GOODPUT_FLOOR`] of measured capacity;
//! - **the control matters** — the no-admission contrast run's p99 is at
//!   least [`CONTRAST_MULT`]x the admitted p99 (and the storm actually
//!   shed something, so the comparison is non-vacuous).
//!
//! The chaos matrix then runs [`CHAOS_SEEDS`] seeded storms — renewal
//! stampedes, revocation storms and CRL thundering herds in seed-varied
//! mixes, with enrollment floods riding on top — against a durable
//! sharded testbed. Each storm is a burst on the chaos driver ([`Chaos`]),
//! which checks that shedding never corrupts state: no acknowledged
//! operation is lost, zero orphaned WAL prepares, each shard's live state
//! stays the replay of its sealed log, and every poll's CRL carries the
//! revocations acknowledged before it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use vnfguard_core::chaos::{Burst, Chaos, Step};
use vnfguard_core::deployment::{Testbed, TestbedBuilder};
use vnfguard_core::overload::AdmissionConfig;
use vnfguard_core::service::VmService;
use vnfguard_core::CoreError;
use vnfguard_vnf::VnfGuard;

/// Credentials enrolled in the storm world (the ISSUE's 10k fleet).
const STORM_VNFS: usize = 10_000;
/// Credentials per chaos-matrix world.
const CHAOS_VNFS: usize = 1_000;
/// Shards in every world.
const SHARDS: usize = 4;
/// Closed-loop clients used to calibrate capacity and unloaded p99.
const CALIBRATION_CLIENTS: usize = 8;
/// Chained renewals per calibration client.
const CALIBRATION_RENEWALS: usize = 50;
/// Open-loop storm workers (more than the renewal queue bound, so the
/// depth gate has something to shed).
const WORKERS: usize = 24;
/// Scheduled storm arrivals.
const STORM_ARRIVALS: usize = 3_000;
/// Offered load as a multiple of measured capacity.
const OVERLOAD: f64 = 2.0;
/// Admitted p99 must stay within this multiple of the unloaded p99.
const P99_MULT: f64 = 5.0;
/// Goodput while shedding must stay at or above this fraction of capacity.
const GOODPUT_FLOOR: f64 = 0.60;
/// The no-admission contrast p99 must exceed this multiple of admitted p99.
const CONTRAST_MULT: f64 = 3.0;
/// Noisy-machine retries before the latency bars are declared failed.
const ATTEMPTS: usize = 3;
/// Seeds in the chaos matrix.
const CHAOS_SEEDS: u64 = 10;
/// Chaos serials reserved for the revocation storm (never renewed).
const CHAOS_REVOCABLE: usize = 200;

/// Queue bounds small enough that [`WORKERS`] concurrent requests
/// overflow the renewal class (bound = 3/4 x 16 = 12).
fn storm_admission() -> AdmissionConfig {
    AdmissionConfig {
        queue_bound: 16,
        ..AdmissionConfig::default()
    }
}

/// Enroll `count` compact credentials through one guard: every name gets
/// its own challenge and a fresh quote from the shared enclave (the
/// whitelist admits by mrenclave, not by name), and all credentials stay
/// bound to the one provisioning key. This is how the bench affords a
/// 10k-credential fleet without loading 10k enclaves.
fn mass_enroll(tb: &mut Testbed, guard: &VnfGuard, count: usize, prefix: &str) -> Vec<u64> {
    let host_id = tb.hosts[0].id.clone();
    let key = guard.provisioning_key().unwrap();
    let mut serials = Vec::with_capacity(count);
    for i in 0..count {
        let name = format!("{prefix}-{i}");
        let challenge = tb.vm.begin_vnf_attestation(&host_id, &name).unwrap();
        let quote = guard
            .quote(&tb.hosts[0].platform, &challenge.nonce, challenge.nonce)
            .unwrap();
        let (_, certificate) = tb
            .vm
            .complete_vnf_enrollment(
                &mut tb.ias,
                challenge.id,
                &quote.encode(),
                &key,
                "controller",
            )
            .unwrap();
        serials.push(certificate.serial());
    }
    serials
}

/// A storm world: sharded fleet of `vnfs` compact credentials, admission
/// on or off. Returns the testbed, the shared provisioning key, and the
/// serial pool.
fn storm_world(seed: &[u8], vnfs: usize, admission: bool) -> (Testbed, [u8; 32], Vec<u64>) {
    let mut builder = TestbedBuilder::new(seed).shards(SHARDS);
    if admission {
        builder = builder.admission_config(storm_admission());
    }
    let mut tb = builder.build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-storm-seed", 1).unwrap();
    let key = guard.provisioning_key().unwrap();
    let serials = mass_enroll(&mut tb, &guard, vnfs, "vnf-storm");
    (tb, key, serials)
}

fn p99(latencies: &mut [f64]) -> f64 {
    assert!(!latencies.is_empty());
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    latencies[((latencies.len() - 1) as f64 * 0.99).round() as usize]
}

/// Closed-loop calibration: [`CALIBRATION_CLIENTS`] threads chain
/// renewals, returning (capacity renewals/sec, unloaded p99 micros).
/// Each client owns one serial off the top of the pool and leaves the
/// pool's tail untouched for the storm.
fn calibrate(vm: &VmService, key: &[u8; 32], serials: &[u64]) -> (f64, f64) {
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        (0..CALIBRATION_CLIENTS)
            .map(|c| {
                let vm = vm.clone();
                let mut serial = serials[c];
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(CALIBRATION_RENEWALS);
                    for _ in 0..CALIBRATION_RENEWALS {
                        let t0 = Instant::now();
                        let (_, certificate) =
                            vm.renew_vnf_credential(serial, key, "controller").unwrap();
                        local.push(t0.elapsed().as_secs_f64() * 1e6);
                        serial = certificate.serial();
                    }
                    local
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let capacity =
        (CALIBRATION_CLIENTS * CALIBRATION_RENEWALS) as f64 / start.elapsed().as_secs_f64();
    (capacity, p99(&mut latencies))
}

struct StormOutcome {
    admitted_p99_micros: f64,
    goodput_per_sec: f64,
    admitted: usize,
    shed: usize,
}

/// The open-loop storm: [`STORM_ARRIVALS`] renewals scheduled at
/// `OVERLOAD x capacity`, spread over [`WORKERS`] workers each owning a
/// disjoint slice of the serial pool. Latency is measured from the
/// scheduled arrival. A shed request is not retried — the fleet's guards
/// honor `retry-after` on their own schedule (E13/guard jitter); here the
/// shed itself is the datum.
fn storm(vm: &VmService, key: &[u8; 32], serials: &[u64], capacity: f64) -> StormOutcome {
    let interarrival = 1.0 / (capacity * OVERLOAD);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        (0..WORKERS)
            .map(|w| {
                let vm = vm.clone();
                let next = &next;
                // Storm serials start past the calibration clients' slice.
                let mut owned: Vec<u64> = serials
                    .iter()
                    .copied()
                    .skip(CALIBRATION_CLIENTS + w)
                    .step_by(WORKERS)
                    .collect();
                scope.spawn(move || {
                    let mut latencies = Vec::new();
                    let mut shed = 0usize;
                    let mut cursor = 0usize;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= STORM_ARRIVALS {
                            break;
                        }
                        let arrival = i as f64 * interarrival;
                        let since_start = start.elapsed().as_secs_f64();
                        if since_start < arrival {
                            std::thread::sleep(Duration::from_secs_f64(arrival - since_start));
                        }
                        let slot = cursor % owned.len();
                        match vm.renew_vnf_credential(owned[slot], key, "controller") {
                            Ok((_, certificate)) => {
                                owned[slot] = certificate.serial();
                                latencies.push((start.elapsed().as_secs_f64() - arrival) * 1e6);
                            }
                            Err(CoreError::Overloaded { .. }) => shed += 1,
                            Err(other) => panic!("storm renewal failed: {other}"),
                        }
                        cursor += 1;
                    }
                    (latencies, shed)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = Vec::new();
    let mut shed = 0usize;
    for (mut l, s) in results {
        latencies.append(&mut l);
        shed += s;
    }
    let admitted = latencies.len();
    StormOutcome {
        admitted_p99_micros: p99(&mut latencies),
        goodput_per_sec: admitted as f64 / elapsed,
        admitted,
        shed,
    }
}

/// One chaos-matrix storm: a seed-varied mix of renewal stampede,
/// revocation storm, CRL thundering herd and enrollment flood against a
/// durable sharded world with tight admission. Returns the shed count.
fn storm_chaos(seed: u64) -> usize {
    let builder = TestbedBuilder::new(format!("e16 chaos {seed}").as_bytes())
        .durable()
        .shards(SHARDS)
        .admission_config(storm_admission());
    // Seed-varied emphasis: every third seed leans renewal-stampede,
    // revocation-storm or CRL-herd respectively.
    let (renewers, revokers, pollers) = match seed % 3 {
        0 => (16, 2, 2),
        1 => (8, 8, 2),
        _ => (8, 2, 8),
    };
    let storm = Burst {
        renewers,
        rounds: 2,
        revokers,
        revocations: CHAOS_REVOCABLE,
        pollers,
        enrollments: 100,
        recoveries: 0,
    };
    Chaos::new(seed, builder)
        .run(&[Step::Enroll(CHAOS_VNFS), Step::Burst(storm), Step::CrlPoll])
        .finish()
        .shed
}

fn main() {
    println!(
        "e16_overload: {STORM_VNFS} credentials, {SHARDS} shards, {WORKERS} workers, \
         {STORM_ARRIVALS} arrivals at {OVERLOAD:.0}x capacity"
    );

    let (tb_on, key_on, serials_on) = storm_world(b"e16 storm admitted", STORM_VNFS, true);
    let (tb_off, key_off, serials_off) = storm_world(b"e16 storm contrast", STORM_VNFS, false);
    let vm_on = tb_on.vm_service();
    let vm_off = tb_off.vm_service();

    let mut pass = false;
    for attempt in 0..ATTEMPTS {
        let (capacity, unloaded_p99) = calibrate(&vm_on, &key_on, &serials_on);
        println!(
            "e16_overload/capacity               {capacity:>10.0} renewals/s (unloaded p99 {unloaded_p99:.0} us)"
        );

        let admitted = storm(&vm_on, &key_on, &serials_on, capacity);
        println!(
            "e16_overload/admitted_p99           {:>10.0} us ({} admitted, {} shed)",
            admitted.admitted_p99_micros, admitted.admitted, admitted.shed
        );
        println!(
            "e16_overload/goodput                {:>10.0} renewals/s (floor {:.0}% of capacity)",
            admitted.goodput_per_sec,
            GOODPUT_FLOOR * 100.0
        );

        let contrast = storm(&vm_off, &key_off, &serials_off, capacity);
        println!(
            "e16_overload/no_control_p99         {:>10.0} us ({} completed, {} shed)",
            contrast.admitted_p99_micros, contrast.admitted, contrast.shed
        );

        let p99_ok = admitted.admitted_p99_micros <= P99_MULT * unloaded_p99;
        let goodput_ok = admitted.goodput_per_sec >= GOODPUT_FLOOR * capacity;
        let shed_ok = admitted.shed > 0;
        let contrast_ok =
            contrast.admitted_p99_micros >= CONTRAST_MULT * admitted.admitted_p99_micros;
        println!(
            "e16_overload/bars                   p99<= {P99_MULT:.0}x: {p99_ok}, goodput: {goodput_ok}, \
             shed>0: {shed_ok}, contrast>= {CONTRAST_MULT:.0}x: {contrast_ok}"
        );
        if p99_ok && goodput_ok && shed_ok && contrast_ok {
            pass = true;
            break;
        }
        println!(
            "e16_overload: attempt {} under a bar, retrying",
            attempt + 1
        );
    }
    if !pass {
        eprintln!("e16_overload: FAIL — overload bars not met after {ATTEMPTS} attempts");
        std::process::exit(1);
    }

    let mut shed = 0usize;
    for seed in 0..CHAOS_SEEDS {
        shed += storm_chaos(seed);
    }
    println!(
        "e16_overload/chaos_matrix           {CHAOS_SEEDS:>10} seeds, {shed} sheds, zero orphaned prepares, zero divergence"
    );
    assert!(shed > 0, "chaos matrix was vacuous: nothing was ever shed");
    println!("e16_overload: PASS");
}
