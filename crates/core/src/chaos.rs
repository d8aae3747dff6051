//! One seeded chaos driver: a schedule of workflows, concurrent bursts
//! and faults against a [`Testbed`], each fault ridden out the way an
//! operator would (promote a standby, or recover in place once none is
//! left), and one invariant set checked after every step (DESIGN §8):
//!
//! 1. no acknowledged enrollment, renewal or revocation is lost;
//! 2. no serial is acknowledged twice;
//! 3. each shard's live state is the replay of its quiesced store, and
//!    every serial it issued is enrolled, pending or revoked;
//! 4. after a recovery or a promotion the fleet equals its oracle twins,
//!    and a recovery finds a torn tail exactly when the schedule tore one;
//! 5. a CRL poll serves every revoked serial;
//! 6. a halted manager refuses every call, changes no state and logs no
//!    event;
//! 7. once faults stop, every shard serves a renewal ([`Chaos::finish`]).
//!
//! Every call that fails otherwise than the fault in play explains (a
//! crash, a shed request, a host not yet re-attested to the incarnation a
//! recovery just installed) fails the schedule.

use crate::crash::{splitmix, CrashPlan, CRASH_SITES};
use crate::deployment::{Testbed, TestbedBuilder};
use crate::manager::{shard_of_serial, DEFAULT_ORPHAN_GRACE_SECS};
use crate::service::{shard_of_vnf, VmService};
use crate::CoreError;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_net::fault::FaultPlan;
use vnfguard_pki::crl::{Crl, RevocationReason};
use vnfguard_store::ManagerState;
use vnfguard_vnf::VnfGuard;

/// A promotion must finish well inside this wall-clock bound.
const MAX_FAILOVER: Duration = Duration::from_secs(2);
/// Attempts at one sequential operation before the driver calls it a
/// livelock.
const ATTEMPTS: usize = 24;
/// How long a client in a burst retries one call, 200 µs apart, before the
/// driver calls it a livelock.
const CLIENT_PATIENCE: Duration = Duration::from_secs(10);
/// CRL polls each poller makes in a burst.
const POLLS: usize = 50;
const HOST: &str = "host-0";
const CONTROLLER: &str = "controller";

/// One step of a schedule.
#[derive(Clone, Debug)]
pub enum Step {
    /// Enroll `n` credentials two-phase, prepare then commit, round-robin
    /// over the shards.
    Enroll(usize),
    /// Prepare an enrollment whose bundle is never delivered.
    Prepare,
    /// Commit or abort an undelivered prepare (prepare when none is left).
    Commit,
    Abort,
    /// Renew or revoke a live credential (enroll when none is left).
    Renew,
    Revoke,
    /// Revoke every credential on the host, which then re-attests.
    RevokeHost,
    /// Take a degraded verdict (the testbed must allow them).
    Degraded,
    /// Poll the fleet CRL; or issue one, install it, then poll.
    CrlPoll,
    IssueCrl,
    /// Rotate the CA and hand the controller every new root.
    Rotate,
    /// Age every prepare past the grace period; or age, then sweep.
    Age,
    Sweep,
    /// Recover the fleet in place.
    Recover,
    Burst(Burst),
    Fault(Fault),
}

/// A fault, from the one list every schedule draws on. A burst against a
/// testbed with tight admission bounds is the admission storm.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Arm `site` to crash at each later hit with probability `p` (`0.0`
    /// disarms it), or at its next hit only.
    Crash(&'static str, f64),
    CrashOnce(&'static str),
    /// An enrollment's commit frame loses its last `n` bytes (less than a
    /// frame), so its caller never saw it acknowledged; the fleet recovers.
    /// Unreplicated testbeds only: a standby would keep the commit.
    TornTail(usize),
    /// Sever a fabric address (a standby, an agent), or reconnect it.
    Partition(&'static str),
    Heal(&'static str),
    /// Node loss: halt the fleet, check it refuses every call and changes
    /// nothing, then promote a standby, or recover in place when none is
    /// left.
    Halt,
}

/// Concurrent clients: renewers chain `rounds` renewals on their share of
/// the live credentials, revokers revoke `revocations` of them, pollers
/// poll the CRL. Meanwhile the driver thread floods `enrollments`, forces
/// `recoveries`, and recovers the fleet when a client sees a crash. A shed
/// request is counted, not retried.
#[derive(Clone, Copy, Debug, Default)]
pub struct Burst {
    pub renewers: usize,
    pub rounds: usize,
    pub revokers: usize,
    pub revocations: usize,
    pub pollers: usize,
    pub enrollments: usize,
    pub recoveries: usize,
}

/// A fleet's CA root and each shard's journaled state, but for its
/// recovery generation and notices, and its host table (verdicts and
/// AIKs), which no journal holds: a recovered fleet agrees with its oracle
/// twins on the first two, a halted fleet keeps all three.
#[derive(Debug, PartialEq, Eq)]
pub struct FleetView {
    root: Vec<u8>,
    states: Vec<ManagerState>,
    hosts: String,
}

impl FleetView {
    fn of(vm: &VmService) -> FleetView {
        let states = (0..vm.shard_count())
            .map(|shard| {
                vm.run(shard, |m| ManagerState {
                    generation: 0,
                    notices: Vec::new(),
                    ..m.state().clone()
                })
            })
            .collect();
        let hosts = format!("{:?}", *vm.trust().hosts());
        let root = vm.ca_certificate().encode();
        FleetView {
            root,
            states,
            hosts,
        }
    }
}

/// What a schedule did; from one seed, a sequential schedule's outcome
/// repeats.
#[derive(Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Crash sites that fired.
    pub crashes: usize,
    /// Recoveries in place, forced ones included.
    pub recoveries: usize,
    pub promotions: usize,
    /// Requests admission control shed.
    pub shed: usize,
    /// Enrollments the driver committed.
    pub enrolled: usize,
    pub fleet: FleetView,
}

/// An acknowledged serial and the provisioning key it is bound to.
#[derive(Clone, Copy, Debug)]
struct Credential {
    serial: u64,
    key: [u8; 32],
}

/// The driver: a testbed, its seeded fault plans, and the ledger of what
/// the fleet acknowledged.
pub struct Chaos {
    tb: Testbed,
    crash: CrashPlan,
    faults: FaultPlan,
    rng: u64,
    /// One guard per shard, named to route there, and the next one's turn.
    guards: Vec<VnfGuard>,
    turn: usize,
    /// Unrevoked credentials, and undelivered prepares.
    live: Vec<Credential>,
    pending: Vec<Credential>,
    /// Pending serials a crash left behind before they reached the driver.
    orphans: BTreeSet<u64>,
    revoked: BTreeSet<u64>,
    acknowledged: BTreeSet<u64>,
    severed: Vec<&'static str>,
    /// The schedule tore the log since the last recovery.
    torn: bool,
    generation: u64,
    recoveries: usize,
    promotions: usize,
    shed: usize,
    enrolled: usize,
}

impl Chaos {
    /// Build `builder`'s testbed under a crash plan and a fault plan seeded
    /// from `seed`, attest the host and load one guard per shard.
    pub fn new(seed: u64, builder: TestbedBuilder) -> Chaos {
        let (crash, faults) = (CrashPlan::seeded(seed), FaultPlan::seeded(seed));
        let builder = builder.crash_plan(crash.clone()).faults(faults.clone());
        let mut tb = builder.build();
        tb.attest_host(0).expect("the host attests");
        let shards = tb.shard_count();
        let guards = (0..shards)
            .map(|shard| {
                let name = (0..)
                    .map(|i| format!("vnf-chaos-{i}"))
                    .find(|name| shard_of_vnf(name, shards) == shard)
                    .expect("some name routes to every shard");
                tb.deploy_guard(0, &name, 1).expect("the guard loads")
            })
            .collect();
        Chaos {
            tb,
            crash,
            faults,
            rng: seed,
            guards,
            turn: 0,
            live: Vec::new(),
            pending: Vec::new(),
            orphans: BTreeSet::new(),
            revoked: BTreeSet::new(),
            acknowledged: BTreeSet::new(),
            severed: Vec::new(),
            torn: false,
            generation: 0,
            recoveries: 0,
            promotions: 0,
            shed: 0,
            enrolled: 0,
        }
    }

    /// Run `schedule`, checking the invariants after each step that can
    /// change the fleet (arming a crash cannot).
    pub fn run(&mut self, schedule: &[Step]) -> &mut Chaos {
        for step in schedule {
            self.step(step);
            if !matches!(step, Step::Fault(Fault::Crash(..) | Fault::CrashOnce(_))) {
                self.check();
            }
        }
        self
    }

    /// Stop every fault, ride out what is left, and renew once on every
    /// shard (invariant 7).
    pub fn finish(&mut self) -> Outcome {
        CRASH_SITES.iter().for_each(|site| self.crash.clear(site));
        for addr in std::mem::take(&mut self.severed) {
            self.faults.heal(addr);
        }
        if self.tb.vm.crashed_site().is_some() {
            self.restore();
        }
        for shard in 0..self.guards.len() {
            let on_shard = |c: &&Credential| shard_of_serial(c.serial) as usize == shard;
            if !self.live.iter().any(|c| on_shard(&c)) {
                self.turn = shard;
                self.enroll();
            }
            let c = *self.live.iter().find(on_shard).expect("a credential");
            let renewed = self
                .tb
                .vm
                .renew_vnf_credential(c.serial, &c.key, CONTROLLER);
            let (_, certificate) = renewed.unwrap_or_else(|e| {
                panic!("shard {shard} serves no renewal once faults stop: {e}")
            });
            self.renewed(c, certificate.serial());
        }
        self.check();
        Outcome {
            crashes: self.crash.fired_count(),
            recoveries: self.recoveries,
            promotions: self.promotions,
            shed: self.shed,
            enrolled: self.enrolled,
            fleet: FleetView::of(&self.tb.vm),
        }
    }

    fn step(&mut self, step: &Step) {
        match step {
            Step::Enroll(n) => (0..*n).for_each(|_| self.enroll()),
            Step::Prepare => {
                let prepared = self.prepare();
                self.pending.push(prepared);
            }
            Step::Commit | Step::Abort if self.pending.is_empty() => self.step(&Step::Prepare),
            Step::Commit => {
                let i = self.pick(self.pending.len());
                let c = self.pending.swap_remove(i);
                self.commit(c);
            }
            Step::Abort => {
                let i = self.pick(self.pending.len());
                let serial = self.pending.swap_remove(i).serial;
                self.retry("abort", Some("enrollment.abort"), |c| {
                    c.tb.vm.abort_vnf_enrollment(serial, "delivery failed")
                });
                self.revoked.insert(serial);
            }
            Step::Renew | Step::Revoke if self.live.is_empty() => self.enroll(),
            Step::Renew => {
                let i = self.pick(self.live.len());
                let c = self.live[i];
                let (_, certificate) = self
                    .retry("renewal", None, |chaos| {
                        chaos
                            .tb
                            .vm
                            .renew_vnf_credential(c.serial, &c.key, CONTROLLER)
                    })
                    .expect("a retried renewal answers");
                self.renewed(c, certificate.serial());
            }
            Step::Revoke => {
                let i = self.pick(self.live.len());
                let serial = self.live.swap_remove(i).serial;
                self.retry("revocation", Some("revocation.revoke"), |c| {
                    c.tb.vm
                        .revoke_credential(serial, RevocationReason::KeyCompromise)
                });
                self.revoked.insert(serial);
            }
            Step::RevokeHost => {
                self.retry("host revocation", None, |c| c.tb.vm.revoke_host(HOST));
                self.revoked.extend(self.live.drain(..).map(|c| c.serial));
                self.tb.attest_host(0).expect("the host re-attests");
            }
            Step::Degraded => {
                self.retry("degraded verdict", None, |c| {
                    c.tb.vm.degraded_host_verdict(HOST)
                });
            }
            Step::CrlPoll => self.poll_crl(),
            Step::IssueCrl => {
                self.retry("CRL issue", None, |c| c.tb.push_crl());
                self.poll_crl();
            }
            Step::Rotate => {
                self.retry("rotation", None, |c| c.tb.rotate_ca());
                let roots = self.tb.distribute_ca_chain();
                roots.expect("the controller adopts every rotated root");
            }
            Step::Age => self.age(),
            Step::Sweep => {
                self.age();
                self.retry("sweep", None, |c| c.tb.vm.sweep_pending_enrollments());
                self.reconcile();
            }
            Step::Recover => self.recover(false),
            Step::Burst(burst) => self.burst(burst),
            Step::Fault(fault) => self.fault(fault),
        }
    }

    fn fault(&mut self, fault: &Fault) {
        match *fault {
            Fault::Crash(site, p) => {
                self.crash.crash_with_probability(site, p);
            }
            Fault::CrashOnce(site) => {
                self.crash.crash_once(site);
            }
            Fault::TornTail(bytes) => {
                // The commit must be the last write and still in the log:
                // after a crash at its site a recovery wrote last, and a
                // compaction may fold it into the snapshot.
                let media = self.tb.store_media().expect("a durable testbed").clone();
                let torn = (0..ATTEMPTS)
                    .find_map(|_| {
                        self.turn = 0;
                        let c = self.prepare();
                        (self.commit(c) && media.log_bytes() > 0).then_some(c)
                    })
                    .expect("a commit frame stays in the log to tear");
                self.live.retain(|c| c.serial != torn.serial);
                media.tear_tail(bytes);
                self.torn = true;
                self.recover(false);
                let pending = self.orphans.remove(&torn.serial);
                assert!(pending, "torn commit {torn:?} is not pending again");
                self.pending.push(torn);
            }
            Fault::Partition(addr) => {
                self.faults.isolate(addr);
                self.severed.push(addr);
            }
            Fault::Heal(addr) => {
                self.faults.heal(addr);
                self.severed.retain(|a| *a != addr);
            }
            Fault::Halt => self.halt(),
        }
    }

    /// Invariant 6: the halted fleet answers nothing, not even a host
    /// challenge taken before the halt, and its state does not move.
    fn halt(&mut self) {
        let challenge = self.tb.vm.begin_host_attestation(HOST);
        let challenge = challenge.expect("a live manager challenges hosts");
        // A verdict stored after the halt would carry the later time.
        self.tb.clock.advance(1);
        self.tb.kill_primary("node loss");
        let vm = self.tb.vm_service();
        let last_event = || vm.events().last().map(|e| e.seq);
        let before = (FleetView::of(&vm), last_event());
        let refused = |call: &str, answer: Result<(), CoreError>| {
            let refused = matches!(answer, Err(CoreError::VmCrashed(_)));
            assert!(refused, "a halted manager answered a {call}: {answer:?}");
        };
        let answer = self.tb.answer_host_challenge(0, &challenge);
        refused("host attestation", answer.map(drop));
        refused("host challenge", vm.begin_host_attestation(HOST).map(drop));
        let aik = SigningKey::from_seed(&[0x5a; 32]).public_key();
        refused("TPM registration", vm.register_host_tpm(HOST, aik));
        let name = &self.guards[0].name;
        refused(
            "VNF challenge",
            vm.begin_vnf_attestation(HOST, name).map(drop),
        );
        refused("host revocation", vm.revoke_host(HOST).map(drop));
        refused("degraded verdict", vm.degraded_host_verdict(HOST).map(drop));
        refused("sweep", vm.sweep_pending_enrollments().map(drop));
        refused("CRL poll", vm.latest_crl().map(drop));
        refused("rotation", vm.rotate_ca().map(drop));
        if let Some(c) = self.live.first() {
            let renewal = vm.renew_vnf_credential(c.serial, &c.key, CONTROLLER);
            refused("renewal", renewal.map(drop));
            let reason = RevocationReason::KeyCompromise;
            refused("revocation", vm.revoke_credential(c.serial, reason));
        }
        if let Some(c) = self.pending.first() {
            refused("commit", vm.commit_vnf_enrollment(c.serial));
            refused("abort", vm.abort_vnf_enrollment(c.serial, "halted"));
        }
        let after = (FleetView::of(&vm), last_event());
        assert!(
            before == after,
            "a halted manager changed its state or logged an event"
        );
        self.restore();
    }

    /// Invariants 1–3, checked after every step.
    fn check(&self) {
        let vm = &self.tb.vm;
        let mut states = Vec::with_capacity(vm.shard_count());
        for shard in 0..vm.shard_count() {
            let (live, replayed) = vm.run(shard, |m| {
                m.quiesce_store();
                (m.state().clone(), m.store().map(|store| store.replay()))
            });
            live.check_invariants()
                .unwrap_or_else(|e| panic!("shard {shard}: {e}"));
            if let Some(replayed) = replayed {
                let mut replayed = replayed.expect("a quiesced store replays").state;
                replayed.notices.clone_from(&live.notices);
                assert_eq!(
                    live, replayed,
                    "shard {shard}: live state is not the replay"
                );
            }
            let revoked_only = live
                .revoked
                .keys()
                .filter(|s| !live.enrollments.contains_key(s));
            let credentials = live.enrollments.len() + live.pending.len() + revoked_only.count();
            // The authority also issued the controller's certificate, and a
            // root and a cross certificate per rotation.
            let others = if shard == 0 {
                1 + 2 * live.rotations.len()
            } else {
                0
            };
            let issued = live.issued as usize;
            assert_eq!(
                issued,
                credentials + others,
                "shard {shard}: a serial leaked"
            );
            states.push(live);
        }
        for c in &self.live {
            let enrolled = states.iter().find_map(|s| s.enrollments.get(&c.serial));
            let serial = c.serial;
            assert!(
                enrolled.is_some_and(|e| !e.revoked),
                "credential {serial} lost or revoked"
            );
        }
        for serial in &self.revoked {
            let revoked = states.iter().any(|s| s.revoked.contains_key(serial));
            assert!(revoked, "acknowledged revocation of {serial} lost");
        }
        let pending: BTreeSet<u64> = states
            .iter()
            .flat_map(|s| s.pending.keys().copied())
            .collect();
        let known = self.pending.iter().map(|c| c.serial);
        let expected: BTreeSet<u64> = known.chain(self.orphans.iter().copied()).collect();
        assert_eq!(
            pending, expected,
            "pending enrollments the driver cannot account for"
        );
    }

    /// Run `op` until it answers, riding out every crash it meets. A crash
    /// at `done_at`, the op's own site, follows its journal call: the op
    /// took effect, and `None` says so.
    fn retry<T>(
        &mut self,
        what: &str,
        done_at: Option<&str>,
        mut op: impl FnMut(&mut Chaos) -> Result<T, CoreError>,
    ) -> Option<T> {
        for _ in 0..ATTEMPTS {
            match op(self) {
                Ok(value) => return Some(value),
                Err(CoreError::VmCrashed(site)) => {
                    self.restore();
                    if done_at == Some(site.as_str()) {
                        return None;
                    }
                }
                Err(e) => panic!("{what} failed: {e}"),
            }
        }
        panic!("{what} livelocked");
    }

    fn pick(&mut self, len: usize) -> usize {
        (splitmix(&mut self.rng) % len as u64) as usize
    }

    fn acknowledge(&mut self, serial: u64) {
        let first = self.acknowledged.insert(serial);
        assert!(first, "serial {serial} acknowledged twice");
    }

    fn renewed(&mut self, old: Credential, serial: u64) {
        self.acknowledge(serial);
        self.live.push(Credential { serial, ..old });
    }

    fn enroll(&mut self) {
        let c = self.prepare();
        self.commit(c);
    }

    /// Challenge and quote the next shard's VNF: the challenge id, the
    /// quote and the provisioning key it binds.
    fn challenge(&mut self) -> Result<(u64, Vec<u8>, [u8; 32]), CoreError> {
        let guard = &self.guards[self.turn % self.guards.len()];
        let challenge = self.tb.vm.begin_vnf_attestation(HOST, &guard.name)?;
        let nonce = challenge.nonce;
        let quote = guard.quote(&self.tb.hosts[0].platform, &nonce, nonce)?;
        Ok((challenge.id, quote.encode(), guard.provisioning_key()?))
    }

    fn prepare(&mut self) -> Credential {
        let prepared = self.retry("prepare", None, |c| {
            let (id, quote, key) = c.challenge()?;
            let ias = &mut c.tb.ias;
            let (serial, _, _) =
                c.tb.vm
                    .prepare_vnf_enrollment(ias, id, &quote, &key, CONTROLLER)?;
            Ok(Credential { serial, key })
        });
        let c = prepared.expect("a retried prepare answers");
        self.turn += 1;
        self.acknowledge(c.serial);
        c
    }

    /// Commit `c`; true when the commit answered rather than crashed at
    /// its own site.
    fn commit(&mut self, c: Credential) -> bool {
        let committed = self.retry("commit", Some("enrollment.commit"), |chaos| {
            chaos.tb.vm.commit_vnf_enrollment(c.serial)
        });
        self.live.push(c);
        self.enrolled += 1;
        committed.is_some()
    }

    /// Age every prepare past the grace period (the pending TTL, when one
    /// is set); the host re-attests so its verdict stays fresh.
    fn age(&mut self) {
        let ttl = self
            .tb
            .vm
            .run(0, |m| m.config().pending_enrollment_ttl_secs());
        let grace = if ttl == 0 {
            DEFAULT_ORPHAN_GRACE_SECS
        } else {
            ttl
        };
        self.tb.clock.advance(grace + 1);
        self.tb.attest_host(0).expect("the host re-attests");
    }

    /// Prepares gone from the fleet were aborted, so revoked; pending
    /// serials the driver never saw are orphans a crash left behind.
    fn reconcile(&mut self) {
        let fleet: BTreeSet<u64> = self.tb.vm.pending_enrollments().map(|p| p.serial).collect();
        let (kept, gone): (Vec<_>, Vec<_>) = self
            .pending
            .drain(..)
            .partition(|c| fleet.contains(&c.serial));
        self.revoked.extend(gone.iter().map(|c| c.serial));
        self.pending = kept;
        let known: BTreeSet<u64> = self.pending.iter().map(|c| c.serial).collect();
        self.orphans = fleet.difference(&known).copied().collect();
    }

    /// Invariant 5 for the CRL the next poll serves.
    fn poll_crl(&mut self) {
        let crl = self.retry("CRL poll", None, |c| c.tb.vm.latest_crl());
        let crl = crl.expect("a retried poll answers");
        for shard in 0..self.tb.shard_count() {
            let revoked = self.tb.vm.run(shard, |m| m.revoked_entries());
            expect_on_crl(&crl, revoked.iter().map(|entry| entry.serial));
        }
    }

    /// Ride out a crash or a node loss: promote a standby inside the
    /// failover bound, or recover in place once none is left; either way
    /// the fleet must equal its oracle twin (invariant 4).
    fn restore(&mut self) {
        if self.tb.standbys.is_empty() {
            self.recover(false);
            return;
        }
        let oracle = self.tb.oracle_twin().expect("the oracle twin recovers");
        let started = Instant::now();
        let promotion = self
            .tb
            .promote()
            .unwrap_or_else(|e| panic!("promotion failed: {e}"));
        let elapsed = started.elapsed();
        assert!(elapsed < MAX_FAILOVER, "failover took {elapsed:?}");
        self.promotions += 1;
        self.expect_oracle(&oracle);
        self.recovered(promotion.recovery.generation);
    }

    /// Recover in place; the recovery finds a torn tail exactly when the
    /// schedule tore one. Under load the clients keep writing, so the
    /// oracle comparison waits until they stop.
    fn recover(&mut self, under_load: bool) {
        let report = self
            .tb
            .recover_vm()
            .unwrap_or_else(|e| panic!("recovery failed: {e}"));
        let torn = std::mem::take(&mut self.torn);
        let reported = report.truncated_tail;
        assert_eq!(reported, torn, "torn tail reported wrongly: {report:?}");
        self.recoveries += 1;
        if !under_load {
            self.expect_oracle(&self.tb.oracle_fleet().expect("the twins recover"));
        }
        self.recovered(report.generation);
    }

    /// Invariant 4: the fleet's CA root and journaled state are its oracle
    /// twins'.
    fn expect_oracle(&self, oracle: &VmService) {
        let (oracle, fleet) = (FleetView::of(oracle), FleetView::of(&self.tb.vm));
        assert_eq!(
            (oracle.root, oracle.states),
            (fleet.root, fleet.states),
            "the fleet diverged from its oracle twins"
        );
    }

    /// A new incarnation: generations count up, and the host re-attests
    /// (trust dies with an incarnation).
    fn recovered(&mut self, generation: u64) {
        self.generation += 1;
        assert_eq!(
            generation, self.generation,
            "a recovery generation was lost"
        );
        self.tb.attest_host(0).expect("the host re-attests");
        self.reconcile();
    }

    fn burst(&mut self, burst: &Burst) {
        let recoveries = self.recoveries;
        let vm = self.tb.vm_service();
        let revocable: Vec<Credential> = self
            .live
            .drain(..burst.revocations.min(self.live.len()))
            .collect();
        let share = |pool: &[Credential], clients: usize, i: usize| -> Vec<Credential> {
            pool.iter().copied().skip(i).step_by(clients).collect()
        };
        let shared = Shared::default();
        let live = self.live.clone();
        let renewed: Vec<Credential> = std::thread::scope(|scope| {
            let shared = &shared;
            let mut clients = Vec::new();
            for i in 0..burst.renewers {
                let (vm, mut chains) = (vm.clone(), share(&live, burst.renewers, i));
                clients.push(scope.spawn(move || {
                    let mut renewed = Vec::new();
                    for _ in 0..burst.rounds {
                        for c in chains.iter_mut() {
                            let renew = || vm.renew_vnf_credential(c.serial, &c.key, CONTROLLER);
                            if let Some((_, certificate)) = shared.call("renewal", renew) {
                                c.serial = certificate.serial();
                                renewed.push(*c);
                            }
                        }
                    }
                    renewed
                }));
            }
            for i in 0..burst.revokers {
                let (vm, owned) = (vm.clone(), share(&revocable, burst.revokers, i));
                clients.push(scope.spawn(move || {
                    for c in owned {
                        let reason = RevocationReason::KeyCompromise;
                        let revoke = || vm.revoke_credential(c.serial, reason);
                        if shared.call("revocation", revoke).is_some() {
                            shared.revoked.lock().push(c.serial);
                        }
                    }
                    Vec::new()
                }));
            }
            for _ in 0..burst.pollers {
                let vm = vm.clone();
                clients.push(scope.spawn(move || {
                    for _ in 0..POLLS {
                        let before = shared.revoked.lock().clone();
                        if let Some(crl) = shared.call("CRL poll", || vm.latest_crl()) {
                            expect_on_crl(&crl, before);
                        }
                    }
                    Vec::new()
                }));
            }
            // The driver thread rides out what the clients run into.
            let (mut enrollments, mut forced) = (burst.enrollments, burst.recoveries);
            let recover = |chaos: &mut Chaos| {
                shared.recoveries.fetch_add(1, Ordering::SeqCst);
                chaos.recover(true);
                shared.recoveries.fetch_add(1, Ordering::SeqCst);
            };
            while !clients.iter().all(|client| client.is_finished()) {
                let crashed = shared.crashed.swap(false, Ordering::SeqCst);
                if crashed && self.tb.vm.crashed_site().is_some() {
                    recover(self);
                } else if forced > 0 {
                    forced -= 1;
                    recover(self);
                } else if enrollments > 0 {
                    enrollments -= 1;
                    self.flood_enroll(shared);
                } else {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            let joined = clients
                .into_iter()
                .map(|c| c.join().expect("a client panicked"));
            joined.flatten().collect()
        });
        let revoked: BTreeSet<u64> = shared.revoked.into_inner().into_iter().collect();
        for c in &renewed {
            self.acknowledge(c.serial);
        }
        self.live.extend(renewed);
        self.live
            .extend(revocable.iter().filter(|c| !revoked.contains(&c.serial)));
        self.revoked.extend(revoked);
        self.shed += shared.shed.into_inner();
        if self.tb.vm.crashed_site().is_some() {
            self.restore();
        } else if self.recoveries > recoveries {
            self.expect_oracle(&self.tb.oracle_fleet().expect("the twins recover"));
        }
    }

    /// One enrollment of the driver thread's flood, in one shot: shed,
    /// refused by a crashed shard, or acknowledged.
    fn flood_enroll(&mut self, shared: &Shared) {
        let enrolled = self.challenge().and_then(|(id, quote, key)| {
            let ias = &mut self.tb.ias;
            let enrollment = self
                .tb
                .vm
                .complete_vnf_enrollment(ias, id, &quote, &key, CONTROLLER);
            Ok(Credential {
                serial: enrollment?.1.serial(),
                key,
            })
        });
        self.turn += 1;
        match enrolled {
            Ok(c) => {
                self.acknowledge(c.serial);
                self.live.push(c);
                self.enrolled += 1;
            }
            Err(CoreError::Overloaded { .. }) => {
                shared.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(CoreError::VmCrashed(_)) => shared.crashed.store(true, Ordering::SeqCst),
            Err(e) => panic!("flood enrollment failed: {e}"),
        }
    }
}

/// What a burst's clients share with the driver thread.
#[derive(Default)]
struct Shared {
    /// A client saw a crash.
    crashed: AtomicBool,
    shed: AtomicUsize,
    /// Bumped as a recovery starts and once the host has re-attested to
    /// the new incarnation, so odd while one runs.
    recoveries: AtomicUsize,
    /// Revocations in the order they were acknowledged.
    revoked: Mutex<Vec<u64>>,
}

impl Shared {
    /// One client call under load. A crash is retried until the driver
    /// thread recovers the fleet, and so is a renewal the new incarnation
    /// refuses while a recovery overlaps the call, its host not yet
    /// re-attested. A shed request is counted and dropped; every other
    /// error fails the schedule.
    fn call<T>(&self, what: &str, mut call: impl FnMut() -> Result<T, CoreError>) -> Option<T> {
        let (began, since) = (self.recoveries.load(Ordering::SeqCst), Instant::now());
        while since.elapsed() < CLIENT_PATIENCE {
            match call() {
                Ok(value) => return Some(value),
                Err(CoreError::Overloaded { .. }) => {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                Err(CoreError::VmCrashed(_)) => self.crashed.store(true, Ordering::SeqCst),
                Err(CoreError::AttestationFailed(_)) if self.recovering_since(began) => {}
                Err(e) => panic!("{what} failed: {e}"),
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        panic!("a {what} never went through in {CLIENT_PATIENCE:?}");
    }

    fn recovering_since(&self, began: usize) -> bool {
        let now = self.recoveries.load(Ordering::SeqCst);
        now != began || now % 2 == 1
    }
}

/// Invariant 5: every serial in `revoked` is on `crl`.
fn expect_on_crl(crl: &Crl, revoked: impl IntoIterator<Item = u64>) {
    for serial in revoked {
        let listed = crl.lookup(serial).is_some();
        assert!(
            listed,
            "revoked serial {serial} missing from the CRL served"
        );
    }
}
