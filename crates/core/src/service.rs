//! [`VmService`]: the shard-routing service handle in front of the
//! Verification Manager fleet.
//!
//! A deployment partitions enrollment, serial and renewal state across N
//! [`VerificationManager`] shards keyed by VNF identity, while the CA key,
//! the CRL number and the rotation epoch live on a single serialized
//! *authority* shard (shard 0). `VmService` is the only surface callers
//! see: it owns the routing table and one fine-grained lock per shard, so
//! the handler threads of `serve_vm_api`, one per open connection, execute
//! manager work concurrently instead of convoying on one global mutex.
//!
//! Routing rules:
//! - **VNF identity** picks the shard for `begin_vnf_attestation` (a
//!   deterministic digest of the VNF name, mod shard count);
//! - **challenge ids** and **serials** are allocated from disjoint
//!   per-shard spans ([`shard_of_challenge`], [`shard_of_serial`]), so
//!   every later workflow step self-routes back to the shard that began
//!   it;
//! - **host attestation, CA, CRL, rotation and operator certificates**
//!   always go to the authority shard.
//!
//! Cross-shard coordination is explicit and small: CA rotations committed
//! on the authority are *adopted* (never independently performed) by the
//! others, and the fleet CRL folds every shard's revocations into one
//! authority-signed artifact. Adoption is not journaled: it touches no
//! shard's journaled state (the CA's keys and epoch), authority decisions
//! appear only in the authority's WAL, and recovery re-adopts from the
//! authority's replayed state (see `Testbed::recover_vm`). A fleet CRL
//! poll visits each other shard once, for its revocations and its CRL
//! revision (derived from its journaled revocations and CA epoch); the
//! authority alone keeps the CRL cache and signs afresh only when a
//! revision passed the one its cached CRL was signed at.
//!
//! What the deployment trusts — the whitelists, the host reference
//! database, the host verdicts and the TPM AIKs — is the service's one
//! [`Trust`], not a shard's: a host attestation writes one verdict, which
//! every shard reads, and a trust write takes no shard lock. The
//! evidence-carrying workflows (`complete_host_attestation`,
//! `prepare_vnf_enrollment`, `complete_vnf_enrollment`) take one
//! `&mut dyn AttestationBackend`. An IAS handle is one (every
//! `QuoteVerifier` is the SGX backend), and so are an SNP verifier and a
//! `MultiBackend`; each enters the workflow the same way.
//!
//! Every method takes `&self` and reaches a shard only through one of two
//! private accessors, each of which locks it for only as long as the
//! manager call runs — never across an agent hop (the `remote` module's
//! hops all happen between `VmService` calls), a WAL flush, a compaction,
//! replication streaming or credential minting. One network call still
//! runs under the lock: evidence appraisal, which is an IAS round trip
//! over the fabric in a distributed deployment, inside
//! `prepare_vnf_enrollment` and `complete_host_attestation`.
//!
//! - The shard accessor serves every call that journals or reads
//!   journaled state. The manager only *enqueues* its journal records.
//!   After unlocking, the accessor issues the call's WAL write, runs the
//!   call's [`Mint`] (client keygen, certificate signing and the bundle
//!   wrap) while that write is in flight, and then waits for durability.
//!   So one shard's concurrent callers share flushes (see
//!   `vnfguard_store`'s commit path), while no response leaves before its
//!   records — or any record it could have observed — are on the medium.
//! - The handshake accessor lends a [`Handshake`]: the host challenge and
//!   appraisal, the VNF challenge, TPM registration and the host
//!   revocation's flip. The view reaches only challenges and the host
//!   table, which no journal carries, so these steps take no commit wait
//!   and never sit out another caller's device write.

use crate::lifecycle::{CaRotation, LifecycleStatus, RenewalDue};
use crate::manager::{
    shard_of_challenge, shard_of_serial, Challenge, CommitTicket, Handshake, HostRecord,
    ManagerConfig, Mint, PendingCommit, RecoveryReport, VerificationManager, VmEvent,
};
use crate::overload::{AdmissionController, Workclass};
use crate::replication::ReplicationStatus;
use crate::revocation::RevocationNotifier;
use crate::trust::Trust;
use crate::CoreError;
use parking_lot::Mutex;
use std::convert::identity;
use std::sync::Arc;
use vnfguard_attest::{AttestationBackend, BackendKind, Measurement};
use vnfguard_controller::SimClock;
use vnfguard_crypto::sha2::sha256;
use vnfguard_ima::appraisal::Verdict;
use vnfguard_pki::cert::Certificate;
use vnfguard_pki::crl::{Crl, CrlEntry, RevocationReason};
use vnfguard_store::{EnrollmentEntry, PendingEntry, StateStore, StoreStats};
use vnfguard_telemetry::{
    current_trace, AlertSnapshot, HealthMonitor, Histogram, HistogramSnapshot, Telemetry,
};

/// Deterministic shard index for a VNF name: the first eight bytes of a
/// domain-separated digest, mod the shard count. Stable across runs and
/// incarnations, so a VNF's enrollment state always lives on one shard.
pub fn shard_of_vnf(vnf_name: &str, shard_count: usize) -> usize {
    if shard_count <= 1 {
        return 0;
    }
    let digest = sha256(&[b"vnfguard-shard-route-v1\0", vnf_name.as_bytes()].concat());
    let word = u64::from_be_bytes(digest[..8].try_into().expect("sha256 is 32 bytes"));
    (word % shard_count as u64) as usize
}

/// The current request's trace id, when its trace is sampled: health
/// outcomes and latency samples carry it as an exemplar.
fn recording_trace_id() -> Option<u128> {
    let ctx = current_trace();
    ctx.is_recording().then_some(ctx.trace_id)
}

/// Cloneable handle over the sharded Verification Manager fleet. See the
/// module docs for the routing and coordination rules.
#[derive(Clone)]
pub struct VmService {
    shards: Arc<Vec<Mutex<VerificationManager>>>,
    /// The fleet's clock and telemetry, taken from the authority when the
    /// service is built (every incarnation swapped in later shares them),
    /// so reading them never touches a shard.
    clock: SimClock,
    telemetry: Telemetry,
    /// The deployment's trust inputs, shared by every clone of the handle
    /// and lent to every shard's evidence workflows.
    trust: Trust,
    admission: Option<Arc<AdmissionController>>,
    health: Option<HealthHandle>,
    /// Offline SEV-SNP appraiser for this deployment, if SNP hosts exist.
    /// `serve_vm_api` folds it into its evidence-sniffing dispatcher so
    /// the one API surface serves a mixed SGX + SNP fleet.
    snp: Option<vnfguard_attest::snp::SnpVerifier>,
}

/// The SLO monitor. Each workclass also gets an exact log₂ latency
/// histogram (with trace exemplars) — the unit of cross-node merging in
/// the fleet monitor.
#[derive(Clone)]
struct HealthHandle {
    monitor: HealthMonitor,
    latency: [Histogram; 4],
    /// Per-(workclass, attestation backend) latency breakouts, indexed
    /// `[class.index()][backend.as_u8()]`. Only the evidence-carrying
    /// workflows charge these; the unlabeled per-class series above keeps
    /// counting everything, so the labeled series are a pure refinement.
    backend_latency: [[Histogram; 2]; 4],
}

impl VmService {
    /// Wrap a single manager (the unsharded deployment). Bit-for-bit
    /// identical behavior to calling the manager directly.
    pub fn single(vm: VerificationManager) -> VmService {
        VmService::from_shards(vec![vm])
    }

    /// Rebuild a crashed manager from its sealed store (snapshot + WAL
    /// replay, key re-derivation, orphan resolution; see the recovery
    /// invariants in DESIGN §8) and serve it as a single-shard service
    /// with empty trust inputs. The store must not be written by anyone
    /// else from here on.
    pub fn recover(
        config: ManagerConfig,
        seed: &[u8],
        clock: SimClock,
        telemetry: Telemetry,
        store: StateStore,
        notifier: Option<&mut RevocationNotifier>,
    ) -> Result<(VmService, RecoveryReport), CoreError> {
        let (vm, report) =
            VerificationManager::recover(config, seed, clock, telemetry, store, notifier)?;
        Ok((VmService::single(vm), report))
    }

    /// Wrap an already-constructed shard fleet, with empty trust inputs.
    /// Shard 0 is the authority; every manager must have been configured
    /// with [`VerificationManager::set_shard`] for its position.
    pub fn from_shards(shards: Vec<VerificationManager>) -> VmService {
        assert!(!shards.is_empty(), "a VmService needs at least one shard");
        VmService {
            clock: shards[0].clock().clone(),
            telemetry: shards[0].telemetry().clone(),
            shards: Arc::new(shards.into_iter().map(Mutex::new).collect()),
            trust: Trust::default(),
            admission: None,
            health: None,
            snp: None,
        }
    }

    /// Attach the deployment's offline SNP appraiser; `serve_vm_api`
    /// dispatches SNP evidence through it instead of the IAS path.
    pub fn with_snp_verifier(mut self, verifier: vnfguard_attest::snp::SnpVerifier) -> VmService {
        self.snp = Some(verifier);
        self
    }

    /// The attached SNP appraiser, if any.
    pub fn snp_verifier(&self) -> Option<&vnfguard_attest::snp::SnpVerifier> {
        self.snp.as_ref()
    }

    /// Put an [`AdmissionController`] in front of the workflow methods.
    /// Enrollment, renewal, revocation/CRL, and admitted introspection
    /// calls then pass the depth gate before queueing on a shard lock and
    /// the sojourn/deadline gate right after acquiring it. Commit and
    /// abort are deliberately *never* gated: shedding the second phase of
    /// a two-phase enrollment would orphan the prepare in the WAL.
    pub fn with_admission(mut self, admission: Arc<AdmissionController>) -> VmService {
        self.admission = Some(admission);
        self
    }

    pub fn admission(&self) -> Option<&AdmissionController> {
        self.admission.as_deref()
    }

    /// Attach an SLO [`HealthMonitor`]: every gated workflow call then
    /// reports its outcome (success, wall-clock latency, trace id) to the
    /// per-workclass burn-rate trackers. Shed and deadline-expired
    /// requests count as bad availability events — from the caller's view
    /// they failed, and the SLO measures the caller's view.
    pub fn with_health(mut self, monitor: HealthMonitor) -> VmService {
        let core = self.telemetry.namespace("core");
        let latency = Workclass::ALL
            .map(|class| core.histogram("workclass_latency_micros", &[("class", class.label())]));
        let backend_latency = Workclass::ALL.map(|class| {
            BackendKind::ALL.map(|backend| {
                core.histogram(
                    "workclass_latency_micros",
                    &[("class", class.label()), ("backend", backend.label())],
                )
            })
        });
        self.health = Some(HealthHandle {
            monitor,
            latency,
            backend_latency,
        });
        self
    }

    /// The attached SLO monitor, if any.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.health.as_ref().map(|h| &h.monitor)
    }

    /// Report one workflow outcome to the SLO trackers (no-op without a
    /// monitor). Latency is wall-clock from before the admission gate, so
    /// queueing time the caller experienced is charged to the SLO.
    fn note_health(&self, class: Workclass, begun: std::time::Instant, ok: bool) {
        if let Some(health) = &self.health {
            let micros = begun.elapsed().as_micros() as u64;
            let trace_id = recording_trace_id();
            health
                .monitor
                .record(class.label(), self.clock.now(), ok, micros, trace_id);
            let histogram = &health.latency[class.index()];
            match trace_id {
                Some(id) => histogram.record_with_exemplar(micros, id),
                None => histogram.record(micros),
            }
        }
    }

    /// Charge an evidence-carrying workflow outcome to its attestation
    /// backend's breakout series, and to the composite
    /// `<class>.<backend>` SLO tracker if the operator configured one
    /// (recording an unconfigured workclass label is a no-op by design).
    fn note_backend_health(
        &self,
        class: Workclass,
        backend: BackendKind,
        begun: std::time::Instant,
        ok: bool,
    ) {
        if let Some(health) = &self.health {
            let micros = begun.elapsed().as_micros() as u64;
            let trace_id = recording_trace_id();
            health.monitor.record(
                &format!("{}.{}", class.label(), backend.label()),
                self.clock.now(),
                ok,
                micros,
                trace_id,
            );
            let histogram = &health.backend_latency[class.index()][backend.as_u8() as usize];
            match trace_id {
                Some(id) => histogram.record_with_exemplar(micros, id),
                None => histogram.record(micros),
            }
        }
    }

    /// Run `f` behind both admission gates (no-ops when admission control
    /// is off) and report its outcome to the SLO trackers. The depth gate
    /// sheds before `f` runs when the class is full. `f` gets the
    /// sojourn/deadline gate to pass with the shard lock held, before it
    /// touches any state, so a shed leaves nothing behind. The SLO latency
    /// includes any WAL wait.
    fn admitted<R>(
        &self,
        class: Workclass,
        f: impl FnOnce(&dyn Fn() -> Result<(), CoreError>) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        let begun = std::time::Instant::now();
        let result = (|| {
            let permit = match &self.admission {
                Some(admission) => Some(admission.admit(class)?),
                None => None,
            };
            let dequeued = || match (self.admission.as_deref(), permit.as_ref()) {
                (Some(admission), Some(permit)) => admission.dequeued(permit),
                _ => Ok(()),
            };
            f(&dequeued)
        })();
        self.note_health(class, begun, result.is_ok());
        result
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The way to a shard's manager for every call but a handshake step.
    /// Runs `f` under the shard lock and takes the call's commit ticket
    /// (the store's appended LSN) before unlocking. Once the lock is
    /// released it issues the ticket's write if this caller may lead it
    /// ([`StateStore::begin`]), runs `unlocked` on `f`'s value while that
    /// write is in flight — a minting workflow's [`Mint`] runs there — and
    /// then waits for durability. So no shard lock is ever held across a
    /// device flush, a compaction, replication streaming or a mint, and no
    /// caller answers before every record it could have observed is
    /// durable: every read of journaled state waits, and a read that waits
    /// for others' records only is a read barrier. Returns the value
    /// `unlocked` made and the commit outcome.
    ///
    /// Crash rule: when the call leaves the manager crashed, it waits
    /// *before* unlocking and then quiesces the store
    /// ([`StateStore::quiesce`]). Everything journaled ahead of the crash
    /// site is durable, and no flush or compaction of the dead incarnation
    /// is still running, by the time its lock frees. Otherwise
    /// `Testbed::recover_vm` could replay the medium and swap in a new
    /// incarnation while the dead one still writes behind that replay, or
    /// truncates the log under what the new one journaled.
    fn on_shard<T, U>(
        &self,
        index: usize,
        f: impl FnOnce(&mut VerificationManager) -> T,
        unlocked: impl FnOnce(T) -> U,
    ) -> (U, Result<(), CoreError>) {
        let mut vm = self.shards[index].lock();
        let value = f(&mut vm);
        let ticket = vm.commit_ticket();
        if vm.crashed_site().is_some() {
            let committed = ticket.map_or(Ok(()), CommitTicket::wait);
            vm.quiesce_store();
            drop(vm);
            return (unlocked(value), committed);
        }
        drop(vm);
        let commit = ticket.map(CommitTicket::begin);
        let value = unlocked(value);
        (value, commit.map_or(Ok(()), PendingCommit::finish))
    }

    /// [`on_shard`](Self::on_shard) for a fallible manager call: a failed
    /// commit (a fenced primary's veto) fails a call that itself succeeded.
    pub(crate) fn call<R>(
        &self,
        index: usize,
        f: impl FnOnce(&mut VerificationManager) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        let (result, committed) = self.on_shard(index, f, identity);
        result.and_then(|value| committed.map(|()| value))
    }

    /// [`on_shard`](Self::on_shard) for an infallible call. It still waits
    /// for durability; a failed commit is audited by the wait and fails
    /// the fallible calls whose batch it was.
    pub(crate) fn run<T>(&self, index: usize, f: impl FnOnce(&mut VerificationManager) -> T) -> T {
        self.on_shard(index, f, identity).0
    }

    /// The way to a shard's [`Handshake`]: runs `f` under the shard lock
    /// and takes no commit ticket. The view reaches only the challenges and
    /// the host table, which no journal carries, so a handshake step
    /// observes no record that could still be in flight and answers once it
    /// is done.
    pub(crate) fn handshake<T>(&self, index: usize, f: impl FnOnce(&mut Handshake<'_>) -> T) -> T {
        f(&mut self.shards[index].lock().handshake(&self.trust))
    }

    /// The deployment's trust inputs and host table.
    pub(crate) fn trust(&self) -> &Trust {
        &self.trust
    }

    fn shard_for_vnf(&self, vnf_name: &str) -> usize {
        shard_of_vnf(vnf_name, self.shards.len())
    }

    /// Serials outside every shard's span (garbage input) route to the
    /// authority, which answers "no such enrollment".
    fn shard_for_serial(&self, serial: u64) -> usize {
        (shard_of_serial(serial) as usize).min(self.shards.len() - 1)
    }

    fn shard_for_challenge(&self, challenge_id: u64) -> usize {
        (shard_of_challenge(challenge_id) as usize).min(self.shards.len() - 1)
    }

    /// Run `f` on shard `index` behind both admission gates (see
    /// [`admitted`](Self::admitted)); a refused request touches no manager
    /// state. A successful value goes through `unlocked` after the lock
    /// drops (see [`on_shard`](Self::on_shard)).
    fn with_shard_gated<T, R>(
        &self,
        index: usize,
        class: Workclass,
        f: impl FnOnce(&mut VerificationManager) -> Result<T, CoreError>,
        unlocked: impl FnOnce(T) -> R,
    ) -> Result<R, CoreError> {
        self.admitted(class, |dequeued| {
            let (result, committed) = self.on_shard(
                index,
                |vm| {
                    dequeued()?;
                    f(vm)
                },
                |result| result.map(unlocked),
            );
            result.and_then(|value| committed.map(|()| value))
        })
    }

    /// The non-authority shards' revocation entries, and each one's CRL
    /// revision as of that read, in shard order: one visit per shard.
    fn gather_remote_revocations(&self) -> (Vec<CrlEntry>, Vec<u64>) {
        let mut extras = Vec::new();
        let revisions: Vec<u64> = (1..self.shards.len())
            .map(|index| {
                self.run(index, |vm| {
                    extras.extend(vm.revoked_entries());
                    vm.crl_revision()
                })
            })
            .collect();
        (extras, revisions)
    }

    /// Every shard's `f`, in shard order.
    fn each_shard<T>(&self, mut f: impl FnMut(&mut VerificationManager) -> T) -> Vec<T> {
        (0..self.shards.len())
            .map(|index| self.run(index, &mut f))
            .collect()
    }

    // ---- Host attestation (authority shard) -------------------------------
    //
    // Every step here but the degraded verdict and the host revocation is
    // a handshake step: it takes no commit wait.

    /// Register a host TPM AIK ahead of attestation.
    pub fn register_host_tpm(
        &self,
        host_id: &str,
        aik: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Result<(), CoreError> {
        self.handshake(0, |handshake| handshake.register_host_tpm(host_id, aik))
    }

    /// Step 1: challenge a container host.
    pub fn begin_host_attestation(&self, host_id: &str) -> Result<Challenge, CoreError> {
        self.handshake(0, |handshake| handshake.begin_host_attestation(host_id))
    }

    /// Step 2: verify and appraise host evidence through any attestation
    /// backend (an IAS handle is one). The verdict replaces the host's one
    /// entry, which every shard reads.
    pub fn complete_host_attestation(
        &self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        evidence: &crate::attestation::HostEvidence,
    ) -> Result<Verdict, CoreError> {
        self.handshake(0, |handshake| {
            handshake.complete_host_attestation(backend, challenge_id, evidence)
        })
    }

    /// Policy-gated reuse of a cached host verdict when the attestation
    /// service is unreachable.
    pub fn degraded_host_verdict(&self, host_id: &str) -> Result<Verdict, CoreError> {
        self.call(0, |vm| vm.degraded_host_verdict(&self.trust, host_id))
    }

    /// Platform-compromise response. First the host's one verdict turns
    /// untrusted, behind the authority's liveness check, so no shard
    /// challenges, enrolls or renews for it from then on; then every shard
    /// revokes its own credentials for the host. Returns how many the call
    /// revoked fleet-wide; a shard whose revocation or commit fails fails
    /// the call.
    pub fn revoke_host(&self, host_id: &str) -> Result<usize, CoreError> {
        self.handshake(0, |handshake| handshake.distrust_host(host_id))?;
        let mut revoked = 0;
        for index in 0..self.shards.len() {
            revoked += self.call(index, |vm| vm.revoke_host(host_id))?;
        }
        Ok(revoked)
    }

    /// The host's last appraisal, read without a shard lock.
    pub fn host_record(&self, host_id: &str) -> Option<HostRecord> {
        self.trust.hosts().verdicts.get(host_id).cloned()
    }

    /// Drop an unanswered challenge: a handshake that fails after its
    /// challenge was issued withdraws it, so a failed or shed handshake
    /// leaves nothing outstanding.
    pub(crate) fn withdraw_challenge(&self, challenge_id: u64) {
        let shard = self.shard_for_challenge(challenge_id);
        self.handshake(shard, |handshake| {
            handshake.withdraw_challenge(challenge_id)
        });
    }

    // ---- VNF enrollment (routed shards) -----------------------------------

    /// Step 3: initiate VNF attestation on the shard that owns this VNF's
    /// identity. The returned challenge id self-routes the later steps. A
    /// handshake step behind the enrollment class's admission gates.
    pub fn begin_vnf_attestation(
        &self,
        host_id: &str,
        vnf_name: &str,
    ) -> Result<Challenge, CoreError> {
        let shard = self.shard_for_vnf(vnf_name);
        self.admitted(Workclass::Enrollment, |dequeued| {
            self.handshake(shard, |handshake| {
                dequeued()?;
                handshake.begin_vnf_attestation(host_id, vnf_name)
            })
        })
    }

    /// Steps 4–5 in one shot through any attestation backend: prepare then
    /// commit under one shard-lock hold. Use the two-phase form when the
    /// bundle crosses a network that can fail mid-delivery.
    pub fn complete_vnf_enrollment(
        &self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<(Vec<u8>, Certificate), CoreError> {
        let begun = std::time::Instant::now();
        let shard = self.shard_for_challenge(challenge_id);
        let result = self.with_shard_gated(
            shard,
            Workclass::Enrollment,
            |vm| {
                let mint = vm.prepare_vnf_enrollment(
                    &self.trust,
                    &mut *backend,
                    challenge_id,
                    quote_bytes,
                    provisioning_key,
                    controller_cn,
                )?;
                vm.commit_vnf_enrollment(mint.serial())?;
                Ok(mint)
            },
            Mint::run,
        );
        self.note_backend_health(Workclass::Enrollment, backend.kind(), begun, result.is_ok());
        result
    }

    /// Phase one of two-phase enrollment through any attestation backend;
    /// the returned serial is the commit token (and routes the
    /// commit/abort back here).
    pub fn prepare_vnf_enrollment(
        &self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<(u64, Vec<u8>, Certificate), CoreError> {
        let begun = std::time::Instant::now();
        let shard = self.shard_for_challenge(challenge_id);
        let result = self.with_shard_gated(
            shard,
            Workclass::Enrollment,
            |vm| {
                vm.prepare_vnf_enrollment(
                    &self.trust,
                    &mut *backend,
                    challenge_id,
                    quote_bytes,
                    provisioning_key,
                    controller_cn,
                )
            },
            |mint| {
                let (wrapped, certificate) = mint.run();
                (certificate.serial(), wrapped, certificate)
            },
        );
        self.note_backend_health(Workclass::Enrollment, backend.kind(), begun, result.is_ok());
        result
    }

    pub fn commit_vnf_enrollment(&self, serial: u64) -> Result<(), CoreError> {
        let shard = self.shard_for_serial(serial);
        self.call(shard, |vm| vm.commit_vnf_enrollment(serial))
    }

    pub fn abort_vnf_enrollment(&self, serial: u64, reason: &str) -> Result<(), CoreError> {
        let shard = self.shard_for_serial(serial);
        self.call(shard, |vm| vm.abort_vnf_enrollment(serial, reason))
    }

    /// Enrollments issued but not yet committed, across all shards.
    pub fn pending_enrollments(&self) -> impl Iterator<Item = PendingEntry> {
        self.each_shard(|vm| vm.pending_enrollments().cloned().collect::<Vec<_>>())
            .into_iter()
            .flatten()
    }

    /// Expire prepared-but-uncommitted enrollments on every shard; returns
    /// the fleet-wide count.
    pub fn sweep_pending_enrollments(&self) -> Result<usize, CoreError> {
        let mut swept = 0;
        for index in 0..self.shards.len() {
            swept += self.call(index, |vm| vm.sweep_pending_enrollments())?;
        }
        Ok(swept)
    }

    /// Every shard's enrollment records (authority first, then shards in
    /// ascending order — the same deterministic order recovery replays).
    pub fn enrollments(&self) -> impl Iterator<Item = EnrollmentEntry> {
        self.each_shard(|vm| vm.enrollments().cloned().collect::<Vec<_>>())
            .into_iter()
            .flatten()
    }

    // ---- Renewal and revocation -------------------------------------------

    /// Renew a live credential by serial on the shard that issued it.
    pub fn renew_vnf_credential(
        &self,
        serial: u64,
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<(Vec<u8>, Certificate), CoreError> {
        let shard = self.shard_for_serial(serial);
        self.with_shard_gated(
            shard,
            Workclass::Renewal,
            |vm| vm.renew_vnf_credential(&self.trust, serial, provisioning_key, controller_cn),
            Mint::run,
        )
    }

    pub fn revoke_credential(
        &self,
        serial: u64,
        reason: RevocationReason,
    ) -> Result<(), CoreError> {
        let shard = self.shard_for_serial(serial);
        self.with_shard_gated(
            shard,
            Workclass::Revocation,
            |vm| vm.revoke_credential(serial, reason),
            identity,
        )
    }

    pub fn credential_is_revoked(&self, serial: u64) -> bool {
        let shard = self.shard_for_serial(serial);
        self.run(shard, |vm| vm.credential_is_revoked(serial))
    }

    /// Record a refused renewal (see
    /// [`VerificationManager::note_renewal_refused`]) on the owning shard.
    /// Ungated: the bookkeeping that *stops* refused renewals from being
    /// re-offered must not itself be sheddable.
    pub fn note_renewal_refused(&self, serial: u64, retry_after_secs: u64) {
        let shard = self.shard_for_serial(serial);
        self.run(shard, |vm| {
            vm.note_renewal_refused(serial, retry_after_secs)
        });
    }

    /// The instant before which refused-renewal backoff hides `serial`
    /// from the renewal sweep, if the serial is parked.
    pub fn renewal_backoff_until(&self, serial: u64) -> Option<u64> {
        let shard = self.shard_for_serial(serial);
        self.run(shard, |vm| vm.renewal_backoff_until(serial))
    }

    /// Credentials inside their renewal window, across all shards.
    pub fn certs_expiring(&self) -> Vec<RenewalDue> {
        self.each_shard(|vm| vm.certs_expiring()).concat()
    }

    // ---- CA, CRL and rotation (authority shard) ---------------------------

    pub fn ca_certificate(&self) -> Certificate {
        self.run(0, |vm| vm.ca_certificate().clone())
    }

    pub fn ca_epoch(&self) -> u64 {
        self.run(0, |vm| vm.ca_epoch())
    }

    pub fn ca_cross_signed(&self) -> Option<Certificate> {
        self.run(0, |vm| vm.ca_cross_signed().cloned())
    }

    pub fn ca_previous_roots(&self) -> Vec<Certificate> {
        self.run(0, |vm| vm.ca_previous_roots().to_vec())
    }

    pub fn ca_rotation_chain(&self) -> Vec<(u64, Certificate, Certificate)> {
        self.run(0, |vm| vm.ca_rotation_chain())
    }

    pub fn rotation_drain_deadline(&self) -> Option<u64> {
        self.run(0, |vm| vm.rotation_drain_deadline())
    }

    /// Rotate the authority's CA key; every other shard then adopts the
    /// committed epoch so its future issuance is signed by the new key. A
    /// crashed shard skips adoption here and re-adopts during recovery.
    pub fn rotate_ca(&self) -> Result<CaRotation, CoreError> {
        let (rotation, rotated_at) = self.call(0, |vm| {
            let rotated_at = vm.clock().now();
            Ok((vm.rotate_ca()?, rotated_at))
        })?;
        for index in 1..self.shards.len() {
            self.run(index, |vm| {
                let _ = vm.adopt_rotation(
                    rotation.epoch,
                    rotation.new_root.serial(),
                    rotation.cross_signed.serial(),
                    rotated_at,
                );
            });
        }
        Ok(rotation)
    }

    /// Mint a fresh fleet CRL: the authority journals the number bump and
    /// signs its own revocations merged with every other shard's. Gated
    /// in the revocation class — the highest, so CRL work still admits
    /// under an enrollment flood.
    pub fn issue_crl(&self) -> Result<Crl, CoreError> {
        self.fleet_crl(true)
    }

    /// The fleet CRL to serve to polling relying parties: the authority's
    /// cached copy unless a shard's revocations (or a rotation) moved its
    /// revision past the one that copy was signed at.
    pub fn latest_crl(&self) -> Result<Crl, CoreError> {
        self.fleet_crl(false)
    }

    /// [`issue_crl`](Self::issue_crl) when `fresh`, else
    /// [`latest_crl`](Self::latest_crl).
    fn fleet_crl(&self, fresh: bool) -> Result<Crl, CoreError> {
        self.admitted(Workclass::Revocation, |dequeued| {
            let (extras, revisions) = self.gather_remote_revocations();
            self.call(0, |authority| {
                dequeued()?;
                if fresh {
                    authority.issue_crl(&extras, &revisions)
                } else {
                    authority.latest_crl(&extras, &revisions)
                }
            })
        })
    }

    /// Read-only preview of the fleet CRL (no journaling, no number bump).
    pub fn current_crl(&self, lifetime_secs: u64) -> Crl {
        let (extras, _) = self.gather_remote_revocations();
        self.run(0, |vm| vm.current_crl(&extras, lifetime_secs))
    }

    /// Issue an operator client certificate on the authority shard.
    ///
    /// # Panics
    ///
    /// When the authority refuses: a crashed, halted or fenced manager
    /// issues nothing, and a certificate no journal holds is not handed
    /// out.
    pub fn issue_client_certificate(
        &self,
        cn: &str,
        public_key: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Certificate {
        self.call(0, |vm| vm.issue_client_certificate(cn, public_key))
            .unwrap_or_else(|e| panic!("operator certificate refused: {e}"))
    }

    /// Issue a server certificate on the authority shard.
    ///
    /// # Panics
    ///
    /// As [`issue_client_certificate`](Self::issue_client_certificate).
    pub fn issue_server_certificate(
        &self,
        cn: &str,
        public_key: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Certificate {
        self.call(0, |vm| vm.issue_server_certificate(cn, public_key))
            .unwrap_or_else(|e| panic!("operator certificate refused: {e}"))
    }

    // ---- Deployment trust inputs ------------------------------------------
    //
    // These write the service's one `Trust` and touch no shard, so they
    // never wait behind a workflow or its WAL write.

    /// Whitelist a credential-enclave measurement for every shard (any
    /// shard may be asked to enroll this VNF). SGX-scoped; see
    /// [`trust_enclave_for`](Self::trust_enclave_for).
    pub fn trust_enclave(&self, measurement: Measurement, label: &str) {
        self.trust_enclave_for(BackendKind::SgxEpid, measurement, label);
    }

    /// Whitelist a workload measurement under a specific attestation
    /// backend. Whitelists are backend-scoped: an SNP launch measurement
    /// never satisfies an SGX enrollment or vice versa.
    pub fn trust_enclave_for(&self, backend: BackendKind, measurement: Measurement, label: &str) {
        let mut trust = self.trust.write();
        trust
            .enclaves
            .insert((backend, measurement), label.to_string());
    }

    /// Backend-scoped integrity-enclave whitelist entry.
    pub fn trust_integrity_enclave_for(
        &self,
        backend: BackendKind,
        measurement: Measurement,
        label: &str,
    ) {
        let mut trust = self.trust.write();
        trust
            .integrity_enclaves
            .insert((backend, measurement), label.to_string());
    }

    /// Allow a host file's content in the reference database.
    pub fn allow_reference_content(&self, path: &str, content: &[u8]) {
        self.trust.write().reference_db.allow_content(path, content);
    }

    /// Swap `placeholder` in for shard `index`'s incarnation and serve the
    /// one it replaces as a single-shard service over the same trust.
    pub(crate) fn detach(&self, index: usize, placeholder: VerificationManager) -> VmService {
        let detached = self.run(index, |slot| std::mem::replace(slot, placeholder));
        VmService {
            trust: self.trust.clone(),
            ..VmService::single(detached)
        }
    }

    // ---- Operator surface --------------------------------------------------

    pub fn hmac_tag(&self, message: &[u8]) -> [u8; 32] {
        self.run(0, |vm| vm.hmac_tag(message))
    }

    pub fn share_hmac_key(&self) -> [u8; 32] {
        self.run(0, |vm| vm.share_hmac_key())
    }

    /// Short identity fingerprint of the authority CA, for logs.
    pub fn fingerprint(&self) -> String {
        self.run(0, |vm| vm.fingerprint())
    }

    /// Credentials issued fleet-wide (per-shard allocators live in
    /// disjoint serial spans; counts simply add).
    pub fn issued_count(&self) -> u64 {
        self.each_shard(|vm| vm.issued_count()).into_iter().sum()
    }

    /// The audit journal (shared telemetry; one journal for the fleet).
    pub fn events(&self) -> Vec<VmEvent> {
        self.run(0, |vm| vm.events())
    }

    /// Fleet lifecycle posture: per-shard active/expiring counts summed,
    /// CA/CRL/rotation posture from the authority.
    pub fn lifecycle_status(&self) -> LifecycleStatus {
        let status = self.run(0, |vm| vm.lifecycle_status());
        self.add_shard_lifecycle(status)
    }

    /// Fold every non-authority shard's active/expiring counts into the
    /// authority's `status`.
    fn add_shard_lifecycle(&self, mut status: LifecycleStatus) -> LifecycleStatus {
        for index in 1..self.shards.len() {
            let shard_status = self.run(index, |vm| vm.lifecycle_status());
            status.active += shard_status.active;
            status.expiring += shard_status.expiring;
        }
        status
    }

    /// [`lifecycle_status`](Self::lifecycle_status) behind the
    /// introspection admission class — the smallest queue, so status
    /// polling is the first traffic shed when the fleet is busy saving
    /// credentials. Serving-path callers use this; harness code that must
    /// never be refused keeps the ungated form.
    pub fn lifecycle_status_admitted(&self) -> Result<LifecycleStatus, CoreError> {
        self.admitted(Workclass::Introspection, |dequeued| {
            let status = self.call(0, |authority| {
                dequeued()?;
                Ok(authority.lifecycle_status())
            })?;
            Ok(self.add_shard_lifecycle(status))
        })
    }

    /// Node-loss injection: halt every shard in place.
    pub fn halt(&self, reason: &str) {
        self.each_shard(|vm| vm.halt(reason));
    }

    /// The crash site that halted a shard, if any (authority first).
    pub fn crashed_site(&self) -> Option<String> {
        (0..self.shards.len())
            .find_map(|index| self.run(index, |vm| vm.crashed_site().map(str::to_string)))
    }

    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The authority's last recovery report, if it was recovered.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.run(0, |vm| vm.recovery_report().cloned())
    }

    /// Authority-shard sealed-store occupancy.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.run(0, |vm| vm.store_stats())
    }

    /// Authority-shard replication posture: role, epoch and per-standby
    /// lag, `None` when unreplicated. Reading refreshes the replication
    /// gauges. The status is read outside the shard lock: it waits for any
    /// pump streaming to a standby.
    pub fn replication_status(&self) -> Option<ReplicationStatus> {
        self.run(0, |vm| vm.replica_set()).map(|set| set.status())
    }

    /// Emit a replication heartbeat from the authority shard's primary
    /// handle, streaming outside the shard lock. Drains any buffered
    /// records first, so a quiet primary still converges its standbys.
    pub fn replication_heartbeat(&self) {
        if let Some(set) = self.run(0, |vm| vm.replica_set()) {
            set.heartbeat();
        }
    }

    /// The full per-process health picture: admission posture per
    /// workclass, per-shard durability/replication/recovery state, and the
    /// evaluated SLO alerts. This is what `GET /vm/health` serves and what
    /// the fleet monitor scrapes. Locks one shard at a time, never across
    /// anything slow.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let at = self.clock().now();
        let admission = match &self.admission {
            Some(admission) => Workclass::ALL
                .iter()
                .map(|&class| AdmissionHealth {
                    class: class.label(),
                    depth: admission.waiting(class),
                    bound: admission.bound(class),
                    shed: admission.shed_count(class),
                    deadline_exceeded: admission.deadline_count(class),
                })
                .collect(),
            None => Vec::new(),
        };
        let shards = (0..self.shards.len())
            .map(|index| {
                let (mut health, replication) = self.run(index, |vm| {
                    let wal = vm.wal_append_latency();
                    let health = ShardHealth {
                        shard: index,
                        wal_records: vm.wal_record_count(),
                        wal_append_p50_micros: wal.quantile(0.50),
                        wal_append_p99_micros: wal.quantile(0.99),
                        wal_append_max_micros: wal.max,
                        recovery_generation: vm
                            .recovery_report()
                            .map_or(0, |report| report.generation),
                        crashed_site: vm.crashed_site().map(str::to_string),
                        replication: None,
                    };
                    (health, vm.replica_set())
                });
                health.replication = replication.map(|set| set.status());
                health
            })
            .collect();
        let (alerts, latency) = match &self.health {
            Some(health) => {
                let mut latency: Vec<WorkclassLatency> = Workclass::ALL
                    .iter()
                    .map(|&class| WorkclassLatency {
                        class: class.label().to_string(),
                        histogram: health.latency[class.index()].snapshot(),
                    })
                    .collect();
                // Backend breakouts ride along as composite workclass
                // labels (`enrollment.sgx`), so the fleet monitor merges
                // them as distinct series and never double-counts them
                // into the unlabeled class totals. Empty breakouts are
                // omitted — a pure-SGX fleet's health document looks
                // exactly as it did before backends existed.
                for &class in Workclass::ALL.iter() {
                    for backend in BackendKind::ALL {
                        let snapshot = health.backend_latency[class.index()]
                            [backend.as_u8() as usize]
                            .snapshot();
                        if snapshot.count > 0 {
                            latency.push(WorkclassLatency {
                                class: format!("{}.{}", class.label(), backend.label()),
                                histogram: snapshot,
                            });
                        }
                    }
                }
                (health.monitor.evaluate(at), latency)
            }
            None => (Vec::new(), Vec::new()),
        };
        HealthSnapshot {
            at,
            shard_count: self.shards.len(),
            admission,
            shards,
            latency,
            alerts,
        }
    }
}

/// One workclass's exact latency distribution inside a [`HealthSnapshot`]
/// — what the fleet monitor merges across nodes.
#[derive(Clone, Debug)]
pub struct WorkclassLatency {
    /// Workclass label — a plain class (`enrollment`), or a
    /// backend-scoped breakout (`enrollment.sgx`) for the
    /// evidence-carrying workflows.
    pub class: String,
    /// Exact log₂ distribution with trace exemplars.
    pub histogram: HistogramSnapshot,
}

/// One workclass's admission posture inside a [`HealthSnapshot`].
#[derive(Clone, Debug)]
pub struct AdmissionHealth {
    /// Workclass label (`enrollment`, `renewal`, ...).
    pub class: &'static str,
    /// Requests currently queued for a shard lock.
    pub depth: usize,
    /// The class's depth bound.
    pub bound: usize,
    /// Requests shed by the depth or sojourn gate so far.
    pub shed: u64,
    /// Requests abandoned because their deadline expired.
    pub deadline_exceeded: u64,
}

/// One shard's health inside a [`HealthSnapshot`].
#[derive(Clone, Debug)]
pub struct ShardHealth {
    /// Shard index (0 = authority).
    pub shard: usize,
    /// WAL records journaled by this incarnation.
    pub wal_records: u64,
    /// Median wall-clock WAL append latency (0 when volatile).
    pub wal_append_p50_micros: u64,
    /// p99 wall-clock WAL append latency.
    pub wal_append_p99_micros: u64,
    /// Worst observed WAL append latency.
    pub wal_append_max_micros: u64,
    /// Recovery generation (0 for a never-recovered incarnation).
    pub recovery_generation: u64,
    /// The crash site that halted this shard, if one fired.
    pub crashed_site: Option<String>,
    /// Replication role, lag, and heartbeat age; `None` when unreplicated.
    pub replication: Option<ReplicationStatus>,
}

/// The process-local health picture served by `GET /vm/health`.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Simulated time the snapshot was taken.
    pub at: u64,
    /// Shards in this service handle.
    pub shard_count: usize,
    /// Per-workclass admission posture (empty without admission control).
    pub admission: Vec<AdmissionHealth>,
    /// Per-shard durability and replication state, shard order.
    pub shards: Vec<ShardHealth>,
    /// Per-workclass latency distributions (empty without a monitor).
    pub latency: Vec<WorkclassLatency>,
    /// Evaluated SLO alerts (empty without a [`HealthMonitor`]).
    pub alerts: Vec<AlertSnapshot>,
}

impl std::fmt::Debug for VmService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmService")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attestation::host_tee_evidence;
    use crate::deployment::{Testbed, TestbedBuilder, TestbedHost};
    use crate::remote::RemoteIas;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Duration;
    use vnfguard_store::Media;

    /// A durable, host-attested testbed with `count` enrolled credentials
    /// whose VNF names route to `shard` of `shards`: (serial, key) each.
    fn enrolled_on(
        seed: &[u8],
        shards: usize,
        shard: usize,
        count: usize,
    ) -> (Testbed, Vec<(u64, [u8; 32])>) {
        let mut tb = TestbedBuilder::new(seed).durable().shards(shards).build();
        tb.attest_host(0).unwrap();
        let names: Vec<String> = (0..)
            .map(|i| format!("vnf-svc-{i}"))
            .filter(|name| shard_of_vnf(name, shards) == shard)
            .take(count)
            .collect();
        let credentials = names
            .iter()
            .map(|name| {
                let guard = tb.deploy_guard(0, name, 1).unwrap();
                let key = guard.provisioning_key().unwrap();
                (tb.enroll(0, &guard).unwrap().serial(), key)
            })
            .collect();
        (tb, credentials)
    }

    /// One host attestation through `ias`, answered as the host's agent
    /// would answer it.
    fn attest(vm: &VmService, ias: &mut RemoteIas, host: &TestbedHost) -> Verdict {
        let challenge = vm.begin_host_attestation(&host.id).unwrap();
        let iml = host.container_host.measurement_list().encode();
        let evidence = host_tee_evidence(
            &host.platform,
            None,
            &host.integrity_enclave,
            iml,
            &challenge.nonce,
            None,
        )
        .unwrap();
        vm.complete_host_attestation(ias, challenge.id, &evidence)
            .unwrap()
    }

    /// A VNF name that routes to each of `shards` shards, in shard order.
    fn vnf_per_shard(shards: usize) -> Vec<String> {
        (0..shards)
            .map(|shard| {
                (0..)
                    .map(|i| format!("vnf-per-shard-{i}"))
                    .find(|name| shard_of_vnf(name, shards) == shard)
                    .unwrap()
            })
            .collect()
    }

    /// Raises its flag when dropped, by a panic too.
    struct RaiseOnDrop<'a>(&'a AtomicBool);

    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Host 1 re-attests in a loop while host 0 is revoked and re-attests,
    /// round after round: once `revoke_host` returns, no shard challenges
    /// a VNF on host 0, neither at once nor after host 1's attestation in
    /// flight at the revocation has finished.
    #[test]
    fn a_revoked_host_is_refused_on_every_shard_while_another_host_attests() {
        let mut tb = TestbedBuilder::new(b"svc revoke race")
            .hosts(2)
            .shards(2)
            .build();
        let report_key = tb.ias.report_signing_key();
        let (_server, mut ias) = tb.serve_ias("ias:443").unwrap();
        let mut other_ias = RemoteIas::new(&tb.network, "ias:443", report_key);
        let (vm, other) = (tb.vm_service(), tb.hosts.remove(1));
        let vnfs = vnf_per_shard(2);
        let (stop, attested) = (AtomicBool::new(false), AtomicUsize::new(0));
        let accepted = std::thread::scope(|scope| {
            let (vm, stop, attested) = (&vm, &stop, &attested);
            let other_host = scope.spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    attest(vm, &mut other_ias, &other);
                    attested.fetch_add(1, Ordering::SeqCst);
                }
            });
            let accepted = || {
                vnfs.iter()
                    .filter(|vnf| vm.begin_vnf_attestation("host-0", vnf).is_ok())
                    .count()
            };
            // A failed round stops the other host's loop, so the scope joins.
            let _stop = RaiseOnDrop(stop);
            let mut total = 0;
            for _ in 0..100 {
                attest(vm, &mut ias, &tb.hosts[0]);
                vm.revoke_host("host-0").unwrap();
                let revoked_at = attested.load(Ordering::SeqCst);
                total += accepted();
                while attested.load(Ordering::SeqCst) == revoked_at {
                    assert!(!other_host.is_finished(), "host-1 stopped attesting");
                    std::thread::yield_now();
                }
                total += accepted();
            }
            total
        });
        assert_eq!(
            accepted, 0,
            "VNF challenges for host-0 granted after its revocation"
        );
    }

    /// After a recovery every shard refuses the host until it re-attests,
    /// and it re-attests with its TPM quote: its AIK outlives the
    /// incarnation, registered once at build.
    #[test]
    fn a_recovered_fleet_refuses_the_host_until_it_re_attests_with_its_tpm() {
        let mut tb = TestbedBuilder::new(b"svc recovered tpm host")
            .with_tpm()
            .durable()
            .shards(2)
            .build();
        let vm = tb.vm_service();
        let registrations = || {
            vm.events()
                .iter()
                .filter(|event| event.kind == "tpm_registered")
                .count()
        };
        let registered = registrations();
        tb.attest_host(0).unwrap();
        tb.recover_vm().unwrap();
        let vnfs = vnf_per_shard(2);
        for vnf in &vnfs {
            let refused = vm.begin_vnf_attestation("host-0", vnf);
            assert!(refused.is_err(), "{vnf}'s shard kept the host's verdict");
        }
        assert!(tb.attest_host(0).unwrap().is_trusted());
        for vnf in &vnfs {
            vm.begin_vnf_attestation("host-0", vnf).unwrap();
        }
        assert_eq!(registrations(), registered, "an AIK was registered again");
    }

    #[test]
    fn crl_clear_keeps_a_revocation_that_landed_after_the_gather() {
        let (tb, credentials) = enrolled_on(b"svc crl race", 2, 1, 1);
        let serial = credentials[0].0;
        let vm = tb.vm_service();
        assert_eq!(shard_of_serial(serial), 1);
        // A CRL poll gathers the remote shards' entries and revisions ...
        let (extras, revisions) = vm.gather_remote_revocations();
        // ... a revocation is acknowledged on shard 1 meanwhile ...
        vm.revoke_credential(serial, RevocationReason::KeyCompromise)
            .unwrap();
        // ... and the authority signs what the gather saw.
        vm.call(0, |authority| authority.latest_crl(&extras, &revisions))
            .unwrap();
        // The next poll must not re-serve a CRL without the revocation.
        let crl = vm.latest_crl().unwrap();
        assert!(
            crl.lookup(serial).is_some(),
            "acknowledged revocation of {serial} missing from the served CRL"
        );
    }

    #[test]
    fn a_crl_signed_from_an_older_gather_keeps_the_newer_revocations() {
        let (tb, credentials) = enrolled_on(b"svc crl reorder", 2, 1, 1);
        let serial = credentials[0].0;
        let vm = tb.vm_service();
        // An operator's CRL push gathers the remote shards' entries ...
        let (stale, revisions) = vm.gather_remote_revocations();
        // ... a revocation lands and a poll gathers and signs it ...
        vm.revoke_credential(serial, RevocationReason::KeyCompromise)
            .unwrap();
        assert!(vm.latest_crl().unwrap().lookup(serial).is_some());
        // ... and the push signs its older entries and revisions last.
        vm.call(0, |authority| authority.issue_crl(&stale, &revisions))
            .unwrap();
        let crl = vm.latest_crl().unwrap();
        assert!(
            crl.lookup(serial).is_some(),
            "acknowledged revocation of {serial} dropped by a CRL signed from an older gather"
        );
    }

    /// A journaled write that a reader may observe while it is in flight.
    trait InFlight: Copy + Send {
        fn write(self, vm: &VmService);
        /// Whether `twin`, replayed from the medium, holds the write.
        fn landed(self, twin: &VmService) -> bool;
    }

    /// A serial stands for its revocation.
    impl InFlight for u64 {
        fn write(self, vm: &VmService) {
            vm.revoke_credential(self, RevocationReason::KeyCompromise)
                .unwrap()
        }

        fn landed(self, twin: &VmService) -> bool {
            twin.credential_is_revoked(self)
        }
    }

    /// The first CA rotation.
    #[derive(Clone, Copy)]
    struct FirstRotation;

    impl InFlight for FirstRotation {
        fn write(self, vm: &VmService) {
            vm.rotate_ca().unwrap();
        }

        fn landed(self, twin: &VmService) -> bool {
            twin.ca_epoch() == 1
        }
    }

    /// Make `write` on a slow medium while `read` polls the same shard:
    /// the first answer that reflects the write may only leave once the
    /// write replays from a fork of the medium.
    fn reader_waits_for(tb: &Testbed, write: impl InFlight, read: impl Fn(&VmService) -> bool) {
        let vm = tb.vm_service();
        tb.store_media()
            .unwrap()
            .set_write_latency(Duration::from_millis(150));
        std::thread::scope(|scope| {
            let writer = vm.clone();
            scope.spawn(move || write.write(&writer));
            while !read(&vm) {}
            let twin = tb.oracle_twin().unwrap();
            assert!(
                write.landed(&twin),
                "an answer showing an in-flight write left before it was durable"
            );
        });
    }

    #[test]
    fn readers_that_see_an_in_flight_revocation_wait_until_it_is_durable() {
        let (tb, credentials) = enrolled_on(b"svc reader waits", 1, 0, 2);
        let (polled, listed) = (credentials[0].0, credentials[1].0);
        reader_waits_for(&tb, polled, |vm| vm.credential_is_revoked(polled));
        reader_waits_for(&tb, listed, |vm| {
            vm.latest_crl().unwrap().lookup(listed).is_some()
        });
    }

    #[test]
    fn a_ca_root_reader_waits_for_an_in_flight_rotation() {
        let (tb, _) = enrolled_on(b"svc root reader waits", 1, 0, 1);
        let root = tb.vm_service().ca_certificate().serial();
        reader_waits_for(&tb, FirstRotation, |vm| {
            vm.ca_certificate().serial() != root
        });
    }

    /// A prepared enrollment on a revoked host ends with it: `revoke_host`
    /// counts it, its commit fails, and its serial is revoked.
    #[test]
    fn revoke_host_ends_a_prepared_enrollment_on_the_host() {
        let mut tb = TestbedBuilder::new(b"svc revoke prepared")
            .durable()
            .build();
        tb.attest_host(0).unwrap();
        let guard = tb.deploy_guard(0, "vnf-prepared", 1).unwrap();
        let vm = tb.vm_service();
        let challenge = vm.begin_vnf_attestation("host-0", &guard.name).unwrap();
        let nonce = challenge.nonce;
        let quote = guard.quote(&tb.hosts[0].platform, &nonce, nonce).unwrap();
        let key = guard.provisioning_key().unwrap();
        let (serial, _, _) = vm
            .prepare_vnf_enrollment(
                &mut tb.ias,
                challenge.id,
                &quote.encode(),
                &key,
                "controller",
            )
            .unwrap();
        assert_eq!(vm.revoke_host("host-0").unwrap(), 1);
        assert!(vm.commit_vnf_enrollment(serial).is_err());
        assert!(vm.credential_is_revoked(serial));
        let crl = vm.latest_crl().unwrap();
        let entry = crl.lookup(serial).expect("the serial is on the CRL");
        assert_eq!(entry.reason, RevocationReason::PlatformCompromise);
    }

    /// A renewal whose commit ran a threshold compaction says so on its
    /// `wal_commit` span.
    #[test]
    fn a_renewal_that_compacts_shows_it_on_its_wal_commit_span() {
        let telemetry = Telemetry::new();
        let mut tb = TestbedBuilder::new(b"svc compaction span")
            .telemetry(telemetry.clone())
            .tracing(1.0)
            .durable()
            .wal_compaction(1)
            .build();
        tb.attest_host(0).unwrap();
        let guard = tb.deploy_guard(0, "vnf-compaction-span", 1).unwrap();
        let key = guard.provisioning_key().unwrap();
        let serial = tb.enroll(0, &guard).unwrap().serial();
        let vm = tb.vm_service();
        {
            let _root = telemetry.trace_root("test", "renew", 0);
            vm.renew_vnf_credential(serial, &key, "controller").unwrap();
        }
        let traces = telemetry.traces();
        let summary = traces
            .summaries()
            .into_iter()
            .find(|s| s.root_name == "renew");
        let compaction_us: Vec<u64> = traces
            .trace(summary.expect("the renewal was traced").trace_id)
            .into_iter()
            .filter(|span| span.name == "wal_commit")
            .flat_map(|span| span.annotations)
            .filter(|annotation| annotation.kind == "compaction_us")
            .map(|annotation| annotation.detail.parse().unwrap())
            .collect();
        assert!(
            matches!(compaction_us[..], [us] if us > 0),
            "{compaction_us:?}"
        );
    }

    /// A `wal_commit` span names the records its own caller journaled: a
    /// revocation's one, and none for a read held behind it (a read
    /// barrier).
    #[test]
    fn wal_commit_spans_tell_a_read_barrier_from_a_write() {
        let telemetry = Telemetry::new();
        let mut tb = TestbedBuilder::new(b"svc own records")
            .telemetry(telemetry.clone())
            .tracing(1.0)
            .durable()
            .build();
        tb.attest_host(0).unwrap();
        let guard = tb.deploy_guard(0, "vnf-own-records", 1).unwrap();
        let serial = tb.enroll(0, &guard).unwrap().serial();
        let vm = tb.vm_service();
        let media = tb.store_media().unwrap().clone();
        media.set_write_latency(Duration::from_millis(150));
        std::thread::scope(|scope| {
            let (writer, traces) = (vm.clone(), telemetry.clone());
            scope.spawn(move || {
                let _root = traces.trace_root("test", "revoke", 0);
                writer
                    .revoke_credential(serial, RevocationReason::KeyCompromise)
                    .unwrap()
            });
            while media.writes_in_flight() == 0 {
                std::thread::yield_now();
            }
            let _root = telemetry.trace_root("test", "read", 0);
            assert!(vm.credential_is_revoked(serial));
        });
        let own_records = |root: &str| -> Vec<String> {
            let traces = telemetry.traces();
            let summary = traces.summaries().into_iter().find(|s| s.root_name == root);
            traces
                .trace(summary.expect("the call was traced").trace_id)
                .into_iter()
                .filter(|span| span.name == "wal_commit")
                .flat_map(|span| span.annotations)
                .filter(|annotation| annotation.kind == "own_records")
                .map(|annotation| annotation.detail)
                .collect()
        };
        assert_eq!(own_records("revoke"), ["1"]);
        assert_eq!(own_records("read"), ["0"]);
    }

    /// Run `step` while `write`'s WAL write is in flight on `media`, a
    /// 300 ms medium: the step must answer before that write lands.
    fn answers_while_in_flight<T>(
        media: &Media,
        write: impl FnOnce() + Send,
        step: &str,
        run: impl FnOnce() -> T,
    ) -> T {
        media.set_write_latency(Duration::from_millis(300));
        std::thread::scope(|scope| {
            let writer = scope.spawn(write);
            while media.writes_in_flight() == 0 {
                std::thread::yield_now();
            }
            let frames = media.frame_count();
            let value = run();
            assert_eq!(
                (media.writes_in_flight(), media.frame_count()),
                (1, frames),
                "{step} waited for another caller's WAL write"
            );
            writer.join().unwrap();
            value
        })
    }

    /// Every handshake step answers while another caller's WAL write is in
    /// flight on its shard: it observes nothing journaled, so it has
    /// nothing to wait for. The host attestation covers its challenge and
    /// its appraisal, and it answers beside a follower's write too.
    #[test]
    fn handshake_steps_answer_while_another_callers_write_is_in_flight() {
        let (mut tb, credentials) = enrolled_on(b"svc handshake in flight", 2, 1, 2);
        let vm = tb.vm_service();
        let (authority, shard) = (
            tb.shard_store_media(0).unwrap().clone(),
            tb.shard_store_media(1).unwrap().clone(),
        );
        let vnf = (0..)
            .map(|i| format!("vnf-handshake-{i}"))
            .find(|name| shard_of_vnf(name, 2) == 1)
            .unwrap();
        let aik = vnfguard_crypto::ed25519::SigningKey::from_seed(&[9; 32]).public_key();
        let issue_crl = || {
            let vm = vm.clone();
            move || drop(vm.issue_crl().unwrap())
        };
        let revoke = |serial: u64| {
            let vm = vm.clone();
            move || {
                vm.revoke_credential(serial, RevocationReason::KeyCompromise)
                    .unwrap()
            }
        };
        answers_while_in_flight(&authority, issue_crl(), "a host challenge", || {
            vm.begin_host_attestation("host-0").unwrap()
        });
        answers_while_in_flight(&authority, issue_crl(), "a host attestation", || {
            tb.attest_host(0).unwrap()
        });
        answers_while_in_flight(&authority, issue_crl(), "a host record read", || {
            vm.host_record("host-0").unwrap()
        });
        answers_while_in_flight(&authority, issue_crl(), "a TPM registration", || {
            vm.register_host_tpm("host-tpm", aik).unwrap()
        });
        answers_while_in_flight(
            &shard,
            revoke(credentials[0].0),
            "a host attestation beside a follower's write",
            || tb.attest_host(0).unwrap(),
        );
        answers_while_in_flight(&shard, revoke(credentials[1].0), "a VNF challenge", || {
            vm.begin_vnf_attestation("host-0", &vnf).unwrap()
        });
    }

    /// A renewal's mint runs after the shard lock drops and while the
    /// renewal's own write is in flight: a second caller's manager work
    /// completes before the mint starts, and the response still waits for
    /// the renewal's records to land.
    #[test]
    fn a_mint_runs_unlocked_while_its_calls_write_is_in_flight() {
        let (tb, credentials) = enrolled_on(b"svc mint overlap", 1, 0, 2);
        let vm = tb.vm_service();
        let media = tb.store_media().unwrap().clone();
        let journaled = || {
            tb.telemetry
                .metrics()
                .counter_value("vnfguard_core_wal_records_total")
                .unwrap_or(0)
        };
        let frames_before = media.frame_count();
        media.set_write_latency(Duration::from_millis(300));
        let [(serial, key), second] = [credentials[0], credentials[1]];
        std::thread::scope(|scope| {
            let (minted, committed) = vm.on_shard(
                0,
                |manager| manager.renew_vnf_credential(&vm.trust, serial, &key, "controller"),
                |mint| {
                    let own_write = (media.writes_in_flight(), media.frame_count());
                    let unlocked = vm.shards[0].try_lock().is_some();
                    if unlocked {
                        // The second renewal journals before this mint runs.
                        let before = journaled();
                        let vm = vm.clone();
                        scope.spawn(move || {
                            vm.renew_vnf_credential(second.0, &second.1, "controller")
                                .unwrap()
                        });
                        while journaled() == before {
                            std::thread::yield_now();
                        }
                    }
                    (mint.map(Mint::run), own_write, unlocked)
                },
            );
            let (renewed, own_write, unlocked) = minted;
            assert_eq!(
                own_write,
                (1, frames_before),
                "the mint did not run while its own write was in flight"
            );
            assert!(unlocked, "the mint ran under the shard lock");
            committed.unwrap();
            let (_, certificate) = renewed.unwrap();
            let twin = tb.oracle_twin().unwrap();
            assert!(
                twin.enrollments()
                    .any(|enrollment| enrollment.serial == certificate.serial()),
                "the renewal answered before its records were durable"
            );
        });
    }

    #[test]
    fn a_second_call_runs_its_manager_work_during_the_first_calls_flush() {
        let (tb, credentials) = enrolled_on(b"svc overlap", 1, 0, 2);
        let vm = tb.vm_service();
        let media = tb.store_media().unwrap().clone();
        let journaled = || {
            tb.telemetry
                .metrics()
                .counter_value("vnfguard_core_wal_records_total")
                .unwrap_or(0)
        };
        let (frames_before, journaled_before) = (media.frame_count(), journaled());
        media.set_write_latency(Duration::from_millis(400));
        let (queued_early, issued_early) = std::thread::scope(|scope| {
            let renew = |(serial, key): (u64, [u8; 32])| {
                let vm = vm.clone();
                move || vm.renew_vnf_credential(serial, &key, "controller").unwrap()
            };
            scope.spawn(renew(credentials[0]));
            // Once the first renewal's write is issued, its flush is under
            // way.
            while media.writes_in_flight() == 0 {
                std::thread::yield_now();
            }
            let first_records = journaled() - journaled_before;
            scope.spawn(renew(credentials[1]));
            // The second renewal's records get queued while the medium
            // still lacks the first renewal's frames.
            let queued = loop {
                let queued = journaled();
                let landed = media.frame_count();
                if queued > journaled_before + first_records {
                    break landed == frames_before;
                }
                if landed > frames_before {
                    break false;
                }
                std::thread::yield_now();
            };
            // Then its write is issued before the first renewal's lands.
            let issued = loop {
                if media.frame_count() > frames_before {
                    break false;
                }
                if media.writes_in_flight() == 2 {
                    break media.frame_count() == frames_before;
                }
                std::thread::yield_now();
            };
            (queued, issued)
        });
        assert!(
            queued_early,
            "the second call's manager work waited for the first call's flush"
        );
        assert!(
            issued_early,
            "the second call's write waited for the first call's write to land"
        );
    }
}
