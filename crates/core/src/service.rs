//! [`VmService`]: the shard-routing service handle in front of the
//! Verification Manager fleet.
//!
//! A deployment partitions enrollment, serial and renewal state across N
//! [`VerificationManager`] shards keyed by VNF identity, while the CA key,
//! the CRL number and the rotation epoch live on a single serialized
//! *authority* shard (shard 0). `VmService` is the only surface callers
//! see: it owns the routing table and one fine-grained lock per shard, so
//! the per-connection handler threads of `serve_vm_api` execute manager
//! work concurrently instead of convoying on one global mutex.
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
//! Cross-shard coordination is explicit and small: host trust records
//! established on the authority are propagated to the other shards (they
//! gate shard-local enrollments and renewals), CA rotations committed on
//! the authority are *adopted* (never independently performed) by the
//! others, and the fleet CRL folds every shard's revocations into one
//! authority-signed artifact. None of the adoption traffic is journaled —
//! authority decisions appear only in the authority's WAL, and recovery
//! re-adopts from the authority's replayed state (see
//! `Testbed::recover_vm`).
//!
//! Every method takes `&self` and locks only the shard(s) it touches, for
//! only as long as the manager call runs — in particular, no lock is ever
//! held across a network call (the `remote` module's agent hops all happen
//! between `VmService` calls).

use crate::lifecycle::{CaRotation, LifecycleStatus, RenewalDue};
use crate::manager::{
    shard_of_challenge, shard_of_serial, Challenge, EnrollmentRecord, HostRecord,
    PendingEnrollment, RecoveryReport, VerificationManager, VmEvent,
};
use crate::overload::{AdmissionController, Permit, Workclass};
use crate::replication::ReplicationStatus;
use crate::CoreError;
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;
use vnfguard_attest::{AttestationBackend, BackendKind, Measurement};
use vnfguard_controller::SimClock;
use vnfguard_crypto::sha2::sha256;
use vnfguard_ima::appraisal::Verdict;
use vnfguard_pki::cert::Certificate;
use vnfguard_pki::crl::{Crl, CrlEntry, RevocationReason};
use vnfguard_store::StoreStats;
use vnfguard_telemetry::{
    current_trace, labeled, AlertSnapshot, HealthMonitor, Histogram, HistogramSnapshot, Telemetry,
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
    admission: Option<Arc<AdmissionController>>,
    health: Option<HealthHandle>,
    /// Offline SEV-SNP appraiser for this deployment, if SNP hosts exist.
    /// `serve_vm_api` folds it into its evidence-sniffing dispatcher so
    /// the one API surface serves a mixed SGX + SNP fleet.
    snp: Option<vnfguard_attest::snp::SnpVerifier>,
}

/// The SLO monitor plus a clock clone, so hot-path outcome recording never
/// has to lock the authority shard just to read the time. Each workclass
/// also gets an exact log₂ latency histogram (with trace exemplars) —
/// the unit of cross-node merging in the fleet monitor.
#[derive(Clone)]
struct HealthHandle {
    monitor: HealthMonitor,
    clock: SimClock,
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

    /// Wrap an already-constructed shard fleet. Shard 0 is the authority;
    /// every manager must have been configured with
    /// [`VerificationManager::set_shard`] for its position.
    pub fn from_shards(shards: Vec<VerificationManager>) -> VmService {
        assert!(!shards.is_empty(), "a VmService needs at least one shard");
        VmService {
            shards: Arc::new(shards.into_iter().map(Mutex::new).collect()),
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
        let clock = self.clock();
        let telemetry = self.telemetry();
        let latency = Workclass::ALL.map(|class| {
            telemetry.histogram(&labeled(
                "vnfguard_core_workclass_latency_micros",
                "class",
                class.label(),
            ))
        });
        // Label order is lexicographic (backend before class), matching the
        // hand-composed multi-label series elsewhere in the crate.
        let backend_latency = Workclass::ALL.map(|class| {
            BackendKind::ALL.map(|backend| {
                telemetry.histogram(&format!(
                    "vnfguard_core_workclass_latency_micros{{backend=\"{}\",class=\"{}\"}}",
                    backend.label(),
                    class.label(),
                ))
            })
        });
        self.health = Some(HealthHandle {
            monitor,
            clock,
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
                .record(class.label(), health.clock.now(), ok, micros, trace_id);
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
                health.clock.now(),
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

    /// The depth gate, a no-op when admission control is off.
    fn gate(&self, class: Workclass) -> Result<Option<Permit<'_>>, CoreError> {
        match &self.admission {
            Some(admission) => admission.admit(class).map(Some),
            None => Ok(None),
        }
    }

    /// The sojourn/deadline gate; call with the shard lock held, before
    /// touching any state, so a shed leaves nothing behind.
    fn pass_dequeue(&self, permit: &Option<Permit<'_>>) -> Result<(), CoreError> {
        if let (Some(admission), Some(permit)) = (self.admission.as_deref(), permit.as_ref()) {
            admission.dequeued(permit)?;
        }
        Ok(())
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The mutex guarding one shard — for the deployment layer, which
    /// swaps recovered incarnations in place (so every clone of this
    /// handle, including the one inside `serve_vm_api`, sees the new
    /// incarnation on its next request).
    pub(crate) fn shard_mutex(&self, index: usize) -> &Mutex<VerificationManager> {
        &self.shards[index]
    }

    fn authority(&self) -> MutexGuard<'_, VerificationManager> {
        self.shards[0].lock()
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

    /// Run `f` on shard `index` behind both admission gates: shed before
    /// queueing when the class is full, shed after acquiring the lock when
    /// sojourn shows a standing queue or the request's deadline died while
    /// it waited. Either shed happens before `f` runs, so refused requests
    /// touch no manager state.
    fn with_shard_gated<R>(
        &self,
        index: usize,
        class: Workclass,
        f: impl FnOnce(&mut VerificationManager) -> Result<R, CoreError>,
    ) -> Result<R, CoreError> {
        let begun = std::time::Instant::now();
        let result = (|| {
            let permit = self.gate(class)?;
            let mut vm = self.shards[index].lock();
            self.pass_dequeue(&permit)?;
            f(&mut vm)
        })();
        self.note_health(class, begun, result.is_ok());
        result
    }

    /// Copy the authority's host trust records to every other shard.
    /// Shard-local enrollment and renewal checks (`host_is_trusted`) read
    /// the local copy; verdicts are volatile by design, so propagation is
    /// not journaled and does not survive recovery — hosts re-attest.
    fn sync_host_records(&self) {
        if self.shards.len() == 1 {
            return;
        }
        let records = self.authority().host_records();
        for shard in &self.shards[1..] {
            let mut vm = shard.lock();
            for record in &records {
                vm.adopt_host_record(record.clone());
            }
        }
    }

    /// Collect the non-authority shards' revocation entries and whether
    /// any of them has revocations not yet folded into a distributed CRL.
    fn gather_remote_revocations(&self) -> (Vec<CrlEntry>, bool) {
        let mut extras = Vec::new();
        let mut any_dirty = false;
        for shard in &self.shards[1..] {
            let vm = shard.lock();
            any_dirty |= vm.crl_dirty();
            extras.extend(vm.revoked_entries());
        }
        (extras, any_dirty)
    }

    fn clear_remote_dirty(&self) {
        for shard in &self.shards[1..] {
            shard.lock().clear_crl_dirty();
        }
    }

    // ---- Host attestation (authority shard) -------------------------------

    /// Register a host TPM AIK ahead of attestation.
    pub fn register_host_tpm(
        &self,
        host_id: &str,
        aik: vnfguard_crypto::ed25519::VerifyingKey,
    ) {
        self.authority().register_host_tpm(host_id, aik);
        self.sync_host_records();
    }

    /// Step 1: challenge a container host.
    pub fn begin_host_attestation(&self, host_id: &str) -> Challenge {
        self.authority().begin_host_attestation(host_id)
    }

    /// Step 2: verify and appraise host evidence through any attestation
    /// backend. The resulting trust record is propagated to every shard.
    /// (The SGX/IAS-flavored [`complete_host_attestation`] wrapper lives
    /// in the `backend` module.)
    ///
    /// [`complete_host_attestation`]: Self::complete_host_attestation
    pub fn complete_host_attestation_backend(
        &self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        evidence: &crate::attestation::HostEvidence,
    ) -> Result<Verdict, CoreError> {
        let verdict = self
            .authority()
            .complete_host_attestation(backend, challenge_id, evidence)?;
        self.sync_host_records();
        Ok(verdict)
    }

    /// Policy-gated reuse of a cached host verdict when the attestation
    /// service is unreachable.
    pub fn degraded_host_verdict(&self, host_id: &str) -> Result<Verdict, CoreError> {
        self.authority().degraded_host_verdict(host_id)
    }

    /// Platform-compromise response: every shard revokes its own
    /// credentials for the host and flips its local trust record.
    pub fn revoke_host(&self, host_id: &str) -> usize {
        let mut revoked = 0;
        for shard in self.shards.iter() {
            revoked += shard.lock().revoke_host(host_id);
        }
        revoked
    }

    pub fn host_record(&self, host_id: &str) -> Option<HostRecord> {
        self.authority().host_record(host_id).cloned()
    }

    // ---- VNF enrollment (routed shards) -----------------------------------

    /// Step 3: initiate VNF attestation on the shard that owns this VNF's
    /// identity. The returned challenge id self-routes the later steps.
    pub fn begin_vnf_attestation(
        &self,
        host_id: &str,
        vnf_name: &str,
    ) -> Result<Challenge, CoreError> {
        let shard = self.shard_for_vnf(vnf_name);
        self.with_shard_gated(shard, Workclass::Enrollment, |vm| {
            vm.begin_vnf_attestation(host_id, vnf_name)
        })
    }

    /// Steps 4–5 in one shot (prepare + commit), through any attestation
    /// backend. (The SGX/IAS-flavored [`complete_vnf_enrollment`] wrapper
    /// lives in the `backend` module.)
    ///
    /// [`complete_vnf_enrollment`]: Self::complete_vnf_enrollment
    pub fn complete_vnf_enrollment_backend(
        &self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<(Vec<u8>, Certificate), CoreError> {
        let begun = std::time::Instant::now();
        let shard = self.shard_for_challenge(challenge_id);
        let result = self.with_shard_gated(shard, Workclass::Enrollment, |vm| {
            vm.complete_vnf_enrollment(
                &mut *backend,
                challenge_id,
                quote_bytes,
                provisioning_key,
                controller_cn,
            )
        });
        self.note_backend_health(Workclass::Enrollment, backend.kind(), begun, result.is_ok());
        result
    }

    /// Phase one of two-phase enrollment through any attestation backend;
    /// the returned serial is the commit token (and routes the
    /// commit/abort back here). (The SGX/IAS-flavored
    /// [`prepare_vnf_enrollment`] wrapper lives in the `backend` module.)
    ///
    /// [`prepare_vnf_enrollment`]: Self::prepare_vnf_enrollment
    pub fn prepare_vnf_enrollment_backend(
        &self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<(u64, Vec<u8>, Certificate), CoreError> {
        let begun = std::time::Instant::now();
        let shard = self.shard_for_challenge(challenge_id);
        let result = self.with_shard_gated(shard, Workclass::Enrollment, |vm| {
            vm.prepare_vnf_enrollment(
                &mut *backend,
                challenge_id,
                quote_bytes,
                provisioning_key,
                controller_cn,
            )
        });
        self.note_backend_health(Workclass::Enrollment, backend.kind(), begun, result.is_ok());
        result
    }

    pub fn commit_vnf_enrollment(&self, serial: u64) -> Result<(), CoreError> {
        let shard = self.shard_for_serial(serial);
        self.shards[shard].lock().commit_vnf_enrollment(serial)
    }

    pub fn abort_vnf_enrollment(&self, serial: u64, reason: &str) -> Result<(), CoreError> {
        let shard = self.shard_for_serial(serial);
        self.shards[shard].lock().abort_vnf_enrollment(serial, reason)
    }

    /// Enrollments issued but not yet committed, across all shards.
    pub fn pending_enrollments(&self) -> impl Iterator<Item = PendingEnrollment> {
        let mut pending = Vec::new();
        for shard in self.shards.iter() {
            pending.extend(shard.lock().pending_enrollments().cloned().collect::<Vec<_>>());
        }
        pending.into_iter()
    }

    /// Expire prepared-but-uncommitted enrollments on every shard; returns
    /// the fleet-wide count.
    pub fn sweep_pending_enrollments(&self) -> Result<usize, CoreError> {
        let mut swept = 0;
        for shard in self.shards.iter() {
            swept += shard.lock().sweep_pending_enrollments()?;
        }
        Ok(swept)
    }

    /// Every shard's enrollment records (authority first, then shards in
    /// ascending order — the same deterministic order recovery replays).
    pub fn enrollments(&self) -> impl Iterator<Item = EnrollmentRecord> {
        let mut records = Vec::new();
        for shard in self.shards.iter() {
            records.extend(shard.lock().enrollments().cloned().collect::<Vec<_>>());
        }
        records.into_iter()
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
        self.with_shard_gated(shard, Workclass::Renewal, |vm| {
            vm.renew_vnf_credential(serial, provisioning_key, controller_cn)
        })
    }

    pub fn revoke_credential(
        &self,
        serial: u64,
        reason: RevocationReason,
    ) -> Result<(), CoreError> {
        let shard = self.shard_for_serial(serial);
        self.with_shard_gated(shard, Workclass::Revocation, |vm| {
            vm.revoke_credential(serial, reason)
        })
    }

    pub fn credential_is_revoked(&self, serial: u64) -> bool {
        let shard = self.shard_for_serial(serial);
        self.shards[shard].lock().credential_is_revoked(serial)
    }

    /// Record a refused renewal (see
    /// [`VerificationManager::note_renewal_refused`]) on the owning shard.
    /// Ungated: the bookkeeping that *stops* refused renewals from being
    /// re-offered must not itself be sheddable.
    pub fn note_renewal_refused(&self, serial: u64, retry_after_secs: u64) {
        let shard = self.shard_for_serial(serial);
        self.shards[shard].lock().note_renewal_refused(serial, retry_after_secs);
    }

    /// The instant before which refused-renewal backoff hides `serial`
    /// from the renewal sweep, if the serial is parked.
    pub fn renewal_backoff_until(&self, serial: u64) -> Option<u64> {
        let shard = self.shard_for_serial(serial);
        self.shards[shard].lock().renewal_backoff_until(serial)
    }

    /// Credentials inside their renewal window, across all shards.
    pub fn certs_expiring(&self) -> Vec<RenewalDue> {
        let mut due = Vec::new();
        for shard in self.shards.iter() {
            due.extend(shard.lock().certs_expiring());
        }
        due
    }

    // ---- CA, CRL and rotation (authority shard) ---------------------------

    pub fn ca_certificate(&self) -> Certificate {
        self.authority().ca_certificate().clone()
    }

    pub fn ca_epoch(&self) -> u64 {
        self.authority().ca_epoch()
    }

    pub fn ca_cross_signed(&self) -> Option<Certificate> {
        self.authority().ca_cross_signed().cloned()
    }

    pub fn ca_previous_roots(&self) -> Vec<Certificate> {
        self.authority().ca_previous_roots().to_vec()
    }

    pub fn ca_rotation_chain(&self) -> Vec<(u64, Certificate, Certificate)> {
        self.authority().ca_rotation_chain()
    }

    pub fn rotation_drain_deadline(&self) -> Option<u64> {
        self.authority().rotation_drain_deadline()
    }

    /// Rotate the authority's CA key; every other shard then adopts the
    /// committed epoch so its future issuance is signed by the new key. A
    /// crashed shard skips adoption here and re-adopts during recovery.
    pub fn rotate_ca(&self) -> Result<CaRotation, CoreError> {
        let (rotation, rotated_at) = {
            let mut vm = self.authority();
            let rotated_at = vm.clock().now();
            (vm.rotate_ca()?, rotated_at)
        };
        for shard in &self.shards[1..] {
            let _ = shard.lock().adopt_rotation(
                rotation.epoch,
                rotation.new_root.serial(),
                rotation.cross_signed.serial(),
                rotated_at,
            );
        }
        Ok(rotation)
    }

    /// Mint a fresh fleet CRL: the authority journals the number bump and
    /// signs its own revocations merged with every other shard's. Gated
    /// in the revocation class — the highest, so CRL work still admits
    /// under an enrollment flood.
    pub fn issue_crl(&self) -> Result<Crl, CoreError> {
        let begun = std::time::Instant::now();
        let result = (|| {
            let permit = self.gate(Workclass::Revocation)?;
            let (extras, _) = self.gather_remote_revocations();
            let crl = {
                let mut authority = self.authority();
                self.pass_dequeue(&permit)?;
                authority.issue_crl_merged(&extras)
            }?;
            self.clear_remote_dirty();
            Ok(crl)
        })();
        self.note_health(Workclass::Revocation, begun, result.is_ok());
        result
    }

    /// The fleet CRL to serve to polling relying parties: the cached copy
    /// unless any shard has revocations (or a rotation) not yet covered.
    pub fn latest_crl(&self) -> Result<Crl, CoreError> {
        let begun = std::time::Instant::now();
        let result = (|| {
            let permit = self.gate(Workclass::Revocation)?;
            let (extras, any_dirty) = self.gather_remote_revocations();
            let crl = {
                let mut authority = self.authority();
                self.pass_dequeue(&permit)?;
                if any_dirty {
                    authority.issue_crl_merged(&extras)
                } else {
                    authority.latest_crl_merged(&extras)
                }
            }?;
            self.clear_remote_dirty();
            Ok(crl)
        })();
        self.note_health(Workclass::Revocation, begun, result.is_ok());
        result
    }

    /// Read-only preview of the fleet CRL (no journaling, no number bump).
    pub fn current_crl(&self, lifetime_secs: u64) -> Crl {
        let (extras, _) = self.gather_remote_revocations();
        self.authority().current_crl_merged(&extras, lifetime_secs)
    }

    pub fn issue_client_certificate(
        &self,
        cn: &str,
        public_key: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Certificate {
        self.authority().issue_client_certificate(cn, public_key)
    }

    pub fn issue_server_certificate(
        &self,
        cn: &str,
        public_key: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Certificate {
        self.authority().issue_server_certificate(cn, public_key)
    }

    // ---- Deployment trust inputs ------------------------------------------

    /// Whitelist a credential-enclave measurement on every shard (any
    /// shard may be asked to enroll this VNF). SGX-scoped; see
    /// [`trust_enclave_for`](Self::trust_enclave_for).
    pub fn trust_enclave(&self, measurement: Measurement, label: &str) {
        self.trust_enclave_for(BackendKind::SgxEpid, measurement, label);
    }

    /// Whitelist a workload measurement under a specific attestation
    /// backend on every shard. Whitelists are backend-scoped: an SNP
    /// launch measurement never satisfies an SGX enrollment or vice versa.
    pub fn trust_enclave_for(&self, backend: BackendKind, measurement: Measurement, label: &str) {
        for shard in self.shards.iter() {
            shard.lock().trust_enclave_for(backend, measurement, label);
        }
    }

    /// Whitelist the integrity attestation enclave on every shard
    /// (SGX-scoped).
    pub fn trust_integrity_enclave(&self, measurement: Measurement, label: &str) {
        self.trust_integrity_enclave_for(BackendKind::SgxEpid, measurement, label);
    }

    /// Backend-scoped integrity-enclave whitelist entry on every shard.
    pub fn trust_integrity_enclave_for(
        &self,
        backend: BackendKind,
        measurement: Measurement,
        label: &str,
    ) {
        for shard in self.shards.iter() {
            shard
                .lock()
                .trust_integrity_enclave_for(backend, measurement, label);
        }
    }

    /// Override one backend's appraisal policy on every shard (policies
    /// default to the TCB policy the managers were configured with).
    pub fn set_backend_policy(&self, backend: BackendKind, policy: vnfguard_attest::AppraisalPolicy) {
        for shard in self.shards.iter() {
            shard.lock().set_backend_policy(backend, policy);
        }
    }

    /// Allow a host file's content in every shard's reference database.
    pub fn allow_reference_content(&self, path: &str, content: &[u8]) {
        for shard in self.shards.iter() {
            shard.lock().reference_db_mut().allow_content(path, content);
        }
    }

    // ---- Operator surface --------------------------------------------------

    pub fn hmac_tag(&self, message: &[u8]) -> [u8; 32] {
        self.authority().hmac_tag(message)
    }

    pub fn share_hmac_key(&self) -> [u8; 32] {
        self.authority().share_hmac_key()
    }

    /// Short identity fingerprint of the authority CA, for logs.
    pub fn fingerprint(&self) -> String {
        self.authority().fingerprint()
    }

    /// Credentials issued fleet-wide (per-shard allocators live in
    /// disjoint serial spans; counts simply add).
    pub fn issued_count(&self) -> u64 {
        self.shards.iter().map(|shard| shard.lock().issued_count()).sum()
    }

    /// The audit journal (shared telemetry; one journal for the fleet).
    pub fn events(&self) -> Vec<VmEvent> {
        self.authority().events()
    }

    /// Fleet lifecycle posture: per-shard active/expiring counts summed,
    /// CA/CRL/rotation posture from the authority.
    pub fn lifecycle_status(&self) -> LifecycleStatus {
        let mut status = self.authority().lifecycle_status();
        for shard in &self.shards[1..] {
            let shard_status = shard.lock().lifecycle_status();
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
        let begun = std::time::Instant::now();
        let result = (|| {
            let permit = self.gate(Workclass::Introspection)?;
            let mut status = {
                let authority = self.authority();
                self.pass_dequeue(&permit)?;
                authority.lifecycle_status()
            };
            for shard in &self.shards[1..] {
                let shard_status = shard.lock().lifecycle_status();
                status.active += shard_status.active;
                status.expiring += shard_status.expiring;
            }
            Ok(status)
        })();
        self.note_health(Workclass::Introspection, begun, result.is_ok());
        result
    }

    /// Node-loss injection: halt every shard in place.
    pub fn halt(&self, reason: &str) {
        for shard in self.shards.iter() {
            shard.lock().halt(reason);
        }
    }

    /// The crash site that halted a shard, if any (authority first).
    pub fn crashed_site(&self) -> Option<String> {
        self.shards
            .iter()
            .find_map(|shard| shard.lock().crashed_site().map(str::to_string))
    }

    pub fn clock(&self) -> SimClock {
        self.authority().clock().clone()
    }

    pub fn telemetry(&self) -> Telemetry {
        self.authority().telemetry().clone()
    }

    /// The authority's last recovery report, if it was recovered.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.authority().recovery_report().cloned()
    }

    /// Authority-shard sealed-store occupancy.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.authority().store_stats()
    }

    /// Authority-shard replication posture.
    pub fn replication_status(&self) -> Option<ReplicationStatus> {
        self.authority().replication_status()
    }

    /// Emit a replication heartbeat from every shard's primary handle.
    pub fn replication_heartbeat(&self) {
        for shard in self.shards.iter() {
            shard.lock().replication_heartbeat();
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
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let vm = shard.lock();
                let wal = vm.wal_append_latency();
                ShardHealth {
                    shard: index,
                    wal_records: vm.wal_record_count(),
                    wal_append_p50_micros: wal.quantile(0.50),
                    wal_append_p99_micros: wal.quantile(0.99),
                    wal_append_max_micros: wal.max,
                    recovery_generation: vm
                        .recovery_report()
                        .map_or(0, |report| report.generation),
                    crashed_site: vm.crashed_site().map(str::to_string),
                    replication: vm.replication_status(),
                }
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
                        let snapshot =
                            health.backend_latency[class.index()][backend.as_u8() as usize]
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
