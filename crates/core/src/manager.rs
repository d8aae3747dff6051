//! The Verification Manager.
//!
//! Its authority state (enrollments, pending enrollments, revocations,
//! issuance and CRL counters, committed rotations) is one
//! [`ManagerState`], the fold of its write-ahead log (see the `state`
//! module). A workflow checks, builds its [`WalRecord`]s and journals them;
//! journaling enqueues them on the store and folds them through
//! [`ManagerState::apply`], the fold replay runs. No workflow writes the
//! maps by hand, and reads such as [`VerificationManager::enrollments`],
//! [`VerificationManager::credential_is_revoked`] and the entries a CRL
//! carries come from that state. Recovery is a replay into it.
//!
//! What the log does not carry stays outside it: the CA's keys, epoch,
//! serial allocator and CRL number, the DRBG, and the handshake part (the
//! outstanding challenges and the challenge counter). That is why a shard
//! can adopt the authority's rotation without journaling anything. Host
//! verdicts are no manager's: they sit in the deployment's [`Trust`],
//! which every shard reads. The handshake steps, Figure 1's steps 1–3, run
//! on a [`Handshake`], a borrowed view of that part and of the host table
//! with no way to the journaled state, so the service lends it without a
//! commit wait.

use crate::attestation::{host_report_data, HostEvidence};
use crate::crash::CrashPlan;
use crate::lifecycle::{CaRotation, LifecycleStatus, RenewalDue};
use crate::replication::ReplicaSet;
use crate::revocation::{revocation_message, RevocationNotifier};
use crate::state::JournaledState;
use crate::trust::Trust;
use crate::CoreError;
use std::collections::HashMap;
use std::time::Instant;
use vnfguard_attest::{
    AppraisalPolicy as BackendPolicy, AttestationBackend, BackendKind, Measurement,
};
use vnfguard_controller::clock::SimClock;
use vnfguard_crypto::drbg::{HmacDrbg, SecureRandom};
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_crypto::sha2::sha256;
use vnfguard_ima::appraisal::{AppraisalPolicy, Verdict};
use vnfguard_ima::list::IMA_PCR;
use vnfguard_pki::ca::{CertificateAuthority, Issuance, IssueProfile};
use vnfguard_pki::cert::{Certificate, DistinguishedName, Validity};
use vnfguard_pki::crl::{Crl, CrlEntry, RevocationReason};
use vnfguard_store::{
    EnrollmentEntry, Lsn, ManagerState, Pending, PendingEntry, StateStore, StoreStats, WalRecord,
};
use vnfguard_telemetry::{current_trace, Counter, Gauge, Histogram, SpanGuard, Telemetry};
use vnfguard_vnf::credential_enclave::{provisioning_report_data, ProvisionBundle};
use vnfguard_vnf::{wrap_credentials, WrapRandomness};

/// How strictly TCB warnings in attestation evidence are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcbPolicy {
    /// Only a fully up-to-date TCB is acceptable.
    Strict,
    /// Out-of-date / configuration-needed platforms are tolerated.
    Lenient,
}

impl TcbPolicy {
    /// The equivalent normalized appraisal policy, which the manager
    /// applies to every backend's evidence.
    pub fn backend_policy(self) -> BackendPolicy {
        match self {
            TcbPolicy::Strict => BackendPolicy::strict(),
            TcbPolicy::Lenient => BackendPolicy::lenient(),
        }
    }
}

/// Verification Manager configuration.
///
/// Built through [`ManagerConfig::builder`], which validates the combination
/// of settings; `Default` yields the safe fail-closed posture.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    credential_validity_secs: u64,
    tcb_policy: TcbPolicy,
    /// Require the §4 TPM anchoring of the IMA aggregate.
    require_tpm: bool,
    /// Graceful degradation: when the attestation service is unreachable,
    /// allow a host's *cached* trusted verdict to stand in for a fresh
    /// appraisal. Disabled by default — the safe posture is fail-closed.
    degraded_verdicts: bool,
    /// How long a cached verdict may be re-used under degradation. Bounded
    /// separately from (and typically tighter than) [`HOST_FRESHNESS_SECS`].
    degraded_ttl_secs: u64,
    /// Prepared enrollments older than this are aborted by
    /// [`VerificationManager::sweep_pending_enrollments`] (and treated as
    /// crash orphans during recovery). `0` disables the sweep and leaves
    /// recovery on its default grace period.
    pending_enrollment_ttl_secs: u64,
    /// A credential becomes *due for renewal* this long before its
    /// `not_after`. The renewal sweep and the guards' auto-renew hook both
    /// key off this window; sweeps clamp it below the credential lifetime
    /// so a short-lived deployment is not perpetually "due".
    renewal_window_secs: u64,
    /// `next_update` horizon of issued CRLs: a relying party whose cached
    /// CRL is older than this is running on stale revocation data.
    crl_lifetime_secs: u64,
}

/// The manager's name: its CA's common name and the organisation of every
/// certificate it issues.
const MANAGER_NAME: &str = "verification-manager";

/// Validity of every CA root, the first and each rotated one.
const CA_VALIDITY: Validity = Validity {
    not_before: 0,
    not_after: u64::MAX / 2,
};

/// How a host's measurement list is appraised: a file absent from the
/// reference database fails it.
const HOST_APPRAISAL: AppraisalPolicy = AppraisalPolicy {
    allow_unknown: false,
};

/// Challenges expire after this many seconds.
const CHALLENGE_LIFETIME_SECS: u64 = 300;

/// Host attestations are considered fresh for this long.
const HOST_FRESHNESS_SECS: u64 = 3600;

/// After a CA rotation, relying parties keep the previous root trusted for
/// this long (the dual-trust drain window) so credentials issued under the
/// old key keep validating while the fleet renews.
const ROTATION_DRAIN_SECS: u64 = 24 * 3600;

impl Default for ManagerConfig {
    fn default() -> ManagerConfig {
        ManagerConfig {
            credential_validity_secs: 24 * 3600,
            tcb_policy: TcbPolicy::Strict,
            require_tpm: false,
            degraded_verdicts: false,
            degraded_ttl_secs: 900,
            pending_enrollment_ttl_secs: 0,
            renewal_window_secs: 6 * 3600,
            crl_lifetime_secs: 3600,
        }
    }
}

impl ManagerConfig {
    /// Start from the validated defaults.
    pub fn builder() -> ManagerConfigBuilder {
        ManagerConfigBuilder {
            config: ManagerConfig::default(),
        }
    }

    pub fn pending_enrollment_ttl_secs(&self) -> u64 {
        self.pending_enrollment_ttl_secs
    }
}

/// Builder for [`ManagerConfig`]; `build` rejects inconsistent settings
/// instead of letting them surface as confusing runtime behavior.
#[derive(Debug, Clone)]
pub struct ManagerConfigBuilder {
    config: ManagerConfig,
}

impl ManagerConfigBuilder {
    pub fn credential_validity_secs(mut self, secs: u64) -> Self {
        self.config.credential_validity_secs = secs;
        self
    }

    pub fn tcb_policy(mut self, policy: TcbPolicy) -> Self {
        self.config.tcb_policy = policy;
        self
    }

    pub fn require_tpm(mut self, required: bool) -> Self {
        self.config.require_tpm = required;
        self
    }

    /// Opt in to graceful degradation: cached trusted verdicts may answer
    /// host-trust queries for `ttl_secs` when the attestation service is
    /// unreachable. (This subsumes the former `set_degraded_policy` runtime
    /// toggle — degradation is a deployment decision, made at build time.)
    pub fn degraded_verdicts(mut self, enabled: bool, ttl_secs: u64) -> Self {
        self.config.degraded_verdicts = enabled;
        self.config.degraded_ttl_secs = ttl_secs;
        self
    }

    /// Expire prepared-but-uncommitted enrollments after `secs` (see
    /// [`VerificationManager::sweep_pending_enrollments`]). `0` disables.
    pub fn pending_enrollment_ttl_secs(mut self, secs: u64) -> Self {
        self.config.pending_enrollment_ttl_secs = secs;
        self
    }

    /// Flag credentials for renewal `secs` before they expire.
    pub fn renewal_window_secs(mut self, secs: u64) -> Self {
        self.config.renewal_window_secs = secs;
        self
    }

    /// `next_update` horizon of issued CRLs.
    pub fn crl_lifetime_secs(mut self, secs: u64) -> Self {
        self.config.crl_lifetime_secs = secs;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ManagerConfig, CoreError> {
        let c = &self.config;
        if c.credential_validity_secs == 0 {
            return Err(CoreError::InvalidConfig(
                "credential_validity_secs must be nonzero".into(),
            ));
        }
        if c.degraded_verdicts && c.degraded_ttl_secs == 0 {
            return Err(CoreError::InvalidConfig(
                "degraded_ttl_secs must be nonzero when degraded verdicts are enabled".into(),
            ));
        }
        if c.degraded_ttl_secs > c.credential_validity_secs {
            return Err(CoreError::InvalidConfig(format!(
                "degraded_ttl_secs ({}) exceeds credential_validity_secs ({})",
                c.degraded_ttl_secs, c.credential_validity_secs
            )));
        }
        if c.pending_enrollment_ttl_secs > c.credential_validity_secs {
            return Err(CoreError::InvalidConfig(format!(
                "pending_enrollment_ttl_secs ({}) exceeds credential_validity_secs ({})",
                c.pending_enrollment_ttl_secs, c.credential_validity_secs
            )));
        }
        if c.renewal_window_secs == 0 {
            return Err(CoreError::InvalidConfig(
                "renewal_window_secs must be nonzero".into(),
            ));
        }
        if c.crl_lifetime_secs == 0 {
            return Err(CoreError::InvalidConfig(
                "crl_lifetime_secs must be nonzero".into(),
            ));
        }
        Ok(self.config)
    }
}

/// An outstanding attestation challenge.
#[derive(Debug, Clone)]
pub struct Challenge {
    pub id: u64,
    pub nonce: [u8; 32],
    pub issued_at: u64,
    subject: ChallengeSubject,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ChallengeSubject {
    Host { host_id: String },
    Vnf { host_id: String, vnf_name: String },
}

/// Host trust record.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub host_id: String,
    pub verdict: Verdict,
    pub attested_at: u64,
    pub iml_entries: usize,
    /// Which TEE technology vouched for the last appraisal. Renewal and
    /// re-attestation re-bind to the same backend.
    pub backend: BackendKind,
}

/// The backend that vouched for `host_id`'s last appraisal in `trust`, if
/// that appraisal is trusted and still fresh at `now`.
fn trusted_backend(trust: &Trust, host_id: &str, now: u64) -> Option<BackendKind> {
    let hosts = trust.hosts();
    let record = hosts.verdicts.get(host_id)?;
    let fresh = now <= record.attested_at + HOST_FRESHNESS_SECS;
    (record.verdict.is_trusted() && fresh).then_some(record.backend)
}

/// The backend a journaled backend code names. Unknown codes (from a
/// newer incarnation's log) fall back to SGX, the only backend that
/// predates the code.
fn backend_of(code: u8) -> BackendKind {
    BackendKind::from_u8(code).unwrap_or(BackendKind::SgxEpid)
}

/// Domain-separated digest of an enclave's provisioning public key, as
/// persisted in enrollment records and the WAL. The manager stores the
/// digest rather than the key itself: renewal only ever needs an equality
/// check, and the WAL should not accumulate key material.
pub fn provisioning_key_hash(provisioning_key: &[u8; 32]) -> [u8; 32] {
    let mut input = Vec::with_capacity(64);
    input.extend_from_slice(b"vnfguard-provisioning-key-v1\0\0\0\0");
    input.extend_from_slice(provisioning_key);
    sha256(&input)
}

/// Audit event emitted by the manager — an entry in the telemetry
/// [`Journal`](vnfguard_telemetry::Journal), which subsumed the former
/// ad-hoc event vec (ring-buffered, sequence-numbered).
pub type VmEvent = vnfguard_telemetry::Event;

/// Pre-fetched manager metrics, bound once at construction so the hot path
/// never takes the registry lock for name lookups.
struct ManagerMetrics {
    challenges: Counter,
    host_attestations: Counter,
    host_attestation_failures: Counter,
    enrollments: Counter,
    enrollment_failures: Counter,
    enrollment_aborts: Counter,
    degraded_verdicts: Counter,
    revocations: Counter,
    certificates_issued: Counter,
    recoveries: Counter,
    recovered_orphans: Counter,
    wal_records: Counter,
    renewals: Counter,
    renewal_failures: Counter,
    /// Per-backend breakouts of the verdict / enrollment / renewal
    /// counters, indexed by [`BackendKind::as_u8`]. The unlabeled series
    /// above keep counting everything, so existing dashboards and tests
    /// are undisturbed; these add the `{backend="sgx"|"snp"}` dimension.
    host_attestations_by_backend: [Counter; 2],
    enrollments_by_backend: [Counter; 2],
    renewals_by_backend: [Counter; 2],
    rotations: Counter,
    crls_issued: Counter,
    certs_active: Gauge,
    certs_expiring: Gauge,
    crl_age_seconds: Gauge,
    host_attestation_micros: Histogram,
    enrollment_micros: Histogram,
    renewal_micros: Histogram,
    wal_append_micros: Histogram,
}

impl ManagerMetrics {
    /// Bind a manager's series, labelled `{shard="i"}` for shard `i` of a
    /// multi-shard deployment. Authority-only series — CA rotations, CRL
    /// issuance and age — exist once per deployment and stay unlabeled.
    fn bind(telemetry: &Telemetry, shard: Option<u32>) -> ManagerMetrics {
        let core = telemetry.namespace("core");
        let shard = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = shard.iter().map(|s| ("shard", s.as_str())).collect();
        let counter = |name: &str| core.counter(name, &labels);
        let per_backend = |name: &str| {
            BackendKind::ALL
                .map(|b| core.counter(name, &[&labels[..], &[("backend", b.label())]].concat()))
        };
        ManagerMetrics {
            challenges: counter("challenges_total"),
            host_attestations: counter("host_attestations_total"),
            host_attestation_failures: counter("host_attestation_failures_total"),
            enrollments: counter("enrollments_total"),
            enrollment_failures: counter("enrollment_failures_total"),
            enrollment_aborts: counter("enrollment_aborts_total"),
            degraded_verdicts: counter("degraded_verdicts_total"),
            revocations: counter("revocations_total"),
            certificates_issued: counter("certificates_issued_total"),
            recoveries: counter("recoveries_total"),
            recovered_orphans: counter("recovery_orphans_total"),
            wal_records: counter("wal_records_total"),
            renewals: counter("renewals_total"),
            renewal_failures: counter("renewal_failures_total"),
            host_attestations_by_backend: per_backend("host_attestations_total"),
            enrollments_by_backend: per_backend("enrollments_total"),
            renewals_by_backend: per_backend("renewals_total"),
            rotations: core.counter("ca_rotations_total", &[]),
            crls_issued: core.counter("crls_issued_total", &[]),
            certs_active: core.gauge("certs_active", &labels),
            certs_expiring: core.gauge("certs_expiring", &labels),
            crl_age_seconds: core.gauge("crl_age_seconds", &[]),
            host_attestation_micros: core.histogram("host_attestation_micros", &labels),
            enrollment_micros: core.histogram("enrollment_micros", &labels),
            renewal_micros: core.histogram("renewal_micros", &labels),
            wal_append_micros: core.histogram("wal_append_micros", &labels),
        }
    }
}

/// One call's pending durability, taken under the shard lock by
/// [`VerificationManager::commit_ticket`] and waited on after unlocking.
pub(crate) struct CommitTicket {
    store: StateStore,
    lsn: Lsn,
    /// When the call first journaled and how many records it journaled;
    /// `None` for a call that only waits for records others journaled.
    journaled: Option<(Instant, usize)>,
    wal_append_micros: Histogram,
    telemetry: Telemetry,
    clock: SimClock,
}

impl CommitTicket {
    /// Issue the batch holding the ticket's LSN if this caller may lead it
    /// now (see [`StateStore::begin`]). The caller may then run work that
    /// reads no manager state, such as a [`Mint`], while the write is in
    /// flight, and [`finish`](PendingCommit::finish)es before answering.
    pub(crate) fn begin(self) -> PendingCommit {
        PendingCommit {
            pending: self.store.begin(self.lsn),
            ticket: self,
        }
    }

    /// [`begin`](Self::begin), then [`finish`](PendingCommit::finish) at
    /// once.
    pub(crate) fn wait(self) -> Result<(), CoreError> {
        self.begin().finish()
    }
}

/// A [`CommitTicket`] whose commit has begun.
pub(crate) struct PendingCommit {
    ticket: CommitTicket,
    pending: Pending,
}

impl PendingCommit {
    /// Wait until the ticket's LSN is durable, inside a `wal_commit` span
    /// annotated with the batch's record count, the records this caller
    /// journaled itself (0 for a read barrier, a call that only waits for
    /// others' records), this caller's role (leader or follower) and the
    /// device writes already in flight when the batch was issued (0, or 1
    /// when it overlapped the previous batch's write). A call that
    /// journaled charges its journal-to-durable time to
    /// `vnfguard_core_wal_append_micros`. A failed commit is audited, so
    /// an operator sees the durability gap even when the caller's
    /// signature cannot surface it.
    pub(crate) fn finish(self) -> Result<(), CoreError> {
        let PendingCommit { ticket, pending } = self;
        let telemetry = &ticket.telemetry;
        let span = telemetry.span("vm", "wal_commit", ticket.clock.now());
        let outcome = pending.finish();
        if let Some((begun, _)) = ticket.journaled {
            ticket
                .wal_append_micros
                .record(begun.elapsed().as_micros() as u64);
        }
        let now = ticket.clock.now();
        match &outcome {
            Ok(commit) if span.context().is_recording() => {
                let role = if commit.leader { "leader" } else { "follower" };
                let own = ticket.journaled.map_or(0, |(_, records)| records);
                telemetry.annotate(now, "batch_records", &commit.batch_records.to_string());
                telemetry.annotate(now, "own_records", &own.to_string());
                telemetry.annotate(now, "role", role);
                telemetry.annotate(now, "in_flight", &commit.in_flight.to_string());
            }
            Ok(_) => {}
            Err(e) => {
                telemetry.event(now, "wal_commit_failed", &e.to_string());
            }
        }
        outcome.map(drop).map_err(CoreError::from)
    }
}

/// Step 5's CPU work, cut off from the manager: generate the client key,
/// sign its certificate and wrap the bundle to the enclave's provisioning
/// key. A minting workflow (enrollment, renewal) runs its checks,
/// allocates the serial, draws every random value in the DRBG's order
/// (key seed, then wrap seed, then GCM nonce) and journals its records
/// under the shard lock, then returns a `Mint`, which reads no manager
/// state. The shard accessor runs it after unlocking, while the call's
/// WAL write is in flight: the journal records hold nothing the
/// signature or the wrap produce.
#[must_use = "a Mint holds the credential the workflow promised"]
pub struct Mint {
    issuance: Issuance,
    subject: DistinguishedName,
    profile: IssueProfile,
    key_seed: [u8; 32],
    wrap: WrapRandomness,
    provisioning_key: [u8; 32],
    ca_certificate: Certificate,
    ca_previous: Vec<Certificate>,
    server_cn: String,
    telemetry: Telemetry,
    now: u64,
}

impl Mint {
    /// The serial the certificate will carry.
    pub fn serial(&self) -> u64 {
        self.issuance.serial()
    }

    /// Generate the key, sign the certificate (span `issue_certificate`)
    /// and wrap the bundle (span `wrap_credentials`). Returns the wrapped
    /// bundle and the certificate.
    pub fn run(self) -> (Vec<u8>, Certificate) {
        let issue_span = self.telemetry.span("vm", "issue_certificate", self.now);
        let client_key = SigningKey::from_seed(&self.key_seed);
        let certificate = self.issuance.sign(
            self.subject,
            client_key.public_key(),
            &self.profile,
            self.now,
        );
        drop(issue_span);
        let _wrap_span = self.telemetry.span("vm", "wrap_credentials", self.now);
        let bundle = ProvisionBundle {
            key_seed: self.key_seed,
            certificate: certificate.clone(),
            ca_certificate: self.ca_certificate,
            server_cn: self.server_cn,
            ca_previous: self.ca_previous,
        };
        let wrapped = wrap_credentials(&self.wrap, &self.provisioning_key, &bundle);
        (wrapped, certificate)
    }
}

/// What a [`VmService::recover`](crate::service::VmService::recover) pass
/// reconstructed and repaired.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// When the recovery ran.
    pub at: u64,
    /// Manager incarnation number (previous generation + 1).
    pub generation: u64,
    /// Whether a compacted snapshot seeded the replay.
    pub from_snapshot: bool,
    /// Whether a torn or corrupt log tail was dropped. Dropped records were
    /// never acknowledged, so this is informational, not a loss.
    pub truncated_tail: bool,
    /// Log records applied on top of the snapshot.
    pub replayed_records: u64,
    /// Committed enrollments replayed into the state.
    pub enrollments_restored: usize,
    /// In-grace pending enrollments kept (still awaiting commit/abort).
    pub pending_restored: usize,
    /// Revocations replayed into the state.
    pub revocations_restored: usize,
    /// Committed CA rotations re-applied (deterministic key re-derivation
    /// plus [`install_rotation`](CertificateAuthority::install_rotation)).
    pub rotations_restored: usize,
    /// A rotation was prepared but never committed before the crash: the
    /// pass left the CA on the pre-rotation key (rollback) and the
    /// operator should re-run the rotation.
    pub rotation_rolled_back: bool,
    /// Orphaned pending enrollments aborted and revoked by this pass.
    pub orphans_aborted: usize,
    /// Undelivered revocation notices handed back to the notifier.
    pub notices_requeued: usize,
}

/// Grace period applied to pending enrollments during recovery when the
/// config does not set `pending_enrollment_ttl_secs`: a prepare younger
/// than this may still be awaiting its commit, so it is restored as
/// pending rather than aborted.
pub const DEFAULT_ORPHAN_GRACE_SECS: u64 = 300;

/// The Verification Manager (Figure 1, center).
///
/// Time comes from the [`SimClock`] injected at construction: workflow
/// methods read it implicitly, and no workflow takes an explicit instant.
/// The whitelists, the host reference database and the host verdicts are
/// not the manager's: the workflows read the deployment's [`Trust`],
/// which the service lends them. The host handshake and the VNF challenge
/// are [`Handshake`] methods (see [`handshake`](Self::handshake)).
pub struct VerificationManager {
    config: ManagerConfig,
    ca: CertificateAuthority,
    rng: HmacDrbg,
    /// Enrollments, pending enrollments and revocations: the fold of every
    /// record this manager journaled, and of the log it recovered from.
    journaled: JournaledState,
    /// Challenges and their counter, which no journal carries.
    handshake: HandshakeState,
    clock: SimClock,
    telemetry: Telemetry,
    metrics: ManagerMetrics,
    /// The HMAC key the paper has the VM generate (used to authenticate
    /// VM-originated notifications to hosts).
    hmac_key: [u8; 32],
    /// Seed for deriving per-epoch CA rotation keys (see
    /// [`epoch_key`](Self::epoch_key)): recovery re-derives the same keys
    /// from the same manager seed instead of persisting key material.
    rotation_seed: [u8; 32],
    /// When the last signed CRL was issued (drives the age gauge).
    last_crl_issued_at: Option<u64>,
    /// The most recently issued numbered CRL, re-served to read-only
    /// distribution requests so polling does not grow the WAL.
    last_crl: Option<Crl>,
    /// The [`crl_revision`](Self::crl_revision)s signed into `last_crl`:
    /// this manager's first, then each other shard's, every one the
    /// highest any signing saw. A revision past its entry obsoletes the
    /// cached CRL, and the next [`latest_crl`](Self::latest_crl) mints a
    /// fresh one.
    crl_signed: Vec<u64>,
    /// End of the dual-trust window opened by the last rotation.
    rotation_drain_deadline: Option<u64>,
    /// Crash-point injection schedule (tests only in practice).
    crash_plan: Option<CrashPlan>,
    liveness: Liveness,
    /// Outcome of the recovery pass that produced this incarnation.
    last_recovery: Option<RecoveryReport>,
    /// The shard count of the deployment this manager belongs to.
    shard_count: u32,
    /// Per-serial next-attempt state for renewals the serving layer
    /// refused (shed or deadline-expired):
    /// [`certs_expiring`](Self::certs_expiring) skips a serial until its jittered
    /// next-attempt time, so a refused fleet doesn't re-offer the same
    /// renewals every sweep. Volatile soft state — never journaled, never
    /// recovered; after a restart the worst case is one extra offer.
    renewal_backoff: HashMap<u64, RenewalBackoff>,
}

/// Backoff state for one refused renewal (see
/// [`VerificationManager::note_renewal_refused`]).
#[derive(Debug, Default, Clone)]
struct RenewalBackoff {
    attempts: u32,
    next_attempt_at: u64,
}

/// A manager's handshake part: the outstanding challenges and the
/// challenge counter. No journal carries either (a new incarnation starts
/// with none), so the steps that touch only this part and the host table
/// never wait for a WAL write.
struct HandshakeState {
    challenges: HashMap<u64, Challenge>,
    next_challenge: u64,
}

impl HandshakeState {
    fn new() -> HandshakeState {
        HandshakeState {
            challenges: HashMap::new(),
            next_challenge: 1,
        }
    }

    /// Consume challenge `id`: a challenge answers once, and only within
    /// its lifetime.
    fn take_challenge(&mut self, id: u64, now: u64) -> Result<Challenge, CoreError> {
        let challenge = self
            .challenges
            .remove(&id)
            .ok_or_else(|| CoreError::BadChallenge(format!("unknown challenge {id}")))?;
        if now > challenge.issued_at + CHALLENGE_LIFETIME_SECS {
            return Err(CoreError::BadChallenge(format!("challenge {id} expired")));
        }
        Ok(challenge)
    }
}

/// Whether a manager answers at all.
#[derive(Default)]
struct Liveness {
    /// Set once a crash point fires (or a halt): the site name. A crashed
    /// manager refuses every further workflow call.
    crashed: Option<String>,
    /// Primary-side replication handle (also installed as the store's
    /// append observer); `None` runs unreplicated.
    replication: Option<ReplicaSet>,
}

impl Liveness {
    /// A crashed manager answers nothing until recovered; a fenced one —
    /// deposed by a promoted standby at a higher replication epoch —
    /// answers nothing ever again (its timeline is dead).
    fn check(&self) -> Result<(), CoreError> {
        if let Some(site) = &self.crashed {
            return Err(CoreError::VmCrashed(site.clone()));
        }
        if let Some(replication) = &self.replication {
            if replication.is_fenced() {
                return Err(CoreError::ServiceUnavailable(format!(
                    "manager fenced: a newer primary holds a replication epoch above {}",
                    replication.epoch()
                )));
            }
        }
        Ok(())
    }
}

/// Serial-number span reserved per shard: shard `i` allocates serials in
/// `[i * SPAN, (i+1) * SPAN)`, so a serial names its owning shard.
pub const SHARD_SERIAL_SPAN: u64 = 1 << 40;
/// Challenge-id span reserved per shard (same ownership trick as serials).
pub const SHARD_CHALLENGE_SPAN: u64 = 1 << 32;

/// The shard that allocated `serial` (shard 0 for pre-sharding serials).
pub fn shard_of_serial(serial: u64) -> u32 {
    (serial / SHARD_SERIAL_SPAN) as u32
}

/// The shard that minted challenge `id`.
pub fn shard_of_challenge(id: u64) -> u32 {
    (id / SHARD_CHALLENGE_SPAN) as u32
}

impl VerificationManager {
    /// A manager with its own clock (starting at 0) and telemetry bundle.
    pub fn new(config: ManagerConfig, seed: &[u8]) -> VerificationManager {
        VerificationManager::with_runtime(config, seed, SimClock::at(0), Telemetry::new())
    }

    /// A manager sharing the deployment's clock and telemetry. Clones of
    /// both handles observe the same state.
    pub fn with_runtime(
        config: ManagerConfig,
        seed: &[u8],
        clock: SimClock,
        telemetry: Telemetry,
    ) -> VerificationManager {
        let mut rng = HmacDrbg::new(seed);
        let ca =
            CertificateAuthority::new(DistinguishedName::new(MANAGER_NAME), CA_VALIDITY, &mut rng);
        let hmac_key = rng.gen_array::<32>();
        // Rotation keys derive from the construction seed, not the DRBG
        // stream: recovery must re-derive the exact epoch keys regardless
        // of how far the dead incarnation had advanced its DRBG.
        let rotation_seed = sha256(&[seed, b"ca rotation" as &[u8]].concat());
        let metrics = ManagerMetrics::bind(&telemetry, None);
        VerificationManager {
            config,
            ca,
            rng,
            journaled: JournaledState::new(ManagerState::default(), None),
            handshake: HandshakeState::new(),
            clock,
            telemetry,
            metrics,
            hmac_key,
            rotation_seed,
            last_crl_issued_at: None,
            last_crl: None,
            crl_signed: Vec::new(),
            rotation_drain_deadline: None,
            crash_plan: None,
            liveness: Liveness::default(),
            last_recovery: None,
            shard_count: 1,
            renewal_backoff: HashMap::new(),
        }
    }

    /// Place this manager at shard `index` of `count`.
    ///
    /// Shard 0 — the authority shard — keeps the default allocators, so a
    /// single-shard deployment is bit-identical to an unsharded one. A
    /// non-authority shard floors its serial and challenge allocators at
    /// the base of its reserved span and diverges its DRBG (two shards
    /// must never mint the same key seeds or nonces). All floors use
    /// max-semantics, so re-applying after a crash-recovery replay (which
    /// restores allocators from the shard's own WAL, already inside the
    /// span) is idempotent.
    pub fn set_shard(&mut self, index: u32, count: u32) {
        self.shard_count = count.max(1);
        // In a multi-shard deployment every shard's per-shard series carry
        // a `{shard="i"}` label (otherwise N registries collide into one);
        // a single-shard deployment keeps the unlabeled names.
        if self.shard_count > 1 {
            self.metrics = ManagerMetrics::bind(&self.telemetry, Some(index));
        }
        if index == 0 {
            return;
        }
        self.ca
            .restore_issuance(u64::from(index) * SHARD_SERIAL_SPAN, 0);
        self.handshake.next_challenge = self
            .handshake
            .next_challenge
            .max(u64::from(index) * SHARD_CHALLENGE_SPAN + 1);
        self.rng
            .reseed(&[b"shard" as &[u8], &index.to_be_bytes()].concat());
    }

    /// Total shards in the deployment this manager belongs to.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Attach a sealed state store to a fresh manager: from here on every
    /// state transition is journaled before the operation is acknowledged
    /// (WAL-before-response). The journal only enqueues; the
    /// [`VmService`](crate::service::VmService) shard accessor waits for
    /// durability after unlocking, which is why only the testbed, which
    /// always wraps managers in one, attaches stores.
    pub(crate) fn with_store(mut self, store: StateStore) -> VerificationManager {
        debug_assert!(
            *self.state() == ManagerState::default(),
            "a store attaches before anything is journaled"
        );
        self.journaled = JournaledState::new(ManagerState::default(), Some(store));
        self
    }

    /// Attach a crash-injection plan evaluated at each named crash point.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> VerificationManager {
        self.crash_plan = Some(plan);
        self
    }

    /// The clock this manager reads for all implicit `now` values.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The telemetry bundle receiving this manager's metrics, spans and
    /// audit events.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Open a workflow or step span attributed to the `vm` service. It
    /// joins the calling thread's current trace (the request scope the
    /// router installed, or an enclosing span) and is the current context
    /// until it drops, so inner steps and backend round-trips chain under
    /// it.
    fn span(&self, name: &str, now: u64) -> SpanGuard {
        self.telemetry.span("vm", name, now)
    }

    /// The active configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// The CA certificate to provision into the controller's trust store —
    /// the paper's replacement for per-client keystore maintenance.
    pub fn ca_certificate(&self) -> &Certificate {
        self.ca.certificate()
    }

    /// Authenticate a VM-originated message (the paper's HMAC key).
    pub fn hmac_tag(&self, message: &[u8]) -> [u8; 32] {
        vnfguard_crypto::hmac::hmac_sha256(&self.hmac_key, message)
    }

    /// The VM-generated HMAC key, for distribution to host agents so they
    /// can authenticate VM-originated notifications (the paper's §2 key).
    pub fn share_hmac_key(&self) -> [u8; 32] {
        self.hmac_key
    }

    /// The handshake steps: a view of the challenges and `trust`'s host
    /// table that borrows the DRBG, clock, configuration, metrics,
    /// telemetry and liveness check with them, and nothing journaled.
    pub fn handshake<'a>(&'a mut self, trust: &'a Trust) -> Handshake<'a> {
        Handshake {
            part: &mut self.handshake,
            trust,
            rng: &mut self.rng,
            clock: &self.clock,
            config: &self.config,
            metrics: &self.metrics,
            telemetry: &self.telemetry,
            liveness: &self.liveness,
        }
    }

    fn event(&self, time: u64, kind: &str, detail: &str) {
        self.telemetry.event(time, kind, detail);
    }

    /// The manager's journaled state: every enrollment, pending enrollment
    /// and revocation, with the issuance, CRL and rotation history.
    pub(crate) fn state(&self) -> &ManagerState {
        self.journaled.get()
    }

    /// The sealed store this manager journals to; `None` when volatile.
    pub(crate) fn store(&self) -> Option<&StateStore> {
        self.journaled.store()
    }

    /// WAL-before-response, first half: seal a workflow's `records`, queue
    /// them behind everything journaled before and fold them into the
    /// state, the one way the state changes. A failed enqueue fails the
    /// operation and changes nothing. The caller's shard accessor waits
    /// for durability (see [`commit_ticket`](Self::commit_ticket)).
    fn journal(&mut self, records: &[WalRecord]) -> Result<(), CoreError> {
        self.journaled.record(records)?;
        if self.journaled.store().is_some() {
            self.metrics.wal_records.add(records.len() as u64);
        }
        Ok(())
    }

    /// What a call that may have read or written journaled state must wait
    /// for before answering: the store's appended LSN, which covers this
    /// call's records and every record it could have observed. `None`
    /// without a store, or when everything appended is already durable and
    /// this call journaled nothing. Takes the call's journal start time and
    /// record count with it. A [`Handshake`] step takes no ticket: it
    /// observes nothing journaled.
    pub(crate) fn commit_ticket(&mut self) -> Option<CommitTicket> {
        let journaled = self.journaled.take_journaled();
        let store = self.journaled.store()?;
        let lsn = store.appended_lsn();
        if journaled.is_none() && store.is_durable(lsn) {
            return None;
        }
        Some(CommitTicket {
            store: store.clone(),
            lsn,
            journaled,
            wal_append_micros: self.metrics.wal_append_micros.clone(),
            telemetry: self.telemetry.clone(),
            clock: self.clock.clone(),
        })
    }

    /// Evaluate the crash plan at `site`. A firing plan kills the manager:
    /// the WAL retains whatever was journaled, memory mutations after the
    /// site never happen, and every later call fails [`CoreError::VmCrashed`].
    fn crash_point(&mut self, site: &str) -> Result<(), CoreError> {
        let fired = self
            .crash_plan
            .as_ref()
            .is_some_and(|plan| plan.fires(site));
        if fired {
            self.liveness.crashed = Some(site.to_string());
            self.event(self.clock.now(), "vm_crashed", site);
            // Stitch the crash onto the current trace and remember the
            // context so the recovery pass (a new manager incarnation
            // sharing this telemetry bundle) can annotate the same trace
            // with the generation it restores into.
            let ctx = current_trace();
            self.telemetry
                .trace_annotate(&ctx, self.clock.now(), "crash", site);
            self.telemetry.traces().set_crash_scope(ctx);
            return Err(CoreError::VmCrashed(site.to_string()));
        }
        Ok(())
    }

    /// Occupancy of the attached state store, if any.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.journaled.store().map(StateStore::stats)
    }

    /// Wait until the attached store is idle (see
    /// [`StateStore::quiesce`]): the caller is about to let another
    /// incarnation write to the same medium.
    pub(crate) fn quiesce_store(&self) {
        if let Some(store) = self.journaled.store() {
            store.quiesce();
        }
    }

    /// Distribution of wall-clock WAL append latency (empty when the
    /// manager runs volatile). Feeds the per-shard health snapshot.
    pub fn wal_append_latency(&self) -> vnfguard_telemetry::HistogramSnapshot {
        self.metrics.wal_append_micros.snapshot()
    }

    /// Total WAL records journaled by this incarnation's counter.
    pub fn wal_record_count(&self) -> u64 {
        self.metrics.wal_records.get()
    }

    /// The recovery pass that produced this incarnation, if any.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// The crash site that killed this manager, if a crash point fired.
    pub fn crashed_site(&self) -> Option<&str> {
        self.liveness.crashed.as_deref()
    }

    /// Attach the primary-side replication handle. The same [`ReplicaSet`]
    /// clone must already be installed as the store's append observer —
    /// this hook only gives the manager fencing awareness and the
    /// `GET /vm/replication` surface.
    pub fn with_replication(&mut self, replication: ReplicaSet) {
        self.liveness.replication = Some(replication);
    }

    /// The primary-side replication handle, for callers that stream
    /// (heartbeats) or wait on its lock (status) outside the shard lock.
    pub(crate) fn replica_set(&self) -> Option<ReplicaSet> {
        self.liveness.replication.clone()
    }

    /// Kill this incarnation in place (node-loss injection): every later
    /// call fails [`CoreError::VmCrashed`], exactly as if a crash point
    /// fired. The WAL and the standbys keep what was already journaled.
    pub fn halt(&mut self, reason: &str) {
        self.liveness.crashed = Some(reason.to_string());
        self.event(self.clock.now(), "vm_halted", reason);
    }

    /// Whether `serial` is revoked.
    pub fn credential_is_revoked(&self, serial: u64) -> bool {
        self.state().revoked.contains_key(&serial)
    }

    /// The manager's audit journal (retained events, oldest first).
    pub fn events(&self) -> Vec<VmEvent> {
        self.telemetry.journal().events()
    }

    pub fn enrollments(&self) -> impl Iterator<Item = &EnrollmentEntry> {
        self.state().enrollments.values()
    }

    /// Graceful degradation: answer a host-trust query from the cached
    /// verdict when the attestation service cannot be reached. Only
    /// permitted when the policy opts in, the host's **last real appraisal
    /// succeeded**, and that appraisal is within `degraded_ttl_secs`. Every
    /// degraded answer is audit-logged as a `DegradedVerdict` event so
    /// operators can see exactly which trust decisions lacked fresh
    /// evidence.
    pub fn degraded_host_verdict(
        &mut self,
        trust: &Trust,
        host_id: &str,
    ) -> Result<Verdict, CoreError> {
        let now = self.clock.now();
        self.liveness.check()?;
        if !self.config.degraded_verdicts {
            return Err(CoreError::ServiceUnavailable(format!(
                "attestation service unreachable and degraded verdicts are disabled \
                 (host {host_id})"
            )));
        }
        let record = trust.hosts().verdicts.get(host_id).cloned();
        let record = record.ok_or_else(|| {
            CoreError::ServiceUnavailable(format!(
                "attestation service unreachable and host {host_id} has no cached verdict"
            ))
        })?;
        if !record.verdict.is_trusted() {
            return Err(CoreError::ServiceUnavailable(format!(
                "attestation service unreachable and host {host_id}'s last appraisal failed"
            )));
        }
        if now > record.attested_at + self.config.degraded_ttl_secs {
            return Err(CoreError::ServiceUnavailable(format!(
                "attestation service unreachable and host {host_id}'s cached verdict expired"
            )));
        }
        let verdict = record.verdict;
        self.journal(&[WalRecord::DegradedVerdictGranted {
            host_id: host_id.to_string(),
            at: now,
        }])?;
        self.crash_point("degraded.verdict")?;
        self.metrics.degraded_verdicts.inc();
        self.event(
            now,
            "DegradedVerdict",
            &format!("{host_id}: reusing cached {verdict:?} (attestation service unreachable)"),
        );
        Ok(verdict)
    }

    // ---- Steps 4–5: VNF enrollment ----------------------------------------

    /// Phase one of enrollment: run every check of steps 4–5 and issue the
    /// credentials — but record the enrollment as *pending* rather than
    /// established. The returned [`Mint`]'s serial is the commit token. If
    /// delivery of the wrapped bundle fails, call
    /// [`abort_vnf_enrollment`](Self::abort_vnf_enrollment) to revoke the
    /// issued certificate; nothing half-provisioned survives.
    pub fn prepare_vnf_enrollment(
        &mut self,
        trust: &Trust,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<Mint, CoreError> {
        let result = self.prepare_enrollment_inner(
            trust,
            backend,
            challenge_id,
            quote_bytes,
            provisioning_key,
            controller_cn,
        );
        if result.is_err() {
            self.metrics.enrollment_failures.inc();
        }
        result
    }

    /// [`prepare_vnf_enrollment`](Self::prepare_vnf_enrollment) inside its
    /// `vnf_enrollment` span.
    fn prepare_enrollment_inner(
        &mut self,
        trust: &Trust,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        quote_bytes: &[u8],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<Mint, CoreError> {
        let now = self.clock.now();
        let _span = self
            .span("vnf_enrollment", now)
            .with_histogram(self.metrics.enrollment_micros.clone());
        self.liveness.check()?;
        let challenge = self.handshake.take_challenge(challenge_id, now)?;
        let ChallengeSubject::Vnf { host_id, vnf_name } = challenge.subject.clone() else {
            return Err(CoreError::BadChallenge(
                "challenge is not a VNF challenge".into(),
            ));
        };
        // Host trust may have been revoked between steps.
        if trusted_backend(trust, &host_id, now).is_none() {
            return Err(CoreError::WorkflowViolation(format!(
                "host {host_id} lost trust during enrollment"
            )));
        }

        let verify_span = self.span("ias_verify", now);
        let appraised = backend
            .appraise(quote_bytes, &challenge.nonce)
            .map_err(|e| CoreError::AttestationFailed(e.to_string()));
        drop(verify_span);
        let appraisal = match appraised {
            Ok(appraisal) => appraisal,
            Err(e) => {
                self.event(now, "vnf_attestation_rejected", &format!("{vnf_name}: {e}"));
                return Err(e);
            }
        };
        if let Err(reason) = self.config.tcb_policy.backend_policy().check(&appraisal) {
            self.event(
                now,
                "vnf_attestation_rejected",
                &format!("{vnf_name}: {reason}"),
            );
            return Err(CoreError::AttestationFailed(reason));
        }
        let measurement = Measurement(appraisal.measurement);
        // The workload measurement must be whitelisted *for this backend*:
        // this is where a trojaned VNF image (different enclave or CVM
        // code) — or known-good bytes presented through the wrong TEE —
        // is caught.
        let key = (appraisal.backend, measurement);
        if !trust.read().enclaves.contains_key(&key) {
            self.event(
                now,
                "vnf_attestation_rejected",
                &format!("{vnf_name}: measurement {measurement} unknown"),
            );
            return Err(CoreError::AttestationFailed(format!(
                "enclave measurement {measurement} not whitelisted for backend {}",
                appraisal.backend
            )));
        }
        // The evidence must bind the provisioning key we are about to use —
        // otherwise a man-in-the-middle could substitute its own key.
        let expected = provisioning_report_data(provisioning_key, &challenge.nonce);
        if appraisal.report_data != expected {
            return Err(CoreError::AttestationFailed(
                "quote does not bind the provisioning key".into(),
            ));
        }

        // Step 5: the serial and every random value now, the key, the
        // signature and the wrap after the lock drops.
        let mint = self.mint(
            &vnf_name,
            appraisal.measurement,
            provisioning_key,
            controller_cn,
            now,
        );
        let serial = mint.serial();
        // WAL-before-response: the issuance and the preparation must be
        // durable before the serial (the commit token) leaves the manager.
        // One workflow, one flush: both records share a frame, so a crash
        // can never persist the issuance without the preparation that
        // explains it.
        self.journal(&[
            WalRecord::CertIssued {
                serial,
                subject: vnf_name.clone(),
                at: now,
            },
            WalRecord::EnrollmentPrepared {
                serial,
                vnf_name: vnf_name.clone(),
                host_id,
                mrenclave: appraisal.measurement,
                provisioning_key_hash: provisioning_key_hash(provisioning_key),
                backend: appraisal.backend.as_u8(),
                at: now,
            },
        ])?;
        self.crash_point("enrollment.prepare")?;
        self.event(
            now,
            "enrollment_prepared",
            &format!("{vnf_name} serial {serial}"),
        );
        Ok(mint)
    }

    /// The locked half of step 5: draw the client key seed, allocate the
    /// serial, then draw the wrap randomness — the DRBG order a seeded
    /// run's minted bytes depend on — and take the roots the bundle
    /// carries: the *current* one, so a renewal during a dual-trust window
    /// migrates the guard onto the new epoch, plus the draining ones, so it
    /// still validates a controller whose server certificate chains to the
    /// outgoing key.
    fn mint(
        &mut self,
        vnf_name: &str,
        enclave_binding: [u8; 32],
        provisioning_key: &[u8; 32],
        controller_cn: &str,
        now: u64,
    ) -> Mint {
        let key_seed = self.rng.gen_array::<32>();
        let issuance = self.ca.reserve();
        self.metrics.certificates_issued.inc();
        let wrap = WrapRandomness::draw(&mut self.rng);
        Mint {
            issuance,
            subject: DistinguishedName::new(vnf_name).with_org(MANAGER_NAME),
            profile: IssueProfile {
                validity_secs: self.config.credential_validity_secs,
                ..IssueProfile::vnf_client(enclave_binding)
            },
            key_seed,
            wrap,
            provisioning_key: *provisioning_key,
            ca_certificate: self.ca.certificate().clone(),
            ca_previous: self.drain_window_roots(now),
            server_cn: controller_cn.to_string(),
            telemetry: self.telemetry.clone(),
            now,
        }
    }

    /// Phase two of enrollment: the wrapped bundle reached the enclave, so
    /// promote the pending record to an established enrollment.
    pub fn commit_vnf_enrollment(&mut self, serial: u64) -> Result<(), CoreError> {
        let now = self.clock.now();
        self.liveness.check()?;
        let pending = self.pending_enrollment(serial)?;
        let (vnf_name, backend) = (pending.vnf_name.clone(), backend_of(pending.backend));
        self.journal(&[WalRecord::EnrollmentCommitted { serial, at: now }])?;
        self.crash_point("enrollment.commit")?;
        self.event(now, "vnf_enrolled", &format!("{vnf_name} serial {serial}"));
        self.metrics.enrollments.inc();
        self.metrics.enrollments_by_backend[backend.as_u8() as usize].inc();
        Ok(())
    }

    fn pending_enrollment(&self, serial: u64) -> Result<&PendingEntry, CoreError> {
        self.state().pending.get(&serial).ok_or_else(|| {
            CoreError::WorkflowViolation(format!("no pending enrollment with serial {serial}"))
        })
    }

    /// Roll back a prepared enrollment whose credential never reached the
    /// enclave: the issued certificate is revoked (it may have crossed a
    /// partially working network) and the pending record is dropped, so the
    /// manager's state is exactly as if the enrollment never happened —
    /// except for the audit trail and the CRL entry.
    pub fn abort_vnf_enrollment(&mut self, serial: u64, reason: &str) -> Result<(), CoreError> {
        let now = self.clock.now();
        self.liveness.check()?;
        let vnf_name = self.pending_enrollment(serial)?.vnf_name.clone();
        self.journal(&[WalRecord::EnrollmentAborted {
            serial,
            reason: reason.to_string(),
            at: now,
        }])?;
        self.crash_point("enrollment.abort")?;
        self.metrics.enrollment_aborts.inc();
        self.event(
            now,
            "enrollment_rolled_back",
            &format!("{vnf_name} serial {serial}: {reason}"),
        );
        Ok(())
    }

    /// Enrollments issued but not yet committed (normally transient).
    pub fn pending_enrollments(&self) -> impl Iterator<Item = &PendingEntry> {
        self.state().pending.values()
    }

    /// Abort every pending enrollment older than the configured
    /// `pending_enrollment_ttl_secs` — the bound on the otherwise unbounded
    /// prepare queue. Each expiry revokes the issued serial (the wrapped
    /// bundle may be in flight somewhere) and counts as an enrollment
    /// abort. A TTL of `0` disables the sweep. Returns how many expired.
    pub fn sweep_pending_enrollments(&mut self) -> Result<usize, CoreError> {
        let now = self.clock.now();
        self.liveness.check()?;
        let ttl = self.config.pending_enrollment_ttl_secs;
        if ttl == 0 {
            return Ok(0);
        }
        let stale: Vec<(u64, String)> = self
            .pending_enrollments()
            .filter(|p| now > p.prepared_at.saturating_add(ttl))
            .map(|p| (p.serial, p.vnf_name.clone()))
            .collect();
        for (serial, vnf_name) in &stale {
            self.journal(&[WalRecord::EnrollmentAborted {
                serial: *serial,
                reason: "pending enrollment expired".into(),
                at: now,
            }])?;
            self.crash_point("enrollment.expire")?;
            self.metrics.enrollment_aborts.inc();
            self.event(
                now,
                "enrollment_expired",
                &format!("{vnf_name} serial {serial}"),
            );
        }
        Ok(stale.len())
    }

    /// Rebuild a manager from its sealed store after a crash.
    ///
    /// The deterministic parts of the manager's identity (CA key, HMAC
    /// key) re-derive from `seed` exactly as in
    /// [`with_runtime`](Self::with_runtime); the journaled state —
    /// serials, enrollments, revocations — is the replay of the snapshot
    /// and log, and the CA's serial allocator, CRL number and committed
    /// rotations are restored from it. The pass then resolves what the
    /// crash left dangling:
    ///
    /// - pending enrollments older than the grace period (the configured
    ///   pending TTL, else [`DEFAULT_ORPHAN_GRACE_SECS`]) are **aborted**
    ///   and their serials revoked — their bundles may have crossed the
    ///   wire, so fail closed — with a revocation notice pushed through
    ///   `notifier`; younger ones stay pending;
    /// - undelivered revocation notices move to the notifier's
    ///   store-and-forward queue, which journals their delivery itself.
    ///
    /// Host trust records are deliberately *not* restored: attestation
    /// verdicts are evidence-bound and time-bound, so hosts must re-attest
    /// to the new incarnation.
    ///
    /// Recovery's own records are durable when this returns. Afterwards the
    /// incarnation's journal only enqueues, so it is only ever served
    /// through a [`VmService`](crate::service::VmService), whose shard
    /// accessor waits for durability; public callers use
    /// [`VmService::recover`](crate::service::VmService::recover).
    pub(crate) fn recover(
        config: ManagerConfig,
        seed: &[u8],
        clock: SimClock,
        telemetry: Telemetry,
        store: StateStore,
        mut notifier: Option<&mut RevocationNotifier>,
    ) -> Result<(VerificationManager, RecoveryReport), CoreError> {
        let replay = store.replay()?;
        let mut state = replay.state;
        state.check_invariants().map_err(CoreError::Store)?;
        let now = clock.now();
        let mut vm = VerificationManager::with_runtime(config, seed, clock, telemetry);
        let generation = state.generation + 1;
        // Diverge the DRBG from the dead incarnation: replaying its nonce
        // and key-seed sequence would reuse challenge nonces.
        vm.rng
            .reseed(&[b"recovery generation" as &[u8], &generation.to_be_bytes()].concat());
        vm.ca.restore_issuance(state.max_serial + 1, state.issued);
        vm.ca.restore_crl_number(state.crl_number);
        // Re-apply committed rotations in epoch order: the per-epoch keys
        // re-derive from the manager seed, and the journaled serials make
        // the replayed roots byte-identical to the pre-crash ones.
        for r in &state.rotations {
            let key = vm.epoch_key(r.epoch);
            vm.ca
                .install_rotation(key, CA_VALIDITY, r.root_serial, r.cross_serial);
        }
        if let Some(last) = state.rotations.last() {
            vm.rotation_drain_deadline = Some(last.at + ROTATION_DRAIN_SECS);
        }
        if let Some(epoch) = state.pending_rotation {
            // Prepared but never committed: the key swap never happened and
            // no certificate was journaled, so recovery leaves the CA on
            // the pre-crash epoch. The prepare marker is idempotent — a
            // retried rotation re-prepares the same epoch.
            vm.event(
                now,
                "ca_rotation_rolled_back",
                &format!("epoch {epoch} prepared but never committed"),
            );
        }
        let grace = match vm.config.pending_enrollment_ttl_secs {
            0 => DEFAULT_ORPHAN_GRACE_SECS,
            ttl => ttl,
        };
        let orphans: Vec<PendingEntry> = state
            .pending
            .values()
            .filter(|p| now > p.prepared_at.saturating_add(grace))
            .cloned()
            .collect();
        let notices = std::mem::take(&mut state.notices);
        let report = RecoveryReport {
            at: now,
            generation,
            from_snapshot: replay.from_snapshot,
            truncated_tail: replay.truncated_tail,
            replayed_records: replay.replayed_records,
            enrollments_restored: state.enrollments.len(),
            pending_restored: state.pending.len() - orphans.len(),
            revocations_restored: state.revoked.len(),
            rotations_restored: state.rotations.len(),
            rotation_rolled_back: state.pending_rotation.is_some(),
            orphans_aborted: orphans.len(),
            notices_requeued: notices.len(),
        };
        vm.journaled = JournaledState::new(state, Some(store));
        for p in &orphans {
            vm.journal(&[WalRecord::EnrollmentAborted {
                serial: p.serial,
                reason: "orphaned by crash".into(),
                at: now,
            }])?;
            vm.metrics.enrollment_aborts.inc();
            vm.metrics.recovered_orphans.inc();
            vm.event(
                now,
                "enrollment_rolled_back",
                &format!("{} serial {}: orphaned by crash", p.vnf_name, p.serial),
            );
            if let Some(n) = notifier.as_deref_mut() {
                let tag = vm.hmac_tag(&revocation_message(&p.host_id, p.serial));
                n.notify(&p.host_id, p.serial, tag, now);
            }
        }
        // The notifier journals the delivery of undelivered notices itself,
        // so its queue, not the state, holds them from here on.
        if let Some(n) = notifier {
            n.restore(
                notices
                    .into_iter()
                    .map(|notice| crate::revocation::PendingNotice {
                        host_id: notice.host_id,
                        serial: notice.serial,
                        tag: notice.tag,
                        attempts: 0,
                    }),
            );
        }
        vm.journal(&[WalRecord::RecoveryCompleted {
            generation,
            at: now,
        }])?;
        // Recovery runs outside any shard accessor, so it waits for its own
        // records before the incarnation goes live.
        if let Some(ticket) = vm.commit_ticket() {
            ticket.wait()?;
        }
        vm.metrics.recoveries.inc();
        vm.event(
            now,
            "recovery_completed",
            &format!(
                "generation {generation}: {} enrollments, {} pending restored, \
                 {} orphans aborted, {} notices requeued",
                report.enrollments_restored,
                report.pending_restored,
                report.orphans_aborted,
                report.notices_requeued
            ),
        );
        if let Some(ctx) = vm.telemetry.traces().take_crash_scope() {
            // The crash fired under a distributed trace; stitch the
            // recovery generation onto that same trace so operators see
            // crash and restart as one causal story.
            vm.telemetry
                .trace_annotate(&ctx, now, "recovery", &format!("generation {generation}"));
        }
        vm.last_recovery = Some(report.clone());
        Ok((vm, report))
    }

    // ---- Revocation --------------------------------------------------------

    /// Revoke one credential by serial.
    pub fn revoke_credential(
        &mut self,
        serial: u64,
        reason: RevocationReason,
    ) -> Result<(), CoreError> {
        let now = self.clock.now();
        self.liveness.check()?;
        if !self.state().enrollments.contains_key(&serial) {
            return Err(CoreError::WorkflowViolation(format!(
                "no enrollment with serial {serial}"
            )));
        }
        self.journal(&[WalRecord::CredentialRevoked {
            serial,
            reason_code: reason.to_u8(),
            at: now,
        }])?;
        self.crash_point("revocation.revoke")?;
        self.metrics.revocations.inc();
        self.event(now, "credential_revoked", &format!("serial {serial}"));
        Ok(())
    }

    /// Revoke every credential this manager issued to VNFs on a host
    /// (platform compromise response); returns how many this call revoked.
    /// The first revocation that fails fails the call, and a retry after
    /// recovery skips the serials already revoked. The host's verdict is
    /// not the manager's: [`VmService::revoke_host`] flips it first.
    ///
    /// [`VmService::revoke_host`]: crate::service::VmService::revoke_host
    pub fn revoke_host(&mut self, host_id: &str) -> Result<usize, CoreError> {
        self.liveness.check()?;
        let now = self.clock.now();
        let serials: Vec<u64> = self
            .enrollments()
            .filter(|e| e.host_id == host_id && !e.revoked)
            .map(|e| e.serial)
            .collect();
        for serial in &serials {
            self.revoke_credential(*serial, RevocationReason::PlatformCompromise)?;
        }
        self.event(
            now,
            "host_revoked",
            &format!("{host_id}: {} credentials", serials.len()),
        );
        Ok(serials.len())
    }

    // ---- Certificate revocation lists -------------------------------------
    //
    // Every CRL carries the state's revocations plus `extra`: in a sharded
    // deployment the authority shard signs the fleet CRL and the service
    // passes the other shards' entries, with their CRL revisions as
    // `remote`, and `&[]` for both otherwise. The CA's own revocation
    // registry stays empty: revocations are journaled state.

    /// This manager's revocations as CRL entries (for folding into the
    /// authority-signed fleet CRL).
    pub fn revoked_entries(&self) -> Vec<CrlEntry> {
        self.state()
            .revoked
            .iter()
            .map(|(&serial, &(reason, revoked_at))| CrlEntry {
                serial,
                revoked_at,
                reason: RevocationReason::from_u8(reason),
            })
            .collect()
    }

    fn crl_entries(&self, extra: &[CrlEntry]) -> Vec<CrlEntry> {
        let mut entries = extra.to_vec();
        entries.extend(self.revoked_entries());
        entries
    }

    /// Read-only preview of the CRL under the current CRL number: neither
    /// journals nor bumps the number.
    pub fn current_crl(&self, extra: &[CrlEntry], lifetime_secs: u64) -> Crl {
        let now = self.clock.now();
        self.ca
            .current_crl_with(&self.crl_entries(extra), now, lifetime_secs)
    }

    /// Issue a new numbered CRL for distribution. Unlike
    /// [`current_crl`](Self::current_crl) (a read-only preview), this bumps
    /// the monotonic CRL number and journals the issuance first, so the
    /// number never regresses across a crash — relying parties use it to
    /// reject replayed revocation data.
    pub fn issue_crl(&mut self, extra: &[CrlEntry], remote: &[u64]) -> Result<Crl, CoreError> {
        let now = self.clock.now();
        self.liveness.check()?;
        self.journal(&[WalRecord::CrlIssued {
            number: self.ca.crl_number() + 1,
            at: now,
        }])?;
        self.crash_point("crl.issue")?;
        // Keep every entry of the CRL this one replaces, and every revision
        // it was signed at: a revocation is never undone, and a caller
        // whose gather of `extra` predates another's may sign after it.
        let mut entries = self.crl_entries(extra);
        entries.extend(self.last_crl.iter().flat_map(Crl::entries));
        let crl = self
            .ca
            .issue_crl_with(&entries, now, self.config.crl_lifetime_secs);
        for (index, revision) in self.crl_revisions(remote).enumerate() {
            match self.crl_signed.get_mut(index) {
                Some(signed) => *signed = (*signed).max(revision),
                None => self.crl_signed.push(revision),
            }
        }
        self.last_crl_issued_at = Some(now);
        self.last_crl = Some(crl.clone());
        self.metrics.crls_issued.inc();
        self.metrics.crl_age_seconds.set(0);
        self.event(
            now,
            "crl_issued",
            &format!("number {}, {} entries", crl.crl_number, crl.len()),
        );
        Ok(crl)
    }

    /// The CRL to serve to a polling relying party. Re-serves the most
    /// recently issued numbered CRL byte-for-byte, so distribution reads
    /// (`GET /vm/crl`) neither journal WAL records nor burn CRL numbers. A
    /// fresh CRL carrying `extra` is minted through
    /// [`issue_crl`](Self::issue_crl) only when none has been issued yet,
    /// when the cached one passed its `next_update`, or when a revision
    /// passed the one the cached CRL was signed at: this manager's own (a
    /// revocation or a key rotation), or one of `remote`, the other shards'
    /// revisions read with `extra`.
    pub fn latest_crl(&mut self, extra: &[CrlEntry], remote: &[u64]) -> Result<Crl, CoreError> {
        let now = self.clock.now();
        self.liveness.check()?;
        let signed = |index| self.crl_signed.get(index).copied().unwrap_or(0);
        let obsolete = self
            .crl_revisions(remote)
            .enumerate()
            .any(|(index, revision)| revision > signed(index));
        match &self.last_crl {
            Some(crl) if !obsolete && !crl.is_stale(now) => Ok(crl.clone()),
            _ => self.issue_crl(extra, remote),
        }
    }

    /// A revision that every change obsoleting a signed CRL moves forward:
    /// a revocation (the state's revocations only grow) or a CA rotation,
    /// authored or adopted. The service reads each other shard's with its
    /// entries and hands both to the authority's
    /// [`latest_crl`](Self::latest_crl).
    pub fn crl_revision(&self) -> u64 {
        self.state().revoked.len() as u64 + u64::from(self.ca.epoch())
    }

    /// This manager's CRL revision, then `remote`: the revisions a CRL
    /// signed now covers, in `crl_signed`'s order.
    fn crl_revisions<'a>(&self, remote: &'a [u64]) -> impl Iterator<Item = u64> + 'a {
        std::iter::once(self.crl_revision()).chain(remote.iter().copied())
    }

    // ---- Shard fleet coordination ------------------------------------------
    //
    // In a sharded deployment the CA key, the CRL number and the rotation
    // epoch are owned by the authority shard (shard 0); non-authority
    // shards adopt its rotations through the method below. Adoption writes
    // no journaled state: authority decisions appear only in the
    // authority's WAL, and recovery re-adopts from the authority's
    // replayed state.

    /// Adopt a CA rotation decided by the authority shard.
    ///
    /// The epoch key re-derives from the shared construction seed and the
    /// journaled serials, so the installed root and cross certificates are
    /// byte-identical to the authority's. Idempotent for epochs already
    /// adopted; epochs must otherwise arrive in order.
    pub fn adopt_rotation(
        &mut self,
        epoch: u64,
        root_serial: u64,
        cross_serial: u64,
        rotated_at: u64,
    ) -> Result<(), CoreError> {
        self.liveness.check()?;
        let current = self.ca.epoch() as u64;
        if epoch <= current {
            return Ok(());
        }
        if epoch != current + 1 {
            return Err(CoreError::WorkflowViolation(format!(
                "cannot adopt rotation epoch {epoch} from epoch {current}: not contiguous"
            )));
        }
        let key = self.epoch_key(epoch);
        self.ca
            .install_rotation(key, CA_VALIDITY, root_serial, cross_serial);
        self.rotation_drain_deadline = Some(rotated_at + ROTATION_DRAIN_SECS);
        self.event(
            self.clock.now(),
            "ca_rotation_adopted",
            &format!("epoch {epoch} from authority shard"),
        );
        Ok(())
    }

    // ---- Credential lifecycle ---------------------------------------------

    /// The signing key for CA epoch `epoch`, derived deterministically from
    /// the construction seed (epoch 0 is the original DRBG-derived key, so
    /// this is only meaningful for `epoch >= 1`).
    fn epoch_key(&self, epoch: u64) -> SigningKey {
        let seed = sha256(&[&self.rotation_seed[..], &epoch.to_be_bytes()].concat());
        SigningKey::from_seed(&seed)
    }

    /// Rotate the CA to a fresh key epoch.
    ///
    /// The new root is cross-signed by the *outgoing* key, so relying
    /// parties can verify the handover against the anchor they already
    /// trust (see [`crate::lifecycle::verify_handover`]). Both roots stay
    /// valid through the dual-trust drain window; the revocation registry
    /// and serial allocator carry over. The rotation is two-phase in the
    /// WAL — `CaRotationPrepared` then `CaRotationCommitted` — and
    /// [`recover`](crate::service::VmService::recover) resumes a committed
    /// rotation (re-deriving the epoch key) or rolls back an uncommitted
    /// one.
    pub fn rotate_ca(&mut self) -> Result<CaRotation, CoreError> {
        let now = self.clock.now();
        let _span = self.span("ca_rotation", now);
        self.rotate_ca_inner(now)
    }

    fn rotate_ca_inner(&mut self, now: u64) -> Result<CaRotation, CoreError> {
        self.liveness.check()?;
        let epoch = self.ca.epoch() as u64 + 1;
        self.journal(&[WalRecord::CaRotationPrepared { epoch, at: now }])?;
        self.crash_point("rotation.prepare")?;
        self.event(now, "ca_rotation_prepared", &format!("epoch {epoch}"));

        // Journal the exact serials the rotation will mint, then the
        // commit marker — all durable before any in-memory key swap, so
        // recovery can replay the rotation byte-identically.
        let root_serial = self.ca.next_serial();
        let cross_serial = root_serial + 1;
        self.journal(&[
            WalRecord::CertIssued {
                serial: root_serial,
                subject: MANAGER_NAME.to_string(),
                at: now,
            },
            WalRecord::CertIssued {
                serial: cross_serial,
                subject: format!("{MANAGER_NAME} (cross-signed)"),
                at: now,
            },
            WalRecord::CaRotationCommitted {
                epoch,
                root_serial,
                cross_serial,
                at: now,
            },
        ])?;
        self.crash_point("rotation.commit")?;

        let rotate_span = self.span("rotate_keys", now);
        let previous_root = self.ca.certificate().clone();
        let new_key = self.epoch_key(epoch);
        let (new_root, cross_signed) = self.ca.rotate_to(new_key, CA_VALIDITY);
        drop(rotate_span);
        self.metrics.certificates_issued.add(2);
        self.metrics.rotations.inc();
        let drain_deadline = now + ROTATION_DRAIN_SECS;
        self.rotation_drain_deadline = Some(drain_deadline);
        self.event(
            now,
            "ca_rotated",
            &format!("epoch {epoch}, dual trust until {drain_deadline}"),
        );
        Ok(CaRotation {
            epoch,
            new_root,
            cross_signed,
            previous_root,
            rotated_at: now,
            drain_deadline,
        })
    }

    /// Renew an established credential without re-running the six-step
    /// enrollment protocol.
    ///
    /// The trust argument is the *cached attestation verdict*: renewal is
    /// only granted while the hosting platform's last appraisal is both
    /// trusted and fresh (the same recency bound enrollment itself uses).
    /// A stale or failed verdict returns
    /// [`CoreError::AttestationFailed`] — the caller must fall back to the
    /// full protocol. The new certificate keeps the enclave binding of the
    /// original enrollment and is wrapped for the same provisioning key;
    /// the old credential stays valid until its own expiry (it was never
    /// compromised — revoking it would break sessions mid-handover). The
    /// returned [`Mint`] produces the wrapped bundle and the certificate.
    pub fn renew_vnf_credential(
        &mut self,
        trust: &Trust,
        serial: u64,
        provisioning_key: &[u8; 32],
        controller_cn: &str,
    ) -> Result<Mint, CoreError> {
        let now = self.clock.now();
        let result = {
            let _span = self
                .span("credential_renewal", now)
                .with_histogram(self.metrics.renewal_micros.clone());
            self.renew_inner(trust, serial, provisioning_key, controller_cn, now)
        };
        match &result {
            Ok(_) => self.metrics.renewals.inc(),
            Err(_) => self.metrics.renewal_failures.inc(),
        }
        result
    }

    fn renew_inner(
        &mut self,
        trust: &Trust,
        serial: u64,
        provisioning_key: &[u8; 32],
        controller_cn: &str,
        now: u64,
    ) -> Result<Mint, CoreError> {
        self.liveness.check()?;
        let old = self
            .state()
            .enrollments
            .get(&serial)
            .ok_or_else(|| {
                CoreError::WorkflowViolation(format!("no enrollment with serial {serial}"))
            })?
            .clone();
        if old.revoked {
            return Err(CoreError::WorkflowViolation(format!(
                "credential {serial} is revoked; renewal refused"
            )));
        }
        // Serials are public (they appear in certificates and CRLs), so the
        // caller must prove nothing by naming one. What gates the renewal is
        // the provisioning key: only the key the enrollment quote bound may
        // receive the successor bundle — anything else is an attacker asking
        // for a live credential wrapped to a key of their choosing.
        if provisioning_key_hash(provisioning_key) != old.provisioning_key_hash {
            self.event(
                now,
                "renewal_refused",
                &format!(
                    "{} serial {serial}: provisioning key does not match enrollment",
                    old.vnf_name
                ),
            );
            return Err(CoreError::AttestationFailed(format!(
                "provisioning key does not match the one bound at enrollment \
                 of serial {serial}; full re-attestation required"
            )));
        }
        let Some(host_backend) = trusted_backend(trust, &old.host_id, now) else {
            self.event(
                now,
                "renewal_refused",
                &format!(
                    "{} serial {serial}: host {} verdict stale",
                    old.vnf_name, old.host_id
                ),
            );
            return Err(CoreError::AttestationFailed(format!(
                "host {} has no fresh trusted attestation; full re-attestation required",
                old.host_id
            )));
        };
        // The cached verdict must come from the same TEE backend the
        // enrollment was established under: a host that re-attested as a
        // different technology is a different trust story, so the renewal
        // falls back to the full protocol.
        let backend = backend_of(old.backend);
        if host_backend != backend {
            self.event(
                now,
                "renewal_refused",
                &format!(
                    "{} serial {serial}: host {} attested under a different backend",
                    old.vnf_name, old.host_id
                ),
            );
            return Err(CoreError::AttestationFailed(format!(
                "host {} last attested under backend {}, but serial {serial} was \
                 enrolled under {}; full re-attestation required",
                old.host_id,
                host_backend.label(),
                backend
            )));
        }

        let mint = self.mint(
            &old.vnf_name,
            old.mrenclave,
            provisioning_key,
            controller_cn,
            now,
        );
        let new_serial = mint.serial();
        self.journal(&[
            WalRecord::CertIssued {
                serial: new_serial,
                subject: old.vnf_name.clone(),
                at: now,
            },
            WalRecord::CredentialRenewed {
                old_serial: serial,
                new_serial,
                vnf_name: old.vnf_name.clone(),
                host_id: old.host_id,
                mrenclave: old.mrenclave,
                provisioning_key_hash: old.provisioning_key_hash,
                backend: old.backend,
                at: now,
            },
        ])?;
        self.crash_point("renewal.issue")?;
        self.metrics.renewals_by_backend[backend.as_u8() as usize].inc();
        self.event(
            now,
            "credential_renewed",
            &format!("{} serial {serial} -> {new_serial}", old.vnf_name),
        );
        self.renewal_backoff.remove(&serial);
        Ok(mint)
    }

    /// Record that a renewal of `serial` was refused by the serving layer
    /// (shed under overload, or its deadline died) with a server retry
    /// hint. The serial disappears from
    /// [`certs_expiring`](Self::certs_expiring) until a jittered next-attempt time —
    /// exponential in the refusal streak — so the agent fleet stops
    /// re-offering the same renewals every sweep while the VM sheds.
    pub fn note_renewal_refused(&mut self, serial: u64, retry_after_secs: u64) {
        let now = self.clock.now();
        let entry = self.renewal_backoff.entry(serial).or_default();
        entry.attempts += 1;
        let shift = (entry.attempts - 1).min(6);
        let bound = retry_after_secs.max(1).saturating_mul(1u64 << shift);
        // Deterministic jitter in [bound/2, bound] derived from the serial
        // and streak alone — the DRBG stream must stay untouched, because
        // oracle twins replay it and this state is never journaled.
        let mut z = serial
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(entry.attempts));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        let jittered = (bound / 2 + z % (bound / 2 + 1)).max(1);
        entry.next_attempt_at = now.saturating_add(jittered);
    }

    /// When `serial` becomes eligible for another renewal offer, if it is
    /// currently backing off.
    pub fn renewal_backoff_until(&self, serial: u64) -> Option<u64> {
        self.renewal_backoff
            .get(&serial)
            .map(|backoff| backoff.next_attempt_at)
    }

    /// Unrevoked enrollments inside the renewal window at the clock's now.
    /// Serials backing off after a refused renewal are skipped until their
    /// next-attempt time — unless the credential has actually expired, at
    /// which point waiting politely costs more than retrying.
    pub fn certs_expiring(&self) -> Vec<RenewalDue> {
        let now = self.clock.now();
        let validity = self.config.credential_validity_secs;
        // Clamp: a window at or beyond the whole lifetime would flag every
        // credential the moment it is issued.
        let window = self
            .config
            .renewal_window_secs
            .min(validity.saturating_sub(1));
        self.enrollments()
            .filter(|e| !e.revoked)
            .filter_map(|e| {
                let not_after = e.issued_at.saturating_add(validity);
                if now.saturating_add(window) >= not_after {
                    let expired = now > not_after;
                    let backing_off = !expired
                        && self
                            .renewal_backoff
                            .get(&e.serial)
                            .is_some_and(|backoff| backoff.next_attempt_at > now);
                    if backing_off {
                        return None;
                    }
                    Some(RenewalDue {
                        serial: e.serial,
                        vnf_name: e.vnf_name.clone(),
                        host_id: e.host_id.clone(),
                        not_after,
                        expired,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    /// Point-in-time lifecycle posture. Also refreshes the lifecycle
    /// gauges (`vnfguard_core_certs_active`, `vnfguard_core_certs_expiring`,
    /// `vnfguard_core_crl_age_seconds`) so a metrics scrape after any
    /// status sweep sees current values.
    pub fn lifecycle_status(&self) -> LifecycleStatus {
        let now = self.clock.now();
        let validity = self.config.credential_validity_secs;
        let active = self
            .enrollments()
            .filter(|e| !e.revoked && now <= e.issued_at.saturating_add(validity))
            .count();
        let expiring = self.certs_expiring().len();
        let crl_age_secs = self.last_crl_issued_at.map(|at| now.saturating_sub(at));
        self.metrics.certs_active.set(active as i64);
        self.metrics.certs_expiring.set(expiring as i64);
        if let Some(age) = crl_age_secs {
            self.metrics.crl_age_seconds.set(age as i64);
        }
        LifecycleStatus {
            at: now,
            active,
            expiring,
            crl_age_secs,
            epoch: self.ca.epoch() as u64,
            crl_number: self.ca.crl_number(),
            drain_deadline: self.rotation_drain_deadline,
        }
    }

    /// Current CA key epoch (0 until the first rotation).
    pub fn ca_epoch(&self) -> u64 {
        self.ca.epoch() as u64
    }

    /// The current root endorsed by the previous epoch's key (`None`
    /// before the first rotation).
    pub fn ca_cross_signed(&self) -> Option<&Certificate> {
        self.ca.cross_signed()
    }

    /// Self-signed roots from earlier key epochs, oldest first.
    pub fn ca_previous_roots(&self) -> &[Certificate] {
        self.ca.previous_roots()
    }

    /// The complete rotation handover chain, oldest first: one
    /// `(epoch, root, cross)` triple per rotation, where `cross` endorses
    /// that epoch's `root` under the preceding epoch's key. A relying
    /// party that missed intermediate rotations walks the chain forward,
    /// verifying each handover against the anchor adopted one step
    /// earlier, instead of wedging on a cross cert whose signer it never
    /// trusted. Empty before the first rotation.
    pub fn ca_rotation_chain(&self) -> Vec<(u64, Certificate, Certificate)> {
        let crosses = self.ca.cross_signed_history();
        let current_epoch = self.ca.epoch() as u64;
        (1..=current_epoch)
            .map(|epoch| {
                // previous_roots[i] is the epoch-i root once epoch i is
                // displaced; the newest epoch's root is still current.
                let root = if epoch == current_epoch {
                    self.ca.certificate().clone()
                } else {
                    self.ca.previous_roots()[epoch as usize].clone()
                };
                (epoch, root, crosses[epoch as usize - 1].clone())
            })
            .collect()
    }

    /// End of the dual-trust window opened by the last rotation.
    pub fn rotation_drain_deadline(&self) -> Option<u64> {
        self.rotation_drain_deadline
    }

    /// Previous roots to bundle as extra trust anchors while a dual-trust
    /// window is open; empty once the drain deadline passes.
    fn drain_window_roots(&self, now: u64) -> Vec<Certificate> {
        match self.rotation_drain_deadline {
            Some(deadline) if now <= deadline => self.ca.previous_roots().to_vec(),
            _ => Vec::new(),
        }
    }

    /// Issue a client certificate for a non-enclave principal (operator
    /// tooling, baseline clients in E4). No enclave binding is attached.
    pub fn issue_client_certificate(
        &mut self,
        cn: &str,
        public_key: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Result<Certificate, CoreError> {
        let profile = IssueProfile {
            validity_secs: self.config.credential_validity_secs,
            enclave_binding: None,
            ..IssueProfile::vnf_client([0; 32])
        };
        self.issue_operator_certificate(cn, public_key, &profile)
    }

    /// Issue a server certificate (for the controller's TLS identity).
    pub fn issue_server_certificate(
        &mut self,
        cn: &str,
        public_key: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Result<Certificate, CoreError> {
        self.issue_operator_certificate(cn, public_key, &IssueProfile::server())
    }

    /// Sign and journal a certificate outside the enrollment workflows. A
    /// crashed, halted or fenced manager signs nothing, and a certificate
    /// whose record the journal refuses is not handed out.
    fn issue_operator_certificate(
        &mut self,
        cn: &str,
        public_key: vnfguard_crypto::ed25519::VerifyingKey,
        profile: &IssueProfile,
    ) -> Result<Certificate, CoreError> {
        self.liveness.check()?;
        let now = self.clock.now();
        let certificate = self.ca.issue(
            DistinguishedName::new(cn).with_org(MANAGER_NAME),
            public_key,
            profile,
            now,
        );
        self.journal(&[WalRecord::CertIssued {
            serial: certificate.serial(),
            subject: cn.to_string(),
            at: now,
        }])?;
        self.metrics.certificates_issued.inc();
        Ok(certificate)
    }

    /// Number of credentials issued so far.
    pub fn issued_count(&self) -> u64 {
        self.ca.issued_count()
    }

    /// Short identity fingerprint for logs.
    pub fn fingerprint(&self) -> String {
        let digest = sha256(&self.ca.certificate().encode());
        digest[..6].iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// A borrowed view of a manager's handshake part: Figure 1's steps 1–3
/// (challenge a host, appraise its evidence, challenge a VNF's enclave),
/// TPM registration and the host-revocation flip. From
/// [`VerificationManager::handshake`].
///
/// The view borrows the part with the deployment's [`Trust`], whose host
/// table the steps read and write, the DRBG that draws challenge nonces,
/// the clock, the configuration, the metrics, the telemetry and the
/// liveness check. It has no way to the journaled state, the CA or the CRL
/// cache, so a handshake step neither journals nor reads what a journal
/// carries, and no WAL write can hold its answer back:
/// [`VmService`](crate::service::VmService) lends it without a commit
/// wait.
///
/// ```
/// use vnfguard_core::manager::{Challenge, Handshake};
/// use vnfguard_core::CoreError;
///
/// fn challenge(handshake: &mut Handshake<'_>, host_id: &str) -> Result<Challenge, CoreError> {
///     handshake.begin_host_attestation(host_id)
/// }
/// ```
///
/// A handshake step cannot reach an enrollment:
///
/// ```compile_fail
/// use vnfguard_core::manager::Handshake;
///
/// fn enrolled(handshake: &Handshake<'_>) -> usize {
///     handshake.enrollments().count()
/// }
/// ```
pub struct Handshake<'a> {
    part: &'a mut HandshakeState,
    trust: &'a Trust,
    rng: &'a mut HmacDrbg,
    clock: &'a SimClock,
    config: &'a ManagerConfig,
    metrics: &'a ManagerMetrics,
    telemetry: &'a Telemetry,
    liveness: &'a Liveness,
}

impl Handshake<'_> {
    fn span(&self, name: &str, now: u64) -> SpanGuard {
        self.telemetry.span("vm", name, now)
    }

    fn event(&self, time: u64, kind: &str, detail: &str) {
        self.telemetry.event(time, kind, detail);
    }

    /// Draw a challenge, dropping every one whose lifetime ran out: an
    /// abandoned handshake's challenge outlives it by at most that long.
    fn new_challenge(&mut self, subject: ChallengeSubject, now: u64) -> Challenge {
        self.part
            .challenges
            .retain(|_, c| now <= c.issued_at.saturating_add(CHALLENGE_LIFETIME_SECS));
        let id = self.part.next_challenge;
        self.part.next_challenge += 1;
        let challenge = Challenge {
            id,
            nonce: self.rng.gen_array::<32>(),
            issued_at: now,
            subject,
        };
        self.part.challenges.insert(id, challenge.clone());
        self.metrics.challenges.inc();
        challenge
    }

    /// Drop challenge `id` unanswered, if it is still outstanding: the
    /// orchestration calls this when a handshake fails after its challenge
    /// was issued.
    pub(crate) fn withdraw_challenge(&mut self, id: u64) {
        self.part.challenges.remove(&id);
    }

    /// Challenges issued and neither answered, withdrawn nor expired.
    #[cfg(test)]
    pub(crate) fn outstanding_challenges(&self) -> usize {
        self.part.challenges.len()
    }

    /// Register a host's TPM AIK (the §4 extension).
    pub fn register_host_tpm(
        &mut self,
        host_id: &str,
        aik: vnfguard_crypto::ed25519::VerifyingKey,
    ) -> Result<(), CoreError> {
        self.liveness.check()?;
        let now = self.clock.now();
        self.trust.hosts_mut().aiks.insert(host_id.to_string(), aik);
        self.event(now, "tpm_registered", host_id);
        Ok(())
    }

    /// The platform-compromise flip: the host's verdict turns untrusted,
    /// so no VNF challenge, enrollment or renewal passes for it until it
    /// re-attests.
    pub(crate) fn distrust_host(&mut self, host_id: &str) -> Result<(), CoreError> {
        self.liveness.check()?;
        if let Some(record) = self.trust.hosts_mut().verdicts.get_mut(host_id) {
            record.verdict = Verdict::Mismatch;
        }
        Ok(())
    }

    // ---- Steps 1–2: host attestation -------------------------------------

    /// Step 1: initiate remote attestation of a container host.
    pub fn begin_host_attestation(&mut self, host_id: &str) -> Result<Challenge, CoreError> {
        self.liveness.check()?;
        let now = self.clock.now();
        self.event(now, "host_attestation_started", host_id);
        Ok(self.new_challenge(
            ChallengeSubject::Host {
                host_id: host_id.to_string(),
            },
            now,
        ))
    }

    /// Step 2: verify the evidence with the backend's verifier (IAS for
    /// SGX, the offline VCEK chain for SNP), check its integrity
    /// measurement against the whitelist and appraise the measurement list
    /// against the reference database. The verdict replaces the host's in
    /// the host table.
    pub fn complete_host_attestation(
        &mut self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        evidence: &HostEvidence,
    ) -> Result<Verdict, CoreError> {
        let now = self.clock.now();
        let result = {
            let _span = self
                .span("host_attestation", now)
                .with_histogram(self.metrics.host_attestation_micros.clone());
            self.host_attestation_inner(backend, challenge_id, evidence, now)
        };
        match &result {
            Ok(_) => self.metrics.host_attestations.inc(),
            Err(_) => self.metrics.host_attestation_failures.inc(),
        }
        result
    }

    fn host_attestation_inner(
        &mut self,
        backend: &mut dyn AttestationBackend,
        challenge_id: u64,
        evidence: &HostEvidence,
        now: u64,
    ) -> Result<Verdict, CoreError> {
        self.liveness.check()?;
        let challenge = self.part.take_challenge(challenge_id, now)?;
        let ChallengeSubject::Host { host_id } = challenge.subject.clone() else {
            return Err(CoreError::BadChallenge(
                "challenge is not a host challenge".into(),
            ));
        };

        // Backend verification of the evidence: signature chains,
        // revocation collateral, TCB status. (The span keeps the name
        // "ias_verify" from the single-TEE days — renaming would orphan
        // every stored trace comparison.)
        // A remote backend's round-trips run under this step's span, so
        // its retry attempts and server spans chain under it.
        let verify_span = self.span("ias_verify", now);
        let appraised = backend
            .appraise(&evidence.quote, &challenge.nonce)
            .map_err(|e| CoreError::AttestationFailed(e.to_string()));
        drop(verify_span);
        let appraisal = match appraised {
            Ok(appraisal) => appraisal,
            Err(e) => {
                self.event(now, "host_attestation_rejected", &format!("{host_id}: {e}"));
                return Err(e);
            }
        };
        if let Err(reason) = self.config.tcb_policy.backend_policy().check(&appraisal) {
            self.event(
                now,
                "host_attestation_rejected",
                &format!("{host_id}: {reason}"),
            );
            return Err(CoreError::AttestationFailed(reason));
        }
        let measurement = Measurement(appraisal.measurement);
        let key = (appraisal.backend, measurement);
        if !self.trust.read().integrity_enclaves.contains_key(&key) {
            self.event(
                now,
                "host_attestation_rejected",
                &format!("{host_id}: unknown enclave"),
            );
            return Err(CoreError::AttestationFailed(format!(
                "integrity measurement {measurement} not whitelisted for backend {}",
                appraisal.backend
            )));
        }

        // The evidence must bind exactly the measurement list we received.
        let expected = host_report_data(&evidence.iml, &challenge.nonce);
        if appraisal.report_data != expected {
            return Err(CoreError::AttestationFailed(
                "quote does not bind the transmitted measurement list".into(),
            ));
        }

        // Appraise the list.
        let appraise_span = self.span("appraise", now);
        let list = evidence.measurement_list()?;
        let result = self
            .trust
            .read()
            .reference_db
            .appraise(&list, &HOST_APPRAISAL);
        drop(appraise_span);

        // §4 extension: check the TPM anchor if required/available.
        if self.config.require_tpm || evidence.tpm_quote.is_some() {
            let _tpm_span = self.span("tpm_check", now);
            let aik = self.trust.hosts().aiks.get(&host_id).copied();
            let aik = aik.ok_or_else(|| {
                CoreError::AttestationFailed(format!("no TPM AIK registered for {host_id}"))
            })?;
            let quote = evidence.parsed_tpm_quote()?.ok_or_else(|| {
                CoreError::AttestationFailed("TPM quote required but absent".into())
            })?;
            quote
                .verify(&aik, &challenge.nonce)
                .map_err(|e| CoreError::AttestationFailed(e.to_string()))?;
            if quote.pcr_index != IMA_PCR {
                return Err(CoreError::AttestationFailed("wrong PCR index".into()));
            }
            if quote.pcr_value != list.aggregate() {
                self.event(
                    now,
                    "host_attestation_rejected",
                    &format!("{host_id}: TPM/IML divergence"),
                );
                return Err(CoreError::AttestationFailed(
                    "measurement list does not match the TPM-anchored aggregate".into(),
                ));
            }
        }

        let verdict = result.verdict;
        self.trust.hosts_mut().verdicts.insert(
            host_id.clone(),
            HostRecord {
                host_id: host_id.clone(),
                verdict,
                attested_at: now,
                iml_entries: result.entries,
                backend: appraisal.backend,
            },
        );
        self.metrics.host_attestations_by_backend[appraisal.backend.as_u8() as usize].inc();
        self.event(
            now,
            if verdict.is_trusted() {
                "host_attested"
            } else {
                "host_untrusted"
            },
            &format!("{host_id}: {verdict:?}"),
        );
        Ok(verdict)
    }

    // ---- Step 3: the VNF challenge ----------------------------------------

    /// Step 3: initiate attestation of a VNF credential enclave. Fails
    /// unless the hosting platform has a fresh, trusted attestation — the
    /// paper's "the protocol continues only if the host is considered
    /// trustworthy following the appraisal".
    pub fn begin_vnf_attestation(
        &mut self,
        host_id: &str,
        vnf_name: &str,
    ) -> Result<Challenge, CoreError> {
        self.liveness.check()?;
        let now = self.clock.now();
        if trusted_backend(self.trust, host_id, now).is_none() {
            self.event(
                now,
                "vnf_attestation_refused",
                &format!("{vnf_name}: host {host_id} untrusted"),
            );
            return Err(CoreError::WorkflowViolation(format!(
                "host {host_id} has no fresh trusted attestation"
            )));
        }
        self.event(now, "vnf_attestation_started", vnf_name);
        Ok(self.new_challenge(
            ChallengeSubject::Vnf {
                host_id: host_id.to_string(),
                vnf_name: vnf_name.to_string(),
            },
            now,
        ))
    }
}

impl std::fmt::Debug for VerificationManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerificationManager")
            .field("enrollments", &self.state().enrollments.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{Chaos, Fault, Step};
    use crate::crash::CRASH_SITES;
    use crate::deployment::TestbedBuilder;
    use proptest::prelude::*;

    #[test]
    fn builder_defaults_match_default() {
        let built = ManagerConfig::builder().build().unwrap();
        let default = ManagerConfig::default();
        assert_eq!(
            built.credential_validity_secs,
            default.credential_validity_secs
        );
        assert_eq!(built.tcb_policy, default.tcb_policy);
        assert!(!built.degraded_verdicts);
    }

    #[test]
    fn builder_rejects_zero_credential_lifetime() {
        let err = ManagerConfig::builder()
            .credential_validity_secs(0)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn builder_rejects_degraded_ttl_beyond_credential_lifetime() {
        let err = ManagerConfig::builder()
            .credential_validity_secs(600)
            .degraded_verdicts(true, 900)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        // The same TTL under a longer credential lifetime is fine.
        assert!(ManagerConfig::builder()
            .credential_validity_secs(3600)
            .degraded_verdicts(true, 900)
            .build()
            .is_ok());
    }

    #[test]
    fn renewal_window_clamps_below_credential_lifetime() {
        // A window covering the whole lifetime must not flag a credential
        // the instant it is issued.
        let config = ManagerConfig::builder()
            .credential_validity_secs(3600)
            .renewal_window_secs(3600)
            .build()
            .unwrap();
        let clock = SimClock::at(1_000);
        let mut vm = VerificationManager::with_runtime(
            config,
            b"clamp test",
            clock.clone(),
            Telemetry::new(),
        );
        let key = SigningKey::from_seed(&[3; 32]);
        let serial = vm
            .issue_client_certificate("op", key.public_key())
            .unwrap()
            .serial();
        vm.journal(&[
            WalRecord::EnrollmentPrepared {
                serial,
                vnf_name: "op".into(),
                host_id: "h".into(),
                mrenclave: [0; 32],
                provisioning_key_hash: [0; 32],
                backend: BackendKind::SgxEpid.as_u8(),
                at: 1_000,
            },
            WalRecord::EnrollmentCommitted { serial, at: 1_000 },
        ])
        .unwrap();
        assert!(vm.certs_expiring().is_empty());
        clock.advance(1);
        assert_eq!(vm.certs_expiring().len(), 1);
    }

    #[test]
    fn builder_rejects_zero_lifecycle_horizons() {
        assert!(ManagerConfig::builder()
            .renewal_window_secs(0)
            .build()
            .is_err());
        assert!(ManagerConfig::builder()
            .crl_lifetime_secs(0)
            .build()
            .is_err());
    }

    #[test]
    fn a_halted_manager_issues_no_operator_certificates() {
        let mut vm = VerificationManager::with_runtime(
            ManagerConfig::default(),
            b"halted operator certificates",
            SimClock::at(1_000),
            Telemetry::new(),
        );
        let key = SigningKey::from_seed(&[4; 32]);
        vm.issue_client_certificate("op", key.public_key()).unwrap();
        let issued = vm.issued_count();
        let journaled = vm.state().clone();
        vm.halt("node loss");
        assert!(matches!(
            vm.issue_client_certificate("op", key.public_key()),
            Err(CoreError::VmCrashed(_))
        ));
        assert!(matches!(
            vm.issue_server_certificate("controller", key.public_key()),
            Err(CoreError::VmCrashed(_))
        ));
        assert_eq!(vm.issued_count(), issued);
        assert_eq!(*vm.state(), journaled);
    }

    #[test]
    fn clock_injection_drives_implicit_now() {
        let clock = SimClock::at(5_000);
        let mut vm = VerificationManager::with_runtime(
            ManagerConfig::default(),
            b"clock test",
            clock.clone(),
            Telemetry::new(),
        );
        let trust = Trust::default();
        let mut handshake = vm.handshake(&trust);
        let challenge = handshake.begin_host_attestation("host-1").unwrap();
        assert_eq!(challenge.issued_at, 5_000);
        clock.advance(100);
        let challenge = handshake.begin_host_attestation("host-1").unwrap();
        assert_eq!(challenge.issued_at, 5_100);
        // Rewinding the shared clock is the only way to move time: there
        // is no explicit-time entry point to bypass the injected clock.
        clock.set(42);
        let challenge = handshake.begin_host_attestation("host-1").unwrap();
        assert_eq!(challenge.issued_at, 42);
    }

    #[test]
    fn issuing_a_challenge_drops_the_expired_ones() {
        let clock = SimClock::at(1_000);
        let mut vm = VerificationManager::with_runtime(
            ManagerConfig::default(),
            b"challenge expiry",
            clock.clone(),
            Telemetry::new(),
        );
        let trust = Trust::default();
        let mut handshake = vm.handshake(&trust);
        for _ in 0..3 {
            handshake.begin_host_attestation("host-1").unwrap();
        }
        clock.advance(CHALLENGE_LIFETIME_SECS);
        let live = handshake.begin_host_attestation("host-1").unwrap();
        assert_eq!(handshake.outstanding_challenges(), 4);
        clock.advance(1);
        handshake.begin_host_attestation("host-1").unwrap();
        assert_eq!(handshake.outstanding_challenges(), 2);
        handshake.withdraw_challenge(live.id);
        assert_eq!(handshake.outstanding_challenges(), 1);
    }

    #[test]
    fn events_land_in_shared_journal() {
        let telemetry = Telemetry::new();
        let mut vm = VerificationManager::with_runtime(
            ManagerConfig::default(),
            b"journal test",
            SimClock::at(1_000),
            telemetry.clone(),
        );
        vm.handshake(&Trust::default())
            .begin_host_attestation("host-1")
            .unwrap();
        let events = vm.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "host_attestation_started");
        assert_eq!(events[0].time, 1_000);
        assert_eq!(events[0].seq, 1);
        // The same journal is visible through the shared telemetry handle.
        assert_eq!(telemetry.journal().len(), 1);
        assert_eq!(
            telemetry
                .metrics()
                .counter_value("vnfguard_core_challenges_total"),
            Some(1)
        );
    }

    /// The step a fuzzer's byte names: each sequential workflow twice as
    /// often as each fault an unreplicated testbed with degraded verdicts
    /// takes. A halt recovers such a testbed in place.
    fn drawn(byte: u8) -> Step {
        match byte % 27 {
            0 | 12 => Step::Prepare,
            1 | 13 => Step::Commit,
            2 | 14 => Step::Abort,
            3 | 15 => Step::Sweep,
            4 | 16 => Step::Revoke,
            5 | 17 => Step::Renew,
            6 | 18 => Step::Degraded,
            7 | 19 => Step::CrlPoll,
            8 | 20 => Step::IssueCrl,
            9 | 21 => Step::Rotate,
            10 | 22 => Step::Age,
            11 | 23 => Step::RevokeHost,
            24 => Step::Fault(Fault::CrashOnce(CRASH_SITES[usize::from(byte / 27)])),
            25 => Step::Fault(Fault::TornTail(3)),
            _ => Step::Fault(Fault::Halt),
        }
    }

    /// Drive a drawn schedule of every sequential workflow and fault on a
    /// durable testbed of `shards` shards. The chaos driver checks after
    /// every step that each shard's live state is the replay of its
    /// quiesced store, notices aside (the notifier journals and holds them).
    fn live_state_is_the_replay(shards: usize, seed: u64, ops: &[u8]) {
        let builder = TestbedBuilder::new(format!("live state {shards}").as_bytes())
            .durable()
            // Replays then start from a snapshot as well as a log.
            .wal_compaction(8)
            .shards(shards)
            .pending_enrollment_ttl(60)
            .degraded(true, 3600);
        let schedule: Vec<Step> = ops.iter().map(|&op| drawn(op)).collect();
        Chaos::new(seed, builder).run(&schedule);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_live_state_is_the_replay_unsharded(
            seed in any::<u64>(),
            ops in proptest::collection::vec(any::<u8>(), 1..32)
        ) {
            live_state_is_the_replay(1, seed, &ops);
        }

        #[test]
        fn prop_live_state_is_the_replay_sharded(
            seed in any::<u64>(),
            ops in proptest::collection::vec(any::<u8>(), 1..32)
        ) {
            live_state_is_the_replay(2, seed, &ops);
        }
    }
}
