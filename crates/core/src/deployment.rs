//! A complete testbed: the deployment of Figure 1 in one value.
//!
//! Assembles the network fabric, the attestation service, the Verification
//! Manager — optionally partitioned into shards behind a
//! [`VmService`] handle — a controller (any of the three security modes),
//! and one or more SGX container hosts, then exposes one method per
//! workflow step. The examples and all benchmarks are built on this type.
//!
//! ## Sharding
//!
//! With [`TestbedBuilder::shards`] the manager state is partitioned by
//! VNF identity across `n` [`VerificationManager`] shards, each with its
//! own sealed WAL on its own media and its own SGX platform. Shard 0 is
//! the **authority shard**: the CA, CRL number, rotation epoch, host
//! attestation records, and operator certificates live there; the other
//! shards carry disjoint serial and challenge spans and adopt the
//! authority's rotations and host verdicts through the service layer.
//! `Testbed::vm` is always a [`VmService`] — a single-shard testbed is
//! simply a service with one shard, routing everything to it.

use crate::attestation::{host_tee_evidence, vnf_tee_evidence, IntegrityAttestationEnclave};
use crate::backend::snp_vnf_measurement;
use crate::crash::CrashPlan;
use crate::lifecycle::{verify_handover, CaRotation};
use crate::manager::{Challenge, ManagerConfig, RecoveryReport, TcbPolicy, VerificationManager};
use crate::overload::{AdmissionConfig, AdmissionController};
use crate::remote::{HostAgentState, RemoteIas};
use crate::replication::{ReplicaSet, ReplicationConfig, StandbyNode};
use crate::revocation::RevocationNotifier;
use crate::service::VmService;
use crate::CoreError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vnfguard_attest::snp::{
    launch_measurement, normalize_measurement, AmdRoot, SnpPlatform, SnpVerifier,
};
use vnfguard_attest::{AttestationBackend, BackendKind};
use vnfguard_container::host::ContainerHost;
use vnfguard_container::image::Image;
use vnfguard_container::registry::Registry;
use vnfguard_controller::{Controller, ControllerConfig, SecurityMode, SimClock};
use vnfguard_crypto::ed25519::SigningKey;
// backend-opt-out: the testbed assembles concrete TEE stacks — the IAS
// simulation is the SGX hosts' verification collateral, exactly as the
// AmdRoot above is the SNP hosts'.
use vnfguard_ias::AttestationService;
use vnfguard_ima::appraisal::Verdict;
use vnfguard_ima::list::IMA_PCR;
use vnfguard_ima::tpm::SimTpm;
use vnfguard_net::fabric::Network;
use vnfguard_net::fault::FaultPlan;
use vnfguard_pki::cert::Certificate;
use vnfguard_pki::{KeyStore, RevocationPolicy, TrustStore};
// backend-opt-out: the testbed *builds* the SGX hosts, shard platforms
// and state-vault enclaves — agent-side platform plumbing, not relying-
// party appraisal (which goes through vnfguard-attest backends).
use vnfguard_net::server::ServerHandle;
use vnfguard_sgx::enclave::Enclave;
use vnfguard_sgx::measurement::Measurement;
use vnfguard_sgx::platform::{PlatformConfig, SgxPlatform};
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::transition::TransitionModel;
use vnfguard_store::{Media, StateStore, StateVault};
use vnfguard_telemetry::{HealthMonitor, Telemetry};
use vnfguard_tls::signer::LocalSigner;
use vnfguard_tls::validate::ClientValidator;
use vnfguard_vnf::credential_enclave::CredentialEnclave;
use vnfguard_vnf::VnfGuard;

/// How the trusted-HTTPS controller validates clients (E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationModel {
    /// CA-signature validation (the paper's design).
    Ca,
    /// Per-client keystore membership (Floodlight's native model).
    Keystore,
}

/// One TEE-capable container host in the testbed.
///
/// Every host carries the SGX stack (platform + integrity enclave); a host
/// whose [`backend`](Self::backend) is [`BackendKind::SevSnp`] additionally
/// carries a provisioned [`SnpPlatform`] and attests as a confidential VM:
/// its evidence is an SNP attestation report over the same integrity
/// measurement list and the same REPORT_DATA bindings, appraised offline —
/// the SGX quote path is never exercised for it (and the host is not even
/// registered with IAS, so an accidental SGX quote fails closed).
pub struct TestbedHost {
    pub id: String,
    /// Which attestation backend this host enrolls under.
    pub backend: BackendKind,
    pub platform: SgxPlatform,
    /// The SNP chip + CVM identity, for [`BackendKind::SevSnp`] hosts.
    /// Public so fault drills can arm [`SnpFault`](vnfguard_attest::snp::SnpFault)
    /// hooks (forged signature, stale VCEK, debug policy) post-build.
    pub snp: Option<SnpPlatform>,
    pub container_host: ContainerHost,
    pub integrity_enclave: Enclave,
    pub tpm: Option<SimTpm>,
    tpm_synced_entries: usize,
}

impl TestbedHost {
    /// Extend the TPM with any measurement-list entries recorded since the
    /// last sync (the kernel does this on every measurement; the testbed
    /// batches it before attestation).
    pub fn sync_tpm(&mut self) {
        let entries = self.container_host.measurement_list().entries();
        // A rewound/replaced list can be *shorter* than what was already
        // extended — the TPM cannot rewind, so nothing more is extended and
        // the divergence surfaces at attestation.
        let start = self.tpm_synced_entries.min(entries.len());
        if let Some(tpm) = &mut self.tpm {
            for entry in &entries[start..] {
                tpm.extend(IMA_PCR, &entry.template_hash);
            }
        }
        self.tpm_synced_entries = self.tpm_synced_entries.max(entries.len());
    }
}

/// Builder for [`Testbed`].
pub struct TestbedBuilder {
    seed: Vec<u8>,
    mode: SecurityMode,
    validation: ValidationModel,
    host_count: usize,
    host_backends: Vec<(usize, BackendKind)>,
    with_tpm: bool,
    tcb_policy: TcbPolicy,
    transition_spin: (u64, u64),
    controller_addr: String,
    degraded: Option<(bool, u64)>,
    telemetry: Option<Telemetry>,
    durable: bool,
    wal_compaction: u64,
    crash_plan: Option<CrashPlan>,
    pending_enrollment_ttl: Option<u64>,
    tracing: Option<f64>,
    renewal_window: Option<u64>,
    crl_lifetime: Option<u64>,
    revocation_policy: Option<RevocationPolicy>,
    replicas: usize,
    replication_config: Option<ReplicationConfig>,
    faults: Option<FaultPlan>,
    shards: usize,
    wal_write_latency: Option<Duration>,
    admission: Option<AdmissionConfig>,
    health: bool,
}

impl TestbedBuilder {
    pub fn new(seed: &[u8]) -> TestbedBuilder {
        TestbedBuilder {
            seed: seed.to_vec(),
            mode: SecurityMode::TrustedHttps,
            validation: ValidationModel::Ca,
            host_count: 1,
            host_backends: Vec::new(),
            with_tpm: false,
            tcb_policy: TcbPolicy::Strict,
            transition_spin: (0, 0),
            controller_addr: "controller:8443".into(),
            degraded: None,
            telemetry: None,
            durable: false,
            wal_compaction: 256,
            crash_plan: None,
            pending_enrollment_ttl: None,
            tracing: None,
            renewal_window: None,
            crl_lifetime: None,
            revocation_policy: None,
            replicas: 0,
            replication_config: None,
            faults: None,
            shards: 1,
            wal_write_latency: None,
            admission: None,
            health: false,
        }
    }

    pub fn mode(mut self, mode: SecurityMode) -> TestbedBuilder {
        self.mode = mode;
        self
    }

    pub fn validation(mut self, validation: ValidationModel) -> TestbedBuilder {
        self.validation = validation;
        self
    }

    pub fn hosts(mut self, count: usize) -> TestbedBuilder {
        self.host_count = count;
        self
    }

    /// Override one host's attestation backend — mixed SGX+SNP fleets.
    /// Hosts without an override run SGX, the paper's deployment; the last
    /// override for an index wins. Building with any SEV-SNP host also
    /// provisions the model AMD root and wires an offline [`SnpVerifier`]
    /// into the service handle.
    pub fn host_backend(mut self, host_idx: usize, kind: BackendKind) -> TestbedBuilder {
        self.host_backends.push((host_idx, kind));
        self
    }

    pub fn with_tpm(mut self) -> TestbedBuilder {
        self.with_tpm = true;
        self
    }

    pub fn tcb_policy(mut self, policy: TcbPolicy) -> TestbedBuilder {
        self.tcb_policy = policy;
        self
    }

    /// Calibrated enclave-transition cost (ecall spin, oret spin).
    pub fn transition_cost(mut self, ecall: u64, oret: u64) -> TestbedBuilder {
        self.transition_spin = (ecall, oret);
        self
    }

    /// Opt the Verification Manager in to graceful degradation (cached
    /// trusted verdicts honored for `ttl_secs` when IAS is unreachable).
    pub fn degraded(mut self, enabled: bool, ttl_secs: u64) -> TestbedBuilder {
        self.degraded = Some((enabled, ttl_secs));
        self
    }

    /// Share an existing telemetry bundle instead of creating a fresh one
    /// (lets a harness aggregate several testbeds, or pass
    /// [`Telemetry::disabled`] to measure instrumentation overhead).
    pub fn telemetry(mut self, telemetry: Telemetry) -> TestbedBuilder {
        self.telemetry = Some(telemetry);
        self
    }

    /// Give the Verification Manager a sealed write-ahead log on a crash-
    /// surviving medium, enabling [`Testbed::recover_vm`].
    pub fn durable(mut self) -> TestbedBuilder {
        self.durable = true;
        self
    }

    /// Log-frame threshold for WAL snapshot compaction (default 256; `0`
    /// disables compaction). Only meaningful with [`durable`](Self::durable).
    pub fn wal_compaction(mut self, frames: u64) -> TestbedBuilder {
        self.wal_compaction = frames;
        self
    }

    /// Partition the Verification Manager into `n` shards keyed by VNF
    /// identity (clamped to at least 1). Shard 0 is the authority shard:
    /// CA, CRL, rotation, and host attestation stay there, while
    /// enrollment and renewal state spread across all shards with
    /// disjoint serial spans. Each shard gets its own sealed WAL when
    /// the testbed is [`durable`](Self::durable).
    pub fn shards(mut self, n: usize) -> TestbedBuilder {
        self.shards = n.max(1);
        self
    }

    /// Accepts only `true` and changes nothing: every WAL writes one frame
    /// per commit batch, so group commit is the only commit path. The
    /// method stays because the wirebench harness (`wirebench/src/deploy.rs`)
    /// calls it.
    pub fn group_commit(self, enabled: bool) -> TestbedBuilder {
        assert!(enabled, "every WAL group-commits");
        self
    }

    /// Model the flush cost of cloud block storage: every media flush on
    /// every shard WAL sleeps for `latency`. With sharding the sleeps of
    /// different shards overlap across server threads, and a whole commit
    /// batch pays one sleep — the effects E15 measures.
    pub fn wal_write_latency(mut self, latency: Duration) -> TestbedBuilder {
        self.wal_write_latency = Some(latency);
        self
    }

    /// Attach a crash-injection plan to the Verification Manager. The plan
    /// is shared across every shard (whichever shard first reaches an
    /// armed site crashes) and survives [`Testbed::recover_vm`] so
    /// multi-crash schedules replay across incarnations.
    pub fn crash_plan(mut self, plan: CrashPlan) -> TestbedBuilder {
        self.crash_plan = Some(plan);
        self
    }

    /// Expire prepared-but-uncommitted enrollments after `secs` (see
    /// `VerificationManager::sweep_pending_enrollments`).
    pub fn pending_enrollment_ttl(mut self, secs: u64) -> TestbedBuilder {
        self.pending_enrollment_ttl = Some(secs);
        self
    }

    /// Flag credentials for renewal `secs` before expiry (see
    /// `VerificationManager::certs_expiring`).
    pub fn renewal_window(mut self, secs: u64) -> TestbedBuilder {
        self.renewal_window = Some(secs);
        self
    }

    /// `next_update` horizon of CRLs issued by the VM.
    pub fn crl_lifetime(mut self, secs: u64) -> TestbedBuilder {
        self.crl_lifetime = Some(secs);
        self
    }

    /// Revocation posture of the controller's trust store when its cached
    /// CRL goes stale (CA validation model only; default fail-open).
    pub fn revocation_policy(mut self, policy: RevocationPolicy) -> TestbedBuilder {
        self.revocation_policy = Some(policy);
        self
    }

    /// Replicate the manager's WAL to `n` standby managers over the fabric
    /// (implies [`durable`](Self::durable)), enabling
    /// [`Testbed::kill_primary`] and [`Testbed::promote`]. Failover covers
    /// one manager only, so [`build`](Self::build) refuses replicas on a
    /// testbed with more than one [`shard`](Self::shards).
    pub fn replicas(mut self, n: usize) -> TestbedBuilder {
        self.replicas = n;
        if n > 0 {
            self.durable = true;
        }
        self
    }

    /// Override the replication tuning (window, retention, link retries).
    pub fn replication_config(mut self, config: ReplicationConfig) -> TestbedBuilder {
        self.replication_config = Some(config);
        self
    }

    /// Install a fault plan on the fabric *before* any link is dialed.
    /// Unlike a post-build `Network::install_faults`, this also governs the
    /// long-lived links the testbed itself establishes — notably the
    /// primary-to-standby replication connections, which a later `isolate`
    /// or `partition` can then sever.
    pub fn faults(mut self, plan: FaultPlan) -> TestbedBuilder {
        self.faults = Some(plan);
        self
    }

    /// Put the VM service behind an admission controller with the default
    /// queue bounds: requests queue per priority class in front of the
    /// shard locks and are shed with a retry hint once a class's queue
    /// fills or its sojourn time stays above the CoDel target.
    pub fn admission(self) -> TestbedBuilder {
        self.admission_config(AdmissionConfig::default())
    }

    /// Like [`TestbedBuilder::admission`], with explicit queue bounds.
    pub fn admission_config(mut self, config: AdmissionConfig) -> TestbedBuilder {
        self.admission = Some(config);
        self
    }

    /// Enable the health plane: a [`HealthMonitor`] with the default SLO
    /// set (availability 99% + latency p95 ≤ 100ms per workclass) attached
    /// to the service handle, so every gated request feeds the burn-rate
    /// alert pipeline and `GET /vm/health` serves a full snapshot.
    pub fn health(mut self) -> TestbedBuilder {
        self.health = true;
        self
    }

    /// Enable end-to-end distributed tracing: seed the deployment's trace-id
    /// generator from the testbed seed (ids stay reproducible run-to-run),
    /// head-sample new traces at `sample_rate` (clamped to `0.0..=1.0`), and
    /// serve the controller's north-bound API with trace instrumentation.
    pub fn tracing(mut self, sample_rate: f64) -> TestbedBuilder {
        self.tracing = Some(sample_rate);
        self
    }

    pub fn build(self) -> Testbed {
        let shard_count = self.shards.max(1);
        // `kill_primary` halts every shard but `promote` swaps in the
        // authority shard alone, so a follower shard would stay dead.
        assert!(
            self.replicas == 0 || shard_count == 1,
            "replicas need a single shard: failover covers the authority shard only"
        );
        let network = Network::new();
        let clock = SimClock::at(1_600_000_000);
        let telemetry = self.telemetry.unwrap_or_default();
        network.set_telemetry(&telemetry);
        if let Some(plan) = &self.faults {
            network.install_faults(plan);
        }
        if let Some(rate) = self.tracing {
            use vnfguard_crypto::drbg::SecureRandom;
            let mut drbg =
                vnfguard_crypto::drbg::HmacDrbg::new(&[&self.seed[..], b"trace ids"].concat());
            telemetry.seed_trace_ids(u64::from_be_bytes(drbg.gen_array::<8>()));
            telemetry.set_trace_sampling(rate);
        }
        let mut ias = AttestationService::new(&self.seed);
        ias.set_telemetry(&telemetry);

        // Per-host backend assignment (last override wins), and — when any
        // host is a SEV-SNP confidential VM — the model AMD root plus the
        // offline verifier that appraises against it. Pure-SGX testbeds
        // provision neither, so their builds stay bit-identical to before.
        let backend_kinds: Vec<BackendKind> = (0..self.host_count)
            .map(|i| {
                self.host_backends
                    .iter()
                    .rev()
                    .find(|(host, _)| *host == i)
                    .map(|&(_, kind)| kind)
                    .unwrap_or(BackendKind::SgxEpid)
            })
            .collect();
        let any_snp = backend_kinds.contains(&BackendKind::SevSnp);
        let amd_root = any_snp.then(|| {
            AmdRoot::new(&vnfguard_crypto::sha2::sha256(
                &[&self.seed[..], b"amd root"].concat(),
            ))
        });
        let snp_verifier = amd_root
            .as_ref()
            .map(|root| SnpVerifier::new(root.ark_public(), clock.clone()));

        let mut vm_config = ManagerConfig::builder()
            .tcb_policy(self.tcb_policy)
            .require_tpm(self.with_tpm);
        if let Some((enabled, ttl_secs)) = self.degraded {
            vm_config = vm_config.degraded_verdicts(enabled, ttl_secs);
        }
        if let Some(ttl) = self.pending_enrollment_ttl {
            vm_config = vm_config.pending_enrollment_ttl_secs(ttl);
        }
        if let Some(secs) = self.renewal_window {
            vm_config = vm_config.renewal_window_secs(secs);
        }
        if let Some(secs) = self.crl_lifetime {
            vm_config = vm_config.crl_lifetime_secs(secs);
        }
        let vm_config = vm_config.build().expect("testbed manager config is valid");

        // The enclave author whose MRSIGNER the deployment trusts.
        let enclave_author = EnclaveAuthor::from_seed(&vnfguard_crypto::sha2::sha256(
            &[&self.seed[..], b"enclave author"].concat(),
        ));

        // One SGX platform per shard — each hosts its own state vault
        // enclave, so each shard's sealed WAL blobs only ever open on its
        // own platform. Shard 0 keeps the historical single-manager seed
        // label so single-shard deployments are bit-identical to before.
        let mut shard_platforms = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            let label = if s == 0 {
                b"vm platform".to_vec()
            } else {
                format!("vm shard {s} platform").into_bytes()
            };
            shard_platforms.push(SgxPlatform::with_config(
                &vnfguard_crypto::sha2::sha256(&[&self.seed[..], &label[..]].concat()),
                PlatformConfig::default(),
                TransitionModel::new(0, 0),
            ));
        }

        // One medium + sealed store per shard.
        let mut shard_media: Vec<Option<Media>> = Vec::with_capacity(shard_count);
        let mut shard_stores: Vec<Option<StateStore>> = Vec::with_capacity(shard_count);
        for platform in shard_platforms.iter().take(shard_count) {
            let media = self.durable.then(Media::new);
            if let (Some(media), Some(latency)) = (&media, self.wal_write_latency) {
                media.set_write_latency(latency);
            }
            let store = media.as_ref().map(|media| {
                let vault = StateVault::load(platform, &enclave_author)
                    .expect("state vault loads on the shard platform");
                StateStore::new(media.clone(), vault).with_compaction(self.wal_compaction)
            });
            shard_media.push(media);
            shard_stores.push(store);
        }

        // Standbys come up before the manager so the very first journaled
        // record (the controller's server certificate) already streams:
        // each standby runs its own vault on its own platform and re-seals
        // what it receives into its own media.
        let mut standbys = Vec::with_capacity(self.replicas);
        let mut standby_platforms = Vec::with_capacity(self.replicas);
        let mut replication = None;
        let replication_config = self.replication_config.clone().unwrap_or_default();
        if self.replicas > 0 {
            let store = shard_stores[0].as_ref().expect("replicas imply durable");
            let mut addrs = Vec::with_capacity(self.replicas);
            for i in 0..self.replicas {
                let label = format!("vm standby {i} platform");
                let platform = SgxPlatform::with_config(
                    &vnfguard_crypto::sha2::sha256(&[&self.seed[..], label.as_bytes()].concat()),
                    PlatformConfig::default(),
                    TransitionModel::new(0, 0),
                );
                let vault = StateVault::load(&platform, &enclave_author)
                    .expect("state vault loads on the standby platform");
                let standby_store =
                    StateStore::new(Media::new(), vault).with_compaction(self.wal_compaction);
                let addr = format!("vm-standby-{i}:7600");
                let node = StandbyNode::spawn(
                    &network,
                    &addr,
                    standby_store,
                    clock.clone(),
                    telemetry.clone(),
                    0,
                )
                .expect("standby binds its fabric address");
                addrs.push(addr);
                standbys.push(node);
                standby_platforms.push(platform);
            }
            let set = ReplicaSet::new(
                &network,
                &addrs,
                0,
                1,
                replication_config.clone(),
                clock.clone(),
                telemetry.clone(),
            );
            set.attach_store(store.clone());
            store.set_observer(Arc::new(set.clone()));
            replication = Some(set);
        }

        // The manager fleet. Every shard derives from the same seed (so CA
        // key, root certificate, and HMAC key agree everywhere), then
        // `set_shard` moves non-authority shards onto their disjoint
        // serial/challenge spans and reseeds their nonce generators.
        let mut managers = Vec::with_capacity(shard_count);
        for (s, store) in shard_stores.iter().enumerate() {
            let mut manager = VerificationManager::with_runtime(
                vm_config.clone(),
                &self.seed,
                clock.clone(),
                telemetry.clone(),
            );
            if let Some(store) = store {
                manager = manager.with_store(store.clone());
            }
            if let Some(plan) = &self.crash_plan {
                manager = manager.with_crash_plan(plan.clone());
            }
            if let Some(set) = &replication {
                manager.with_replication(set.clone());
            }
            manager.set_shard(s as u32, shard_count as u32);
            managers.push(manager);
        }
        let mut vm = VmService::from_shards(managers);
        if let Some(verifier) = snp_verifier {
            vm = vm.with_snp_verifier(verifier);
        }
        if let Some(config) = self.admission {
            vm = vm.with_admission(Arc::new(AdmissionController::instrumented(
                config,
                clock.clone(),
                &telemetry,
            )));
        }
        if self.health {
            vm = vm.with_health(HealthMonitor::with_defaults(&telemetry));
        }

        let mut notifier = RevocationNotifier::new(&network).with_telemetry(&telemetry);
        if let Some(store) = &shard_stores[0] {
            notifier = notifier.with_store(store.clone());
        }

        // Whitelist the integrity attestation enclave and seed the host
        // reference database with the standard software stack. The service
        // holds these for every shard and every later incarnation.
        vm.trust_integrity_enclave_for(
            BackendKind::SgxEpid,
            IntegrityAttestationEnclave::expected_measurement(1),
            "integrity-attestation-v1",
        );
        for (path, content) in STANDARD_HOST_FILES {
            vm.allow_reference_content(path, content);
        }

        // SNP hosts all boot the standard CVM host image; whitelist its
        // launch measurement under the SNP backend. The SGX
        // integrity-enclave whitelist above cannot satisfy SNP evidence —
        // whitelists key on (backend, measurement).
        let snp_host_measurement = launch_measurement(SNP_HOST_IMAGE);
        if any_snp {
            let measurement = Measurement(normalize_measurement(&snp_host_measurement));
            vm.trust_integrity_enclave_for(BackendKind::SevSnp, measurement, "snp-host-cvm-v1");
        }

        // Controller identity and client validation.
        let controller_cn = "controller".to_string();
        let server_key = SigningKey::from_seed(&vnfguard_crypto::sha2::sha256(
            &[&self.seed[..], b"controller key"].concat(),
        ));
        let server_cert = vm
            .call(0, |m| {
                m.issue_server_certificate(&controller_cn, server_key.public_key())
            })
            .expect("a fresh manager issues the controller's certificate");
        let server_identity = Arc::new(LocalSigner::new(server_key, server_cert));

        let validator = match self.validation {
            ValidationModel::Ca => {
                let mut store = TrustStore::new();
                store
                    .add_anchor(vm.ca_certificate())
                    .expect("VM CA is a valid anchor");
                if let Some(policy) = self.revocation_policy {
                    store.set_revocation_policy(policy);
                }
                ClientValidator::ca(store)
            }
            ValidationModel::Keystore => ClientValidator::keystore(KeyStore::new()),
        };

        let mut controller_config = match self.mode {
            SecurityMode::Http => ControllerConfig::http(&self.controller_addr),
            SecurityMode::Https => {
                ControllerConfig::https(&self.controller_addr, server_identity.clone())
            }
            SecurityMode::TrustedHttps => ControllerConfig::trusted_https(
                &self.controller_addr,
                server_identity.clone(),
                validator.clone(),
            ),
        }
        .with_clock(clock.clone());
        if self.tracing.is_some() {
            controller_config = controller_config.with_telemetry(&telemetry);
        }
        let controller = Controller::start(&network, controller_config).expect("controller start");

        let mut hosts = Vec::with_capacity(self.host_count);
        for (i, &backend) in backend_kinds.iter().enumerate() {
            let id = format!("host-{i}");
            let platform_seed = [&self.seed[..], id.as_bytes()].concat();
            let platform = SgxPlatform::with_config(
                &platform_seed,
                PlatformConfig::default(),
                TransitionModel::new(self.transition_spin.0, self.transition_spin.1),
            );
            // Only SGX hosts join the EPID group. An SNP host that somehow
            // produced an SGX quote would be refused by IAS — cross-backend
            // confusion fails closed at the membership layer too.
            if backend == BackendKind::SgxEpid {
                ias.register_member(platform.epid_group_id(), platform.attestation_public_key());
            }
            let snp = (backend == BackendKind::SevSnp).then(|| {
                SnpPlatform::provision(
                    amd_root.as_ref().expect("SNP hosts imply an AMD root"),
                    &[&platform_seed[..], b" snp"].concat(),
                    snp_host_measurement,
                    1,
                )
            });
            let container_host = ContainerHost::standard(&id);
            let integrity_enclave =
                IntegrityAttestationEnclave::load(&platform, &enclave_author, 1)
                    .expect("integrity enclave load");
            let tpm = if self.with_tpm {
                let tpm = SimTpm::new(&vnfguard_crypto::sha2::sha256(
                    &[&platform_seed[..], b"tpm"].concat(),
                ));
                vm.register_host_tpm(&id, tpm.aik_public())
                    .expect("a fresh manager registers TPM AIKs");
                Some(tpm)
            } else {
                None
            };
            hosts.push(TestbedHost {
                id,
                backend,
                platform,
                snp,
                container_host,
                integrity_enclave,
                tpm,
                tpm_synced_entries: 0,
            });
        }

        Testbed {
            network,
            clock,
            telemetry,
            ias,
            vm,
            notifier,
            controller,
            controller_addr: self.controller_addr,
            controller_cn,
            registry: Registry::new(),
            hosts,
            enclave_author,
            mode: self.mode,
            validation: self.validation,
            seed: self.seed,
            vm_config,
            shard_platforms,
            shard_media,
            crash_plan: self.crash_plan,
            wal_compaction: self.wal_compaction,
            amd_root,
            replication,
            standbys,
            standby_platforms,
            replication_config,
        }
    }
}

/// The standard host software stack (must match [`ContainerHost::standard`]).
const STANDARD_HOST_FILES: &[(&str, &[u8])] = &[
    ("/boot/vmlinuz-4.4.0-51-generic", b"kernel 4.4.0-51"),
    ("/usr/bin/dockerd", b"docker daemon 1.12.2"),
    ("/usr/bin/containerd", b"containerd 0.2.x"),
    ("/sbin/init", b"systemd 229"),
];

/// The confidential-VM host image every SNP testbed host boots; its launch
/// measurement is what the Verification Manager whitelists for SNP host
/// attestation.
const SNP_HOST_IMAGE: &[u8] = b"snp host cvm image v1";

/// What a recovered manager incarnation is for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Incarnation {
    /// It takes the shard's place in the deployment.
    Live,
    /// An oracle twin: a measuring instrument, not part of the deployment,
    /// that must not disturb the shared metrics.
    Twin,
}

/// The assembled deployment.
pub struct Testbed {
    pub network: Network,
    pub clock: SimClock,
    /// The deployment-wide telemetry bundle (shared by fabric, IAS, and
    /// every Verification Manager shard).
    pub telemetry: Telemetry,
    pub ias: AttestationService,
    /// The sharded Verification Manager behind its service handle. Clone
    /// it ([`Testbed::vm_service`]) to serve the operator API or to drive
    /// the fleet from concurrent client threads.
    pub vm: VmService,
    /// Store-and-forward revocation notifier, journaling into the
    /// authority shard's WAL when the testbed is durable.
    pub notifier: RevocationNotifier,
    pub controller: Controller,
    pub controller_addr: String,
    pub controller_cn: String,
    pub registry: Registry,
    pub hosts: Vec<TestbedHost>,
    pub enclave_author: EnclaveAuthor,
    pub mode: SecurityMode,
    pub validation: ValidationModel,
    seed: Vec<u8>,
    vm_config: ManagerConfig,
    /// Each shard's SGX platform (its vault seals only open there).
    shard_platforms: Vec<SgxPlatform>,
    /// Each shard's crash-surviving medium (`None`: volatile testbed).
    shard_media: Vec<Option<Media>>,
    crash_plan: Option<CrashPlan>,
    wal_compaction: u64,
    /// The model AMD certificate root, when any host is SEV-SNP.
    amd_root: Option<AmdRoot>,
    /// The authority shard's replication handle (a clone of the one
    /// installed as its store's append observer); `None` when
    /// unreplicated.
    replication: Option<ReplicaSet>,
    /// The authority shard's standby managers, in builder order.
    pub standbys: Vec<StandbyNode>,
    /// Each standby's SGX platform (parallel to `standbys`).
    standby_platforms: Vec<SgxPlatform>,
    replication_config: ReplicationConfig,
}

impl Testbed {
    /// A clone of the service handle — the supported way to hand the
    /// manager fleet to `serve_vm_api` or to concurrent client threads.
    pub fn vm_service(&self) -> VmService {
        self.vm.clone()
    }

    /// How many Verification Manager shards the deployment runs.
    pub fn shard_count(&self) -> usize {
        self.vm.shard_count()
    }

    /// The model AMD certificate root, when any host is SEV-SNP.
    pub fn amd_root(&self) -> Option<&AmdRoot> {
        self.amd_root.as_ref()
    }

    /// The deployment's offline SNP appraiser, the one the service handle
    /// holds.
    pub fn snp_verifier(&self) -> Option<&SnpVerifier> {
        self.vm.snp_verifier()
    }

    /// The launch measurement every SNP testbed host boots with.
    pub fn snp_host_measurement(&self) -> [u8; 48] {
        launch_measurement(SNP_HOST_IMAGE)
    }

    /// Steps 1–2: attest a container host through the backend it was
    /// built with — SGX hosts quote through the integrity attestation
    /// enclave and verify via IAS; SNP hosts produce an attestation
    /// report over the same measurement list and REPORT_DATA binding,
    /// appraised offline against the deployment's AMD root.
    pub fn attest_host(&mut self, host_idx: usize) -> Result<Verdict, CoreError> {
        let challenge = self.vm.begin_host_attestation(&self.hosts[host_idx].id)?;
        self.answer_host_challenge(host_idx, &challenge)
    }

    /// Step 2 of [`attest_host`](Self::attest_host) for a challenge taken
    /// earlier: the host's evidence over its nonce, appraised through the
    /// host's backend.
    pub(crate) fn answer_host_challenge(
        &mut self,
        host_idx: usize,
        challenge: &Challenge,
    ) -> Result<Verdict, CoreError> {
        let host = &mut self.hosts[host_idx];
        host.sync_tpm();
        let iml = host.container_host.measurement_list().encode();
        let tpm_quote = host
            .tpm
            .as_ref()
            .map(|tpm| tpm.quote(IMA_PCR, challenge.nonce).encode());
        let evidence = host_tee_evidence(
            &host.platform,
            host.snp.as_ref(),
            &host.integrity_enclave,
            iml,
            &challenge.nonce,
            tpm_quote,
        )?;
        let mut snp_verifier = self.vm.snp_verifier().cloned();
        let backend = Self::backend_for(&mut self.ias, &mut snp_verifier, host.backend);
        self.vm
            .complete_host_attestation(backend, challenge.id, &evidence)
    }

    /// The verifier a host's evidence goes to: the IAS for SGX hosts, the
    /// offline appraiser for SNP hosts, a clone of the service's (it is
    /// stateless). It borrows the IAS, not `self`, so the caller still
    /// reaches `self.vm`.
    fn backend_for<'a>(
        ias: &'a mut AttestationService,
        snp_verifier: &'a mut Option<SnpVerifier>,
        kind: BackendKind,
    ) -> &'a mut dyn AttestationBackend {
        match kind {
            BackendKind::SgxEpid => ias,
            BackendKind::SevSnp => snp_verifier
                .as_mut()
                .expect("SNP hosts imply an SNP verifier"),
        }
    }

    /// Deploy a VNF container: the host runs `actual_image`, while the VM's
    /// reference database is fed the digests of `reference_image` (what the
    /// orchestrator *believes* is being deployed). Passing the same image
    /// for both models honest deployment.
    pub fn deploy_container(
        &mut self,
        host_idx: usize,
        reference_image: &Image,
        actual_image: &Image,
    ) -> Result<String, CoreError> {
        let host = &mut self.hosts[host_idx];
        let container = host
            .container_host
            .run(actual_image)
            .map_err(|e| CoreError::WorkflowViolation(e.to_string()))?;
        let id = container.id.clone();
        for (i, layer) in reference_image.layers.iter().enumerate() {
            let path = format!("/var/lib/docker/overlay2/{id}/layer-{i}");
            self.vm.allow_reference_content(&path, &layer.content);
        }
        let entrypoint = format!("/var/lib/docker/overlay2/{id}/entrypoint");
        self.vm
            .allow_reference_content(&entrypoint, &reference_image.entrypoint.content);
        Ok(id)
    }

    /// Load a VNF's credential enclave on a host and whitelist its
    /// measurement with the VM.
    pub fn deploy_guard(
        &mut self,
        host_idx: usize,
        vnf_name: &str,
        version: u32,
    ) -> Result<VnfGuard, CoreError> {
        let host = &self.hosts[host_idx];
        let guard = VnfGuard::load(
            &host.platform,
            &self.network,
            &self.enclave_author,
            vnf_name,
            version,
        )?;
        let label = format!("{vnf_name}-v{version}");
        let backend = self.hosts[host_idx].backend;
        let measurement = match backend {
            BackendKind::SgxEpid => SgxPlatform::measure_image(
                &CredentialEnclave::image_for(vnf_name, version),
                vnfguard_vnf::guard::ENCLAVE_SIZE,
            ),
            // On a confidential-VM host the credential workload runs as
            // its own CVM; whitelist its deterministic launch measurement.
            BackendKind::SevSnp => {
                Measurement(normalize_measurement(&snp_vnf_measurement(vnf_name)))
            }
        };
        self.vm.trust_enclave_for(backend, measurement, &label);
        Ok(guard)
    }

    /// Load a guard from explicit enclave image bytes *without* whitelisting
    /// (attack scenarios: tampered enclave images).
    pub fn deploy_guard_unlisted(
        &mut self,
        host_idx: usize,
        vnf_name: &str,
        image: &[u8],
    ) -> Result<VnfGuard, CoreError> {
        let host = &self.hosts[host_idx];
        Ok(VnfGuard::load_image(
            &host.platform,
            &self.network,
            &self.enclave_author,
            vnf_name,
            image,
            1,
        )?)
    }

    /// Steps 3–5: attest the VNF enclave and provision credentials into it.
    /// Returns the issued certificate.
    pub fn enroll(&mut self, host_idx: usize, guard: &VnfGuard) -> Result<Certificate, CoreError> {
        let host_id = self.hosts[host_idx].id.clone();
        let challenge = self.vm.begin_vnf_attestation(&host_id, &guard.name)?;
        let provisioning_key = guard.provisioning_key()?;
        let host = &self.hosts[host_idx];
        let evidence = vnf_tee_evidence(
            &host.platform,
            host.snp.as_ref(),
            guard,
            &provisioning_key,
            &challenge.nonce,
            challenge.nonce,
        )?;
        let mut snp_verifier = self.vm.snp_verifier().cloned();
        let backend = Self::backend_for(&mut self.ias, &mut snp_verifier, host.backend);
        let (wrapped, certificate) = self.vm.complete_vnf_enrollment(
            backend,
            challenge.id,
            &evidence,
            &provisioning_key,
            &self.controller_cn,
        )?;
        guard.provision(&wrapped)?;
        self.note_in_keystore(&guard.name, &certificate);
        Ok(certificate)
    }

    /// Keystore validation model: the controller's keystore must learn
    /// every new certificate (the maintenance burden the paper's CA
    /// approach removes). The CA model validates by signature instead.
    fn note_in_keystore(&self, vnf_name: &str, certificate: &Certificate) {
        if let Some(keystore) = self
            .controller
            .client_validator()
            .and_then(ClientValidator::key_store)
        {
            keystore.write().set(vnf_name, certificate.clone());
        }
    }

    /// Issue a fresh, journaled CRL on the VM and distribute it to the
    /// controller (revocation propagation; experiments E8 and E13).
    pub fn push_crl(&mut self) -> Result<(), CoreError> {
        let crl = self.vm.issue_crl()?;
        if let Some(validator) = self.controller.client_validator() {
            if let Some(store) = validator.trust_store() {
                store.write().install_crl(crl)?;
            }
        }
        Ok(())
    }

    /// Renew an enrolled guard's credential by serial: a fresh certificate
    /// is wrapped to the guard's provisioning key without re-running the
    /// six-step enrollment, provided the host's attestation verdict is
    /// still fresh. Returns the new certificate.
    pub fn renew(&mut self, guard: &VnfGuard, serial: u64) -> Result<Certificate, CoreError> {
        let provisioning_key = guard.provisioning_key()?;
        let (wrapped, certificate) =
            self.vm
                .renew_vnf_credential(serial, &provisioning_key, &self.controller_cn)?;
        guard.provision(&wrapped)?;
        self.note_in_keystore(&guard.name, &certificate);
        Ok(certificate)
    }

    /// Rotate the VM's CA to a new key, cross-signed by the old one. The
    /// controller keeps trusting the old root until
    /// [`retire_previous_roots`](Testbed::retire_previous_roots) — the
    /// dual-trust drain window.
    pub fn rotate_ca(&mut self) -> Result<CaRotation, CoreError> {
        self.vm.rotate_ca()
    }

    /// Deliver a CA rotation to the controller: verify the cross-signed
    /// handover against its existing anchors, then add the new root so
    /// both generations validate during the drain window.
    pub fn distribute_ca(&mut self, rotation: &CaRotation) -> Result<(), CoreError> {
        if let Some(validator) = self.controller.client_validator() {
            if let Some(store) = validator.trust_store() {
                let mut store = store.write();
                verify_handover(&store, &rotation.new_root, &rotation.cross_signed)?;
                store.add_anchor(rotation.new_root.clone())?;
            }
        }
        Ok(())
    }

    /// Catch the controller up on every rotation it missed: walk the VM's
    /// handover chain oldest-first and adopt each epoch not yet anchored,
    /// verifying each cross-signature against an anchor adopted one step
    /// earlier. This is the CA monitor's catch-up walk, for harnesses that
    /// rotated while the controller was out of the loop — e.g. when a
    /// crash-retry across a failover committed more than one epoch.
    /// Returns how many roots were adopted.
    pub fn distribute_ca_chain(&mut self) -> Result<usize, CoreError> {
        let chain = self.vm.ca_rotation_chain();
        let mut adopted = 0;
        if let Some(validator) = self.controller.client_validator() {
            if let Some(store) = validator.trust_store() {
                let mut store = store.write();
                for (_, root, cross) in chain {
                    let fingerprint = root.fingerprint();
                    if store.anchors().any(|a| a.fingerprint() == fingerprint) {
                        continue;
                    }
                    verify_handover(&store, &root, &cross)?;
                    store.add_anchor(root)?;
                    adopted += 1;
                }
            }
        }
        Ok(adopted)
    }

    /// End the dual-trust window: drop every controller anchor that is not
    /// the VM's current CA root. Returns how many anchors were retired.
    pub fn retire_previous_roots(&mut self) -> usize {
        let current = self.vm.ca_certificate().fingerprint();
        let cn = self.vm.ca_certificate().subject_cn().to_string();
        let mut retired = 0;
        if let Some(validator) = self.controller.client_validator() {
            if let Some(store) = validator.trust_store() {
                let mut store = store.write();
                let stale: Vec<[u8; 32]> = store
                    .anchors()
                    .filter(|a| a.subject_cn() == cn && a.fingerprint() != current)
                    .map(|a| a.fingerprint())
                    .collect();
                for fp in stale {
                    if store.remove_anchor(&fp) {
                        retired += 1;
                    }
                }
            }
        }
        retired
    }

    /// Step 6 convenience: open an in-enclave TLS session from a guard to
    /// the controller.
    pub fn open_session(&self, guard: &mut VnfGuard) -> Result<u32, CoreError> {
        Ok(guard.open_session(&self.controller_addr, self.clock.now())?)
    }

    /// The crash-surviving medium behind the authority shard's WAL, if the
    /// testbed was built [`durable`](TestbedBuilder::durable). Exposed so
    /// chaos tests can inject media faults (torn tails, flipped bytes)
    /// between crash and recovery.
    pub fn store_media(&self) -> Option<&Media> {
        self.shard_media[0].as_ref()
    }

    /// The crash-surviving medium behind one shard's WAL.
    pub fn shard_store_media(&self, shard: usize) -> Option<&Media> {
        self.shard_media.get(shard).and_then(Option::as_ref)
    }

    /// Restart the Verification Manager fleet after a crash: for every
    /// shard — authority first — reload its state vault on its own
    /// platform, replay its sealed snapshot + WAL, and swap the recovered
    /// incarnation into the service handle **in place**, so every clone of
    /// the handle (including the one `serve_vm_api` routes against) sees
    /// the new incarnations on its next call. Returns the authority
    /// shard's recovery report.
    ///
    /// The service's trust inputs (whitelists, reference files) and the
    /// hosts' TPM AIKs are not the incarnation's, so they carry over
    /// untouched. Host verdicts are forgotten as the new authority goes
    /// live: every host must re-attest to it before further enrollments.
    /// A follower adopts the recovered authority's rotation chain before it
    /// goes live, because adoption is un-journaled by design (the rotated
    /// certificates re-derive bit-identically from the shared seed) and the
    /// CRL revision it serves must never fall back.
    pub fn recover_vm(&mut self) -> Result<RecoveryReport, CoreError> {
        let mut authority_report = None;
        let mut chain = Vec::new();
        let now = self.clock.now();
        for s in 0..self.vm.shard_count() {
            // One hold of the shard lock from quiesce to swap: once the old
            // incarnation's store is idle, nothing it journaled can still
            // land (or truncate the log) behind the replay, and no request
            // reaches it before the new incarnation is in place.
            let (notifier, report) = self.vm.call(s, |slot| {
                slot.quiesce_store();
                let (mut vm, notifier, report) = self.recover_shard_incarnation(s)?;
                if s == 0 {
                    self.vm.trust().forget_verdicts();
                    chain = vm.ca_rotation_chain();
                } else {
                    for (epoch, root, cross) in &chain {
                        let _ = vm.adopt_rotation(*epoch, root.serial(), cross.serial(), now);
                    }
                }
                *slot = vm;
                Ok((notifier, report))
            })?;
            if s == 0 {
                self.notifier = notifier.expect("authority shard recovery rebuilds the notifier");
                authority_report = Some(report);
            }
        }
        Ok(authority_report.expect("testbed has at least one shard"))
    }

    /// Recover one shard's incarnation from its own media. Only the
    /// authority shard owns the revocation notifier (its store-and-forward
    /// queue journals into the authority WAL) and the replica set, which
    /// the new store feeds before recovery journals anything, in the order
    /// [`promote`](Self::promote) uses.
    fn recover_shard_incarnation(
        &self,
        shard: usize,
    ) -> Result<
        (
            VerificationManager,
            Option<RevocationNotifier>,
            RecoveryReport,
        ),
        CoreError,
    > {
        let store = self.shard_store(shard, Incarnation::Live)?;
        let replication = self.replication.as_ref().filter(|_| shard == 0);
        if let Some(set) = replication {
            set.attach_store(store.clone());
            store.set_observer(Arc::new(set.clone()));
        }
        let mut notifier = (shard == 0).then(|| {
            RevocationNotifier::new(&self.network)
                .with_telemetry(&self.telemetry)
                .with_store(store.clone())
        });
        let (mut vm, report) =
            self.recover_incarnation(shard, store, notifier.as_mut(), Incarnation::Live)?;
        if let Some(set) = replication {
            vm.with_replication(set.clone());
        }
        Ok((vm, notifier, report))
    }

    /// Shard `shard`'s sealed store: over its medium for a live
    /// incarnation, over a fork of it for a twin (the fork drops any
    /// injected write latency).
    fn shard_store(&self, shard: usize, role: Incarnation) -> Result<StateStore, CoreError> {
        let media = self.shard_store_media(shard).ok_or_else(|| {
            CoreError::Store("testbed is not durable (build with TestbedBuilder::durable)".into())
        })?;
        let media = match role {
            Incarnation::Live => media.clone(),
            Incarnation::Twin => media.fork(),
        };
        let vault = StateVault::load(&self.shard_platforms[shard], &self.enclave_author)?;
        Ok(StateStore::new(media, vault).with_compaction(self.wal_compaction))
    }

    /// Recover shard `shard`'s manager from `store` (the one path for crash
    /// recovery, promotion and oracle twins), then place it at its shard.
    /// A live incarnation shares the deployment's telemetry and takes its
    /// crash plan; a twin gets its own telemetry and no crash plan.
    fn recover_incarnation(
        &self,
        shard: usize,
        store: StateStore,
        notifier: Option<&mut RevocationNotifier>,
        role: Incarnation,
    ) -> Result<(VerificationManager, RecoveryReport), CoreError> {
        let telemetry = match role {
            Incarnation::Live => self.telemetry.clone(),
            Incarnation::Twin => Telemetry::new(),
        };
        let (mut vm, report) = VerificationManager::recover(
            self.vm_config.clone(),
            &self.seed,
            self.clock.clone(),
            telemetry,
            store,
            notifier,
        )?;
        if let (Incarnation::Live, Some(plan)) = (role, &self.crash_plan) {
            vm = vm.with_crash_plan(plan.clone());
        }
        // Replay restored the journaled allocator high-water marks; the
        // shard floors are max-semantics, so re-applying them is safe.
        vm.set_shard(shard as u32, self.vm.shard_count() as u32);
        Ok((vm, report))
    }

    /// Detach the authority shard's current incarnation — e.g. to keep a
    /// partitioned-away zombie primary alive across a failover drill —
    /// leaving a fresh placeholder incarnation behind in the service
    /// handle so the testbed's own methods keep working. The detached
    /// incarnation comes back in a service handle of its own, whose shard
    /// accessor still waits for (and fails on) its WAL commits and which
    /// reads the deployment's trust inputs and host table.
    pub fn detach_primary(&mut self) -> VmService {
        let placeholder = VerificationManager::with_runtime(
            self.vm_config.clone(),
            &self.seed,
            self.clock.clone(),
            self.telemetry.clone(),
        );
        self.vm.detach(0, placeholder)
    }

    /// The authority shard's replication handle, when built with
    /// [`replicas`](TestbedBuilder::replicas).
    pub fn replication(&self) -> Option<&ReplicaSet> {
        self.replication.as_ref()
    }

    /// Stand up the fleet health plane over the fabric: one
    /// `GET /standby/health` server per authority standby (at
    /// `health-<standby addr>`) plus a
    /// [`FleetMonitor`](crate::fleet::FleetMonitor) registered against
    /// the primary's API at `vm_addr` and every standby endpoint. The
    /// caller adds host agents it launched via
    /// [`FleetMonitor::add_agent`](crate::fleet::FleetMonitor::add_agent),
    /// and must keep the returned
    /// [`ServerHandle`]s alive for as long as the monitor scrapes.
    ///
    /// The primary's API itself is served separately
    /// ([`serve_vm_api`](crate::remote::serve_vm_api)) — this helper only
    /// wires the observers.
    pub fn fleet_monitor(
        &self,
        origin: &str,
        vm_addr: &str,
    ) -> Result<(crate::fleet::FleetMonitor, Vec<ServerHandle>), CoreError> {
        let mut monitor = crate::fleet::FleetMonitor::new(
            self.network.clone(),
            self.clock.clone(),
            origin,
            &self.telemetry,
        );
        monitor.add_vm("vm-primary", vm_addr);
        let mut handles = Vec::with_capacity(self.standbys.len());
        for (i, standby) in self.standbys.iter().enumerate() {
            let health_addr = format!("health-{}", standby.addr());
            handles.push(crate::fleet::serve_standby_health(
                &self.network,
                &health_addr,
                standby.status_probe(),
                self.clock.clone(),
            )?);
            monitor.add_standby(&format!("vm-standby-{i}"), &health_addr);
        }
        Ok((monitor, handles))
    }

    /// Move the IAS behind a REST endpoint at `address` on the fabric, the
    /// paper's shape, where the VM reaches the attestation service over
    /// the network. Returns the server handle (the endpoint closes when it
    /// drops) and a plain client for it, which the caller may configure
    /// further (resilience, telemetry). The testbed keeps an empty
    /// placeholder service that knows no EPID group.
    pub fn serve_ias(&mut self, address: &str) -> Result<(ServerHandle, RemoteIas), CoreError> {
        let ias = std::mem::replace(&mut self.ias, AttestationService::new(b"detached"));
        let report_key = ias.report_signing_key();
        let (server, _shared) = crate::remote::serve_ias(&self.network, address, ias)?;
        Ok((server, RemoteIas::new(&self.network, address, report_key)))
    }

    /// Take the first host out of the testbed as the state its agent
    /// serves: its platforms, container host and integrity enclave, the
    /// given guards, no TPM and no revoked serials. `vm_hmac_key`
    /// authenticates revocation notices; `None` accepts unauthenticated
    /// ones.
    pub fn take_agent_state(
        &mut self,
        guards: HashMap<String, Arc<VnfGuard>>,
        vm_hmac_key: Option<[u8; 32]>,
    ) -> Arc<HostAgentState> {
        let host = self.hosts.remove(0);
        Arc::new(HostAgentState {
            host_id: host.id,
            platform: host.platform,
            snp: host.snp,
            container_host: RwLock::new(host.container_host),
            integrity_enclave: host.integrity_enclave,
            tpm: None,
            guards: RwLock::new(guards),
            revoked_serials: RwLock::new(Default::default()),
            vm_hmac_key,
        })
    }

    /// Node-loss injection: kill the Verification Manager fleet in place.
    /// Every later call on it fails [`CoreError::VmCrashed`]; the standbys
    /// keep everything it journaled. Follow with
    /// [`promote`](Self::promote) to fail over the authority shard.
    pub fn kill_primary(&mut self, reason: &str) {
        self.vm.halt(reason);
    }

    /// True once every authority standby's view of the primary is staler
    /// than `timeout_secs` — the missed-heartbeat promotion trigger for
    /// operators who poll instead of being told.
    pub fn failover_due(&self, timeout_secs: u64) -> bool {
        !self.standbys.is_empty()
            && self
                .standbys
                .iter()
                .all(|s| s.primary_suspect(timeout_secs))
    }

    /// Deterministic failover: promote the authority standby with the
    /// highest contiguous WAL high-water mark (lowest builder index on
    /// ties) to primary.
    ///
    /// The chosen standby stops accepting frames and its store is
    /// recovered through the exact crash-recovery path — CA and HMAC keys
    /// re-derive from the deployment seed, serial and CRL-number
    /// high-water marks reconcile from the replayed state, orphaned
    /// two-phase enrollments abort via the grace-TTL sweep, and the
    /// failed primary's undelivered revocation notices are requeued and
    /// drained. The surviving standbys (and the new primary's frames)
    /// move to `epoch + 1`, fencing the old primary: its next append is
    /// rejected and the operation fails instead of committing into a dead
    /// timeline. The recovered incarnation is swapped into the service
    /// handle in place, so API servers keep routing to the same handle,
    /// and host verdicts are forgotten as it goes live: hosts re-attest.
    pub fn promote(&mut self) -> Result<PromotionReport, CoreError> {
        if self.standbys.is_empty() {
            return Err(CoreError::ServiceUnavailable(
                "no standbys to promote (build with TestbedBuilder::replicas)".into(),
            ));
        }
        let chosen = self
            .standbys
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.status().next_seq))
            .max_by_key(|&(i, next_seq)| (next_seq, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("standbys is non-empty");
        let node = self.standbys.remove(chosen);
        let platform = self.standby_platforms.remove(chosen);
        let high_water = node.status().next_seq - 1;
        let (store, promoted_addr) = (node.store(), node.addr().to_string());
        node.stop();
        let old_epoch = self.replication.as_ref().map_or(0, ReplicaSet::epoch);
        let new_epoch = old_epoch + 1;
        for standby in &self.standbys {
            standby.set_epoch(new_epoch);
        }
        let media = store.media().clone();
        let survivors: Vec<String> = self.standbys.iter().map(|s| s.addr().to_string()).collect();
        let set = ReplicaSet::new(
            &self.network,
            &survivors,
            new_epoch,
            high_water + 1,
            self.replication_config.clone(),
            self.clock.clone(),
            self.telemetry.clone(),
        );
        set.attach_store(store.clone());
        // Observer before recovery: the records recovery itself journals
        // (orphan aborts, RecoveryCompleted) stream to the survivors at
        // the new epoch; a survivor that was lagging answers with a gap
        // ack and is caught up from the retained buffer or a snapshot.
        store.set_observer(Arc::new(set.clone()));
        let mut notifier = RevocationNotifier::new(&self.network)
            .with_telemetry(&self.telemetry)
            .with_store(store.clone());
        let (mut vm, recovery) =
            self.recover_incarnation(0, store, Some(&mut notifier), Incarnation::Live)?;
        vm.with_replication(set.clone());
        // The failed primary's store-and-forward queue was part of the
        // replicated state, so its undelivered notices came back in the
        // replay; push them out now rather than waiting for the next
        // revocation.
        let notices_requeued = notifier.pending().len();
        let notices_delivered = notifier.drain(self.clock.now());
        self.telemetry.event(
            self.clock.now(),
            "failover_promoted",
            &format!("{promoted_addr} promoted to primary at epoch {new_epoch} (high-water {high_water})"),
        );
        self.vm.run(0, |slot| {
            self.vm.trust().forget_verdicts();
            *slot = vm;
        });
        self.notifier = notifier;
        self.shard_media[0] = Some(media);
        self.shard_platforms[0] = platform;
        self.replication = Some(set);
        Ok(PromotionReport {
            epoch: new_epoch,
            promoted_addr,
            high_water,
            recovery,
            notices_requeued,
            notices_delivered,
        })
    }

    /// An *oracle twin* of the authority shard: a manager recovered from
    /// an independent fork of its media, without touching the deployment.
    /// The chaos tests compare a promoted standby against this —
    /// byte-equal CA roots, serials, enrollment records, and CRL numbers
    /// mean the replication stream lost nothing the primary had made
    /// durable.
    pub fn oracle_twin(&self) -> Result<VmService, CoreError> {
        self.oracle_twin_for(0)
    }

    /// An oracle twin of one shard, recovered from a fork of that shard's
    /// media (so building twins is fast even on a slow-media testbed).
    pub fn oracle_twin_for(&self, shard: usize) -> Result<VmService, CoreError> {
        self.twin_manager(shard).map(VmService::single)
    }

    /// Oracle twins of every shard, served as one fleet in shard order.
    pub fn oracle_fleet(&self) -> Result<VmService, CoreError> {
        let twins = (0..self.vm.shard_count())
            .map(|s| self.twin_manager(s))
            .collect::<Result<_, _>>()?;
        Ok(VmService::from_shards(twins))
    }

    /// Recover one shard's manager from a fork of its media.
    fn twin_manager(&self, shard: usize) -> Result<VerificationManager, CoreError> {
        let store = self.shard_store(shard, Incarnation::Twin)?;
        self.recover_incarnation(shard, store, None, Incarnation::Twin)
            .map(|(vm, _)| vm)
    }
}

/// Outcome of a [`Testbed::promote`] failover.
#[derive(Debug)]
pub struct PromotionReport {
    /// The fencing epoch the deployment moved to.
    pub epoch: u64,
    /// Fabric address of the standby that became primary.
    pub promoted_addr: String,
    /// The promoted standby's contiguous WAL high-water mark at selection.
    pub high_water: u64,
    /// The crash-recovery pass that rebuilt manager state from its store.
    pub recovery: RecoveryReport,
    /// Undelivered revocation notices recovered from the replicated queue.
    pub notices_requeued: usize,
    /// How many of those were delivered by the post-promotion drain.
    pub notices_delivered: usize,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed")
            .field("mode", &self.mode.as_str())
            .field("shards", &self.vm.shard_count())
            .field("hosts", &self.hosts.len())
            .field("enrollments", &self.vm.issued_count())
            .finish_non_exhaustive()
    }
}
