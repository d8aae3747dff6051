//! The distributed deployment every workload runs against: IAS, host
//! agents, the Verification Manager's operator API and the trusted-HTTPS
//! controller, each its own service on the in-memory fabric.

use crate::steal;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use vnfguard_core::deployment::{Testbed, TestbedBuilder};
use vnfguard_core::remote::{serve_ias, serve_vm_api, HostAgent, HostAgentState, RemoteIas};
use vnfguard_core::service::VmService;
use vnfguard_ias::QuoteVerifier;
use vnfguard_net::fabric::Network;
use vnfguard_net::server::{HttpClient, ServerHandle};
use vnfguard_net::stream::Duplex;
use vnfguard_store::Media;
use vnfguard_telemetry::Telemetry;
use vnfguard_vnf::VnfGuard;

/// Where the operator API listens.
pub const VM_ADDR: &str = "vm:8443";
/// Where the attestation service listens.
pub const IAS_ADDR: &str = "ias:443";
/// Container hosts in every deployment (one per onboard connection).
pub const HOSTS: usize = 2;
/// The modelled block-storage flush, applied once set-up is done.
pub const WAL_WRITE_LATENCY: Duration = Duration::from_micros(1500);

/// Guards an agent serves, by VNF name.
pub type GuardMap = HashMap<String, Arc<VnfGuard>>;

/// A running deployment plus the workload's in-process state `T`.
pub struct Deployment<T> {
    // Field order is drop order: servers stop before the testbed goes.
    _vm_api: ServerHandle,
    pub agents: Vec<HostAgent>,
    _ias_server: ServerHandle,
    pub tb: Testbed,
    pub vm: VmService,
    pub network: Network,
    pub telemetry: Telemetry,
    pub media: Media,
    pub state: T,
}

impl<T> Deployment<T> {
    /// Stand the deployment up. `prep` runs on the in-process testbed
    /// before the services detach (the IAS is still local then), and
    /// returns the workload state plus the guards each host's agent serves.
    pub fn build(
        seed: u64,
        traced: bool,
        prep: impl FnOnce(&mut Testbed) -> (T, Vec<GuardMap>),
    ) -> Deployment<T> {
        let mut builder = TestbedBuilder::new(format!("wirebench-{seed}").as_bytes())
            .hosts(HOSTS)
            .durable()
            .group_commit(true);
        if traced {
            builder = builder.tracing(1.0);
        }
        let mut tb = builder.build();
        let (state, mut guard_maps) = prep(&mut tb);
        guard_maps.resize_with(HOSTS, GuardMap::new);

        let network = tb.network.clone();
        let telemetry = tb.telemetry.clone();
        let ias = std::mem::replace(
            &mut tb.ias,
            vnfguard_ias::AttestationService::new(b"detached"),
        );
        let report_key = ias.report_signing_key();
        let (ias_server, _) = serve_ias(&network, IAS_ADDR, ias).expect("IAS binds");

        let mut agents = Vec::with_capacity(HOSTS);
        for guards in guard_maps {
            let host = tb.hosts.remove(0);
            let state = Arc::new(HostAgentState {
                host_id: host.id.clone(),
                platform: host.platform,
                snp: host.snp,
                container_host: RwLock::new(host.container_host),
                integrity_enclave: host.integrity_enclave,
                tpm: None,
                guards: RwLock::new(guards),
                revoked_serials: RwLock::new(Default::default()),
                vm_hmac_key: None,
            });
            let agent = if traced {
                let clock = tb.clock.clone();
                HostAgent::serve_traced(&network, state, &telemetry, move || clock.now())
            } else {
                HostAgent::serve(&network, state)
            };
            agents.push(agent.expect("agent binds"));
        }

        let remote: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(
            RemoteIas::new(&network, IAS_ADDR, report_key).with_telemetry(&telemetry),
        ));
        let vm = tb.vm_service();
        let vm_api = serve_vm_api(&network, VM_ADDR, vm.clone(), remote, &tb.controller_cn)
            .expect("VM API binds");
        let media = tb.store_media().expect("durable testbed").clone();
        media.set_write_latency(WAL_WRITE_LATENCY);
        Deployment {
            _vm_api: vm_api,
            agents,
            _ias_server: ias_server,
            tb,
            vm,
            network,
            telemetry,
            media,
            state,
        }
    }

    /// A kept-alive operator connection to the VM API.
    pub fn operator(&self) -> HttpClient<Duplex> {
        HttpClient::new(
            self.network
                .connect_from("operator", VM_ADDR)
                .expect("VM API reachable"),
        )
    }

    /// Enclave transitions so far across every host platform.
    pub fn ecalls(&self) -> u64 {
        self.agents
            .iter()
            .map(|a| a.state.platform.ecall_count())
            .sum()
    }

    /// A counter's current value in the deployment's telemetry.
    pub fn counter(&self, name: &str) -> u64 {
        self.telemetry.metrics().counter_value(name).unwrap_or(0)
    }

    /// The counters the per-layer table divides, read at one instant
    /// (named by [`COUNTERS`]).
    pub fn counters(&self) -> [f64; 5] {
        [
            self.network.connection_count() as f64,
            self.counter("vnfguard_net_bytes_total") as f64,
            self.ecalls() as f64,
            self.counter("vnfguard_core_wal_records_total") as f64,
            self.counter("vnfguard_core_crls_issued_total") as f64,
        ]
    }
}

/// Names of [`Deployment::counters`], in order.
pub const COUNTERS: [&str; 5] = [
    "connections",
    "bytes",
    "ecalls",
    "wal_records",
    "crls_issued",
];

/// How often a run builds its deployment: at least `min` times and for at
/// least `seconds` in all, never more than [`MAX_BUILDS`] times.
#[derive(Debug, Clone, Copy)]
pub struct Builds {
    pub min: usize,
    pub seconds: f64,
}

/// The cap on [`Builds`], for set-ups that take milliseconds.
pub const MAX_BUILDS: usize = 64;

impl Builds {
    pub const ONCE: Builds = Builds {
        min: 1,
        seconds: 0.0,
    };
}

/// Build the deployment as often as `builds` asks and keep the last one.
/// Returns it with every build's time in seconds of available time (see
/// `steal`); each build starts from nothing, so the times are set-up cost
/// alone.
pub fn build_repeated<T>(
    builds: Builds,
    seed: u64,
    traced: bool,
    prep: impl Fn(&mut Testbed) -> (T, Vec<GuardMap>),
) -> (Deployment<T>, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < builds.min.max(1)
        || (times.iter().sum::<f64>() < builds.seconds && times.len() < MAX_BUILDS)
    {
        drop(last.take());
        let begun = steal::mark();
        let deployment = Deployment::build(seed, traced, &prep);
        times.push(steal::available_since(&begun));
        last = Some(deployment);
    }
    (last.expect("at least one build"), times)
}

/// SplitMix64: the benchmark's seeded input generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Seeded, collision-free VNF names: a per-run tag plus an index.
    pub fn names(&mut self, prefix: &str, count: usize) -> Vec<String> {
        let tag = self.next() as u32;
        let mut names: Vec<String> = (0..count)
            .map(|i| format!("{prefix}-{tag:08x}-{i}"))
            .collect();
        for i in (1..names.len()).rev() {
            names.swap(i, self.below(i + 1));
        }
        names
    }
}
