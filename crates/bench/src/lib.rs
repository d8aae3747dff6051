//! Shared helpers for the experiment benchmarks.
//!
//! Each bench target regenerates one experiment of EXPERIMENTS.md; the
//! helpers here build the standard deployment the paper's demo describes
//! (E1–E8), the distributed deployment E9, E10 and E12 enroll through
//! ([`RemoteWorld`]), and hold the paired-batch harness the overhead bars
//! share.

use std::collections::HashMap;
use std::sync::Arc;
use vnfguard_controller::SecurityMode;
use vnfguard_core::deployment::{Testbed, TestbedBuilder};
use vnfguard_core::remote::{remote_attest_host, remote_enroll_vnf, HostAgent, RemoteIas};
use vnfguard_net::ServerHandle;
use vnfguard_pki::Certificate;
use vnfguard_vnf::VnfGuard;

/// Build the default trusted-HTTPS testbed with an attested host.
pub fn attested_testbed(seed: &[u8]) -> Testbed {
    let mut testbed = TestbedBuilder::new(seed).build();
    testbed.attest_host(0).expect("host attestation");
    testbed
}

/// Build a testbed in the given controller security mode.
pub fn testbed_with_mode(seed: &[u8], mode: SecurityMode) -> Testbed {
    let mut testbed = TestbedBuilder::new(seed).mode(mode).build();
    testbed.attest_host(0).expect("host attestation");
    testbed
}

/// Deploy and enroll one guard.
pub fn enrolled_guard(testbed: &mut Testbed, name: &str) -> VnfGuard {
    let guard = testbed.deploy_guard(0, name, 1).expect("deploy");
    testbed.enroll(0, &guard).expect("enroll");
    guard
}

/// The distributed deployment: the testbed's IAS served at `ias:443` on
/// the fabric, and host 0 behind a host agent that authenticates the VM's
/// revocation notices.
pub struct RemoteWorld {
    pub testbed: Testbed,
    pub agent: HostAgent,
    pub remote_ias: RemoteIas,
    next_vnf: u64,
    _ias: ServerHandle,
}

impl RemoteWorld {
    /// Build `builder`'s testbed and distribute it; `configure` finishes
    /// the VM's IAS client (resilience, telemetry).
    pub fn new(
        builder: TestbedBuilder,
        configure: impl FnOnce(&Testbed, RemoteIas) -> RemoteIas,
    ) -> RemoteWorld {
        let mut testbed = builder.build();
        let (_ias, remote_ias) = testbed.serve_ias("ias:443").expect("the IAS binds");
        let remote_ias = configure(&testbed, remote_ias);
        let state = testbed.take_agent_state(HashMap::new(), Some(testbed.vm.share_hmac_key()));
        let agent = HostAgent::serve(&testbed.network, state).expect("the agent binds");
        RemoteWorld {
            testbed,
            agent,
            remote_ias,
            next_vnf: 0,
            _ias,
        }
    }

    /// Attest host 0 through its agent.
    pub fn attest_host(&mut self) {
        remote_attest_host(
            &self.testbed.vm,
            &mut self.remote_ias,
            &self.testbed.network,
            "host-0",
        )
        .expect("host 0 attests");
    }

    /// Deploy a fresh guard behind the agent ([`deploy_agent_guard`]) and
    /// return its name.
    pub fn deploy_guard(&mut self) -> String {
        self.next_vnf += 1;
        let name = format!("vnf-{}", self.next_vnf);
        deploy_agent_guard(&self.testbed, &self.agent, &name);
        name
    }

    /// Enroll the named guard through its agent.
    pub fn enroll(&mut self, name: &str) -> Certificate {
        remote_enroll_vnf(
            &self.testbed.vm,
            &mut self.remote_ias,
            &self.testbed.network,
            "host-0",
            name,
            "controller",
        )
        .expect("remote enrollment")
    }

    /// One remote enrollment of a freshly deployed guard per iteration.
    pub fn bench_enrollments(&mut self, b: &mut criterion::Bencher) {
        b.iter(|| {
            let name = self.deploy_guard();
            self.enroll(&name)
        });
    }
}

/// Load a fresh guard named `name` on the agent's host, whitelist its
/// enclave with the testbed's VM under the label `name`, and hand it to
/// the agent, which then serves its attestation and provisioning.
pub fn deploy_agent_guard(testbed: &Testbed, agent: &HostAgent, name: &str) {
    let guard = VnfGuard::load(
        &agent.state.platform,
        &testbed.network,
        &testbed.enclave_author,
        name,
        1,
    )
    .expect("guard loads");
    testbed.vm.trust_enclave(guard.mrenclave(), name);
    agent
        .state
        .guards
        .write()
        .insert(name.to_string(), Arc::new(guard));
}

/// Median of `values` (the upper median for an even count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    values[values.len() / 2]
}

/// The drift-cancelling paired-batch harness behind the overhead bars
/// (E12, E14, E17). Runs `pairs` adjacent (`on`, `off`) batch pairs,
/// alternating which side goes first so scheduler and thermal drift and
/// ordering bias hit both sides equally. Each closure runs one batch and
/// returns its per-iteration cost. Returns `(on_median, off_median,
/// overhead)`, where the overhead is the median per-pair `on / off` ratio
/// minus one — a median that cancels drift a global mean would absorb.
pub fn paired_overhead(
    pairs: usize,
    mut on: impl FnMut() -> f64,
    mut off: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let mut on_us = Vec::with_capacity(pairs);
    let mut off_us = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        if pair % 2 == 0 {
            on_us.push(on());
            off_us.push(off());
        } else {
            off_us.push(off());
            on_us.push(on());
        }
    }
    let ratios: Vec<f64> = on_us.iter().zip(&off_us).map(|(a, b)| a / b).collect();
    (median(on_us), median(off_us), median(ratios) - 1.0)
}
