//! The deployment's trust inputs (whitelists, host reference database) are
//! held once, by the service: an entry made through `VmService` survives
//! recovery and failover, and writing one never waits on a shard.

use std::time::Duration;
use vnfguard_core::deployment::{Testbed, TestbedBuilder};
use vnfguard_sgx::measurement::Measurement;
use vnfguard_vnf::VnfGuard;

/// Load `name`'s guard on host 0 by hand and whitelist it through the
/// service, as the operator API and wirebench do, not through
/// `Testbed::deploy_guard`.
fn hand_whitelisted_guard(tb: &Testbed, name: &str) -> VnfGuard {
    let guard = VnfGuard::load(
        &tb.hosts[0].platform,
        &tb.network,
        &tb.enclave_author,
        name,
        1,
    )
    .unwrap();
    tb.vm.trust_enclave(guard.mrenclave(), name);
    guard
}

#[test]
fn a_service_whitelist_entry_survives_recovery() {
    let mut tb = TestbedBuilder::new(b"trust across recovery")
        .durable()
        .build();
    let guard = hand_whitelisted_guard(&tb, "vnf-hand");
    tb.recover_vm().unwrap();
    tb.attest_host(0).unwrap();
    tb.enroll(0, &guard).unwrap();
}

#[test]
fn a_service_whitelist_entry_survives_promotion() {
    let mut tb = TestbedBuilder::new(b"trust across promotion")
        .replicas(1)
        .build();
    let guard = hand_whitelisted_guard(&tb, "vnf-hand");
    tb.kill_primary("node loss");
    tb.promote().unwrap();
    tb.attest_host(0).unwrap();
    tb.enroll(0, &guard).unwrap();
}

#[test]
fn a_trust_write_does_not_wait_for_an_unrelated_wal_write() {
    let tb = TestbedBuilder::new(b"trust write in flight")
        .durable()
        .build();
    let media = tb.store_media().unwrap().clone();
    media.set_write_latency(Duration::from_secs(2));
    let vm = tb.vm_service();
    std::thread::scope(|scope| {
        let writer = vm.clone();
        let crl = scope.spawn(move || writer.issue_crl().unwrap());
        while media.writes_in_flight() == 0 {
            std::thread::yield_now();
        }
        vm.trust_enclave(Measurement([7; 32]), "in-flight");
        assert_eq!(
            media.writes_in_flight(),
            1,
            "trust_enclave waited for the CRL's WAL write to land"
        );
        crl.join().unwrap();
    });
}
