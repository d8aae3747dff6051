//! Mixed SGX + SEV-SNP fleets through the generic [`AttestationBackend`]
//! path: enrollment, renewal, revocation, crash recovery, and the
//! cross-backend rejection rules, all against one Verification Manager.
//!
//! [`AttestationBackend`]: vnfguard_attest::AttestationBackend

use std::collections::HashMap;

use vnfguard_attest::snp::{normalize_measurement, SnpFault};
use vnfguard_attest::{BackendKind, Measurement};
use vnfguard_core::attestation::{host_evidence, host_report_data, HostEvidence};
use vnfguard_core::backend::snp_vnf_measurement;
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_core::fleet::{fleet_json, render_cockpit};
use vnfguard_core::remote::HostAgent;
use vnfguard_pki::crl::RevocationReason;
use vnfguard_vnf::VnfGuard;

fn mixed_testbed(seed: &[u8]) -> vnfguard_core::deployment::Testbed {
    TestbedBuilder::new(seed)
        .hosts(4)
        .host_backend(2, BackendKind::SevSnp)
        .host_backend(3, BackendKind::SevSnp)
        .durable()
        .renewal_window(86_000)
        .build()
}

#[test]
fn mixed_fleet_full_lifecycle() {
    let mut tb = mixed_testbed(b"mixed lifecycle");
    for i in 0..4 {
        tb.attest_host(i).unwrap();
    }

    // Enroll one VNF per host; the enrollment records must carry the
    // backend the evidence actually came from.
    let mut guards = Vec::new();
    let mut serials = Vec::new();
    for i in 0..4 {
        let guard = tb.deploy_guard(i, &format!("vnf-{i}"), 1).unwrap();
        let certificate = tb.enroll(i, &guard).unwrap();
        serials.push(certificate.serial());
        guards.push(guard);
    }
    for (i, serial) in serials.iter().enumerate() {
        let record = tb
            .vm
            .enrollments()
            .find(|e| e.serial == *serial)
            .expect("enrollment recorded");
        let expected = if i < 2 {
            BackendKind::SgxEpid
        } else {
            BackendKind::SevSnp
        };
        assert_eq!(record.backend, expected.as_u8(), "host {i}");
    }

    // Renewal routes back through the recorded backend for every host.
    for (guard, serial) in guards.iter().zip(serials.iter_mut()) {
        *serial = tb.renew(guard, *serial).unwrap().serial();
    }

    // CA rotation and CRL distribution reach both populations.
    let rotation = tb.rotate_ca().unwrap();
    tb.distribute_ca(&rotation).unwrap();
    tb.clock.advance(1);
    tb.vm
        .revoke_credential(serials[0], RevocationReason::KeyCompromise)
        .unwrap();
    tb.vm
        .revoke_credential(serials[2], RevocationReason::KeyCompromise)
        .unwrap();
    tb.push_crl().unwrap();
    tb.clock.advance(1);
    for (i, guard) in guards.iter_mut().enumerate() {
        let session = tb.open_session(guard);
        if i == 0 || i == 2 {
            assert!(
                session.is_err(),
                "revoked host-{i} credential opened a session"
            );
        } else {
            guard.close_session(session.unwrap()).unwrap();
        }
    }
}

#[test]
fn recovery_restores_both_backend_whitelists() {
    let mut tb = mixed_testbed(b"mixed recovery");
    for i in 0..4 {
        tb.attest_host(i).unwrap();
    }
    // Each host's guard is whitelisted through the service under the
    // host's backend, not through `deploy_guard`.
    let mut pre = Vec::new();
    for i in 0..4 {
        let name = format!("pre-{i}");
        let host = &tb.hosts[i];
        let guard =
            VnfGuard::load(&host.platform, &tb.network, &tb.enclave_author, &name, 1).unwrap();
        let measurement = match host.backend {
            BackendKind::SgxEpid => guard.mrenclave(),
            BackendKind::SevSnp => Measurement(normalize_measurement(&snp_vnf_measurement(&name))),
        };
        tb.vm.trust_enclave_for(host.backend, measurement, &name);
        tb.enroll(i, &guard).unwrap();
        pre.push(guard);
    }

    let report = tb.recover_vm().unwrap();
    assert!(report.replayed_records > 0);

    // Attestations are dropped by design; re-attesting uses the backend
    // each host was built with. The whitelists belong to the service, not
    // to the incarnation, so both a guard whitelisted before the recovery
    // and a fresh one enroll on either side.
    for i in [0usize, 3] {
        tb.attest_host(i).unwrap();
        let post = tb.deploy_guard(i, &format!("post-{i}"), 1).unwrap();
        for guard in [&pre[i], &post] {
            let certificate = tb.enroll(i, guard).unwrap();
            let record = tb
                .vm
                .enrollments()
                .find(|e| e.serial == certificate.serial())
                .unwrap();
            assert_eq!(record.backend, tb.hosts[i].backend.as_u8());
        }
    }
}

#[test]
fn snp_debug_policy_refused_at_host_attestation() {
    let mut tb = mixed_testbed(b"mixed debug policy");
    tb.hosts[2]
        .snp
        .as_mut()
        .unwrap()
        .set_fault(Some(SnpFault::DebugPolicy));
    let err = tb.attest_host(2).unwrap_err();
    assert!(err.to_string().contains("debug"), "{err}");

    // The clean SNP host is unaffected.
    tb.attest_host(3).unwrap();
}

#[test]
fn snp_forged_signature_refused_at_host_attestation() {
    let mut tb = mixed_testbed(b"mixed forged sig");
    tb.hosts[3]
        .snp
        .as_mut()
        .unwrap()
        .set_fault(Some(SnpFault::ForgedSignature));
    assert!(tb.attest_host(3).is_err());
}

#[test]
fn cross_backend_evidence_refused_by_manager() {
    let mut tb = mixed_testbed(b"mixed cross backend");

    // An SNP host presenting its evidence down the SGX/IAS path: IAS
    // cannot parse the bundle as a quote and the manager refuses.
    let challenge = tb.vm.begin_host_attestation(&tb.hosts[2].id).unwrap();
    tb.hosts[2].sync_tpm();
    let iml = tb.hosts[2].container_host.measurement_list().encode();
    let report_data = host_report_data(&iml, &challenge.nonce);
    let snp_quote = tb.hosts[2].snp.as_ref().unwrap().attest_self(report_data);
    let evidence = HostEvidence {
        quote: snp_quote,
        iml,
        tpm_quote: None,
    };
    assert!(tb
        .vm
        .complete_host_attestation(&mut tb.ias, challenge.id, &evidence)
        .is_err());

    // An SGX host presenting its quote to the SNP appraiser: the bundle
    // has no SNP magic and dies structurally.
    let challenge = tb.vm.begin_host_attestation(&tb.hosts[0].id).unwrap();
    tb.hosts[0].sync_tpm();
    let iml = tb.hosts[0].container_host.measurement_list().encode();
    let evidence = host_evidence(
        &tb.hosts[0].platform,
        &tb.hosts[0].integrity_enclave,
        &iml,
        &challenge.nonce,
        None,
    )
    .unwrap();
    let mut verifier = tb.snp_verifier().unwrap().clone();
    assert!(tb
        .vm
        .complete_host_attestation(&mut verifier, challenge.id, &evidence)
        .is_err());

    // Control arm: both hosts still attest cleanly through their own
    // backends afterwards.
    tb.attest_host(0).unwrap();
    tb.attest_host(2).unwrap();
}

#[test]
fn fleet_status_breaks_out_backend_populations() {
    let mut tb = mixed_testbed(b"mixed fleet view");
    let (mut monitor, _handles) = tb.fleet_monitor("operator", "vm:8443").unwrap();

    // Serve each host's agent; /agent/health advertises its backend.
    let mut agents = Vec::new();
    for i in 0..tb.hosts.len() {
        let state = tb.take_agent_state(HashMap::new(), Some(tb.vm.share_hmac_key()));
        let agent = HostAgent::serve(&tb.network, state).unwrap();
        monitor.add_agent(&format!("agent-{i}"), &agent.address);
        agents.push(agent);
    }

    let status = monitor.scrape();
    assert_eq!(
        status.backend_counts,
        vec![("sgx".to_string(), 2), ("snp".to_string(), 2)]
    );
    let agent_backends: Vec<Option<String>> = status
        .nodes
        .iter()
        .filter(|n| n.name.starts_with("agent-"))
        .map(|n| n.backend.clone())
        .collect();
    assert_eq!(
        agent_backends,
        vec![
            Some("sgx".into()),
            Some("sgx".into()),
            Some("snp".into()),
            Some("snp".into())
        ]
    );
    // VM nodes carry no backend (authority-side, not a TEE population).
    assert!(status
        .nodes
        .iter()
        .filter(|n| !n.name.starts_with("agent-"))
        .all(|n| n.backend.is_none()));

    let doc = fleet_json(&status);
    let backends = doc.get("backends").expect("backends object");
    assert_eq!(backends.get("sgx").and_then(|j| j.as_i64()), Some(2));
    assert_eq!(backends.get("snp").and_then(|j| j.as_i64()), Some(2));

    let cockpit = render_cockpit(&status);
    assert!(cockpit.contains("2 sgx"), "{cockpit}");
    assert!(cockpit.contains("2 snp"), "{cockpit}");
}
