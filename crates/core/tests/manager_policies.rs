//! Verification Manager policy behavior: TCB policies, challenge
//! lifecycle, HMAC authentication, and record keeping.

use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_core::manager::{ManagerConfig, TcbPolicy, VerificationManager};
use vnfguard_core::CoreError;
use vnfguard_ias::GroupStatus;

#[test]
fn strict_tcb_policy_rejects_out_of_date_platforms() {
    let mut testbed = TestbedBuilder::new(b"tcb strict")
        .tcb_policy(TcbPolicy::Strict)
        .build();
    // Raise the TCB baseline above the platform's QE SVN (2).
    let gid = testbed.hosts[0].platform.epid_group_id();
    testbed.ias.set_tcb_baseline(gid, 5);
    testbed.ias.add_advisory(gid, "INTEL-SA-00161");
    let err = testbed.attest_host(0).unwrap_err();
    assert!(
        matches!(err, CoreError::AttestationFailed(ref msg) if msg.contains("OUT_OF_DATE")),
        "{err}"
    );
}

#[test]
fn lenient_tcb_policy_tolerates_out_of_date_platforms() {
    let mut testbed = TestbedBuilder::new(b"tcb lenient")
        .tcb_policy(TcbPolicy::Lenient)
        .build();
    let gid = testbed.hosts[0].platform.epid_group_id();
    testbed.ias.set_tcb_baseline(gid, 5);
    // Lenient policy accepts GROUP_OUT_OF_DATE and continues the workflow.
    let verdict = testbed.attest_host(0).unwrap();
    assert!(verdict.is_trusted());
    let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    testbed.enroll(0, &guard).unwrap();
}

#[test]
fn group_status_changes_propagate() {
    let mut testbed = TestbedBuilder::new(b"group status").build();
    testbed.attest_host(0).unwrap();
    let gid = testbed.hosts[0].platform.epid_group_id();
    testbed.ias.set_group_status(gid, GroupStatus::Revoked);
    assert!(testbed.attest_host(0).is_err());
    testbed.ias.set_group_status(gid, GroupStatus::Ok);
    testbed.attest_host(0).unwrap();
}

#[test]
fn challenges_are_single_use() {
    let mut testbed = TestbedBuilder::new(b"challenge reuse").build();
    let host_id = testbed.hosts[0].id.clone();
    let challenge = testbed.vm.begin_host_attestation(&host_id).unwrap();
    let iml = testbed.hosts[0].container_host.measurement_list().encode();
    let evidence = vnfguard_core::attestation::host_evidence(
        &testbed.hosts[0].platform,
        &testbed.hosts[0].integrity_enclave,
        &iml,
        &challenge.nonce,
        None,
    )
    .unwrap();
    // First presentation succeeds.
    testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge.id, &evidence)
        .unwrap();
    // The same challenge id is consumed: replaying the exchange fails.
    let err = testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge.id, &evidence)
        .unwrap_err();
    assert!(matches!(err, CoreError::BadChallenge(_)));
}

#[test]
fn host_challenge_cannot_complete_vnf_enrollment() {
    let mut testbed = TestbedBuilder::new(b"challenge kind").build();
    testbed.attest_host(0).unwrap();
    let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    let host_id = testbed.hosts[0].id.clone();
    // A *host* challenge presented to the VNF-enrollment endpoint.
    let challenge = testbed.vm.begin_host_attestation(&host_id).unwrap();
    let prov = guard.provisioning_key().unwrap();
    let quote = guard
        .quote(
            &testbed.hosts[0].platform,
            &challenge.nonce,
            challenge.nonce,
        )
        .unwrap();
    let err = testbed
        .vm
        .complete_vnf_enrollment(
            &mut testbed.ias,
            challenge.id,
            &quote.encode(),
            &prov,
            "controller",
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::BadChallenge(_)));
}

#[test]
fn hmac_tags_authenticate_vm_messages() {
    let vm_a = VerificationManager::new(ManagerConfig::default(), b"seed-a");
    let vm_b = VerificationManager::new(ManagerConfig::default(), b"seed-b");
    let tag = vm_a.hmac_tag(b"revoke vnf-7");
    assert_eq!(tag, vm_a.hmac_tag(b"revoke vnf-7"));
    assert_ne!(tag, vm_a.hmac_tag(b"revoke vnf-8"));
    assert_ne!(tag, vm_b.hmac_tag(b"revoke vnf-7"));
}

#[test]
fn enrollment_records_track_revocation_state() {
    let mut testbed = TestbedBuilder::new(b"records").build();
    testbed.attest_host(0).unwrap();
    let guard = testbed.deploy_guard(0, "vnf-r", 1).unwrap();
    let cert = testbed.enroll(0, &guard).unwrap();
    let record = testbed
        .vm
        .enrollments()
        .find(|e| e.serial == cert.serial())
        .unwrap()
        .clone();
    assert_eq!(record.vnf_name, "vnf-r");
    assert_eq!(record.host_id, "host-0");
    assert!(!record.revoked);
    assert_eq!(record.mrenclave, *guard.mrenclave().as_bytes());

    testbed
        .vm
        .revoke_credential(
            cert.serial(),
            vnfguard_pki::crl::RevocationReason::Superseded,
        )
        .unwrap();
    assert!(
        testbed
            .vm
            .enrollments()
            .find(|e| e.serial == cert.serial())
            .unwrap()
            .revoked
    );
    // Revoking an unknown serial is a workflow violation.
    assert!(matches!(
        testbed
            .vm
            .revoke_credential(99_999, vnfguard_pki::crl::RevocationReason::Unspecified),
        Err(CoreError::WorkflowViolation(_))
    ));
}

#[test]
fn require_tpm_refuses_hosts_without_quotes() {
    // A TPM-requiring deployment where the host omits the TPM quote.
    let mut testbed = TestbedBuilder::new(b"tpm required").with_tpm().build();
    let host_id = testbed.hosts[0].id.clone();
    let challenge = testbed.vm.begin_host_attestation(&host_id).unwrap();
    testbed.hosts[0].sync_tpm();
    let iml = testbed.hosts[0].container_host.measurement_list().encode();
    let evidence = vnfguard_core::attestation::host_evidence(
        &testbed.hosts[0].platform,
        &testbed.hosts[0].integrity_enclave,
        &iml,
        &challenge.nonce,
        None, // no TPM quote despite the policy
    )
    .unwrap();
    let err = testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge.id, &evidence)
        .unwrap_err();
    assert!(
        matches!(err, CoreError::AttestationFailed(ref msg) if msg.contains("TPM")),
        "{err}"
    );
}
