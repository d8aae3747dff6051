//! The complete Figure-1 workflow and the §5 threat-model matrix.

use vnfguard_container::image::ImageBuilder;
use vnfguard_controller::SecurityMode;
use vnfguard_core::deployment::{TestbedBuilder, ValidationModel};
use vnfguard_core::CoreError;
use vnfguard_encoding::Json;
use vnfguard_ima::appraisal::Verdict;
use vnfguard_net::http::Request;
use vnfguard_pki::crl::RevocationReason;
use vnfguard_vnf::credential_enclave::CredentialEnclave;

#[test]
fn figure1_workflow_end_to_end() {
    let mut testbed = TestbedBuilder::new(b"workflow e2e").build();

    // Steps 1-2: host attestation.
    let verdict = testbed.attest_host(0).unwrap();
    assert_eq!(verdict, Verdict::Trusted);

    // Deploy the VNF container and its credential enclave.
    let image = ImageBuilder::new("vnf-firewall", "1.0")
        .layer(b"fw rootfs")
        .entrypoint(b"fw binary")
        .enclave_image(&CredentialEnclave::image_for("vnf-fw", 1))
        .build();
    testbed.registry.push(image.clone());
    let pulled = testbed.registry.pull("vnf-firewall:1.0").unwrap();
    // Container measurements must be re-attested after deployment.
    testbed.deploy_container(0, &pulled, &pulled).unwrap();
    assert_eq!(testbed.attest_host(0).unwrap(), Verdict::Trusted);

    let mut guard = testbed.deploy_guard(0, "vnf-fw", 1).unwrap();

    // Steps 3-5: VNF attestation + credential provisioning.
    let certificate = testbed.enroll(0, &guard).unwrap();
    assert_eq!(certificate.subject_cn(), "vnf-fw");
    assert_eq!(
        certificate.tbs.enclave_binding,
        Some(*guard.mrenclave().as_bytes())
    );
    assert!(guard.status().unwrap().provisioned);

    // Step 6: mutually-authenticated session to the controller.
    let session = testbed.open_session(&mut guard).unwrap();
    let response = guard
        .request(
            session,
            &Request::post("/wm/core/switch/register").with_json(
                &Json::object()
                    .with("dpid", "0000000000000001")
                    .with("ports", vec![Json::from(1i64)]),
            ),
        )
        .unwrap();
    assert!(response.status.is_success());

    // The controller audit shows the CA-authenticated VNF identity.
    let audit = guard
        .request(session, &Request::get("/wm/core/audit/json"))
        .unwrap()
        .parse_json()
        .unwrap();
    assert!(audit
        .as_array()
        .unwrap()
        .iter()
        .any(|e| e.get("peer").and_then(Json::as_str) == Some("vnf-fw")));

    // The VM recorded the full workflow.
    let events = testbed.vm.events();
    let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
    for expected in [
        "host_attestation_started",
        "host_attested",
        "vnf_attestation_started",
        "vnf_enrolled",
    ] {
        assert!(kinds.contains(&expected), "missing event {expected}");
    }
}

#[test]
fn use_case_1_tampered_vnf_image_detected() {
    // §3 use case 1: integrity attestation of a VNF.
    let mut testbed = TestbedBuilder::new(b"tampered image").build();
    testbed.attest_host(0).unwrap();

    let clean = ImageBuilder::new("vnf", "1.0")
        .layer(b"rootfs")
        .entrypoint(b"vnf binary")
        .build();
    let trojaned = ImageBuilder::new("vnf", "1.0")
        .layer(b"rootfs")
        .entrypoint(b"vnf binary + implant")
        .build();
    // The orchestrator *believes* the clean image is deployed; the host
    // actually runs the trojaned one.
    testbed.deploy_container(0, &clean, &trojaned).unwrap();

    // Re-attestation flags the mismatch and the host loses trust.
    let verdict = testbed.attest_host(0).unwrap();
    assert_eq!(verdict, Verdict::Mismatch);

    // Enrollment of any VNF on this host is now refused.
    let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    let err = testbed.enroll(0, &guard).unwrap_err();
    assert!(matches!(err, CoreError::WorkflowViolation(_)), "{err}");
}

#[test]
fn tampered_credential_enclave_refused() {
    let mut testbed = TestbedBuilder::new(b"tampered enclave").build();
    testbed.attest_host(0).unwrap();

    // An attacker ships their own enclave image (not whitelisted).
    let guard = testbed
        .deploy_guard_unlisted(0, "evil-vnf", b"backdoored credential enclave")
        .unwrap();
    let err = testbed.enroll(0, &guard).unwrap_err();
    assert!(
        matches!(err, CoreError::AttestationFailed(ref msg) if msg.contains("not whitelisted")),
        "{err}"
    );
    // No credentials were provisioned.
    assert!(!guard.status().unwrap().provisioned);
}

#[test]
fn compromised_host_runtime_blocks_enrollment() {
    let mut testbed = TestbedBuilder::new(b"compromised host").build();
    testbed.attest_host(0).unwrap();
    let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();

    // Container-escape: the docker daemon is replaced by a rootkit build.
    testbed.hosts[0]
        .container_host
        .compromise_runtime(b"docker daemon 1.12.2 + rootkit");

    // The next host attestation detects it...
    assert_eq!(testbed.attest_host(0).unwrap(), Verdict::Mismatch);
    // ...and enrollment on this host is refused.
    assert!(testbed.enroll(0, &guard).is_err());
}

#[test]
fn revoked_platform_attestation_key_blocks_host() {
    let mut testbed = TestbedBuilder::new(b"sigrl").build();
    // The platform's EPID member key lands on the SigRL (e.g. the key was
    // extracted and Intel revoked it).
    let member_id = testbed.hosts[0].platform.quoting_enclave().member_id();
    let gid = testbed.hosts[0].platform.epid_group_id();
    testbed.ias.revoke_member(gid, member_id);

    let err = testbed.attest_host(0).unwrap_err();
    assert!(
        matches!(err, CoreError::AttestationFailed(ref msg) if msg.contains("SIGRL")),
        "{err}"
    );
}

#[test]
fn enrollment_requires_prior_host_attestation() {
    let mut testbed = TestbedBuilder::new(b"ordering").build();
    // Skipping steps 1-2 entirely: step 3 must refuse.
    let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    let err = testbed.enroll(0, &guard).unwrap_err();
    assert!(matches!(err, CoreError::WorkflowViolation(_)));
}

#[test]
fn host_attestation_goes_stale() {
    let mut testbed = TestbedBuilder::new(b"staleness").build();
    testbed.attest_host(0).unwrap();
    let guard = testbed.deploy_guard(0, "vnf", 1).unwrap();
    // Advance past the freshness horizon (default 3600s).
    testbed.clock.advance(4000);
    let err = testbed.enroll(0, &guard).unwrap_err();
    assert!(matches!(err, CoreError::WorkflowViolation(_)));
    // Re-attesting restores enrollment.
    testbed.attest_host(0).unwrap();
    testbed.enroll(0, &guard).unwrap();
}

#[test]
fn use_case_2_revocation_evicts_vnf() {
    let mut testbed = TestbedBuilder::new(b"revocation").build();
    testbed.attest_host(0).unwrap();
    let mut guard = testbed.deploy_guard(0, "vnf-1", 1).unwrap();
    let certificate = testbed.enroll(0, &guard).unwrap();

    // Working session before revocation.
    let session = testbed.open_session(&mut guard).unwrap();
    let ok = guard
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
    assert!(ok.status.is_success());

    // Revoke and distribute the CRL to the controller.
    testbed
        .vm
        .revoke_credential(certificate.serial(), RevocationReason::KeyCompromise)
        .unwrap();
    testbed.push_crl().unwrap();

    // New sessions are refused at the handshake.
    testbed.clock.advance(1);
    assert!(testbed.open_session(&mut guard).is_err());
}

#[test]
fn host_wide_revocation() {
    let mut testbed = TestbedBuilder::new(b"host revocation").hosts(2).build();
    testbed.attest_host(0).unwrap();
    testbed.attest_host(1).unwrap();
    let g0 = testbed.deploy_guard(0, "vnf-a", 1).unwrap();
    let g1 = testbed.deploy_guard(0, "vnf-b", 1).unwrap();
    let mut g2 = testbed.deploy_guard(1, "vnf-c", 1).unwrap();
    testbed.enroll(0, &g0).unwrap();
    testbed.enroll(0, &g1).unwrap();
    testbed.enroll(1, &g2).unwrap();

    // Host 0 is found compromised: evict everything on it.
    let revoked = testbed.vm.revoke_host("host-0").unwrap();
    assert_eq!(revoked, 2);
    testbed.push_crl().unwrap();

    // VNFs on host 1 are unaffected.
    testbed.clock.advance(1);
    testbed.open_session(&mut g2).unwrap();
    // Enrollment on host 0 is refused (trust cleared).
    assert!(testbed.enroll(0, &g0).is_err());
}

#[test]
fn plain_http_leaks_what_tls_protects() {
    // The §1 eavesdropping threat, demonstrated both ways.
    let http_bed = TestbedBuilder::new(b"http leak")
        .mode(SecurityMode::Http)
        .build();
    let tap = http_bed.network.tap(&http_bed.controller_addr);
    let mut client = vnfguard_controller::NorthboundClient::connect_plain(
        &http_bed.network,
        &http_bed.controller_addr,
    )
    .unwrap();
    let secret_flow = Json::object()
        .with("dpid", "00000000000000ff")
        .with("ports", vec![Json::from(1i64)]);
    client
        .request(&Request::post("/wm/core/switch/register").with_json(&secret_flow))
        .unwrap();
    // The eavesdropper sees the API payload in clear.
    assert!(tap.contains(b"00000000000000ff"));

    // Same action through the enclave TLS path: ciphertext only.
    let mut tls_bed = TestbedBuilder::new(b"tls no leak").build();
    let tls_tap = tls_bed.network.tap(&tls_bed.controller_addr);
    tls_bed.attest_host(0).unwrap();
    let mut guard = tls_bed.deploy_guard(0, "vnf", 1).unwrap();
    tls_bed.enroll(0, &guard).unwrap();
    let session = tls_bed.open_session(&mut guard).unwrap();
    guard
        .request(
            session,
            &Request::post("/wm/core/switch/register").with_json(&secret_flow),
        )
        .unwrap();
    assert!(!tls_tap.contains(b"00000000000000ff"));
    assert!(tls_tap.frame_count() > 0);
}

#[test]
fn keystore_validation_model_works_but_requires_maintenance() {
    let mut testbed = TestbedBuilder::new(b"keystore model")
        .validation(ValidationModel::Keystore)
        .build();
    testbed.attest_host(0).unwrap();
    let mut guard = testbed.deploy_guard(0, "vnf-ks", 1).unwrap();
    testbed.enroll(0, &guard).unwrap();
    // Enrollment updated the keystore, so the session works.
    let session = testbed.open_session(&mut guard).unwrap();
    let response = guard
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
    assert!(response.status.is_success());

    // Simulate the maintenance failure the paper highlights: the keystore
    // entry is dropped (e.g. a restore from stale state) — the same valid,
    // unexpired, CA-signed certificate is now refused.
    if let Some(validator) = testbed.controller.client_validator() {
        validator.key_store().unwrap().write().remove("vnf-ks");
    }
    assert!(testbed.open_session(&mut guard).is_err());
}

#[test]
fn tpm_extension_defeats_iml_rewrite() {
    // §4 future work: with the TPM anchoring the aggregate, a root-level
    // list rewrite is caught even though the rewritten list is
    // self-consistent.
    let mut testbed = TestbedBuilder::new(b"tpm").with_tpm().build();
    assert_eq!(testbed.attest_host(0).unwrap(), Verdict::Trusted);

    // Compromise the runtime, then "clean" the list by rebooting the host
    // record keeping (rewriting history) — but the TPM remembers.
    testbed.hosts[0]
        .container_host
        .compromise_runtime(b"docker daemon 1.12.2 + rootkit");
    testbed.hosts[0].sync_tpm(); // kernel extended the PCR at exec time

    // The adversary fabricates a clean host state for the next attestation
    // by replacing the container host (fresh, consistent IML)...
    testbed.hosts[0].container_host = vnfguard_container::host::ContainerHost::standard("host-0");
    // ...but cannot rewind the TPM. Attestation fails on the divergence.
    let err = testbed.attest_host(0).unwrap_err();
    assert!(
        matches!(err, CoreError::AttestationFailed(ref msg) if msg.contains("TPM")),
        "{err}"
    );
}

#[test]
fn without_tpm_iml_rewrite_succeeds() {
    // The same attack as above against a TPM-less deployment documents the
    // §4 limitation: it goes undetected.
    let mut testbed = TestbedBuilder::new(b"no tpm").build();
    assert_eq!(testbed.attest_host(0).unwrap(), Verdict::Trusted);
    testbed.hosts[0]
        .container_host
        .compromise_runtime(b"docker daemon 1.12.2 + rootkit");
    testbed.hosts[0].container_host = vnfguard_container::host::ContainerHost::standard("host-0");
    // The fabricated list passes appraisal — the gap the TPM extension closes.
    assert_eq!(testbed.attest_host(0).unwrap(), Verdict::Trusted);
}

#[test]
fn stale_challenge_rejected() {
    let mut testbed = TestbedBuilder::new(b"challenge expiry").build();
    let host_id = testbed.hosts[0].id.clone();
    let challenge = testbed.vm.begin_host_attestation(&host_id).unwrap();
    // Evidence prepared but presented after the challenge lifetime.
    let iml = testbed.hosts[0].container_host.measurement_list().encode();
    let evidence = vnfguard_core::attestation::host_evidence(
        &testbed.hosts[0].platform,
        &testbed.hosts[0].integrity_enclave,
        &iml,
        &challenge.nonce,
        None,
    )
    .unwrap();
    testbed.clock.advance(301);
    let err = testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge.id, &evidence)
        .unwrap_err();
    assert!(matches!(err, CoreError::BadChallenge(_)));
}

#[test]
fn quote_replay_with_wrong_nonce_rejected() {
    let mut testbed = TestbedBuilder::new(b"replay").build();
    let host_id = testbed.hosts[0].id.clone();
    // Attacker records evidence for challenge A...
    let challenge_a = testbed.vm.begin_host_attestation(&host_id).unwrap();
    let iml = testbed.hosts[0].container_host.measurement_list().encode();
    let evidence = vnfguard_core::attestation::host_evidence(
        &testbed.hosts[0].platform,
        &testbed.hosts[0].integrity_enclave,
        &iml,
        &challenge_a.nonce,
        None,
    )
    .unwrap();
    // ...and replays it against challenge B.
    let challenge_b = testbed.vm.begin_host_attestation(&host_id).unwrap();
    let err = testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge_b.id, &evidence)
        .unwrap_err();
    assert!(matches!(err, CoreError::AttestationFailed(_)), "{err}");
}
