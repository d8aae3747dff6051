//! Credential lifecycle end-to-end: renewal without re-enrollment, CA
//! rotation with a cross-signed dual-trust window, CRL distribution to
//! the controller, and the crash-consistency of all three flows.

use parking_lot::Mutex;
use std::sync::Arc;
use vnfguard_core::crash::CrashPlan;
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_core::lifecycle::LifecycleMonitor;
use vnfguard_core::manager::shard_of_serial;
use vnfguard_core::remote::serve_vm_api;
use vnfguard_core::service::shard_of_vnf;
use vnfguard_core::CoreError;
use vnfguard_encoding::Json;
use vnfguard_ias::QuoteVerifier;
use vnfguard_net::http::Request;
use vnfguard_net::server::HttpClient;
use vnfguard_pki::crl::RevocationReason;
use vnfguard_pki::RevocationPolicy;

// ---------------------------------------------------------------------------
// Renewal
// ---------------------------------------------------------------------------

#[test]
fn renewal_skips_full_enrollment() {
    // A wide renewal window so the credential is "due" while the host's
    // attestation verdict is still fresh.
    let mut tb = TestbedBuilder::new(b"lifecycle renewal")
        .renewal_window(86_000)
        .build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-renew", 1).unwrap();
    let first = tb.enroll(0, &guard).unwrap();

    // The sweep flags the credential once the window opens.
    tb.clock.advance(1000);
    let due = tb.vm.certs_expiring();
    assert_eq!(due.len(), 1);
    assert_eq!(due[0].serial, first.serial());
    assert!(!due[0].expired);

    let attestations_before = tb
        .vm
        .events()
        .iter()
        .filter(|e| e.kind == "vnf_attestation_started")
        .count();

    // Renewal: new certificate, no second six-step enrollment.
    let renewed = tb.renew(&guard, first.serial()).unwrap();
    assert_ne!(renewed.serial(), first.serial());
    assert_eq!(renewed.subject_cn(), "vnf-renew");
    assert_eq!(renewed.tbs.enclave_binding, first.tbs.enclave_binding);

    let events = tb.vm.events();
    let attestations_after = events
        .iter()
        .filter(|e| e.kind == "vnf_attestation_started")
        .count();
    assert_eq!(attestations_before, attestations_after);
    assert!(events.iter().any(|e| e.kind == "credential_renewed"));

    // The guard now holds the renewed credential and sessions work.
    assert_eq!(guard.status().unwrap().serial, renewed.serial());
    let session = tb.open_session(&mut guard).unwrap();
    let response = guard
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
    assert!(response.status.is_success());
}

#[test]
fn renewal_refused_when_host_attestation_stale() {
    let mut tb = TestbedBuilder::new(b"lifecycle stale renewal").build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-stale", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();

    // Past the host-freshness horizon the lightweight path must refuse:
    // re-issuing to a possibly-compromised host defeats the attestation.
    tb.clock.advance(4000);
    let err = tb.renew(&guard, certificate.serial()).unwrap_err();
    assert!(matches!(err, CoreError::AttestationFailed(_)), "{err}");
    assert!(tb.vm.events().iter().any(|e| e.kind == "renewal_refused"));

    // A fresh host attestation restores the lightweight path.
    tb.attest_host(0).unwrap();
    let renewed = tb.renew(&guard, certificate.serial()).unwrap();
    assert_ne!(renewed.serial(), certificate.serial());
}

#[test]
fn renewal_of_revoked_credential_refused() {
    let mut tb = TestbedBuilder::new(b"lifecycle revoked renewal").build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-revoked", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();
    tb.vm
        .revoke_credential(certificate.serial(), RevocationReason::KeyCompromise)
        .unwrap();
    let err = tb.renew(&guard, certificate.serial()).unwrap_err();
    assert!(matches!(err, CoreError::WorkflowViolation(_)), "{err}");
}

#[test]
fn renewal_with_foreign_provisioning_key_refused() {
    let mut tb = TestbedBuilder::new(b"lifecycle key binding").build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-bind", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();

    // Serials are public (certificates, CRLs), and the host verdict is
    // fresh — yet a renewal wrapped to an attacker-chosen key must be
    // refused: only the provisioning key the enrollment quote bound may
    // receive the successor bundle.
    let controller_cn = tb.controller_cn.clone();
    let err = tb
        .vm
        .renew_vnf_credential(certificate.serial(), &[0x41; 32], &controller_cn)
        .unwrap_err();
    assert!(matches!(err, CoreError::AttestationFailed(_)), "{err}");
    assert!(err.to_string().contains("provisioning key"), "{err}");
    assert!(tb.vm.events().iter().any(|e| e.kind == "renewal_refused"));

    // The enrolled enclave's own key still renews, and the binding is
    // carried forward onto the successor serial.
    let renewed = tb.renew(&guard, certificate.serial()).unwrap();
    assert_ne!(renewed.serial(), certificate.serial());
    let err = tb
        .vm
        .renew_vnf_credential(renewed.serial(), &[0x41; 32], &controller_cn)
        .unwrap_err();
    assert!(matches!(err, CoreError::AttestationFailed(_)), "{err}");
    tb.renew(&guard, renewed.serial()).unwrap();
}

#[test]
fn renewal_key_binding_survives_recovery() {
    let mut tb = TestbedBuilder::new(b"lifecycle key binding crash")
        .durable()
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-bind-r", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();

    tb.recover_vm().unwrap();
    // Host verdicts do not survive recovery; re-attest so the only thing
    // standing between the attacker and a renewal is the key binding.
    tb.attest_host(0).unwrap();
    let controller_cn = tb.controller_cn.clone();
    let err = tb
        .vm
        .renew_vnf_credential(certificate.serial(), &[0x41; 32], &controller_cn)
        .unwrap_err();
    assert!(err.to_string().contains("provisioning key"), "{err}");
    // The replayed hash still matches the genuine enclave key.
    tb.renew(&guard, certificate.serial()).unwrap();
}

#[test]
fn guard_auto_renews_before_expiry() {
    let mut tb = TestbedBuilder::new(b"lifecycle auto renew").build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-auto", 1).unwrap();
    let first = tb.enroll(0, &guard).unwrap();
    let not_after = first.tbs.validity.not_after;

    // Stage the renewed credential while the host verdict is fresh; the
    // guard swaps it in transparently once the window opens.
    tb.clock.advance(1000);
    let key = guard.provisioning_key().unwrap();
    let (wrapped, renewed) = tb
        .vm
        .renew_vnf_credential(first.serial(), &key, &tb.controller_cn.clone())
        .unwrap();
    let renewed_not_after = renewed.tbs.validity.not_after;
    let mut staged = Some((wrapped, renewed_not_after));
    guard.set_auto_renew(
        not_after,
        7200,
        Box::new(move || {
            staged
                .take()
                .ok_or_else(|| vnfguard_vnf::VnfError::Encoding("renewal already consumed".into()))
        }),
    );

    // Before the guard's jittered renewal point: the old credential keeps
    // serving.
    tb.open_session(&mut guard).unwrap();
    assert_eq!(guard.status().unwrap().serial, first.serial());

    // At the jittered point (inside the window, spread per guard so a
    // fleet does not stampede): open_session renews first, then connects.
    let renew_at = guard.renew_at().unwrap();
    assert!(renew_at >= not_after - 7200, "renew_at inside the window");
    assert!(renew_at < not_after, "renew_at before expiry");
    tb.clock.advance(renew_at.saturating_sub(tb.clock.now()));
    tb.open_session(&mut guard).unwrap();
    assert_eq!(guard.status().unwrap().serial, renewed.serial());
    assert_eq!(guard.credential_not_after(), Some(renewed_not_after));
}

#[test]
fn failed_renewal_provision_keeps_auto_renew_armed() {
    let mut tb = TestbedBuilder::new(b"lifecycle renew degrade").build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-degrade", 1).unwrap();
    let first = tb.enroll(0, &guard).unwrap();
    let not_after = first.tbs.validity.not_after;

    tb.clock.advance(1000);
    let key = guard.provisioning_key().unwrap();
    let (wrapped, renewed) = tb
        .vm
        .renew_vnf_credential(first.serial(), &key, &tb.controller_cn.clone())
        .unwrap();
    let renewed_not_after = renewed.tbs.validity.not_after;
    // First attempt hands back a bundle the enclave cannot unwrap (the
    // fetch succeeded, provisioning fails); the retry is genuine.
    let mut queue = vec![
        (wrapped, renewed_not_after),
        (vec![0u8; 16], renewed_not_after),
    ];
    guard.set_auto_renew(
        not_after,
        7200,
        Box::new(move || {
            queue
                .pop()
                .ok_or_else(|| vnfguard_vnf::VnfError::Encoding("renewals exhausted".into()))
        }),
    );

    // Inside the window the garbage bundle fails to provision — but the
    // still-valid credential keeps serving and the hook stays armed
    // instead of being silently dropped on the error path.
    let renew_at = guard.renew_at().unwrap();
    tb.clock.advance(renew_at.saturating_sub(tb.clock.now()));
    tb.open_session(&mut guard).unwrap();
    assert_eq!(guard.status().unwrap().serial, first.serial());
    assert_eq!(guard.credential_not_after(), Some(not_after));

    // Because the hook survived, the next session retries and swaps in
    // the genuine bundle.
    tb.clock.advance(1);
    tb.open_session(&mut guard).unwrap();
    assert_eq!(guard.status().unwrap().serial, renewed.serial());
    assert_eq!(guard.credential_not_after(), Some(renewed_not_after));
}

// ---------------------------------------------------------------------------
// CA rotation
// ---------------------------------------------------------------------------

#[test]
fn ca_rotation_dual_trust_then_drain() {
    let mut tb = TestbedBuilder::new(b"lifecycle rotation").build();
    tb.attest_host(0).unwrap();
    let mut renewing = tb.deploy_guard(0, "vnf-renewing", 1).unwrap();
    let mut lagging = tb.deploy_guard(0, "vnf-lagging", 1).unwrap();
    let renewing_cert = tb.enroll(0, &renewing).unwrap();
    tb.enroll(0, &lagging).unwrap();

    let old_root = tb.vm.ca_certificate().clone();
    let rotation = tb.rotate_ca().unwrap();
    assert_eq!(rotation.epoch, 1);
    assert_eq!(tb.vm.ca_epoch(), 1);
    assert_eq!(rotation.previous_root.fingerprint(), old_root.fingerprint());
    // The handover is endorsed by the outgoing key, not self-signed.
    assert!(!rotation.cross_signed.is_self_signed());
    rotation
        .cross_signed
        .verify_signature(&old_root.tbs.public_key)
        .unwrap();

    tb.distribute_ca(&rotation).unwrap();

    // Dual-trust window: credentials from BOTH epochs handshake cleanly.
    tb.clock.advance(1);
    tb.open_session(&mut renewing).unwrap();
    tb.open_session(&mut lagging).unwrap();
    let failures_before = tb.controller.handshake_failures();

    // One VNF renews onto the new root mid-window...
    let renewed = tb.renew(&renewing, renewing_cert.serial()).unwrap();
    renewed
        .verify_signature(&rotation.new_root.tbs.public_key)
        .unwrap();
    tb.clock.advance(1);
    tb.open_session(&mut renewing).unwrap();
    // ...while the lagging one still serves from the old epoch.
    tb.open_session(&mut lagging).unwrap();
    assert_eq!(tb.controller.handshake_failures(), failures_before);

    // Drain closes: only the new root remains anchored, so the lagging
    // credential (old epoch, still unexpired) is refused.
    assert_eq!(tb.retire_previous_roots(), 1);
    tb.clock.advance(1);
    tb.open_session(&mut renewing).unwrap();
    assert!(tb.open_session(&mut lagging).is_err());
}

// ---------------------------------------------------------------------------
// CRL distribution + revocation enforcement at the controller
// ---------------------------------------------------------------------------

#[test]
fn monitor_distributes_rotations_and_crls() {
    let mut tb = TestbedBuilder::new(b"lifecycle monitor").build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-mon", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();
    let issuer_cn = tb.vm.ca_certificate().subject_cn().to_string();

    // The monitor maintains the SAME trust store the controller's TLS
    // validator reads — installs propagate to live handshakes.
    let trust = tb
        .controller
        .client_validator()
        .unwrap()
        .trust_store()
        .unwrap();
    let mut monitor = LifecycleMonitor::new(
        tb.network.clone(),
        tb.clock.clone(),
        "vm:8443",
        "controller",
        trust,
        tb.telemetry.clone(),
        &issuer_cn,
    );

    // Publish the VM behind its operator API.
    let network = tb.network.clone();
    let ias = std::mem::replace(&mut tb.ias, vnfguard_ias::AttestationService::new(b"x"));
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(ias));
    let _api = serve_vm_api(&network, "vm:8443", tb.vm_service(), ias, "controller").unwrap();

    // First tick: no rotation yet, CRL number 1 installed.
    let tick = monitor.tick().unwrap();
    assert_eq!(tick.adopted_epoch, None);
    assert_eq!(tick.crl_installed, Some(1));
    assert_eq!(monitor.crl_age(), Some(0));
    tb.clock.advance(1);
    tb.open_session(&mut guard).unwrap();

    // Revoke through the API; the next poll propagates it and the
    // controller refuses the handshake — the revocation gap is closed by
    // DISTRIBUTION, not by the controller asking the VM per-handshake.
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());
    let response = client
        .request(
            &Request::post("/vm/revoke")
                .with_json(&Json::object().with("serial", certificate.serial() as i64)),
        )
        .unwrap();
    assert!(response.status.is_success());
    // Not yet distributed: the stale CRL still admits the credential.
    tb.clock.advance(1);
    tb.open_session(&mut guard).unwrap();

    let tick = monitor.tick().unwrap();
    assert_eq!(tick.crl_installed, Some(2));
    tb.clock.advance(1);
    assert!(tb.open_session(&mut guard).is_err());

    // Polling again without new revocations re-serves number 2: GET
    // /vm/crl is a read, not a fresh issuance per request.
    let tick = monitor.tick().unwrap();
    assert_eq!(tick.crl_installed, Some(2));

    // Rotate through the API; the monitor verifies the cross-signed
    // handover and adopts epoch 1, then retires the old root after drain.
    let response = client.request(&Request::post("/vm/rotate")).unwrap();
    assert!(response.status.is_success(), "{:?}", response.status.code());
    let tick = monitor.tick().unwrap();
    assert_eq!(tick.adopted_epoch, Some(1));
    assert_eq!(monitor.known_epoch(), 1);
    let deadline = monitor.drain_deadline().unwrap();
    tb.clock.set(deadline);
    assert_eq!(monitor.enforce_drain(), 0); // window still open
    tb.clock.set(deadline + 1);
    assert_eq!(monitor.enforce_drain(), 1);
}

#[test]
fn monitor_catches_up_after_missed_rotations() {
    let mut tb = TestbedBuilder::new(b"lifecycle missed rotations").build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-lag2", 1).unwrap();
    tb.enroll(0, &guard).unwrap();
    let issuer_cn = tb.vm.ca_certificate().subject_cn().to_string();

    let trust = tb
        .controller
        .client_validator()
        .unwrap()
        .trust_store()
        .unwrap();
    let mut monitor = LifecycleMonitor::new(
        tb.network.clone(),
        tb.clock.clone(),
        "vm:8443",
        "controller",
        trust,
        tb.telemetry.clone(),
        &issuer_cn,
    );
    let network = tb.network.clone();
    let ias = std::mem::replace(&mut tb.ias, vnfguard_ias::AttestationService::new(b"x"));
    let ias: Arc<Mutex<dyn QuoteVerifier + Send>> = Arc::new(Mutex::new(ias));
    let _api = serve_vm_api(&network, "vm:8443", tb.vm_service(), ias, "controller").unwrap();

    monitor.tick().unwrap();
    assert_eq!(monitor.known_epoch(), 0);

    // Two rotations land while the monitor is offline. Epoch 2's handover
    // is endorsed by the epoch-1 key the monitor never learned, so a
    // latest-cross-only endpoint would wedge it forever; the served chain
    // lets it verify every missed handover in order.
    let mut client = HttpClient::new(network.connect("vm:8443").unwrap());
    for _ in 0..2 {
        let response = client.request(&Request::post("/vm/rotate")).unwrap();
        assert!(response.status.is_success(), "{:?}", response.status.code());
    }

    let tick = monitor.tick().unwrap();
    assert_eq!(tick.adopted_epoch, Some(2));
    assert_eq!(monitor.known_epoch(), 2);
    // The catch-up CRL is signed by the epoch-2 key anchored moments
    // earlier in the same tick.
    assert_eq!(tick.crl_installed, Some(2));

    // The pre-rotation credential still serves through the drain
    // window...
    tb.clock.advance(1);
    tb.open_session(&mut guard).unwrap();
    // ...and BOTH displaced roots retire together at the deadline.
    let deadline = monitor.drain_deadline().unwrap();
    tb.clock.set(deadline + 1);
    assert_eq!(monitor.enforce_drain(), 2);
    tb.clock.advance(1);
    assert!(tb.open_session(&mut guard).is_err());
}

#[test]
fn crl_reads_serve_cached_list_until_state_changes() {
    let mut tb = TestbedBuilder::new(b"lifecycle crl cache")
        .crl_lifetime(600)
        .build();
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-crl-cache", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();

    // The first read mints CRL number 1; repeated polls re-serve the very
    // same bytes instead of journaling a fresh issuance per request.
    let first = tb.vm.latest_crl().unwrap();
    assert_eq!(first.crl_number, 1);
    let second = tb.vm.latest_crl().unwrap();
    assert_eq!(second.encode(), first.encode());

    // A revocation invalidates the cache: exactly one new number, and the
    // fresh list carries the revoked serial.
    tb.vm
        .revoke_credential(certificate.serial(), RevocationReason::KeyCompromise)
        .unwrap();
    let third = tb.vm.latest_crl().unwrap();
    assert_eq!(third.crl_number, 2);
    assert!(third.lookup(certificate.serial()).is_some());
    assert_eq!(tb.vm.latest_crl().unwrap().crl_number, 2);

    // Past next_update the cached list is stale; a fresh one is minted so
    // relying parties never receive an expired CRL.
    tb.clock.advance(700);
    assert_eq!(tb.vm.latest_crl().unwrap().crl_number, 3);
}

/// Prepare an enrollment whose serial lands on `shard` of `shards` on a
/// testbed with a 60 s pending TTL, without committing it, and poll the
/// CRL. After 61 s the sweep expires the prepare and revokes its serial,
/// and the next poll must carry it.
fn swept_serial_reaches_the_next_crl(shards: usize, shard: usize) {
    let mut tb = TestbedBuilder::new(format!("swept serial crl {shards}").as_bytes())
        .shards(shards)
        .pending_enrollment_ttl(60)
        .build();
    tb.attest_host(0).unwrap();
    let name = (0..)
        .map(|i| format!("vnf-swept-{i}"))
        .find(|name| shard_of_vnf(name, shards) == shard)
        .unwrap();
    let guard = tb.deploy_guard(0, &name, 1).unwrap();
    let challenge = tb.vm.begin_vnf_attestation("host-0", &name).unwrap();
    let quote = guard
        .quote(&tb.hosts[0].platform, &challenge.nonce, challenge.nonce)
        .unwrap();
    let controller_cn = tb.controller_cn.clone();
    let (serial, _, _) = tb
        .vm
        .prepare_vnf_enrollment(
            &mut tb.ias,
            challenge.id,
            &quote.encode(),
            &guard.provisioning_key().unwrap(),
            &controller_cn,
        )
        .unwrap();
    assert_eq!(shard_of_serial(serial) as usize, shard);
    assert!(tb.vm.latest_crl().unwrap().lookup(serial).is_none());

    tb.clock.advance(61);
    assert_eq!(tb.vm.sweep_pending_enrollments().unwrap(), 1);
    assert!(tb.vm.credential_is_revoked(serial));
    let crl = tb.vm.latest_crl().unwrap();
    assert!(
        crl.lookup(serial).is_some(),
        "CRL #{} was served without swept serial {serial}",
        crl.crl_number
    );
}

#[test]
fn swept_serial_reaches_the_next_crl_unsharded() {
    swept_serial_reaches_the_next_crl(1, 0);
}

#[test]
fn swept_serial_reaches_the_next_crl_from_a_follower_shard() {
    swept_serial_reaches_the_next_crl(2, 1);
}

#[test]
fn fail_closed_policy_rejects_sessions_on_stale_crl() {
    let mut tb = TestbedBuilder::new(b"lifecycle fail closed")
        .revocation_policy(RevocationPolicy::FailClosed)
        .crl_lifetime(600)
        .build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-fc", 1).unwrap();
    tb.enroll(0, &guard).unwrap();

    tb.push_crl().unwrap();
    tb.clock.advance(1);
    tb.open_session(&mut guard).unwrap();

    // Past next_update the fail-closed store treats every credential as
    // unverifiable rather than silently admitting it.
    tb.clock.advance(700);
    assert!(tb.open_session(&mut guard).is_err());

    // A fresh CRL restores service.
    tb.push_crl().unwrap();
    tb.clock.advance(1);
    tb.open_session(&mut guard).unwrap();
}

#[test]
fn fail_open_policy_tolerates_stale_crl() {
    let mut tb = TestbedBuilder::new(b"lifecycle fail open")
        .crl_lifetime(600)
        .build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-fo", 1).unwrap();
    tb.enroll(0, &guard).unwrap();
    tb.push_crl().unwrap();
    tb.clock.advance(700);
    tb.open_session(&mut guard).unwrap();
}

// ---------------------------------------------------------------------------
// Crash consistency
// ---------------------------------------------------------------------------

#[test]
fn crash_at_rotation_commit_recovers_to_exactly_the_new_root() {
    // Twin deployments from the same seed: one rotates cleanly, the other
    // crashes at the commit point and recovers. Both must land on the SAME
    // root — the journaled rotation replays byte-identically.
    let mut clean = TestbedBuilder::new(b"lifecycle rotation crash")
        .durable()
        .build();
    let clean_rotation = clean.rotate_ca().unwrap();

    let plan = CrashPlan::seeded(41);
    plan.crash_once("rotation.commit");
    let mut tb = TestbedBuilder::new(b"lifecycle rotation crash")
        .durable()
        .crash_plan(plan)
        .build();
    let err = tb.rotate_ca().unwrap_err();
    assert!(matches!(err, CoreError::VmCrashed(ref site) if site == "rotation.commit"));

    let report = tb.recover_vm().unwrap();
    assert_eq!(report.rotations_restored, 1);
    assert!(!report.rotation_rolled_back);
    assert_eq!(tb.vm.ca_epoch(), 1);
    assert_eq!(
        tb.vm.ca_certificate().encode(),
        clean_rotation.new_root.encode(),
        "recovered incarnation must converge on the committed root"
    );
    assert!(tb.vm.ca_cross_signed().is_some());

    // The fleet continues under the one consistent root: a post-recovery
    // enrollment chains to it.
    tb.attest_host(0).unwrap();
    let guard = tb.deploy_guard(0, "vnf-post", 1).unwrap();
    let certificate = tb.enroll(0, &guard).unwrap();
    certificate
        .verify_signature(&tb.vm.ca_certificate().tbs.public_key)
        .unwrap();
}

#[test]
fn crash_at_rotation_prepare_rolls_back() {
    let plan = CrashPlan::seeded(42);
    plan.crash_once("rotation.prepare");
    let mut tb = TestbedBuilder::new(b"lifecycle prepare crash")
        .durable()
        .crash_plan(plan)
        .build();
    let before = tb.vm.ca_certificate().clone();
    let err = tb.rotate_ca().unwrap_err();
    assert!(matches!(err, CoreError::VmCrashed(ref site) if site == "rotation.prepare"));

    let report = tb.recover_vm().unwrap();
    assert!(report.rotation_rolled_back);
    assert_eq!(report.rotations_restored, 0);
    assert_eq!(tb.vm.ca_epoch(), 0);
    assert_eq!(tb.vm.ca_certificate().encode(), before.encode());

    // The rollback leaves the manager ready to rotate again.
    let rotation = tb.rotate_ca().unwrap();
    assert_eq!(rotation.epoch, 1);
    assert_eq!(tb.vm.ca_epoch(), 1);
}

#[test]
fn crl_number_stays_monotonic_across_crash() {
    let plan = CrashPlan::seeded(43);
    plan.crash_once("crl.issue");
    let mut tb = TestbedBuilder::new(b"lifecycle crl crash")
        .durable()
        .crash_plan(plan)
        .build();

    // The crash strikes after the CrlIssued record hits the WAL: number 1
    // is burned even though no CRL was returned.
    let err = tb.push_crl().unwrap_err();
    assert!(matches!(err, CoreError::VmCrashed(ref site) if site == "crl.issue"));

    tb.recover_vm().unwrap();
    let crl = tb.vm.issue_crl().unwrap();
    assert_eq!(
        crl.crl_number, 2,
        "recovered issuer must not reuse the journaled CRL number"
    );
}

// ---------------------------------------------------------------------------
// Golden mint
// ---------------------------------------------------------------------------

/// SHA-256 over every certificate and wrapped bundle a seeded testbed
/// mints: 4 enrollments on 2 hosts, then 3 renewal rounds with a CA
/// rotation before the last. The bytes depend on every draw from the
/// manager's DRBG, so this moves if any draw moves or any mint step
/// changes.
fn minted_digest(durable: bool) -> String {
    let mut builder = TestbedBuilder::new(b"golden mint").hosts(2);
    if durable {
        builder = builder.durable();
    }
    let mut tb = builder.build();
    tb.attest_host(0).unwrap();
    tb.attest_host(1).unwrap();
    let controller_cn = tb.controller_cn.clone();
    let mut minted = vnfguard_crypto::sha2::Sha256::new();
    let mut mint = |wrapped: &[u8], certificate: &vnfguard_pki::Certificate| {
        minted.update(wrapped);
        minted.update(&certificate.encode());
    };
    let mut credentials = Vec::new();
    for i in 0..4 {
        let host = i % 2;
        let guard = tb
            .deploy_guard(host, &format!("vnf-golden-{i}"), 1)
            .unwrap();
        let key = guard.provisioning_key().unwrap();
        let host_id = tb.hosts[host].id.clone();
        let challenge = tb.vm.begin_vnf_attestation(&host_id, &guard.name).unwrap();
        let quote = guard
            .quote(&tb.hosts[host].platform, &challenge.nonce, challenge.nonce)
            .unwrap();
        let (wrapped, certificate) = tb
            .vm
            .complete_vnf_enrollment(
                &mut tb.ias,
                challenge.id,
                &quote.encode(),
                &key,
                &controller_cn,
            )
            .unwrap();
        mint(&wrapped, &certificate);
        credentials.push((certificate.serial(), key));
    }
    for round in 0..3 {
        if round == 2 {
            tb.rotate_ca().unwrap();
        }
        for (serial, key) in &mut credentials {
            let (wrapped, certificate) = tb
                .vm
                .renew_vnf_credential(*serial, key, &controller_cn)
                .unwrap();
            mint(&wrapped, &certificate);
            *serial = certificate.serial();
        }
    }
    vnfguard_encoding::hex::encode(&minted.finalize())
}

/// Captured with keygen, signing and the wrap run under the shard lock and
/// X25519 public keys computed by the ladder on u = 9: minting after the
/// lock and the fixed-base public key must change no byte.
const GOLDEN_MINT_SHA256: &str = "e98671c1ce2ab0d06a76359904eaa0281982d988ec7ddb9882e03d5d9aab59f5";

#[test]
fn minted_bytes_match_the_golden_digest() {
    for durable in [false, true] {
        assert_eq!(
            minted_digest(durable),
            GOLDEN_MINT_SHA256,
            "durable {durable}: a DRBG draw or a mint step moved"
        );
    }
}
