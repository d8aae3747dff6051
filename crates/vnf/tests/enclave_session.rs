//! End-to-end: a credential enclave holds provisioned credentials and runs
//! mutually-authenticated TLS sessions to a trusted-HTTPS controller, with
//! the session keys never leaving the enclave.

use std::sync::Arc;
use vnfguard_controller::{Controller, ControllerConfig, NorthboundClient, SimClock};
use vnfguard_crypto::drbg::HmacDrbg;
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_encoding::Json;
use vnfguard_net::fabric::Network;
use vnfguard_net::http::Request;
use vnfguard_pki::ca::{CertificateAuthority, IssueProfile};
use vnfguard_pki::cert::{DistinguishedName, Validity};
use vnfguard_pki::TrustStore;
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_tls::signer::LocalSigner;
use vnfguard_tls::validate::ClientValidator;
use vnfguard_vnf::credential_enclave::ProvisionBundle;
use vnfguard_vnf::{wrap_credentials, VnfGuard, WrapRandomness};

struct World {
    network: Network,
    controller: Controller,
    guard: VnfGuard,
    clock: SimClock,
    tap: vnfguard_net::stream::TapHandle,
    key_seed: [u8; 32],
}

const ADDR: &str = "controller:8443";

fn setup() -> World {
    let mut rng = HmacDrbg::new(b"e2e setup");
    let clock = SimClock::at(1_000_000);
    let mut ca = CertificateAuthority::new(
        DistinguishedName::new("verification-manager"),
        Validity::new(0, u64::MAX / 2),
        &mut rng,
    );

    // Controller with trusted HTTPS, CA-based client validation.
    let server_key = SigningKey::from_seed(&[50; 32]);
    let server_cert = ca.issue(
        DistinguishedName::new("controller"),
        server_key.public_key(),
        &IssueProfile::server(),
        clock.now(),
    );
    let server_identity = Arc::new(LocalSigner::new(server_key, server_cert));
    let mut validator_store = TrustStore::new();
    validator_store
        .add_anchor(ca.certificate().clone())
        .unwrap();

    let network = Network::new();
    let tap = network.tap(ADDR);
    let controller = Controller::start(
        &network,
        ControllerConfig::trusted_https(
            ADDR,
            server_identity,
            ClientValidator::ca(validator_store),
        )
        .with_clock(clock.clone()),
    )
    .unwrap();

    // VNF credential enclave on an SGX host.
    let platform = SgxPlatform::new(b"container-host-1");
    let author = EnclaveAuthor::from_seed(&[51; 32]);
    let guard = VnfGuard::load(&platform, &network, &author, "vnf-1", 1).unwrap();

    // Provision credentials (the VM generates the key pair — paper step 5).
    let key_seed = [61u8; 32];
    let client_key = SigningKey::from_seed(&key_seed);
    let client_cert = ca.issue(
        DistinguishedName::new("vnf-1"),
        client_key.public_key(),
        &IssueProfile::vnf_client(*guard.mrenclave().as_bytes()),
        clock.now(),
    );
    let bundle = ProvisionBundle {
        key_seed,
        certificate: client_cert,
        ca_certificate: ca.certificate().clone(),
        server_cn: "controller".into(),
        ca_previous: Vec::new(),
    };
    let prov_key = guard.provisioning_key().unwrap();
    let wrapped = wrap_credentials(&WrapRandomness::draw(&mut rng), &prov_key, &bundle);
    guard.provision(&wrapped).unwrap();

    World {
        network,
        controller,
        guard,
        clock,
        tap,
        key_seed,
    }
}

#[test]
fn enclave_session_reaches_controller_with_client_identity() {
    let mut world = setup();
    let session = world
        .guard
        .open_session(ADDR, world.clock.now())
        .expect("in-enclave handshake");

    // Register a switch and push a flow through the enclave session.
    let register = Request::post("/wm/core/switch/register").with_json(
        &Json::object()
            .with("dpid", "00000000000000aa")
            .with("ports", vec![Json::from(1i64), Json::from(2i64)]),
    );
    let response = world.guard.request(session, &register).unwrap();
    assert!(
        response.status.is_success(),
        "register: {:?}",
        response.status
    );

    let flow = Request::post("/wm/staticflowpusher/json").with_json(
        &Json::object()
            .with("switch", "00000000000000aa")
            .with("name", "from-enclave")
            .with("actions", "output=2"),
    );
    let response = world.guard.request(session, &flow).unwrap();
    assert!(response.status.is_success());

    // Multiple requests on the same session (persistent session keys).
    let audit = world
        .guard
        .request(session, &Request::get("/wm/core/audit/json"))
        .unwrap();
    let doc = audit.parse_json().unwrap();
    let entries = doc.as_array().unwrap();
    // The controller saw the authenticated CN from the client certificate.
    assert!(entries.iter().any(|e| {
        e.get("peer").and_then(Json::as_str) == Some("vnf-1")
            && e.get("action").and_then(Json::as_str) == Some("push_flow")
    }));

    world.guard.close_session(session).unwrap();
    world.controller.stop();
}

#[test]
fn credentials_never_appear_on_the_wire() {
    let mut world = setup();
    let session = world.guard.open_session(ADDR, world.clock.now()).unwrap();
    let response = world
        .guard
        .request(session, &Request::get("/wm/core/health/json"))
        .unwrap();
    assert!(response.status.is_success());

    // The private key seed must not cross the wire, in any direction.
    assert!(!world.tap.contains(&world.key_seed));
    // Nor the derived Ed25519 seed prefix of the signing key... the whole
    // TLS exchange is ciphertext after the hellos; spot-check that known
    // plaintext of the HTTP layer is invisible too.
    assert!(!world.tap.contains(b"health"));
    assert!(world.tap.frame_count() > 0, "tap must have seen traffic");
    world.controller.stop();
}

#[test]
fn anonymous_client_rejected_while_enclave_client_accepted() {
    let mut world = setup();
    // A client without a certificate cannot even complete the handshake.
    let mut anchor = TrustStore::new();
    // (trusting the CA is not enough without a client identity)
    let audit_doc = {
        let session = world.guard.open_session(ADDR, world.clock.now()).unwrap();
        let r = world
            .guard
            .request(session, &Request::get("/wm/core/health/json"))
            .unwrap();
        assert!(r.status.is_success());
        r
    };
    drop(audit_doc);
    let _ = &mut anchor;
    let result = NorthboundClient::connect_tls(
        &world.network,
        ADDR,
        Arc::new(anchor),
        None,
        None,
        world.clock.now(),
    );
    assert!(result.is_err(), "anonymous client must be rejected");
    // The server thread records the failure asynchronously.
    for _ in 0..200 {
        if world.controller.handshake_failures() >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(world.controller.handshake_failures() >= 1);
    world.controller.stop();
}

#[test]
fn sealed_credentials_survive_restart() {
    let world = setup();
    let sealed = world.guard.export_sealed().unwrap();

    // "Restart": a new enclave instance with the same image on the same
    // platform can import the sealed blob.
    let platform = SgxPlatform::new(b"container-host-1");
    let author = EnclaveAuthor::from_seed(&[51; 32]);
    let restarted = VnfGuard::load(&platform, &world.network, &author, "vnf-1", 1).unwrap();
    assert!(!restarted.status().unwrap().provisioned);
    restarted.import_sealed(&sealed).unwrap();
    let status = restarted.status().unwrap();
    assert!(status.provisioned);
    assert_eq!(status.subject, "vnf-1");

    // A *different* enclave image cannot unseal the credentials.
    let other = VnfGuard::load(&platform, &world.network, &author, "vnf-1", 2).unwrap();
    assert!(other.import_sealed(&sealed).is_err());
    world.controller.stop();
}

#[test]
fn wipe_revokes_locally() {
    let mut world = setup();
    world.guard.wipe().unwrap();
    assert!(!world.guard.status().unwrap().provisioned);
    // Opening a session now fails: no credentials.
    assert!(world.guard.open_session(ADDR, world.clock.now()).is_err());
    world.controller.stop();
}

#[test]
fn no_extraction_opcode_exists() {
    let world = setup();
    // The sealed export is encrypted: it must not contain the raw seed.
    let sealed = world.guard.export_sealed().unwrap();
    assert!(!sealed
        .windows(world.key_seed.len())
        .any(|w| w == world.key_seed));
    // Probe the whole opcode space below 100 for anything that echoes key
    // material: the only opcodes that return bytes are the public ones, and
    // none of them contain the seed. (WIPE is destructive but returns
    // nothing; probing it is part of the property.)
    for opcode in 0u16..100 {
        if let Ok(output) = world.guard.enclave().ecall(opcode, &[]) {
            assert!(
                !output
                    .windows(world.key_seed.len())
                    .any(|w| w == world.key_seed),
                "opcode {opcode} leaked the key seed"
            );
        }
    }
    world.controller.stop();
}
