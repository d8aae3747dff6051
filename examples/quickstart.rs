//! Quickstart: the complete Figure-1 workflow in one run.
//!
//! Boots a deployment (network controller in trusted-HTTPS mode, one SGX
//! container host, the Verification Manager and the simulated Intel
//! Attestation Service), then walks the six workflow steps of the paper:
//!
//! 1. the VM initiates remote attestation of the container host;
//! 2. the quote is verified with the IAS and the IMA list appraised;
//! 3. the VM attests the VNF's credential enclave;
//! 4. the enclave quote is verified with the IAS;
//! 5. the VM generates, certifies and provisions the client credentials;
//! 6. the VNF opens a mutually-authenticated TLS session to the controller
//!    from *inside* the enclave and programs a flow.
//!
//! Run with: `cargo run --example quickstart`

use std::time::Instant;
use vnfguard::container::image::ImageBuilder;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::encoding::Json;
use vnfguard::net::http::Request;
use vnfguard::vnf::credential_enclave::CredentialEnclave;

fn main() {
    println!(
        "=== vnfguard quickstart: Safeguarding VNF Credentials with (simulated) Intel SGX ===\n"
    );

    let t0 = Instant::now();
    let mut testbed = TestbedBuilder::new(b"quickstart").build();
    println!(
        "[setup]   controller up at {} in {} mode; 1 SGX host; VM CA fingerprint {} ({:?})",
        testbed.controller_addr,
        testbed.mode.as_str(),
        testbed.vm.fingerprint(),
        t0.elapsed()
    );

    // Steps 1-2: host attestation.
    let t = Instant::now();
    let verdict = testbed.attest_host(0).expect("host attestation");
    println!(
        "[step 1-2] host-0 attested via IAS: verdict {:?}, {} IML entries, {:?}",
        verdict,
        testbed.vm.host_record("host-0").unwrap().iml_entries,
        t.elapsed()
    );

    // Deploy the VNF container (image carries the credential enclave).
    let image = ImageBuilder::new("vnf-firewall", "1.0")
        .layer(b"alpine rootfs")
        .layer(b"firewall libs")
        .entrypoint(b"vnf-firewall binary v1.0")
        .enclave_image(&CredentialEnclave::image_for("vnf-firewall", 1))
        .build();
    testbed.registry.push(image.clone());
    let pulled = testbed.registry.pull("vnf-firewall:1.0").expect("pull");
    let container_id = testbed
        .deploy_container(0, &pulled, &pulled)
        .expect("deploy");
    testbed.attest_host(0).expect("re-attestation after deploy");
    println!("[deploy]  container {container_id} running vnf-firewall:1.0 (host re-attested)");

    let guard = testbed
        .deploy_guard(0, "vnf-firewall", 1)
        .expect("enclave load");
    println!(
        "[deploy]  credential enclave loaded, MRENCLAVE {}",
        guard.mrenclave()
    );

    // Steps 3-5: VNF attestation and enrollment.
    let t = Instant::now();
    let certificate = testbed.enroll(0, &guard).expect("enrollment");
    println!(
        "[step 3-5] enclave attested and provisioned: certificate CN={} serial={} bound to MRENCLAVE ({:?})",
        certificate.subject_cn(),
        certificate.serial(),
        t.elapsed()
    );
    let status = guard.status().expect("status");
    println!(
        "[step 5]  enclave status: provisioned={} subject={}",
        status.provisioned, status.subject
    );

    // Step 6: in-enclave TLS session to the controller.
    let mut guard = guard;
    let t = Instant::now();
    let session = testbed.open_session(&mut guard).expect("TLS handshake");
    println!(
        "[step 6]  mutually-authenticated TLS session #{session} established inside the enclave ({:?})",
        t.elapsed()
    );

    guard
        .request(
            session,
            &Request::post("/wm/core/switch/register").with_json(
                &Json::object()
                    .with("dpid", "0000000000000001")
                    .with("ports", vec![Json::from(1i64), Json::from(2i64)]),
            ),
        )
        .expect("switch registration");
    let response = guard
        .request(
            session,
            &Request::post("/wm/staticflowpusher/json").with_json(
                &Json::object()
                    .with("switch", "0000000000000001")
                    .with("name", "allow-dns")
                    .with("priority", 100i64)
                    .with("ip_proto", 17i64)
                    .with("tp_dst", 53i64)
                    .with("actions", "output=2"),
            ),
        )
        .expect("flow push");
    println!(
        "[step 6]  flow pushed over the north-bound API: HTTP {}",
        response.status.code()
    );

    // Show the controller's view: the authenticated identity in the audit.
    let audit = guard
        .request(session, &Request::get("/wm/core/audit/json"))
        .expect("audit fetch")
        .parse_json()
        .expect("audit json");
    println!("\n[controller audit]");
    for event in audit.as_array().unwrap_or(&[]) {
        println!(
            "  t={} peer={} action={} detail={}",
            event.get("time").and_then(Json::as_i64).unwrap_or(0),
            event.get("peer").and_then(Json::as_str).unwrap_or("?"),
            event.get("action").and_then(Json::as_str).unwrap_or("?"),
            event.get("detail").and_then(Json::as_str).unwrap_or(""),
        );
    }

    println!("\n[vm audit]");
    for event in testbed.vm.events() {
        println!("  t={} {}: {}", event.time, event.kind, event.detail);
    }

    // Scale-out coda: the same manager partitioned into four shards
    // behind one service handle. Each client thread clones the handle and
    // drives its own VNF; the service routes by VNF identity, so the four
    // enrollments issue from four independent shards with disjoint serial
    // spans — no cross-thread lock contention on a single manager.
    let t = Instant::now();
    let mut scaled = TestbedBuilder::new(b"quickstart-scale").shards(4).build();
    scaled.attest_host(0).expect("host attestation");
    let mut guards = Vec::new();
    for i in 0..4 {
        guards.push(
            scaled
                .deploy_guard(0, &format!("vnf-scale-{i}"), 1)
                .expect("guard"),
        );
    }
    let vm = scaled.vm_service();
    let ias = std::sync::Arc::new(parking_lot::Mutex::new(std::mem::replace(
        &mut scaled.ias,
        vnfguard::ias::AttestationService::new(b"placeholder"),
    )));
    let platform = &scaled.hosts[0].platform;
    let serials: Vec<u64> = std::thread::scope(|scope| {
        guards
            .iter()
            .map(|guard| {
                let vm = vm.clone();
                let ias = ias.clone();
                scope.spawn(move || {
                    let challenge = vm.begin_vnf_attestation("host-0", &guard.name).unwrap();
                    let key = guard.provisioning_key().unwrap();
                    let quote = guard
                        .quote(platform, &challenge.nonce, challenge.nonce)
                        .unwrap();
                    let (_, certificate) = vm
                        .complete_vnf_enrollment(
                            &mut *ias.lock(),
                            challenge.id,
                            &quote.encode(),
                            &key,
                            "controller",
                        )
                        .unwrap();
                    certificate.serial()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    println!(
        "\n[scale]   4 shards enrolled 4 VNFs from 4 threads in {:?}; serials {:?} (disjoint per-shard spans)",
        t.elapsed(),
        serials
    );

    println!(
        "\nDone in {:?}. The private key never left the enclave.",
        t0.elapsed()
    );
}
