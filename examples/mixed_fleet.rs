//! Mixed-fleet drill: two SGX hosts and two SEV-SNP confidential-VM hosts
//! enrolled through the same Verification Manager, one SNP host refused
//! for a debug guest policy, then CA rotation, CRL distribution, and
//! crash recovery exercised across both backend populations — narrated.
//!
//! ```text
//! cargo run --example mixed_fleet
//! ```

use vnfguard::attest::snp::SnpFault;
use vnfguard::attest::BackendKind;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::pki::crl::RevocationReason;

fn main() {
    // Hosts 0–1 default to SGX/EPID; hosts 2–3 boot as SEV-SNP CVMs.
    let mut tb = TestbedBuilder::new(b"mixed fleet drill")
        .hosts(4)
        .host_backend(2, BackendKind::SevSnp)
        .host_backend(3, BackendKind::SevSnp)
        .durable()
        .renewal_window(86_000)
        .build();
    let names = ["vnf-fw", "vnf-nat", "vnf-dpi", "vnf-lb"];

    println!("== phase 1: one SNP host boots with the debug bit set — refused ==");
    // Arm the guest-policy fault before host 3 ever attests: its evidence
    // carries POLICY_DEBUG_BIT, which no appraisal policy waives.
    tb.hosts[3]
        .snp
        .as_mut()
        .expect("host 3 is SNP")
        .set_fault(Some(SnpFault::DebugPolicy));
    for i in 0..3 {
        let verdict = tb.attest_host(i).unwrap();
        println!(
            "  host-{i} ({}) attested: {verdict:?}",
            tb.hosts[i].backend.label()
        );
    }
    let err = tb.attest_host(3).unwrap_err();
    println!("  host-3 (snp) refused: {err}");

    println!("== phase 2: the operator reprovisions host-3 without debug ==");
    tb.hosts[3].snp.as_mut().unwrap().set_fault(None);
    let verdict = tb.attest_host(3).unwrap();
    println!("  host-3 (snp) re-attested clean: {verdict:?}");

    println!("== phase 3: enroll one VNF per host through the generic path ==");
    let mut guards = Vec::new();
    let mut serials = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let guard = tb.deploy_guard(i, name, 1).unwrap();
        let certificate = tb.enroll(i, &guard).unwrap();
        println!(
            "  {name} on host-{i} ({}): serial {}",
            tb.hosts[i].backend.label(),
            certificate.serial()
        );
        serials.push(certificate.serial());
        guards.push(guard);
    }

    println!("== phase 4: rotate the CA — both populations renew onto the new root ==");
    let rotation = tb.rotate_ca().unwrap();
    tb.distribute_ca(&rotation).unwrap();
    tb.clock.advance(1);
    for ((guard, serial), name) in guards.iter().zip(serials.iter_mut()).zip(names) {
        *serial = tb.renew(guard, *serial).unwrap().serial();
        println!(
            "  {name}: renewed under epoch {} (serial {serial})",
            rotation.epoch
        );
    }
    let retired = tb.retire_previous_roots();
    println!("  {retired} old root retired; dual-trust window closed");

    println!("== phase 5: revoke one VNF per backend; the CRL reaches everyone ==");
    for victim in [0usize, 2] {
        tb.vm
            .revoke_credential(serials[victim], RevocationReason::KeyCompromise)
            .unwrap();
    }
    tb.push_crl().unwrap();
    tb.clock.advance(1);
    for (i, name) in names.iter().enumerate() {
        match tb.open_session(&mut guards[i]) {
            Ok(session) => {
                println!(
                    "  {name} ({}): session {session} up",
                    tb.hosts[i].backend.label()
                );
                guards[i].close_session(session).unwrap();
            }
            Err(e) => println!("  {name} ({}): refused — {e}", tb.hosts[i].backend.label()),
        }
    }

    println!("== phase 6: crash the manager; recovery re-attests per recorded backend ==");
    let report = tb.recover_vm().unwrap();
    println!(
        "  recovered generation {} ({} records replayed); attestations are \
         deliberately dropped",
        report.generation, report.replayed_records
    );
    for i in [1usize, 3] {
        tb.attest_host(i).unwrap();
        let guard = tb.deploy_guard(i, &format!("post-crash-{i}"), 1).unwrap();
        let certificate = tb.enroll(i, &guard).unwrap();
        println!(
            "  host-{i} ({}) re-attested with the backend it enrolled under; \
             new serial {}",
            tb.hosts[i].backend.label(),
            certificate.serial()
        );
    }

    println!("Both TEE populations enrolled, rotated, revoked, and recovered through one manager.");
}
