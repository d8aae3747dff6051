//! Lifecycle drill: a fleet enrolled, renewed without re-enrollment, the
//! CA rotated mid-fleet with a cross-signed dual-trust window, one VNF
//! revoked and evicted through the distributed CRL — narrated. The
//! manager runs as two shards behind a `VmService` handle: renewals and
//! revocations route by serial to the owning shard, while rotation and
//! CRL issuance stay on the authority shard.
//!
//! ```text
//! cargo run --example lifecycle_drill
//! ```

use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::pki::crl::RevocationReason;

fn main() {
    let mut tb = TestbedBuilder::new(b"lifecycle drill")
        .renewal_window(86_000)
        .shards(2)
        .build();
    tb.attest_host(0).unwrap();
    // The service handle: the supported way to talk to the manager fleet
    // (clones cheaply; every call routes to the right shard internally).
    let vm = tb.vm_service();

    println!("== phase 1: enroll a fleet of three VNFs ==");
    let mut guards = Vec::new();
    let mut serials = Vec::new();
    for name in ["vnf-fw", "vnf-nat", "vnf-dpi"] {
        let guard = tb.deploy_guard(0, name, 1).unwrap();
        let certificate = tb.enroll(0, &guard).unwrap();
        println!(
            "  {name}: serial {}, valid until {}",
            certificate.serial(),
            certificate.tbs.validity.not_after
        );
        serials.push(certificate.serial());
        guards.push(guard);
    }

    println!("== phase 2: advance the clock — the sweep flags what's due ==");
    tb.clock.advance(1200);
    let due = vm.certs_expiring();
    println!("  {} credential(s) inside the renewal window", due.len());
    for entry in &due {
        println!(
            "    {} (serial {}, not_after {})",
            entry.vnf_name, entry.serial, entry.not_after
        );
    }

    println!("== phase 3: renew vnf-fw — no second six-step enrollment ==");
    let renewed = tb.renew(&guards[0], serials[0]).unwrap();
    println!(
        "  vnf-fw: serial {} -> {} (host verdict was still fresh)",
        serials[0],
        renewed.serial()
    );
    serials[0] = renewed.serial();

    println!("== phase 4: rotate the CA mid-fleet ==");
    let rotation = tb.rotate_ca().unwrap();
    println!(
        "  epoch {} root cross-signed by the outgoing key; dual trust until {}",
        rotation.epoch, rotation.drain_deadline
    );
    tb.distribute_ca(&rotation).unwrap();
    tb.clock.advance(1);
    for (guard, name) in guards.iter_mut().zip(["vnf-fw", "vnf-nat", "vnf-dpi"]) {
        let session = tb.open_session(guard).unwrap();
        println!("  {name}: session {session} up under dual trust");
        guard.close_session(session).unwrap();
    }
    // Migrate the fleet onto the new root, then close the window.
    for (guard, serial) in guards.iter().zip(serials.iter_mut()) {
        *serial = tb.renew(guard, *serial).unwrap().serial();
    }
    let retired = tb.retire_previous_roots();
    println!(
        "  fleet renewed onto epoch {}; {retired} old root retired",
        rotation.epoch
    );

    println!("== phase 5: revoke vnf-dpi and distribute the CRL ==");
    vm.revoke_credential(serials[2], RevocationReason::KeyCompromise)
        .unwrap();
    tb.push_crl().unwrap();
    tb.clock.advance(1);
    match tb.open_session(&mut guards[2]) {
        Err(e) => println!("  vnf-dpi refused at the controller: {e}"),
        Ok(_) => panic!("revoked credential must not open a session"),
    }
    let session = tb.open_session(&mut guards[0]).unwrap();
    println!("  vnf-fw still serving (session {session})");

    let status = vm.lifecycle_status();
    println!(
        "== final: epoch {}, {} active, {} expiring, CRL #{} ({}s old) ==",
        status.epoch,
        status.active,
        status.expiring,
        status.crl_number,
        status.crl_age_secs.unwrap_or(0)
    );
}
