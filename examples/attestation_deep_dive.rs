//! Attestation deep dive: every artifact of steps 1–4, printed.
//!
//! Shows the actual structures the protocol exchanges — the IMA measurement
//! list, the enclave report, the EPID-style quote, the IAS verification
//! report — and how each binds to the next, including what changes when the
//! evidence is tampered with.
//!
//! Run with: `cargo run --example attestation_deep_dive`

use vnfguard::core::attestation::{host_evidence, host_report_data};
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::crypto::util::to_hex;
use vnfguard::ias::QuoteVerifier;
use vnfguard::sgx::quote::Quote;

fn main() {
    let mut testbed = TestbedBuilder::new(b"deep dive").build();
    let host_id = testbed.hosts[0].id.clone();

    // --- The measurement list -------------------------------------------
    println!("=== 1. the host's IMA measurement list ===");
    {
        let list = testbed.hosts[0].container_host.measurement_list();
        for entry in list.entries() {
            println!(
                "  pcr={:2}  {}  {}",
                entry.pcr,
                to_hex(&entry.filedata_hash[..8]),
                entry.path
            );
        }
        println!("  aggregate (PCR-10 shadow): {}", to_hex(&list.aggregate()));
        println!("  list digest (quoted):      {}", to_hex(&list.digest()));
    }

    // --- The challenge and the quote --------------------------------------
    println!("\n=== 2. challenge, report and quote ===");
    let challenge = testbed.vm.begin_host_attestation(&host_id).unwrap();
    println!("  VM nonce: {}", to_hex(&challenge.nonce));
    let iml = testbed.hosts[0].container_host.measurement_list().encode();
    let evidence = host_evidence(
        &testbed.hosts[0].platform,
        &testbed.hosts[0].integrity_enclave,
        &iml,
        &challenge.nonce,
        None,
    )
    .unwrap();
    let quote = Quote::decode(&evidence.quote).unwrap();
    println!("  quote version:        {}", quote.version);
    println!("  EPID group id:        {:#06x}", quote.epid_group_id);
    println!("  QE SVN:               {}", quote.qe_svn);
    println!("  member pseudonym:     {}", to_hex(&quote.member_id[..12]));
    println!("  MRENCLAVE:            {}", quote.report_body.mrenclave);
    println!("  MRSIGNER:             {}", quote.report_body.mrsigner);
    println!(
        "  ISV prod/svn:         {}/{}",
        quote.report_body.isv_prod_id, quote.report_body.isv_svn
    );
    println!(
        "  report_data[0..32]:   {}  (= sha256(IML))",
        to_hex(&quote.report_body.report_data[..32])
    );
    println!(
        "  report_data[32..64]:  {}  (= VM nonce)",
        to_hex(&quote.report_body.report_data[32..])
    );
    assert_eq!(
        quote.report_body.report_data,
        host_report_data(&iml, &challenge.nonce)
    );

    // --- The IAS verification report ---------------------------------------
    println!("\n=== 3. IAS verification report ===");
    let report = testbed.ias.verify_quote(&evidence.quote, &challenge.nonce);
    println!("  id:        {}", report.id);
    println!("  timestamp: {}", report.timestamp);
    println!("  status:    {}", report.status);
    println!("  nonce ok:  {}", report.nonce == challenge.nonce);
    println!(
        "  signature: verifies under the IAS report key: {}",
        testbed
            .ias
            .report_key()
            .is_some_and(|key| report.verify(key).is_ok())
    );

    // --- Appraisal ----------------------------------------------------------
    println!("\n=== 4. appraisal ===");
    let verdict = testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge.id, &evidence)
        .unwrap();
    println!("  verdict: {verdict:?} → workflow may continue");

    // --- Tampering demonstration -------------------------------------------
    println!("\n=== 5. what tampering does ===");
    let challenge = testbed.vm.begin_host_attestation(&host_id).unwrap();
    let mut tampered = host_evidence(
        &testbed.hosts[0].platform,
        &testbed.hosts[0].integrity_enclave,
        &iml,
        &challenge.nonce,
        None,
    )
    .unwrap();
    // Swap in a different measurement list after quoting.
    let mut other_list = vnfguard::ima::list::MeasurementList::new(b"host-0");
    other_list.measure_file("/usr/bin/dockerd", b"docker daemon 1.12.2");
    tampered.iml = other_list.encode();
    let err = testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge.id, &tampered)
        .unwrap_err();
    println!("  substituted IML  → {err}");

    let challenge = testbed.vm.begin_host_attestation(&host_id).unwrap();
    let mut forged = host_evidence(
        &testbed.hosts[0].platform,
        &testbed.hosts[0].integrity_enclave,
        &iml,
        &challenge.nonce,
        None,
    )
    .unwrap();
    let last = forged.quote.len() - 1;
    forged.quote[last] ^= 1; // one bit in the EPID signature
    let err = testbed
        .vm
        .complete_host_attestation(&mut testbed.ias, challenge.id, &forged)
        .unwrap_err();
    println!("  forged quote bit → {err}");

    println!(
        "\nIAS requests served in this run: {}",
        testbed.ias.requests_served()
    );
}
