//! The exported series names, pinned. Operators' scrapes, the tests and
//! the wirebench harness read series by their full names, so a rename, a
//! lost label or a series in the wrong namespace must fail here.
//!
//! Two deployments share one telemetry bundle and between them reach every
//! place a series is registered: a replicated, admission-controlled,
//! health-monitored, traced testbed behind the operator API with a remote
//! IAS client, a fleet monitor and a lifecycle monitor, plus a two-shard
//! testbed for the `shard` labels. Each workflow runs once. The rendered
//! exposition is then reduced to one line per series.

use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::core::lifecycle::LifecycleMonitor;
use vnfguard::core::remote::serve_vm_api;
use vnfguard::crypto::drbg::HmacDrbg;
use vnfguard::crypto::ed25519::SigningKey;
use vnfguard::ias::QuoteVerifier;
use vnfguard::net::Duplex;
use vnfguard::pki::crl::RevocationReason;
use vnfguard::pki::TrustStore;
use vnfguard::telemetry::Telemetry;
use vnfguard::tls::{client_handshake, server_handshake, ClientConfig, LocalSigner, ServerConfig};

/// Every series in a Prometheus exposition as `family{labels} kind`. A
/// histogram's series is read off its `_count` line.
fn series(exposition: &str) -> Vec<String> {
    let mut kinds = HashMap::new();
    let mut out = BTreeSet::new();
    for line in exposition.lines() {
        if let Some(typed) = line.strip_prefix("# TYPE ") {
            let (family, kind) = typed.split_once(' ').unwrap();
            kinds.insert(family, kind);
            continue;
        }
        let key = line.split(' ').next().unwrap();
        let (name, labels) = key.split_at(key.find('{').unwrap_or(key.len()));
        if let Some(kind) = kinds.get(name).filter(|&&kind| kind != "histogram") {
            out.insert(format!("{name}{labels} {kind}"));
        } else if let Some(family) = name.strip_suffix("_count") {
            if kinds.get(family) == Some(&"histogram") {
                out.insert(format!("{family}{labels} histogram"));
            }
        }
    }
    out.into_iter().collect()
}

/// The two deployments, each workflow run once; returns the shared
/// bundle's exposition.
fn exercised_deployments() -> String {
    let telemetry = Telemetry::new();

    let mut tb = TestbedBuilder::new(b"metric names")
        .telemetry(telemetry.clone())
        .replicas(1)
        .admission()
        .health()
        .tracing(1.0)
        .build();
    tb.attest_host(0).unwrap();
    let mut guard = tb.deploy_guard(0, "vnf-names", 1).unwrap();
    let serial = tb.enroll(0, &guard).unwrap().serial();
    tb.open_session(&mut guard).unwrap();
    let serial_renewed = tb.renew(&guard, serial).unwrap().serial();
    tb.vm
        .revoke_credential(serial_renewed, RevocationReason::KeyCompromise)
        .unwrap();
    tb.push_crl().unwrap();
    tb.rotate_ca().unwrap();

    // A handshake whose client trusts no anchor fails on both sides, which
    // registers both sides' series and the failure counter.
    let key = SigningKey::from_seed(&[7; 32]);
    let certificate = tb.vm.issue_server_certificate("names", key.public_key());
    let server = ServerConfig::new(Arc::new(LocalSigner::new(key, certificate)), tb.clock.now())
        .with_telemetry(&telemetry);
    let client =
        ClientConfig::new(Arc::new(TrustStore::new()), tb.clock.now()).with_telemetry(&telemetry);
    let (client_end, server_end) = Duplex::pipe();
    std::thread::scope(|s| {
        let served = s.spawn(|| server_handshake(server_end, &server, &mut HmacDrbg::new(b"s")));
        assert!(client_handshake(client_end, &client, &mut HmacDrbg::new(b"c")).is_err());
        assert!(served.join().unwrap().is_err());
    });

    // The operator API over a remote IAS client, scraped by a fleet
    // monitor and polled by a lifecycle monitor.
    let (_ias, remote) = tb.serve_ias("ias:443").unwrap();
    let remote: Arc<Mutex<dyn QuoteVerifier + Send>> =
        Arc::new(Mutex::new(remote.with_telemetry(&telemetry)));
    let _api = serve_vm_api(
        &tb.network,
        "vm:8443",
        tb.vm_service(),
        remote,
        &tb.controller_cn,
    )
    .unwrap();
    let (mut fleet, _standby_health) = tb.fleet_monitor("ops", "vm:8443").unwrap();
    fleet.scrape();
    let issuer_cn = tb.vm.ca_certificate().subject_cn().to_string();
    let trust = tb
        .controller
        .client_validator()
        .and_then(|validator| validator.trust_store())
        .unwrap();
    let mut monitor = LifecycleMonitor::new(
        tb.network.clone(),
        tb.clock.clone(),
        "vm:8443",
        "controller",
        trust,
        telemetry.clone(),
        &issuer_cn,
    );
    monitor.tick().unwrap();

    let mut sharded = TestbedBuilder::new(b"metric names sharded")
        .telemetry(telemetry.clone())
        .shards(2)
        .build();
    sharded.attest_host(0).unwrap();
    let guard = sharded.deploy_guard(0, "vnf-sharded", 1).unwrap();
    sharded.enroll(0, &guard).unwrap();

    telemetry.render_prometheus()
}

/// Every series the two deployments export, one line each.
const EXPECTED: &[&str] = &[
    "vnfguard_core_api_request_errors_total counter",
    "vnfguard_core_api_requests_total counter",
    "vnfguard_core_ca_rotations_total counter",
    "vnfguard_core_certificates_issued_total counter",
    "vnfguard_core_certificates_issued_total{shard=\"0\"} counter",
    "vnfguard_core_certificates_issued_total{shard=\"1\"} counter",
    "vnfguard_core_certs_active gauge",
    "vnfguard_core_certs_active{shard=\"0\"} gauge",
    "vnfguard_core_certs_active{shard=\"1\"} gauge",
    "vnfguard_core_certs_expiring gauge",
    "vnfguard_core_certs_expiring{shard=\"0\"} gauge",
    "vnfguard_core_certs_expiring{shard=\"1\"} gauge",
    "vnfguard_core_challenges_total counter",
    "vnfguard_core_challenges_total{shard=\"0\"} counter",
    "vnfguard_core_challenges_total{shard=\"1\"} counter",
    "vnfguard_core_controller_ca_polls_total counter",
    "vnfguard_core_controller_crl_age_seconds gauge",
    "vnfguard_core_controller_crl_polls_total counter",
    "vnfguard_core_controller_rotations_adopted_total counter",
    "vnfguard_core_crl_age_seconds gauge",
    "vnfguard_core_crls_issued_total counter",
    "vnfguard_core_degraded_verdicts_total counter",
    "vnfguard_core_degraded_verdicts_total{shard=\"0\"} counter",
    "vnfguard_core_degraded_verdicts_total{shard=\"1\"} counter",
    "vnfguard_core_enrollment_aborts_total counter",
    "vnfguard_core_enrollment_aborts_total{shard=\"0\"} counter",
    "vnfguard_core_enrollment_aborts_total{shard=\"1\"} counter",
    "vnfguard_core_enrollment_failures_total counter",
    "vnfguard_core_enrollment_failures_total{shard=\"0\"} counter",
    "vnfguard_core_enrollment_failures_total{shard=\"1\"} counter",
    "vnfguard_core_enrollment_micros histogram",
    "vnfguard_core_enrollment_micros{shard=\"0\"} histogram",
    "vnfguard_core_enrollment_micros{shard=\"1\"} histogram",
    "vnfguard_core_enrollments_total counter",
    "vnfguard_core_enrollments_total{backend=\"sgx\",shard=\"0\"} counter",
    "vnfguard_core_enrollments_total{backend=\"sgx\",shard=\"1\"} counter",
    "vnfguard_core_enrollments_total{backend=\"sgx\"} counter",
    "vnfguard_core_enrollments_total{backend=\"snp\",shard=\"0\"} counter",
    "vnfguard_core_enrollments_total{backend=\"snp\",shard=\"1\"} counter",
    "vnfguard_core_enrollments_total{backend=\"snp\"} counter",
    "vnfguard_core_enrollments_total{shard=\"0\"} counter",
    "vnfguard_core_enrollments_total{shard=\"1\"} counter",
    "vnfguard_core_fleet_scrape_failures_total counter",
    "vnfguard_core_fleet_scrapes_total counter",
    "vnfguard_core_fleet_stale_nodes gauge",
    "vnfguard_core_host_attestation_failures_total counter",
    "vnfguard_core_host_attestation_failures_total{shard=\"0\"} counter",
    "vnfguard_core_host_attestation_failures_total{shard=\"1\"} counter",
    "vnfguard_core_host_attestation_micros histogram",
    "vnfguard_core_host_attestation_micros{shard=\"0\"} histogram",
    "vnfguard_core_host_attestation_micros{shard=\"1\"} histogram",
    "vnfguard_core_host_attestations_total counter",
    "vnfguard_core_host_attestations_total{backend=\"sgx\",shard=\"0\"} counter",
    "vnfguard_core_host_attestations_total{backend=\"sgx\",shard=\"1\"} counter",
    "vnfguard_core_host_attestations_total{backend=\"sgx\"} counter",
    "vnfguard_core_host_attestations_total{backend=\"snp\",shard=\"0\"} counter",
    "vnfguard_core_host_attestations_total{backend=\"snp\",shard=\"1\"} counter",
    "vnfguard_core_host_attestations_total{backend=\"snp\"} counter",
    "vnfguard_core_host_attestations_total{shard=\"0\"} counter",
    "vnfguard_core_host_attestations_total{shard=\"1\"} counter",
    "vnfguard_core_ias_breaker_transitions_total counter",
    "vnfguard_core_ias_failures_total counter",
    "vnfguard_core_ias_retries_total counter",
    "vnfguard_core_ias_roundtrip_micros histogram",
    "vnfguard_core_recoveries_total counter",
    "vnfguard_core_recoveries_total{shard=\"0\"} counter",
    "vnfguard_core_recoveries_total{shard=\"1\"} counter",
    "vnfguard_core_recovery_orphans_total counter",
    "vnfguard_core_recovery_orphans_total{shard=\"0\"} counter",
    "vnfguard_core_recovery_orphans_total{shard=\"1\"} counter",
    "vnfguard_core_renewal_failures_total counter",
    "vnfguard_core_renewal_failures_total{shard=\"0\"} counter",
    "vnfguard_core_renewal_failures_total{shard=\"1\"} counter",
    "vnfguard_core_renewal_micros histogram",
    "vnfguard_core_renewal_micros{shard=\"0\"} histogram",
    "vnfguard_core_renewal_micros{shard=\"1\"} histogram",
    "vnfguard_core_renewals_total counter",
    "vnfguard_core_renewals_total{backend=\"sgx\",shard=\"0\"} counter",
    "vnfguard_core_renewals_total{backend=\"sgx\",shard=\"1\"} counter",
    "vnfguard_core_renewals_total{backend=\"sgx\"} counter",
    "vnfguard_core_renewals_total{backend=\"snp\",shard=\"0\"} counter",
    "vnfguard_core_renewals_total{backend=\"snp\",shard=\"1\"} counter",
    "vnfguard_core_renewals_total{backend=\"snp\"} counter",
    "vnfguard_core_renewals_total{shard=\"0\"} counter",
    "vnfguard_core_renewals_total{shard=\"1\"} counter",
    "vnfguard_core_replication_fenced_total counter",
    "vnfguard_core_replication_heartbeat_age_seconds gauge",
    "vnfguard_core_replication_lag_records gauge",
    "vnfguard_core_replication_records_total counter",
    "vnfguard_core_replication_snapshots_total counter",
    "vnfguard_core_revocations_total counter",
    "vnfguard_core_revocations_total{shard=\"0\"} counter",
    "vnfguard_core_revocations_total{shard=\"1\"} counter",
    "vnfguard_core_wal_append_micros histogram",
    "vnfguard_core_wal_append_micros{shard=\"0\"} histogram",
    "vnfguard_core_wal_append_micros{shard=\"1\"} histogram",
    "vnfguard_core_wal_records_total counter",
    "vnfguard_core_wal_records_total{shard=\"0\"} counter",
    "vnfguard_core_wal_records_total{shard=\"1\"} counter",
    "vnfguard_core_workclass_latency_micros{backend=\"sgx\",class=\"enrollment\"} histogram",
    "vnfguard_core_workclass_latency_micros{backend=\"sgx\",class=\"introspection\"} histogram",
    "vnfguard_core_workclass_latency_micros{backend=\"sgx\",class=\"renewal\"} histogram",
    "vnfguard_core_workclass_latency_micros{backend=\"sgx\",class=\"revocation\"} histogram",
    "vnfguard_core_workclass_latency_micros{backend=\"snp\",class=\"enrollment\"} histogram",
    "vnfguard_core_workclass_latency_micros{backend=\"snp\",class=\"introspection\"} histogram",
    "vnfguard_core_workclass_latency_micros{backend=\"snp\",class=\"renewal\"} histogram",
    "vnfguard_core_workclass_latency_micros{backend=\"snp\",class=\"revocation\"} histogram",
    "vnfguard_core_workclass_latency_micros{class=\"enrollment\"} histogram",
    "vnfguard_core_workclass_latency_micros{class=\"introspection\"} histogram",
    "vnfguard_core_workclass_latency_micros{class=\"renewal\"} histogram",
    "vnfguard_core_workclass_latency_micros{class=\"revocation\"} histogram",
    "vnfguard_health_alert_state{slo=\"enrollment-availability\"} gauge",
    "vnfguard_health_alert_state{slo=\"enrollment-latency\"} gauge",
    "vnfguard_health_alert_state{slo=\"introspection-availability\"} gauge",
    "vnfguard_health_alert_state{slo=\"introspection-latency\"} gauge",
    "vnfguard_health_alert_state{slo=\"renewal-availability\"} gauge",
    "vnfguard_health_alert_state{slo=\"renewal-latency\"} gauge",
    "vnfguard_health_alert_state{slo=\"revocation-availability\"} gauge",
    "vnfguard_health_alert_state{slo=\"revocation-latency\"} gauge",
    "vnfguard_health_burn_rate{slo=\"enrollment-availability\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"enrollment-availability\",window=\"slow\"} gauge",
    "vnfguard_health_burn_rate{slo=\"enrollment-latency\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"enrollment-latency\",window=\"slow\"} gauge",
    "vnfguard_health_burn_rate{slo=\"introspection-availability\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"introspection-availability\",window=\"slow\"} gauge",
    "vnfguard_health_burn_rate{slo=\"introspection-latency\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"introspection-latency\",window=\"slow\"} gauge",
    "vnfguard_health_burn_rate{slo=\"renewal-availability\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"renewal-availability\",window=\"slow\"} gauge",
    "vnfguard_health_burn_rate{slo=\"renewal-latency\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"renewal-latency\",window=\"slow\"} gauge",
    "vnfguard_health_burn_rate{slo=\"revocation-availability\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"revocation-availability\",window=\"slow\"} gauge",
    "vnfguard_health_burn_rate{slo=\"revocation-latency\",window=\"fast\"} gauge",
    "vnfguard_health_burn_rate{slo=\"revocation-latency\",window=\"slow\"} gauge",
    "vnfguard_ias_non_ok_verdicts_total counter",
    "vnfguard_ias_requests_total counter",
    "vnfguard_net_bytes_total counter",
    "vnfguard_net_connections_total counter",
    "vnfguard_net_deadline_exceeded_total counter",
    "vnfguard_net_deadline_exceeded_total_enrollment counter",
    "vnfguard_net_deadline_exceeded_total_introspection counter",
    "vnfguard_net_deadline_exceeded_total_renewal counter",
    "vnfguard_net_deadline_exceeded_total_revocation counter",
    "vnfguard_net_queue_depth_enrollment gauge",
    "vnfguard_net_queue_depth_introspection gauge",
    "vnfguard_net_queue_depth_renewal gauge",
    "vnfguard_net_queue_depth_revocation gauge",
    "vnfguard_net_refusals_total counter",
    "vnfguard_net_shed_total counter",
    "vnfguard_net_shed_total_enrollment counter",
    "vnfguard_net_shed_total_introspection counter",
    "vnfguard_net_shed_total_renewal counter",
    "vnfguard_net_shed_total_revocation counter",
    "vnfguard_net_sojourn_micros_enrollment gauge",
    "vnfguard_net_sojourn_micros_introspection gauge",
    "vnfguard_net_sojourn_micros_renewal gauge",
    "vnfguard_net_sojourn_micros_revocation gauge",
    "vnfguard_telemetry_journal_dropped_total counter",
    "vnfguard_telemetry_trace_spans_dropped_total counter",
    "vnfguard_tls_client_handshake_micros histogram",
    "vnfguard_tls_handshake_failures_total counter",
    "vnfguard_tls_handshakes_total counter",
    "vnfguard_tls_server_handshake_micros histogram",
];

/// The series wirebench reads by name.
const WIREBENCH_READS: [&str; 5] = [
    "vnfguard_net_bytes_total counter",
    "vnfguard_core_wal_records_total counter",
    "vnfguard_core_crls_issued_total counter",
    "vnfguard_core_enrollment_aborts_total counter",
    "vnfguard_core_wal_append_micros histogram",
];

#[test]
fn exported_series_names_are_pinned() {
    let exported = series(&exercised_deployments());
    for read in WIREBENCH_READS {
        assert!(exported.iter().any(|s| s == read), "wirebench reads {read}");
    }
    assert_eq!(
        exported, EXPECTED,
        "exported series changed:\n{exported:#?}"
    );
}
