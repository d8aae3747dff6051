//! Micro-probes for the traced run: each times calls into one layer's
//! public functions on fixed inputs and reports the median.

use crate::deploy::Deployment;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vnfguard_controller::{Controller, ControllerConfig};
use vnfguard_core::deployment::TestbedBuilder;
use vnfguard_crypto::drbg::HmacDrbg;
use vnfguard_crypto::ed25519::SigningKey;
use vnfguard_crypto::gcm::AesGcm;
use vnfguard_encoding::{base64, json, Json};
use vnfguard_net::http::Request;
use vnfguard_net::server::HttpClient;
use vnfguard_pki::ca::IssueProfile;
use vnfguard_pki::{
    CertificateAuthority, DistinguishedName, KeyUsage, RevocationReason, TrustStore, Validity,
};
use vnfguard_tls::handshake::{client_handshake, server_handshake, ClientConfig, ServerConfig};
use vnfguard_tls::signer::LocalSigner;
use vnfguard_tls::validate::ClientValidator;
use wirebench::stats::median;

/// Probe results by metric name, microseconds unless the name says else.
pub type Probes = BTreeMap<&'static str, f64>;

/// Median wall time of `reps` calls of `f`, in microseconds.
fn time_us(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|i| {
            let begun = Instant::now();
            f(i);
            begun.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples).expect("probe ran")
}

/// Crypto primitives, PKI operations at the run's revoked count, and the
/// `/vm/renew` body codec.
pub fn primitives(revoked: usize, out: &mut Probes) {
    let seeds: Vec<[u8; 32]> = (0..64u8)
        .map(|i| [i.wrapping_mul(31).wrapping_add(7); 32])
        .collect();
    let message = [0x5au8; 256];
    let key = SigningKey::from_seed(&seeds[0]);
    let signature = key.sign(&message);
    let public = key.public_key();
    out.insert(
        "crypto.ed25519_keygen_us",
        time_us(64, |i| {
            black_box(SigningKey::from_seed(black_box(&seeds[i % seeds.len()])));
        }),
    );
    out.insert(
        "crypto.ed25519_sign_us",
        time_us(64, |_| {
            black_box(key.sign(black_box(&message)));
        }),
    );
    out.insert(
        "crypto.ed25519_verify_us",
        time_us(64, |_| {
            black_box(public.verify(black_box(&message), &signature).is_ok());
        }),
    );
    let base = vnfguard_crypto::x25519::public_key(&seeds[1]);
    out.insert(
        "crypto.x25519_us",
        time_us(64, |i| {
            black_box(vnfguard_crypto::x25519::x25519(
                black_box(&seeds[i % seeds.len()]),
                &base,
            ));
        }),
    );
    let gcm = AesGcm::new(&[0x42; 16]);
    let small = vec![0x17u8; 1024];
    let large = vec![0x17u8; 64 * 1024];
    out.insert(
        "crypto.aes_gcm_1kib_us",
        time_us(200, |i| {
            black_box(gcm.seal(&[i as u8; 12], &[], black_box(&small)));
        }),
    );
    out.insert(
        "crypto.aes_gcm_us_per_kib",
        time_us(8, |i| {
            black_box(gcm.seal(&[i as u8; 12], &[], black_box(&large)));
        }) / 64.0,
    );
    out.insert(
        "crypto.sha256_us_per_kib",
        time_us(16, |_| {
            black_box(vnfguard_crypto::sha2::sha256(black_box(&large)));
        }) / 64.0,
    );

    let mut rng = HmacDrbg::new(b"wirebench pki probe");
    let now = 1_600_000_000;
    let mut ca = CertificateAuthority::new(
        DistinguishedName::new("wirebench-ca"),
        Validity::new(now - 10, now + 365 * 86_400),
        &mut rng,
    );
    let profile = IssueProfile::vnf_client([7; 32]);
    let mut issued = Vec::new();
    out.insert(
        "pki.issue_us",
        time_us(64, |i| {
            issued.push(ca.issue(
                DistinguishedName::new(&format!("vnf-{i}")),
                public,
                &profile,
                now,
            ));
        }),
    );
    for serial in 10_000..10_000 + revoked as u64 {
        ca.revoke(serial, RevocationReason::KeyCompromise, now);
    }
    let mut crl = None;
    out.insert(
        "pki.crl_issue_us",
        time_us(32, |_| {
            crl = Some(ca.issue_crl(now, 3600));
        }),
    );
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone()).expect("anchor");
    trust
        .install_crl(crl.expect("CRL issued"))
        .expect("CRL installs");
    out.insert(
        "pki.validate_us",
        time_us(64, |i| {
            let valid = trust.validate(&issued[i % issued.len()], now, KeyUsage::CLIENT_AUTH);
            assert!(valid.is_ok(), "probe certificate validates");
        }),
    );

    let wrapped = vec![0xa5u8; 1200];
    out.insert(
        "encoding.renew_json_us",
        time_us(200, |i| {
            let request = Json::object()
                .with("serial", 1000 + i as i64)
                .with("provisioning_key", base64::encode(&seeds[i % seeds.len()]))
                .to_string();
            let parsed = json::parse(&request).expect("request parses");
            let response = Json::object()
                .with("wrapped", base64::encode(&wrapped))
                .with(
                    "serial",
                    parsed.get("serial").and_then(Json::as_i64).unwrap_or(0),
                )
                .with("subject", "vnf")
                .to_string();
            let reply = json::parse(&response).expect("response parses");
            let bytes = reply
                .get("wrapped")
                .and_then(Json::as_str)
                .map(base64::decode);
            black_box(bytes);
        }),
    );
}

/// Enclave-side probes on a deployment of their own: quoting, and
/// provisioning genuine renewal bundles.
pub fn enclave(out: &mut Probes) {
    let mut tb = TestbedBuilder::new(b"wirebench-probe").build();
    tb.attest_host(0).expect("probe host attests");
    let guard = tb.deploy_guard(0, "probe-guard", 1).expect("probe guard");
    let mut serial = tb.enroll(0, &guard).expect("probe enrolls").serial();
    let key = guard.provisioning_key().expect("provisioning key");
    let cn = tb.controller_cn.clone();
    let bundles: Vec<Vec<u8>> = (0..32)
        .map(|_| {
            let (wrapped, cert) = tb
                .vm
                .renew_vnf_credential(serial, &key, &cn)
                .expect("renewal");
            serial = cert.serial();
            wrapped
        })
        .collect();
    out.insert(
        "vnf.provision_us",
        time_us(bundles.len(), |i| {
            guard.provision(&bundles[i]).expect("bundle provisions");
        }),
    );
    let platform = &tb.hosts[0].platform;
    out.insert(
        "sgx.quote_us",
        time_us(32, |i| {
            black_box(
                guard
                    .quote(platform, &[i as u8; 32], [9; 32])
                    .expect("quote"),
            );
        }),
    );
}

/// Fabric round-trips to a host agent on fresh and kept-alive connections,
/// mutual-TLS handshakes with credentials from the deployment's CA, and
/// the northbound workload's two REST requests against a plain-HTTP
/// controller.
pub fn wire<T>(dep: &Deployment<T>, out: &mut Probes) {
    let agent = dep.agents[0].address.clone();
    let get = Request::get("/agent/vnfs");
    out.insert(
        "net.fresh_roundtrip_us",
        time_us(100, |_| {
            let stream = dep
                .network
                .connect_from("operator", &agent)
                .expect("agent reachable");
            let response = HttpClient::new(stream)
                .request(&get)
                .expect("agent answers");
            assert!(response.status.is_success());
        }),
    );
    let mut kept = HttpClient::new(dep.network.connect_from("operator", &agent).expect("agent"));
    out.insert(
        "net.keepalive_roundtrip_us",
        time_us(200, |_| {
            let response = kept.request(&get).expect("agent answers");
            assert!(response.status.is_success());
        }),
    );
    drop(kept);

    tls_handshakes(dep, out);

    let plain = Controller::start(&dep.network, ControllerConfig::http("plain-controller:80"))
        .expect("plain controller starts");
    plain
        .state()
        .write()
        .register_switch(0x99, vec![1, 2, 3, 4]);
    let mut client = HttpClient::new(
        dep.network
            .connect("plain-controller:80")
            .expect("plain controller"),
    );
    let links = Request::get("/wm/topology/links/json");
    out.insert(
        "controller.plain_get_us",
        time_us(300, |_| {
            assert!(client
                .request(&links)
                .expect("GET answers")
                .status
                .is_success());
        }),
    );
    let push = Request::post("/wm/staticflowpusher/json").with_json(
        &Json::object()
            .with("switch", format!("{:016x}", 0x99))
            .with("name", "probe-flow")
            .with("in_port", 1i64)
            .with("actions", "output=4"),
    );
    out.insert(
        "controller.plain_post_us",
        time_us(300, |_| {
            assert!(client
                .request(&push)
                .expect("POST answers")
                .status
                .is_success());
        }),
    );
    drop(client);
    plain.stop();
}

/// Both sides of a mutual-TLS handshake with VM-issued identities, the
/// server validating the client against the VM CA and its current CRL
/// (the controller's trusted-HTTPS configuration), timed per side.
fn tls_handshakes<T>(dep: &Deployment<T>, out: &mut Probes) {
    let now = dep.tb.clock.now();
    let client_key = SigningKey::from_seed(&[0x33; 32]);
    let server_key = SigningKey::from_seed(&[0x44; 32]);
    let client_cert = dep
        .vm
        .issue_client_certificate("wirebench-client", client_key.public_key());
    let server_cert = dep
        .vm
        .issue_server_certificate("wirebench-server", server_key.public_key());
    let mut anchors = TrustStore::new();
    anchors.add_anchor(dep.vm.ca_certificate()).expect("anchor");
    let mut with_crl = TrustStore::new();
    with_crl
        .add_anchor(dep.vm.ca_certificate())
        .expect("anchor");
    with_crl
        .install_crl(dep.vm.current_crl(3600))
        .expect("CRL installs");
    let client = ClientConfig::new(Arc::new(anchors), now)
        .with_identity(Arc::new(LocalSigner::new(client_key, client_cert)));
    let server = ServerConfig::new(Arc::new(LocalSigner::new(server_key, server_cert)), now)
        .require_client_auth(ClientValidator::ca(with_crl));
    let listener = dep
        .network
        .listen("tls-probe:443")
        .expect("probe address free");
    let reps = 32;
    let (client_us, server_us) = std::thread::scope(|scope| {
        let server_side = scope.spawn(|| {
            let mut rng = HmacDrbg::new(b"wirebench tls probe server");
            (0..reps)
                .filter_map(|_| {
                    let stream = listener.accept().ok()?;
                    let begun = Instant::now();
                    server_handshake(stream, &server, &mut rng).ok()?;
                    Some(begun.elapsed().as_secs_f64() * 1e6)
                })
                .collect::<Vec<f64>>()
        });
        let mut rng = HmacDrbg::new(b"wirebench tls probe client");
        let client_side: Vec<f64> = (0..reps)
            .filter_map(|_| {
                let stream = dep.network.connect("tls-probe:443").ok()?;
                let begun = Instant::now();
                client_handshake(stream, &client, &mut rng).ok()?;
                Some(begun.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        (client_side, server_side.join().expect("TLS probe server"))
    });
    out.insert("tls.client_handshake_us", median(&client_us).unwrap_or(0.0));
    out.insert("tls.server_handshake_us", median(&server_us).unwrap_or(0.0));
}
