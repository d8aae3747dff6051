//! A guarded service chain: enrolled VNFs program the forwarding plane and
//! process traffic through firewall → NAT → load balancer.
//!
//! This exercises the full stack the paper's intro motivates: the VNFs are
//! deployed in containers on an attested host, receive their north-bound
//! credentials through the enclave workflow, program flows on a switch via
//! the controller's REST API — and then the dataplane actually forwards
//! packets through the chain, including a Trusted-Click-style variant where
//! the firewall runs *inside* an enclave.
//!
//! Run with: `cargo run --example service_chain`

use std::net::Ipv4Addr;
use vnfguard::controller::flowspec::FlowSpec;
use vnfguard::core::deployment::TestbedBuilder;
use vnfguard::dataplane::flow::{FlowAction, FlowMatch};
use vnfguard::dataplane::switch::Switch;
use vnfguard::dataplane::wire::{build_udp_frame, EthernetFrame, Ipv4Packet, MacAddr, Protocol};
use vnfguard::encoding::Json;
use vnfguard::net::http::Request;
use vnfguard::sgx::sigstruct::EnclaveAuthor;
use vnfguard::vnf::nf::{
    decode_verdict, load_enclave_nf, Firewall, FirewallRule, LoadBalancer, NatGateway,
    NetworkFunction, NfVerdict, OP_PROCESS,
};

fn ip(a: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, a)
}

fn main() {
    println!("=== guarded service chain ===\n");
    let mut testbed = TestbedBuilder::new(b"service chain").build();
    testbed.attest_host(0).unwrap();

    // Enroll two VNFs that will program the network.
    let mut fw_guard = testbed.deploy_guard(0, "vnf-firewall", 1).unwrap();
    let mut lb_guard = testbed.deploy_guard(0, "vnf-loadbalancer", 1).unwrap();
    testbed.enroll(0, &fw_guard).unwrap();
    testbed.enroll(0, &lb_guard).unwrap();
    println!("[enroll] vnf-firewall and vnf-loadbalancer enrolled via the enclave workflow");

    // The firewall VNF registers the edge switch and installs its policy
    // flows through its in-enclave TLS session.
    let fw_session = testbed.open_session(&mut fw_guard).unwrap();
    fw_guard
        .request(
            fw_session,
            &Request::post("/wm/core/switch/register").with_json(
                &Json::object().with("dpid", "0000000000000e11").with(
                    "ports",
                    vec![Json::from(1i64), Json::from(2i64), Json::from(3i64)],
                ),
            ),
        )
        .unwrap();
    let specs = [
        FlowSpec {
            name: "fw-allow-dns".into(),
            dpid: 0xe11,
            priority: 200,
            matcher: FlowMatch::any().with_protocol(Protocol::Udp).to_tp_port(53),
            actions: vec![FlowAction::Output(2)],
        },
        FlowSpec {
            name: "fw-allow-https".into(),
            dpid: 0xe11,
            priority: 200,
            matcher: FlowMatch::any()
                .with_protocol(Protocol::Udp)
                .to_tp_port(443),
            actions: vec![FlowAction::Output(2)],
        },
        FlowSpec {
            name: "fw-default-drop".into(),
            dpid: 0xe11,
            priority: 1,
            matcher: FlowMatch::any(),
            actions: vec![FlowAction::Drop],
        },
    ];
    for spec in &specs {
        let response = fw_guard
            .request(
                fw_session,
                &Request::post("/wm/staticflowpusher/json").with_json(&spec.to_json()),
            )
            .unwrap();
        assert!(response.status.is_success());
    }
    println!(
        "[flows]  firewall policy installed via north-bound API: {} flows",
        specs.len()
    );

    // The controller syncs the flows onto the actual dataplane switch.
    let mut switch = Switch::new(0xe11, vec![1, 2, 3]);
    testbed.controller.state().read().sync_switch(&mut switch);
    println!(
        "[sync]   switch 0xe11 programmed with {} entries",
        switch.flow_table().len()
    );

    // Traffic through the switch.
    let dns = build_udp_frame(
        MacAddr([1; 6]),
        MacAddr([2; 6]),
        ip(1),
        ip(9),
        40000,
        53,
        b"query",
    );
    let telnet = build_udp_frame(
        MacAddr([1; 6]),
        MacAddr([2; 6]),
        ip(1),
        ip(9),
        40000,
        23,
        b"root",
    );
    let out = switch.receive(1, &dns);
    assert_eq!(out.transmit.len(), 1);
    let out_blocked = switch.receive(1, &telnet);
    assert!(out_blocked.transmit.is_empty());
    println!(
        "[switch] DNS forwarded to port {}, telnet dropped by policy",
        2
    );

    // The NF pipeline behind the switch: NAT then load balancer.
    let mut nat = NatGateway::new(ip(9), ip(100));
    let mut lb = LoadBalancer::new(ip(100), vec![ip(101), ip(102), ip(103)]);
    let mut served = std::collections::BTreeMap::new();
    for client in 1..=9u8 {
        let frame = build_udp_frame(
            MacAddr([client; 6]),
            MacAddr([2; 6]),
            ip(client),
            ip(9),
            50000 + client as u16,
            443,
            b"req",
        );
        let NfVerdict::Forward(frame) = nat.process(&frame) else {
            panic!("nat dropped")
        };
        let NfVerdict::Forward(frame) = lb.process(&frame) else {
            panic!("lb dropped")
        };
        let eth = EthernetFrame::parse(&frame).unwrap();
        let packet = Ipv4Packet::parse(&eth.payload).unwrap();
        *served.entry(packet.dst).or_insert(0u32) += 1;
    }
    println!(
        "[chain]  9 flows NAT'd {} times and balanced across backends: {:?}",
        nat.translated(),
        served
    );
    assert_eq!(served.len(), 3, "all backends used");

    // Trusted-Click variant: the same firewall runs inside an enclave.
    let platform = &testbed.hosts[0].platform;
    let author = EnclaveAuthor::from_seed(&[77; 32]);
    let enclave_fw = load_enclave_nf(
        platform,
        &author,
        Firewall::default_deny(vec![FirewallRule::allow().port(53)]),
    )
    .unwrap();
    let verdict = decode_verdict(&enclave_fw.ecall(OP_PROCESS, &dns).unwrap()).unwrap();
    assert!(matches!(verdict, NfVerdict::Forward(_)));
    let verdict = decode_verdict(&enclave_fw.ecall(OP_PROCESS, &telnet).unwrap()).unwrap();
    assert_eq!(verdict, NfVerdict::Drop);
    println!(
        "[tee-nf] enclave-resident firewall produced identical verdicts ({} ecalls paid)",
        platform.ecall_count()
    );

    // The load balancer VNF reads the audit trail over its own session.
    let lb_session = testbed.open_session(&mut lb_guard).unwrap();
    let audit = lb_guard
        .request(lb_session, &Request::get("/wm/core/audit/json"))
        .unwrap()
        .parse_json()
        .unwrap();
    let pushes = audit
        .as_array()
        .unwrap()
        .iter()
        .filter(|e| e.get("action").and_then(Json::as_str) == Some("push_flow"))
        .count();
    println!("[audit]  controller records {pushes} authenticated flow pushes");

    println!(
        "\nService chain complete: policy programmed over guarded credentials, packets flowing."
    );
}
