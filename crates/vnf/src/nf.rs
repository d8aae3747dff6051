//! Packet-processing network functions, runnable natively or inside the
//! enclave model (experiment E7, after Coughlin et al.'s Trusted Click).

use std::collections::HashMap;
use std::net::Ipv4Addr;
use vnfguard_dataplane::wire::{
    EthernetFrame, Ipv4Packet, Protocol, TcpSegment, UdpDatagram, ETHERTYPE_IPV4,
};
use vnfguard_sgx::enclave::{Enclave, EnclaveCode, EnclaveContext};
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_sgx::SgxError;

/// What a network function decides for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfVerdict {
    /// Forward this (possibly rewritten) frame.
    Forward(Vec<u8>),
    /// Drop it.
    Drop,
}

/// A packet-processing function.
pub trait NetworkFunction: Send {
    fn name(&self) -> &str;
    fn process(&mut self, frame: &[u8]) -> NfVerdict;
}

/// A 5-tuple firewall with default-deny or default-allow policy.
#[derive(Debug)]
pub struct Firewall {
    rules: Vec<FirewallRule>,
    default_allow: bool,
    dropped: u64,
    passed: u64,
}

/// One allow/deny rule (None = wildcard).
#[derive(Debug, Clone)]
pub struct FirewallRule {
    pub allow: bool,
    pub src: Option<Ipv4Addr>,
    pub dst: Option<Ipv4Addr>,
    pub protocol: Option<Protocol>,
    pub dst_port: Option<u16>,
}

impl FirewallRule {
    pub fn allow() -> FirewallRule {
        FirewallRule {
            allow: true,
            src: None,
            dst: None,
            protocol: None,
            dst_port: None,
        }
    }

    pub fn deny() -> FirewallRule {
        FirewallRule {
            allow: false,
            ..FirewallRule::allow()
        }
    }

    pub fn from(mut self, src: Ipv4Addr) -> FirewallRule {
        self.src = Some(src);
        self
    }

    pub fn to(mut self, dst: Ipv4Addr) -> FirewallRule {
        self.dst = Some(dst);
        self
    }

    pub fn port(mut self, dst_port: u16) -> FirewallRule {
        self.dst_port = Some(dst_port);
        self
    }

    pub fn proto(mut self, protocol: Protocol) -> FirewallRule {
        self.protocol = Some(protocol);
        self
    }

    fn matches(&self, ip: &Ipv4Packet, dst_port: Option<u16>) -> bool {
        self.src.is_none_or(|want| want == ip.src)
            && self.dst.is_none_or(|want| want == ip.dst)
            && self.protocol.is_none_or(|want| want == ip.protocol)
            && match self.dst_port {
                None => true,
                Some(want) => dst_port == Some(want),
            }
    }
}

impl Firewall {
    pub fn default_deny(rules: Vec<FirewallRule>) -> Firewall {
        Firewall {
            rules,
            default_allow: false,
            dropped: 0,
            passed: 0,
        }
    }

    pub fn default_allow(rules: Vec<FirewallRule>) -> Firewall {
        Firewall {
            rules,
            default_allow: true,
            dropped: 0,
            passed: 0,
        }
    }

    pub fn counters(&self) -> (u64, u64) {
        (self.passed, self.dropped)
    }
}

fn transport_dst_port(ip: &Ipv4Packet) -> Option<u16> {
    match ip.protocol {
        Protocol::Udp => UdpDatagram::parse(&ip.payload).ok().map(|u| u.dst_port),
        Protocol::Tcp => TcpSegment::parse(&ip.payload).ok().map(|t| t.dst_port),
        Protocol::Other(_) => None,
    }
}

impl NetworkFunction for Firewall {
    fn name(&self) -> &str {
        "firewall"
    }

    fn process(&mut self, frame: &[u8]) -> NfVerdict {
        let Ok(eth) = EthernetFrame::parse(frame) else {
            self.dropped += 1;
            return NfVerdict::Drop;
        };
        if eth.ethertype != ETHERTYPE_IPV4 {
            // Non-IP passes (ARP etc.).
            self.passed += 1;
            return NfVerdict::Forward(frame.to_vec());
        }
        let Ok(ip) = Ipv4Packet::parse(&eth.payload) else {
            self.dropped += 1;
            return NfVerdict::Drop;
        };
        let dst_port = transport_dst_port(&ip);
        let allow = self
            .rules
            .iter()
            .find(|rule| rule.matches(&ip, dst_port))
            .map(|rule| rule.allow)
            .unwrap_or(self.default_allow);
        if allow {
            self.passed += 1;
            NfVerdict::Forward(frame.to_vec())
        } else {
            self.dropped += 1;
            NfVerdict::Drop
        }
    }
}

/// A destination NAT gateway: rewrites a public (virtual) IP to a backend.
#[derive(Debug)]
pub struct NatGateway {
    public_ip: Ipv4Addr,
    backend: Ipv4Addr,
    translated: u64,
}

impl NatGateway {
    pub fn new(public_ip: Ipv4Addr, backend: Ipv4Addr) -> NatGateway {
        NatGateway {
            public_ip,
            backend,
            translated: 0,
        }
    }

    pub fn translated(&self) -> u64 {
        self.translated
    }
}

impl NetworkFunction for NatGateway {
    fn name(&self) -> &str {
        "nat"
    }

    fn process(&mut self, frame: &[u8]) -> NfVerdict {
        let Ok(mut eth) = EthernetFrame::parse(frame) else {
            return NfVerdict::Drop;
        };
        if eth.ethertype != ETHERTYPE_IPV4 {
            return NfVerdict::Forward(frame.to_vec());
        }
        let Ok(mut ip) = Ipv4Packet::parse(&eth.payload) else {
            return NfVerdict::Drop;
        };
        if ip.dst == self.public_ip {
            // Rewrite destination and refresh the transport checksum.
            let new_payload = match ip.protocol {
                Protocol::Udp => UdpDatagram::parse(&ip.payload)
                    .ok()
                    .map(|udp| udp.emit(ip.src, self.backend)),
                Protocol::Tcp => TcpSegment::parse(&ip.payload)
                    .ok()
                    .map(|tcp| tcp.emit(ip.src, self.backend)),
                Protocol::Other(_) => None,
            };
            ip.dst = self.backend;
            if let Some(payload) = new_payload {
                ip.payload = payload;
            }
            eth.payload = ip.emit();
            self.translated += 1;
            return NfVerdict::Forward(eth.emit());
        }
        NfVerdict::Forward(frame.to_vec())
    }
}

/// A round-robin layer-4 load balancer over backend IPs.
#[derive(Debug)]
pub struct LoadBalancer {
    virtual_ip: Ipv4Addr,
    backends: Vec<Ipv4Addr>,
    next: usize,
    /// Flow affinity: (src, src_port) → backend.
    affinity: HashMap<(Ipv4Addr, u16), Ipv4Addr>,
}

impl LoadBalancer {
    pub fn new(virtual_ip: Ipv4Addr, backends: Vec<Ipv4Addr>) -> LoadBalancer {
        assert!(!backends.is_empty(), "load balancer needs backends");
        LoadBalancer {
            virtual_ip,
            backends,
            next: 0,
            affinity: HashMap::new(),
        }
    }
}

impl NetworkFunction for LoadBalancer {
    fn name(&self) -> &str {
        "loadbalancer"
    }

    fn process(&mut self, frame: &[u8]) -> NfVerdict {
        let Ok(mut eth) = EthernetFrame::parse(frame) else {
            return NfVerdict::Drop;
        };
        if eth.ethertype != ETHERTYPE_IPV4 {
            return NfVerdict::Forward(frame.to_vec());
        }
        let Ok(mut ip) = Ipv4Packet::parse(&eth.payload) else {
            return NfVerdict::Drop;
        };
        if ip.dst != self.virtual_ip {
            return NfVerdict::Forward(frame.to_vec());
        }
        let src_port = match ip.protocol {
            Protocol::Udp => UdpDatagram::parse(&ip.payload).ok().map(|u| u.src_port),
            Protocol::Tcp => TcpSegment::parse(&ip.payload).ok().map(|t| t.src_port),
            Protocol::Other(_) => None,
        }
        .unwrap_or(0);
        let backend = *self.affinity.entry((ip.src, src_port)).or_insert_with(|| {
            let chosen = self.backends[self.next % self.backends.len()];
            self.next += 1;
            chosen
        });
        let new_payload = match ip.protocol {
            Protocol::Udp => UdpDatagram::parse(&ip.payload)
                .ok()
                .map(|udp| udp.emit(ip.src, backend)),
            Protocol::Tcp => TcpSegment::parse(&ip.payload)
                .ok()
                .map(|tcp| tcp.emit(ip.src, backend)),
            Protocol::Other(_) => None,
        };
        ip.dst = backend;
        if let Some(payload) = new_payload {
            ip.payload = payload;
        }
        eth.payload = ip.emit();
        NfVerdict::Forward(eth.emit())
    }
}

/// A DPI byte/flow counter (forwards everything, counts per protocol).
#[derive(Debug, Default)]
pub struct DpiCounter {
    pub udp_packets: u64,
    pub tcp_packets: u64,
    pub other_packets: u64,
    pub total_bytes: u64,
}

impl NetworkFunction for DpiCounter {
    fn name(&self) -> &str {
        "dpi"
    }

    fn process(&mut self, frame: &[u8]) -> NfVerdict {
        self.total_bytes += frame.len() as u64;
        if let Ok(eth) = EthernetFrame::parse(frame) {
            if eth.ethertype == ETHERTYPE_IPV4 {
                if let Ok(ip) = Ipv4Packet::parse(&eth.payload) {
                    match ip.protocol {
                        Protocol::Udp => self.udp_packets += 1,
                        Protocol::Tcp => self.tcp_packets += 1,
                        Protocol::Other(_) => self.other_packets += 1,
                    }
                }
            }
        }
        NfVerdict::Forward(frame.to_vec())
    }
}

/// Enclave program wrapping a network function: packet processing inside
/// the TEE, as in Trusted Click. Opcode 1 = process one frame; the reply is
/// `0x01 || frame` for forward, `0x00` for drop. Opcode 2 = process a batch
/// (length-prefixed frames), amortizing the transition cost.
pub struct EnclaveNf<F: NetworkFunction> {
    image: Vec<u8>,
    function: F,
}

/// Opcode: process a single frame.
pub const OP_PROCESS: u16 = 1;
/// Opcode: process a batch of frames.
pub const OP_PROCESS_BATCH: u16 = 2;

impl<F: NetworkFunction> EnclaveNf<F> {
    pub fn new(image: &[u8], function: F) -> EnclaveNf<F> {
        EnclaveNf {
            image: image.to_vec(),
            function,
        }
    }
}

impl<F: NetworkFunction> EnclaveCode for EnclaveNf<F> {
    fn image(&self) -> Vec<u8> {
        self.image.clone()
    }

    fn on_call(
        &mut self,
        _ctx: &mut EnclaveContext,
        opcode: u16,
        input: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        match opcode {
            OP_PROCESS => Ok(encode_verdict(self.function.process(input))),
            OP_PROCESS_BATCH => {
                let mut out = Vec::with_capacity(input.len() + 16);
                let mut rest = input;
                while !rest.is_empty() {
                    if rest.len() < 4 {
                        return Err(SgxError::Encoding("truncated batch".into()));
                    }
                    let len = u32::from_be_bytes(rest[..4].try_into().expect("4")) as usize;
                    rest = &rest[4..];
                    if rest.len() < len {
                        return Err(SgxError::Encoding("truncated frame in batch".into()));
                    }
                    let verdict = encode_verdict(self.function.process(&rest[..len]));
                    out.extend_from_slice(&(verdict.len() as u32).to_be_bytes());
                    out.extend_from_slice(&verdict);
                    rest = &rest[len..];
                }
                Ok(out)
            }
            other => Err(SgxError::BadCall(other)),
        }
    }
}

fn encode_verdict(verdict: NfVerdict) -> Vec<u8> {
    match verdict {
        NfVerdict::Forward(frame) => {
            let mut out = Vec::with_capacity(frame.len() + 1);
            out.push(1);
            out.extend_from_slice(&frame);
            out
        }
        NfVerdict::Drop => vec![0],
    }
}

/// Decode a verdict produced by [`EnclaveNf`].
pub fn decode_verdict(bytes: &[u8]) -> Result<NfVerdict, SgxError> {
    match bytes.split_first() {
        Some((1, frame)) => Ok(NfVerdict::Forward(frame.to_vec())),
        Some((0, _)) => Ok(NfVerdict::Drop),
        _ => Err(SgxError::Encoding("bad verdict".into())),
    }
}

/// Load a network function into an enclave on `platform`.
pub fn load_enclave_nf<F: NetworkFunction + 'static>(
    platform: &SgxPlatform,
    author: &EnclaveAuthor,
    function: F,
) -> Result<Enclave, SgxError> {
    let image = format!("enclave-nf {}", function.name()).into_bytes();
    let mrenclave = SgxPlatform::measure_image(&image, 64 * 1024);
    let signed = author.sign_enclave(mrenclave, 2, 1, false);
    platform.load_enclave(
        &signed,
        64 * 1024,
        Box::new(EnclaveNf::new(&image, function)),
    )
}

/// Encode frames into the batch wire format for [`OP_PROCESS_BATCH`].
pub fn encode_batch<'a>(frames: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    for frame in frames {
        out.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        out.extend_from_slice(frame);
    }
    out
}

/// Decode the batch reply into verdicts.
pub fn decode_batch(mut bytes: &[u8]) -> Result<Vec<NfVerdict>, SgxError> {
    let mut verdicts = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 4 {
            return Err(SgxError::Encoding("truncated batch reply".into()));
        }
        let len = u32::from_be_bytes(bytes[..4].try_into().expect("4")) as usize;
        bytes = &bytes[4..];
        if bytes.len() < len {
            return Err(SgxError::Encoding("truncated verdict".into()));
        }
        verdicts.push(decode_verdict(&bytes[..len])?);
        bytes = &bytes[len..];
    }
    Ok(verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_dataplane::wire::{build_udp_frame, MacAddr};

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn udp_frame(src: u8, dst: u8, dst_port: u16) -> Vec<u8> {
        build_udp_frame(
            MacAddr([src; 6]),
            MacAddr([dst; 6]),
            ip(src),
            ip(dst),
            30000,
            dst_port,
            b"payload",
        )
    }

    #[test]
    fn firewall_default_deny() {
        let mut fw = Firewall::default_deny(vec![FirewallRule::allow()
            .to(ip(2))
            .port(53)
            .proto(Protocol::Udp)]);
        assert!(matches!(
            fw.process(&udp_frame(1, 2, 53)),
            NfVerdict::Forward(_)
        ));
        assert_eq!(fw.process(&udp_frame(1, 2, 80)), NfVerdict::Drop);
        assert_eq!(fw.process(&udp_frame(1, 3, 53)), NfVerdict::Drop);
        assert_eq!(fw.counters(), (1, 2));
    }

    #[test]
    fn firewall_rule_order() {
        let mut fw = Firewall::default_allow(vec![
            FirewallRule::deny().from(ip(6)),
            FirewallRule::allow().from(ip(6)).port(443),
        ]);
        // First match wins: the deny shadows the later allow.
        assert_eq!(fw.process(&udp_frame(6, 2, 443)), NfVerdict::Drop);
        assert!(matches!(
            fw.process(&udp_frame(7, 2, 443)),
            NfVerdict::Forward(_)
        ));
    }

    #[test]
    fn firewall_drops_malformed() {
        let mut fw = Firewall::default_allow(vec![]);
        assert_eq!(fw.process(&[1, 2, 3]), NfVerdict::Drop);
    }

    #[test]
    fn nat_rewrites_and_verifies() {
        let mut nat = NatGateway::new(ip(100), ip(7));
        let NfVerdict::Forward(out) = nat.process(&udp_frame(1, 100, 80)) else {
            panic!("expected forward");
        };
        let eth = EthernetFrame::parse(&out).unwrap();
        let packet = Ipv4Packet::parse(&eth.payload).unwrap();
        assert_eq!(packet.dst, ip(7));
        assert!(UdpDatagram::verify_checksum(
            &packet.payload,
            packet.src,
            packet.dst
        ));
        assert_eq!(nat.translated(), 1);
        // Traffic not to the public IP is untouched.
        let original = udp_frame(1, 50, 80);
        assert_eq!(nat.process(&original), NfVerdict::Forward(original));
    }

    #[test]
    fn load_balancer_round_robin_with_affinity() {
        let mut lb = LoadBalancer::new(ip(200), vec![ip(1), ip(2), ip(3)]);
        let mut backend_of = |src: u8| -> Ipv4Addr {
            let frame = build_udp_frame(
                MacAddr([src; 6]),
                MacAddr([9; 6]),
                ip(src),
                ip(200),
                1000 + src as u16,
                80,
                b"q",
            );
            let NfVerdict::Forward(out) = lb.process(&frame) else {
                panic!("expected forward");
            };
            let eth = EthernetFrame::parse(&out).unwrap();
            Ipv4Packet::parse(&eth.payload).unwrap().dst
        };
        let first = backend_of(10);
        let second = backend_of(11);
        let third = backend_of(12);
        assert_ne!(first, second);
        assert_ne!(second, third);
        // Same flow sticks to its backend.
        assert_eq!(backend_of(10), first);
        assert_eq!(backend_of(10), first);
    }

    #[test]
    fn dpi_counts() {
        let mut dpi = DpiCounter::default();
        dpi.process(&udp_frame(1, 2, 53));
        dpi.process(&udp_frame(1, 2, 53));
        assert_eq!(dpi.udp_packets, 2);
        assert_eq!(dpi.tcp_packets, 0);
        assert!(dpi.total_bytes > 0);
    }

    #[test]
    fn enclave_nf_single_and_batch() {
        let platform = SgxPlatform::new(b"nf test");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let fw = Firewall::default_deny(vec![FirewallRule::allow().port(53)]);
        let enclave = load_enclave_nf(&platform, &author, fw).unwrap();

        let allowed = udp_frame(1, 2, 53);
        let blocked = udp_frame(1, 2, 80);
        let verdict = decode_verdict(&enclave.ecall(OP_PROCESS, &allowed).unwrap()).unwrap();
        assert_eq!(verdict, NfVerdict::Forward(allowed.clone()));
        let verdict = decode_verdict(&enclave.ecall(OP_PROCESS, &blocked).unwrap()).unwrap();
        assert_eq!(verdict, NfVerdict::Drop);

        // Batch: one transition for many frames.
        let calls_before = platform.ecall_count();
        let batch = encode_batch([allowed.as_slice(), blocked.as_slice(), allowed.as_slice()]);
        let reply = enclave.ecall(OP_PROCESS_BATCH, &batch).unwrap();
        let verdicts = decode_batch(&reply).unwrap();
        assert_eq!(verdicts.len(), 3);
        assert_eq!(verdicts[1], NfVerdict::Drop);
        assert_eq!(platform.ecall_count(), calls_before + 1);
    }

    #[test]
    fn enclave_nf_rejects_garbage_batch() {
        let platform = SgxPlatform::new(b"nf test 2");
        let author = EnclaveAuthor::from_seed(&[1; 32]);
        let enclave = load_enclave_nf(&platform, &author, DpiCounter::default()).unwrap();
        assert!(enclave.ecall(OP_PROCESS_BATCH, &[0, 0, 0, 99, 1]).is_err());
    }
}
