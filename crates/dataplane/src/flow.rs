//! OpenFlow-style flow matching and actions.

use crate::wire::{
    EthernetFrame, Ipv4Packet, MacAddr, Protocol, TcpSegment, UdpDatagram, ETHERTYPE_IPV4,
};
use std::net::Ipv4Addr;

/// The fields a flow entry can match on, extracted from a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    pub in_port: u16,
    pub eth_src: MacAddr,
    pub eth_dst: MacAddr,
    pub ethertype: u16,
    pub ip_src: Option<Ipv4Addr>,
    pub ip_dst: Option<Ipv4Addr>,
    pub protocol: Option<Protocol>,
    pub tp_src: Option<u16>,
    pub tp_dst: Option<u16>,
}

impl FlowKey {
    /// Extract the key from a raw frame arriving on `in_port`.
    pub fn extract(frame_bytes: &[u8], in_port: u16) -> Option<FlowKey> {
        let eth = EthernetFrame::parse(frame_bytes).ok()?;
        let mut key = FlowKey {
            in_port,
            eth_src: eth.src,
            eth_dst: eth.dst,
            ethertype: eth.ethertype,
            ip_src: None,
            ip_dst: None,
            protocol: None,
            tp_src: None,
            tp_dst: None,
        };
        if eth.ethertype == ETHERTYPE_IPV4 {
            if let Ok(ip) = Ipv4Packet::parse(&eth.payload) {
                key.ip_src = Some(ip.src);
                key.ip_dst = Some(ip.dst);
                key.protocol = Some(ip.protocol);
                match ip.protocol {
                    Protocol::Udp => {
                        if let Ok(udp) = UdpDatagram::parse(&ip.payload) {
                            key.tp_src = Some(udp.src_port);
                            key.tp_dst = Some(udp.dst_port);
                        }
                    }
                    Protocol::Tcp => {
                        if let Ok(tcp) = TcpSegment::parse(&ip.payload) {
                            key.tp_src = Some(tcp.src_port);
                            key.tp_dst = Some(tcp.dst_port);
                        }
                    }
                    Protocol::Other(_) => {}
                }
            }
        }
        Some(key)
    }
}

/// A wildcard-able match over [`FlowKey`] fields (None = any).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowMatch {
    pub in_port: Option<u16>,
    pub eth_src: Option<MacAddr>,
    pub eth_dst: Option<MacAddr>,
    pub ip_src: Option<Ipv4Addr>,
    pub ip_dst: Option<Ipv4Addr>,
    pub protocol: Option<Protocol>,
    pub tp_src: Option<u16>,
    pub tp_dst: Option<u16>,
}

impl FlowMatch {
    /// Match anything.
    pub fn any() -> FlowMatch {
        FlowMatch::default()
    }

    pub fn on_port(mut self, port: u16) -> FlowMatch {
        self.in_port = Some(port);
        self
    }

    pub fn from_ip(mut self, ip: Ipv4Addr) -> FlowMatch {
        self.ip_src = Some(ip);
        self
    }

    pub fn to_ip(mut self, ip: Ipv4Addr) -> FlowMatch {
        self.ip_dst = Some(ip);
        self
    }

    pub fn with_protocol(mut self, protocol: Protocol) -> FlowMatch {
        self.protocol = Some(protocol);
        self
    }

    pub fn to_tp_port(mut self, port: u16) -> FlowMatch {
        self.tp_dst = Some(port);
        self
    }

    pub fn matches(&self, key: &FlowKey) -> bool {
        fn field<T: PartialEq>(rule: &Option<T>, actual: &T) -> bool {
            rule.as_ref().is_none_or(|want| want == actual)
        }
        fn opt_field<T: PartialEq>(rule: &Option<T>, actual: &Option<T>) -> bool {
            match rule {
                None => true,
                Some(want) => actual.as_ref() == Some(want),
            }
        }
        field(&self.in_port, &key.in_port)
            && field(&self.eth_src, &key.eth_src)
            && field(&self.eth_dst, &key.eth_dst)
            && opt_field(&self.ip_src, &key.ip_src)
            && opt_field(&self.ip_dst, &key.ip_dst)
            && opt_field(&self.protocol, &key.protocol)
            && opt_field(&self.tp_src, &key.tp_src)
            && opt_field(&self.tp_dst, &key.tp_dst)
    }
}

/// Actions applied to matching packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowAction {
    /// Forward out a port.
    Output(u16),
    /// Drop the packet.
    Drop,
    /// Punt to the controller (packet-in).
    Controller,
    /// Rewrite the IPv4 destination (DNAT-style).
    SetIpDst(Ipv4Addr),
    /// Rewrite the IPv4 source (SNAT-style).
    SetIpSrc(Ipv4Addr),
    /// Rewrite the transport destination port.
    SetTpDst(u16),
}

/// One installed flow entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEntry {
    pub name: String,
    pub priority: u16,
    pub matcher: FlowMatch,
    pub actions: Vec<FlowAction>,
    pub packets: u64,
    pub bytes: u64,
}

impl FlowEntry {
    pub fn new(
        name: &str,
        priority: u16,
        matcher: FlowMatch,
        actions: Vec<FlowAction>,
    ) -> FlowEntry {
        FlowEntry {
            name: name.to_string(),
            priority,
            matcher,
            actions,
            packets: 0,
            bytes: 0,
        }
    }
}

/// A priority-ordered flow table.
#[derive(Debug, Default)]
pub struct FlowTable {
    entries: Vec<FlowEntry>,
    lookups: u64,
    misses: u64,
}

impl FlowTable {
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Install (or replace, by name) an entry, keeping priority order.
    pub fn install(&mut self, entry: FlowEntry) {
        self.entries.retain(|e| e.name != entry.name);
        let position = self
            .entries
            .partition_point(|e| e.priority >= entry.priority);
        self.entries.insert(position, entry);
    }

    /// Remove an entry by name; returns whether it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.name != name);
        self.entries.len() != before
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[FlowEntry] {
        &self.entries
    }

    pub fn get(&self, name: &str) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Look up the highest-priority match, updating counters.
    pub fn lookup(&mut self, key: &FlowKey, frame_len: usize) -> Option<&FlowEntry> {
        self.lookups += 1;
        let index = self.entries.iter().position(|e| e.matcher.matches(key));
        match index {
            Some(i) => {
                self.entries[i].packets += 1;
                self.entries[i].bytes += frame_len as u64;
                Some(&self.entries[i])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }
}

/// Apply rewrite actions to a frame, returning the output decision.
///
/// Returns `(forward_port, rewritten_frame)`; `None` means dropped or
/// punted (indicated by the boolean `to_controller`).
#[derive(Debug, PartialEq, Eq)]
pub enum Disposition {
    Forward { port: u16, frame: Vec<u8> },
    Drop,
    ToController,
}

pub fn apply_actions(actions: &[FlowAction], frame_bytes: &[u8]) -> Disposition {
    let mut frame = match EthernetFrame::parse(frame_bytes) {
        Ok(f) => f,
        Err(_) => return Disposition::Drop,
    };
    let mut output: Option<u16> = None;
    for action in actions {
        match action {
            FlowAction::Drop => return Disposition::Drop,
            FlowAction::Controller => return Disposition::ToController,
            FlowAction::Output(port) => output = Some(*port),
            FlowAction::SetIpDst(ip) | FlowAction::SetIpSrc(ip) => {
                if let Ok(mut packet) = Ipv4Packet::parse(&frame.payload) {
                    let set_dst = matches!(action, FlowAction::SetIpDst(_));
                    // Transport checksums cover the pseudo-header: rebuild it.
                    let payload = rebuild_transport(&packet, |p| {
                        if set_dst {
                            p.dst = *ip;
                        } else {
                            p.src = *ip;
                        }
                    });
                    if set_dst {
                        packet.dst = *ip;
                    } else {
                        packet.src = *ip;
                    }
                    packet.payload = payload.unwrap_or(packet.payload);
                    frame.payload = packet.emit();
                }
            }
            FlowAction::SetTpDst(port) => {
                if let Ok(mut packet) = Ipv4Packet::parse(&frame.payload) {
                    match packet.protocol {
                        Protocol::Udp => {
                            if let Ok(mut udp) = UdpDatagram::parse(&packet.payload) {
                                udp.dst_port = *port;
                                packet.payload = udp.emit(packet.src, packet.dst);
                            }
                        }
                        Protocol::Tcp => {
                            if let Ok(mut tcp) = TcpSegment::parse(&packet.payload) {
                                tcp.dst_port = *port;
                                packet.payload = tcp.emit(packet.src, packet.dst);
                            }
                        }
                        Protocol::Other(_) => {}
                    }
                    frame.payload = packet.emit();
                }
            }
        }
    }
    match output {
        Some(port) => Disposition::Forward {
            port,
            frame: frame.emit(),
        },
        None => Disposition::Drop,
    }
}

/// Re-emit the transport payload under new IP addresses (checksum refresh).
fn rebuild_transport(packet: &Ipv4Packet, mutate: impl FnOnce(&mut Ipv4Packet)) -> Option<Vec<u8>> {
    let mut updated = packet.clone();
    mutate(&mut updated);
    match packet.protocol {
        Protocol::Udp => UdpDatagram::parse(&packet.payload)
            .ok()
            .map(|udp| udp.emit(updated.src, updated.dst)),
        Protocol::Tcp => TcpSegment::parse(&packet.payload)
            .ok()
            .map(|tcp| tcp.emit(updated.src, updated.dst)),
        Protocol::Other(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::build_udp_frame;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn frame(src: u8, dst: u8, dst_port: u16) -> Vec<u8> {
        build_udp_frame(
            MacAddr([src; 6]),
            MacAddr([dst; 6]),
            ip(src),
            ip(dst),
            40_000,
            dst_port,
            b"data",
        )
    }

    #[test]
    fn key_extraction() {
        let key = FlowKey::extract(&frame(1, 2, 6653), 3).unwrap();
        assert_eq!(key.in_port, 3);
        assert_eq!(key.ip_src, Some(ip(1)));
        assert_eq!(key.ip_dst, Some(ip(2)));
        assert_eq!(key.protocol, Some(Protocol::Udp));
        assert_eq!(key.tp_dst, Some(6653));
    }

    #[test]
    fn key_extraction_non_ip() {
        let eth = EthernetFrame {
            dst: MacAddr([1; 6]),
            src: MacAddr([2; 6]),
            ethertype: 0x0806, // ARP
            payload: vec![0; 28],
        };
        let key = FlowKey::extract(&eth.emit(), 1).unwrap();
        assert_eq!(key.ip_src, None);
        assert_eq!(key.tp_dst, None);
    }

    #[test]
    fn wildcard_matching() {
        let key = FlowKey::extract(&frame(1, 2, 80), 5).unwrap();
        assert!(FlowMatch::any().matches(&key));
        assert!(FlowMatch::any().on_port(5).matches(&key));
        assert!(!FlowMatch::any().on_port(6).matches(&key));
        assert!(FlowMatch::any().from_ip(ip(1)).to_ip(ip(2)).matches(&key));
        assert!(!FlowMatch::any().from_ip(ip(9)).matches(&key));
        assert!(FlowMatch::any()
            .with_protocol(Protocol::Udp)
            .to_tp_port(80)
            .matches(&key));
        assert!(!FlowMatch::any().to_tp_port(81).matches(&key));
    }

    #[test]
    fn specified_field_on_non_ip_never_matches() {
        let eth = EthernetFrame {
            dst: MacAddr([1; 6]),
            src: MacAddr([2; 6]),
            ethertype: 0x0806,
            payload: vec![],
        };
        let key = FlowKey::extract(&eth.emit(), 1).unwrap();
        assert!(!FlowMatch::any().from_ip(ip(1)).matches(&key));
    }

    #[test]
    fn priority_ordering_and_counters() {
        let mut table = FlowTable::new();
        table.install(FlowEntry::new(
            "default-drop",
            0,
            FlowMatch::any(),
            vec![FlowAction::Drop],
        ));
        table.install(FlowEntry::new(
            "allow-controller",
            100,
            FlowMatch::any().to_tp_port(6653),
            vec![FlowAction::Output(2)],
        ));
        let controller_key = FlowKey::extract(&frame(1, 2, 6653), 1).unwrap();
        let other_key = FlowKey::extract(&frame(1, 2, 80), 1).unwrap();

        assert_eq!(
            table.lookup(&controller_key, 100).unwrap().name,
            "allow-controller"
        );
        assert_eq!(table.lookup(&other_key, 60).unwrap().name, "default-drop");
        assert_eq!(table.get("allow-controller").unwrap().packets, 1);
        assert_eq!(table.get("allow-controller").unwrap().bytes, 100);
        assert_eq!(table.stats(), (2, 0));
    }

    #[test]
    fn miss_counted() {
        let mut table = FlowTable::new();
        table.install(FlowEntry::new(
            "only-port-9",
            1,
            FlowMatch::any().on_port(9),
            vec![FlowAction::Output(1)],
        ));
        let key = FlowKey::extract(&frame(1, 2, 80), 1).unwrap();
        assert!(table.lookup(&key, 10).is_none());
        assert_eq!(table.stats(), (1, 1));
    }

    #[test]
    fn replace_by_name() {
        let mut table = FlowTable::new();
        table.install(FlowEntry::new(
            "f",
            1,
            FlowMatch::any(),
            vec![FlowAction::Drop],
        ));
        table.install(FlowEntry::new(
            "f",
            5,
            FlowMatch::any(),
            vec![FlowAction::Output(1)],
        ));
        assert_eq!(table.len(), 1);
        assert_eq!(table.get("f").unwrap().priority, 5);
        assert!(table.remove("f"));
        assert!(!table.remove("f"));
    }

    #[test]
    fn forward_action() {
        let bytes = frame(1, 2, 80);
        match apply_actions(&[FlowAction::Output(7)], &bytes) {
            Disposition::Forward { port, frame } => {
                assert_eq!(port, 7);
                assert_eq!(frame, bytes);
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn drop_and_controller() {
        let bytes = frame(1, 2, 80);
        assert_eq!(
            apply_actions(&[FlowAction::Drop], &bytes),
            Disposition::Drop
        );
        assert_eq!(
            apply_actions(&[FlowAction::Controller], &bytes),
            Disposition::ToController
        );
        // No output action at all behaves as drop.
        assert_eq!(apply_actions(&[], &bytes), Disposition::Drop);
    }

    #[test]
    fn dnat_rewrite_keeps_checksums_valid() {
        let bytes = frame(1, 2, 80);
        let actions = [
            FlowAction::SetIpDst(ip(99)),
            FlowAction::SetTpDst(8080),
            FlowAction::Output(3),
        ];
        match apply_actions(&actions, &bytes) {
            Disposition::Forward { frame, .. } => {
                let eth = EthernetFrame::parse(&frame).unwrap();
                let packet = Ipv4Packet::parse(&eth.payload).unwrap();
                assert_eq!(packet.dst, ip(99));
                let udp = UdpDatagram::parse(&packet.payload).unwrap();
                assert_eq!(udp.dst_port, 8080);
                assert!(UdpDatagram::verify_checksum(
                    &packet.payload,
                    packet.src,
                    packet.dst
                ));
            }
            other => panic!("expected forward, got {other:?}"),
        }
    }
}
