//! Packet wire formats: Ethernet II, IPv4, UDP and TCP.
//!
//! Parsing is zero-allocation over byte slices with strict validation;
//! emission allocates the exact frame. The IPv4 header checksum is computed
//! and verified; UDP/TCP checksums use the IPv4 pseudo-header.

use crate::ParseError;
use std::net::Ipv4Addr;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// IP protocol numbers carried in this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    Udp,
    Tcp,
    Other(u8),
}

impl Protocol {
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Other(n) => n,
        }
    }

    pub fn from_number(n: u8) -> Protocol {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Other(other),
        }
    }
}

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// Ethernet header length.
pub const ETH_HEADER_LEN: usize = 14;
/// IPv4 header length (no options in this model).
pub const IPV4_HEADER_LEN: usize = 20;
/// UDP header length.
pub const UDP_HEADER_LEN: usize = 8;
/// TCP header length (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// An owned Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: u16,
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    pub fn parse(bytes: &[u8]) -> Result<EthernetFrame, ParseError> {
        if bytes.len() < ETH_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: ETH_HEADER_LEN,
                got: bytes.len(),
            });
        }
        Ok(EthernetFrame {
            dst: MacAddr(bytes[0..6].try_into().expect("6")),
            src: MacAddr(bytes[6..12].try_into().expect("6")),
            ethertype: u16::from_be_bytes([bytes[12], bytes[13]]),
            payload: bytes[14..].to_vec(),
        })
    }

    pub fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETH_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }
}

fn ones_complement_sum(data: &[u8], initial: u32) -> u16 {
    let mut sum = initial;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, length: u16) -> u32 {
    let s = src.octets();
    let d = dst.octets();
    let mut sum = 0u32;
    sum += u16::from_be_bytes([s[0], s[1]]) as u32;
    sum += u16::from_be_bytes([s[2], s[3]]) as u32;
    sum += u16::from_be_bytes([d[0], d[1]]) as u32;
    sum += u16::from_be_bytes([d[2], d[3]]) as u32;
    sum += protocol as u32;
    sum += length as u32;
    sum
}

/// An owned IPv4 packet (options are unsupported, as in most NFV fast paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub protocol: Protocol,
    pub ttl: u8,
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    pub fn parse(bytes: &[u8]) -> Result<Ipv4Packet, ParseError> {
        if bytes.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: IPV4_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let version = bytes[0] >> 4;
        if version != 4 {
            return Err(ParseError::Unsupported("IP version"));
        }
        let ihl = (bytes[0] & 0x0f) as usize * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(ParseError::Unsupported("IPv4 options"));
        }
        let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
        if total_len < IPV4_HEADER_LEN || total_len > bytes.len() {
            return Err(ParseError::Truncated {
                needed: total_len,
                got: bytes.len(),
            });
        }
        if ones_complement_sum(&bytes[..IPV4_HEADER_LEN], 0) != 0 {
            return Err(ParseError::BadChecksum);
        }
        Ok(Ipv4Packet {
            src: Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]),
            dst: Ipv4Addr::new(bytes[16], bytes[17], bytes[18], bytes[19]),
            protocol: Protocol::from_number(bytes[9]),
            ttl: bytes[8],
            payload: bytes[IPV4_HEADER_LEN..total_len].to_vec(),
        })
    }

    pub fn emit(&self) -> Vec<u8> {
        let total_len = IPV4_HEADER_LEN + self.payload.len();
        let mut out = vec![0u8; total_len];
        out[0] = 0x45; // version 4, IHL 5
        out[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        out[8] = self.ttl;
        out[9] = self.protocol.number();
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let checksum = ones_complement_sum(&out[..IPV4_HEADER_LEN], 0);
        out[10..12].copy_from_slice(&checksum.to_be_bytes());
        out[IPV4_HEADER_LEN..].copy_from_slice(&self.payload);
        out
    }
}

/// An owned UDP datagram (relative to an enclosing IPv4 packet).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    pub src_port: u16,
    pub dst_port: u16,
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    pub fn parse(bytes: &[u8]) -> Result<UdpDatagram, ParseError> {
        if bytes.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: UDP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let length = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        if length < UDP_HEADER_LEN || length > bytes.len() {
            return Err(ParseError::Truncated {
                needed: length,
                got: bytes.len(),
            });
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            payload: bytes[UDP_HEADER_LEN..length].to_vec(),
        })
    }

    /// Emit with a checksum over the IPv4 pseudo-header.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let length = UDP_HEADER_LEN + self.payload.len();
        let mut out = vec![0u8; length];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&(length as u16).to_be_bytes());
        out[UDP_HEADER_LEN..].copy_from_slice(&self.payload);
        let pseudo = pseudo_header_sum(src, dst, 17, length as u16);
        let mut checksum = ones_complement_sum(&out, pseudo);
        if checksum == 0 {
            checksum = 0xffff;
        }
        out[6..8].copy_from_slice(&checksum.to_be_bytes());
        out
    }

    /// Verify the checksum against the pseudo-header.
    pub fn verify_checksum(bytes: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if bytes.len() < UDP_HEADER_LEN {
            return false;
        }
        let pseudo = pseudo_header_sum(src, dst, 17, bytes.len() as u16);
        ones_complement_sum(bytes, pseudo) == 0
    }
}

/// TCP flag bits.
pub mod tcp_flags {
    pub const FIN: u8 = 0x01;
    pub const SYN: u8 = 0x02;
    pub const RST: u8 = 0x04;
    pub const ACK: u8 = 0x10;
}

/// An owned TCP segment (no options).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: u8,
    pub window: u16,
    pub payload: Vec<u8>,
}

impl TcpSegment {
    pub fn parse(bytes: &[u8]) -> Result<TcpSegment, ParseError> {
        if bytes.len() < TCP_HEADER_LEN {
            return Err(ParseError::Truncated {
                needed: TCP_HEADER_LEN,
                got: bytes.len(),
            });
        }
        let data_offset = (bytes[12] >> 4) as usize * 4;
        if data_offset < TCP_HEADER_LEN || data_offset > bytes.len() {
            return Err(ParseError::Unsupported("TCP data offset"));
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            seq: u32::from_be_bytes(bytes[4..8].try_into().expect("4")),
            ack: u32::from_be_bytes(bytes[8..12].try_into().expect("4")),
            flags: bytes[13],
            window: u16::from_be_bytes([bytes[14], bytes[15]]),
            payload: bytes[data_offset..].to_vec(),
        })
    }

    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let length = TCP_HEADER_LEN + self.payload.len();
        let mut out = vec![0u8; length];
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = (TCP_HEADER_LEN as u8 / 4) << 4;
        out[13] = self.flags;
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[TCP_HEADER_LEN..].copy_from_slice(&self.payload);
        let pseudo = pseudo_header_sum(src, dst, 6, length as u16);
        let checksum = ones_complement_sum(&out, pseudo);
        out[16..18].copy_from_slice(&checksum.to_be_bytes());
        out
    }
}

/// Convenience builder: a full Ethernet/IPv4/UDP frame.
pub fn build_udp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let udp = UdpDatagram {
        src_port,
        dst_port,
        payload: payload.to_vec(),
    };
    let ip = Ipv4Packet {
        src,
        dst,
        protocol: Protocol::Udp,
        ttl: 64,
        payload: udp.emit(src, dst),
    };
    EthernetFrame {
        dst: dst_mac,
        src: src_mac,
        ethertype: ETHERTYPE_IPV4,
        payload: ip.emit(),
    }
    .emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    #[test]
    fn ethernet_roundtrip() {
        let frame = EthernetFrame {
            dst: MacAddr([1; 6]),
            src: MacAddr([2; 6]),
            ethertype: ETHERTYPE_IPV4,
            payload: vec![9, 9, 9],
        };
        assert_eq!(EthernetFrame::parse(&frame.emit()).unwrap(), frame);
    }

    #[test]
    fn ethernet_truncated() {
        assert!(matches!(
            EthernetFrame::parse(&[0; 13]),
            Err(ParseError::Truncated { .. })
        ));
    }

    #[test]
    fn ipv4_roundtrip_and_checksum() {
        let packet = Ipv4Packet {
            src: ip(1),
            dst: ip(2),
            protocol: Protocol::Udp,
            ttl: 64,
            payload: vec![1, 2, 3, 4, 5],
        };
        let bytes = packet.emit();
        assert_eq!(Ipv4Packet::parse(&bytes).unwrap(), packet);
        // Header corruption is detected by the checksum.
        let mut bad = bytes.clone();
        bad[8] ^= 0xff; // TTL
        assert_eq!(Ipv4Packet::parse(&bad), Err(ParseError::BadChecksum));
    }

    #[test]
    fn ipv4_rejects_v6_and_options() {
        let packet = Ipv4Packet {
            src: ip(1),
            dst: ip(2),
            protocol: Protocol::Tcp,
            ttl: 1,
            payload: vec![],
        };
        let mut bytes = packet.emit();
        bytes[0] = 0x60; // version 6
        assert!(matches!(
            Ipv4Packet::parse(&bytes),
            Err(ParseError::Unsupported(_))
        ));
        let mut bytes = packet.emit();
        bytes[0] = 0x46; // IHL 6 (options)
        assert!(matches!(
            Ipv4Packet::parse(&bytes),
            Err(ParseError::Unsupported(_))
        ));
    }

    #[test]
    fn ipv4_trailing_bytes_ignored_via_total_length() {
        let packet = Ipv4Packet {
            src: ip(1),
            dst: ip(2),
            protocol: Protocol::Udp,
            ttl: 64,
            payload: vec![7; 10],
        };
        let mut bytes = packet.emit();
        bytes.extend_from_slice(&[0xee; 6]); // ethernet padding
        let parsed = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(parsed.payload, vec![7; 10]);
    }

    #[test]
    fn udp_roundtrip_and_checksum() {
        let udp = UdpDatagram {
            src_port: 5000,
            dst_port: 6653,
            payload: b"flow stats".to_vec(),
        };
        let bytes = udp.emit(ip(1), ip(2));
        assert_eq!(UdpDatagram::parse(&bytes).unwrap(), udp);
        assert!(UdpDatagram::verify_checksum(&bytes, ip(1), ip(2)));
        // Wrong pseudo-header (spoofed source) breaks the checksum.
        assert!(!UdpDatagram::verify_checksum(&bytes, ip(9), ip(2)));
        // Payload corruption breaks it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(!UdpDatagram::verify_checksum(&bad, ip(1), ip(2)));
    }

    #[test]
    fn tcp_roundtrip() {
        let segment = TcpSegment {
            src_port: 443,
            dst_port: 50000,
            seq: 0x01020304,
            ack: 0x0a0b0c0d,
            flags: tcp_flags::SYN | tcp_flags::ACK,
            window: 65535,
            payload: b"hello".to_vec(),
        };
        let bytes = segment.emit(ip(1), ip(2));
        assert_eq!(TcpSegment::parse(&bytes).unwrap(), segment);
    }

    #[test]
    fn full_frame_construction() {
        let frame_bytes = build_udp_frame(
            MacAddr([1; 6]),
            MacAddr([2; 6]),
            ip(1),
            ip(2),
            1234,
            5678,
            b"payload",
        );
        let eth = EthernetFrame::parse(&frame_bytes).unwrap();
        assert_eq!(eth.ethertype, ETHERTYPE_IPV4);
        let ipv4 = Ipv4Packet::parse(&eth.payload).unwrap();
        assert_eq!(ipv4.protocol, Protocol::Udp);
        let udp = UdpDatagram::parse(&ipv4.payload).unwrap();
        assert_eq!(udp.dst_port, 5678);
        assert_eq!(udp.payload, b"payload");
    }

    #[test]
    fn mac_display_and_broadcast() {
        assert_eq!(
            MacAddr([0xde, 0xad, 0, 1, 2, 3]).to_string(),
            "de:ad:00:01:02:03"
        );
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr([0; 6]).is_broadcast());
    }

    proptest! {
        #[test]
        fn prop_ipv4_roundtrip(
            src in any::<u32>(),
            dst in any::<u32>(),
            ttl in any::<u8>(),
            proto in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..200)
        ) {
            let packet = Ipv4Packet {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                protocol: Protocol::from_number(proto),
                ttl,
                payload,
            };
            prop_assert_eq!(Ipv4Packet::parse(&packet.emit()).unwrap(), packet);
        }

        #[test]
        fn prop_udp_checksum_detects_any_single_bitflip(
            payload in proptest::collection::vec(any::<u8>(), 1..64),
            flip_bit in 0usize..64
        ) {
            let udp = UdpDatagram { src_port: 1, dst_port: 2, payload };
            let mut bytes = udp.emit(Ipv4Addr::new(1,2,3,4), Ipv4Addr::new(5,6,7,8));
            let bit = flip_bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!UdpDatagram::verify_checksum(
                &bytes,
                Ipv4Addr::new(1,2,3,4),
                Ipv4Addr::new(5,6,7,8)
            ));
        }

        #[test]
        fn prop_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..100)) {
            let _ = EthernetFrame::parse(&bytes);
            let _ = Ipv4Packet::parse(&bytes);
            let _ = UdpDatagram::parse(&bytes);
            let _ = TcpSegment::parse(&bytes);
        }
    }
}
