//! A flow-table-driven switch with MAC learning fallback.

use crate::flow::{apply_actions, Disposition, FlowEntry, FlowKey, FlowTable};
use crate::wire::{EthernetFrame, MacAddr};
use std::collections::HashMap;

/// A packet punted to the controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketIn {
    pub in_port: u16,
    pub frame: Vec<u8>,
}

/// Forwarding decision produced by the switch for one input frame.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SwitchOutput {
    /// (out_port, frame) pairs to transmit.
    pub transmit: Vec<(u16, Vec<u8>)>,
    /// Packet-in event for the controller, if punted.
    pub packet_in: Option<PacketIn>,
}

/// A simulated switch: datapath id, port set, flow table, MAC learning.
#[derive(Debug)]
pub struct Switch {
    pub dpid: u64,
    ports: Vec<u16>,
    table: FlowTable,
    mac_table: HashMap<MacAddr, u16>,
    packets_switched: u64,
    packets_dropped: u64,
}

impl Switch {
    pub fn new(dpid: u64, ports: Vec<u16>) -> Switch {
        Switch {
            dpid,
            ports,
            table: FlowTable::new(),
            mac_table: HashMap::new(),
            packets_switched: 0,
            packets_dropped: 0,
        }
    }

    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    pub fn flow_table(&self) -> &FlowTable {
        &self.table
    }

    /// Install a flow (from the controller).
    pub fn install_flow(&mut self, entry: FlowEntry) {
        self.table.install(entry);
    }

    pub fn stats(&self) -> (u64, u64) {
        (self.packets_switched, self.packets_dropped)
    }

    /// Process one frame received on `in_port`.
    ///
    /// Matching flow entries decide; otherwise the switch falls back to
    /// MAC-learning forwarding (flood unknown destinations).
    pub fn receive(&mut self, in_port: u16, frame_bytes: &[u8]) -> SwitchOutput {
        let mut output = SwitchOutput::default();
        let Ok(eth) = EthernetFrame::parse(frame_bytes) else {
            self.packets_dropped += 1;
            return output;
        };
        // Learn the source MAC.
        self.mac_table.insert(eth.src, in_port);

        if let Some(key) = FlowKey::extract(frame_bytes, in_port) {
            if let Some(entry) = self.table.lookup(&key, frame_bytes.len()) {
                let actions = entry.actions.clone();
                match apply_actions(&actions, frame_bytes) {
                    Disposition::Forward { port, frame } => {
                        self.packets_switched += 1;
                        output.transmit.push((port, frame));
                    }
                    Disposition::Drop => {
                        self.packets_dropped += 1;
                    }
                    Disposition::ToController => {
                        output.packet_in = Some(PacketIn {
                            in_port,
                            frame: frame_bytes.to_vec(),
                        });
                    }
                }
                return output;
            }
        }

        // Table miss: MAC learning datapath.
        match self.mac_table.get(&eth.dst) {
            Some(&port) if port != in_port => {
                self.packets_switched += 1;
                output.transmit.push((port, frame_bytes.to_vec()));
            }
            Some(_) => {
                // Destination is on the ingress port: drop (hairpin).
                self.packets_dropped += 1;
            }
            None => {
                // Flood to all other ports.
                self.packets_switched += 1;
                for &port in &self.ports {
                    if port != in_port {
                        output.transmit.push((port, frame_bytes.to_vec()));
                    }
                }
            }
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowAction, FlowMatch};
    use crate::wire::build_udp_frame;
    use std::net::Ipv4Addr;

    fn ip(a: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, a)
    }

    fn mac(a: u8) -> MacAddr {
        MacAddr([a; 6])
    }

    fn frame(src: u8, dst: u8) -> Vec<u8> {
        build_udp_frame(mac(src), mac(dst), ip(src), ip(dst), 1, 2, b"x")
    }

    #[test]
    fn floods_unknown_then_learns() {
        let mut sw = Switch::new(1, vec![1, 2, 3]);
        // Host A (port 1) talks to unknown B: flood to 2 and 3.
        let out = sw.receive(1, &frame(0xa, 0xb));
        assert_eq!(out.transmit.len(), 2);
        // B replies from port 2: now A is known, unicast to port 1.
        let out = sw.receive(2, &frame(0xb, 0xa));
        assert_eq!(out.transmit.len(), 1);
        assert_eq!(out.transmit[0].0, 1);
        // A to B again: unicast to 2.
        let out = sw.receive(1, &frame(0xa, 0xb));
        assert_eq!(out.transmit.len(), 1);
        assert_eq!(out.transmit[0].0, 2);
    }

    #[test]
    fn flow_entries_override_learning() {
        let mut sw = Switch::new(1, vec![1, 2]);
        sw.install_flow(FlowEntry::new(
            "block-a",
            10,
            FlowMatch::any().from_ip(ip(0xa)),
            vec![FlowAction::Drop],
        ));
        let out = sw.receive(1, &frame(0xa, 0xb));
        assert!(out.transmit.is_empty());
        assert_eq!(sw.stats().1, 1);
        // Other traffic still floods.
        let out = sw.receive(1, &frame(0xc, 0xb));
        assert_eq!(out.transmit.len(), 1);
    }

    #[test]
    fn punt_to_controller() {
        let mut sw = Switch::new(1, vec![1, 2]);
        sw.install_flow(FlowEntry::new(
            "punt",
            5,
            FlowMatch::any(),
            vec![FlowAction::Controller],
        ));
        let out = sw.receive(2, &frame(1, 2));
        assert!(out.transmit.is_empty());
        let packet_in = out.packet_in.unwrap();
        assert_eq!(packet_in.in_port, 2);
    }

    #[test]
    fn hairpin_dropped() {
        let mut sw = Switch::new(1, vec![1, 2]);
        // Learn A on port 1, then send traffic to A arriving on port 1.
        sw.receive(1, &frame(0xa, 0xff));
        let out = sw.receive(1, &frame(0xb, 0xa));
        // B is learned, A is on the same port => drop.
        assert!(out.transmit.is_empty());
    }

    #[test]
    fn malformed_frame_dropped() {
        let mut sw = Switch::new(1, vec![1]);
        let out = sw.receive(1, &[0u8; 5]);
        assert!(out.transmit.is_empty());
        assert_eq!(sw.stats().1, 1);
    }

    #[test]
    fn flow_rewrite_path() {
        let mut sw = Switch::new(1, vec![1, 2]);
        sw.install_flow(FlowEntry::new(
            "dnat",
            10,
            FlowMatch::any().to_ip(ip(2)),
            vec![FlowAction::SetIpDst(ip(9)), FlowAction::Output(2)],
        ));
        let out = sw.receive(1, &frame(1, 2));
        assert_eq!(out.transmit.len(), 1);
        let eth = EthernetFrame::parse(&out.transmit[0].1).unwrap();
        let packet = crate::wire::Ipv4Packet::parse(&eth.payload).unwrap();
        assert_eq!(packet.dst, ip(9));
    }
}
