//! Flow specifications in the static-flow-pusher JSON dialect.

use std::net::Ipv4Addr;
use vnfguard_dataplane::flow::{FlowAction, FlowEntry, FlowMatch};
use vnfguard_dataplane::wire::Protocol;
use vnfguard_encoding::Json;

/// A named flow bound to a switch, convertible to/from the REST JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    pub name: String,
    pub dpid: u64,
    pub priority: u16,
    pub matcher: FlowMatch,
    pub actions: Vec<FlowAction>,
}

impl FlowSpec {
    /// Convert to a dataplane flow entry (for installation on a switch).
    pub fn to_entry(&self) -> FlowEntry {
        FlowEntry::new(
            &self.name,
            self.priority,
            self.matcher.clone(),
            self.actions.clone(),
        )
    }

    /// Encode as the static-flow-pusher JSON body.
    pub fn to_json(&self) -> Json {
        let mut doc = Json::object()
            .with("switch", format!("{:016x}", self.dpid))
            .with("name", self.name.as_str())
            .with("priority", self.priority as i64);
        if let Some(port) = self.matcher.in_port {
            doc.set("in_port", port as i64);
        }
        if let Some(ip) = self.matcher.ip_src {
            doc.set("ipv4_src", ip.to_string());
        }
        if let Some(ip) = self.matcher.ip_dst {
            doc.set("ipv4_dst", ip.to_string());
        }
        if let Some(protocol) = self.matcher.protocol {
            doc.set("ip_proto", protocol.number() as i64);
        }
        if let Some(port) = self.matcher.tp_src {
            doc.set("tp_src", port as i64);
        }
        if let Some(port) = self.matcher.tp_dst {
            doc.set("tp_dst", port as i64);
        }
        let actions: Vec<String> = self
            .actions
            .iter()
            .map(|action| match action {
                FlowAction::Output(port) => format!("output={port}"),
                FlowAction::Drop => "drop".to_string(),
                FlowAction::Controller => "controller".to_string(),
                FlowAction::SetIpDst(ip) => format!("set_ipv4_dst={ip}"),
                FlowAction::SetIpSrc(ip) => format!("set_ipv4_src={ip}"),
                FlowAction::SetTpDst(port) => format!("set_tp_dst={port}"),
            })
            .collect();
        doc.set("actions", actions.join(","));
        doc
    }

    /// Parse from the static-flow-pusher JSON body.
    pub fn from_json(doc: &Json) -> Result<FlowSpec, String> {
        let dpid_str = doc
            .get("switch")
            .and_then(Json::as_str)
            .ok_or("missing 'switch'")?;
        let dpid = u64::from_str_radix(&dpid_str.replace(':', ""), 16)
            .map_err(|_| format!("bad switch dpid {dpid_str:?}"))?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing 'name'")?
            .to_string();
        let priority = doc
            .get("priority")
            .and_then(Json::as_i64)
            .unwrap_or(100)
            .clamp(0, u16::MAX as i64) as u16;

        let mut matcher = FlowMatch::any();
        if let Some(port) = doc.get("in_port").and_then(Json::as_i64) {
            matcher.in_port = Some(port as u16);
        }
        if let Some(ip) = doc.get("ipv4_src").and_then(Json::as_str) {
            matcher.ip_src = Some(parse_ip(ip)?);
        }
        if let Some(ip) = doc.get("ipv4_dst").and_then(Json::as_str) {
            matcher.ip_dst = Some(parse_ip(ip)?);
        }
        if let Some(protocol) = doc.get("ip_proto").and_then(Json::as_i64) {
            matcher.protocol = Some(Protocol::from_number(protocol as u8));
        }
        if let Some(port) = doc.get("tp_src").and_then(Json::as_i64) {
            matcher.tp_src = Some(port as u16);
        }
        if let Some(port) = doc.get("tp_dst").and_then(Json::as_i64) {
            matcher.tp_dst = Some(port as u16);
        }

        let actions_str = doc
            .get("actions")
            .and_then(Json::as_str)
            .ok_or("missing 'actions'")?;
        let mut actions = Vec::new();
        for part in actions_str.split(',').filter(|s| !s.is_empty()) {
            actions.push(parse_action(part.trim())?);
        }
        Ok(FlowSpec {
            name,
            dpid,
            priority,
            matcher,
            actions,
        })
    }
}

fn parse_ip(s: &str) -> Result<Ipv4Addr, String> {
    s.parse().map_err(|_| format!("bad IPv4 address {s:?}"))
}

fn parse_action(s: &str) -> Result<FlowAction, String> {
    if s == "drop" {
        return Ok(FlowAction::Drop);
    }
    if s == "controller" {
        return Ok(FlowAction::Controller);
    }
    let (kind, value) = s.split_once('=').ok_or(format!("bad action {s:?}"))?;
    match kind {
        "output" => value
            .parse()
            .map(FlowAction::Output)
            .map_err(|_| format!("bad port {value:?}")),
        "set_ipv4_dst" => parse_ip(value).map(FlowAction::SetIpDst),
        "set_ipv4_src" => parse_ip(value).map(FlowAction::SetIpSrc),
        "set_tp_dst" => value
            .parse()
            .map(FlowAction::SetTpDst)
            .map_err(|_| format!("bad port {value:?}")),
        other => Err(format!("unknown action {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlowSpec {
        FlowSpec {
            name: "fw-allow-dns".into(),
            dpid: 0x00aa,
            priority: 150,
            matcher: FlowMatch::any()
                .on_port(1)
                .from_ip(Ipv4Addr::new(10, 0, 0, 5))
                .with_protocol(Protocol::Udp)
                .to_tp_port(53),
            actions: vec![FlowAction::Output(2)],
        }
    }

    #[test]
    fn json_roundtrip() {
        let spec = sample();
        let doc = spec.to_json();
        assert_eq!(FlowSpec::from_json(&doc).unwrap(), spec);
    }

    #[test]
    fn roundtrip_all_actions() {
        let spec = FlowSpec {
            name: "nat".into(),
            dpid: 1,
            priority: 10,
            matcher: FlowMatch::any(),
            actions: vec![
                FlowAction::SetIpDst(Ipv4Addr::new(192, 168, 0, 1)),
                FlowAction::SetIpSrc(Ipv4Addr::new(172, 16, 0, 1)),
                FlowAction::SetTpDst(8080),
                FlowAction::Output(4),
            ],
        };
        assert_eq!(FlowSpec::from_json(&spec.to_json()).unwrap(), spec);
        let drop = FlowSpec {
            actions: vec![FlowAction::Drop],
            ..spec.clone()
        };
        assert_eq!(FlowSpec::from_json(&drop.to_json()).unwrap(), drop);
        let punt = FlowSpec {
            actions: vec![FlowAction::Controller],
            ..spec
        };
        assert_eq!(FlowSpec::from_json(&punt.to_json()).unwrap(), punt);
    }

    #[test]
    fn accepts_colon_separated_dpid() {
        let mut doc = sample().to_json();
        doc.set("switch", "00:00:00:00:00:00:00:aa");
        assert_eq!(FlowSpec::from_json(&doc).unwrap().dpid, 0xaa);
    }

    #[test]
    fn missing_fields_rejected() {
        for field in ["switch", "name", "actions"] {
            let doc = sample().to_json();
            let filtered = Json::Object(
                doc.as_object()
                    .unwrap()
                    .iter()
                    .filter(|(k, _)| k != field)
                    .cloned()
                    .collect(),
            );
            assert!(FlowSpec::from_json(&filtered).is_err(), "without {field}");
        }
    }

    #[test]
    fn bad_values_rejected() {
        let mut doc = sample().to_json();
        doc.set("ipv4_src", "not-an-ip");
        assert!(FlowSpec::from_json(&doc).is_err());
        let mut doc = sample().to_json();
        doc.set("actions", "teleport=3");
        assert!(FlowSpec::from_json(&doc).is_err());
        let mut doc = sample().to_json();
        doc.set("actions", "output=notaport");
        assert!(FlowSpec::from_json(&doc).is_err());
    }

    #[test]
    fn default_priority() {
        let doc = Json::object()
            .with("switch", "01")
            .with("name", "f")
            .with("actions", "drop");
        assert_eq!(FlowSpec::from_json(&doc).unwrap().priority, 100);
    }

    #[test]
    fn to_entry_preserves_fields() {
        let entry = sample().to_entry();
        assert_eq!(entry.name, "fw-allow-dns");
        assert_eq!(entry.priority, 150);
        assert_eq!(entry.actions, vec![FlowAction::Output(2)]);
    }
}
