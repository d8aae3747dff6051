//! Property tests: FlowSpec ↔ static-flow-pusher JSON is a faithful
//! round trip for every representable flow.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use vnfguard_controller::flowspec::FlowSpec;
use vnfguard_dataplane::flow::{FlowAction, FlowMatch};
use vnfguard_dataplane::wire::Protocol;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(any::<u16>()),
        proptest::option::of(arb_ip()),
        proptest::option::of(arb_ip()),
        proptest::option::of(any::<u8>().prop_map(Protocol::from_number)),
        proptest::option::of(any::<u16>()),
        proptest::option::of(any::<u16>()),
    )
        .prop_map(
            |(in_port, ip_src, ip_dst, protocol, tp_src, tp_dst)| FlowMatch {
                in_port,
                eth_src: None,
                eth_dst: None,
                ip_src,
                ip_dst,
                protocol,
                tp_src,
                tp_dst,
            },
        )
}

fn arb_action() -> impl Strategy<Value = FlowAction> {
    prop_oneof![
        any::<u16>().prop_map(FlowAction::Output),
        Just(FlowAction::Drop),
        Just(FlowAction::Controller),
        arb_ip().prop_map(FlowAction::SetIpDst),
        arb_ip().prop_map(FlowAction::SetIpSrc),
        any::<u16>().prop_map(FlowAction::SetTpDst),
    ]
}

fn arb_spec() -> impl Strategy<Value = FlowSpec> {
    (
        "[a-z][a-z0-9-]{0,20}",
        any::<u64>(),
        any::<u16>(),
        arb_match(),
        proptest::collection::vec(arb_action(), 1..5),
    )
        .prop_map(|(name, dpid, priority, matcher, actions)| FlowSpec {
            name,
            dpid,
            priority,
            matcher,
            actions,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn json_roundtrip(spec in arb_spec()) {
        let doc = spec.to_json();
        let decoded = FlowSpec::from_json(&doc)
            .unwrap_or_else(|e| panic!("failed to reparse {doc}: {e}"));
        prop_assert_eq!(decoded, spec);
    }

    #[test]
    fn to_entry_is_lossless_for_table_semantics(spec in arb_spec()) {
        let entry = spec.to_entry();
        prop_assert_eq!(&entry.name, &spec.name);
        prop_assert_eq!(entry.priority, spec.priority);
        prop_assert_eq!(&entry.matcher, &spec.matcher);
        prop_assert_eq!(&entry.actions, &spec.actions);
    }

    #[test]
    fn from_json_never_panics_on_arbitrary_objects(
        fields in proptest::collection::vec(("[a-z_]{1,10}", "[ -~]{0,20}"), 0..8)
    ) {
        let mut doc = vnfguard_encoding::Json::object();
        for (k, v) in fields {
            doc.set(&k, v.as_str());
        }
        let _ = FlowSpec::from_json(&doc);
    }
}
