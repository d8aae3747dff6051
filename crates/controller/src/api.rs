//! The north-bound REST API (Floodlight-style endpoints).

use crate::clock::SimClock;
use crate::flowspec::FlowSpec;
use crate::state::ControllerState;
use parking_lot::RwLock;
use std::sync::Arc;
use vnfguard_encoding::Json;
use vnfguard_net::http::{Request, Response, Status};
use vnfguard_net::rest::Router;
use vnfguard_telemetry::Telemetry;

fn peer_of(request: &Request) -> String {
    request
        .header("x-peer-cn")
        .unwrap_or("anonymous")
        .to_string()
}

/// Build the REST router over shared controller state. With `telemetry`,
/// requests carrying a `traceparent` header are recorded as server spans
/// attributed to the `controller` service, timestamped from the
/// controller's clock.
pub fn build_router(
    state: Arc<RwLock<ControllerState>>,
    clock: SimClock,
    telemetry: Option<&Telemetry>,
) -> Router {
    let mut router = Router::new();
    if let Some(telemetry) = telemetry {
        let trace_clock = clock.clone();
        router.instrument_traces(telemetry, "controller", move || trace_clock.now());
    }

    // GET /wm/core/controller/summary/json
    {
        let state = state.clone();
        router.get("/wm/core/controller/summary/json", move |_, _| {
            let s = state.read();
            Response::json(
                Status::Ok,
                &Json::object()
                    .with("# Switches", s.switch_count() as i64)
                    .with("# hosts", s.devices().len() as i64)
                    .with("# inter-switch links", s.links().len() as i64)
                    .with("# static flows", s.flow_count() as i64),
            )
        });
    }

    // GET /wm/core/controller/switches/json
    {
        let state = state.clone();
        router.get("/wm/core/controller/switches/json", move |_, _| {
            let s = state.read();
            let switches: Json = s
                .switches()
                .map(|sw| {
                    Json::object()
                        .with("switchDPID", format!("{:016x}", sw.dpid))
                        .with(
                            "ports",
                            sw.ports.iter().map(|&p| p as i64).collect::<Json>(),
                        )
                })
                .collect();
            Response::json(Status::Ok, &switches)
        });
    }

    // POST /wm/core/switch/register (simulation-side southbound stand-in)
    {
        let state = state.clone();
        let clock_for_switch = clock.clone();
        router.post("/wm/core/switch/register", move |request, _| {
            let Ok(body) = request.json() else {
                return Response::error(Status::BadRequest, "invalid JSON");
            };
            let Some(dpid) = body
                .get("dpid")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(&s.replace(':', ""), 16).ok())
            else {
                return Response::error(Status::BadRequest, "missing or bad 'dpid'");
            };
            let ports: Vec<u16> = body
                .get("ports")
                .and_then(Json::as_array)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Json::as_i64)
                        .map(|p| p as u16)
                        .collect()
                })
                .unwrap_or_default();
            let mut s = state.write();
            s.register_switch(dpid, ports);
            s.record_audit(
                clock_for_switch.now(),
                &peer_of(request),
                "register_switch",
                &format!("{dpid:016x}"),
            );
            Response::json(Status::Created, &Json::object().with("registered", true))
        });
    }

    // GET /wm/device/
    {
        let state = state.clone();
        router.get("/wm/device/", move |_, _| {
            let s = state.read();
            let devices: Json = s
                .devices()
                .iter()
                .map(|d| {
                    let mut doc = Json::object()
                        .with("mac", d.mac.as_str())
                        .with("switchDPID", format!("{:016x}", d.attached_dpid))
                        .with("port", d.attached_port as i64);
                    if let Some(ip) = &d.ipv4 {
                        doc.set("ipv4", ip.as_str());
                    }
                    doc
                })
                .collect();
            Response::json(Status::Ok, &devices)
        });
    }

    // GET /wm/topology/links/json
    {
        let state = state.clone();
        router.get("/wm/topology/links/json", move |_, _| {
            let s = state.read();
            let links: Json = s
                .links()
                .iter()
                .map(|l| {
                    Json::object()
                        .with("src-switch", format!("{:016x}", l.src_dpid))
                        .with("src-port", l.src_port as i64)
                        .with("dst-switch", format!("{:016x}", l.dst_dpid))
                        .with("dst-port", l.dst_port as i64)
                })
                .collect();
            Response::json(Status::Ok, &links)
        });
    }

    // POST /wm/staticflowpusher/json — the write operation the paper's
    // attack scenarios target: only authenticated clients should reach it
    // in trusted-HTTPS mode (enforced by the handshake).
    {
        let state = state.clone();
        let clock_for_push = clock.clone();
        router.post("/wm/staticflowpusher/json", move |request, _| {
            let Ok(body) = request.json() else {
                return Response::error(Status::BadRequest, "invalid JSON");
            };
            let spec = match FlowSpec::from_json(&body) {
                Ok(spec) => spec,
                Err(msg) => return Response::error(Status::BadRequest, &msg),
            };
            let mut s = state.write();
            match s.push_flow(spec.clone()) {
                Ok(()) => {
                    s.record_audit(
                        clock_for_push.now(),
                        &peer_of(request),
                        "push_flow",
                        &spec.name,
                    );
                    Response::json(Status::Ok, &Json::object().with("status", "Entry pushed"))
                }
                Err(msg) => Response::error(Status::NotFound, &msg),
            }
        });
    }

    // DELETE /wm/staticflowpusher/json
    {
        let state = state.clone();
        let clock_for_delete = clock.clone();
        router.delete("/wm/staticflowpusher/json", move |request, _| {
            let name = request
                .json()
                .ok()
                .and_then(|b| b.get("name").and_then(Json::as_str).map(String::from));
            let Some(name) = name else {
                return Response::error(Status::BadRequest, "missing 'name'");
            };
            let mut s = state.write();
            if s.delete_flow(&name) {
                s.record_audit(
                    clock_for_delete.now(),
                    &peer_of(request),
                    "delete_flow",
                    &name,
                );
                Response::json(Status::Ok, &Json::object().with("status", "Entry deleted"))
            } else {
                Response::error(Status::NotFound, &format!("no flow named {name:?}"))
            }
        });
    }

    // GET /wm/staticflowpusher/list/:dpid/json
    {
        let state = state.clone();
        router.get("/wm/staticflowpusher/list/:dpid/json", move |_, params| {
            let Some(dpid) = params
                .get("dpid")
                .and_then(|s| u64::from_str_radix(&s.replace(':', ""), 16).ok())
            else {
                return Response::error(Status::BadRequest, "bad dpid");
            };
            let s = state.read();
            let flows: Json = s.flows_for(dpid).iter().map(|f| f.to_json()).collect();
            Response::json(Status::Ok, &flows)
        });
    }

    // GET /wm/core/audit/json
    {
        let state = state.clone();
        router.get("/wm/core/audit/json", move |_, _| {
            let s = state.read();
            let events: Json = s
                .audit()
                .iter()
                .map(|e| {
                    Json::object()
                        .with("time", e.time as i64)
                        .with("peer", e.peer.as_str())
                        .with("action", e.action.as_str())
                        .with("detail", e.detail.as_str())
                })
                .collect();
            Response::json(Status::Ok, &events)
        });
    }

    // GET /wm/core/health/json
    router.get("/wm/core/health/json", move |_, _| {
        Response::json(Status::Ok, &Json::object().with("healthy", true))
    });

    router
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnfguard_net::http::Method;

    fn setup() -> (Arc<RwLock<ControllerState>>, Router) {
        let state = Arc::new(RwLock::new(ControllerState::new()));
        let router = build_router(state.clone(), SimClock::at(1000), None);
        (state, router)
    }

    fn register(router: &Router, dpid: &str) {
        let response = router.dispatch(
            &Request::post("/wm/core/switch/register").with_json(
                &Json::object()
                    .with("dpid", dpid)
                    .with("ports", vec![Json::from(1i64), Json::from(2i64)]),
            ),
        );
        assert_eq!(response.status, Status::Created);
    }

    #[test]
    fn summary_reflects_state() {
        let (_state, router) = setup();
        register(&router, "01");
        let response = router.dispatch(&Request::get("/wm/core/controller/summary/json"));
        let doc = response.parse_json().unwrap();
        assert_eq!(doc.get("# Switches").and_then(Json::as_i64), Some(1));
        assert_eq!(doc.get("# static flows").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn flow_push_list_delete_cycle() {
        let (_state, router) = setup();
        register(&router, "0a");
        let flow = Json::object()
            .with("switch", "0a")
            .with("name", "f1")
            .with("priority", 10i64)
            .with("actions", "output=2");
        let response =
            router.dispatch(&Request::post("/wm/staticflowpusher/json").with_json(&flow));
        assert_eq!(response.status, Status::Ok);

        let response = router.dispatch(&Request::get("/wm/staticflowpusher/list/0a/json"));
        let list = response.parse_json().unwrap();
        assert_eq!(list.as_array().unwrap().len(), 1);

        let response = router.dispatch(
            &Request::delete("/wm/staticflowpusher/json")
                .with_json(&Json::object().with("name", "f1")),
        );
        assert_eq!(response.status, Status::Ok);
        let response = router.dispatch(&Request::get("/wm/staticflowpusher/list/0a/json"));
        assert!(response
            .parse_json()
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn flow_to_unknown_switch_404() {
        let (_state, router) = setup();
        let flow = Json::object()
            .with("switch", "ff")
            .with("name", "f1")
            .with("actions", "drop");
        let response =
            router.dispatch(&Request::post("/wm/staticflowpusher/json").with_json(&flow));
        assert_eq!(response.status, Status::NotFound);
    }

    #[test]
    fn malformed_bodies_rejected() {
        let (_state, router) = setup();
        let mut request = Request::post("/wm/staticflowpusher/json");
        request.body = b"{broken".to_vec();
        assert_eq!(router.dispatch(&request).status, Status::BadRequest);
        let response =
            router.dispatch(&Request::post("/wm/staticflowpusher/json").with_json(&Json::object()));
        assert_eq!(response.status, Status::BadRequest);
        let response = router
            .dispatch(&Request::delete("/wm/staticflowpusher/json").with_json(&Json::object()));
        assert_eq!(response.status, Status::BadRequest);
    }

    #[test]
    fn audit_records_peer_identity() {
        let (state, router) = setup();
        register(&router, "01");
        let flow = Json::object()
            .with("switch", "01")
            .with("name", "f1")
            .with("actions", "drop");
        // Request as seen after a mutual-TLS upgrade (identity header).
        let request = Request::post("/wm/staticflowpusher/json")
            .with_json(&flow)
            .with_header("x-peer-cn", "vnf-7");
        router.dispatch(&request);
        let audit = state.read().audit().to_vec();
        let push = audit.iter().find(|e| e.action == "push_flow").unwrap();
        assert_eq!(push.peer, "vnf-7");
        assert_eq!(push.time, 1000);
    }

    #[test]
    fn device_and_link_endpoints() {
        let (state, router) = setup();
        state.write().add_device(crate::state::DeviceInfo {
            mac: "aa:bb".into(),
            ipv4: Some("10.0.0.9".into()),
            attached_dpid: 1,
            attached_port: 4,
        });
        state.write().add_link(crate::state::LinkInfo {
            src_dpid: 1,
            src_port: 2,
            dst_dpid: 2,
            dst_port: 1,
        });
        let devices = router
            .dispatch(&Request::get("/wm/device/"))
            .parse_json()
            .unwrap();
        assert_eq!(
            devices.at(0).unwrap().get("ipv4").and_then(Json::as_str),
            Some("10.0.0.9")
        );
        let links = router
            .dispatch(&Request::get("/wm/topology/links/json"))
            .parse_json()
            .unwrap();
        assert_eq!(links.as_array().unwrap().len(), 1);
    }

    #[test]
    fn health_endpoint() {
        let (_state, router) = setup();
        let response = router.dispatch(&Request::new(Method::Get, "/wm/core/health/json"));
        assert_eq!(response.status, Status::Ok);
    }
}
