//! `northbound`: the paper's step 6. One load thread, owning 16 enrolled
//! guards, opens an in-enclave mutual-TLS session to the controller, sends
//! 16 REST requests on it and closes it, turn after turn. The VM is idle.
//!
//! One thread, not two: each request is a handful of cross-thread hand-offs
//! of ~70 µs in all. Two load threads and their two handler threads
//! oversubscribed a 2-core machine, so the latencies measured the scheduler
//! (ten-run spreads reached a third of the median).

use crate::deploy::{Deployment, GuardMap, Rng, HOSTS};
use crate::outcome::Outcome;
use crate::steal;
use crate::tracing::BenchTrace;
use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;
use vnfguard_controller::state::LinkInfo;
use vnfguard_core::deployment::Testbed;
use vnfguard_encoding::Json;
use vnfguard_net::http::Request;
use vnfguard_pki::crl::RevocationReason;
use vnfguard_vnf::VnfGuard;
use wirebench::stats::ms;

pub const THREADS: usize = 1;
pub const GUARDS_PER_THREAD: usize = 16;
pub const REQUESTS_PER_SESSION: usize = 16;
/// Flow names each thread overwrites, so controller state stays bounded.
pub const FLOW_NAMES: usize = 8;
/// Switches registered at set-up, linked in a chain; flows from thread `t`
/// target switch `t`.
const SWITCHES: usize = 2;
/// Credentials revoked at set-up; the controller validates against a CRL
/// holding them.
pub const SETUP_REVOCATIONS: usize = 16;

pub struct NorthboundState {
    pub guards: Vec<Mutex<Vec<VnfGuard>>>,
}

/// Each thread pushes flows to its own switch.
pub fn dpid(thread: usize) -> u64 {
    0x10 + thread as u64
}

/// Set-up: enroll each thread's guards in-process, revoke a batch of other
/// credentials and push the resulting CRL to the controller, register the
/// switches and the link between them.
pub fn prep(seed: u64) -> impl Fn(&mut Testbed) -> (NorthboundState, Vec<GuardMap>) {
    move |tb| {
        tb.attest_host(0).expect("host attests");
        let mut rng = Rng::new(seed, 4);
        let mut guards = Vec::with_capacity(THREADS);
        for t in 0..THREADS {
            let mut owned = Vec::with_capacity(GUARDS_PER_THREAD);
            for name in rng.names(&format!("nb{t}"), GUARDS_PER_THREAD) {
                let guard = tb.deploy_guard(0, &name, 1).expect("guard loads");
                tb.enroll(0, &guard).expect("guard enrolls");
                owned.push(guard);
            }
            guards.push(Mutex::new(owned));
        }
        for name in rng.names("nb-revoked", SETUP_REVOCATIONS) {
            let guard = tb.deploy_guard(0, &name, 1).expect("guard loads");
            let certificate = tb.enroll(0, &guard).expect("guard enrolls");
            tb.vm
                .revoke_credential(certificate.serial(), RevocationReason::KeyCompromise)
                .expect("revocation");
        }
        tb.push_crl().expect("CRL reaches the controller");
        let state = tb.controller.state();
        let mut state = state.write();
        for t in 0..SWITCHES {
            state.register_switch(dpid(t), vec![1, 2, 3, 4]);
        }
        for t in 1..SWITCHES {
            state.add_link(LinkInfo {
                src_dpid: dpid(t - 1),
                src_port: 4,
                dst_dpid: dpid(t),
                dst_port: 4,
            });
        }
        drop(state);
        (NorthboundState { guards }, vec![GuardMap::new(); HOSTS])
    }
}

fn flow(thread: usize, name: &str, rng: &mut Rng) -> Json {
    Json::object()
        .with("switch", format!("{:016x}", dpid(thread)))
        .with("name", name)
        .with("priority", 100 + rng.below(100) as i64)
        .with("in_port", 1 + rng.below(3) as i64)
        .with("actions", "output=4")
}

/// `turns` sessions per thread, closed loop.
pub fn run(
    dep: &Deployment<NorthboundState>,
    seed: u64,
    turns: usize,
    trace: Option<&BenchTrace>,
) -> Outcome {
    let before = dep.counters();
    let begun = steal::mark();
    let results: Vec<(Outcome, BTreeSet<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| scope.spawn(move || thread(dep, seed, t, turns, trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("northbound thread"))
            .collect()
    });
    let secs = steal::available_since(&begun);
    let mut out = Outcome::default();
    let mut pushed = Vec::new();
    for (o, names) in results {
        out.merge(o);
        pushed.push(names);
    }
    out.throughput = out.samples.get("request").map_or(0, Vec::len) as f64 / secs;
    out.add_deltas(before, dep.counters());
    verify_flows(dep, &pushed, &mut out);
    out
}

fn thread(
    dep: &Deployment<NorthboundState>,
    seed: u64,
    t: usize,
    turns: usize,
    trace: Option<&BenchTrace>,
) -> (Outcome, BTreeSet<String>) {
    let mut out = Outcome::default();
    let mut pushed = BTreeSet::new();
    let mut rng = Rng::new(seed, 20 + t as u64);
    let names: Vec<String> = (0..FLOW_NAMES)
        .map(|i| format!("nb-flow-{t}-{i}"))
        .collect();
    let mut guards = dep.state.guards[t].lock().expect("guard set");
    let addr = dep.tb.controller_addr.clone();
    for turn in 0..turns {
        let guard = &mut guards[turn % GUARDS_PER_THREAD];
        let opened = Instant::now();
        let session = guard.open_session(&addr, dep.tb.clock.now());
        let ready = Instant::now();
        if let Some(t) = trace {
            t.request().finish("client.open_session", opened, ready);
        }
        out.tally.record(session.is_ok());
        let Ok(session) = session else { continue };
        out.acknowledged += 1;
        out.sample("handshake", ms(opened, ready));
        for _ in 0..REQUESTS_PER_SESSION {
            let (request, name) = if rng.below(4) == 0 {
                let name = names[rng.below(FLOW_NAMES)].clone();
                let body = flow(t, &name, &mut rng);
                (
                    Request::post("/wm/staticflowpusher/json").with_json(&body),
                    Some(name),
                )
            } else {
                (Request::get("/wm/topology/links/json"), None)
            };
            let req = trace.map(|t| t.request());
            let parent = req.as_ref().map(|r| r.ctx(r.root).traceparent());
            let sent = Instant::now();
            let response = guard.request_traced(session, &request, parent.as_deref());
            let done = Instant::now();
            if let Some(req) = req {
                let kind = if name.is_some() {
                    "client.push_flow"
                } else {
                    "client.get_links"
                };
                req.finish(kind, sent, done);
            }
            let ok = response.is_ok_and(|r| r.status.is_success());
            out.tally.record(ok);
            if ok {
                out.acknowledged += 1;
                out.sample("request", ms(sent, done));
                if let Some(name) = name {
                    pushed.insert(name);
                }
            }
        }
        let closed = guard.close_session(session);
        out.check(closed.is_ok(), || {
            format!("close_session failed: {closed:?}")
        });
    }
    (out, pushed)
}

/// Every pushed flow name is listed on its switch.
fn verify_flows(dep: &Deployment<NorthboundState>, pushed: &[BTreeSet<String>], out: &mut Outcome) {
    let mut guards = dep.state.guards[0].lock().expect("guard set");
    let guard = &mut guards[0];
    let Ok(session) = guard.open_session(&dep.tb.controller_addr, dep.tb.clock.now()) else {
        out.check(false, || "verification session failed to open".into());
        return;
    };
    for (t, names) in pushed.iter().enumerate() {
        let path = format!("/wm/staticflowpusher/list/{:016x}/json", dpid(t));
        let listed: BTreeSet<String> = guard
            .request(session, &Request::get(&path))
            .ok()
            .and_then(|r| r.parse_json().ok())
            .and_then(|doc| {
                doc.as_array().map(|flows| {
                    flows
                        .iter()
                        .filter_map(|f| f.get("name").and_then(Json::as_str).map(String::from))
                        .collect()
                })
            })
            .unwrap_or_default();
        let missing: Vec<&String> = names.iter().filter(|n| !listed.contains(*n)).collect();
        out.check(missing.is_empty(), || {
            format!("flows {missing:?} not listed on switch {t}")
        });
    }
    let _ = guard.close_session(session);
}
