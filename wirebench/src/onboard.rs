//! `onboard`: the paper's steps 1–5 through the operator API. Two operator
//! connections, each owning one host; every 16th operation re-attests the
//! host, the rest enroll a fresh guard from the host's pool.
//!
//! A host's EPC holds about 500 credential enclaves, so the plan runs in
//! rounds of at most [`ROUND`] enrollments per host. Between rounds, with
//! the clock stopped, the enrolled guards are checked and unloaded and the
//! next pool is loaded; every guard is still enrolled exactly once.

use crate::deploy::{Deployment, GuardMap, Rng, HOSTS};
use crate::outcome::Outcome;
use crate::steal;
use crate::tracing::BenchTrace;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use vnfguard_core::deployment::Testbed;
use vnfguard_core::service::VmService;
use vnfguard_encoding::Json;
use vnfguard_net::fabric::Network;
use vnfguard_net::http::Request;
use vnfguard_sgx::platform::SgxPlatform;
use vnfguard_sgx::sigstruct::EnclaveAuthor;
use vnfguard_vnf::VnfGuard;
use wirebench::stats::ms;

/// One operation in 16 re-attests the connection's host.
pub const ATTEST_EVERY: usize = 16;
/// Enrollments per host per round (128 MiB EPC, 256 KiB per enclave).
pub const ROUND: usize = 448;

/// What one connection enrolled: VNF name, serial and subject.
type Enrolled = Vec<(String, u64, String)>;

#[derive(Debug, Clone)]
pub enum Op {
    Attest,
    Enroll(String),
}

/// The seeded plan: `rounds[r][host]` is that host's operations in round
/// `r`, in order.
pub struct OnboardState {
    pub rounds: Vec<Vec<Vec<Op>>>,
}

/// Split `ops` operations per host into rounds of at most [`ROUND`]
/// enrollments, naming each enrollment's VNF from the seed.
pub fn plan(seed: u64, ops: usize) -> Vec<Vec<Vec<Op>>> {
    let mut rng = Rng::new(seed, 1);
    let mut rounds: Vec<Vec<Vec<Op>>> = Vec::new();
    for host in 0..HOSTS {
        // Every host attests first (it enrolls nothing before), then the
        // hosts attest half a cycle apart, so an attest meets the other
        // connection's enrollments rather than, some of the time, its attest.
        let attests =
            |i: usize| i == 0 || (i + host * ATTEST_EVERY / HOSTS).is_multiple_of(ATTEST_EVERY);
        let enrollments = (0..ops).filter(|&i| !attests(i)).count();
        let mut names = rng.names(&format!("ob{host}"), enrollments).into_iter();
        let (mut round, mut in_round) = (0, 0);
        for i in 0..ops {
            let op = if attests(i) {
                Op::Attest
            } else {
                if in_round == ROUND {
                    round += 1;
                    in_round = 0;
                }
                in_round += 1;
                Op::Enroll(names.next().expect("one name per enrollment"))
            };
            if rounds.len() <= round {
                rounds.push(vec![Vec::new(); HOSTS]);
            }
            rounds[round][host].push(op);
        }
    }
    rounds
}

/// Load the guards one host enrolls in one round and whitelist them.
fn load_pool(
    platform: &SgxPlatform,
    network: &Network,
    author: &EnclaveAuthor,
    vm: &VmService,
    ops: &[Op],
) -> GuardMap {
    let mut map = GuardMap::new();
    for op in ops {
        if let Op::Enroll(name) = op {
            let guard = VnfGuard::load(platform, network, author, name, 1).expect("guard loads");
            vm.trust_enclave(guard.mrenclave(), &format!("{name}-v1"));
            map.insert(name.clone(), Arc::new(guard));
        }
    }
    map
}

/// Set-up: load the first round's guards on each host.
pub fn prep(seed: u64, ops: usize) -> impl Fn(&mut Testbed) -> (OnboardState, Vec<GuardMap>) {
    move |tb| {
        let rounds = plan(seed, ops);
        let maps = (0..HOSTS)
            .map(|h| {
                load_pool(
                    &tb.hosts[h].platform,
                    &tb.network,
                    &tb.enclave_author,
                    &tb.vm,
                    &rounds[0][h],
                )
            })
            .collect();
        (OnboardState { rounds }, maps)
    }
}

/// Run every round, closed loop on two connections.
pub fn run(dep: &Deployment<OnboardState>, seed: u64, trace: Option<&BenchTrace>) -> Outcome {
    let mut out = Outcome::default();
    let aborts = dep.counter("vnfguard_core_enrollment_aborts_total");
    let mut serials = BTreeSet::new();
    // Seconds of available time (see `steal`) the rounds' closed loops
    // took; reloading pools and checking outputs between rounds is not
    // counted.
    let mut secs = 0.0;
    for (r, round) in dep.state.rounds.iter().enumerate() {
        if r > 0 {
            for (h, agent) in dep.agents.iter().enumerate() {
                agent.state.guards.write().clear();
                let pool = load_pool(
                    &agent.state.platform,
                    &dep.network,
                    &dep.tb.enclave_author,
                    &dep.vm,
                    &round[h],
                );
                *agent.state.guards.write() = pool;
            }
        }
        let before = dep.counters();
        let begun = steal::mark();
        let per_host: Vec<(Outcome, Enrolled)> = std::thread::scope(|scope| {
            let handles: Vec<_> = round
                .iter()
                .enumerate()
                .map(|(host, ops)| scope.spawn(move || connection(dep, host, ops, trace)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("onboard connection thread"))
                .collect()
        });
        secs += steal::available_since(&begun);
        out.add_deltas(before, dep.counters());
        let mut enrolled = Vec::new();
        for (o, e) in per_host {
            out.merge(o);
            enrolled.push(e);
        }
        verify(dep, seed ^ r as u64, &enrolled, &mut serials, &mut out);
    }
    out.throughput = out.samples.get("enroll").map_or(0, Vec::len) as f64 / secs;
    let rollbacks = dep.counter("vnfguard_core_enrollment_aborts_total") - aborts;
    out.check(rollbacks == 0, || {
        format!("{rollbacks} enrollments rolled back")
    });
    out
}

fn connection(
    dep: &Deployment<OnboardState>,
    host: usize,
    ops: &[Op],
    trace: Option<&BenchTrace>,
) -> (Outcome, Enrolled) {
    let mut out = Outcome::default();
    let mut enrolled = Vec::new();
    let mut client = dep.operator();
    let host_id = format!("host-{host}");
    for op in ops {
        let (kind, path) = match op {
            Op::Attest => ("attest", format!("/vm/hosts/{host_id}/attest")),
            Op::Enroll(name) => ("enroll", format!("/vm/hosts/{host_id}/vnfs/{name}/enroll")),
        };
        let mut request = Request::post(&path);
        let req = trace.map(|t| t.request());
        if let Some(req) = &req {
            request = request.with_trace(&req.ctx(req.root));
        }
        let sent = Instant::now();
        let response = client.request(&request);
        let done = Instant::now();
        if let Some(req) = req {
            req.finish(&format!("client.{kind}"), sent, done);
        }
        let body = match response {
            Ok(r) if r.status.is_success() => r.parse_json().ok(),
            Ok(_) => None,
            Err(_) => {
                client = dep.operator();
                None
            }
        };
        let ok = match (&body, op) {
            (Some(body), Op::Attest) => {
                body.get("verdict").and_then(Json::as_str) == Some("Trusted")
            }
            (Some(body), Op::Enroll(name)) => {
                let serial = body.get("serial").and_then(Json::as_i64);
                let subject = body.get("subject").and_then(Json::as_str);
                match (serial, subject) {
                    (Some(serial), Some(subject)) => {
                        enrolled.push((name.clone(), serial as u64, subject.to_string()));
                        true
                    }
                    _ => false,
                }
            }
            (None, _) => false,
        };
        out.tally.record(ok);
        if ok {
            out.acknowledged += 1;
            out.sample(kind, ms(sent, done));
        }
    }
    (out, enrolled)
}

/// Output checks for one round: serials unique across the run, each provisioned into the
/// right guard and on the VM's books, and one seeded guard per host
/// proving its chain to the VM CA through a real mutual-TLS handshake
/// with the CA-validating controller.
fn verify(
    dep: &Deployment<OnboardState>,
    seed: u64,
    enrolled: &[Enrolled],
    serials: &mut BTreeSet<u64>,
    out: &mut Outcome,
) {
    let records: BTreeMap<u64, String> = dep
        .vm
        .enrollments()
        .filter(|r| !r.revoked)
        .map(|r| (r.serial, r.vnf_name))
        .collect();
    for (host, list) in enrolled.iter().enumerate() {
        let guards = dep.agents[host].state.guards.read();
        for (name, serial, subject) in list {
            out.check(serials.insert(*serial), || {
                format!("serial {serial} issued twice")
            });
            out.check(records.get(serial) == Some(name), || {
                format!("serial {serial} is not on the VM's books for {name}")
            });
            let status = guards.get(name).and_then(|g| g.status().ok());
            out.check(
                status
                    .is_some_and(|s| s.provisioned && s.serial == *serial && s.subject == *subject),
                || format!("guard {name} does not hold serial {serial}"),
            );
        }
    }
    let mut rng = Rng::new(seed, 5);
    for (host, list) in enrolled.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let (name, serial, _) = &list[rng.below(list.len())];
        let taken = dep.agents[host].state.guards.write().remove(name);
        let Some(mut guard) = taken.and_then(|g| Arc::try_unwrap(g).ok()) else {
            out.check(false, || format!("guard {name} is still in use"));
            continue;
        };
        let session = guard.open_session(&dep.tb.controller_addr, dep.tb.clock.now());
        out.check(session.is_ok(), || {
            format!("serial {serial} of {name} does not chain to the VM CA: {session:?}")
        });
        if let Ok(id) = session {
            let _ = guard.close_session(id);
        }
    }
}
