//! `lifecycle`: the steady state of an enrolled fleet. An open-loop phase
//! offers a fixed rate of renewals, CRL polls and revocations over two
//! kept-alive connections; a closed-loop phase then chains a fixed count
//! of renewals on both.

use crate::deploy::{Deployment, GuardMap, Rng, HOSTS};
use crate::outcome::Outcome;
use crate::steal;
use crate::tracing::{BenchTrace, Req};
use std::collections::BTreeSet;
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};
use vnfguard_core::deployment::Testbed;
use vnfguard_encoding::{base64, Json};
use vnfguard_net::http::{Request, Response};
use vnfguard_net::server::HttpClient;
use vnfguard_net::stream::Duplex;
use vnfguard_pki::crl::Crl;
use vnfguard_vnf::VnfGuard;
use wirebench::stats::{due_at, ms};

/// Credentials enrolled in-process at set-up (as E16 does).
pub const FLEET: usize = 1000;
/// Fixed offered rate of the open-loop phase, operations per second
/// across both connections (about a third of the 2-connection renewal
/// capacity measured on a 2-core box).
pub const OFFERED_RATE: f64 = 100.0;
/// Connections, each owning one guard and half the fleet.
pub const CONNECTIONS: usize = 2;
/// How far ahead of a slot the open-loop sender stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(300);

/// One connection's guard and the live serials bound to its key.
pub struct Fleet {
    pub guard: VnfGuard,
    pub key: [u8; 32],
    pub serials: Vec<u64>,
}

pub struct LifecycleState {
    pub fleets: Vec<Fleet>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Renew,
    Crl,
    Revoke,
}

/// One deck of the mix: 80 % renewals, 15 % CRL polls, 5 % revocations.
/// The open loop deals its operations from seeded shuffles of this deck,
/// so every run offers exactly the same proportions (and so the same share
/// of CRL polls that find the cache dirtied by a revocation); the seed only
/// sets the order.
const DECK: [(Kind, usize); 3] = [(Kind::Renew, 16), (Kind::Crl, 3), (Kind::Revoke, 1)];

fn shuffled_deck(rng: &mut Rng) -> Vec<Kind> {
    let mut deck: Vec<Kind> = DECK
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    deck
}

/// Set-up: attest host 0, load one guard per connection and mass-enroll
/// the fleet through them in-process.
pub fn prep(seed: u64) -> impl Fn(&mut Testbed) -> (LifecycleState, Vec<GuardMap>) {
    move |tb| {
        tb.attest_host(0).expect("host attests");
        let mut rng = Rng::new(seed, 2);
        let host_id = tb.hosts[0].id.clone();
        let mut fleets = Vec::with_capacity(CONNECTIONS);
        for c in 0..CONNECTIONS {
            let guard = tb
                .deploy_guard(0, &format!("lc-guard-{c}"), 1)
                .expect("guard loads");
            let key = guard.provisioning_key().expect("provisioning key");
            let mut serials = Vec::with_capacity(FLEET / CONNECTIONS);
            for name in rng.names(&format!("lc{c}"), FLEET / CONNECTIONS) {
                let challenge = tb
                    .vm
                    .begin_vnf_attestation(&host_id, &name)
                    .expect("challenge");
                let quote = guard
                    .quote(&tb.hosts[0].platform, &challenge.nonce, challenge.nonce)
                    .expect("quote");
                let (wrapped, certificate) = tb
                    .vm
                    .complete_vnf_enrollment(
                        &mut tb.ias,
                        challenge.id,
                        &quote.encode(),
                        &key,
                        &tb.controller_cn,
                    )
                    .expect("fleet enrollment");
                guard.provision(&wrapped).expect("provision");
                serials.push(certificate.serial());
            }
            fleets.push(Fleet {
                guard,
                key,
                serials,
            });
        }
        (LifecycleState { fleets }, vec![GuardMap::new(); HOSTS])
    }
}

/// The open-loop operation count for a phase of `seconds`.
pub fn open_ops(seconds: f64) -> usize {
    (OFFERED_RATE * seconds).round() as usize
}

/// Open loop for `open` operations, then `closed` back-to-back renewals
/// per connection.
pub fn run(
    dep: &Deployment<LifecycleState>,
    seed: u64,
    open: usize,
    closed: usize,
    trace: Option<&BenchTrace>,
) -> Outcome {
    let before = dep.counters();
    let revoked: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let start = Instant::now() + Duration::from_millis(20);
    // The connections enter the closed loop together, so its rate is taken
    // over one window shared by both.
    let barrier = Barrier::new(CONNECTIONS);
    let closed_from: OnceLock<steal::Mark> = OnceLock::new();
    let results: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .state
            .fleets
            .iter()
            .enumerate()
            .map(|(c, fleet)| {
                let (revoked, barrier, closed_from) = (&revoked, &barrier, &closed_from);
                scope.spawn(move || {
                    let mut conn = Conn {
                        dep,
                        fleet,
                        serials: fleet.serials.clone(),
                        client: dep.operator(),
                        revoked,
                        rng: Rng::new(seed, 10 + c as u64),
                        trace,
                        out: Outcome::default(),
                    };
                    conn.open_loop(c, open, start);
                    if barrier.wait().is_leader() {
                        closed_from.get_or_init(steal::mark);
                    }
                    for _ in 0..closed {
                        conn.renew("closed_renew", Instant::now());
                    }
                    conn.out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lifecycle connection thread"))
            .collect()
    });
    let secs = steal::available_since(closed_from.get().expect("marked at the barrier"));
    let mut out = Outcome::default();
    for o in results {
        out.merge(o);
    }
    out.throughput = out.samples.get("closed_renew").map_or(0, Vec::len) as f64 / secs;
    let fetches = out.samples.get("crl").map_or(0, Vec::len) as f64;
    out.deltas.insert("crl_fetches", fetches);
    out.add_deltas(before, dep.counters());
    let revoked = revoked.into_inner().expect("revocation list");
    out.deltas.insert("revoked", revoked.len() as f64);
    final_crl_check(dep, &revoked, &mut out);
    out
}

/// The last CRL the VM serves carries every revocation and verifies under
/// the VM CA's key.
fn final_crl_check(dep: &Deployment<LifecycleState>, revoked: &[u64], out: &mut Outcome) {
    let mut client = dep.operator();
    let crl = client
        .request(&Request::get("/vm/crl"))
        .ok()
        .and_then(|r| decode_crl(&r));
    let ca_key = dep.vm.ca_certificate().tbs.public_key;
    match crl {
        Some(crl) => {
            out.check(crl.verify(&ca_key).is_ok(), || "final CRL signature".into());
            let listed: BTreeSet<u64> = crl.entries().map(|e| e.serial).collect();
            let missing = revoked.iter().filter(|s| !listed.contains(s)).count();
            out.check(missing == 0, || {
                format!("{missing} revocations missing from final CRL")
            });
        }
        None => out.check(false, || "final CRL fetch failed".into()),
    }
}

fn decode_crl(response: &Response) -> Option<Crl> {
    if !response.status.is_success() {
        return None;
    }
    let body = response.parse_json().ok()?;
    let bytes = base64::decode(body.get("crl")?.as_str()?).ok()?;
    Crl::decode(&bytes).ok()
}

struct Conn<'a> {
    dep: &'a Deployment<LifecycleState>,
    fleet: &'a Fleet,
    serials: Vec<u64>,
    client: HttpClient<Duplex>,
    revoked: &'a Mutex<Vec<u64>>,
    rng: Rng,
    trace: Option<&'a BenchTrace>,
    out: Outcome,
}

impl Conn<'_> {
    /// This connection's share of the schedule: operations `c`, `c + 2`,
    /// ... of `total`, each due at its slot of the fixed offered rate.
    fn open_loop(&mut self, c: usize, total: usize, start: Instant) {
        let mut mix = Rng::new(self.rng.next(), 3);
        let mut dealt = Vec::new();
        for i in (c..total).step_by(CONNECTIONS) {
            if dealt.is_empty() {
                dealt = shuffled_deck(&mut mix);
            }
            let kind = dealt.pop().expect("a fresh deck is not empty");
            let due = due_at(start, i, OFFERED_RATE);
            // Sleep to just short of the slot, then spin: timer wake-up
            // jitter would otherwise be charged to every operation.
            let now = Instant::now();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            self.out.lateness.push(ms(due, Instant::now()));
            match kind {
                Kind::Renew => self.renew("renew", due),
                Kind::Crl => self.crl(due),
                Kind::Revoke => self.revoke(due),
            }
        }
    }

    fn send(&mut self, request: Request, req: &Option<Req<'_>>) -> Option<Json> {
        let request = match req {
            Some(req) => request.with_trace(&req.ctx(req.root)),
            None => request,
        };
        match self.client.request(&request) {
            Ok(r) if r.status.is_success() => r.parse_json().ok(),
            Ok(_) => None,
            Err(_) => {
                self.client = self.dep.operator();
                None
            }
        }
    }

    fn finish(&mut self, kind: &'static str, ok: bool, due: Instant, req: Option<Req<'_>>) {
        let done = Instant::now();
        if let Some(req) = req {
            req.finish(&format!("client.{kind}"), due, done);
        }
        self.out.tally.record(ok);
        if ok {
            self.out.acknowledged += 1;
            self.out.sample(kind, ms(due, done));
        }
    }

    /// Renew a seeded serial, provision the bundle, check it is active.
    fn renew(&mut self, kind: &'static str, due: Instant) {
        let idx = self.rng.below(self.serials.len());
        let serial = self.serials[idx];
        let mut req = self.trace.map(|t| t.request());
        let body = Json::object()
            .with("serial", serial as i64)
            .with("provisioning_key", base64::encode(&self.fleet.key));
        let reply = self.send(Request::post("/vm/renew").with_json(&body), &req);
        let fresh = reply.as_ref().and_then(|r| {
            let serial = r.get("serial")?.as_i64()? as u64;
            let wrapped = base64::decode(r.get("wrapped")?.as_str()?).ok()?;
            Some((serial, wrapped))
        });
        let provisioned = fresh.map(|(new_serial, wrapped)| {
            let begun = Instant::now();
            let ok = self.fleet.guard.provision(&wrapped).is_ok();
            if let Some(req) = &mut req {
                let (id, root) = (req.child_id(), req.root);
                req.span(id, Some(root), "vnf.provision", begun, Instant::now());
            }
            self.serials[idx] = new_serial;
            (new_serial, ok)
        });
        let ok = provisioned.is_some_and(|(_, ok)| ok);
        self.finish(kind, ok, due, req);
        if let Some((new_serial, true)) = provisioned {
            let active = self.fleet.guard.status().ok();
            self.out.check(
                active.is_some_and(|s| s.provisioned && s.serial == new_serial),
                || format!("renewed serial {new_serial} is not active in its enclave"),
            );
        }
    }

    /// Poll the CRL; every revocation acknowledged before the poll was
    /// sent must be on it.
    fn crl(&mut self, due: Instant) {
        let known: Vec<u64> = self.revoked.lock().expect("revocation list").clone();
        let req = self.trace.map(|t| t.request());
        let request = match &req {
            Some(req) => Request::get("/vm/crl").with_trace(&req.ctx(req.root)),
            None => Request::get("/vm/crl"),
        };
        let crl = match self.client.request(&request) {
            Ok(r) => decode_crl(&r),
            Err(_) => {
                self.client = self.dep.operator();
                None
            }
        };
        self.finish("crl", crl.is_some(), due, req);
        if let Some(crl) = crl {
            let listed: BTreeSet<u64> = crl.entries().map(|e| e.serial).collect();
            let missing: Vec<&u64> = known.iter().filter(|s| !listed.contains(s)).collect();
            self.out.check(missing.is_empty(), || {
                format!("revoked serials {missing:?} absent from the next CRL")
            });
        }
    }

    fn revoke(&mut self, due: Instant) {
        let serial = self.serials.swap_remove(self.rng.below(self.serials.len()));
        let req = self.trace.map(|t| t.request());
        let body = Json::object().with("serial", serial as i64);
        let ok = self
            .send(Request::post("/vm/revoke").with_json(&body), &req)
            .is_some();
        if ok {
            self.revoked.lock().expect("revocation list").push(serial);
        }
        self.finish("revoke", ok, due, req);
    }
}
