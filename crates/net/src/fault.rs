//! Deterministic fault injection for the network fabric.
//!
//! A [`FaultPlan`] attaches to a [`Network`](crate::Network) and perturbs
//! traffic per destination address:
//!
//! - **connection refusal** — probabilistic (`refuse_connections`) or
//!   scheduled (`refuse_next`);
//! - **latency** — fixed extra delay plus uniform jitter per connection;
//! - **mid-stream drops** — the link is severed after a byte budget is
//!   spent (`drop_after_bytes`);
//! - **stalls** — delivery stops (reads hang) until the address is
//!   unstalled; observable with [`Duplex::set_read_timeout`](crate::Duplex::set_read_timeout);
//! - **partitions** — single addresses (`isolate`) or named endpoint
//!   groups (`partition` + [`Network::connect_from`](crate::Network::connect_from)).
//!
//! All probabilistic decisions draw from one seeded SplitMix64 stream and
//! every decision is appended to an event log, so a failure sequence
//! replays exactly under the same seed and call order.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Marker payload carried inside `io::Error`s produced by fault injection,
/// so the HTTP layer can map them to [`NetError::Injected`](crate::NetError::Injected)
/// instead of a generic I/O failure.
#[derive(Debug)]
pub struct InjectedFault(pub String);

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for InjectedFault {}

pub(crate) fn injected_io(kind: io::ErrorKind, message: &str) -> io::Error {
    io::Error::new(kind, InjectedFault(message.to_string()))
}

/// Per-link fault switches, shared by both [`Duplex`](crate::Duplex) halves
/// of a connection. Also used (without a plan) by the server to wake and
/// join blocked connection handlers on shutdown.
#[derive(Debug)]
pub struct LinkControl {
    severed: AtomicBool,
    stalled: AtomicBool,
    /// Remaining bytes before the link severs; `i64::MAX` means unlimited.
    write_budget: AtomicI64,
}

impl Default for LinkControl {
    fn default() -> LinkControl {
        LinkControl {
            severed: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            write_budget: AtomicI64::new(i64::MAX),
        }
    }
}

impl LinkControl {
    pub(crate) fn with_faults(stalled: bool, drop_after: Option<u64>) -> LinkControl {
        LinkControl {
            severed: AtomicBool::new(false),
            stalled: AtomicBool::new(stalled),
            write_budget: AtomicI64::new(
                drop_after.map_or(i64::MAX, |n| n.min(i64::MAX as u64) as i64),
            ),
        }
    }

    /// Tear the connection down: writes fail, reads error once buffered
    /// data is consumed, queued-but-undelivered frames are discarded.
    pub fn sever(&self) {
        self.severed.store(true, Ordering::SeqCst);
    }

    pub fn is_severed(&self) -> bool {
        self.severed.load(Ordering::SeqCst)
    }

    pub fn set_stalled(&self, stalled: bool) {
        self.stalled.store(stalled, Ordering::SeqCst);
    }

    pub fn is_stalled(&self) -> bool {
        self.stalled.load(Ordering::SeqCst)
    }

    /// Consume up to `wanted` bytes of the write budget, severing the link
    /// when the budget runs out. Returns how many bytes may still be sent.
    pub(crate) fn take_write_budget(&self, wanted: usize) -> usize {
        let wanted_i = wanted.min(i64::MAX as usize) as i64;
        let before = self.write_budget.fetch_sub(wanted_i, Ordering::SeqCst);
        if before >= wanted_i {
            wanted
        } else {
            self.sever();
            before.max(0) as usize
        }
    }
}

/// Why a connection attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// The seeded coin said no (`refuse_connections`).
    Probabilistic,
    /// A scheduled refusal (`refuse_next`) consumed this attempt.
    Scheduled,
    /// The destination address is isolated.
    Isolated,
    /// Origin and destination are on opposite sides of a partition.
    Partitioned,
}

/// One entry in the fault event log. The log is the replay witness: the
/// same seed and call order produce the identical event sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A connection attempt to `addr` was refused.
    Refused {
        addr: String,
        reason: RefuseReason,
    },
    /// A connection to `addr` was admitted, with the injected extra
    /// latency (microseconds) drawn for it.
    Admitted {
        addr: String,
        extra_latency_us: u64,
    },
    /// Existing links to `addr` were severed (isolation or partition).
    Severed {
        addr: String,
    },
    /// Delivery to `addr` stopped / resumed.
    Stalled {
        addr: String,
    },
    Unstalled {
        addr: String,
    },
    /// `addr` entered / left single-address isolation.
    Isolated {
        addr: String,
    },
    Healed {
        addr: String,
    },
    /// A group partition was installed / removed.
    Partitioned {
        a: Vec<String>,
        b: Vec<String>,
    },
    PartitionHealed,
}

/// Per-destination fault rules.
#[derive(Debug, Clone, Default)]
struct AddressFaults {
    refuse_probability: f64,
    refuse_next: u32,
    extra_latency: Duration,
    latency_jitter: Duration,
    drop_after_bytes: Option<u64>,
    stalled: bool,
}

/// What the fabric applies to an admitted connection.
#[derive(Debug)]
pub(crate) struct LinkSetup {
    pub extra_latency: Duration,
    pub drop_after_bytes: Option<u64>,
    pub stalled: bool,
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct LinkEntry {
    origin: String,
    addr: String,
    control: Weak<LinkControl>,
}

struct PlanInner {
    seed: u64,
    rng: SplitMix64,
    rules: HashMap<String, AddressFaults>,
    isolated: HashSet<String>,
    partition: Option<(HashSet<String>, HashSet<String>)>,
    links: Vec<LinkEntry>,
    events: Vec<FaultEvent>,
}

impl PlanInner {
    fn rule(&mut self, addr: &str) -> &mut AddressFaults {
        self.rules.entry(addr.to_string()).or_default()
    }

    fn sever_links(&mut self, matches: impl Fn(&LinkEntry) -> bool) -> Vec<String> {
        let mut severed = Vec::new();
        for entry in &self.links {
            if matches(entry) {
                if let Some(control) = entry.control.upgrade() {
                    if !control.is_severed() {
                        control.sever();
                        severed.push(entry.addr.clone());
                    }
                }
            }
        }
        self.links.retain(|entry| entry.control.strong_count() > 0);
        severed
    }
}

/// A deterministic, shareable fault schedule. Cloning shares the plan.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<Mutex<PlanInner>>,
}

impl FaultPlan {
    /// A plan whose probabilistic decisions replay under `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(Mutex::new(PlanInner {
                seed,
                rng: SplitMix64(seed),
                rules: HashMap::new(),
                isolated: HashSet::new(),
                partition: None,
                links: Vec::new(),
                events: Vec::new(),
            })),
        }
    }

    pub fn seed(&self) -> u64 {
        self.inner.lock().seed
    }

    /// Refuse each future connection to `addr` with probability `p`.
    pub fn refuse_connections(&self, addr: &str, probability: f64) {
        assert!(
            (0.0..=1.0).contains(&probability),
            "refusal probability must be in [0, 1]"
        );
        self.inner.lock().rule(addr).refuse_probability = probability;
    }

    /// Refuse exactly the next `count` connection attempts to `addr`.
    pub fn refuse_next(&self, addr: &str, count: u32) {
        self.inner.lock().rule(addr).refuse_next = count;
    }

    /// Add `extra` one-way latency to future connections to `addr`, plus a
    /// uniform draw from `[0, jitter]` per connection.
    pub fn add_latency(&self, addr: &str, extra: Duration, jitter: Duration) {
        let mut inner = self.inner.lock();
        let rule = inner.rule(addr);
        rule.extra_latency = extra;
        rule.latency_jitter = jitter;
    }

    /// Sever future connections to `addr` after `bytes` total bytes have
    /// crossed the link (both directions share the budget).
    pub fn drop_after_bytes(&self, addr: &str, bytes: u64) {
        self.inner.lock().rule(addr).drop_after_bytes = Some(bytes);
    }

    /// Stop delivering on existing and future connections to `addr`. Reads
    /// hang until [`unstall`](Self::unstall) — or fail with `TimedOut` when
    /// the reader set a deadline.
    pub fn stall(&self, addr: &str) {
        let mut inner = self.inner.lock();
        inner.rule(addr).stalled = true;
        for entry in &inner.links {
            if entry.addr == addr {
                if let Some(control) = entry.control.upgrade() {
                    control.set_stalled(true);
                }
            }
        }
        inner.events.push(FaultEvent::Stalled {
            addr: addr.to_string(),
        });
    }

    /// Resume delivery to `addr`.
    pub fn unstall(&self, addr: &str) {
        let mut inner = self.inner.lock();
        inner.rule(addr).stalled = false;
        for entry in &inner.links {
            if entry.addr == addr {
                if let Some(control) = entry.control.upgrade() {
                    control.set_stalled(false);
                }
            }
        }
        inner.events.push(FaultEvent::Unstalled {
            addr: addr.to_string(),
        });
    }

    /// Partition `addr` off: refuse new connections and sever existing ones.
    pub fn isolate(&self, addr: &str) {
        let mut inner = self.inner.lock();
        inner.isolated.insert(addr.to_string());
        inner.events.push(FaultEvent::Isolated {
            addr: addr.to_string(),
        });
        for severed in inner.sever_links(|entry| entry.addr == addr) {
            inner.events.push(FaultEvent::Severed { addr: severed });
        }
    }

    /// Lift single-address isolation of `addr`.
    pub fn heal(&self, addr: &str) {
        let mut inner = self.inner.lock();
        inner.isolated.remove(addr);
        inner.events.push(FaultEvent::Healed {
            addr: addr.to_string(),
        });
    }

    /// Install a partition between two named endpoint groups: connections
    /// whose origin (see [`Network::connect_from`](crate::Network::connect_from))
    /// and destination fall on opposite sides are refused, and existing
    /// cross-partition links are severed. Replaces any previous partition.
    pub fn partition(&self, group_a: &[&str], group_b: &[&str]) {
        let a: HashSet<String> = group_a.iter().map(|s| s.to_string()).collect();
        let b: HashSet<String> = group_b.iter().map(|s| s.to_string()).collect();
        let mut inner = self.inner.lock();
        inner.events.push(FaultEvent::Partitioned {
            a: {
                let mut v: Vec<String> = a.iter().cloned().collect();
                v.sort();
                v
            },
            b: {
                let mut v: Vec<String> = b.iter().cloned().collect();
                v.sort();
                v
            },
        });
        let (pa, pb) = (a.clone(), b.clone());
        inner.partition = Some((a, b));
        for severed in inner.sever_links(|entry| {
            (pa.contains(&entry.origin) && pb.contains(&entry.addr))
                || (pb.contains(&entry.origin) && pa.contains(&entry.addr))
        }) {
            inner.events.push(FaultEvent::Severed { addr: severed });
        }
    }

    /// Remove the group partition.
    pub fn heal_partition(&self) {
        let mut inner = self.inner.lock();
        inner.partition = None;
        inner.events.push(FaultEvent::PartitionHealed);
    }

    /// Drop all fault rules for `addr` (latency, refusals, stalls, drops).
    pub fn clear(&self, addr: &str) {
        let mut inner = self.inner.lock();
        inner.rules.remove(addr);
        inner.isolated.remove(addr);
        for entry in &inner.links {
            if entry.addr == addr {
                if let Some(control) = entry.control.upgrade() {
                    control.set_stalled(false);
                }
            }
        }
    }

    /// Snapshot of the event log so far.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.inner.lock().events.clone()
    }

    /// Decide the fate of a connection attempt `origin → addr`.
    pub(crate) fn admit(&self, origin: &str, addr: &str) -> Result<LinkSetup, RefuseReason> {
        let mut inner = self.inner.lock();
        let refusal = if inner.isolated.contains(addr) {
            Some(RefuseReason::Isolated)
        } else if inner.partition.as_ref().is_some_and(|(a, b)| {
            (a.contains(origin) && b.contains(addr)) || (b.contains(origin) && a.contains(addr))
        }) {
            Some(RefuseReason::Partitioned)
        } else {
            let rule = inner.rule(addr);
            if rule.refuse_next > 0 {
                rule.refuse_next -= 1;
                Some(RefuseReason::Scheduled)
            } else if rule.refuse_probability > 0.0 {
                let p = rule.refuse_probability;
                if inner.rng.next_f64() < p {
                    Some(RefuseReason::Probabilistic)
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some(reason) = refusal {
            inner.events.push(FaultEvent::Refused {
                addr: addr.to_string(),
                reason,
            });
            return Err(reason);
        }
        let rule = inner.rule(addr).clone();
        let jitter = if rule.latency_jitter > Duration::ZERO {
            rule.latency_jitter.mul_f64(inner.rng.next_f64())
        } else {
            Duration::ZERO
        };
        let extra = rule.extra_latency + jitter;
        inner.events.push(FaultEvent::Admitted {
            addr: addr.to_string(),
            extra_latency_us: extra.as_micros() as u64,
        });
        Ok(LinkSetup {
            extra_latency: extra,
            drop_after_bytes: rule.drop_after_bytes,
            stalled: rule.stalled,
        })
    }

    /// Track an admitted link so later `isolate`/`partition`/`stall` calls
    /// can reach it.
    pub(crate) fn register_link(&self, origin: &str, addr: &str, control: &Arc<LinkControl>) {
        let mut inner = self.inner.lock();
        inner.links.retain(|entry| entry.control.strong_count() > 0);
        inner.links.push(LinkEntry {
            origin: origin.to_string(),
            addr: addr.to_string(),
            control: Arc::downgrade(control),
        });
    }
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("FaultPlan")
            .field("seed", &inner.seed)
            .field("rules", &inner.rules.len())
            .field("isolated", &inner.isolated.len())
            .field("events", &inner.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilistic_refusal_replays_under_same_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed);
            plan.refuse_connections("ias:443", 0.5);
            (0..64)
                .map(|_| plan.admit("", "ias:443").is_err())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds should diverge");
        let refusals = run(7).iter().filter(|&&r| r).count();
        assert!(
            (16..=48).contains(&refusals),
            "p=0.5 refusal count wildly off: {refusals}/64"
        );
    }

    #[test]
    fn scheduled_refusals_consume_exactly() {
        let plan = FaultPlan::seeded(1);
        plan.refuse_next("svc:1", 2);
        assert_eq!(
            plan.admit("", "svc:1").unwrap_err(),
            RefuseReason::Scheduled
        );
        assert_eq!(
            plan.admit("", "svc:1").unwrap_err(),
            RefuseReason::Scheduled
        );
        assert!(plan.admit("", "svc:1").is_ok());
    }

    #[test]
    fn isolation_refuses_and_severs() {
        let plan = FaultPlan::seeded(1);
        let control = Arc::new(LinkControl::default());
        plan.register_link("", "host:9", &control);
        plan.isolate("host:9");
        assert!(plan.admit("", "host:9").is_err());
        assert!(control.is_severed());
        plan.heal("host:9");
        assert!(plan.admit("", "host:9").is_ok());
    }

    #[test]
    fn partition_is_directionless_and_heals() {
        let plan = FaultPlan::seeded(1);
        plan.partition(&["vm"], &["ias:443"]);
        assert_eq!(
            plan.admit("vm", "ias:443").unwrap_err(),
            RefuseReason::Partitioned
        );
        assert_eq!(
            plan.admit("ias:443", "vm").unwrap_err(),
            RefuseReason::Partitioned
        );
        // Unnamed origins are outside every group.
        assert!(plan.admit("", "ias:443").is_ok());
        plan.heal_partition();
        assert!(plan.admit("vm", "ias:443").is_ok());
    }

    #[test]
    fn write_budget_severs_at_boundary() {
        let control = LinkControl::with_faults(false, Some(10));
        assert_eq!(control.take_write_budget(6), 6);
        assert!(!control.is_severed());
        assert_eq!(control.take_write_budget(6), 4);
        assert!(control.is_severed());
        assert_eq!(control.take_write_budget(1), 0);
    }

    #[test]
    fn latency_jitter_is_bounded_and_logged() {
        let plan = FaultPlan::seeded(9);
        plan.add_latency("svc:1", Duration::from_millis(2), Duration::from_millis(3));
        for _ in 0..32 {
            let setup = plan.admit("", "svc:1").unwrap();
            assert!(setup.extra_latency >= Duration::from_millis(2));
            assert!(setup.extra_latency <= Duration::from_millis(5));
        }
        let events = plan.events();
        assert_eq!(events.len(), 32);
        assert!(events.iter().all(
            |e| matches!(e, FaultEvent::Admitted { extra_latency_us, .. }
                if (2_000..=5_000).contains(extra_latency_us))
        ));
    }
}
