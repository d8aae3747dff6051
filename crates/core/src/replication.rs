//! Replicated Verification Manager: WAL streaming, fencing, failover.
//!
//! The sealed WAL of PR 3 lets one node survive its own crash; this module
//! lets the deployment survive the *node*. A primary manager streams every
//! journaled [`WalRecord`] — crc32-framed, in order, tagged with a fencing
//! epoch and a contiguous sequence number — to N standby managers over the
//! fault-injectable fabric. Standbys re-seal each record into their own
//! vault and media, so a promoted standby recovers through the exact
//! [`StateStore::replay`] path a crash recovery uses: its state is
//! byte-equivalent to a post-crash restart of the primary.
//!
//! The protocol, end to end:
//!
//! - **Streaming** ([`ReplicaSet`], installed as the store's
//!   [`AppendObserver`]): each flushed commit batch is framed and pushed
//!   to every standby link by the store's commit leader, in LSN order,
//!   outside every shard lock, before any caller in the batch is
//!   acknowledged, with a bounded per-batch window, per-record crc32,
//!   explicit acks, and clock-advancing retry/backoff via
//!   [`RetryPolicy`] when a link fails.
//!   Undeliverable records stay buffered per the retention budget.
//! - **Gap detection + catch-up** (standby acks carry the next expected
//!   sequence): a lagging standby is replayed from the retained buffer, or
//!   — once the buffer no longer reaches back far enough — caught up with
//!   a full [`ManagerState`] snapshot installed through
//!   [`StateStore::install_state`].
//! - **Heartbeats** ([`ReplicaSet::heartbeat`], on [`SimClock`] time):
//!   empty batches that refresh the standbys' view of primary liveness;
//!   [`StandbyNode::primary_suspect`] is the missed-heartbeat promotion
//!   trigger.
//! - **Fencing**: every frame carries the primary's epoch. Promotion bumps
//!   the epoch on the surviving standbys, so a deposed primary that keeps
//!   appending after a partition heals gets a `FENCED` ack back,
//!   marks itself fenced, and fails the append — the caller's operation is
//!   rejected, not silently committed into a dead timeline.
//!
//! Promotion itself (standby selection by the highest contiguous high-water
//! mark, key re-derivation, serial/CRL reconciliation, orphan aborts,
//! notice requeue) lives in [`Testbed::promote`](crate::deployment::Testbed)
//! because it re-runs `VerificationManager::recover` against the chosen
//! standby's store.

use crate::resilience::RetryPolicy;
use crate::CoreError;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use vnfguard_controller::SimClock;
use vnfguard_net::fabric::{ListenerWaker, Network};
use vnfguard_net::stream::Duplex;
use vnfguard_store::wal::crc32;
use vnfguard_store::{AppendObserver, ManagerState, StateStore, WalRecord};
use vnfguard_telemetry::{Counter, Gauge, Telemetry};

/// Batch header marker (primary → standby).
const BATCH_MAGIC: u8 = 0xB7;
/// Ack marker (standby → primary).
const ACK_MAGIC: u8 = 0xB8;

/// Batch payload kinds.
const KIND_RECORDS: u8 = 1;
const KIND_HEARTBEAT: u8 = 2;
const KIND_SNAPSHOT: u8 = 3;

/// Ack statuses.
const STATUS_OK: u8 = 0;
const STATUS_GAP: u8 = 1;
const STATUS_FENCED: u8 = 2;

/// The most frames a batch may carry: a standby refuses a header that
/// claims more before it reads any frame, and the primary's window is
/// clamped to it.
const MAX_BATCH_FRAMES: usize = 1024;
/// The longest frame a standby reads: far above any record, and over ten
/// times the largest snapshot the tests and benches build (about 1.4 MB,
/// the state of E16's 10,000-credential storm fleet).
const MAX_FRAME_BYTES: usize = 16 << 20;

/// Tuning for the streaming side.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Maximum records in flight per batch before an ack is required,
    /// clamped to the 1,024 frames a standby accepts in one batch.
    pub window: usize,
    /// Records retained in the primary's resend buffer beyond the slowest
    /// ack. A standby that falls further behind than this is caught up
    /// with a snapshot instead of a replay.
    pub retain: usize,
}

impl Default for ReplicationConfig {
    fn default() -> ReplicationConfig {
        ReplicationConfig {
            window: 32,
            retain: 1024,
        }
    }
}

/// One streamed batch (the wire unit). `first_seq` is the sequence number
/// of the first framed record; a heartbeat carries `count == 0` and
/// `first_seq == head + 1` so an idle standby can still detect lag; a
/// snapshot carries one frame holding an encoded [`ManagerState`] and
/// `first_seq` names the sequence the standby should expect *next*.
struct Batch {
    epoch: u64,
    kind: u8,
    first_seq: u64,
    sent_at: u64,
    frames: Vec<Vec<u8>>,
}

impl Batch {
    fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(30 + self.frames.iter().map(Vec::len).sum::<usize>());
        out.push(BATCH_MAGIC);
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.push(self.kind);
        out.extend_from_slice(&self.first_seq.to_be_bytes());
        out.extend_from_slice(&(self.frames.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.sent_at.to_be_bytes());
        for frame in &self.frames {
            out.extend_from_slice(&(frame.len() as u32).to_be_bytes());
            out.extend_from_slice(frame);
            out.extend_from_slice(&crc32(frame).to_be_bytes());
        }
        stream.write_all(&out)
    }

    /// Read one batch. A header claiming more than [`MAX_BATCH_FRAMES`]
    /// frames, or a length word over [`MAX_FRAME_BYTES`], is refused before
    /// anything is sized from it or read past it.
    fn read_from(stream: &mut impl Read) -> std::io::Result<Batch> {
        let invalid = |what| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut header = [0u8; 30];
        stream.read_exact(&mut header)?;
        if header[0] != BATCH_MAGIC {
            return Err(invalid("bad batch magic"));
        }
        let epoch = u64::from_be_bytes(header[1..9].try_into().expect("8 bytes"));
        let kind = header[9];
        let first_seq = u64::from_be_bytes(header[10..18].try_into().expect("8 bytes"));
        let count = u32::from_be_bytes(header[18..22].try_into().expect("4 bytes")) as usize;
        let sent_at = u64::from_be_bytes(header[22..30].try_into().expect("8 bytes"));
        if count > MAX_BATCH_FRAMES {
            return Err(invalid("batch claims too many frames"));
        }
        let mut frames = Vec::with_capacity(count);
        for _ in 0..count {
            let mut len_buf = [0u8; 4];
            stream.read_exact(&mut len_buf)?;
            let len = u32::from_be_bytes(len_buf) as usize;
            if len > MAX_FRAME_BYTES {
                return Err(invalid("frame too long"));
            }
            let mut payload = vec![0u8; len];
            stream.read_exact(&mut payload)?;
            let mut crc_buf = [0u8; 4];
            stream.read_exact(&mut crc_buf)?;
            if crc32(&payload) != u32::from_be_bytes(crc_buf) {
                return Err(invalid("frame checksum mismatch"));
            }
            frames.push(payload);
        }
        Ok(Batch {
            epoch,
            kind,
            first_seq,
            sent_at,
            frames,
        })
    }
}

/// The standby's answer to one batch.
struct Ack {
    status: u8,
    epoch: u64,
    next_seq: u64,
}

impl Ack {
    fn write_to(&self, stream: &mut Duplex) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(18);
        out.push(ACK_MAGIC);
        out.push(self.status);
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.next_seq.to_be_bytes());
        stream.write_all(&out)
    }

    fn read_from(stream: &mut Duplex) -> std::io::Result<Ack> {
        let mut buf = [0u8; 18];
        stream.read_exact(&mut buf)?;
        if buf[0] != ACK_MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bad ack magic",
            ));
        }
        Ok(Ack {
            status: buf[1],
            epoch: u64::from_be_bytes(buf[2..10].try_into().expect("8 bytes")),
            next_seq: u64::from_be_bytes(buf[10..18].try_into().expect("8 bytes")),
        })
    }
}

// ---- Standby ---------------------------------------------------------------

/// Point-in-time view of one standby, for selection and operator surfaces.
#[derive(Debug, Clone)]
pub struct StandbyStatus {
    pub addr: String,
    /// Fencing epoch this standby will accept frames for.
    pub epoch: u64,
    /// Next sequence number expected — `next_seq - 1` is the contiguous
    /// WAL high-water mark, the promotion selection key.
    pub next_seq: u64,
    /// Records applied through the local sealed store.
    pub applied_records: u64,
    /// Snapshot-assisted catch-ups performed.
    pub snapshots_installed: u64,
    /// Frames rejected because they carried a stale epoch.
    pub fenced_rejections: u64,
    /// Primary clock time carried by the last accepted frame or heartbeat.
    pub last_heartbeat_at: Option<u64>,
}

struct StandbyInner {
    epoch: u64,
    next_seq: u64,
    applied_records: u64,
    snapshots_installed: u64,
    fenced_rejections: u64,
    last_heartbeat_at: Option<u64>,
    stop: bool,
}

struct StandbyShared {
    addr: String,
    store: StateStore,
    clock: SimClock,
    telemetry: Telemetry,
    inner: Mutex<StandbyInner>,
}

impl StandbyShared {
    fn snapshot(&self) -> StandbyStatus {
        let inner = self.inner.lock();
        StandbyStatus {
            addr: self.addr.clone(),
            epoch: inner.epoch,
            next_seq: inner.next_seq,
            applied_records: inner.applied_records,
            snapshots_installed: inner.snapshots_installed,
            fenced_rejections: inner.fenced_rejections,
            last_heartbeat_at: inner.last_heartbeat_at,
        }
    }
}

/// A detachable, read-only view of one standby's replication state — what
/// [`serve_standby_health`](crate::fleet::serve_standby_health) scrapes.
/// Holds the shared state without owning the node, so a health endpoint
/// built over it survives promotion (which consumes the [`StandbyNode`]).
#[derive(Clone)]
pub struct StandbyProbe {
    shared: Arc<StandbyShared>,
}

impl StandbyProbe {
    pub fn status(&self) -> StandbyStatus {
        self.shared.snapshot()
    }

    /// Seconds since the last frame or heartbeat from the primary,
    /// measured on the standby's own clock.
    pub fn heartbeat_age(&self) -> Option<u64> {
        let now = self.shared.clock.now();
        self.shared
            .inner
            .lock()
            .last_heartbeat_at
            .map(|at| now.saturating_sub(at))
    }
}

/// A standby manager's replication endpoint: listens on the fabric,
/// applies streamed records into its own sealed store, and answers acks.
/// The applied log is what [`Testbed::promote`](crate::deployment::Testbed)
/// recovers the next primary from. Stops, unbinds its address and joins
/// its accept thread on [`stop`](Self::stop) or drop.
pub struct StandbyNode {
    shared: Arc<StandbyShared>,
    waker: ListenerWaker,
    accept: Option<JoinHandle<()>>,
}

impl StandbyNode {
    /// Bind `addr` and start the apply loop on a background thread. The
    /// standby starts at `epoch` expecting sequence `next_seq` (1 for a
    /// fresh deployment).
    pub fn spawn(
        network: &Network,
        addr: &str,
        store: StateStore,
        clock: SimClock,
        telemetry: Telemetry,
        epoch: u64,
    ) -> Result<StandbyNode, CoreError> {
        let listener = network
            .listen(addr)
            .map_err(|e| CoreError::ServiceUnavailable(e.to_string()))?;
        let shared = Arc::new(StandbyShared {
            addr: addr.to_string(),
            store,
            clock,
            telemetry,
            inner: Mutex::new(StandbyInner {
                epoch,
                next_seq: 1,
                applied_records: 0,
                snapshots_installed: 0,
                fenced_rejections: 0,
                last_heartbeat_at: None,
                stop: false,
            }),
        });
        let waker = listener.waker();
        let thread_shared = shared.clone();
        let accept = std::thread::spawn(move || {
            // One handler per connection: a half-dead primary's stalled
            // link must not block a reconnect, the promoted primary's new
            // link, or a zombie's doomed one. `handle` serializes all
            // sessions on the standby's state lock, so interleaved streams
            // are still applied in sequence order (duplicates skipped,
            // stale epochs fenced).
            while let Ok(stream) = listener.accept() {
                if thread_shared.inner.lock().stop {
                    break;
                }
                let session = thread_shared.clone();
                std::thread::spawn(move || {
                    let mut stream = stream;
                    // Reads end on sever, EOF, or garbage.
                    while let Ok(batch) = Batch::read_from(&mut stream) {
                        // A stopped standby was promoted: its store now
                        // belongs to the new primary, so lingering
                        // sessions must not keep applying into it.
                        if session.inner.lock().stop {
                            break;
                        }
                        let ack = session.handle(batch);
                        if ack.write_to(&mut stream).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        Ok(StandbyNode {
            shared,
            waker,
            accept: Some(accept),
        })
    }

    /// This standby's fabric address.
    pub fn addr(&self) -> &str {
        &self.shared.addr
    }

    /// The standby's sealed store (promotion recovers through it).
    pub fn store(&self) -> StateStore {
        self.shared.store.clone()
    }

    pub fn status(&self) -> StandbyStatus {
        self.shared.snapshot()
    }

    /// A detachable [`StandbyProbe`] over this node's state, for the
    /// fleet monitor's per-standby health endpoints.
    pub fn status_probe(&self) -> StandbyProbe {
        StandbyProbe {
            shared: self.shared.clone(),
        }
    }

    /// Raise the epoch this standby accepts (the promotion fence). Frames
    /// from any older epoch — a zombie primary — are rejected from here on.
    pub fn set_epoch(&self, epoch: u64) {
        let mut inner = self.shared.inner.lock();
        if epoch > inner.epoch {
            inner.epoch = epoch;
        }
    }

    /// Seconds since the last frame or heartbeat from the primary (`None`
    /// until the first one arrives), measured on the standby's own clock.
    pub fn heartbeat_age(&self) -> Option<u64> {
        let now = self.shared.clock.now();
        self.shared
            .inner
            .lock()
            .last_heartbeat_at
            .map(|at| now.saturating_sub(at))
    }

    /// The missed-heartbeat promotion trigger: true once the primary has
    /// been silent for more than `timeout_secs` (and was heard at least
    /// once, so a freshly built deployment is not instantly suspicious).
    pub fn primary_suspect(&self, timeout_secs: u64) -> bool {
        matches!(self.heartbeat_age(), Some(age) if age > timeout_secs)
    }

    /// Stop the apply loop and release the address. Called on the chosen
    /// standby at promotion — the node stops being a replication sink and
    /// its store becomes the new primary's.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.inner.lock().stop = true;
        self.waker.wake();
        // The accept thread owns the listener, so joining it also unbinds
        // the address.
        if let Some(thread) = self.accept.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for StandbyNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for StandbyNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = self.status();
        f.debug_struct("StandbyNode")
            .field("addr", &status.addr)
            .field("epoch", &status.epoch)
            .field("next_seq", &status.next_seq)
            .finish()
    }
}

impl StandbyShared {
    fn handle(&self, batch: Batch) -> Ack {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        if batch.epoch < inner.epoch {
            // Fencing: a deposed primary is still streaming. Reject and
            // journal — the frames never touch the store.
            inner.fenced_rejections += 1;
            self.telemetry.event(
                now,
                "replication_fenced",
                &format!(
                    "{}: rejected epoch {} frame (current epoch {})",
                    self.addr, batch.epoch, inner.epoch
                ),
            );
            return Ack {
                status: STATUS_FENCED,
                epoch: inner.epoch,
                next_seq: inner.next_seq,
            };
        }
        if batch.epoch > inner.epoch {
            // A promoted primary announcing its new epoch in-band.
            inner.epoch = batch.epoch;
        }
        inner.last_heartbeat_at = Some(batch.sent_at);
        match batch.kind {
            KIND_SNAPSHOT => {
                let ok = batch
                    .frames
                    .first()
                    .and_then(|payload| ManagerState::decode(payload).ok())
                    .and_then(|state| self.store.install_state(&state).ok())
                    .is_some();
                if ok {
                    inner.next_seq = batch.first_seq;
                    inner.snapshots_installed += 1;
                    self.telemetry.event(
                        now,
                        "replication_snapshot_installed",
                        &format!("{}: caught up to seq {}", self.addr, batch.first_seq),
                    );
                    Ack {
                        status: STATUS_OK,
                        epoch: inner.epoch,
                        next_seq: inner.next_seq,
                    }
                } else {
                    Ack {
                        status: STATUS_GAP,
                        epoch: inner.epoch,
                        next_seq: inner.next_seq,
                    }
                }
            }
            KIND_RECORDS => {
                if batch.first_seq > inner.next_seq {
                    // Gap: something between our high-water mark and this
                    // batch never arrived. Ask for a resend.
                    return Ack {
                        status: STATUS_GAP,
                        epoch: inner.epoch,
                        next_seq: inner.next_seq,
                    };
                }
                // Records a retry already delivered are skipped: applying
                // them twice would fork. The rest land as one frame, so
                // the batch applies whole or not at all.
                let skip = (inner.next_seq - batch.first_seq) as usize;
                let fresh: Result<Vec<WalRecord>, _> = batch
                    .frames
                    .iter()
                    .skip(skip)
                    .map(|payload| WalRecord::decode(payload))
                    .collect();
                let applied = match fresh {
                    Ok(records) if self.store.append_group(&records).is_ok() => {
                        records.len() as u64
                    }
                    _ => {
                        return Ack {
                            status: STATUS_GAP,
                            epoch: inner.epoch,
                            next_seq: inner.next_seq,
                        }
                    }
                };
                inner.next_seq += applied;
                inner.applied_records += applied;
                Ack {
                    status: STATUS_OK,
                    epoch: inner.epoch,
                    next_seq: inner.next_seq,
                }
            }
            // Heartbeat (and anything unknown, conservatively): liveness
            // only, but still report lag so an idle primary learns a
            // standby fell behind.
            _ => Ack {
                status: if_gap_status(batch.first_seq, inner.next_seq),
                epoch: inner.epoch,
                next_seq: inner.next_seq,
            },
        }
    }
}

fn if_gap_status(first_seq: u64, next_seq: u64) -> u8 {
    if first_seq > next_seq {
        STATUS_GAP
    } else {
        STATUS_OK
    }
}

// ---- Primary ---------------------------------------------------------------

/// One standby link as the primary sees it.
struct LinkState {
    addr: String,
    conn: Option<Duplex>,
    /// Highest sequence this standby has acknowledged applying.
    acked_seq: u64,
    /// Clock time of the last successful ack.
    last_ack_at: Option<u64>,
    snapshots_sent: u64,
    send_failures: u64,
}

/// Per-standby view served by `GET /vm/replication`.
#[derive(Debug, Clone)]
pub struct StandbyLink {
    pub addr: String,
    pub acked_seq: u64,
    /// Records journaled on the primary but not yet acknowledged here.
    pub lag_records: u64,
    /// Seconds since the last ack (`None` before the first).
    pub lag_seconds: Option<u64>,
    pub snapshots_sent: u64,
}

/// Role + lag summary for operator surfaces.
#[derive(Debug, Clone)]
pub struct ReplicationStatus {
    /// `"primary"`, or `"fenced"` once a newer epoch deposed this node.
    pub role: &'static str,
    pub epoch: u64,
    /// Sequence of the last record streamed (0 before the first).
    pub head_seq: u64,
    pub fenced: bool,
    pub standbys: Vec<StandbyLink>,
    /// Worst-case standby staleness, `max(now - last_ack_at)`.
    pub heartbeat_age_seconds: Option<u64>,
}

struct ReplicaSetInner {
    epoch: u64,
    /// Sequence the next appended record will take.
    next_seq: u64,
    /// Retained records for resends: `(seq, encoded record)`.
    buffer: VecDeque<(u64, Vec<u8>)>,
    links: Vec<LinkState>,
}

struct ReplMetrics {
    records_streamed: Counter,
    snapshots_sent: Counter,
    fenced_appends: Counter,
    lag_records: Gauge,
    heartbeat_age: Gauge,
}

struct ReplicaSetShared {
    network: Network,
    origin: String,
    clock: SimClock,
    telemetry: Telemetry,
    config: ReplicationConfig,
    /// Snapshot source for catch-up (the primary's own store).
    store: Mutex<Option<StateStore>>,
    metrics: ReplMetrics,
    /// Set once a standby rejected this primary for a newer epoch; never
    /// cleared. Outside `inner` so the manager's liveness check never
    /// waits behind a pump that is streaming to a standby.
    fenced: AtomicBool,
    inner: Mutex<ReplicaSetInner>,
}

/// The primary's half of the replication fabric. Cloning shares state;
/// install one clone as the store's [`AppendObserver`] and hand another to
/// the manager for `GET /vm/replication`.
#[derive(Clone)]
pub struct ReplicaSet {
    shared: Arc<ReplicaSetShared>,
}

impl ReplicaSet {
    /// A primary at `epoch` streaming to `standby_addrs`, starting at
    /// sequence `next_seq` (1 for a fresh deployment; the promoted
    /// standby's high-water mark + 1 after a failover).
    pub fn new(
        network: &Network,
        standby_addrs: &[String],
        epoch: u64,
        next_seq: u64,
        config: ReplicationConfig,
        clock: SimClock,
        telemetry: Telemetry,
    ) -> ReplicaSet {
        let links = standby_addrs
            .iter()
            .map(|addr| LinkState {
                addr: addr.clone(),
                conn: None,
                acked_seq: next_seq.saturating_sub(1),
                last_ack_at: None,
                snapshots_sent: 0,
                send_failures: 0,
            })
            .collect();
        let core = telemetry.namespace("core");
        let metrics = ReplMetrics {
            records_streamed: core.counter("replication_records_total", &[]),
            snapshots_sent: core.counter("replication_snapshots_total", &[]),
            fenced_appends: core.counter("replication_fenced_total", &[]),
            lag_records: core.gauge("replication_lag_records", &[]),
            heartbeat_age: core.gauge("replication_heartbeat_age_seconds", &[]),
        };
        ReplicaSet {
            shared: Arc::new(ReplicaSetShared {
                network: network.clone(),
                origin: "vm".to_string(),
                clock: clock.clone(),
                telemetry,
                config,
                store: Mutex::new(None),
                metrics,
                fenced: AtomicBool::new(false),
                inner: Mutex::new(ReplicaSetInner {
                    epoch,
                    next_seq,
                    buffer: VecDeque::new(),
                    links,
                }),
            }),
        }
    }

    /// Attach the primary's own store as the snapshot source for
    /// catch-up. (Separate from construction because the observer is
    /// installed on that same store.)
    pub fn attach_store(&self, store: StateStore) {
        *self.shared.store.lock() = Some(store);
    }

    /// The fencing epoch this primary stamps on every frame.
    pub fn epoch(&self) -> u64 {
        self.shared.inner.lock().epoch
    }

    /// True once a standby rejected this primary for a newer epoch.
    pub fn is_fenced(&self) -> bool {
        self.shared.fenced.load(Ordering::SeqCst)
    }

    /// Stream any buffered records to every standby and read acks. Called
    /// from the append observer (so streaming happens before the journal
    /// append is acknowledged) and from [`heartbeat`](Self::heartbeat).
    /// Returns `Err` only when fenced.
    pub fn pump(&self) -> Result<(), String> {
        self.pump_inner(false)
    }

    /// Send a liveness frame (an empty batch) to every standby, draining
    /// any buffered records first. Refreshes the lag gauges.
    pub fn heartbeat(&self) {
        let _ = self.pump_inner(true);
    }

    /// Link retries per pump pass, then the full-jitter backoff's base and
    /// cap in seconds, on the shared [`SimClock`].
    const RETRY_ATTEMPTS: u32 = 2;
    const RETRY_BASE_SECS: u64 = 1;
    const RETRY_MAX_SECS: u64 = 8;

    fn pump_inner(&self, send_heartbeat: bool) -> Result<(), String> {
        let shared = &self.shared;
        let now = shared.clock.now();
        let mut inner = shared.inner.lock();
        if self.is_fenced() {
            return Err(format!(
                "replication fenced: a newer primary holds epoch > {}",
                inner.epoch
            ));
        }
        let retry = RetryPolicy::new(
            Self::RETRY_ATTEMPTS,
            Self::RETRY_BASE_SECS,
            Self::RETRY_MAX_SECS,
        )
        .with_seed(inner.next_seq ^ (inner.epoch << 32));
        let mut fenced = false;
        for idx in 0..inner.links.len() {
            let outcome = retry.run(&shared.clock, |_| {
                Self::drive_link(shared, &mut inner, idx, send_heartbeat, now)
            });
            match outcome.result {
                Ok(()) => {}
                Err(LinkError::Fenced(epoch)) => {
                    fenced = true;
                    shared.metrics.fenced_appends.inc();
                    shared.telemetry.event(
                        now,
                        "replication_fenced",
                        &format!(
                            "primary at epoch {} rejected by {} (epoch {epoch})",
                            inner.epoch, inner.links[idx].addr
                        ),
                    );
                }
                Err(LinkError::Io(_)) => {
                    // Link down: records stay buffered, the lag gauge
                    // grows, and the next pump retries.
                    inner.links[idx].conn = None;
                    inner.links[idx].send_failures += 1;
                }
            }
        }
        if fenced {
            shared.fenced.store(true, Ordering::SeqCst);
        }
        Self::trim_buffer(&shared.config, &mut inner);
        Self::refresh_gauges(shared, &inner, shared.clock.now());
        if fenced {
            Err(format!(
                "replication fenced: a newer primary holds epoch > {}",
                inner.epoch
            ))
        } else {
            Ok(())
        }
    }

    /// Bring one standby as close to `head` as the link allows: resend
    /// from its ack cursor in window-sized batches, fall back to a
    /// snapshot when the buffer no longer reaches, finish with an optional
    /// heartbeat.
    fn drive_link(
        shared: &ReplicaSetShared,
        inner: &mut ReplicaSetInner,
        idx: usize,
        send_heartbeat: bool,
        now: u64,
    ) -> Result<(), LinkError> {
        let epoch = inner.epoch;
        let head = inner.next_seq - 1;
        if inner.links[idx].conn.is_none() {
            let mut conn = shared
                .network
                .connect_from(&shared.origin, &inner.links[idx].addr)
                .map_err(|e| LinkError::Io(e.to_string()))?;
            // A standby that accepts but never acks (stalled link) must
            // not wedge the primary's append path forever.
            conn.set_read_timeout(Some(std::time::Duration::from_secs(5)));
            inner.links[idx].conn = Some(conn);
        }
        let window = shared.config.window.clamp(1, MAX_BATCH_FRAMES);
        loop {
            let from = inner.links[idx].acked_seq + 1;
            if from > head {
                break;
            }
            let oldest_buffered = inner.buffer.front().map(|(seq, _)| *seq);
            let batch = match oldest_buffered {
                Some(oldest) if from >= oldest => {
                    let start = (from - oldest) as usize;
                    let frames: Vec<Vec<u8>> = inner
                        .buffer
                        .iter()
                        .skip(start)
                        .take(window)
                        .map(|(_, bytes)| bytes.clone())
                        .collect();
                    Batch {
                        epoch,
                        kind: KIND_RECORDS,
                        first_seq: from,
                        sent_at: now,
                        frames,
                    }
                }
                // The standby needs records the buffer no longer holds:
                // snapshot-assisted catch-up from the primary's own store.
                _ => {
                    let state = shared
                        .store
                        .lock()
                        .as_ref()
                        .ok_or_else(|| LinkError::Io("no snapshot source".into()))?
                        .replay()
                        .map_err(|e| LinkError::Io(e.to_string()))?
                        .state;
                    inner.links[idx].snapshots_sent += 1;
                    shared.metrics.snapshots_sent.inc();
                    Batch {
                        epoch,
                        kind: KIND_SNAPSHOT,
                        first_seq: head + 1,
                        sent_at: now,
                        frames: vec![state.encode()],
                    }
                }
            };
            let sent_records = if batch.kind == KIND_RECORDS {
                batch.frames.len() as u64
            } else {
                0
            };
            let ack = Self::exchange(inner.links[idx].conn.as_mut().expect("conn set"), &batch)?;
            match ack.status {
                STATUS_FENCED => return Err(LinkError::Fenced(ack.epoch)),
                _ => {
                    // OK advances the cursor; GAP rewinds it to what the
                    // standby actually expects (both are `next_seq - 1`).
                    inner.links[idx].acked_seq = ack.next_seq.saturating_sub(1);
                    inner.links[idx].last_ack_at = Some(now);
                    if ack.status == STATUS_OK {
                        shared.metrics.records_streamed.add(sent_records);
                    }
                }
            }
        }
        if send_heartbeat {
            let batch = Batch {
                epoch,
                kind: KIND_HEARTBEAT,
                first_seq: head + 1,
                sent_at: now,
                frames: Vec::new(),
            };
            let ack = Self::exchange(inner.links[idx].conn.as_mut().expect("conn set"), &batch)?;
            match ack.status {
                STATUS_FENCED => return Err(LinkError::Fenced(ack.epoch)),
                _ => {
                    inner.links[idx].acked_seq = ack.next_seq.saturating_sub(1);
                    inner.links[idx].last_ack_at = Some(now);
                }
            }
        }
        Ok(())
    }

    fn exchange(conn: &mut Duplex, batch: &Batch) -> Result<Ack, LinkError> {
        batch
            .write_to(conn)
            .map_err(|e| LinkError::Io(e.to_string()))?;
        Ack::read_from(conn).map_err(|e| LinkError::Io(e.to_string()))
    }

    /// Drop acknowledged records, then enforce the retention budget (a
    /// standby that needs dropped records gets a snapshot instead).
    fn trim_buffer(config: &ReplicationConfig, inner: &mut ReplicaSetInner) {
        let min_acked = inner
            .links
            .iter()
            .map(|l| l.acked_seq)
            .min()
            .unwrap_or(inner.next_seq - 1);
        while matches!(inner.buffer.front(), Some((seq, _)) if *seq <= min_acked) {
            inner.buffer.pop_front();
        }
        while inner.buffer.len() > config.retain {
            inner.buffer.pop_front();
        }
    }

    fn refresh_gauges(shared: &ReplicaSetShared, inner: &ReplicaSetInner, now: u64) {
        let head = inner.next_seq - 1;
        let lag = inner
            .links
            .iter()
            .map(|l| head.saturating_sub(l.acked_seq))
            .max()
            .unwrap_or(0);
        shared.metrics.lag_records.set(lag as i64);
        let age = inner
            .links
            .iter()
            .map(|l| {
                l.last_ack_at
                    .map_or(i64::MAX, |at| now.saturating_sub(at) as i64)
            })
            .max()
            .unwrap_or(0);
        if age != i64::MAX {
            shared.metrics.heartbeat_age.set(age);
        }
    }

    /// Role, epoch, and per-standby lag; refreshes the Prometheus gauges
    /// so a scrape after any status read sees current values.
    pub fn status(&self) -> ReplicationStatus {
        let shared = &self.shared;
        let now = shared.clock.now();
        let inner = shared.inner.lock();
        let fenced = self.is_fenced();
        Self::refresh_gauges(shared, &inner, now);
        let head = inner.next_seq - 1;
        let standbys: Vec<StandbyLink> = inner
            .links
            .iter()
            .map(|l| StandbyLink {
                addr: l.addr.clone(),
                acked_seq: l.acked_seq,
                lag_records: head.saturating_sub(l.acked_seq),
                lag_seconds: l.last_ack_at.map(|at| now.saturating_sub(at)),
                snapshots_sent: l.snapshots_sent,
            })
            .collect();
        let heartbeat_age_seconds = standbys.iter().map(|s| s.lag_seconds).max().flatten();
        ReplicationStatus {
            role: if fenced { "fenced" } else { "primary" },
            epoch: inner.epoch,
            head_seq: head,
            fenced,
            standbys,
            heartbeat_age_seconds,
        }
    }
}

enum LinkError {
    Io(String),
    Fenced(u64),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Io(msg) => write!(f, "link io: {msg}"),
            LinkError::Fenced(epoch) => write!(f, "fenced by epoch {epoch}"),
        }
    }
}

impl AppendObserver for ReplicaSet {
    /// Frame the freshly flushed batch and stream it before any of its
    /// callers is acknowledged: an acknowledged operation is on every
    /// reachable standby. Only fencing fails the batch — an unreachable
    /// standby buffers.
    fn appended(&self, records: &[WalRecord]) -> Result<(), String> {
        {
            let mut inner = self.shared.inner.lock();
            if self.is_fenced() {
                return Err(format!(
                    "replication fenced: a newer primary holds epoch > {}",
                    inner.epoch
                ));
            }
            for record in records {
                let seq = inner.next_seq;
                inner.next_seq += 1;
                inner.buffer.push_back((seq, record.encode()));
            }
        }
        self.pump()
    }
}

impl std::fmt::Debug for ReplicaSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.inner.lock();
        f.debug_struct("ReplicaSet")
            .field("epoch", &inner.epoch)
            .field("head_seq", &(inner.next_seq - 1))
            .field("standbys", &inner.links.len())
            .field("fenced", &self.is_fenced())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader over `bytes` that counts the bytes it hands out.
    struct Counting<'a> {
        bytes: &'a [u8],
        read: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.bytes.len() - self.read);
            buf[..n].copy_from_slice(&self.bytes[self.read..self.read + n]);
            self.read += n;
            Ok(n)
        }
    }

    /// `wire` read as one batch, and how many bytes that read took.
    fn read(wire: &[u8]) -> (std::io::Result<Batch>, usize) {
        let mut reader = Counting {
            bytes: wire,
            read: 0,
        };
        (Batch::read_from(&mut reader), reader.read)
    }

    /// A records batch of `frames`, encoded.
    fn encoded(frames: Vec<Vec<u8>>) -> Vec<u8> {
        let batch = Batch {
            epoch: 7,
            kind: KIND_RECORDS,
            first_seq: 1,
            sent_at: 0,
            frames,
        };
        let mut wire = Vec::new();
        batch.write_to(&mut wire).unwrap();
        wire
    }

    #[test]
    fn a_standby_refuses_an_oversized_claim_before_reading_past_it() {
        const HEADER: usize = 30;
        // Frame count just above the bound: nothing past the header.
        let mut wire = encoded(vec![Vec::new(); MAX_BATCH_FRAMES + 1]);
        wire.truncate(HEADER + 64);
        let (batch, taken) = read(&wire);
        assert!(batch.is_err());
        assert_eq!(taken, HEADER, "read past a header claiming too many frames");
        // Frame length just above the bound: nothing past the length word.
        let mut wire = encoded(vec![Vec::new()]);
        wire.truncate(HEADER);
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        wire.extend_from_slice(&[0; 64]);
        let (batch, taken) = read(&wire);
        assert!(batch.is_err());
        assert_eq!(taken, HEADER + 4, "read past an oversized length word");
        // A batch at the frame bound still reads whole.
        let wire = encoded(vec![vec![0xAB]; MAX_BATCH_FRAMES]);
        let (batch, taken) = read(&wire);
        assert_eq!(batch.unwrap().frames.len(), MAX_BATCH_FRAMES);
        assert_eq!(taken, wire.len());
    }
}
