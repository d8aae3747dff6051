//! # vnfguard-store
//!
//! Crash-fault tolerance for the Verification Manager: a sealed,
//! checksummed, append-only write-ahead log of manager state transitions
//! plus periodically compacted snapshots.
//!
//! The paper keeps the manager's authority state — issued serials,
//! enrollments, revocations — implicit and volatile; a VM crash would
//! silently forget certificates it signed and enrollments it half
//! completed. This crate supplies the missing durability layer with the
//! same trust posture the paper applies to VNF credentials: state only
//! ever touches host storage **sealed to the VM's own enclave identity**
//! (see [`vault::StateVault`]), and recovery replays it only where the
//! identical vault enclave can re-derive the seal keys.
//!
//! Layout:
//!
//! - [`wal::Media`] — the durable medium (snapshot slot + framed log) that
//!   survives a crash, with torn-write and bit-rot fault hooks;
//! - [`record::WalRecord`] — one journaled state transition;
//!   [`record::ManagerState`] — the aggregate replay target, which doubles
//!   as the snapshot payload;
//! - [`vault::StateVault`] — the sealing enclave;
//! - [`StateStore`] — the handle the manager journals through.
//!
//! ## Commit path
//!
//! Durability is split in two so that no caller's lock is ever held
//! across a device write:
//!
//! 1. [`StateStore::enqueue`] seals records and gives them their log
//!    sequence numbers ([`Lsn`]). It does no I/O; the manager calls it
//!    while its shard lock is held, so LSN order is the order in which
//!    the manager mutated its state.
//! 2. [`StateStore::begin`] starts making a given LSN durable, after the
//!    caller has released its lock. A waiter whose LSN no one has issued
//!    yet becomes a *leader* as soon as fewer than two device writes are
//!    in flight: it takes every queued record as one batch, one frame and
//!    one device write, and issues its write at once, even while the
//!    previous batch's write is still running. A tear drops a whole batch,
//!    never part of one.
//! 3. [`Pending::finish`] waits until the LSN is durable. Batches land in
//!    LSN order: a leader waits for the previous batch to be published,
//!    lands its own, hands it to the [`AppendObserver`] once, marks it
//!    durable and wakes its *followers*. A waiter that could not lead at
//!    `begin` follows, or leads once the rule allows. Durability is
//!    therefore always a prefix of the log.
//!
//! Between the two steps a caller may do work of its own while its write
//! is in flight; the Verification Manager mints credentials there. A
//! leader lands its batch only when it finishes, so on a device faster
//! than that work its followers wait for it. [`StateStore::sync`] is
//! `begin` then `finish`, the one commit path.
//!
//! The leader whose batch brings the log over the threshold also compacts,
//! from an in-memory *replay mirror* of snapshot + log: one
//! [`StateStore::replay`] builds the mirror the first time it is needed,
//! every landed batch is applied to it, and [`StateStore::install_state`]
//! resets it. Compaction then only seals the mirror instead of unsealing,
//! decoding and replaying the snapshot. Compaction and snapshot installs
//! take the *writer role*: it stops new writes from being issued and waits
//! until the writes in flight have landed, so a compaction folds every
//! batch issued before it. Followers return as soon as their batch is
//! durable, so the leader may still be compacting when they answer; a
//! handle about to be replaced by a new one on the same medium calls
//! [`StateStore::quiesce`] first, or that compaction could truncate what
//! the new handle wrote. Before its first write a new handle cuts any torn
//! tail a crash left behind, so records acknowledged after recovery never
//! land behind unparseable bytes.

pub mod record;
pub mod vault;
pub mod wal;

pub use record::{EnrollmentEntry, ManagerState, NoticeEntry, PendingEntry, WalRecord};
pub use vault::{PayloadKind, StateVault};
pub use wal::Media;

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};

/// Errors from the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// Sealing or unsealing failed — wrong platform, wrong vault build, or
    /// a tampered blob. Unlike a torn tail this is not survivable: the
    /// medium's content cannot be trusted.
    Sealing(String),
    /// The medium's structure is invalid beyond the tolerated torn tail.
    Corrupt(String),
    /// An [`AppendObserver`] vetoed the append (e.g. a fenced replication
    /// primary). The frame reached the local medium but the operation must
    /// not be acknowledged: a deposed node's writes are not authoritative.
    Rejected(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Sealing(msg) => write!(f, "sealing: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
            StoreError::Rejected(msg) => write!(f, "append rejected: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<vnfguard_sgx::SgxError> for StoreError {
    fn from(e: vnfguard_sgx::SgxError) -> StoreError {
        StoreError::Sealing(e.to_string())
    }
}

impl From<vnfguard_encoding::EncodingError> for StoreError {
    fn from(e: vnfguard_encoding::EncodingError) -> StoreError {
        StoreError::Corrupt(e.to_string())
    }
}

/// Outcome of a [`StateStore::replay`].
#[derive(Debug, Clone)]
pub struct Replay {
    /// The reconstructed aggregate state.
    pub state: ManagerState,
    /// Log records applied on top of the snapshot (not counting the
    /// snapshot itself).
    pub replayed_records: u64,
    /// Whether a snapshot seeded the replay.
    pub from_snapshot: bool,
    /// Whether a torn or corrupt tail was dropped.
    pub truncated_tail: bool,
    /// Bytes the tail truncation discarded.
    pub dropped_bytes: usize,
}

/// Occupancy counters for operator surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    pub log_frames: u64,
    pub log_bytes: usize,
    pub compactions: u64,
    pub has_snapshot: bool,
}

/// Log sequence number: a record's position in a store's append order.
/// [`StateStore::enqueue`] hands them out from 1; 0 names "nothing yet".
pub type Lsn = u64;

/// Device writes a store keeps in flight at most. A leader issues its
/// batch's write while the previous batch's write is still running; the
/// batches land, are observed and are published in LSN order. Two is what
/// two closed-loop committers need: on E15's one-shard renewal burst (300
/// renewals per client, 1.5 ms writes, 2 vCPUs) two clients went from 604
/// renewals/s with one write in flight to 958–980/s, and one client stayed
/// at ~500/s. Deeper pipelines pay only with more committers, and they pay
/// in device writes: at 4 clients depth 2, 3 and unbounded read 1420–1436,
/// 1577–1680 and 1831–1845/s at 0.72, 0.91 and 0.98 flushes per renewal
/// (0.50 with one write in flight). At 8 clients, where the shard lock and
/// the CPU bind, every depth reads 1927–2356/s (1954–2004 with one write
/// in flight) at 0.55, 0.74 and 0.93 flushes per renewal (0.28). The model
/// overlaps any number of writes for free, which a device with an IOPS
/// budget does not.
const MAX_IN_FLIGHT: usize = 2;

/// How [`StateStore::sync`] saw its records become durable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Commit {
    /// Records in the batch that made the awaited LSN durable (0 when the
    /// batch is no longer known, e.g. it finished long before the call).
    pub batch_records: usize,
    /// Whether this caller wrote that batch itself (the leader) rather
    /// than waiting for another caller's write (a follower).
    pub leader: bool,
    /// Device writes already in flight when the batch was issued: 0, or 1
    /// when its write overlapped the previous batch's.
    pub in_flight: usize,
}

/// Sees every record the moment it lands on the medium — before the
/// append is acknowledged to the caller. This is the replication tap: a
/// streaming primary forwards each batch to its standbys from here, so
/// "WAL-before-response" extends to "WAL-and-stream-before-response".
///
/// Each batch's leader calls it once, with the batch's records in log
/// order, after the batch has landed and before it is published durable,
/// outside every caller's lock. Batches reach it strictly in LSN order,
/// one at a time, even while a later batch's write is in flight. It may
/// read the store (`replay`) but never append to it. Returning `Err`
/// vetoes that batch alone: every caller waiting on it fails with
/// [`StoreError::Rejected`]. Observers must reserve this for authority
/// failures (a fenced primary), never for mere delivery trouble — an
/// unreachable standby is the observer's problem to buffer and retry.
pub trait AppendObserver: Send + Sync {
    fn appended(&self, records: &[WalRecord]) -> Result<(), String>;
}

/// Records sealed and ordered, waiting for a leader to flush them.
#[derive(Default)]
struct Queue {
    records: Vec<WalRecord>,
    sealed: Vec<Vec<u8>>,
}

/// A batch handed to a leader: its LSN range and the writes already in
/// flight when it was issued.
#[derive(Debug, Clone, Copy)]
struct Batch {
    first: Lsn,
    last: Lsn,
    in_flight: usize,
}

impl Batch {
    fn holds(&self, lsn: Lsn) -> bool {
        (self.first..=self.last).contains(&lsn)
    }

    fn commit(&self, leader: bool) -> Commit {
        Commit {
            batch_records: (self.last - self.first + 1) as usize,
            leader,
            in_flight: self.in_flight,
        }
    }
}

/// Ordering and durability bookkeeping, shared by every clone.
#[derive(Default)]
struct CommitState {
    queue: Queue,
    /// LSN of the last record enqueued.
    appended: Lsn,
    /// Every record up to this LSN has had its batch landed and observed.
    durable: Lsn,
    /// Batches issued and not yet published, oldest first.
    in_flight: VecDeque<Batch>,
    /// The most recently published batch.
    last_batch: Option<Batch>,
    /// A compaction or snapshot install holds the writer role: no write is
    /// issued until it is released.
    exclusive: bool,
    /// LSN ranges whose batches the observer vetoed, with the reason.
    /// Adjacent vetoed batches merge into one range, so a fenced primary
    /// that fails every batch keeps a single entry.
    vetoed: Vec<(Lsn, Lsn, String)>,
}

impl CommitState {
    /// LSN of the last record handed to a leader; the queue holds the
    /// LSNs after it.
    fn issued(&self) -> Lsn {
        self.in_flight
            .back()
            .map_or(self.durable, |batch| batch.last)
    }

    /// The leader rule: a write may be issued while no one holds the
    /// writer role and fewer than [`MAX_IN_FLIGHT`] writes are in flight.
    fn may_issue(&self) -> bool {
        !self.exclusive && self.in_flight.len() < MAX_IN_FLIGHT
    }

    /// The outcome a follower reports for `lsn` once it is durable, given
    /// the batch it saw holding `lsn` in flight, if any.
    fn outcome(&self, lsn: Lsn, seen: Option<Batch>) -> Result<Commit, StoreError> {
        if let Some((_, _, reason)) = self
            .vetoed
            .iter()
            .find(|(first, last, _)| (*first..=*last).contains(&lsn))
        {
            return Err(StoreError::Rejected(reason.clone()));
        }
        Ok(seen
            .or(self.last_batch)
            .filter(|batch| batch.holds(lsn))
            .map(|batch| batch.commit(false))
            .unwrap_or_default())
    }
}

/// State behind the writer mutex: only the leader landing a batch and
/// the holder of the writer role touch it.
#[derive(Default)]
struct WriterState {
    /// Snapshot + log as one aggregate, once built (see the crate docs).
    mirror: Option<ManagerState>,
    /// The log length this store last left the medium at; `None` until
    /// the first write checks the medium for a torn tail.
    log_len: Option<usize>,
}

struct Shared {
    media: Media,
    vault: StateVault,
    observer: Mutex<Option<Arc<dyn AppendObserver>>>,
    /// A std mutex: the commit path waits on it with a [`Condvar`].
    commit: std::sync::Mutex<CommitState>,
    /// Signalled whenever a batch is published or the writer role frees
    /// up.
    changed: Condvar,
    writer: Mutex<WriterState>,
}

impl Shared {
    fn commit(&self) -> MutexGuard<'_, CommitState> {
        self.commit.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until the next batch is published or the writer role frees
    /// up.
    fn wait<'a>(&self, commit: MutexGuard<'a, CommitState>) -> MutexGuard<'a, CommitState> {
        self.changed
            .wait(commit)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// The manager's journaling handle: ordered enqueue, group-committed
/// durability, compaction and replay (see the crate docs).
///
/// Clones share the media, the vault, the commit queue and the observer
/// slot, so the manager and the revocation notifier journal into the same
/// log and feed the same replication stream.
#[derive(Clone)]
pub struct StateStore {
    shared: Arc<Shared>,
    /// Auto-compact once the log holds this many frames (`None`: manual).
    compact_every: Option<u64>,
}

/// A batch whose write its leader has issued and not yet landed.
struct Lead {
    batch: Batch,
    queue: Queue,
    write: wal::Write,
}

/// A wait for durability started by [`StateStore::begin`]: either the
/// caller leads a batch whose write is already in flight, or it has not
/// issued anything. [`finish`](Self::finish) completes it. A leading
/// `Pending` dropped without `finish` still lands and publishes its batch,
/// so the followers of that batch are never stranded.
#[must_use = "finish the wait: a response may leave only once it returns"]
pub struct Pending {
    store: StateStore,
    lsn: Lsn,
    lead: Option<Lead>,
}

impl Pending {
    /// Wait until the LSN is durable: land the batch this caller leads, or
    /// follow the batch holding the LSN — leading it once the leader rule
    /// allows, if no one has issued it yet.
    pub fn finish(mut self) -> Result<Commit, StoreError> {
        let lead = match self.lead.take() {
            Some(lead) => lead,
            None => {
                let shared = &self.store.shared;
                let mut commit = shared.commit();
                let mut seen = None;
                loop {
                    if commit.durable >= self.lsn {
                        return commit.outcome(self.lsn, seen);
                    }
                    if self.lsn <= commit.issued() {
                        seen = seen.or_else(|| {
                            commit.in_flight.iter().copied().find(|b| b.holds(self.lsn))
                        });
                    } else if commit.may_issue() {
                        break self.store.lead(&mut commit);
                    }
                    commit = shared.wait(commit);
                }
            }
        };
        self.store.land_in_order(lead)
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if let Some(lead) = self.lead.take() {
            let _ = self.store.land_in_order(lead);
        }
    }
}

/// The writer role: held by a compaction or a snapshot install, so it has
/// the medium to itself. Its holder claimed it before any write still in
/// flight had landed; no write is issued until it is dropped.
struct WriterRole<'a> {
    shared: &'a Shared,
}

impl Drop for WriterRole<'_> {
    fn drop(&mut self) {
        self.shared.commit().exclusive = false;
        self.shared.changed.notify_all();
    }
}

impl StateStore {
    pub fn new(media: Media, vault: StateVault) -> StateStore {
        StateStore {
            shared: Arc::new(Shared {
                media,
                vault,
                observer: Mutex::new(None),
                commit: std::sync::Mutex::new(CommitState::default()),
                changed: Condvar::new(),
                writer: Mutex::new(WriterState::default()),
            }),
            compact_every: None,
        }
    }

    /// Install (or replace) the append observer. Takes effect for every
    /// clone of this store, including clones taken before this call.
    pub fn set_observer(&self, observer: Arc<dyn AppendObserver>) {
        *self.shared.observer.lock() = Some(observer);
    }

    /// Remove the append observer (e.g. when a deployment is demoted out
    /// of replicated operation).
    pub fn clear_observer(&self) {
        *self.shared.observer.lock() = None;
    }

    /// Enable threshold compaction: after a batch brings the log to
    /// `frames` frames, fold it into a fresh sealed snapshot. `0` disables.
    pub fn with_compaction(mut self, frames: u64) -> StateStore {
        self.compact_every = (frames > 0).then_some(frames);
        self
    }

    /// Seal `records` and queue them for the next flush, in order. Returns
    /// the LSN of the last one (the current appended LSN when `records` is
    /// empty). No I/O happens here: the records are durable only once a
    /// [`sync`](Self::sync) to the returned LSN has returned `Ok`.
    pub fn enqueue(&self, records: &[WalRecord]) -> Result<Lsn, StoreError> {
        let mut sealed = Vec::with_capacity(records.len());
        for record in records {
            sealed.push(
                self.shared
                    .vault
                    .seal(PayloadKind::Record, &record.encode())?,
            );
        }
        let mut commit = self.shared.commit();
        commit.queue.records.extend_from_slice(records);
        commit.queue.sealed.extend(sealed);
        commit.appended += records.len() as Lsn;
        Ok(commit.appended)
    }

    /// The LSN of the last record enqueued on this store.
    pub fn appended_lsn(&self) -> Lsn {
        self.shared.commit().appended
    }

    /// Whether every record up to `lsn` has had its batch written.
    pub fn is_durable(&self, lsn: Lsn) -> bool {
        self.shared.commit().durable >= lsn
    }

    /// Wait until every record up to `lsn` is durable — on the medium and
    /// accepted by the [`AppendObserver`] — leading its batch if no one
    /// else has (see the crate docs). Fails with [`StoreError::Rejected`]
    /// when the observer vetoed the batch holding `lsn`; the leader also
    /// reports a failed threshold compaction, which runs after its batch
    /// is durable and after the followers have been released.
    ///
    /// `sync` is [`begin`](Self::begin) then [`Pending::finish`] with
    /// nothing in between.
    pub fn sync(&self, lsn: Lsn) -> Result<Commit, StoreError> {
        self.begin(lsn).finish()
    }

    /// Start making `lsn` durable: if this caller may lead its batch now —
    /// `lsn` is queued, not yet issued, and the leader rule lets a write
    /// be issued — take the queue and issue the batch's device write
    /// before returning. Otherwise issue nothing: the batch is someone
    /// else's, or the write waits for its turn in
    /// [`finish`](Pending::finish). The caller may do unrelated work while
    /// the write is in flight; its batch lands only when it finishes.
    pub fn begin(&self, lsn: Lsn) -> Pending {
        let mut commit = self.shared.commit();
        // An LSN never handed out cannot be waited for.
        let lsn = lsn.min(commit.appended);
        let lead = (lsn > commit.issued() && commit.may_issue()).then(|| self.lead(&mut commit));
        Pending {
            store: self.clone(),
            lsn,
            lead,
        }
    }

    /// Lead: take every queued record — exactly the LSNs after `issued`,
    /// so the batch covers every waiter's LSN — and issue its write.
    fn lead(&self, commit: &mut CommitState) -> Lead {
        let batch = Batch {
            first: commit.issued() + 1,
            last: commit.appended,
            in_flight: commit.in_flight.len(),
        };
        commit.in_flight.push_back(batch);
        Lead {
            batch,
            queue: std::mem::take(&mut commit.queue),
            write: self.shared.media.issue(),
        }
    }

    /// Land a led batch once its predecessor is published, then compact if
    /// the batch brought the log over the threshold.
    fn land_in_order(&self, lead: Lead) -> Result<Commit, StoreError> {
        let mut commit = self.shared.commit();
        while commit.durable + 1 < lead.batch.first {
            commit = self.shared.wait(commit);
        }
        drop(commit);
        let (outcome, compact) = self.land(lead.batch, &lead.queue, lead.write);
        if let Some(role) = compact {
            self.compact_holding(&role)?;
        }
        outcome
    }

    /// Wait until this store is idle: everything enqueued durable, no
    /// write in flight and no compaction or snapshot install running.
    /// Queued records no one is flushing yet are flushed here. Call it,
    /// once the store's users have stopped enqueuing, before a second
    /// handle starts writing to the same medium (a recovered incarnation
    /// replacing a crashed one): a late write of this handle, such as a
    /// threshold compaction truncating the log, would otherwise erase what
    /// the new handle wrote. Batch outcomes are left to the callers
    /// waiting on them (vetoes are kept per LSN range).
    pub fn quiesce(&self) {
        loop {
            let mut commit = self.shared.commit();
            while commit.exclusive || !commit.in_flight.is_empty() {
                commit = self.shared.wait(commit);
            }
            if commit.durable == commit.appended {
                return;
            }
            let lsn = commit.appended;
            drop(commit);
            let _ = self.sync(lsn);
        }
    }

    /// Land a leader's batch once its predecessor is published, holding
    /// the writer mutex: cut a torn tail first if the medium is not as
    /// this store left it, land the write, fold the records into the
    /// replay mirror, let the observer see them, then publish the batch
    /// and wake its followers. Returns the leader's outcome and, when the
    /// log has crossed the compaction threshold, the writer role claimed
    /// in the same step as publishing, so [`quiesce`](Self::quiesce) never
    /// finds the store idle before that compaction runs.
    fn land(
        &self,
        batch: Batch,
        queue: &Queue,
        write: wal::Write,
    ) -> (Result<Commit, StoreError>, Option<WriterRole<'_>>) {
        let media = &self.shared.media;
        let mut writer = self.shared.writer.lock();
        Self::check_tail(media, &mut writer);
        let frame = wal::group_frame(&queue.sealed);
        writer.log_len = Some(media.land(write, &frame, queue.sealed.len() as u64));
        if let Some(mirror) = &mut writer.mirror {
            for record in &queue.records {
                mirror.apply(record);
            }
        }
        let observer = self.shared.observer.lock().clone();
        let observed = match observer {
            Some(observer) => observer.appended(&queue.records),
            None => Ok(()),
        };
        let due = self
            .compact_every
            .is_some_and(|every| media.frame_count() >= every);

        let mut commit = self.shared.commit();
        commit.durable = batch.last;
        commit.in_flight.pop_front();
        commit.last_batch = Some(batch);
        let outcome = match observed {
            Ok(()) => Ok(batch.commit(true)),
            Err(reason) => {
                match commit.vetoed.last_mut() {
                    Some(range) if range.1 + 1 == batch.first => range.1 = batch.last,
                    _ => commit
                        .vetoed
                        .push((batch.first, batch.last, reason.clone())),
                }
                Err(StoreError::Rejected(reason))
            }
        };
        self.shared.changed.notify_all();
        // A role already claimed will fold this batch: its holder waits
        // for every write in flight, this one included.
        if !due || commit.exclusive {
            return (outcome, None);
        }
        commit.exclusive = true;
        drop(writer);
        (outcome, Some(self.drained(commit)))
    }

    /// Make sure the next write lands right after the last intact frame.
    /// A medium this store has not written yet (a fresh handle after a
    /// crash) or one whose length changed under it (a torn write) is
    /// parsed once and cut back; the mirror no longer matches it then, so
    /// it is dropped and rebuilt on demand.
    fn check_tail(media: &Media, writer: &mut WriterState) {
        if writer.log_len != Some(media.log_bytes()) {
            writer.log_len = Some(media.cut_torn_tail());
            writer.mirror = None;
        }
    }

    /// Take the writer role: claim it once no one else holds it, which
    /// stops new writes, then wait for the writes in flight to land.
    fn writer_role(&self) -> WriterRole<'_> {
        let mut commit = self.shared.commit();
        while commit.exclusive {
            commit = self.shared.wait(commit);
        }
        commit.exclusive = true;
        self.drained(commit)
    }

    /// With the writer role claimed under `commit`, wait until every write
    /// in flight has landed and hand the role out.
    fn drained<'a>(&'a self, mut commit: MutexGuard<'a, CommitState>) -> WriterRole<'a> {
        while !commit.in_flight.is_empty() {
            commit = self.shared.wait(commit);
        }
        WriterRole {
            shared: &self.shared,
        }
    }

    /// Seal the replay mirror as the new snapshot and truncate the log;
    /// the caller holds the writer role. Returns the records folded in.
    fn compact_holding(&self, _role: &WriterRole<'_>) -> Result<u64, StoreError> {
        let media = &self.shared.media;
        let mut writer = self.shared.writer.lock();
        Self::check_tail(media, &mut writer);
        let folded = media.frame_count();
        if writer.mirror.is_none() {
            writer.mirror = Some(self.replay()?.state);
        }
        let state = writer.mirror.as_ref().expect("mirror built above");
        let sealed = self
            .shared
            .vault
            .seal(PayloadKind::Snapshot, &state.encode())?;
        media.install_snapshot(sealed);
        writer.log_len = Some(0);
        Ok(folded)
    }

    /// Seal `record` and make it durable — [`enqueue`](Self::enqueue) then
    /// [`sync`](Self::sync), for callers that hold no lock of their own.
    pub fn append(&self, record: &WalRecord) -> Result<(), StoreError> {
        self.append_group(std::slice::from_ref(record))
    }

    /// Journal a whole workflow's records and wait until they are durable.
    /// They share one frame with whatever else is queued, so a tear drops
    /// all of them or none, and the [`AppendObserver`] sees every record in
    /// order before the call returns, preserving
    /// WAL-and-stream-before-response.
    pub fn append_group(&self, records: &[WalRecord]) -> Result<(), StoreError> {
        if records.is_empty() {
            return Ok(());
        }
        let lsn = self.enqueue(records)?;
        self.sync(lsn).map(|_| ())
    }

    /// Install `state` as the sealed snapshot and truncate the log —
    /// snapshot-assisted catch-up on a replication standby that fell too
    /// far behind the primary's retained stream. The state is re-sealed
    /// under *this* store's vault, so a standby's medium only ever holds
    /// blobs its own platform can open. Resets the replay mirror to
    /// `state`.
    pub fn install_state(&self, state: &ManagerState) -> Result<(), StoreError> {
        let sealed = self
            .shared
            .vault
            .seal(PayloadKind::Snapshot, &state.encode())?;
        let _role = self.writer_role();
        let mut writer = self.shared.writer.lock();
        self.shared.media.install_snapshot(sealed);
        writer.log_len = Some(0);
        writer.mirror = Some(state.clone());
        Ok(())
    }

    /// Fold snapshot + log into a new sealed snapshot and truncate the
    /// log. Returns the number of log records folded in.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let role = self.writer_role();
        self.compact_holding(&role)
    }

    /// Reconstruct the aggregate state: unseal the snapshot (if present),
    /// then apply every intact log record. A torn or corrupt *tail* is
    /// dropped (those records were never acknowledged); an unsealable
    /// intact frame is a hard error (the media passed its checksums, so
    /// the blob was written by someone else's keys).
    pub fn replay(&self) -> Result<Replay, StoreError> {
        let vault = &self.shared.vault;
        let (snapshot, log) = self.shared.media.contents();
        let mut state = ManagerState::default();
        let from_snapshot = match snapshot {
            Some(blob) => {
                let plaintext = vault.unseal(PayloadKind::Snapshot, &blob)?;
                state = ManagerState::decode(&plaintext)?;
                true
            }
            None => false,
        };
        let parsed = wal::parse_log(&log);
        let mut replayed = 0;
        for frame in &parsed.frames {
            let plaintext = vault.unseal(PayloadKind::Record, frame)?;
            state.apply(&WalRecord::decode(&plaintext)?);
            replayed += 1;
        }
        Ok(Replay {
            state,
            replayed_records: replayed,
            from_snapshot,
            truncated_tail: parsed.truncated,
            dropped_bytes: parsed.dropped_bytes,
        })
    }

    /// The backing medium (for crash tests and occupancy surfaces).
    pub fn media(&self) -> &Media {
        &self.shared.media
    }

    pub fn stats(&self) -> StoreStats {
        let media = &self.shared.media;
        StoreStats {
            log_frames: media.frame_count(),
            log_bytes: media.log_bytes(),
            compactions: media.compactions(),
            has_snapshot: media.has_snapshot(),
        }
    }
}

impl std::fmt::Debug for StateStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateStore")
            .field("stats", &self.stats())
            .field("compact_every", &self.compact_every)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vnfguard_sgx::platform::SgxPlatform;
    use vnfguard_sgx::sigstruct::EnclaveAuthor;

    fn store_on(platform: &SgxPlatform, media: Media) -> StateStore {
        let vault = StateVault::load(platform, &EnclaveAuthor::from_seed(&[9; 32])).unwrap();
        StateStore::new(media, vault)
    }

    fn cert_issued(serial: u64) -> WalRecord {
        WalRecord::CertIssued {
            serial,
            subject: format!("vnf-{serial}"),
            at: serial,
        }
    }

    /// Records every batch it observes, and vetoes a batch holding the CRL
    /// numbered `veto`.
    #[derive(Default)]
    struct Tape {
        batches: Mutex<Vec<Vec<WalRecord>>>,
        veto: Option<u64>,
    }

    impl AppendObserver for Tape {
        fn appended(&self, records: &[WalRecord]) -> Result<(), String> {
            self.batches.lock().push(records.to_vec());
            let vetoed = records.iter().any(|record| {
                matches!(record, WalRecord::CrlIssued { number, .. } if Some(*number) == self.veto)
            });
            if vetoed {
                Err("fenced".into())
            } else {
                Ok(())
            }
        }
    }

    /// Two batches whose writes overlap on a slow medium: each record of
    /// `first` is enqueued and then waited on by a thread of its own, and
    /// once the first batch's write is in flight, the same for `second`.
    /// Returns every waiter's outcome, per batch.
    fn overlapping_batches(
        store: &StateStore,
        first: &[WalRecord],
        second: &[WalRecord],
    ) -> [Vec<Result<Commit, StoreError>>; 2] {
        store.media().set_write_latency(Duration::from_millis(200));
        std::thread::scope(|scope| {
            let waiters = |records: &[WalRecord]| {
                let lsns: Vec<Lsn> = records
                    .iter()
                    .map(|record| store.enqueue(std::slice::from_ref(record)).unwrap())
                    .collect();
                lsns.into_iter()
                    .map(|lsn| scope.spawn(move || store.sync(lsn)))
                    .collect::<Vec<_>>()
            };
            let first = waiters(first);
            while store.media().writes_in_flight() == 0 {
                std::thread::yield_now();
            }
            let second = waiters(second);
            [first, second].map(|waiters| {
                waiters
                    .into_iter()
                    .map(|waiter| waiter.join().unwrap())
                    .collect()
            })
        })
    }

    fn issue_and_commit(store: &StateStore, serial: u64, at: u64) {
        store
            .append(&WalRecord::CertIssued {
                serial,
                subject: format!("vnf-{serial}"),
                at,
            })
            .unwrap();
        store
            .append(&WalRecord::EnrollmentPrepared {
                serial,
                vnf_name: format!("vnf-{serial}"),
                host_id: "host-0".into(),
                mrenclave: [1; 32],
                provisioning_key_hash: [2; 32],
                backend: 0,
                at,
            })
            .unwrap();
        store
            .append(&WalRecord::EnrollmentCommitted { serial, at: at + 1 })
            .unwrap();
    }

    #[test]
    fn replay_after_simulated_crash() {
        let platform = SgxPlatform::new(b"vm");
        let media = Media::new();
        {
            let store = store_on(&platform, media.clone());
            issue_and_commit(&store, 2, 100);
            issue_and_commit(&store, 3, 200);
        } // crash: the store (and its vault) are gone; the media survives
        let revived = store_on(&platform, media);
        let replay = revived.replay().unwrap();
        assert_eq!(replay.replayed_records, 6);
        assert!(!replay.from_snapshot);
        assert_eq!(replay.state.enrollments.len(), 2);
        assert_eq!(replay.state.max_serial, 3);
        replay.state.check_invariants().unwrap();
    }

    #[test]
    fn compaction_preserves_replay_result() {
        let platform = SgxPlatform::new(b"vm");
        let plain = store_on(&platform, Media::new());
        let compacted = store_on(&platform, Media::new());
        for serial in 2..8 {
            issue_and_commit(&plain, serial, serial * 10);
            issue_and_commit(&compacted, serial, serial * 10);
        }
        compacted.compact().unwrap();
        issue_and_commit(&plain, 8, 80);
        issue_and_commit(&compacted, 8, 80);
        let a = plain.replay().unwrap();
        let b = compacted.replay().unwrap();
        assert_eq!(a.state, b.state, "snapshot+log must equal full replay");
        assert!(b.from_snapshot);
        assert_eq!(b.replayed_records, 3, "only the post-snapshot records");
    }

    #[test]
    fn threshold_compaction_fires_on_append() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new()).with_compaction(4);
        issue_and_commit(&store, 2, 10); // 3 frames
        assert_eq!(store.stats().compactions, 0);
        issue_and_commit(&store, 3, 20); // crosses 4 → compacts
        assert!(store.stats().compactions >= 1);
        assert!(store.stats().has_snapshot);
        let replay = store.replay().unwrap();
        assert_eq!(replay.state.enrollments.len(), 2);
    }

    #[test]
    fn torn_tail_is_survivable_corrupt_body_is_not_lost() {
        let platform = SgxPlatform::new(b"vm");
        let media = Media::new();
        let store = store_on(&platform, media.clone());
        issue_and_commit(&store, 2, 10);
        store
            .append(&WalRecord::CredentialRevoked {
                serial: 2,
                reason_code: 1,
                at: 20,
            })
            .unwrap();
        media.tear_tail(5);
        let replay = store.replay().unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.replayed_records, 3, "torn revocation dropped");
        assert!(!replay.state.enrollments[&2].revoked);
    }

    #[test]
    fn group_append_replays_like_sequential() {
        let platform = SgxPlatform::new(b"vm");
        let grouped = store_on(&platform, Media::new());
        let sequential = store_on(&platform, Media::new());
        let records = [
            WalRecord::CertIssued {
                serial: 2,
                subject: "vnf-2".into(),
                at: 10,
            },
            WalRecord::EnrollmentPrepared {
                serial: 2,
                vnf_name: "vnf-2".into(),
                host_id: "host-0".into(),
                mrenclave: [1; 32],
                provisioning_key_hash: [2; 32],
                backend: 0,
                at: 10,
            },
        ];
        grouped.append_group(&records).unwrap();
        for record in &records {
            sequential.append(record).unwrap();
        }
        let a = grouped.replay().unwrap();
        let b = sequential.replay().unwrap();
        assert_eq!(a.state, b.state);
        assert_eq!(a.replayed_records, 2);
        assert_eq!(b.replayed_records, 2);
        assert_eq!(grouped.stats().log_frames, 2, "members counted");
        assert_eq!(grouped.media().flushes(), 1, "one write for the group");
        assert_eq!(sequential.media().flushes(), 2);
    }

    #[test]
    fn group_observer_sees_each_record_in_order() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        let tape = Arc::new(Tape::default());
        store.set_observer(tape.clone());
        let records: Vec<WalRecord> = (2..6).map(cert_issued).collect();
        store.append_group(&records).unwrap();
        assert_eq!(*tape.batches.lock(), vec![records]);
    }

    #[test]
    fn torn_group_loses_the_whole_workflow() {
        let platform = SgxPlatform::new(b"vm");
        let media = Media::new();
        let store = store_on(&platform, media.clone());
        issue_and_commit(&store, 2, 10);
        store
            .append_group(&[
                WalRecord::CertIssued {
                    serial: 3,
                    subject: "vnf-3".into(),
                    at: 20,
                },
                WalRecord::EnrollmentPrepared {
                    serial: 3,
                    vnf_name: "vnf-3".into(),
                    host_id: "host-0".into(),
                    mrenclave: [1; 32],
                    provisioning_key_hash: [2; 32],
                    backend: 0,
                    at: 20,
                },
            ])
            .unwrap();
        media.tear_tail(7);
        let replay = store.replay().unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.replayed_records, 3, "whole group gone, prefix kept");
        assert_eq!(replay.state.max_serial, 2);
        assert!(replay.state.pending.is_empty());
    }

    #[test]
    fn appends_after_a_torn_tail_recovery_survive() {
        let platform = SgxPlatform::new(b"vm");
        let media = Media::new();
        {
            let store = store_on(&platform, media.clone());
            issue_and_commit(&store, 2, 10);
            issue_and_commit(&store, 3, 20);
        }
        media.tear_tail(3); // the crash tore serial 3's commit frame
        let revived = store_on(&platform, media.clone());
        assert_eq!(revived.replay().unwrap().state.max_serial, 3);
        assert!(!revived.replay().unwrap().state.enrollments.contains_key(&3));
        issue_and_commit(&revived, 4, 30);
        // The first write after recovery cut the torn bytes, so the new
        // records replay instead of hiding behind them.
        let replay = store_on(&platform, media).replay().unwrap();
        assert!(!replay.truncated_tail);
        assert_eq!(replay.state.max_serial, 4);
        assert!(replay.state.enrollments.contains_key(&4));
        replay.state.check_invariants().unwrap();
    }

    #[test]
    fn sync_waits_for_the_batch_that_holds_its_lsn() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        let first = store.enqueue(&[cert_issued(2), cert_issued(3)]).unwrap();
        let second = store.enqueue(&[cert_issued(4)]).unwrap();
        assert_eq!((first, second), (2, 3));
        assert_eq!(store.stats().log_frames, 0, "enqueue does no I/O");
        assert!(!store.is_durable(first));
        // The first waiter leads one batch holding both callers' records.
        let commit = store.sync(first).unwrap();
        assert_eq!(
            commit,
            Commit {
                batch_records: 3,
                leader: true,
                in_flight: 0
            }
        );
        assert!(store.is_durable(second));
        assert_eq!(store.media().flushes(), 1, "one flush for both callers");
        let late = store.sync(second).unwrap();
        assert!(!late.leader);
        assert_eq!(store.replay().unwrap().state.max_serial, 4);
    }

    #[test]
    fn vetoed_batch_fails_every_lsn_in_it() {
        struct Fenced;
        impl AppendObserver for Fenced {
            fn appended(&self, _: &[WalRecord]) -> Result<(), String> {
                Err("fenced".into())
            }
        }
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        store.set_observer(Arc::new(Fenced));
        let record = |serial: u64| WalRecord::CrlIssued {
            number: serial,
            at: 1,
        };
        let a = store.enqueue(&[record(1)]).unwrap();
        let b = store.enqueue(&[record(2), record(3)]).unwrap();
        assert!(matches!(store.sync(b), Err(StoreError::Rejected(_))));
        assert!(matches!(store.sync(a), Err(StoreError::Rejected(_))));
        store.clear_observer();
        let c = store.enqueue(&[record(4)]).unwrap();
        assert!(store.sync(c).is_ok(), "a later, accepted batch succeeds");
        assert!(matches!(store.sync(a), Err(StoreError::Rejected(_))));
    }

    /// A waiter whose records missed the batch in flight issues its own
    /// write at once rather than after that batch lands; the batches still
    /// land, reach the observer and replay in LSN order.
    #[test]
    fn a_second_batch_is_issued_while_the_first_is_in_flight() {
        let platform = SgxPlatform::new(b"vm");
        let records = [
            cert_issued(2),
            WalRecord::EnrollmentPrepared {
                serial: 2,
                vnf_name: "vnf-2".into(),
                host_id: "host-0".into(),
                mrenclave: [1; 32],
                provisioning_key_hash: [2; 32],
                backend: 0,
                at: 2,
            },
            WalRecord::EnrollmentCommitted { serial: 2, at: 3 },
        ];
        let mut folded = ManagerState::default();
        records.iter().for_each(|record| folded.apply(record));
        let media = Media::new();
        media.set_write_latency(Duration::from_millis(200));
        let store = store_on(&platform, media.clone());
        let tape = Arc::new(Tape::default());
        store.set_observer(tape.clone());
        let store = &store;
        let first = store.enqueue(&records[..2]).unwrap();
        let (led, pipelined, overlapped) = std::thread::scope(|scope| {
            let led = scope.spawn(|| store.sync(first).unwrap());
            while media.writes_in_flight() == 0 {
                std::thread::yield_now();
            }
            let second = store.enqueue(&records[2..]).unwrap();
            let pipelined = scope.spawn(move || store.sync(second).unwrap());
            // The second write is issued before the first one lands.
            let overlapped = loop {
                if media.flushes() > 0 {
                    break false;
                }
                if media.writes_in_flight() == 2 {
                    break media.flushes() == 0;
                }
                std::thread::yield_now();
            };
            (led.join().unwrap(), pipelined.join().unwrap(), overlapped)
        });
        assert!(overlapped, "the second write waited for the first to land");
        let commit = |batch_records, in_flight| Commit {
            batch_records,
            leader: true,
            in_flight,
        };
        assert_eq!((led, pipelined), (commit(2, 0), commit(1, 1)));
        assert_eq!(media.flushes(), 2);
        assert_eq!(
            *tape.batches.lock(),
            vec![records[..2].to_vec(), records[2..].to_vec()],
            "batches observed out of LSN order"
        );
        assert_eq!(store.replay().unwrap().state, folded);
    }

    /// With two batches in flight, each waiter reports its own batch —
    /// size, role, and whether its write overlapped the previous one —
    /// also a follower woken after the later batch was published too.
    #[test]
    fn followers_of_overlapping_batches_report_their_own_batch() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        let batches = overlapping_batches(
            &store,
            &[cert_issued(2), cert_issued(3)],
            &[cert_issued(4), cert_issued(5)],
        );
        for (outcomes, in_flight) in batches.into_iter().zip([0, 1]) {
            let mut commits: Vec<Commit> = outcomes.into_iter().map(Result::unwrap).collect();
            commits.sort_by_key(|commit| !commit.leader);
            let commit = |leader| Commit {
                batch_records: 2,
                leader,
                in_flight,
            };
            assert_eq!(commits, vec![commit(true), commit(false)]);
        }
        assert_eq!(store.media().flushes(), 2);
    }

    /// The observer vetoes a batch while the next one is in flight: only
    /// the vetoed batch's waiters fail, and the observer saw it first.
    #[test]
    fn a_veto_fails_only_its_batch_while_the_next_is_in_flight() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        let tape = Arc::new(Tape {
            veto: Some(1),
            ..Tape::default()
        });
        store.set_observer(tape.clone());
        let crl = |number: u64| WalRecord::CrlIssued { number, at: 1 };
        let [vetoed, accepted] = overlapping_batches(&store, &[crl(1), crl(2)], &[crl(3), crl(4)]);
        assert!(vetoed
            .iter()
            .all(|outcome| matches!(outcome, Err(StoreError::Rejected(_)))));
        assert!(accepted
            .iter()
            .all(|outcome| matches!(outcome, Ok(Commit { in_flight: 1, .. }))));
        assert_eq!(
            *tape.batches.lock(),
            vec![vec![crl(1), crl(2)], vec![crl(3), crl(4)]]
        );
        assert!(matches!(store.sync(2), Err(StoreError::Rejected(_))));
        assert!(store.sync(4).is_ok());
    }

    /// `begin` issues the batch's write when the caller may lead it, and
    /// the batch lands only at `finish`.
    #[test]
    fn begin_issues_the_write_of_a_batch_it_may_lead() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        let lsn = store.enqueue(&[cert_issued(2), cert_issued(3)]).unwrap();
        let pending = store.begin(lsn);
        assert_eq!(store.media().writes_in_flight(), 1);
        assert_eq!(store.media().flushes(), 0, "begin lands nothing");
        assert!(!store.is_durable(lsn));
        assert_eq!(
            pending.finish().unwrap(),
            Commit {
                batch_records: 2,
                leader: true,
                in_flight: 0
            }
        );
        assert_eq!(store.media().writes_in_flight(), 0);
        assert_eq!(store.media().flushes(), 1);
        assert!(store.is_durable(lsn));
    }

    /// `begin` issues nothing for an LSN whose batch is already issued,
    /// with two writes in flight, or while the writer role is held; such a
    /// caller follows, or leads at `finish` once the rule allows.
    #[test]
    fn begin_issues_nothing_it_may_not_lead() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        let media = store.media().clone();
        let first = store.enqueue(&[cert_issued(2)]).unwrap();
        let led = store.begin(first);
        let again = store.begin(first);
        assert_eq!(media.writes_in_flight(), 1, "an issued LSN issues again");
        let second = store.enqueue(&[cert_issued(3)]).unwrap();
        let overlapped = store.begin(second);
        assert_eq!(media.writes_in_flight(), 2);
        let third = store.enqueue(&[cert_issued(4)]).unwrap();
        let queued = store.begin(third);
        assert_eq!(media.writes_in_flight(), 2, "a third write was issued");
        let outcomes = [led, again, overlapped, queued].map(|pending| pending.finish().unwrap());
        let commit = |leader, in_flight| Commit {
            batch_records: 1,
            leader,
            in_flight,
        };
        assert_eq!(
            outcomes,
            [
                commit(true, 0),
                commit(false, 0),
                commit(true, 1),
                commit(true, 0)
            ]
        );
        assert_eq!(media.flushes(), 3);

        let role = store.writer_role();
        let fourth = store.enqueue(&[cert_issued(5)]).unwrap();
        let blocked = store.begin(fourth);
        assert_eq!(media.writes_in_flight(), 0, "issued under the writer role");
        drop(role);
        assert!(blocked.finish().unwrap().leader);
        assert_eq!(store.replay().unwrap().state.max_serial, 5);
    }

    /// A leader that drops its `Pending` without finishing (a panic while
    /// its write is in flight) still lands, observes and publishes its
    /// batch, so the batch's followers return.
    #[test]
    fn a_dropped_leader_still_publishes_its_batch() {
        let platform = SgxPlatform::new(b"vm");
        let store = store_on(&platform, Media::new());
        let tape = Arc::new(Tape::default());
        store.set_observer(tape.clone());
        store.media().set_write_latency(Duration::from_millis(20));
        let records = [cert_issued(2), cert_issued(3)];
        let first = store.enqueue(&records[..1]).unwrap();
        let last = store.enqueue(&records[1..]).unwrap();
        let leader = store.begin(first);
        let follower = store.begin(last);
        assert_eq!(store.media().writes_in_flight(), 1);
        let followed = std::thread::scope(|scope| {
            let followed = scope.spawn(move || follower.finish());
            drop(leader);
            followed.join().unwrap()
        });
        assert_eq!(
            followed.unwrap(),
            Commit {
                batch_records: 2,
                leader: false,
                in_flight: 0
            }
        );
        assert!(store.is_durable(last));
        assert_eq!(store.media().flushes(), 1);
        assert_eq!(*tape.batches.lock(), vec![records.to_vec()]);
        assert_eq!(store.replay().unwrap().state.max_serial, 3);
    }

    /// A leader compacts after its batch is durable, so a caller released
    /// by that batch may hand the medium to a new handle (recovery) while
    /// the compaction still runs. `quiesce` must hold the new handle off
    /// until the old one is idle, or the compaction's log truncation
    /// erases what the new handle wrote. Here the compaction comes due
    /// while a second batch's write is in flight: it waits for that batch
    /// and folds it, and `quiesce` returns only once both writes landed.
    #[test]
    fn quiesce_keeps_a_late_compaction_off_a_new_handles_records() {
        let platform = SgxPlatform::new(b"vm");
        let mut overlapped = 0;
        for round in 0..48 {
            let media = Media::new();
            let old = store_on(&platform, media.clone()).with_compaction(1);
            let new = store_on(&platform, media.clone());
            issue_and_commit(&old, 2, 10);
            let compactions = media.compactions();
            let old = &old;
            // Slow writes until both of the old handle's batches are
            // issued, so the second is in flight when the first lands;
            // the new handle writes at once, racing the compaction.
            media.set_write_latency(Duration::from_millis(20));
            let first = old.enqueue(&[cert_issued(3)]).unwrap();
            let second = std::thread::scope(|scope| {
                scope.spawn(|| old.sync(first).unwrap());
                while media.writes_in_flight() == 0 {
                    std::hint::spin_loop();
                }
                let lsn = old.enqueue(&[cert_issued(4)]).unwrap();
                let second = scope.spawn(move || old.sync(lsn).unwrap());
                while media.writes_in_flight() < 2 && !old.is_durable(first) {
                    std::hint::spin_loop();
                }
                media.set_write_latency(Duration::ZERO);
                while !old.is_durable(first) {
                    std::hint::spin_loop();
                }
                old.quiesce();
                assert!(
                    old.is_durable(lsn),
                    "round {round}: quiesced before the second batch"
                );
                assert_eq!(media.writes_in_flight(), 0);
                assert_eq!(
                    media.frame_count(),
                    0,
                    "round {round}: a batch was never folded"
                );
                new.append(&cert_issued(5)).unwrap();
                second.join().unwrap()
            });
            if second.in_flight == 1 {
                // The first batch's compaction waited for the second.
                overlapped += 1;
                assert_eq!(media.compactions(), compactions + 1, "round {round}");
            }
            let replay = store_on(&platform, media).replay().unwrap();
            assert_eq!(
                replay.state.max_serial, 5,
                "round {round}: the old handle's compaction erased the new handle's record"
            );
        }
        assert!(overlapped > 0, "no round had two writes in flight");
    }

    #[test]
    fn mirror_compaction_matches_replay_compaction() {
        let platform = SgxPlatform::new(b"vm");
        let mirrored = store_on(&platform, Media::new()).with_compaction(4);
        let reference = store_on(&platform, Media::new());
        for serial in 2..9 {
            issue_and_commit(&mirrored, serial, serial * 10);
            issue_and_commit(&reference, serial, serial * 10);
        }
        assert!(
            mirrored.stats().compactions >= 2,
            "the mirror sealed snapshots"
        );
        assert_eq!(
            mirrored.replay().unwrap().state,
            reference.replay().unwrap().state
        );
        // install_state resets the mirror; later compactions build on it.
        let installed = reference.replay().unwrap().state;
        mirrored.install_state(&installed).unwrap();
        issue_and_commit(&mirrored, 9, 90);
        issue_and_commit(&reference, 9, 90);
        mirrored.compact().unwrap();
        assert_eq!(
            mirrored.replay().unwrap().state,
            reference.replay().unwrap().state
        );
    }

    #[test]
    fn foreign_platform_cannot_replay() {
        let media = Media::new();
        let store = store_on(&SgxPlatform::new(b"vm"), media.clone());
        issue_and_commit(&store, 2, 10);
        let thief = store_on(&SgxPlatform::new(b"exfil target"), media);
        assert!(matches!(thief.replay(), Err(StoreError::Sealing(_))));
    }
}
