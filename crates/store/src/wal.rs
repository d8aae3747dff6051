//! The durable medium and its checksummed frame format.
//!
//! [`Media`] models the block device (or host file) backing the manager's
//! write-ahead log. It survives a VM crash — clones share the same bytes —
//! but it is *host-visible* storage: everything written to it is a sealed
//! blob produced by the [`vault`](crate::vault), never plaintext state.
//!
//! The log region is a byte stream of frames, one per commit batch and one
//! device write each:
//!
//! ```text
//! ┌──────┬────────────────┬─────────────────────────────┬────────────┐
//! │ 0xA6 │ body len (u32) │ (len | payload) × n         │ crc32 (u32)│
//! └──────┴────────────────┴─────────────────────────────┴────────────┘
//! ```
//!
//! One CRC covers the whole body. Replay walks frames front to back,
//! yields each frame's payloads in order, and stops at the first frame
//! that is incomplete or fails its checksum — the torn-tail rule: a crash
//! mid-append may leave a partial final frame, and that frame's batch
//! simply never happened (no caller in it was answered, so nothing
//! observable is lost). A tear *inside* a frame drops the whole batch,
//! exactly the atomicity a multi-record workflow wants: either every
//! record of the workflow replays or none does. The next writer cuts such
//! a tail off ([`Media::cut_torn_tail`]) before it appends, so nothing it
//! writes can hide behind the unparseable bytes.

use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Frame marker byte; a cheap misalignment detector.
const GROUP_MAGIC: u8 = 0xA6;
/// Magic + length prefix.
const FRAME_HEADER: usize = 5;
/// Trailing checksum.
const FRAME_TRAILER: usize = 4;

/// The bytes of one frame holding every payload, in order: the marker,
/// the body's length, the body, its checksum.
pub(crate) fn group_frame(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut body = Vec::new();
    for payload in payloads {
        body.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        body.extend_from_slice(payload);
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + body.len() + FRAME_TRAILER);
    frame.push(GROUP_MAGIC);
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    frame.extend_from_slice(&crc32(&body).to_be_bytes());
    frame
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), eight bytes a
/// step (slicing-by-8) with a byte-at-a-time tail.
pub fn crc32(data: &[u8]) -> u32 {
    let tables = crc_tables();
    let mut blocks = data.chunks_exact(8);
    let mut crc = 0xFFFF_FFFFu32;
    for block in &mut blocks {
        let word = u64::from_le_bytes(block.try_into().expect("8")) ^ crc as u64;
        crc = word
            .to_le_bytes()
            .iter()
            .enumerate()
            .fold(0, |acc, (i, &byte)| acc ^ tables[7 - i][byte as usize]);
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ tables[0][((crc ^ byte as u32) & 0xff) as usize];
    }
    !crc
}

/// Slicing-by-8 tables, derived on first use: `tables[0][n]` is byte n
/// run through eight shift-and-mask steps of the polynomial, and
/// `tables[k][n]` is `tables[k - 1][n]` carried one byte further, the
/// contribution of a byte k positions before the end of an 8-byte block.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (n, entry) in tables[0].iter_mut().enumerate() {
            *entry = (0..8).fold(n as u32, |crc, _| {
                (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg())
            });
        }
        for k in 1..8 {
            for n in 0..256 {
                let previous = tables[k - 1][n];
                tables[k][n] = (previous >> 8) ^ tables[0][(previous & 0xff) as usize];
            }
        }
        tables
    })
}

#[derive(Default)]
struct MediaInner {
    /// The latest compacted snapshot (a sealed blob), if any.
    snapshot: Option<Vec<u8>>,
    /// Frames appended since the snapshot.
    log: Vec<u8>,
    /// Records appended since the snapshot (a frame counts each of its
    /// payloads; recounted by `cut_torn_tail`, not by `tear_tail`).
    frames: u64,
    /// Device flushes (one per landed write) over the media's lifetime.
    flushes: u64,
    /// Snapshot installations over the media's lifetime.
    compactions: u64,
    /// Simulated device-write latency charged once per flush. Zero by
    /// default.
    write_latency: Duration,
    /// Writes issued and not yet landed.
    in_flight: u64,
}

/// A device write started by [`Media::issue`]; [`Media::land`] finishes
/// it.
#[must_use]
pub(crate) struct Write {
    /// When the write's device time ends.
    due: Instant,
}

/// Durable storage shared across VM incarnations.
///
/// Cloning is shallow: every clone reads and writes the same underlying
/// bytes, which is how a recovered manager finds the log its predecessor
/// wrote. Fault hooks ([`tear_tail`](Media::tear_tail),
/// [`corrupt_byte`](Media::corrupt_byte)) simulate interrupted or bit-rotted
/// writes for the crash matrix.
#[derive(Clone, Default)]
pub struct Media {
    inner: Arc<Mutex<MediaInner>>,
}

impl Media {
    pub fn new() -> Media {
        Media::default()
    }

    /// Model the write latency of the backing device: every flush (one
    /// `append_group_frame` call, or one write of a store's batch) costs `latency` of wall-clock time from when it is
    /// issued, and its bytes become visible — durable — only when that
    /// time has passed. Writes may overlap: one issued while another is in
    /// flight runs its device time alongside it. Zero, the default, keeps
    /// the media instantaneous. Saturation benchmarks use this to
    /// reproduce cloud block storage, where the per-write flush dominates
    /// the request path. The store's commit leaders pay it outside every
    /// shard lock, once per batch of queued records, with up to two
    /// batches' writes in flight.
    pub fn set_write_latency(&self, latency: Duration) {
        self.inner.lock().write_latency = latency;
    }

    /// Issue a device write: its device time starts now. Hand the write
    /// to [`land`](Self::land) with its bytes.
    pub(crate) fn issue(&self) -> Write {
        let mut inner = self.inner.lock();
        inner.in_flight += 1;
        Write {
            due: Instant::now() + inner.write_latency,
        }
    }

    /// Land an issued write: wait until its device time has passed, then
    /// append `bytes` (holding `records` records) to the log as one flush
    /// and return the log's new length. A reader never sees a write whose
    /// device time is still running.
    pub(crate) fn land(&self, write: Write, bytes: &[u8], records: u64) -> usize {
        let now = Instant::now();
        if write.due > now {
            std::thread::sleep(write.due - now);
        }
        let mut inner = self.inner.lock();
        inner.in_flight -= 1;
        inner.log.extend_from_slice(bytes);
        inner.frames += records;
        inner.flushes += 1;
        inner.log.len()
    }

    /// Append every payload in one frame — one device write, one checksum,
    /// one flush charge — and return the log's new length. Replay yields
    /// the payloads individually and in order; a tear anywhere inside the
    /// frame drops all of them.
    pub fn append_group_frame(&self, payloads: &[Vec<u8>]) -> usize {
        if payloads.is_empty() {
            return self.log_bytes();
        }
        self.land(self.issue(), &group_frame(payloads), payloads.len() as u64)
    }

    /// Replace the snapshot region and truncate the log (compaction).
    pub fn install_snapshot(&self, sealed: Vec<u8>) {
        let mut inner = self.inner.lock();
        inner.snapshot = Some(sealed);
        inner.log.clear();
        inner.frames = 0;
        inner.compactions += 1;
    }

    /// The current snapshot blob, if one was installed.
    pub fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.lock().snapshot.clone()
    }

    /// A copy of the raw log bytes.
    pub fn log(&self) -> Vec<u8> {
        self.inner.lock().log.clone()
    }

    /// The snapshot and the log read at one instant, so a compaction can
    /// never fall between the two reads.
    pub fn contents(&self) -> (Option<Vec<u8>>, Vec<u8>) {
        let inner = self.inner.lock();
        (inner.snapshot.clone(), inner.log.clone())
    }

    /// Cut the log back to its last intact frame, dropping a torn or
    /// corrupt tail, and return the log's new length. A writer calls this
    /// before its first append after a crash: a frame written behind
    /// unparseable bytes would never replay.
    pub fn cut_torn_tail(&self) -> usize {
        let mut inner = self.inner.lock();
        let parsed = parse_log(&inner.log);
        let intact = inner.log.len() - parsed.dropped_bytes;
        inner.log.truncate(intact);
        inner.frames = parsed.frames.len() as u64;
        intact
    }

    /// Frames appended since the last snapshot.
    pub fn frame_count(&self) -> u64 {
        self.inner.lock().frames
    }

    /// Device flushes over the media's lifetime.
    pub fn flushes(&self) -> u64 {
        self.inner.lock().flushes
    }

    /// Device writes issued whose bytes have not landed yet.
    pub fn writes_in_flight(&self) -> u64 {
        self.inner.lock().in_flight
    }

    /// Raw size of the log region.
    pub fn log_bytes(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Snapshot installations so far.
    pub fn compactions(&self) -> u64 {
        self.inner.lock().compactions
    }

    pub fn has_snapshot(&self) -> bool {
        self.inner.lock().snapshot.is_some()
    }

    /// An independent deep copy: identical bytes now, divergent writes
    /// after. Recovery benchmarks fork one pre-built log so repeated
    /// cold starts never see each other's `RecoveryCompleted` appends.
    pub fn fork(&self) -> Media {
        let inner = self.inner.lock();
        Media {
            inner: Arc::new(Mutex::new(MediaInner {
                snapshot: inner.snapshot.clone(),
                log: inner.log.clone(),
                frames: inner.frames,
                flushes: inner.flushes,
                compactions: inner.compactions,
                // Forks are for offline oracle replay; they read, not flush.
                write_latency: Duration::ZERO,
                in_flight: 0,
            })),
        }
    }

    /// Simulate a torn write: drop the final `bytes` of the log, as if the
    /// crash interrupted the last append mid-flight.
    pub fn tear_tail(&self, bytes: usize) {
        let mut inner = self.inner.lock();
        let len = inner.log.len();
        inner.log.truncate(len.saturating_sub(bytes));
    }

    /// Simulate bit rot: flip one bit of the log at `offset`.
    pub fn corrupt_byte(&self, offset: usize) {
        let mut inner = self.inner.lock();
        if let Some(byte) = inner.log.get_mut(offset) {
            *byte ^= 0x01;
        }
    }
}

impl std::fmt::Debug for Media {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Media")
            .field("log_bytes", &inner.log.len())
            .field("frames", &inner.frames)
            .field("snapshot", &inner.snapshot.as_ref().map(Vec::len))
            .field("compactions", &inner.compactions)
            .finish()
    }
}

/// Result of walking a log region.
pub(crate) struct ParsedLog {
    /// Payloads of every frame with a valid header and checksum, in order.
    pub frames: Vec<Vec<u8>>,
    /// True when trailing bytes were dropped (torn or corrupt tail).
    pub truncated: bool,
    /// How many bytes the truncation discarded.
    pub dropped_bytes: usize,
}

/// Walk `log` front to back, stopping at the first incomplete or
/// checksum-failing frame. Each frame is expanded into its member payloads
/// in order; a torn or corrupt frame is dropped whole.
pub(crate) fn parse_log(log: &[u8]) -> ParsedLog {
    let mut frames = Vec::new();
    let mut pos = 0;
    while pos < log.len() {
        let rest = &log[pos..];
        if rest.len() < FRAME_HEADER + FRAME_TRAILER || rest[0] != GROUP_MAGIC {
            break;
        }
        let len = u32::from_be_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
        let total = FRAME_HEADER + len + FRAME_TRAILER;
        if rest.len() < total {
            break;
        }
        let body = &rest[FRAME_HEADER..FRAME_HEADER + len];
        let stored =
            u32::from_be_bytes(rest[FRAME_HEADER + len..total].try_into().expect("4 bytes"));
        if crc32(body) != stored {
            break;
        }
        // Body: (len | payload) repeated. It passed its checksum, so an
        // ill-formed interior is corruption beyond the tolerated torn
        // tail — stop here like any bad frame.
        let Some(members) = members(body) else {
            break;
        };
        frames.extend(members);
        pos += total;
    }
    ParsedLog {
        frames,
        truncated: pos < log.len(),
        dropped_bytes: log.len() - pos,
    }
}

/// A frame body's payloads, or `None` when a length runs past the body.
fn members(mut body: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut members = Vec::new();
    while let Some((len, rest)) = body.split_first_chunk::<4>() {
        let (payload, rest) = rest.split_at_checked(u32::from_be_bytes(*len) as usize)?;
        members.push(payload.to_vec());
        body = rest;
    }
    body.is_empty().then_some(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append a one-payload frame.
    fn append(media: &Media, payload: &[u8]) -> usize {
        media.append_group_frame(&[payload.to_vec()])
    }

    /// The bitwise CRC-32 the table-driven one replaced: the oracle.
    fn bitwise_crc32(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bitwise_crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random buffers at every length and alignment below 2 KiB: whole
        /// 8-byte blocks, a tail of 0–7 bytes, or only a tail.
        #[test]
        fn prop_crc32_matches_the_bitwise_oracle(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
            start in 0usize..8,
            cut in 0usize..2048,
        ) {
            let data = &data[start.min(data.len())..];
            let data = &data[..cut.min(data.len())];
            proptest::prop_assert_eq!(crc32(data), bitwise_crc32(data));
        }
    }

    #[test]
    fn frames_roundtrip_in_order() {
        let media = Media::new();
        append(&media, b"one");
        append(&media, b"two");
        append(&media, &[]);
        let parsed = parse_log(&media.log());
        assert_eq!(
            parsed.frames,
            vec![b"one".to_vec(), b"two".to_vec(), vec![]]
        );
        assert!(!parsed.truncated);
        assert_eq!(media.frame_count(), 3);
    }

    #[test]
    fn torn_tail_drops_only_last_frame() {
        let media = Media::new();
        append(&media, b"keep me");
        append(&media, b"torn away");
        media.tear_tail(3);
        let parsed = parse_log(&media.log());
        assert_eq!(parsed.frames, vec![b"keep me".to_vec()]);
        assert!(parsed.truncated);
        assert!(parsed.dropped_bytes > 0);
    }

    #[test]
    fn checksum_failure_stops_replay() {
        let media = Media::new();
        let first_total = append(&media, b"good");
        append(&media, b"flipped");
        // Corrupt a payload byte of the second frame.
        media.corrupt_byte(first_total + FRAME_HEADER + 4);
        let parsed = parse_log(&media.log());
        assert_eq!(parsed.frames, vec![b"good".to_vec()]);
        assert!(parsed.truncated);
    }

    #[test]
    fn snapshot_truncates_log() {
        let media = Media::new();
        append(&media, b"folded");
        media.install_snapshot(b"sealed snapshot".to_vec());
        assert_eq!(media.frame_count(), 0);
        assert_eq!(media.log_bytes(), 0);
        assert_eq!(media.compactions(), 1);
        assert_eq!(media.snapshot().unwrap(), b"sealed snapshot");
    }

    #[test]
    fn forks_diverge() {
        let a = Media::new();
        append(&a, b"shared history");
        let b = a.fork();
        append(&a, b"a only");
        assert_eq!(a.frame_count(), 2);
        assert_eq!(b.frame_count(), 1);
        assert_eq!(parse_log(&b.log()).frames, vec![b"shared history".to_vec()]);
    }

    #[test]
    fn group_frame_expands_to_member_payloads() {
        let media = Media::new();
        append(&media, b"solo");
        media.append_group_frame(&[b"one".to_vec(), b"two".to_vec(), vec![]]);
        append(&media, b"after");
        let parsed = parse_log(&media.log());
        assert_eq!(
            parsed.frames,
            vec![
                b"solo".to_vec(),
                b"one".to_vec(),
                b"two".to_vec(),
                vec![],
                b"after".to_vec()
            ]
        );
        assert!(!parsed.truncated);
        assert_eq!(media.frame_count(), 5, "each group member counts");
        assert_eq!(media.flushes(), 3, "one flush per frame");
    }

    #[test]
    fn torn_group_drops_whole_group() {
        let media = Media::new();
        append(&media, b"keep");
        media.append_group_frame(&[b"aaaa".to_vec(), b"bbbb".to_vec()]);
        media.tear_tail(2);
        let parsed = parse_log(&media.log());
        assert_eq!(parsed.frames, vec![b"keep".to_vec()], "no partial group");
        assert!(parsed.truncated);
    }

    #[test]
    fn corrupt_group_member_drops_whole_group() {
        let media = Media::new();
        media.append_group_frame(&[b"first".to_vec(), b"second".to_vec()]);
        // Flip a byte inside the first member's payload.
        media.corrupt_byte(FRAME_HEADER + 4 + 1);
        let parsed = parse_log(&media.log());
        assert!(parsed.frames.is_empty());
        assert!(parsed.truncated);
    }

    #[test]
    fn empty_group_is_a_no_op() {
        let media = Media::new();
        media.append_group_frame(&[]);
        assert_eq!(media.log_bytes(), 0);
        assert_eq!(media.frame_count(), 0);
    }

    #[test]
    fn clones_share_bytes() {
        let a = Media::new();
        let b = a.clone();
        append(&a, b"written by a");
        assert_eq!(b.frame_count(), 1);
    }
}
