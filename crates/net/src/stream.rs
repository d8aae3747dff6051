//! In-memory byte streams with latency modeling, passive taps, fault
//! switches and read deadlines.

use crate::fault::{injected_io, LinkControl};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vnfguard_telemetry::Counter;

/// How long a blocked read sleeps between checks of the sever/stall flags
/// and the deadline. Data arrival wakes the reader immediately (channel
/// condvar); this only bounds how stale a *control* change can go
/// unnoticed.
const READ_POLL_SLICE: Duration = Duration::from_millis(2);

/// Direction of a tapped frame, relative to the connection initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client → server.
    ToServer,
    /// Server → client.
    ToClient,
}

/// Passive wiretap state shared by both stream halves.
#[derive(Debug, Default)]
pub struct TapState {
    frames: Mutex<Vec<(Direction, Vec<u8>)>>,
}

/// Handle to read captured traffic — the eavesdropper's view of the wire.
#[derive(Debug, Clone)]
pub struct TapHandle {
    state: Arc<TapState>,
}

impl TapHandle {
    pub fn new() -> TapHandle {
        TapHandle {
            state: Arc::new(TapState::default()),
        }
    }

    pub(crate) fn state(&self) -> Arc<TapState> {
        self.state.clone()
    }

    /// All bytes captured in one direction, concatenated.
    pub fn captured(&self, direction: Direction) -> Vec<u8> {
        let frames = self.state.frames.lock();
        frames
            .iter()
            .filter(|(d, _)| *d == direction)
            .flat_map(|(_, bytes)| bytes.iter().copied())
            .collect()
    }

    /// All captured bytes regardless of direction.
    pub fn captured_all(&self) -> Vec<u8> {
        let frames = self.state.frames.lock();
        frames
            .iter()
            .flat_map(|(_, bytes)| bytes.iter().copied())
            .collect()
    }

    /// Does the captured traffic contain `needle` as a byte substring?
    /// (The attack check: did the credential cross the wire in clear?)
    pub fn contains(&self, needle: &[u8]) -> bool {
        let haystack = self.captured_all();
        haystack
            .windows(needle.len().max(1))
            .any(|window| window == needle)
    }

    pub fn frame_count(&self) -> usize {
        self.state.frames.lock().len()
    }
}

impl Default for TapHandle {
    fn default() -> Self {
        Self::new()
    }
}

struct Frame {
    deliver_at: Instant,
    bytes: Vec<u8>,
}

/// One endpoint of an in-memory reliable byte stream.
pub struct Duplex {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    read_buffer: VecDeque<u8>,
    latency: Duration,
    tap: Option<(Arc<TapState>, Direction)>,
    control: Arc<LinkControl>,
    read_timeout: Option<Duration>,
    bytes_sent: u64,
    bytes_received: u64,
    /// Fabric-wide byte counter (telemetry), bumped on sends.
    fabric_bytes: Option<Counter>,
}

impl Duplex {
    /// Create a connected pair with the given one-way latency. The first
    /// endpoint is the "client" half for tap direction purposes.
    pub fn pair(latency: Duration, tap: Option<&TapHandle>) -> (Duplex, Duplex) {
        Duplex::pair_with_control(latency, tap, Arc::new(LinkControl::default()))
    }

    /// Like [`pair`](Self::pair) but with fault switches injected by the
    /// fabric; both halves share `control`.
    pub(crate) fn pair_with_control(
        latency: Duration,
        tap: Option<&TapHandle>,
        control: Arc<LinkControl>,
    ) -> (Duplex, Duplex) {
        let (tx_a, rx_b) = unbounded();
        let (tx_b, rx_a) = unbounded();
        let client = Duplex {
            tx: tx_a,
            rx: rx_a,
            read_buffer: VecDeque::new(),
            latency,
            tap: tap.map(|t| (t.state(), Direction::ToServer)),
            control: control.clone(),
            read_timeout: None,
            bytes_sent: 0,
            bytes_received: 0,
            fabric_bytes: None,
        };
        let server = Duplex {
            tx: tx_b,
            rx: rx_b,
            read_buffer: VecDeque::new(),
            latency,
            tap: tap.map(|t| (t.state(), Direction::ToClient)),
            control,
            read_timeout: None,
            bytes_sent: 0,
            bytes_received: 0,
            fabric_bytes: None,
        };
        (client, server)
    }

    /// Attach a fabric-wide telemetry counter bumped by every byte this
    /// half sends (the fabric attaches one to both halves, so the counter
    /// totals traffic in both directions).
    pub(crate) fn attach_byte_counter(&mut self, counter: Counter) {
        self.fabric_bytes = Some(counter);
    }

    /// Zero-latency untapped pair (the common case in tests).
    pub fn pipe() -> (Duplex, Duplex) {
        Duplex::pair(Duration::ZERO, None)
    }

    /// Deadline for blocking reads. `None` (the default) blocks until data
    /// or EOF; `Some(t)` makes a read that waits longer than `t` fail with
    /// `io::ErrorKind::TimedOut` — which the HTTP layer surfaces as
    /// [`NetError::TimedOut`](crate::NetError::TimedOut). This is what
    /// makes injected stalls observable instead of hanging the caller.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) {
        self.read_timeout = timeout;
    }

    /// The shared fault/shutdown switches for this link (both halves
    /// return the same control).
    pub fn control(&self) -> Arc<LinkControl> {
        self.control.clone()
    }

    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    fn deliver(&mut self, frame: Frame) {
        let now = Instant::now();
        if frame.deliver_at > now {
            std::thread::sleep(frame.deliver_at - now);
        }
        self.bytes_received += frame.bytes.len() as u64;
        self.read_buffer.extend(frame.bytes);
    }

    fn deadline_elapsed(deadline: Option<Instant>) -> Option<io::Error> {
        match deadline {
            Some(d) if Instant::now() >= d => Some(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline elapsed",
            )),
            _ => None,
        }
    }

    fn pull_frame(&mut self) -> io::Result<bool> {
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        let reset = || {
            injected_io(
                io::ErrorKind::ConnectionReset,
                "connection severed by fault injection",
            )
        };
        loop {
            // A stall withholds even frames already queued on the wire.
            // Sever outranks stall so shutdown can always wake a reader.
            if self.control.is_stalled() && !self.control.is_severed() {
                if let Some(e) = Self::deadline_elapsed(deadline) {
                    return Err(e);
                }
                std::thread::sleep(READ_POLL_SLICE);
                continue;
            }
            // Frames that crossed the wire before a sever (e.g. the prefix
            // allowed by a drop-after-N-bytes budget) stay readable.
            if let Ok(frame) = self.rx.try_recv() {
                self.deliver(frame);
                return Ok(true);
            }
            if self.control.is_severed() {
                return Err(reset());
            }
            if let Some(e) = Self::deadline_elapsed(deadline) {
                return Err(e);
            }
            match self.rx.recv_timeout(READ_POLL_SLICE) {
                Ok(frame) => {
                    self.deliver(frame);
                    return Ok(true);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return Ok(false), // EOF
            }
        }
    }
}

impl Read for Duplex {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.read_buffer.is_empty() {
            if !self.pull_frame()? {
                return Ok(0); // EOF
            }
        }
        let n = buf.len().min(self.read_buffer.len());
        for slot in buf.iter_mut().take(n) {
            *slot = self.read_buffer.pop_front().expect("checked non-empty");
        }
        Ok(n)
    }
}

impl Write for Duplex {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        if self.control.is_severed() {
            return Err(injected_io(
                io::ErrorKind::BrokenPipe,
                "connection severed by fault injection",
            ));
        }
        // A drop-after-N-bytes fault lets the first `allowed` bytes cross
        // the wire, then severs. The truncated write still reports success
        // (the bytes vanished from a "kernel buffer"); the failure surfaces
        // on the peer's read and on the next local operation — like a TCP
        // reset racing buffered data.
        let allowed = self.control.take_write_budget(buf.len());
        let deliver = &buf[..allowed];
        if !deliver.is_empty() {
            if let Some((tap, direction)) = &self.tap {
                tap.frames.lock().push((*direction, deliver.to_vec()));
            }
            let frame = Frame {
                deliver_at: Instant::now() + self.latency,
                bytes: deliver.to_vec(),
            };
            self.tx
                .send(frame)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer endpoint dropped"))?;
            self.bytes_sent += deliver.len() as u64;
            if let Some(counter) = &self.fabric_bytes {
                counter.add(deliver.len() as u64);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl std::fmt::Debug for Duplex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Duplex")
            .field("bytes_sent", &self.bytes_sent)
            .field("bytes_received", &self.bytes_received)
            .field("tapped", &self.tap.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bytes() {
        let (mut a, mut b) = Duplex::pipe();
        a.write_all(b"hello fabric").unwrap();
        let mut buf = [0u8; 12];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello fabric");
        // And the other direction.
        b.write_all(b"pong").unwrap();
        let mut buf = [0u8; 4];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn partial_reads_preserve_order() {
        let (mut a, mut b) = Duplex::pipe();
        a.write_all(b"0123456789").unwrap();
        let mut first = [0u8; 3];
        b.read_exact(&mut first).unwrap();
        let mut rest = [0u8; 7];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(&first, b"012");
        assert_eq!(&rest, b"3456789");
    }

    #[test]
    fn eof_on_peer_drop() {
        let (mut a, b) = Duplex::pipe();
        drop(b);
        // Write fails with broken pipe.
        assert!(a.write_all(b"x").is_err());
        let mut buf = [0u8; 4];
        assert_eq!(a.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn buffered_data_readable_after_peer_drop() {
        let (mut a, mut b) = Duplex::pipe();
        a.write_all(b"last words").unwrap();
        drop(a);
        let mut buf = Vec::new();
        b.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"last words");
    }

    #[test]
    fn taps_capture_both_directions() {
        let tap = TapHandle::new();
        let (mut client, mut server) = Duplex::pair(Duration::ZERO, Some(&tap));
        client.write_all(b"GET /secret").unwrap();
        let mut buf = [0u8; 11];
        server.read_exact(&mut buf).unwrap();
        server.write_all(b"the-credential").unwrap();
        let mut buf = [0u8; 14];
        client.read_exact(&mut buf).unwrap();

        assert_eq!(tap.captured(Direction::ToServer), b"GET /secret");
        assert_eq!(tap.captured(Direction::ToClient), b"the-credential");
        assert!(tap.contains(b"credential"));
        assert!(!tap.contains(b"not on the wire"));
        assert_eq!(tap.frame_count(), 2);
    }

    #[test]
    fn latency_delays_delivery() {
        let (mut a, mut b) = Duplex::pair(Duration::from_millis(30), None);
        let start = Instant::now();
        a.write_all(b"x").unwrap();
        let mut buf = [0u8; 1];
        b.read_exact(&mut buf).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "delivery was not delayed: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn byte_accounting() {
        let (mut a, mut b) = Duplex::pipe();
        a.write_all(b"12345").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(a.bytes_sent(), 5);
        assert_eq!(b.bytes_received(), 5);
        assert_eq!(a.bytes_received(), 0);
    }

    #[test]
    fn read_timeout_fires_without_data() {
        let (mut a, _b) = Duplex::pipe();
        a.set_read_timeout(Some(Duration::from_millis(20)));
        let start = Instant::now();
        let mut buf = [0u8; 1];
        let err = a.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn read_timeout_does_not_fire_with_data() {
        let (mut a, mut b) = Duplex::pipe();
        b.set_read_timeout(Some(Duration::from_millis(50)));
        a.write_all(b"prompt").unwrap();
        let mut buf = [0u8; 6];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"prompt");
    }

    #[test]
    fn sever_fails_both_directions_but_preserves_wire_data() {
        let (mut a, mut b) = Duplex::pipe();
        a.write_all(b"sent first").unwrap();
        a.control().sever();
        // The frame crossed the wire before the sever: still readable.
        let mut buf = [0u8; 10];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"sent first");
        // After the buffered data, reads and writes fail with injected
        // errors, not EOF.
        assert!(b.read(&mut buf).is_err());
        assert!(a.write_all(b"more").is_err());
    }

    #[test]
    fn stall_withholds_frames_until_released() {
        let (mut a, mut b) = Duplex::pipe();
        let control = a.control();
        control.set_stalled(true);
        a.write_all(b"delayed").unwrap();
        b.set_read_timeout(Some(Duration::from_millis(15)));
        let mut buf = [0u8; 7];
        assert_eq!(
            b.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        control.set_stalled(false);
        b.set_read_timeout(None);
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"delayed");
    }

    #[test]
    fn write_budget_truncates_and_severs() {
        let control = Arc::new(crate::fault::LinkControl::with_faults(false, Some(4)));
        let (mut a, mut b) = Duplex::pair_with_control(Duration::ZERO, None, control);
        a.write_all(b"123456").unwrap(); // reports success; only 4 cross
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"1234");
        assert!(b.read(&mut buf).is_err(), "drop surfaces as reset");
        assert!(a.write_all(b"x").is_err(), "link is severed for writes");
    }

    #[test]
    fn cross_thread_usage() {
        let (mut a, mut b) = Duplex::pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            b.write_all(b"reply").unwrap();
            buf
        });
        a.write_all(b"hello").unwrap();
        let mut reply = [0u8; 5];
        a.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"reply");
        assert_eq!(&t.join().unwrap(), b"hello");
    }
}
