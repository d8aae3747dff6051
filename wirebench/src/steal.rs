//! Available time: wall time minus the time the hypervisor took the cores
//! away.
//!
//! On a shared host the hypervisor takes a virtual core away for
//! milliseconds at a time ("steal"; from 0.3 % to 31 % of the time between
//! back-to-back runs on a 2-core machine). Whatever the benchmark divides
//! by a duration (set-up time, operations per second) counts available
//! time: wall time minus the steal `/proc/stat` reports for the cores the
//! process may run on, averaged over them. The kernel measures steal to the
//! nanosecond from the hypervisor's steal clock.
//!
//! Latencies stay wall-clock: a user waits for them whoever holds the core.

use std::sync::OnceLock;
use std::time::Instant;

/// Bytes of the CPU mask handed to the kernel (room for 1024 cores).
const MASK_BYTES: usize = 128;
/// `_SC_CLK_TCK` for `sysconf` on Linux.
const SC_CLK_TCK: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sysconf(name: i32) -> i64;
}

static CORES: OnceLock<Vec<usize>> = OnceLock::new();

/// Find the cores the process may run on and check their steal can be
/// read. Returns the cores.
pub fn init() -> Result<&'static [usize], String> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: the kernel writes at most `MASK_BYTES` bytes into `mask`.
    if unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cores: Vec<usize> = (0..MASK_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect();
    if cores.is_empty() {
        return Err("the affinity mask holds no core".into());
    }
    stolen_seconds(&cores).ok_or("no steal column for the cores in /proc/stat")?;
    CORES.set(cores).map_err(|_| "steal::init ran twice")?;
    Ok(CORES.get().expect("just set"))
}

/// Seconds the hypervisor has taken `cores` away since boot, averaged over
/// them: the eighth value of each core's line in `/proc/stat`, in clock
/// ticks.
fn stolen_seconds(cores: &[usize]) -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut ticks = 0.0;
    for core in cores {
        let label = format!("cpu{core}");
        let line = stat
            .lines()
            .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
        ticks += line.split_whitespace().nth(8)?.parse::<f64>().ok()?;
    }
    // SAFETY: `sysconf` only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    (hz > 0).then(|| ticks / hz as f64 / cores.len() as f64)
}

/// A point in time on the clock of available time.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    stolen: f64,
}

/// Now, on the clock of available time.
pub fn mark() -> Mark {
    let cores = CORES.get().expect("steal::init runs first");
    Mark {
        wall: Instant::now(),
        stolen: stolen_seconds(cores).expect("/proc/stat was readable at init"),
    }
}

/// Seconds of available time since `from`: wall time minus the steal in
/// between.
pub fn available_since(from: &Mark) -> f64 {
    let now = mark();
    let wall = now.wall.duration_since(from.wall).as_secs_f64();
    (wall - (now.stolen - from.stolen)).max(0.0)
}
