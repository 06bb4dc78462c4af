//! Host health from `/proc`: CPU steal, peak resident memory, cores.
//! Every reader returns `None` where `/proc` does not offer the value.

use std::fs;

/// `(steal, total)` jiffies of the aggregate `cpu` line of
/// `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    parse_cpu_line(&fs::read_to_string("/proc/stat").ok()?)
}

fn parse_cpu_line(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user, so total is the first eight.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

fn status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the process's peak-RSS watermark, so that `VmHWM` afterwards
/// covers only what follows. `false` when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set in MiB (`VmHWM`), or the current one (`VmRSS`)
/// when `peak` is false.
pub fn rss_mib(peak: bool) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let key = if peak { "VmHWM:" } else { "VmRSS:" };
    Some(status_kib(&status, key)? as f64 / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPU-set words passed to the affinity calls (1024 CPUs).
const MASK_WORDS: usize = 16;

/// The calling thread pinned to one CPU; dropping it restores the
/// affinity the thread had before.
///
/// On this two-vCPU host a request that crosses vCPUs pays an
/// inter-processor wake-up in each direction, and the scheduler moves
/// the driver and the reactor together or apart at random, which flips
/// the round trip between ~60 and ~160 µs for minutes at a time
/// (README, "Noise"). Threads spawned while the pin is held inherit
/// it. With one request in flight the driver and the reactor never run
/// at the same moment, so one CPU costs the closed loop nothing.
#[derive(Debug)]
pub struct Pinned {
    pub cpu: usize,
    original: [u64; MASK_WORDS],
}

impl Pinned {
    /// Pins to the CPU the caller is running on; `None` when the
    /// platform refuses.
    #[cfg(target_os = "linux")]
    pub fn to_current_cpu() -> Option<Self> {
        let mut original = [0u64; MASK_WORDS];
        let bytes = std::mem::size_of_val(&original);
        // SAFETY: `original` is a live buffer of `bytes` bytes for the
        // kernel to fill; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, original.as_mut_ptr()) } != 0 {
            return None;
        }
        // SAFETY: `sched_getcpu` takes no arguments and only reads the
        // calling thread's CPU number.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut mask = [0u64; MASK_WORDS];
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised buffer of `bytes` bytes.
        (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0)
            .then_some(Self { cpu, original })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn to_current_cpu() -> Option<Self> {
        None
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: `original` is the mask `sched_getaffinity` filled, a
        // live buffer of the size passed. A failure leaves the thread
        // pinned, which only slows what follows.
        unsafe {
            sched_setaffinity(
                0,
                std::mem::size_of_val(&self.original),
                self.original.as_ptr(),
            );
        }
    }
}

/// What one calibration probe takes on the reference host, in
/// nanoseconds. Timings are reported as if the host ran at this speed.
pub const PROBE_REFERENCE_NS: f64 = 35_000.0;

/// A fixed piece of CPU work (xorshift updates scattered over a 64 KiB
/// table, ~35 µs) that the driver runs between requests to learn how
/// fast the host is running *right now*. This host's speed for the
/// same single-threaded code swings by up to 2× from second to second
/// (neighbouring VMs on the core); the probe swings with it, so the
/// ratio of a latency to the probes around it does not (README,
/// "Noise").
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Self {
            table: vec![0; 1 << 13],
        }
    }

    /// Runs the probe once; returns its wall time in nanoseconds.
    pub fn probe(&mut self) -> u64 {
        let start = std::time::Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..16_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (self.table.len() - 1);
            self.table[slot] = self.table[slot].wrapping_add(x ^ i);
        }
        std::hint::black_box(&self.table);
        start.elapsed().as_nanos() as u64
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_cpu_line(stat), Some((35, 1000)));
        assert_eq!(parse_cpu_line("intr 1 2 3\n"), None);
    }

    #[test]
    fn steal_share_is_a_ratio_of_deltas() {
        assert_eq!(steal_share(Some((10, 1000)), Some((30, 1200))), 0.1);
        assert_eq!(steal_share(None, Some((30, 1200))), 0.0);
        assert_eq!(steal_share(Some((10, 1000)), Some((10, 1000))), 0.0);
    }

    #[test]
    fn reads_status_fields_in_kib() {
        let status = "Name:\tx\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\n";
        assert_eq!(status_kib(status, "VmHWM:"), Some(204_800));
        assert_eq!(status_kib(status, "VmRSS:"), Some(102_400));
        assert_eq!(status_kib(status, "VmSwap:"), None);
    }
}
