//! The stage clock: where one request's time goes, stage by stage.
//!
//! [`crate::Middleware::try_request`] runs as five stages — **serve**,
//! **predict**, **plan**, **install**, **book** — and inside predict
//! the engine ranks with **AB** and fills **SB**, and the SB fill may
//! wait on the χ² pair table's lock. A [`StageClock`] keeps one
//! histogram of durations per [`Stage`].
//!
//! Each histogram is a fixed array of log₂ buckets, every octave split
//! into eight linear sub-buckets (so a bucket is at most 12.5 % wide),
//! counted on relaxed atomics. Recording allocates nothing and takes
//! no lock, so sessions on any thread share one clock through an
//! `Arc`, and two histograms merge by adding bucket counts.
//!
//! Time comes from the [`ClockFn`] the caller injects: fc-core reads
//! no wall time of its own (the `wall-clock` lint holds), and a
//! middleware or engine without a clock reads no time for its stages.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic time source, in nanoseconds from any fixed origin.
pub type ClockFn = fn() -> u64;

/// A timed stage of a request (the first five) or of its predict (the
/// last three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Cache lookups or the backend fetch, then recording the request.
    Serve,
    /// The hotspot prior and the engine call.
    Predict,
    /// Settling the ranked list, fetch cap and install mode.
    Plan,
    /// Fetching the plan's tiles and installing them.
    Install,
    /// Booking the reply into the session's statistics.
    Book,
    /// Inside predict: the AB ranking.
    Ab,
    /// Inside predict: the SB ranking — fill, sort and any wait for
    /// the pair table (which [`Stage::TableWait`] times alone).
    Sb,
    /// Inside the SB ranking: waiting for the pair table's lock.
    TableWait,
}

impl Stage {
    /// Every stage, in request order.
    pub const ALL: [Stage; 8] = [
        Stage::Serve,
        Stage::Predict,
        Stage::Plan,
        Stage::Install,
        Stage::Book,
        Stage::Ab,
        Stage::Sb,
        Stage::TableWait,
    ];

    /// The stage's name in reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Serve => "serve",
            Stage::Predict => "predict",
            Stage::Plan => "plan",
            Stage::Install => "install",
            Stage::Book => "book",
            Stage::Ab => "predict.ab",
            Stage::Sb => "predict.sb",
            Stage::TableWait => "predict.sb.table_wait",
        }
    }
}

/// Linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// Buckets covering every `u64`.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) << SUB_BITS;

/// The bucket of a duration: values below [`SUB`] have one each, and
/// every octave above is split into [`SUB`] equal parts.
fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - SUB_BITS)) & (SUB - 1);
    (((octave - SUB_BITS + 1) as usize) << SUB_BITS) | sub as usize
}

/// The smallest value of bucket `i` and its width.
fn bucket_range(i: usize) -> (u64, u64) {
    if (i as u64) < SUB {
        return (i as u64, 1);
    }
    let octave = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
    let width = 1u64 << (octave - SUB_BITS);
    ((SUB | (i as u64 & (SUB - 1))) * width, width)
}

/// One stage's durations.
struct Histogram([AtomicU64; BUCKETS]);

impl Histogram {
    fn new() -> Self {
        Self([const { AtomicU64::new(0) }; BUCKETS])
    }

    fn record(&self, ns: u64) {
        self.0[bucket(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn count(&self) -> u64 {
        self.0.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The midpoint of the bucket holding the `q`-quantile.
    fn quantile(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self.0.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let i = counts.iter().position(|&c| {
            seen += c;
            seen >= rank
        })?;
        let (lo, width) = bucket_range(i);
        Some(lo + width / 2)
    }
}

/// Per-stage duration histograms over an injected clock (module docs).
pub struct StageClock {
    now: ClockFn,
    stages: [Histogram; Stage::ALL.len()],
}

impl std::fmt::Debug for StageClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_map();
        for s in Stage::ALL {
            d.entry(&s.name(), &self.count(s));
        }
        d.finish()
    }
}

impl StageClock {
    /// An empty clock reading time from `now`.
    pub fn new(now: ClockFn) -> Self {
        Self {
            now,
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// The injected clock's current reading.
    #[inline]
    pub(crate) fn now(&self) -> u64 {
        (self.now)()
    }

    /// Records `stage` as having run from `since` until now, and
    /// returns now (the next stage's start).
    #[inline]
    pub(crate) fn lap(&self, stage: Stage, since: u64) -> u64 {
        let now = self.now();
        self.stages[stage as usize].record(now.saturating_sub(since));
        now
    }

    /// Durations recorded for `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        self.stages[stage as usize].count()
    }

    /// The `q`-quantile of `stage`'s durations in nanoseconds, as the
    /// midpoint of its bucket (within 6.25 % of every value the bucket
    /// holds); `None` before any was recorded.
    pub fn quantile(&self, stage: Stage, q: f64) -> Option<u64> {
        self.stages[stage as usize].quantile(q)
    }
}

/// [`StageClock::lap`] on an optional clock and start: the stage is
/// timed only when a clock is attached.
#[inline]
pub(crate) fn lap(clock: Option<&StageClock>, stage: Stage, since: Option<u64>) -> Option<u64> {
    Some(clock?.lap(stage, since?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_every_value_in_order() {
        let mut last = 0;
        for ns in (0..4096u64).chain([u64::MAX / 3, u64::MAX - 1, u64::MAX]) {
            let i = bucket(ns);
            assert!(i < BUCKETS && i >= last, "{ns}");
            let (lo, width) = bucket_range(i);
            assert!(lo <= ns && ns - lo < width, "{ns} in [{lo}, +{width})");
            last = i;
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        // Each bucket is at most an eighth of its lower bound wide.
        for i in SUB as usize..BUCKETS {
            let (lo, width) = bucket_range(i);
            assert!(width * SUB <= lo, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_come_from_the_recorded_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for ns in [100, 100, 100, 1_000, 10_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        let mid = |ns| {
            let (lo, w) = bucket_range(bucket(ns));
            lo + w / 2
        };
        assert_eq!(h.quantile(0.5), Some(mid(100)));
        assert_eq!(h.quantile(0.8), Some(mid(1_000)));
        assert_eq!(h.quantile(0.99), Some(mid(10_000)));
        assert_eq!(h.quantile(0.0), Some(mid(100)));
    }
}
