//! Chunked blob storage with a simulated I/O latency model.
//!
//! The paper's middleware observes ~19.5 ms per tile on a cache hit and
//! ~984 ms on a cache miss (a SciDB query). To reproduce the latency
//! experiments (Figs. 12–13) deterministically on any machine, the backend
//! here *accounts* latency on a virtual clock instead of depending on real
//! disks. [`IoMode::RealSleep`] optionally converts accounted time into
//! actual `thread::sleep`s (scaled) for live demos such as the TCP server.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Anything storable on the simulated disk must report its size so the
/// latency model can charge transfer time.
pub trait BlobSize {
    /// Approximate serialized size in bytes.
    fn nbytes(&self) -> usize;
}

impl BlobSize for crate::dense::DenseArray {
    fn nbytes(&self) -> usize {
        // Calls the inherent method (inherent methods win resolution).
        crate::dense::DenseArray::nbytes(self)
    }
}

impl BlobSize for Vec<f64> {
    fn nbytes(&self) -> usize {
        self.len() * 8
    }
}

/// Latency charged per read: `seek + nbytes * per_byte`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed cost per chunk read (positioning + query overhead).
    pub seek: Duration,
    /// Transfer cost per byte.
    pub per_byte_ns: u64,
}

impl LatencyModel {
    /// A model calibrated so that reading one ForeCache tile from the
    /// backend costs roughly the paper's measured 984 ms cache-miss
    /// latency (dominated by the SciDB query, hence a large seek term).
    pub fn scidb_like() -> Self {
        Self {
            seek: Duration::from_millis(980),
            per_byte_ns: 15, // ~4 ms for a 256x256 f64 tile
        }
    }

    /// Zero-cost model (pure in-memory store).
    pub fn free() -> Self {
        Self {
            seek: Duration::ZERO,
            per_byte_ns: 0,
        }
    }

    /// Latency for a blob of `nbytes`.
    pub fn cost(&self, nbytes: usize) -> Duration {
        self.seek + Duration::from_nanos(self.per_byte_ns.saturating_mul(nbytes as u64))
    }
}

/// Whether charged latency is only accounted or also slept.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoMode {
    /// Advance the virtual clock only (deterministic, default).
    Simulated,
    /// Advance the virtual clock *and* sleep `duration * scale` so live
    /// demos feel like the paper's deployment. `scale` in (0, 1] keeps
    /// demos snappy.
    RealSleep(f64),
}

/// A monotonically increasing virtual clock, shared by all components that
/// charge simulated time (storage, middleware latency model).
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: AtomicU64,
}

impl SimClock {
    /// New clock at t=0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Advances the clock by `d` and returns the new reading.
    pub fn advance(&self, d: Duration) -> Duration {
        let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let now = self.nanos.fetch_add(add, Ordering::Relaxed) + add;
        Duration::from_nanos(now)
    }

    /// Current reading.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Resets to t=0 (between experiment runs).
    pub fn reset(&self) {
        self.nanos.store(0, Ordering::Relaxed);
    }
}

/// Cumulative I/O statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of chunk reads served.
    pub reads: usize,
    /// Number of chunk writes.
    pub writes: usize,
    /// Total bytes read.
    pub bytes_read: usize,
    /// Total simulated time charged to reads, in nanoseconds.
    pub read_ns: u64,
}

/// A keyed blob store with simulated read latency. Writes are free (tile
/// building happens offline in the paper); reads charge the latency model
/// and advance the shared [`SimClock`].
#[derive(Debug)]
pub struct SimDisk<K: Eq + Hash + Clone, V: BlobSize> {
    chunks: Mutex<HashMap<K, Arc<V>>>,
    stats: Mutex<IoStats>,
    latency: LatencyModel,
    mode: IoMode,
    clock: Arc<SimClock>,
}

impl<K: Eq + Hash + Clone, V: BlobSize> SimDisk<K, V> {
    /// Creates a disk with the given latency model and mode.
    pub fn new(latency: LatencyModel, mode: IoMode, clock: Arc<SimClock>) -> Self {
        Self {
            chunks: Mutex::new(HashMap::new()),
            stats: Mutex::new(IoStats::default()),
            latency,
            mode,
            clock,
        }
    }

    /// Stores a blob under `key`, replacing any previous blob.
    pub fn write(&self, key: K, value: V) {
        self.chunks.lock().insert(key, Arc::new(value));
        self.stats.lock().writes += 1;
    }

    /// Reads the blob at `key`, charging simulated latency. Returns the
    /// blob and the latency charged. `None` if the key is absent (no
    /// latency charged — existence checks are metadata lookups).
    pub fn read(&self, key: &K) -> Option<(Arc<V>, Duration)> {
        let blob = self.chunks.lock().get(key).cloned()?;
        let cost = self.latency.cost(blob.nbytes());
        self.clock.advance(cost);
        {
            let mut s = self.stats.lock();
            s.reads += 1;
            s.bytes_read += blob.nbytes();
            s.read_ns += u64::try_from(cost.as_nanos()).unwrap_or(u64::MAX);
        }
        if let IoMode::RealSleep(scale) = self.mode {
            std::thread::sleep(cost.mul_f64(scale.clamp(0.0, 1.0)));
        }
        Some((blob, cost))
    }

    /// Reads the blob at `key` **without charging latency** — for offline
    /// work (building metadata over already-materialized tiles), not the
    /// user-facing request path.
    pub fn peek(&self, key: &K) -> Option<Arc<V>> {
        self.chunks.lock().get(key).cloned()
    }

    /// Whether `key` exists (no latency charged).
    pub fn contains(&self, key: &K) -> bool {
        self.chunks.lock().contains_key(key)
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.chunks.lock().len()
    }

    /// Whether the disk is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of I/O statistics.
    pub fn stats(&self) -> IoStats {
        *self.stats.lock()
    }

    /// Resets I/O statistics (not contents).
    pub fn reset_stats(&self) {
        *self.stats.lock() = IoStats::default();
    }

    /// The shared clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The configured latency model.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_memory<K: Eq + Hash + Clone>() -> SimDisk<K, Vec<f64>> {
        SimDisk::new(LatencyModel::free(), IoMode::Simulated, SimClock::new())
    }

    #[test]
    fn latency_cost_combines_seek_and_transfer() {
        let m = LatencyModel {
            seek: Duration::from_millis(1),
            per_byte_ns: 10,
        };
        assert_eq!(
            m.cost(1000),
            Duration::from_millis(1) + Duration::from_nanos(10_000)
        );
        assert_eq!(LatencyModel::free().cost(1 << 20), Duration::ZERO);
    }

    #[test]
    fn read_charges_clock_and_counts() {
        let clock = SimClock::new();
        let model = LatencyModel {
            seek: Duration::from_micros(100),
            per_byte_ns: 1,
        };
        let disk: SimDisk<u32, Vec<f64>> = SimDisk::new(model, IoMode::Simulated, clock.clone());
        disk.write(1, vec![0.0; 100]);
        assert!(disk.contains(&1));
        let (blob, cost) = disk.read(&1).unwrap();
        assert_eq!(blob.len(), 100);
        assert_eq!(cost, model.cost(800));
        assert_eq!(clock.now(), cost);
        let s = disk.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 800);
        assert!(s.read_ns > 0);
    }

    #[test]
    fn missing_key_is_free() {
        let disk: SimDisk<u32, Vec<f64>> = in_memory();
        assert!(disk.read(&42).is_none());
        assert_eq!(disk.stats().reads, 0);
        assert_eq!(disk.clock().now(), Duration::ZERO);
    }

    #[test]
    fn scidb_like_miss_latency_near_one_second() {
        // A 256x256 single-attribute tile is 524288 bytes of f64.
        let m = LatencyModel::scidb_like();
        let cost = m.cost(256 * 256 * 8);
        assert!(cost > Duration::from_millis(980));
        assert!(cost < Duration::from_millis(1000));
    }

    #[test]
    fn clock_reset_and_advance() {
        let c = SimClock::new();
        c.advance(Duration::from_millis(5));
        c.advance(Duration::from_millis(7));
        assert_eq!(c.now(), Duration::from_millis(12));
        c.reset();
        assert_eq!(c.now(), Duration::ZERO);
    }

    #[test]
    fn overwrite_replaces_blob() {
        let disk: SimDisk<&'static str, Vec<f64>> = in_memory();
        disk.write("a", vec![1.0]);
        disk.write("a", vec![2.0, 3.0]);
        assert_eq!(disk.len(), 1);
        let (blob, _) = disk.read(&"a").unwrap();
        assert_eq!(blob.as_slice(), &[2.0, 3.0]);
    }
}
