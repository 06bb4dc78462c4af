//! The backend tile store: tiles on the simulated DBMS disk, plus the
//! shared per-tile metadata structure (paper §2.3, "Computing Metadata").
//!
//! Reads through [`TileStore::fetch_backend`] model a SciDB query for one
//! tile and charge the configured latency; metadata lookups are free
//! (the paper keeps signatures "in a shared data structure for later use
//! by our prediction engine").
//!
//! Metadata keys are interned ([`MetaKey`]) and vectors are stored as
//! `Arc<[f64]>`, so reads share the stored allocation instead of cloning
//! it. For the prediction hot path, [`TileStore::signature_index`]
//! exposes a frozen dense-matrix view of all metadata — see
//! [`crate::sigindex`] for the concurrency model.

use crate::geometry::Geometry;
use crate::id::TileId;
use crate::sigindex::SignatureIndex;
use crate::tile::Tile;
use fc_array::{IoMode, IoStats, LatencyModel, SimClock, SimDisk};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// An interned metadata-key handle: copyable, order-stable, and
/// resolvable back to its name without touching the store.
///
/// Interning is global to the process; the number of distinct keys is
/// small and fixed (the four signature names plus ad-hoc test keys), so
/// key strings are leaked once and shared forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetaKey(u32);

struct Interner {
    by_name: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            by_name: HashMap::new(),
            names: Vec::new(),
        })
    })
}

impl MetaKey {
    /// Interns `name`, returning its stable key (idempotent).
    pub fn intern(name: &str) -> Self {
        if let Some(k) = Self::lookup(name) {
            return k;
        }
        let mut i = interner().write();
        if let Some(&id) = i.by_name.get(name) {
            return Self(id);
        }
        let id = u32::try_from(i.names.len()).expect("metadata key space fits u32");
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        i.names.push(leaked);
        i.by_name.insert(leaked, id);
        Self(id)
    }

    /// The key for `name` if it was interned before; never interns.
    pub fn lookup(name: &str) -> Option<Self> {
        interner().read().by_name.get(name).map(|&id| Self(id))
    }

    /// The interned name.
    pub fn name(self) -> &'static str {
        interner().read().names[self.0 as usize]
    }

    /// The raw interned id — stable for the lifetime of the process,
    /// never stable across processes. Lets derived caches fingerprint a
    /// key *set* with integer arithmetic instead of string hashing.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Per-tile metadata: named signature vectors computed at build time.
/// Vectors are reference-counted; cloning a `TileMeta` or reading a
/// vector shares the stored allocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileMeta {
    entries: Vec<(MetaKey, Arc<[f64]>)>,
}

impl TileMeta {
    /// Looks up a metadata vector by name.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        let key = MetaKey::lookup(name)?;
        self.get_key(key)
    }

    /// Looks up a metadata vector by interned key.
    pub fn get_key(&self, key: MetaKey) -> Option<&[f64]> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| &**v)
    }

    /// A shared handle to a metadata vector (no copy).
    pub fn shared(&self, name: &str) -> Option<Arc<[f64]>> {
        self.shared_key(MetaKey::lookup(name)?)
    }

    /// A shared handle to a metadata vector by interned key (no copy,
    /// no interner lookup).
    pub fn shared_key(&self, key: MetaKey) -> Option<Arc<[f64]>> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    /// Inserts or replaces a metadata vector.
    pub fn put(&mut self, name: impl AsRef<str>, value: Vec<f64>) {
        self.put_shared(MetaKey::intern(name.as_ref()), value.into());
    }

    /// Inserts or replaces a metadata vector by key, sharing `value`.
    pub fn put_shared(&mut self, key: MetaKey, value: Arc<[f64]>) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Names of all stored metadata vectors.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(k, _)| k.name())
    }

    /// Key/vector pairs, in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&MetaKey, &Arc<[f64]>)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metadata is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The backend store holding every pre-computed tile (on the simulated
/// DBMS disk) and the shared metadata map.
#[derive(Debug)]
pub struct TileStore {
    geometry: Geometry,
    disk: SimDisk<TileId, Tile>,
    meta: RwLock<HashMap<TileId, TileMeta>>,
    /// Lazily built frozen view of `meta`; invalidated by `put_meta`.
    sig_index: RwLock<Option<Arc<SignatureIndex>>>,
    /// Bumped on every metadata write so long-lived holders of the
    /// frozen index can revalidate with one relaxed load.
    meta_epoch: AtomicU64,
    /// Process-unique store identity, so caches keyed by
    /// `(store_id, meta_epoch)` can never confuse two stores whose
    /// epoch counters happen to coincide.
    store_id: u64,
}

/// Source of process-unique [`TileStore::store_id`] values.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

impl TileStore {
    /// Creates an empty store.
    pub fn new(
        geometry: Geometry,
        latency: LatencyModel,
        mode: IoMode,
        clock: Arc<SimClock>,
    ) -> Self {
        Self {
            geometry,
            disk: SimDisk::new(latency, mode, clock),
            meta: RwLock::new(HashMap::new()),
            sig_index: RwLock::new(None),
            meta_epoch: AtomicU64::new(0),
            store_id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique identity for this store; pairs with
    /// [`Self::meta_epoch`] as a cache key for the frozen index.
    pub fn store_id(&self) -> u64 {
        self.store_id
    }

    /// The pyramid geometry this store serves.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Stores a tile (free: tile building happens offline).
    pub fn put_tile(&self, tile: Tile) {
        self.disk.write(tile.id, tile);
    }

    /// Fetches a tile from the backend, charging the miss-path latency.
    /// Returns the tile and the latency charged. `None` when the tile does
    /// not exist.
    pub fn fetch_backend(&self, id: TileId) -> Option<(Arc<Tile>, Duration)> {
        self.disk.read(&id)
    }

    /// Fetches a tile **without charging latency** — offline access for
    /// signature training and metadata computation, never the user path.
    pub fn fetch_offline(&self, id: TileId) -> Option<Arc<Tile>> {
        self.disk.peek(&id)
    }

    /// Whether the backend holds `id` (metadata check, free).
    pub fn contains(&self, id: TileId) -> bool {
        self.disk.contains(&id)
    }

    /// Number of tiles on the backend.
    pub fn backend_len(&self) -> usize {
        self.disk.len()
    }

    /// Adds a named metadata vector for a tile. Invalidates the frozen
    /// signature index (metadata writes are an offline operation).
    pub fn put_meta(&self, id: TileId, name: &str, value: Vec<f64>) {
        let key = MetaKey::intern(name);
        self.meta
            .write()
            .entry(id)
            .or_default()
            .put_shared(key, value.into());
        *self.sig_index.write() = None;
        self.meta_epoch.fetch_add(1, Ordering::Release);
    }

    /// Reads a tile's metadata (free, shared structure). The returned
    /// `TileMeta` shares the stored vectors (cheap clone).
    pub fn meta(&self, id: TileId) -> Option<TileMeta> {
        self.meta.read().get(&id).cloned()
    }

    /// Reads one named metadata vector as a shared handle (no copy).
    pub fn meta_vec(&self, id: TileId, name: &str) -> Option<Arc<[f64]>> {
        self.meta.read().get(&id)?.shared(name)
    }

    /// Reads one metadata vector by interned key (no copy, no interner
    /// lookup).
    pub fn meta_vec_key(&self, id: TileId, key: MetaKey) -> Option<Arc<[f64]>> {
        self.meta.read().get(&id)?.shared_key(key)
    }

    /// The current metadata epoch. Changes whenever [`Self::put_meta`]
    /// runs; pairs with [`Self::signature_index`] for cheap
    /// revalidation of a cached index.
    pub fn meta_epoch(&self) -> u64 {
        self.meta_epoch.load(Ordering::Acquire)
    }

    /// The frozen signature index over the current metadata, building
    /// it if the cached copy was invalidated. `None` when the store has
    /// no metadata at all. See [`crate::sigindex`] for the concurrency
    /// model.
    pub fn signature_index(&self) -> Option<Arc<SignatureIndex>> {
        if let Some(ix) = self.sig_index.read().as_ref() {
            return Some(ix.clone());
        }
        // Build and install while holding the metadata read lock.
        // `put_meta` mutates the map (under the meta write lock, which
        // excludes this read) strictly BEFORE it clears `sig_index`, so
        // a write that lands after we took the read lock can only clear
        // the slot after we release it: an index installed here is
        // always rebuilt over newer data, never left behind as a stale
        // snapshot. Holding meta.read() across sig_index.write() cannot
        // deadlock — no path acquires meta after sig_index.
        let meta = self.meta.read();
        if meta.is_empty() {
            return None;
        }
        let mut slot = self.sig_index.write();
        if let Some(ix) = slot.as_ref() {
            // Another reader installed while we waited for the slot.
            return Some(ix.clone());
        }
        let built = Arc::new(SignatureIndex::build(self.geometry, &meta));
        *slot = Some(built.clone());
        Some(built)
    }

    /// Backend I/O statistics (reads = simulated SciDB queries).
    pub fn io_stats(&self) -> IoStats {
        self.disk.stats()
    }

    /// Resets backend I/O statistics.
    pub fn reset_io_stats(&self) {
        self.disk.reset_stats()
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        self.disk.clock()
    }

    /// The backend latency model.
    pub fn latency_model(&self) -> LatencyModel {
        self.disk.latency_model()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_array::{DenseArray, Schema};

    fn store() -> TileStore {
        TileStore::new(
            Geometry::new(2, 16, 16, 8, 8),
            LatencyModel {
                seek: Duration::from_micros(100),
                per_byte_ns: 1,
            },
            IoMode::Simulated,
            SimClock::new(),
        )
    }

    fn tile(id: TileId) -> Tile {
        Tile::new(
            id,
            DenseArray::filled(Schema::grid2d("T", 8, 8, &["v"]).unwrap(), 1.0),
        )
    }

    #[test]
    fn put_fetch_charges_latency() {
        let s = store();
        let id = TileId::new(1, 0, 1);
        s.put_tile(tile(id));
        assert!(s.contains(id));
        let (t, cost) = s.fetch_backend(id).unwrap();
        assert_eq!(t.id, id);
        assert!(cost > Duration::ZERO);
        assert_eq!(s.io_stats().reads, 1);
        assert!(s.clock().now() >= cost);
    }

    #[test]
    fn missing_tile_returns_none() {
        let s = store();
        assert!(s.fetch_backend(TileId::new(1, 5, 5)).is_none());
        assert_eq!(s.io_stats().reads, 0);
    }

    #[test]
    fn metadata_is_free_and_named() {
        let s = store();
        let id = TileId::ROOT;
        s.put_meta(id, "hist", vec![1.0, 2.0]);
        s.put_meta(id, "mean", vec![0.5]);
        let before = s.clock().now();
        let m = s.meta(id).unwrap();
        assert_eq!(s.clock().now(), before, "metadata reads are free");
        assert_eq!(m.get("hist").unwrap(), &[1.0, 2.0]);
        assert_eq!(m.get("mean").unwrap(), &[0.5]);
        assert_eq!(m.len(), 2);
        assert_eq!(&*s.meta_vec(id, "mean").unwrap(), &[0.5]);
        assert!(s.meta_vec(id, "nope").is_none());
        assert!(s.meta(TileId::new(1, 0, 0)).is_none());
    }

    #[test]
    fn meta_reads_share_the_stored_allocation() {
        let s = store();
        s.put_meta(TileId::ROOT, "hist", vec![1.0, 2.0]);
        let a = s.meta_vec(TileId::ROOT, "hist").unwrap();
        let b = s.meta_vec(TileId::ROOT, "hist").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "reads must not copy the vector");
        let via_meta = s.meta(TileId::ROOT).unwrap().shared("hist").unwrap();
        assert!(Arc::ptr_eq(&a, &via_meta));
    }

    #[test]
    fn meta_put_replaces() {
        let mut m = TileMeta::default();
        assert!(m.is_empty());
        m.put("a", vec![1.0]);
        m.put("a", vec![2.0]);
        assert_eq!(m.get("a").unwrap(), &[2.0]);
        assert_eq!(m.len(), 1);
        assert_eq!(m.names().collect::<Vec<_>>(), vec!["a"]);
    }

    #[test]
    fn interned_keys_are_stable_and_named() {
        let k1 = MetaKey::intern("stable-key");
        let k2 = MetaKey::intern("stable-key");
        assert_eq!(k1, k2);
        assert_eq!(k1.name(), "stable-key");
        assert_eq!(MetaKey::lookup("stable-key"), Some(k1));
        assert_ne!(MetaKey::intern("other-key"), k1);
    }

    #[test]
    fn signature_index_freezes_and_invalidates() {
        let s = store();
        assert!(s.signature_index().is_none(), "no metadata yet");
        s.put_meta(TileId::ROOT, "hist", vec![0.5, 0.5]);
        let e1 = s.meta_epoch();
        let ix1 = s.signature_index().unwrap();
        let ix2 = s.signature_index().unwrap();
        assert!(Arc::ptr_eq(&ix1, &ix2), "steady state reuses the index");
        // A metadata write invalidates: new epoch, new index.
        s.put_meta(TileId::new(1, 0, 0), "hist", vec![0.1, 0.9]);
        assert_ne!(s.meta_epoch(), e1);
        let ix3 = s.signature_index().unwrap();
        assert!(!Arc::ptr_eq(&ix1, &ix3));
        let d = ix3.dense_index(TileId::new(1, 0, 0)).unwrap();
        let row = ix3.matrix(MetaKey::intern("hist")).unwrap().row(d).unwrap();
        assert_eq!(row, &[0.1, 0.9]);
    }

    #[test]
    fn stats_reset() {
        let s = store();
        s.put_tile(tile(TileId::ROOT));
        s.fetch_backend(TileId::ROOT);
        assert_eq!(s.io_stats().reads, 1);
        s.reset_io_stats();
        assert_eq!(s.io_stats().reads, 0);
        assert_eq!(s.backend_len(), 1);
    }
}
