//! Multi-user cache coordination (paper §6.2, future work).
//!
//! "It is unclear how to partition the middleware cache to make
//! predictions for multiple users exploring different datasets, or how
//! to share data between users exploring the same dataset. We plan to
//! extend our architecture to manage coordinated predictions and caching
//! across multiple users."
//!
//! This module implements that extension for the same-dataset case:
//! a [`SharedTileCache`] holds one copy of every resident tile, visible
//! to all sessions; each session gets a fair slice of the prefetch
//! budget, re-partitioned as sessions come and go; and tiles requested
//! by several sessions gain *popularity* so eviction keeps communal
//! tiles longest.
//!
//! # Sharding
//!
//! [`SharedTileCache`] is **lock-striped**: residency is split across N
//! shards (N a power of two, chosen at construction), each guarded by
//! its own mutex, with tiles assigned by a [`TileId`] hash. Sessions
//! touching tiles on different shards never contend. Three invariants
//! hold by construction:
//!
//! * **Shard count is a power of two** so the shard index is a single
//!   mask of the id hash ([`SharedTileCache::with_shards`] asserts it).
//! * **Capacity partitions exactly**: shard *i* holds at most
//!   `capacity/N` tiles (+1 for the first `capacity mod N` shards), so
//!   the global resident count can never exceed `capacity` no matter
//!   how concurrent installs interleave.
//! * **Budget repartitioning stays global**: the per-session prefetch
//!   allowance ([`MultiUserCache::session_budget`]) is computed from the
//!   *global* capacity and the *global* open-session count (both read
//!   from atomics), not from any per-shard quantity — opening a session
//!   shrinks every other session's allowance exactly as in the
//!   single-lock design.
//!
//! Each shard keeps its own LRU touch clock and evicts among its own
//! residents only, so sharded eviction is a per-shard approximation of
//! the global least-(holders, popularity, recency) policy. The
//! pre-sharding implementation is retained verbatim as
//! [`SingleMutexTileCache`]: it is the golden reference the sharded
//! cache is tested against (a 1-shard cache is bit-identical to it; an
//! N-shard cache behaves like N independent references over the
//! hash-partitioned id space), and the baseline `exp_multiuser`
//! benchmarks contention against.
//!
//! Statistics are lock-free atomics on both implementations' shared
//! paths (hits, misses, cross-session hits, evictions), so hot-path
//! lookups never serialize on a stats lock.
//!
//! # Namespaces and the cross-session hotspot model
//!
//! One process serves several pyramids through a [`DatasetRegistry`]:
//! each dataset gets its own [`SharedTileCache`] **namespace**, and one
//! global tile budget is partitioned exactly across the attached
//! namespaces (the same base-plus-remainder math the shard partition
//! uses) — attaching a dataset repartitions every namespace's
//! capacity via [`MultiUserCache::set_capacity`].
//!
//! Each namespace also trains a **cross-session popularity model**
//! online. Residency-based [`MultiUserCache::popular`] forgets a tile
//! the moment it is evicted — exactly the signal hotspots need — so
//! every shard additionally keeps an eviction-surviving popularity
//! sketch (a capped, periodically-halved count map) updated on every
//! lookup and fresh install; [`MultiUserCache::hot`] ranks it. A [`SharedHotspotModel`]
//! periodically snapshots the top-N into an epoch-stamped list that
//! sessions read lock-free in steady state (see [`HotspotView`]) and
//! blend into candidate ranking (`alloc::boost_toward_hotspots`,
//! gated per phase by `EngineConfig::hotspot`).

use fc_tiles::{Tile, TileId};
use parking_lot::atomic::{AtomicU64, AtomicUsize};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A session handle within the shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

#[derive(Debug)]
struct Resident {
    tile: Arc<Tile>,
    /// The session whose fetch brought the tile in (re-set when a tile
    /// is re-installed after eviction) — the basis of the
    /// cross-session-hit metric, independent of who currently holds it.
    installer: SessionId,
    /// Sessions whose prefetch set or history references this tile.
    holders: Vec<SessionId>,
    /// Total times any session requested this tile (popularity).
    popularity: u64,
    /// Monotonic touch counter for LRU among equal popularity
    /// (per-shard in the sharded cache).
    last_touch: u64,
}

/// Aggregate statistics for the shared cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups that found the tile resident (any holder).
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Hits on tiles brought in by a *different* session — the §6.2
    /// sharing benefit.
    pub cross_session_hits: usize,
    /// Evictions performed.
    pub evictions: usize,
}

impl SharedCacheStats {
    /// Overall hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Lock-free statistics counters shared by both cache implementations.
#[derive(Debug, Default)]
struct AtomicStats {
    hits: AtomicUsize,
    misses: AtomicUsize,
    cross_session_hits: AtomicUsize,
    evictions: AtomicUsize,
}

impl AtomicStats {
    fn snapshot(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            cross_session_hits: self.cross_session_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The operations a multi-user tile cache offers to sessions. Both the
/// lock-striped [`SharedTileCache`] and the retained
/// [`SingleMutexTileCache`] reference implement it, so the middleware,
/// the `fc-sim` multi-user driver, and `exp_multiuser` can run either
/// behind `Arc<dyn MultiUserCache>`.
pub trait MultiUserCache: Send + Sync {
    /// Opens a session; the prefetch budget re-partitions across all
    /// open sessions.
    fn open_session(&self) -> SessionId;
    /// Closes a session, releasing its holds; unheld unpopular tiles
    /// become eviction candidates.
    fn close_session(&self, id: SessionId);
    /// Number of open sessions.
    fn session_count(&self) -> usize;
    /// The per-session prefetch allocation: the **global** budget
    /// divided fairly among open sessions (at least 1).
    fn session_budget(&self) -> usize;
    /// Looks up a tile for `session`, counting shared hits.
    fn lookup(&self, session: SessionId, id: TileId) -> Option<Arc<Tile>>;
    /// Residency check that touches neither stats nor recency (for
    /// prefetch filtering).
    fn contains(&self, id: TileId) -> bool;
    /// Fetches a resident tile **without any accounting**: no stats,
    /// no popularity, no recency, no holder registration. The push
    /// planner reads candidate payloads through this — a speculative
    /// server push must not forge the hit/miss record or train the
    /// popularity model the way a real session request would.
    fn peek(&self, id: TileId) -> Option<Arc<Tile>>;
    /// Installs tiles fetched for `session`, evicting per policy when
    /// over capacity; at most the session's fair budget per call.
    /// Returns the number of tiles actually installed.
    fn install(&self, session: SessionId, tiles: Vec<Arc<Tile>>) -> usize;
    /// Adds `session`'s hold on any of `ids` that are resident,
    /// without touching stats, popularity, or recency — how a session
    /// protects predictions another session already fetched (its
    /// prefetch set is communal property it didn't have to install).
    fn hold(&self, session: SessionId, ids: &[TileId]);
    /// Releases `session`'s hold on tiles outside `keep` (its new
    /// prefetch set) — the per-request reallocation step.
    fn retain_for(&self, session: SessionId, keep: &[TileId]);
    /// Number of resident tiles.
    fn len(&self) -> usize;
    /// Whether the cache is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Statistics snapshot.
    fn stats(&self) -> SharedCacheStats;
    /// The most popular resident tiles, best first (dataset hotspots in
    /// the §5.2.3 sense, discovered online). In the sharded cache this
    /// is a **non-atomic snapshot**: shards are visited one at a time,
    /// so concurrent installs/evictions may be half-reflected.
    fn popular(&self, n: usize) -> Vec<(TileId, u64)>;
    /// The most-requested tiles per the eviction-surviving decayed
    /// popularity sketch, best first — unlike
    /// [`MultiUserCache::popular`], a tile keeps its standing after
    /// eviction (the signal the cross-session hotspot model trains
    /// on). Counts decay (halve) periodically, so the ranking tracks
    /// current communal interest. Non-atomic snapshot in the sharded
    /// cache, like `popular`; decay is also **per shard** there
    /// (clocked by each shard's own update stream, like the per-shard
    /// LRU clocks), so under heavily skewed traffic a busy shard's
    /// counts are halved more often than a quiet shard's and the
    /// cross-shard ranking is an approximation of the global one —
    /// acceptable for a top-N prior, not for exact accounting.
    fn hot(&self, n: usize) -> Vec<(TileId, u64)>;
    /// Current global capacity in tiles.
    fn capacity(&self) -> usize;
    /// Re-partitions the cache to a new global capacity (the
    /// [`DatasetRegistry`] calls this when a dataset attaches),
    /// evicting down per shard when shrinking. Sharded caches require
    /// `capacity >=` their shard count.
    fn set_capacity(&self, capacity: usize);
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

// The SplitMix64 finalizer lives in `paircache` now, shared with the
// χ² pair cache's slot hashing.
use crate::paircache::splitmix64;

/// The one ranking order every popularity surface uses: count
/// descending, ties by ascending tile id. `PopularitySketch::top`,
/// both `popular()` impls, and the sharded `hot()` merge must agree on
/// this ordering — the per-shard-head merge in `hot()` is only correct
/// because each shard's `top()` ranks identically.
fn rank_by_count_desc(a: &(TileId, u64), b: &(TileId, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// The exact base-plus-remainder partition of `total` into `n` parts:
/// part *i* gets `total / n`, plus one for the first `total % n`
/// parts, so the parts sum to `total` exactly. Shared by the shard
/// capacity split and the registry's per-namespace budget split.
fn exact_partition(total: usize, n: usize) -> impl Iterator<Item = usize> {
    let base = total / n;
    let extra = total % n;
    (0..n).map(move |i| base + usize::from(i < extra))
}

/// [`splitmix64`] over the packed tile coordinates — used for both
/// tile→shard and session→hold-stripe assignment.
#[inline]
fn tile_hash(id: TileId) -> u64 {
    splitmix64((u64::from(id.level) << 58) ^ (u64::from(id.y) << 29) ^ u64::from(id.x))
}

/// Entry cap of one shard's popularity sketch: crossing it prunes the
/// lowest-(count, id) quartile in one batch — bounding memory to the
/// working set's head regardless of how many distinct tiles pass
/// through the namespace, at amortized O(log CAP) per insert instead
/// of a full min-scan under the shard lock on every new id.
const SKETCH_CAP: usize = 1024;
/// Entries surviving a cap prune (¾ of the cap): the slack between
/// `SKETCH_KEEP` and [`SKETCH_CAP`] is what amortizes the prune.
const SKETCH_KEEP: usize = SKETCH_CAP - SKETCH_CAP / 4;
/// Updates between decay sweeps: every `SKETCH_DECAY_EVERY` sketch
/// updates all counts halve (entries reaching zero drop out), so old
/// traffic fades and the ranking tracks *current* communal interest.
const SKETCH_DECAY_EVERY: u64 = 4096;

/// An eviction-surviving, decayed popularity sketch (capped count
/// map). [`MultiUserCache::popular`] ranks only *resident* tiles, so
/// eviction erases exactly the signal a hotspot model needs; the
/// sketch keeps counting a tile after its bytes are gone.
#[derive(Debug, Default)]
struct PopularitySketch {
    counts: HashMap<TileId, u64>,
    /// Updates since construction (drives the decay cadence).
    updates: u64,
}

impl PopularitySketch {
    /// Counts one request for `id`, decaying and capping per the
    /// module constants. Deterministic: the same update sequence
    /// always yields the same sketch (the golden tests rely on it).
    fn bump(&mut self, id: TileId) {
        self.updates += 1;
        if self.updates.is_multiple_of(SKETCH_DECAY_EVERY) {
            self.counts.retain(|_, c| {
                *c >>= 1;
                *c > 0
            });
        }
        *self.counts.entry(id).or_insert(0) += 1;
        if self.counts.len() > SKETCH_CAP {
            // Batch prune: drop the smallest (count, id) entries down
            // to SKETCH_KEEP in one pass — the per-insert min-scan
            // alternative serializes every high-cardinality lookup on
            // an O(CAP) sweep under the shard lock.
            let mut v: Vec<(TileId, u64)> = self.counts.iter().map(|(&t, &c)| (t, c)).collect();
            v.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
            for &(t, _) in &v[..v.len() - SKETCH_KEEP] {
                self.counts.remove(&t);
            }
        }
    }

    /// The top-`n` entries, highest count first (ties by tile id).
    /// Runs inline on the hotspot-refresh request path under the
    /// shard lock, so only the n-sized head is ever sorted — the tail
    /// is split off with a linear-time select, not a full sort.
    fn top(&self, n: usize) -> Vec<(TileId, u64)> {
        let mut v: Vec<(TileId, u64)> = self.counts.iter().map(|(&t, &c)| (t, c)).collect();
        if n < v.len() {
            v.select_nth_unstable_by(n, rank_by_count_desc);
            v.truncate(n);
        }
        v.sort_by(rank_by_count_desc);
        v
    }
}

/// One residency map with its LRU clock — the whole cache for the
/// single-mutex reference, one stripe of it for the sharded cache.
#[derive(Debug, Default)]
struct TileMap {
    tiles: HashMap<TileId, Resident>,
    /// Monotonic touch counter scoped to this map.
    touch: u64,
    /// Eviction-surviving request counts for this map's id range.
    sketch: PopularitySketch,
}

impl TileMap {
    /// Looks `id` up, refreshing popularity/recency and recording the
    /// holder. Returns `(tile, was_cross_session_hit, holder_added)`:
    /// a hit is cross-session when a *different* session's fetch
    /// brought the tile in (regardless of who holds it now).
    fn lookup(&mut self, session: SessionId, id: TileId) -> Option<(Arc<Tile>, bool, bool)> {
        self.touch += 1;
        let touch = self.touch;
        // Misses count too: a request for an evicted (or never-fetched)
        // tile is demand the resident-only popularity can't see.
        self.sketch.bump(id);
        let r = self.tiles.get_mut(&id)?;
        r.popularity += 1;
        r.last_touch = touch;
        let foreign = r.installer != session;
        let holder_added = !r.holders.contains(&session);
        if holder_added {
            r.holders.push(session);
        }
        Some((r.tile.clone(), foreign, holder_added))
    }

    /// Inserts `tile` for `session` (or refreshes it), returning
    /// `(newly_resident, holder_added)`.
    fn install_one(&mut self, session: SessionId, tile: Arc<Tile>) -> (bool, bool) {
        self.touch += 1;
        let touch = self.touch;
        let id = tile.id;
        match self.tiles.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let r = o.get_mut();
                let added = !r.holders.contains(&session);
                if added {
                    r.holders.push(session);
                }
                r.last_touch = touch;
                (false, added)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Resident {
                    tile,
                    installer: session,
                    holders: vec![session],
                    popularity: 1,
                    last_touch: touch,
                });
                // Fresh installs feed the sketch (predicted demand);
                // re-installs of a resident tile don't double-count.
                self.sketch.bump(id);
                (true, true)
            }
        }
    }

    /// Adds `session` as a holder of `id` if resident (no stats,
    /// popularity, or recency side effects); returns whether the
    /// holder was newly added.
    fn hold_one(&mut self, session: SessionId, id: TileId) -> bool {
        match self.tiles.get_mut(&id) {
            Some(r) if !r.holders.contains(&session) => {
                r.holders.push(session);
                true
            }
            _ => false,
        }
    }

    /// Evicts down to `capacity`: lowest (popularity, last_touch)
    /// first, preferring tiles with no holders. Returns evictions done.
    fn evict_to(&mut self, capacity: usize) -> usize {
        let mut evicted = 0;
        while self.tiles.len() > capacity {
            let victim = self
                .tiles
                .iter()
                .min_by_key(|(_, r)| (!r.holders.is_empty() as u64, r.popularity, r.last_touch))
                .map(|(&id, _)| id);
            match victim {
                Some(id) => {
                    self.tiles.remove(&id);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// The session registry shared by both implementations: open-session
/// list under a small mutex (cold path), plus an atomic count so
/// [`MultiUserCache::session_budget`] never takes a lock.
#[derive(Debug, Default)]
struct SessionRegistry {
    sessions: Mutex<Vec<SessionId>>,
    count: AtomicUsize,
    next: AtomicU64,
}

impl SessionRegistry {
    fn new() -> Self {
        Self {
            sessions: Mutex::new(Vec::new()),
            count: AtomicUsize::new(0),
            next: AtomicU64::new(1),
        }
    }

    fn open(&self) -> SessionId {
        let id = SessionId(self.next.fetch_add(1, Ordering::Relaxed));
        self.sessions.lock().push(id);
        self.count.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Removes `id`; returns whether it was registered.
    fn close(&self, id: SessionId) -> bool {
        let mut g = self.sessions.lock();
        let before = g.len();
        g.retain(|&s| s != id);
        let removed = g.len() < before;
        if removed {
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// SingleMutexTileCache — the retained golden reference
// ---------------------------------------------------------------------

/// The pre-sharding shared cache: one global mutex around the whole
/// residency map. Retained as the **golden reference** for the
/// lock-striped [`SharedTileCache`] (which must match it exactly at one
/// shard, and per shard at N) and as the contention baseline
/// `exp_multiuser` measures against. New code should use
/// [`SharedTileCache`].
pub struct SingleMutexTileCache {
    inner: Mutex<TileMap>,
    /// Atomic so [`MultiUserCache::set_capacity`] repartitioning never
    /// takes the map lock just to read the budget.
    capacity: AtomicUsize,
    registry: SessionRegistry,
    stats: AtomicStats,
}

impl std::fmt::Debug for SingleMutexTileCache {
    /// Non-blocking: formats from a `try_lock` snapshot, printing
    /// `"<locked>"` for the resident count when another thread holds
    /// the map — debug logging can never deadlock against a holder.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("SingleMutexTileCache");
        s.field("capacity", &self.capacity.load(Ordering::Relaxed))
            .field("sessions", &self.registry.count());
        match self.inner.try_lock() {
            Some(g) => s.field("resident", &g.tiles.len()),
            None => s.field("resident", &"<locked>"),
        };
        s.finish()
    }
}

impl SingleMutexTileCache {
    /// Creates a cache holding at most `capacity` tiles in total.
    ///
    /// # Panics
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shared cache needs capacity");
        Self {
            inner: Mutex::new(TileMap::default()),
            capacity: AtomicUsize::new(capacity),
            registry: SessionRegistry::new(),
            stats: AtomicStats::default(),
        }
    }
}

impl MultiUserCache for SingleMutexTileCache {
    fn open_session(&self) -> SessionId {
        self.registry.open()
    }

    fn close_session(&self, id: SessionId) {
        if !self.registry.close(id) {
            return;
        }
        let mut g = self.inner.lock();
        for r in g.tiles.values_mut() {
            r.holders.retain(|&h| h != id);
        }
    }

    fn session_count(&self) -> usize {
        self.registry.count()
    }

    fn session_budget(&self) -> usize {
        (self.capacity.load(Ordering::Relaxed) / self.registry.count().max(1)).max(1)
    }

    fn lookup(&self, session: SessionId, id: TileId) -> Option<Arc<Tile>> {
        let found = self.inner.lock().lookup(session, id);
        match found {
            Some((tile, foreign, _)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                if foreign {
                    self.stats
                        .cross_session_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                Some(tile)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn contains(&self, id: TileId) -> bool {
        self.inner.lock().tiles.contains_key(&id)
    }

    fn peek(&self, id: TileId) -> Option<Arc<Tile>> {
        self.inner.lock().tiles.get(&id).map(|r| r.tile.clone())
    }

    fn hold(&self, session: SessionId, ids: &[TileId]) {
        let mut g = self.inner.lock();
        for &id in ids {
            g.hold_one(session, id);
        }
    }

    fn install(&self, session: SessionId, tiles: Vec<Arc<Tile>>) -> usize {
        let budget = self.session_budget();
        let mut g = self.inner.lock();
        let mut installed = 0usize;
        for tile in tiles.into_iter().take(budget) {
            if g.install_one(session, tile).0 {
                installed += 1;
            }
        }
        let evicted = g.evict_to(self.capacity.load(Ordering::Relaxed));
        drop(g);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        installed
    }

    fn retain_for(&self, session: SessionId, keep: &[TileId]) {
        let mut g = self.inner.lock();
        for (id, r) in g.tiles.iter_mut() {
            if !keep.contains(id) {
                r.holders.retain(|&h| h != session);
            }
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().tiles.len()
    }

    fn stats(&self) -> SharedCacheStats {
        self.stats.snapshot()
    }

    fn popular(&self, n: usize) -> Vec<(TileId, u64)> {
        let g = self.inner.lock();
        let mut v: Vec<(TileId, u64)> = g.tiles.iter().map(|(&id, r)| (id, r.popularity)).collect();
        drop(g);
        v.sort_by(rank_by_count_desc);
        v.truncate(n);
        v
    }

    fn hot(&self, n: usize) -> Vec<(TileId, u64)> {
        self.inner.lock().sketch.top(n)
    }

    fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    fn set_capacity(&self, capacity: usize) {
        assert!(capacity > 0, "shared cache needs capacity");
        self.capacity.store(capacity, Ordering::Relaxed);
        let evicted = self.inner.lock().evict_to(capacity);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// SharedTileCache — the lock-striped serving cache
// ---------------------------------------------------------------------

/// Default shard count for [`SharedTileCache::new`] (clamped down to
/// the largest power of two ≤ capacity so every shard owns ≥ 1 slot).
pub const DEFAULT_SHARDS: usize = 16;

/// The shard count a dynamically-striped cache gets for `capacity`:
/// the largest power of two ≤ min([`DEFAULT_SHARDS`], `capacity`).
/// One definition shared by [`SharedTileCache::new`] and the
/// registry's attach-time pre-validation — the validation is only
/// sound while both use the same clamp.
fn default_shard_count(capacity: usize) -> usize {
    let mut shards = DEFAULT_SHARDS.min(capacity.max(1));
    while !shards.is_power_of_two() {
        shards -= 1;
    }
    shards
}

/// One hold-index stripe: each session hashed here maps to the tile
/// ids it currently holds.
type HoldStripe = HashMap<SessionId, Vec<TileId>>;

/// A tile cache shared by all sessions of one dataset, lock-striped
/// into power-of-two shards so sessions on different shards never
/// contend (see the module docs for the sharding invariants).
///
/// Alongside the tile shards, the cache keeps a **session-striped hold
/// index**: per session, the list of tile ids whose `holders` set
/// contains it. [`MultiUserCache::retain_for`] and
/// [`MultiUserCache::close_session`] walk only that list (≤ prefetch
/// budget + history in steady state) and lock only the shards those
/// ids hash to — the single-mutex reference instead scans every
/// resident tile per request, which `exp_multiuser` measures as its
/// dominant per-request cost. Invariants: (a) a session in a
/// resident's `holders` ⇒ the id is in that session's hold list (the
/// converse may be briefly stale: ids evicted while still in the
/// session's keep-set linger, bounded by the keep-set size, until a
/// later rebuild drops them); (b) a hold stripe's lock is never taken
/// while a tile-shard lock is held (hold pushes happen after the
/// shard guard drops), so the two stripe families cannot deadlock —
/// safe because only the owning session ever mutates its own list.
pub struct SharedTileCache {
    shards: Box<[Mutex<TileMap>]>,
    /// Per-session hold lists, striped by a `SessionId` hash under
    /// independent locks (same count as `shards`).
    holds: Box<[Mutex<HoldStripe>]>,
    /// Per-shard capacity, parallel to `shards`; sums to `capacity`.
    /// Atomic so [`MultiUserCache::set_capacity`] repartitioning (the
    /// registry's dataset attach path) publishes new caps
    /// without locking every shard at once.
    shard_caps: Box<[AtomicUsize]>,
    /// `shards.len() - 1` — valid because the count is a power of two.
    mask: usize,
    capacity: AtomicUsize,
    registry: SessionRegistry,
    stats: AtomicStats,
}

impl std::fmt::Debug for SharedTileCache {
    /// Non-blocking: each shard is sampled with `try_lock`; a shard
    /// held elsewhere makes the resident count print as `"≥n <locked>"`
    /// rather than blocking the formatter (the try-lock fallback the
    /// single-mutex cache's Debug also uses).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut resident = 0usize;
        let mut blocked = false;
        for s in self.shards.iter() {
            match s.try_lock() {
                Some(g) => resident += g.tiles.len(),
                None => blocked = true,
            }
        }
        let mut d = f.debug_struct("SharedTileCache");
        d.field("capacity", &self.capacity.load(Ordering::Relaxed))
            .field("shards", &self.shards.len())
            .field("sessions", &self.registry.count());
        if blocked {
            d.field("resident", &format_args!("≥{resident} <locked>"));
        } else {
            d.field("resident", &resident);
        }
        d.finish()
    }
}

impl SharedTileCache {
    /// Creates a cache holding at most `capacity` tiles in total,
    /// striped over [`DEFAULT_SHARDS`] shards (fewer when `capacity`
    /// is small, so no shard has zero slots).
    ///
    /// # Panics
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shared cache needs capacity");
        Self::with_shards(capacity, default_shard_count(capacity))
    }

    /// Creates a cache with an explicit shard count.
    ///
    /// # Panics
    /// Panics when `capacity` is 0, when `shards` is not a power of
    /// two, or when `capacity < shards` (a shard with zero slots could
    /// never hold the tiles hashed to it).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "shared cache needs capacity");
        assert!(
            shards.is_power_of_two(),
            "shard count must be a power of two, got {shards}"
        );
        assert!(
            capacity >= shards,
            "capacity {capacity} must cover all {shards} shards"
        );
        // Exact partition: base slots everywhere, one extra for the
        // first `capacity mod shards` shards; Σ shard_caps == capacity.
        let shard_caps: Box<[AtomicUsize]> = exact_partition(capacity, shards)
            .map(AtomicUsize::new)
            .collect();
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(TileMap::default()))
                .collect(),
            holds: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_caps,
            mask: shards - 1,
            capacity: AtomicUsize::new(capacity),
            registry: SessionRegistry::new(),
            stats: AtomicStats::default(),
        }
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `id` hashes to.
    #[inline]
    pub fn shard_of(&self, id: TileId) -> usize {
        (tile_hash(id) as usize) & self.mask
    }

    /// The hold stripe `session` hashes to.
    #[inline]
    fn hold_stripe_of(&self, session: SessionId) -> usize {
        splitmix64(session.0) as usize & self.mask
    }

    /// Records that `session` now holds all of `ids` (idempotent); one
    /// stripe lock per call. Must be called with no shard lock held —
    /// see the lock-order invariant in the type docs.
    fn push_holds(&self, session: SessionId, ids: &[TileId]) {
        if ids.is_empty() {
            return;
        }
        let mut g = self.holds[self.hold_stripe_of(session)].lock();
        let list = g.entry(session).or_default();
        for &id in ids {
            if !list.contains(&id) {
                list.push(id);
            }
        }
    }

    /// Total capacity in tiles.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// The sessions currently holding resident tile `id`, or `None`
    /// when the tile is not resident. Diagnostic accessor (takes one
    /// shard lock); `fc-check`'s model suites use it to assert the
    /// holders/hold-index consistency invariant under every explored
    /// interleaving.
    // fc-check: allow(unreferenced-pub) -- fixture shared across crates: fc-check's model_cache suite reads the holders through it
    pub fn holders_of(&self, id: TileId) -> Option<Vec<SessionId>> {
        self.shards[self.shard_of(id)]
            .lock()
            .tiles
            .get(&id)
            .map(|r| r.holders.clone())
    }

    /// `session`'s hold-index entry (the tile ids the reverse index
    /// believes it holds), or `None` when absent. Diagnostic accessor
    /// for the model suites (takes one stripe lock).
    // fc-check: allow(unreferenced-pub) -- fixture shared across crates: fc-check's model_cache suite reads the hold index through it
    pub fn hold_index_of(&self, session: SessionId) -> Option<Vec<TileId>> {
        self.holds[self.hold_stripe_of(session)]
            .lock()
            .get(&session)
            .cloned()
    }
}

impl MultiUserCache for SharedTileCache {
    fn open_session(&self) -> SessionId {
        self.registry.open()
    }

    fn close_session(&self, id: SessionId) {
        if !self.registry.close(id) {
            return;
        }
        // The hold index covers every resident this session holds (see
        // the type-level invariant), so only those shards are touched.
        let list = self.holds[self.hold_stripe_of(id)].lock().remove(&id);
        if let Some(list) = list {
            for t in list {
                let mut g = self.shards[self.shard_of(t)].lock();
                if let Some(r) = g.tiles.get_mut(&t) {
                    r.holders.retain(|&h| h != id);
                }
            }
        }
    }

    fn session_count(&self) -> usize {
        self.registry.count()
    }

    fn session_budget(&self) -> usize {
        // Global repartitioning: capacity and session count are global,
        // so shard layout never changes any session's allowance.
        (self.capacity.load(Ordering::Relaxed) / self.registry.count().max(1)).max(1)
    }

    fn lookup(&self, session: SessionId, id: TileId) -> Option<Arc<Tile>> {
        let found = self.shards[self.shard_of(id)].lock().lookup(session, id);
        match found {
            Some((tile, foreign, holder_added)) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                if holder_added {
                    // Shard guard already dropped (lock order).
                    self.push_holds(session, &[id]);
                }
                if foreign {
                    self.stats
                        .cross_session_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                Some(tile)
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn contains(&self, id: TileId) -> bool {
        self.shards[self.shard_of(id)]
            .lock()
            .tiles
            .contains_key(&id)
    }

    fn peek(&self, id: TileId) -> Option<Arc<Tile>> {
        self.shards[self.shard_of(id)]
            .lock()
            .tiles
            .get(&id)
            .map(|r| r.tile.clone())
    }

    fn hold(&self, session: SessionId, ids: &[TileId]) {
        let mut held: Vec<TileId> = Vec::new();
        for &id in ids {
            let mut g = self.shards[self.shard_of(id)].lock();
            if g.hold_one(session, id) {
                held.push(id);
            }
        }
        // Hold-index pushes after every shard guard has dropped (lock
        // order: never a stripe lock under a shard lock).
        self.push_holds(session, &held);
    }

    fn install(&self, session: SessionId, tiles: Vec<Arc<Tile>>) -> usize {
        let budget = self.session_budget();
        // Group the batch by shard, preserving input order within each
        // shard, then run the reference install+evict sequence per
        // shard — so each shard's trace is exactly what the single-lock
        // cache would do over that shard's sub-batch.
        let assigned: Vec<(usize, Arc<Tile>)> = tiles
            .into_iter()
            .take(budget)
            .map(|t| (self.shard_of(t.id), t))
            .collect();
        let mut installed = 0usize;
        let mut evicted = 0usize;
        let mut held: Vec<TileId> = Vec::with_capacity(assigned.len());
        for s in 0..self.shards.len() {
            if !assigned.iter().any(|&(sh, _)| sh == s) {
                continue;
            }
            let mut g = self.shards[s].lock();
            for (_, tile) in assigned.iter().filter(|&&(sh, _)| sh == s) {
                let id = tile.id;
                let (new_resident, holder_added) = g.install_one(session, tile.clone());
                if new_resident {
                    installed += 1;
                }
                if holder_added {
                    held.push(id);
                }
            }
            evicted += g.evict_to(self.shard_caps[s].load(Ordering::Relaxed));
        }
        // Hold pushes after every shard guard has dropped (lock order).
        self.push_holds(session, &held);
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        installed
    }

    fn retain_for(&self, session: SessionId, keep: &[TileId]) {
        // Split the session's hold list into kept and released ids
        // under the stripe lock alone; only the owning session mutates
        // its list, so dropping the stripe lock before touching shards
        // races with nobody. Ids evicted while still kept linger
        // (bounded by the keep-set size) until a later rebuild.
        let released: Vec<TileId> = {
            let mut g = self.holds[self.hold_stripe_of(session)].lock();
            let Some(list) = g.get_mut(&session) else {
                return;
            };
            let mut released = Vec::new();
            list.retain(|&id| {
                let kept = keep.contains(&id);
                if !kept {
                    released.push(id);
                }
                kept
            });
            if list.is_empty() {
                g.remove(&session);
            }
            released
        };
        // Only the shards holding released ids are locked.
        for id in released {
            let mut g = self.shards[self.shard_of(id)].lock();
            if let Some(r) = g.tiles.get_mut(&id) {
                r.holders.retain(|&h| h != session);
            }
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().tiles.len()).sum()
    }

    fn stats(&self) -> SharedCacheStats {
        self.stats.snapshot()
    }

    fn popular(&self, n: usize) -> Vec<(TileId, u64)> {
        let mut v: Vec<(TileId, u64)> = Vec::new();
        for shard in self.shards.iter() {
            let g = shard.lock();
            v.extend(g.tiles.iter().map(|(&id, r)| (id, r.popularity)));
        }
        v.sort_by(rank_by_count_desc);
        v.truncate(n);
        v
    }

    fn hot(&self, n: usize) -> Vec<(TileId, u64)> {
        // Each id lives on exactly one shard's sketch, so the merge is
        // a plain concatenation (non-atomic snapshot, like `popular`),
        // and the global top-n is a subset of the union of per-shard
        // top-n (same ordering) — so each shard only surrenders its
        // own head, keeping the refresh-path merge at shards × n
        // entries instead of every sketch in full.
        let mut v: Vec<(TileId, u64)> = Vec::new();
        for shard in self.shards.iter() {
            v.extend(shard.lock().sketch.top(n));
        }
        v.sort_by(rank_by_count_desc);
        v.truncate(n);
        v
    }

    fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    fn set_capacity(&self, capacity: usize) {
        assert!(
            capacity >= self.shards.len(),
            "capacity {capacity} must cover all {} shards",
            self.shards.len()
        );
        // Same exact partition as construction; each shard's new cap
        // is published before that shard is evicted down, one shard at
        // a time — installs racing a shrink are bounded by whichever
        // cap they read, and the global invariant (Σ shard residents ≤
        // capacity) holds once the sweep completes.
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut evicted = 0usize;
        for (i, cap) in exact_partition(capacity, self.shards.len()).enumerate() {
            self.shard_caps[i].store(cap, Ordering::Relaxed);
            evicted += self.shards[i].lock().evict_to(cap);
        }
        if evicted > 0 {
            self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// SharedHotspotModel — the cross-session popularity model
// ---------------------------------------------------------------------

/// Cadence and width of a namespace's [`SharedHotspotModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotspotConfig {
    /// Hotspots kept per snapshot (the top-N of the sketch).
    pub top_n: usize,
    /// Requests between snapshot refreshes (each session's request
    /// ticks the model once; see [`SharedHotspotModel::observe`]).
    pub refresh_every: u64,
}

impl Default for HotspotConfig {
    fn default() -> Self {
        Self {
            top_n: 16,
            refresh_every: 64,
        }
    }
}

/// One epoch-stamped publication of a namespace's top hotspots, best
/// first (tile, decayed request count). Sessions hold it through an
/// `Arc`, so a snapshot stays valid however long a predict uses it —
/// the model never mutates a published snapshot, it swaps in a new one
/// under the next epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotspotSnapshot {
    /// Monotonic publication stamp (0 = the empty pre-first snapshot).
    pub epoch: u64,
    /// The hotspots, most requested first.
    pub hotspots: Vec<(TileId, u64)>,
}

/// The cross-session hotspot model of one cache namespace: it
/// periodically snapshots the eviction-surviving popularity sketch
/// ([`MultiUserCache::hot`]) into an epoch-stamped [`HotspotSnapshot`].
///
/// **Readers are lock-free in steady state**: a session keeps a
/// [`HotspotView`] whose `current` does one atomic epoch load per
/// predict and only touches the snapshot mutex when the model has
/// published a new epoch (every [`HotspotConfig::refresh_every`]
/// requests). Writers (refresh) swap the `Arc` under a mutex that is
/// uncontended at that cadence. The model takes **no cache lock order
/// obligations**: `refresh` calls `hot()`, which locks tile shards one
/// at a time and never touches hold stripes.
#[derive(Debug)]
pub struct SharedHotspotModel {
    cfg: HotspotConfig,
    /// Requests observed (drives the refresh cadence).
    ticks: AtomicU64,
    /// Epoch of the current snapshot; readers compare against their
    /// cached copy before taking the mutex.
    epoch: AtomicU64,
    snap: Mutex<Arc<HotspotSnapshot>>,
}

impl SharedHotspotModel {
    /// Creates a model publishing `cfg.top_n` hotspots every
    /// `cfg.refresh_every` observed requests.
    ///
    /// # Panics
    /// Panics when `refresh_every` is 0.
    pub fn new(cfg: HotspotConfig) -> Self {
        assert!(cfg.refresh_every > 0, "hotspot refresh cadence must be > 0");
        Self {
            cfg,
            ticks: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            snap: Mutex::new(Arc::new(HotspotSnapshot::default())),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> HotspotConfig {
        self.cfg
    }

    /// Epoch of the current snapshot (one atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot (cheap `Arc` clone under the snapshot
    /// mutex; sessions should go through a [`HotspotView`] instead so
    /// steady state skips the lock).
    pub fn snapshot(&self) -> Arc<HotspotSnapshot> {
        self.snap.lock().clone()
    }

    /// Counts one request against the refresh cadence; every
    /// `refresh_every`-th call rebuilds the snapshot from `cache`'s
    /// sketch. Call once per served request (any session).
    pub fn observe(&self, cache: &dyn MultiUserCache) {
        let t = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        if t.is_multiple_of(self.cfg.refresh_every) {
            self.refresh(cache);
        }
    }

    /// Forces a snapshot rebuild from `cache`'s popularity sketch and
    /// publishes it under the next epoch.
    pub fn refresh(&self, cache: &dyn MultiUserCache) {
        let hotspots = cache.hot(self.cfg.top_n);
        let mut g = self.snap.lock();
        // Epoch advances under the snapshot mutex so a view can never
        // pair a new epoch with a stale snapshot.
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        *g = Arc::new(HotspotSnapshot { epoch, hotspots });
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A session's cached read handle on a [`SharedHotspotModel`]: steady
/// state costs one atomic epoch compare; the snapshot mutex is taken
/// only on publication boundaries.
#[derive(Debug, Clone, Default)]
pub struct HotspotView {
    cached: Arc<HotspotSnapshot>,
}

impl HotspotView {
    /// The freshest snapshot, refreshing the cached `Arc` only when
    /// `model` has published a new epoch.
    pub fn current(&mut self, model: &SharedHotspotModel) -> &Arc<HotspotSnapshot> {
        if self.cached.epoch != model.epoch() {
            self.cached = model.snapshot();
        }
        &self.cached
    }
}

// ---------------------------------------------------------------------
// DatasetRegistry — per-dataset cache namespaces under one budget
// ---------------------------------------------------------------------

/// Configuration of a [`DatasetRegistry`].
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Global tile budget, partitioned exactly across attached
    /// namespaces (attach order; first `budget % n` namespaces get one
    /// extra slot — the shard partition math, one level up).
    pub budget: usize,
    /// Shard count per namespace cache (power of two; 0 picks the
    /// default striping for the namespace's initial capacity).
    pub shards: usize,
    /// Hotspot-model cadence for every namespace.
    pub hotspots: HotspotConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            budget: 4096,
            shards: 0,
            hotspots: HotspotConfig::default(),
        }
    }
}

/// One dataset's slot in a [`DatasetRegistry`]: its cache namespace
/// plus the hotspot model trained from that namespace's sketch.
#[derive(Debug)]
pub struct DatasetNamespace {
    name: String,
    cache: Arc<SharedTileCache>,
    hotspots: Arc<SharedHotspotModel>,
}

impl DatasetNamespace {
    /// The dataset name this namespace serves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The namespace's tile cache (its capacity is managed by the
    /// registry's repartitioning; don't `set_capacity` it directly).
    pub fn cache(&self) -> &Arc<SharedTileCache> {
        &self.cache
    }

    /// The namespace's cross-session hotspot model.
    pub fn hotspots(&self) -> &Arc<SharedHotspotModel> {
        &self.hotspots
    }
}

/// Partitions one global tile budget across per-dataset
/// [`SharedTileCache`] namespaces: attaching a dataset opens a
/// namespace, shrinking every other namespace's capacity. The
/// per-namespace split reuses the exact base-plus-remainder partition
/// the shard split uses, keyed by attach order, so Σ namespace
/// capacities == `budget` at all times.
#[derive(Debug)]
pub struct DatasetRegistry {
    cfg: RegistryConfig,
    /// Attached namespaces in attach order (the partition key).
    namespaces: Mutex<Vec<Arc<DatasetNamespace>>>,
}

impl DatasetRegistry {
    /// Creates an empty registry with `cfg.budget` tiles to hand out.
    ///
    /// # Panics
    /// Panics when the budget is 0.
    pub fn new(cfg: RegistryConfig) -> Self {
        assert!(cfg.budget > 0, "dataset registry needs a tile budget");
        Self {
            cfg,
            namespaces: Mutex::new(Vec::new()),
        }
    }

    /// The global tile budget.
    pub fn budget(&self) -> usize {
        self.cfg.budget
    }

    /// Number of attached namespaces.
    pub fn len(&self) -> usize {
        self.namespaces.lock().len()
    }

    /// Whether no dataset is attached.
    pub fn is_empty(&self) -> bool {
        self.namespaces.lock().is_empty()
    }

    /// Attached dataset names, in attach order.
    pub fn names(&self) -> Vec<String> {
        self.namespaces
            .lock()
            .iter()
            .map(|ns| ns.name.clone())
            .collect()
    }

    /// The namespace serving `name`, if attached.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetNamespace>> {
        self.namespaces
            .lock()
            .iter()
            .find(|ns| ns.name == name)
            .cloned()
    }

    /// Opens (or returns the existing) namespace for `name`,
    /// repartitioning every attached namespace's capacity over the
    /// global budget. A namespace's shard count is fixed at attach
    /// time (from its attach-time slice, for dynamic `shards: 0`
    /// configurations): live caches cannot reshard, so a later attach
    /// that would shrink any namespace below its shard count is
    /// rejected *before* anything mutates.
    ///
    /// # Panics
    /// Panics when the post-attach partition cannot cover every
    /// namespace's shard count (attach fewer datasets, or grow the
    /// budget). The registry is left exactly as it was — the
    /// Σ-capacities-==-budget invariant holds across the unwind.
    pub fn attach(&self, name: &str) -> Arc<DatasetNamespace> {
        let mut g = self.namespaces.lock();
        if let Some(ns) = g.iter().find(|ns| ns.name == name) {
            return ns.clone();
        }
        // Validate the whole post-attach partition before touching
        // anything: the new namespace takes the last attach-order
        // slot.
        let caps: Vec<usize> = exact_partition(self.cfg.budget, g.len() + 1).collect();
        let new_cap = *caps.last().expect("at least one slot");
        let new_shards = if self.cfg.shards == 0 {
            default_shard_count(new_cap)
        } else {
            self.cfg.shards
        };
        for (i, ns) in g.iter().enumerate() {
            assert!(
                caps[i] >= ns.cache.shard_count(),
                "budget {} over {} namespaces would leave '{}' with {} tiles \
                 for {} shards — grow the budget or attach fewer datasets",
                self.cfg.budget,
                g.len() + 1,
                ns.name,
                caps[i],
                ns.cache.shard_count()
            );
        }
        assert!(
            new_cap >= new_shards && new_cap > 0,
            "budget {} over {} namespaces leaves only {new_cap} tiles for new \
             namespace '{name}' ({new_shards} shards) — grow the budget or \
             attach fewer datasets",
            self.cfg.budget,
            g.len() + 1,
        );
        let cache = Arc::new(if self.cfg.shards == 0 {
            SharedTileCache::new(new_cap)
        } else {
            SharedTileCache::with_shards(new_cap, self.cfg.shards)
        });
        let ns = Arc::new(DatasetNamespace {
            name: name.to_string(),
            cache,
            hotspots: Arc::new(SharedHotspotModel::new(self.cfg.hotspots)),
        });
        g.push(ns.clone());
        Self::repartition(self.cfg.budget, &g);
        ns
    }

    /// Applies the exact partition of `budget` over the attached
    /// namespaces (attach order).
    fn repartition(budget: usize, namespaces: &[Arc<DatasetNamespace>]) {
        if namespaces.is_empty() {
            return;
        }
        for (ns, cap) in namespaces
            .iter()
            .zip(exact_partition(budget, namespaces.len()))
        {
            assert!(
                cap >= ns.cache.shard_count(),
                "budget {budget} over {} namespaces leaves '{}' with {cap} tiles \
                 for {} shards — grow the budget or attach fewer datasets",
                namespaces.len(),
                ns.name,
                ns.cache.shard_count()
            );
            MultiUserCache::set_capacity(ns.cache.as_ref(), cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_array::{DenseArray, Schema};

    fn tile(id: TileId) -> Arc<Tile> {
        Arc::new(Tile::new(
            id,
            DenseArray::filled(Schema::grid2d("T", 2, 2, &["v"]).unwrap(), 1.0),
        ))
    }

    fn tid(x: u32) -> TileId {
        TileId::new(2, 0, x)
    }

    /// Both implementations under one suite: every behavioural test
    /// runs against the reference and the sharded cache.
    fn caches(capacity: usize) -> Vec<Box<dyn MultiUserCache>> {
        vec![
            Box::new(SingleMutexTileCache::new(capacity)),
            Box::new(SharedTileCache::with_shards(capacity, 1)),
        ]
    }

    #[test]
    fn budget_splits_across_sessions() {
        for c in caches(12) {
            let a = c.open_session();
            assert_eq!(c.session_budget(), 12);
            let b = c.open_session();
            assert_eq!(c.session_budget(), 6);
            let d = c.open_session();
            assert_eq!(c.session_budget(), 4);
            c.close_session(b);
            assert_eq!(c.session_budget(), 6);
            let _ = (a, d);
        }
    }

    #[test]
    fn cross_session_sharing_counts() {
        for c in caches(8) {
            let a = c.open_session();
            let b = c.open_session();
            c.install(a, vec![tile(tid(1))]);
            // Session b hits the tile session a brought in.
            assert!(c.lookup(b, tid(1)).is_some());
            let s = c.stats();
            assert_eq!(s.hits, 1);
            assert_eq!(s.cross_session_hits, 1);
            // Session a hitting its own tile is not a cross hit.
            assert!(c.lookup(a, tid(1)).is_some());
            assert_eq!(c.stats().cross_session_hits, 1);
        }
    }

    #[test]
    fn eviction_prefers_unheld_unpopular_tiles() {
        for c in caches(2) {
            let a = c.open_session();
            c.install(a, vec![tile(tid(1))]);
            c.install(a, vec![tile(tid(2))]);
            // Popularize tile 1.
            for _ in 0..3 {
                c.lookup(a, tid(1));
            }
            // Release holds on tile 2 only.
            c.retain_for(a, &[tid(1)]);
            c.install(a, vec![tile(tid(3))]);
            assert!(c.lookup(a, tid(1)).is_some(), "popular tile survives");
            assert!(c.lookup(a, tid(2)).is_none(), "unheld unpopular evicted");
            assert!(c.lookup(a, tid(3)).is_some());
            assert_eq!(c.stats().evictions, 1);
        }
    }

    #[test]
    fn install_respects_session_budget() {
        for c in caches(4) {
            let a = c.open_session();
            let _b = c.open_session(); // budget now 2 per session
            let installed = c.install(a, (0..4).map(|x| tile(tid(x))).collect());
            assert_eq!(installed, 2);
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn popular_ranks_by_request_count() {
        for c in caches(8) {
            let a = c.open_session();
            c.install(a, vec![tile(tid(1)), tile(tid(2))]);
            for _ in 0..5 {
                c.lookup(a, tid(2));
            }
            c.lookup(a, tid(1));
            let top = c.popular(2);
            assert_eq!(top[0].0, tid(2));
            assert!(top[0].1 > top[1].1);
        }
    }

    #[test]
    fn close_session_releases_holds() {
        for c in caches(1) {
            let a = c.open_session();
            c.install(a, vec![tile(tid(1))]);
            c.close_session(a);
            // New session can displace the old session's tile.
            let b = c.open_session();
            c.install(b, vec![tile(tid(9))]);
            assert!(c.lookup(b, tid(9)).is_some());
            assert!(c.lookup(b, tid(1)).is_none());
        }
    }

    #[test]
    fn hold_protects_already_resident_tiles() {
        for c in caches(2) {
            let a = c.open_session();
            let b = c.open_session();
            // Budget is 1/session at capacity 2; a installs one tile.
            c.install(a, vec![tile(tid(1))]);
            // b rides a's prefetch: holds it without installing.
            c.hold(b, &[tid(1), tid(42)]); // non-resident id is a no-op
                                           // a moves on and releases everything; tid(1) now survives
                                           // on b's hold alone.
            c.retain_for(a, &[]);
            c.install(b, vec![tile(tid(2))]);
            // b re-partitions its holds to {tid(1)}: tid(2) is unheld.
            c.retain_for(b, &[tid(1)]);
            c.install(b, vec![tile(tid(3))]);
            assert!(c.contains(tid(1)), "held tile survives eviction");
            assert!(!c.contains(tid(2)), "unheld tile was the victim");
            assert!(c.contains(tid(3)));
            // hold() itself never counts stats.
            assert_eq!(c.stats().hits + c.stats().misses, 0);
        }
    }

    #[test]
    fn contains_does_not_touch_stats() {
        for c in caches(4) {
            let a = c.open_session();
            c.install(a, vec![tile(tid(1))]);
            assert!(c.contains(tid(1)));
            assert!(!c.contains(tid(2)));
            assert_eq!(c.stats(), SharedCacheStats::default());
        }
    }

    #[test]
    fn shard_partition_is_exact_and_masked() {
        let c = SharedTileCache::with_shards(13, 4);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(
            c.shard_caps
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .sum::<usize>(),
            13
        );
        // Hash-derived shard indexes stay in range and are stable.
        for x in 0..100 {
            let id = TileId::new(3, x % 7, x);
            let s = c.shard_of(id);
            assert!(s < 4);
            assert_eq!(s, c.shard_of(id));
        }
    }

    #[test]
    fn default_shards_clamp_to_capacity() {
        let small = SharedTileCache::new(3);
        assert_eq!(small.shard_count(), 2);
        assert_eq!(small.capacity(), 3);
        let big = SharedTileCache::new(1024);
        assert_eq!(big.shard_count(), DEFAULT_SHARDS);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_panic() {
        let _ = SharedTileCache::with_shards(12, 3);
    }

    #[test]
    fn sharded_capacity_never_exceeded_across_shards() {
        let c = SharedTileCache::with_shards(8, 4);
        let a = c.open_session();
        // Install far more distinct tiles than capacity, in waves.
        for wave in 0..10u32 {
            let tiles: Vec<_> = (0..8u32)
                .map(|x| tile(TileId::new(2, wave % 4, x)))
                .collect();
            c.install(a, tiles);
            assert!(c.len() <= 8, "wave {wave}: {} resident", c.len());
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn debug_is_non_blocking_while_a_shard_is_held() {
        let c = SharedTileCache::with_shards(8, 2);
        let a = c.open_session();
        c.install(a, vec![tile(tid(1))]);
        let g = c.shards[0].lock();
        let s = format!("{c:?}");
        assert!(s.contains("<locked>"), "{s}");
        drop(g);
        let s = format!("{c:?}");
        assert!(!s.contains("<locked>"), "{s}");

        let r = SingleMutexTileCache::new(8);
        let held = r.inner.lock();
        let s = format!("{r:?}");
        assert!(s.contains("<locked>"), "{s}");
        drop(held);
        assert!(!format!("{r:?}").contains("<locked>"));
    }

    #[test]
    fn hot_survives_eviction_unlike_popular() {
        for c in caches(2) {
            let a = c.open_session();
            c.install(a, vec![tile(tid(1))]);
            for _ in 0..4 {
                c.lookup(a, tid(1));
            }
            // Release the hold, then displace tid(1) with two fresh
            // tiles (capacity 2; eviction prefers the unheld tile).
            c.retain_for(a, &[]);
            c.install(a, vec![tile(tid(2)), tile(tid(3))]);
            assert!(!c.contains(tid(1)), "tid(1) must have been evicted");
            assert!(
                !c.popular(10).iter().any(|&(t, _)| t == tid(1)),
                "popular() forgets evicted tiles"
            );
            let hot = c.hot(10);
            assert_eq!(hot[0].0, tid(1), "sketch remembers the evicted tile");
            assert_eq!(hot[0].1, 5, "1 install + 4 lookups");
            // Requests for non-resident tiles count as demand too.
            c.lookup(a, tid(1));
            assert_eq!(c.hot(1)[0].1, 6);
        }
    }

    #[test]
    fn sketch_ranking_is_sorted_and_truncated() {
        for c in caches(8) {
            let a = c.open_session();
            c.install(a, (0..4).map(|x| tile(tid(x))).collect());
            for x in 0..4u32 {
                for _ in 0..x {
                    c.lookup(a, tid(x));
                }
            }
            let hot = c.hot(3);
            assert_eq!(hot.len(), 3);
            for w in hot.windows(2) {
                assert!(w[0].1 >= w[1].1, "counts non-increasing: {hot:?}");
            }
            assert_eq!(hot[0].0, tid(3));
        }
    }

    #[test]
    fn set_capacity_repartitions_and_evicts() {
        for c in caches(8) {
            let a = c.open_session();
            c.install(a, (0..8).map(|x| tile(tid(x))).collect());
            assert_eq!(c.len(), 8);
            c.retain_for(a, &[]);
            c.set_capacity(4);
            assert_eq!(c.capacity(), 4);
            assert!(c.len() <= 4, "shrink evicts down: {}", c.len());
            assert!(c.stats().evictions >= 4);
            c.set_capacity(8);
            assert_eq!(c.capacity(), 8);
            assert_eq!(c.session_budget(), 8, "budget follows the new capacity");
        }
    }

    #[test]
    #[should_panic(expected = "cover all")]
    fn set_capacity_below_shard_count_panics() {
        let c = SharedTileCache::with_shards(16, 4);
        MultiUserCache::set_capacity(&c, 2);
    }

    /// Per-namespace capacities, in attach order.
    fn capacities(r: &DatasetRegistry) -> Vec<usize> {
        r.names()
            .iter()
            .map(|n| r.get(n).unwrap().cache().capacity())
            .collect()
    }

    #[test]
    fn registry_partitions_budget_exactly_across_namespaces() {
        let r = DatasetRegistry::new(RegistryConfig {
            budget: 10,
            shards: 1,
            hotspots: HotspotConfig::default(),
        });
        assert!(r.is_empty());
        let a = r.attach("a");
        assert_eq!(a.cache().capacity(), 10, "sole namespace owns the budget");
        let b = r.attach("b");
        assert_eq!(a.cache().capacity(), 5);
        assert_eq!(b.cache().capacity(), 5);
        let _c = r.attach("c");
        let caps = capacities(&r);
        assert_eq!(caps, vec![4, 3, 3], "attach order gets the remainder");
        assert_eq!(caps.iter().sum::<usize>(), 10, "exact partition");
        // Attach is idempotent: same namespace back, no repartition.
        assert!(Arc::ptr_eq(&a, &r.attach("a")));
        assert_eq!(r.len(), 3);
        assert_eq!(r.names(), vec!["a", "b", "c"]);
        assert!(r.get("d").is_none());
        assert_eq!(r.get("a").unwrap().name(), "a");
    }

    #[test]
    fn rejected_attach_leaves_the_registry_untouched() {
        // budget 60 with dynamic shards: the first namespace is built
        // for its 60-tile slice (16 shards), so a fourth attach (15
        // tiles each) cannot cover it. The attach must panic *without*
        // mutating: still 3 namespaces, capacities still summing to
        // the budget.
        let r = DatasetRegistry::new(RegistryConfig {
            budget: 60,
            shards: 0,
            hotspots: HotspotConfig::default(),
        });
        for name in ["a", "b", "c"] {
            r.attach(name);
        }
        assert_eq!(
            capacities(&r).iter().sum::<usize>(),
            60,
            "exact partition before the rejected attach"
        );
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.attach("d"))).is_err();
        assert!(panicked, "a slice below the shard count must be rejected");
        assert_eq!(r.len(), 3, "rejected namespace must not be attached");
        assert!(r.get("d").is_none());
        assert_eq!(
            capacities(&r).iter().sum::<usize>(),
            60,
            "budget invariant survives the unwind"
        );
    }

    #[test]
    fn registry_shrink_evicts_down_attached_namespaces() {
        let r = DatasetRegistry::new(RegistryConfig {
            budget: 8,
            shards: 1,
            hotspots: HotspotConfig::default(),
        });
        let a = r.attach("a");
        let s = a.cache().open_session();
        a.cache().install(s, (0..8).map(|x| tile(tid(x))).collect());
        a.cache().retain_for(s, &[]);
        assert_eq!(a.cache().len(), 8);
        // A second dataset halves a's slice; a evicts down to it.
        let b = r.attach("b");
        assert_eq!(a.cache().capacity(), 4);
        assert!(a.cache().len() <= 4);
        assert_eq!(b.cache().capacity(), 4);
    }

    #[test]
    fn hotspot_model_publishes_epoch_stamped_sketch_snapshots() {
        let c = SharedTileCache::with_shards(4, 1);
        let m = SharedHotspotModel::new(HotspotConfig {
            top_n: 2,
            refresh_every: 3,
        });
        let s = c.open_session();
        c.install(s, vec![tile(tid(1))]);
        for _ in 0..5 {
            c.lookup(s, tid(1));
        }
        let mut view = HotspotView::default();
        assert_eq!(view.current(&m).epoch, 0);
        assert!(view.current(&m).hotspots.is_empty(), "pre-first snapshot");
        m.observe(&c);
        m.observe(&c);
        assert_eq!(m.epoch(), 0, "below the cadence: no publication yet");
        m.observe(&c);
        assert_eq!(m.epoch(), 1, "third observe publishes");
        let snap = view.current(&m).clone();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.hotspots[0].0, tid(1));
        // Same epoch → the view hands back its cached Arc (steady
        // state takes no lock).
        assert!(Arc::ptr_eq(&snap, view.current(&m)));
        m.refresh(&c);
        assert_eq!(view.current(&m).epoch, 2);
    }
}
