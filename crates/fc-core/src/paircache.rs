//! The epoch-stamped χ² pair-distance cache — the steady-state predict
//! accelerator.
//!
//! # Why this exists
//!
//! The frozen [`SignatureIndex`] removed every lock and copy from the SB
//! predict path, leaving IEEE-exact per-bin χ² divisions as the whole
//! cost (~56 µs at 4 sigs × 64 candidates × 16 ROI; see
//! `BENCH_predict.json`). But consecutive interactive requests — pan by
//! one tile, zoom by one level — share the vast majority of their
//! (candidate, ROI) pairs, and χ² is symmetric in its arguments. The
//! [`PairCache`] memoizes **penalty-free** χ² values keyed by the
//! index's dense tile pairs, so the warm steady state probes instead of
//! dividing: only the miss frontier (the pairs a pan step newly
//! exposes) runs the χ² kernel.
//!
//! # What a slot holds
//!
//! One slot covers one unordered dense pair `{a, b}` (symmetric
//! storage: `d(a,b)` and `d(b,a)` share the slot — χ² is bitwise
//! symmetric, since `(x−y)²` and `(y−x)²` are the same IEEE product).
//! It carries the **raw** χ² value per signature plus the pair's
//! geometry primitives (Manhattan distance and the floored Euclidean
//! denominator). Algorithm 3's Manhattan/physical penalties are applied
//! *outside* the cached χ² values by the fill in `sb.rs`, so cached
//! entries are position-pure and stay valid across
//! [`crate::sb::SbConfig`] penalty-flag changes; the geometry
//! primitives ride along because they too are pure functions of the
//! dense pair and their recomputation (projection + `sqrt` per pair)
//! would otherwise bound the warm-path latency.
//!
//! # Invalidation: epochs and generation stamps
//!
//! The cache is valid for exactly one *domain*: a
//! `(SignatureIndex::build_id, signature key set)` pair.
//! Each [`PairCache::begin`] compares the requested domain against the
//! current one; any difference — a metadata epoch bump rebuilt the
//! index, the recommender's key set changed —
//! bumps the cache **generation** instead of clearing the table. Every
//! slot is stamped with the generation that wrote it, and a probe only
//! trusts a slot whose stamp matches: invalidation is O(1) with no
//! clearing pass, exactly like the store's metadata epoch.
//!
//! Within one generation slots only ever transition stale → live, and
//! inserts always fill the *first* stale (or matching) slot of a key's
//! probe window. A probe can therefore stop at the first stale slot it
//! meets — the key cannot live past it — which makes misses on a cold
//! cache nearly free (one load).
//!
//! # Sharing
//!
//! [`crate::engine::PredictionEngine`] owns one cache per session next
//! to its `PredictScratch`; [`crate::batch::PredictScheduler`] owns one
//! cache *shared by every session of a dataset*, so session B hits the
//! pairs session A computed — the multi-user analogue of §6.2's shared
//! tile cache, applied to prediction arithmetic.
//!
//! [`SignatureIndex`]: fc_tiles::SignatureIndex

use fc_tiles::{MetaKey, SignatureIndex};

/// Most signatures a slot can hold inline. Configurations with more
/// weighted signatures than this run with the cache disabled (the
/// paper's SB recommender uses exactly four).
pub const MAX_CACHED_SIGS: usize = 4;

/// Linear-probe window; beyond it an insert evicts the home slot.
/// Must exceed the run length the additive [`home_slot`] mapping
/// produces (one consecutive slot per ROI tile of a candidate, ≤ 16 at
/// the interactive shape): when two candidates' runs land adjacent,
/// displaced keys must still be reachable past the neighbour's run,
/// or they would be evicted and re-missed on every request.
const PROBE_WINDOW: usize = 24;

/// Bits per dense index in a packed pair key (two indices + headroom
/// must fit 64 bits). Indexes ≥ 2⁲⁸ disable the cache.
const DENSE_BITS: u32 = 28;

/// The SplitMix64 finalizer: a stateless, deterministic mix whose low
/// bits are well distributed, so power-of-two masks spread dense key
/// ranges evenly. Shared by the pair cache and the multi-user cache's
/// shard/stripe assignment.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Monotonic cache counters (see [`PairCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairCacheStats {
    /// Pair probes answered from the cache.
    pub hits: u64,
    /// Pair probes that fell through to the χ² kernel.
    pub misses: u64,
    /// Domain changes (index rebuild / key-set switch) that bumped the
    /// generation.
    pub invalidations: u64,
}

impl PairCacheStats {
    /// The counter deltas accumulated since `earlier` (saturating, so a
    /// snapshot from a recreated cache never underflows).
    pub fn since(self, earlier: Self) -> Self {
        Self {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            invalidations: self.invalidations.saturating_sub(earlier.invalidations),
        }
    }

    /// Hit fraction in `[0, 1]`; zero when no probes happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached pair: raw per-signature χ² plus the pair geometry. 64
/// bytes, 64-byte aligned — exactly one cache line per probe (without
/// the alignment, half the slots would straddle two lines).
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
pub(crate) struct Slot {
    /// Packed unordered dense pair (`pair_key`).
    key: u64,
    /// Generation that wrote this slot; stale unless it matches the
    /// cache's current generation.
    gen: u64,
    /// Manhattan distance between the pair's projected tile centres.
    pub(crate) dmanh: u32,
    /// Raw (penalty-free, unnormalized) χ² per signature, in the
    /// recommender's key order; entries past the domain's signature
    /// count are unspecified.
    pub(crate) vals: [f64; MAX_CACHED_SIGS],
    /// `dphysical`: floored Euclidean distance between projected tile
    /// centres (already `.max(1.0)`-ed, bit-exact as computed).
    pub(crate) denom: f64,
}

const EMPTY_SLOT: Slot = Slot {
    key: 0,
    gen: 0,
    dmanh: 0,
    vals: [0.0; MAX_CACHED_SIGS],
    denom: 1.0,
};

/// Packs an unordered dense pair into one key. Both indices must be
/// `< 2^DENSE_BITS` (guaranteed by [`PairCache::begin`]'s size gate).
#[inline]
pub(crate) fn pair_key(a: usize, b: usize) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    pair_key_ordered(lo, hi)
}

/// [`pair_key`] when the caller already knows `lo ≤ hi`.
#[inline]
pub(crate) fn pair_key_ordered(lo: usize, hi: usize) -> u64 {
    debug_assert!(lo <= hi);
    ((lo as u64) << DENSE_BITS) | hi as u64
}

/// The hashed half of a pair's home slot for a fixed `hi` index. A
/// fill scoring one candidate (the `hi` half in the common steady
/// state) against many ROI tiles computes this **once per candidate**
/// and derives each pair's slot by adding `lo` — see
/// [`PairCache::probe_from`].
#[inline]
pub(crate) fn slot_base(hi: usize) -> u64 {
    splitmix64(hi as u64)
}

/// Home slot for a key: `splitmix64(hi) + lo`. The `hi` half is hashed
/// (spreading load across the table) while the `lo` half offsets
/// *linearly*, so a fill iterating one candidate against consecutive
/// ROI dense indices probes **consecutive slots** — consecutive cache
/// lines the hardware prefetcher streams — instead of taking a DRAM
/// round-trip per probe. (ROI tiles sit at coarser levels than the
/// candidates in the common steady state, and coarser levels have
/// smaller dense indices, so the ROI index is the `lo` half.) Distinct
/// `lo` under one `hi` can never collide; only different `hi` hashes
/// can, as in a plain hashed table.
#[inline]
fn home_slot(key: u64, mask: usize) -> usize {
    let lo = (key >> DENSE_BITS) as usize;
    let hi = key & ((1u64 << DENSE_BITS) - 1);
    (splitmix64(hi) as usize).wrapping_add(lo) & mask
}

/// The epoch-stamped, symmetric χ² pair-distance cache. See the module
/// docs for semantics; see `sb.rs`'s cache-aware fill for the probe /
/// miss-frontier / write-back protocol.
#[derive(Debug, Clone)]
pub struct PairCache {
    slots: Vec<Slot>,
    mask: usize,
    /// Current generation; slots stamped otherwise are stale.
    gen: u64,
    /// Fingerprint of the domain the current generation serves
    /// (`None` until the first [`Self::begin`]).
    domain: Option<u64>,
    /// Whether probes/inserts are live for the current domain.
    enabled: bool,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl Default for PairCache {
    /// A zero-capacity (permanently disabled) cache.
    fn default() -> Self {
        Self::new(0)
    }
}

impl PairCache {
    /// Creates a cache with `capacity` slots (rounded up to a power of
    /// two; `0` builds a permanently disabled cache that misses every
    /// probe).
    pub fn new(capacity: usize) -> Self {
        let cap = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        Self {
            slots: vec![EMPTY_SLOT; cap],
            mask: cap.wrapping_sub(1),
            // Starts above every pre-initialized slot stamp, so the
            // fresh table reads as all-stale.
            gen: 1,
            domain: None,
            enabled: false,
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    /// A cache sized for steady-state prediction over `index`.
    pub fn for_index(index: &SignatureIndex) -> Self {
        let mut cache = Self::default();
        cache.fit(index);
        cache
    }

    /// Sizes the cache for steady-state prediction over `index` (see
    /// [`crate::signature::pair_cache_capacity_hint`]) — the one place
    /// a pair cache gets its capacity. A table that already has it is
    /// kept as it is: after an epoch bump [`Self::begin`] sees the new
    /// build id and invalidates by generation, with no clearing pass.
    /// Only a different capacity (the first call on a
    /// [`Default`] cache, or an index of another shape) allocates, and
    /// the new table starts with zeroed counters.
    pub fn fit(&mut self, index: &SignatureIndex) {
        let want = crate::signature::pair_cache_capacity_hint(index.keys().len(), index.ntiles());
        if self.capacity() != want {
            *self = Self::new(want);
        }
    }

    /// Slot count (a power of two, or zero when permanently disabled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PairCacheStats {
        PairCacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
        }
    }

    /// Declares the domain of the upcoming fill: the frozen index and
    /// the recommender's signature key set. Any change from the
    /// previous domain bumps the generation — an O(1) invalidation
    /// with no clearing pass. Returns whether the cache is usable for
    /// this domain (non-zero capacity, ≤ [`MAX_CACHED_SIGS`]
    /// signatures, dense indices packable); when it is not, the cache
    /// is *disabled* until the next `begin`: probes miss, inserts and
    /// the hit/miss counters are no-ops, and the fill computes every
    /// pair.
    pub fn begin(&mut self, index: &SignatureIndex, keys: &[MetaKey]) -> bool {
        let mut fp = splitmix64(index.build_id() ^ 0xC2B2_AE3D_27D4_EB4F);
        for k in keys {
            fp = splitmix64(fp ^ (u64::from(k.raw()) + 1));
        }
        if self.domain != Some(fp) {
            if self.domain.is_some() {
                self.invalidations += 1;
            }
            self.domain = Some(fp);
            self.gen += 1;
        }
        self.enabled = !self.slots.is_empty()
            && keys.len() <= MAX_CACHED_SIGS
            && index.ntiles() <= (1usize << DENSE_BITS);
        self.enabled
    }

    /// Looks up a pair in the current generation. `None` is a miss.
    /// Stats are **not** counted here — the fill batches its per-request
    /// hit/miss totals through [`Self::record`] to keep the probe loop
    /// store-free.
    #[inline]
    pub(crate) fn probe(&self, key: u64) -> Option<&Slot> {
        if !self.enabled {
            return None;
        }
        self.scan(home_slot(key, self.mask), key)
    }

    /// [`Self::probe`] with the home slot derived from a per-candidate
    /// [`slot_base`]: `(base + lo) & mask`, which equals
    /// `home_slot(key)` whenever `base == slot_base(hi)` for the
    /// `key = pair_key_ordered(lo, hi)` being probed (the caller
    /// guarantees that). Skips the per-pair hash on the steady path.
    #[inline]
    pub(crate) fn probe_from(&self, base: u64, lo: usize, key: u64) -> Option<&Slot> {
        if !self.enabled {
            return None;
        }
        self.scan((base as usize).wrapping_add(lo) & self.mask, key)
    }

    #[inline]
    fn scan(&self, mut i: usize, key: u64) -> Option<&Slot> {
        for _ in 0..PROBE_WINDOW {
            let s = &self.slots[i];
            if s.gen != self.gen {
                // First stale slot: inserts fill the earliest stale
                // slot of the window, so the key cannot live past it.
                return None;
            }
            if s.key == key {
                return Some(s);
            }
            i = (i + 1) & self.mask;
        }
        None
    }

    /// Writes (or refreshes) a pair's raw χ² values and geometry.
    /// `vals.len()` must be the domain's signature count.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, vals: &[f64], dmanh: u32, denom: f64) {
        if !self.enabled {
            return;
        }
        debug_assert!(vals.len() <= MAX_CACHED_SIGS);
        let gen = self.gen;
        let home = home_slot(key, self.mask);
        let mut victim = home;
        let mut i = home;
        for _ in 0..PROBE_WINDOW {
            let s = &self.slots[i];
            if s.gen != gen || s.key == key {
                victim = i;
                break;
            }
            i = (i + 1) & self.mask;
        }
        // Window full of live foreign keys: evict the home slot. That
        // keeps the probe invariant (stale slots never reappear within
        // a generation) — eviction replaces live with live.
        let s = &mut self.slots[victim];
        s.key = key;
        s.gen = gen;
        s.dmanh = dmanh;
        s.denom = denom;
        s.vals[..vals.len()].copy_from_slice(vals);
    }

    /// Adds one fill's hit/miss totals to the monotonic counters (a
    /// disabled cache served no probes, so it counts none).
    pub(crate) fn record(&mut self, hits: u64, misses: u64) {
        if !self.enabled {
            return;
        }
        self.hits += hits;
        self.misses += misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tiles::{Geometry, TileId, TileStore};

    fn small_index() -> SignatureIndex {
        let g = Geometry::new(2, 32, 32, 16, 16);
        let s = TileStore::new(
            g,
            fc_array::LatencyModel::free(),
            fc_array::IoMode::Simulated,
            fc_array::SimClock::new(),
        );
        s.put_meta(TileId::ROOT, "sig", vec![0.5, 0.5]);
        (*s.signature_index().unwrap()).clone()
    }

    #[test]
    fn pair_key_is_symmetric() {
        assert_eq!(pair_key(3, 7), pair_key(7, 3));
        assert_ne!(pair_key(3, 7), pair_key(3, 8));
        assert_eq!(pair_key(5, 5), pair_key(5, 5));
    }

    #[test]
    fn probe_hits_after_insert_and_respects_generations() {
        let ix = small_index();
        let keys = [MetaKey::intern("sig")];
        let mut c = PairCache::new(64);
        assert!(c.begin(&ix, &keys));
        let k = pair_key(1, 2);
        assert!(c.probe(k).is_none());
        c.insert(k, &[0.25], 3, 2.0);
        let s = c.probe(k).expect("hit");
        assert_eq!(s.vals[0], 0.25);
        assert_eq!(s.dmanh, 3);
        assert_eq!(s.denom, 2.0);
        // Same domain again: still a hit, no invalidation.
        assert!(c.begin(&ix, &keys));
        assert!(c.probe(k).is_some());
        assert_eq!(c.stats().invalidations, 0);
        // Key-set switch: O(1) invalidation, the slot reads stale.
        let other = [MetaKey::intern("other")];
        assert!(c.begin(&ix, &other));
        assert!(c.probe(k).is_none());
        assert_eq!(c.stats().invalidations, 1);
        // A fresh index build likewise invalidates.
        let ix2 = small_index();
        assert!(c.begin(&ix2, &other));
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn zero_capacity_and_oversized_domains_disable() {
        let ix = small_index();
        let keys = [MetaKey::intern("sig")];
        let mut c = PairCache::new(0);
        assert!(!c.begin(&ix, &keys));
        c.insert(pair_key(0, 1), &[1.0], 0, 1.0);
        assert!(c.probe(pair_key(0, 1)).is_none());
        // More signatures than a slot holds: bypass.
        let many: Vec<MetaKey> = (0..=MAX_CACHED_SIGS)
            .map(|i| MetaKey::intern(&format!("k{i}")))
            .collect();
        let mut c = PairCache::new(64);
        assert!(!c.begin(&ix, &many));
    }

    #[test]
    fn eviction_keeps_probes_correct() {
        let ix = small_index();
        let keys = [MetaKey::intern("sig")];
        // Tiny table: plenty of collisions and evictions.
        let mut c = PairCache::new(8);
        assert!(c.begin(&ix, &keys));
        for a in 0..8usize {
            for b in a..8usize {
                c.insert(pair_key(a, b), &[(a * 10 + b) as f64], 0, 1.0);
            }
        }
        // Whatever survived must read back its own value.
        for a in 0..8usize {
            for b in a..8usize {
                if let Some(s) = c.probe(pair_key(a, b)) {
                    assert_eq!(s.vals[0], (a * 10 + b) as f64, "pair ({a},{b})");
                }
            }
        }
    }
}
