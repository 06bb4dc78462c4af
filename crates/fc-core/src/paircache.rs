//! The epoch-stamped χ² pair-distance cache — the steady-state predict
//! accelerator.
//!
//! # Why this exists
//!
//! The frozen [`SignatureIndex`] removed every lock and copy from the SB
//! predict path, leaving IEEE-exact per-bin χ² divisions as the whole
//! cost (the micro-bench row `SB distances 4sig x 64cand x 16roi
//! (frozen index)`). But consecutive interactive requests — pan by
//! one tile, zoom by one level — share the vast majority of their
//! (candidate, ROI) pairs, and χ² is symmetric in its arguments. The
//! [`PairCache`] memoizes **penalty-free** χ² values keyed by the
//! index's dense tile pairs, so the warm steady state probes instead of
//! dividing: only the miss frontier (the pairs a pan step newly
//! exposes) runs the χ² kernel. On the micro-bench's 96-request
//! pan/zoom walk (`SB steady walk 96 req, warm pair cache (per lap)`)
//! 92.6 % of pair probes hit and a warm request costs 13.8 µs, against
//! 26.7 µs with the cache disabled (PR 25, avx2; `docs/BENCHMARKS.md`).
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
//! # Sizing: the table follows what it holds
//!
//! A table is asked for with a **ceiling** ([`PairCache::new`];
//! [`PairCache::fit`] takes it from
//! [`crate::signature::pair_cache_capacity_hint`]) and starts with at
//! most 2¹² slots (256 KiB) of it, so opening a session costs a
//! request's worth of time rather than a 16 MiB fill. The cache counts
//! the slots written in the current generation; when an insert takes
//! that count past half the table, the table doubles, until it reaches
//! the ceiling — where it is a fixed-size table that evicts, as every
//! table here was before. Half is a measured choice: a doubling holds
//! the old and the new table at once, and an earlier one (¼, ⅛) takes a
//! dataset-shared table to its ceiling, and the process past its old
//! peak, for pairs that half-full tables hold in half the memory; the
//! price is the evictions a fuller table makes (ROADMAP item 5 has the
//! sweep). A generation bump restarts the count and keeps the table.
//!
//! A doubling **re-homes** the live generation's slots and drops the
//! stale ones. The probe invariant survives it because the new table
//! is filled by the same rule as any other — first stale slot of the
//! key's window — and no pair is lost because the order of filling
//! never runs a key out of its window: the old table is read
//! circularly from a stale slot, so every run of live slots is read
//! head first, and then each key lands no further from its new home
//! than it sat from its old one. (Induction along a run. A key `δ`
//! slots past its old home `h` had only live slots between `h` and
//! itself. Its new home is `h` or `h` plus the old length; a key
//! already re-homed into the `δ + 1` slots from there sits, modulo the
//! old length, at or after `h` and — by the induction — at or before
//! its own old slot, which was read earlier: it came from one of the
//! `δ` old slots between `h` and the key, a different one for each. So
//! one of the `δ + 1` is still stale, and `δ < PROBE_WINDOW`.)
//!
//! # Sharing
//!
//! [`crate::engine::PredictionEngine`] owns one cache per session next
//! to its `PredictScratch`; [`crate::batch::PredictScheduler`] owns one
//! cache *shared by every session of a dataset*, so session B hits the
//! pairs session A computed — the multi-user analogue of §6.2's shared
//! tile cache, applied to prediction arithmetic. Both are this one
//! growing table.
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
/// must fit 64 bits). Indexes ≥ 2²⁸ disable the cache.
const DENSE_BITS: u32 = 28;

/// Most slots a table starts with (256 KiB), and the least
/// [`crate::signature::pair_cache_capacity_hint`] asks for — so a
/// table asked for at this size or below never grows.
const START_SLOTS: usize = 1 << 12;

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
#[derive(Debug)]
pub struct PairCache {
    slots: Vec<Slot>,
    mask: usize,
    /// Most slots the table may grow to (a power of two, or zero).
    ceiling: usize,
    /// Slots written in the current generation.
    live: usize,
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
    /// Creates a cache of at most `capacity` slots (rounded up to a
    /// power of two; `0` builds a permanently disabled cache that
    /// misses every probe). The table starts with at most 2¹² of them
    /// and doubles as it fills (module docs, "Sizing").
    pub fn new(capacity: usize) -> Self {
        let ceiling = if capacity == 0 {
            0
        } else {
            capacity.next_power_of_two()
        };
        let start = ceiling.min(START_SLOTS);
        Self {
            slots: vec![EMPTY_SLOT; start],
            mask: start.wrapping_sub(1),
            ceiling,
            live: 0,
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

    /// Bounds the cache for steady-state prediction over `index` (see
    /// [`crate::signature::pair_cache_capacity_hint`]) — the one place
    /// a pair cache gets its ceiling. A table that already has it is
    /// kept as it is, at whatever size it has grown to: after an epoch
    /// bump [`Self::begin`] sees the new build id and invalidates by
    /// generation, with no clearing pass. Only a different ceiling (the
    /// first call on a [`Default`] cache, or an index of another
    /// shape) starts a new table, small and with zeroed counters.
    pub fn fit(&mut self, index: &SignatureIndex) {
        let want = crate::signature::pair_cache_capacity_hint(index.keys().len(), index.ntiles());
        if self.ceiling != want {
            *self = Self::new(want);
        }
    }

    /// Slots the table has now (a power of two, or zero when
    /// permanently disabled). Only ever rises, to at most what
    /// [`Self::new`] was asked for.
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
            self.live = 0;
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
    /// `vals.len()` must be the domain's signature count. The write
    /// that takes a table below its ceiling past half full doubles it.
    #[inline]
    pub(crate) fn insert(&mut self, key: u64, vals: &[f64], dmanh: u32, denom: f64) {
        if !self.enabled {
            return;
        }
        debug_assert!(vals.len() <= MAX_CACHED_SIGS);
        let mut slot = Slot {
            key,
            gen: self.gen,
            dmanh,
            denom,
            ..EMPTY_SLOT
        };
        slot.vals[..vals.len()].copy_from_slice(vals);
        self.place(slot);
        // Past half full, below the ceiling (module docs, "Sizing").
        if self.live > self.slots.len() / 2 && self.slots.len() < self.ceiling {
            self.grow();
        }
    }

    /// Stores a slot of the current generation in the first stale (or
    /// same-key) slot of its key's probe window.
    #[inline]
    fn place(&mut self, slot: Slot) {
        let home = home_slot(slot.key, self.mask);
        let mut victim = home;
        let mut i = home;
        for _ in 0..PROBE_WINDOW {
            let s = &self.slots[i];
            if s.gen != slot.gen {
                self.live += 1;
                victim = i;
                break;
            }
            if s.key == slot.key {
                victim = i;
                break;
            }
            i = (i + 1) & self.mask;
        }
        // Window full of live foreign keys: evict the home slot. That
        // keeps the probe invariant (stale slots never reappear within
        // a generation) — eviction replaces live with live.
        self.slots[victim] = slot;
    }

    /// Doubles the table and re-homes the live generation's slots into
    /// it, each run of live slots from its head — the order in which no
    /// key runs out of window, so none is lost (module docs, "Sizing").
    /// The old table is freed on return; until then both are held.
    #[cold]
    fn grow(&mut self) {
        let doubled = vec![EMPTY_SLOT; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.mask = self.slots.len() - 1;
        self.live = 0;
        let gen = self.gen;
        let head = old.iter().position(|s| s.gen != gen).unwrap_or(0);
        for s in old[head..].iter().chain(&old[..head]) {
            if s.gen == gen {
                self.place(*s);
            }
        }
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

    /// Inserts every pair over `n` tiles, each with a value of its
    /// own, then checks that whatever survived reads back that value.
    fn check_eviction(c: &mut PairCache, n: usize) {
        for a in 0..n {
            for b in a..n {
                c.insert(pair_key(a, b), &[(a * n + b) as f64], 0, 1.0);
            }
        }
        for a in 0..n {
            for b in a..n {
                if let Some(s) = c.probe(pair_key(a, b)) {
                    assert_eq!(s.vals[0], (a * n + b) as f64, "pair ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn eviction_keeps_probes_correct() {
        let ix = small_index();
        let keys = [MetaKey::intern("sig")];
        // Tiny table: plenty of collisions and evictions.
        let mut c = PairCache::new(8);
        assert!(c.begin(&ix, &keys));
        check_eviction(&mut c, 8);
        assert_eq!(c.capacity(), 8, "a table asked for below 2^12 never grows");
        // A table grown to its ceiling is that fixed-size table: 32,896
        // pairs through 8,192 slots.
        let mut c = PairCache::new(1 << 13);
        assert!(c.begin(&ix, &keys));
        assert_eq!(c.capacity(), START_SLOTS);
        check_eviction(&mut c, 256);
        assert_eq!(c.capacity(), 1 << 13);
    }

    /// The fill's key pattern: candidate `hi` against sixteen
    /// consecutive ROI indices, a run of adjacent home slots.
    fn run_keys() -> impl Iterator<Item = (u64, f64)> {
        (0..).flat_map(|c| (0..16).map(move |lo| (pair_key(lo, 1000 + c), (c * 16 + lo) as f64)))
    }

    #[test]
    fn doubling_loses_no_pair() {
        let ix = small_index();
        let keys = [MetaKey::intern("sig")];
        let mut c = PairCache::new(1 << 14);
        assert!(c.begin(&ix, &keys));
        let pairs: Vec<(u64, f64)> = run_keys().take(1 << 15).collect();
        let mut next = 0;
        let mut insert_next = |c: &mut PairCache| {
            let (k, v) = pairs[next];
            c.insert(k, &[v], 7, 2.0);
            next += 1;
            next
        };
        for size in [START_SLOTS, 2 * START_SLOTS] {
            // Fill to exactly half: the next new pair doubles the table.
            let mut inserted = 0;
            while c.live < size / 2 {
                inserted = insert_next(&mut c);
            }
            assert_eq!(c.capacity(), size);
            let mut held: Vec<(u64, f64)> = pairs[..inserted]
                .iter()
                .copied()
                .filter(|&(k, _)| c.probe(k).is_some())
                .collect();
            assert_eq!(held.len(), c.live, "one slot per pair held");
            held.push(pairs[insert_next(&mut c) - 1]);
            assert_eq!(c.capacity(), 2 * size, "past half full");
            assert_eq!(c.live, held.len(), "every live slot re-homed");
            for (k, v) in held {
                let s = c.probe(k).expect("a pair held before the doubling");
                assert_eq!((s.vals[0], s.dmanh, s.denom), (v, 7, 2.0));
            }
        }
        // At the ceiling the table stays, however much is written.
        while insert_next(&mut c) < pairs.len() {}
        assert_eq!(c.capacity(), 1 << 14);
    }

    #[test]
    fn generation_bump_restarts_the_live_count_and_keeps_the_table() {
        let ix = small_index();
        let mut c = PairCache::new(1 << 14);
        assert!(c.begin(&ix, &[MetaKey::intern("sig")]));
        let mut pairs = run_keys();
        let (mut k, mut v) = (0, 0.0);
        while c.capacity() == START_SLOTS {
            (k, v) = pairs.next().unwrap();
            c.insert(k, &[v], 0, 1.0);
        }
        assert_eq!(
            (c.capacity(), c.live),
            (2 * START_SLOTS, START_SLOTS / 2 + 1)
        );
        // Refreshing a pair writes no new slot.
        c.insert(k, &[v], 0, 1.0);
        assert_eq!(c.live, START_SLOTS / 2 + 1);
        assert!(c.begin(&ix, &[MetaKey::intern("other")]));
        assert_eq!((c.capacity(), c.live), (2 * START_SLOTS, 0));
        assert!(c.probe(k).is_none());
        c.insert(k, &[v], 0, 1.0);
        assert_eq!(c.live, 1);
    }
}
