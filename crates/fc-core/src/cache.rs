//! The middleware tile cache (§3, "Tile Cache Manager").
//!
//! The cache stores two populations: the **last n tiles requested by the
//! interface** (an LRU ring) and the **per-cycle prefetch set** filled
//! from the prediction engine's recommendations. "This allocation
//! strategy is reevaluated after each request" — installing a new
//! prefetch set replaces the previous one.

use fc_tiles::{Tile, TileId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the tile in the cache.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Tiles installed by prefetching over the session.
    pub prefetched: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The main-memory middleware cache.
#[derive(Debug)]
pub struct CacheManager {
    /// LRU of the last `history_capacity` requested tiles.
    history: VecDeque<TileId>,
    history_capacity: usize,
    /// Current prefetch set (replaced each request cycle).
    prefetch: HashMap<TileId, Arc<Tile>>,
    /// Backing storage for history entries.
    resident: HashMap<TileId, Arc<Tile>>,
    stats: CacheStats,
}

impl CacheManager {
    /// Creates a cache that retains the last `history_capacity` requested
    /// tiles alongside the prefetch set.
    pub fn new(history_capacity: usize) -> Self {
        Self {
            history: VecDeque::with_capacity(history_capacity),
            history_capacity,
            prefetch: HashMap::new(),
            resident: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Looks up a tile, counting a hit or miss.
    pub fn lookup(&mut self, id: TileId) -> Option<Arc<Tile>> {
        let found = self.peek(id);
        self.count_lookup(found.is_some());
        found
    }

    /// Looks up a tile **without counting** — the shared-mode probe:
    /// the middleware resolves the request against the shared cache
    /// (and the backend) first, then records the outcome once with
    /// [`CacheManager::count_lookup`], so a shared-cache hit is never
    /// booked as a private miss and an unserved request books nothing.
    pub fn peek(&self, id: TileId) -> Option<Arc<Tile>> {
        self.prefetch
            .get(&id)
            .or_else(|| self.resident.get(&id))
            .cloned()
    }

    /// Records the outcome of a lookup resolved through
    /// [`CacheManager::peek`] (see there).
    pub fn count_lookup(&mut self, hit: bool) {
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }

    /// Checks residency without touching the stats.
    pub fn contains(&self, id: TileId) -> bool {
        self.prefetch.contains_key(&id) || self.resident.contains_key(&id)
    }

    /// Records the tile the user actually requested: it joins the
    /// last-n history (evicting the oldest history entry if full).
    ///
    /// The `position` scan is O(history_capacity), which is bounded by
    /// the paper's "last n tiles" with n = 3–4 in every deployed
    /// configuration — at that size a linear probe of a `VecDeque`
    /// beats maintaining a position map. Measured via the
    /// `cache lookup+note+prefetch cycle` micro-bench: the whole cycle
    /// (lookup + note_request + install_prefetch of 8 tiles) runs in
    /// ~420 ns at capacity 4, with the scan itself a single-digit-ns
    /// slice of that. Revisit only if a caller ever passes a large
    /// `history_capacity`.
    pub fn note_request(&mut self, tile: Arc<Tile>) {
        let id = tile.id;
        if let Some(pos) = self.history.iter().position(|&t| t == id) {
            self.history.remove(pos);
        } else if self.history.len() == self.history_capacity {
            if let Some(old) = self.history.pop_front() {
                self.resident.remove(&old);
            }
        }
        if self.history_capacity > 0 {
            self.history.push_back(id);
            self.resident.insert(id, tile);
        }
    }

    /// Replaces the prefetch set with freshly fetched predictions (the
    /// per-request reallocation step).
    pub fn install_prefetch(&mut self, tiles: Vec<Arc<Tile>>) {
        self.prefetch.clear();
        self.stats.prefetched += tiles.len();
        for t in tiles {
            self.prefetch.insert(t.id, t);
        }
    }

    /// Like [`CacheManager::install_prefetch`], but tiles named in
    /// `keep` that are already in the old prefetch set survive the
    /// replacement (without being re-counted as new installs). The
    /// burst scheduler's dwell-time deep runs install through this so
    /// a still-predicted tile fetched on an earlier cycle stays
    /// resident until the burst that wants it arrives — the
    /// private-mode analog of the shared cache's hold set.
    pub fn install_prefetch_keeping(&mut self, tiles: Vec<Arc<Tile>>, keep: &[TileId]) {
        let kept: Vec<Arc<Tile>> = keep
            .iter()
            .filter_map(|id| self.prefetch.get(id).cloned())
            .collect();
        self.install_prefetch(tiles);
        for t in kept {
            self.prefetch.entry(t.id).or_insert(t);
        }
    }

    /// Tile count currently resident (history + prefetch, counting
    /// overlaps once).
    pub fn len(&self) -> usize {
        let overlap = self
            .prefetch
            .keys()
            .filter(|id| self.resident.contains_key(id))
            .count();
        self.prefetch.len() + self.resident.len() - overlap
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.prefetch.is_empty() && self.resident.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drops all cached tiles and counters (new session).
    pub fn clear(&mut self) {
        self.history.clear();
        self.prefetch.clear();
        self.resident.clear();
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_array::{DenseArray, Schema};

    fn tile(id: TileId) -> Arc<Tile> {
        Arc::new(Tile::new(
            id,
            DenseArray::filled(Schema::grid2d("T", 4, 4, &["v"]).unwrap(), 0.5),
        ))
    }

    fn tid(x: u32) -> TileId {
        TileId::new(2, 0, x)
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = CacheManager::new(2);
        assert!(c.lookup(tid(1)).is_none());
        c.note_request(tile(tid(1)));
        assert!(c.lookup(tid(1)).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn history_evicts_oldest() {
        let mut c = CacheManager::new(2);
        c.note_request(tile(tid(1)));
        c.note_request(tile(tid(2)));
        c.note_request(tile(tid(3)));
        assert!(!c.contains(tid(1)));
        assert!(c.contains(tid(2)) && c.contains(tid(3)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn renoting_a_tile_refreshes_lru_position() {
        let mut c = CacheManager::new(2);
        c.note_request(tile(tid(1)));
        c.note_request(tile(tid(2)));
        c.note_request(tile(tid(1))); // refresh 1
        c.note_request(tile(tid(3))); // evicts 2, not 1
        assert!(c.contains(tid(1)));
        assert!(!c.contains(tid(2)));
    }

    #[test]
    fn prefetch_set_is_replaced_each_cycle() {
        let mut c = CacheManager::new(1);
        c.install_prefetch(vec![tile(tid(5)), tile(tid(6))]);
        assert!(c.contains(tid(5)) && c.contains(tid(6)));
        c.install_prefetch(vec![tile(tid(7))]);
        assert!(!c.contains(tid(5)) && !c.contains(tid(6)));
        assert!(c.contains(tid(7)));
        assert_eq!(c.stats().prefetched, 3);
    }

    #[test]
    fn len_counts_overlap_once() {
        let mut c = CacheManager::new(2);
        c.note_request(tile(tid(1)));
        c.install_prefetch(vec![tile(tid(1)), tile(tid(2))]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = CacheManager::new(2);
        c.note_request(tile(tid(1)));
        c.lookup(tid(1));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.stats(), CacheStats::default());
    }
}
