//! A ranker over a pyramid's current signature index, for callers
//! without an engine.
//!
//! Every SB ranking in the process goes through the index build's
//! shared χ² pair table (`crate::paircache`, "Sharing"), engines and
//! this ranker alike, so a [`PredictScheduler`] adds nothing to
//! serving: it holds an SB model and a pyramid, refreshes the index
//! and ranks through the same table, bit-identical to
//! [`SbRecommender::rank_indexed_cached`] on the same inputs.
//!
//! It stays because `benchmark/src/sut.rs`, which ordinary changes may
//! not edit, spells `PredictScheduler::new(sb, pyramid,
//! BatchConfig::default())`, `rank` and `stats().largest_batch`; the
//! names are older than the design (this was once a group-commit
//! rendezvous). ROADMAP items 2(a) and 5(a) delete it.

use crate::paircache::PairCacheStats;
use crate::sb::{PredictScratch, SbRecommender};
use fc_tiles::{Pyramid, TileId};
use parking_lot::atomic::AtomicU64;
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

thread_local! {
    /// The fill's buffers, reused by every rank on this thread.
    static SCRATCH: RefCell<PredictScratch> = RefCell::new(PredictScratch::default());
}

/// Nothing to configure; held for the benchmark adapter (module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchConfig {}

/// Counters of a [`PredictScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// [`PredictScheduler::rank`] calls made.
    pub jobs: u64,
    /// 1 once any rank ran, else 0: every fill scores one job. Held
    /// for the benchmark adapter (module docs).
    pub largest_batch: usize,
}

/// Ranks candidates over one pyramid's current signature index through
/// the index build's shared χ² pair table.
///
/// The [`SbRecommender`] decides the key set, and so the table: a
/// scheduler built with the sessions' SB configuration ranks through
/// the very table their engines use.
pub struct PredictScheduler {
    sb: SbRecommender,
    pyramid: Arc<Pyramid>,
    jobs: AtomicU64,
}

impl std::fmt::Debug for PredictScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PredictScheduler({:?})", self.stats())
    }
}

impl PredictScheduler {
    /// Creates a ranker for `pyramid`, scoring with `sb`.
    pub fn new(sb: SbRecommender, pyramid: Arc<Pyramid>, _cfg: BatchConfig) -> Self {
        Self {
            sb,
            pyramid,
            jobs: AtomicU64::new(0),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SchedulerStats {
        let jobs = self.jobs.load(Ordering::Relaxed);
        SchedulerStats {
            jobs,
            largest_batch: usize::from(jobs > 0),
        }
    }

    /// Counters of the shared χ² pair table this ranker uses,
    /// cumulative over every session ranking through it (waits for a
    /// rank in progress); zero before any ranking made the table.
    // fc-check: allow(unreferenced-pub) -- accessor that ROADMAP item 3's metrics registry replaces (PairCacheStats)
    pub fn pair_cache_stats(&self) -> PairCacheStats {
        let index = self.pyramid.store().signature_index();
        index
            .and_then(|ix| self.sb.pair_table(&ix))
            .map_or_else(PairCacheStats::default, |(stats, _)| stats)
    }

    /// Ranks `candidates` against `refs` (the session's ROI, or its
    /// current tile when no ROI is committed) through the shared
    /// table. The ranking is bit-identical to
    /// [`SbRecommender::rank_indexed_cached`] on the same inputs.
    pub fn rank(&self, candidates: &[TileId], refs: &[TileId]) -> Vec<TileId> {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let store = self.pyramid.store();
        // The store's locks first, the table's last: its lock stays a
        // leaf.
        let Some(index) = store.signature_index() else {
            // Metadata-free store: the locked reference path, exactly
            // the engines' own fallback. Nothing to cache.
            return self.sb.rank_reference(store, candidates, refs);
        };
        SCRATCH.with_borrow_mut(|scratch| {
            self.sb
                .rank_shared(&index, candidates, refs, scratch, None)
                .0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureKind;
    use crate::SbConfig;
    use fc_array::{DenseArray, Schema};
    use fc_tiles::{PyramidBuilder, PyramidConfig, TileId};

    /// A 21-tile pyramid whose tiles carry `sig`'s Hist1D vectors.
    fn pyramid(sig: Option<fn(TileId) -> Vec<f64>>) -> Arc<Pyramid> {
        let schema = Schema::grid2d("G", 64, 64, &["v"]).unwrap();
        let data: Vec<f64> = (0..64 * 64).map(|i| (i % 64) as f64 / 64.0).collect();
        let base = DenseArray::from_vec(schema, data).unwrap();
        let cfg = PyramidConfig::simple(3, 16, &["v"]);
        let p = PyramidBuilder::new().build(&base, &cfg).unwrap();
        sig.inspect(|&sig| put_sigs(&p, sig));
        Arc::new(p)
    }

    fn put_sigs(p: &Pyramid, sig: fn(TileId) -> Vec<f64>) {
        for id in p.geometry().all_tiles() {
            let name = SignatureKind::Hist1D.meta_name();
            p.store().put_meta(id, name, sig(id));
        }
    }

    fn sane(id: TileId) -> Vec<f64> {
        let v = f64::from(id.x % 3) / 3.0;
        vec![v, 1.0 - v]
    }

    fn sb() -> SbRecommender {
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D))
    }

    fn scheduler(p: &Arc<Pyramid>) -> PredictScheduler {
        PredictScheduler::new(sb(), p.clone(), BatchConfig::default())
    }

    /// The locked reference ranking, independent of the scheduler.
    fn solo(p: &Arc<Pyramid>, cands: &[TileId], refs: &[TileId]) -> Vec<TileId> {
        sb().rank_reference(p.store(), cands, refs)
    }

    #[test]
    fn single_session_rank_matches_unbatched() {
        let p = pyramid(Some(sane));
        let s = scheduler(&p);
        assert_eq!(s.stats(), SchedulerStats::default());
        assert_eq!(s.pair_cache_stats(), PairCacheStats::default());
        let cands = p.geometry().candidates(TileId::new(2, 2, 2), 1);
        let refs = [TileId::new(2, 2, 2)];
        assert_eq!(s.rank(&cands, &refs), solo(&p, &cands, &refs));
        let pc = s.pair_cache_stats();
        assert_eq!((pc.hits, pc.misses), (0, cands.len() as u64));
        assert_eq!((s.stats().jobs, s.stats().largest_batch), (1, 1));
    }

    #[test]
    fn concurrent_sessions_coalesce_and_agree_with_solo_ranking() {
        let p = pyramid(Some(sane));
        let s = scheduler(&p);
        let g = p.geometry();
        const N: usize = 8;
        let tile = |i: usize| TileId::new(2, (i % 4) as u32, (i / 4 + 1) as u32);
        // Every session's ranking equals its solo computation …
        std::thread::scope(|scope| {
            for i in 0..N {
                let (s, p) = (&s, &p);
                scope.spawn(move || {
                    let (cands, refs) = (g.candidates(tile(i), 1), [tile(i)]);
                    assert_eq!(s.rank(&cands, &refs), solo(p, &cands, &refs), "session {i}");
                });
            }
        });
        // … and every probe landed in the one shared table.
        let probes: usize = (0..N).map(|i| g.candidates(tile(i), 1).len()).sum();
        assert_eq!(s.stats().jobs, N as u64);
        let pc = s.pair_cache_stats();
        assert_eq!(pc.hits + pc.misses, probes as u64);
    }

    /// One infinite signature: χ² against it is ∞/∞ = NaN (NaN inputs
    /// are skipped by the zero-bin guard, but ∞ passes it).
    fn poisoned(id: TileId) -> Vec<f64> {
        if id == TileId::new(2, 1, 1) {
            vec![f64::INFINITY, 0.5]
        } else {
            sane(id)
        }
    }

    #[test]
    fn panicking_rank_leaves_the_ranker_usable() {
        let p = pyramid(Some(poisoned));
        let s = scheduler(&p);
        let refs = [TileId::new(2, 1, 0)];
        // sort_scored's finite-distance expectation fires while the
        // rank holds the table lock.
        let cands = [TileId::new(2, 1, 1), TileId::new(2, 1, 2)];
        let panicked = std::thread::scope(|scope| scope.spawn(|| s.rank(&cands, &refs)).join());
        assert!(panicked.is_err(), "NaN distances must still panic");
        // The unwind released the lock and the table holds only whole
        // slots: another session, on another thread, ranks exactly
        // through the same table and hits the pair the panicked rank
        // wrote.
        let other = scheduler(&p);
        let cands = [TileId::new(2, 1, 2), TileId::new(2, 2, 2)];
        let ranked = std::thread::scope(|scope| scope.spawn(|| other.rank(&cands, &refs)).join());
        assert_eq!(ranked.unwrap(), solo(&p, &cands, &refs));
        let pc = other.pair_cache_stats();
        assert_eq!((pc.hits, pc.misses), (1, 3), "one table for both rankers");
        assert_eq!(pc, s.pair_cache_stats());
    }

    #[test]
    fn metadata_free_store_falls_back_to_reference_path() {
        let p = pyramid(None);
        let s = scheduler(&p);
        let cands = [TileId::new(2, 1, 1), TileId::new(2, 1, 2)];
        let refs = [TileId::new(2, 1, 0)];
        assert_eq!(s.rank(&cands, &refs), solo(&p, &cands, &refs));
        assert_eq!(s.pair_cache_stats(), PairCacheStats::default());
        assert_eq!(s.stats().jobs, 1);
    }
}
