//! The χ² pair cache every session of a dataset shares (the predict
//! half of the multi-user serving core).
//!
//! A busy server runs many sessions over the same tiles, so a
//! [`PredictScheduler`] holds **one** [`PairCache`] for all of them:
//! the pairs session A computed are hits for session B — §6.2's shared
//! tile cache, applied to prediction arithmetic. Sessions take turns;
//! each turn is the engine's own [`SbRecommender::rank_indexed_cached`]
//! fill, so every ranking is bit-identical to the one the session
//! would have computed alone.
//!
//! Cache and scratch sit behind **one mutex, held across the fill**.
//! The signature index is refreshed *before* the mutex is taken, so
//! the mutex is a leaf of the lock order and nothing waits on anything
//! but it: no condition variable, no timed wait. A panic inside the
//! fill unwinds through the (non-poisoning) guard and leaves a usable
//! ranker: [`PairCache`] writes a slot only after its χ² is computed,
//! and the scratch is rebuilt by every call.
//!
//! The names are older than the design. This was a group-commit
//! rendezvous merging concurrent jobs into one batched fill; measured,
//! it merged under 0.3 % of them. `benchmark/src/sut.rs`, which
//! ordinary changes may not edit, spells `PredictScheduler::new(sb,
//! pyramid, BatchConfig::default())` and reads `stats().largest_batch`,
//! so those stay until the benchmark's own change (ROADMAP item 2(a)).

use crate::paircache::{PairCache, PairCacheStats};
use crate::sb::{PredictScratch, SbRecommender};
use fc_tiles::{Pyramid, TileId};
use parking_lot::atomic::AtomicU64;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

/// Ranks every session of one pyramid through one shared χ² pair
/// cache. Construct one per served pyramid and share it (`Arc`) across
/// sessions; rankings are bit-identical to per-session prediction.
///
/// The [`SbRecommender`] must be configured identically to the
/// sessions' own (same signature weights and flags) — the engine
/// factory that builds session engines should also supply this model,
/// e.g. via [`crate::engine::PredictionEngine::sb_model`].
pub struct PredictScheduler {
    sb: SbRecommender,
    pyramid: Arc<Pyramid>,
    /// The shared cache, sized from the first ranked index (an epoch
    /// bump keeps the table and invalidates by generation), and the
    /// scratch the fill runs on.
    shared: Mutex<(PairCache, PredictScratch)>,
    jobs: AtomicU64,
}

impl std::fmt::Debug for PredictScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PredictScheduler({:?})", self.stats())
    }
}

impl PredictScheduler {
    /// Creates the shared ranker for sessions exploring `pyramid`,
    /// scoring with `sb` (a clone of the sessions' SB model).
    pub fn new(sb: SbRecommender, pyramid: Arc<Pyramid>, _cfg: BatchConfig) -> Self {
        Self {
            sb,
            pyramid,
            shared: Mutex::default(),
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

    /// Counters of the shared χ² pair cache, cumulative over every
    /// session (waits for a rank in progress).
    // fc-check: allow(unreferenced-pub) -- accessor that ROADMAP item 3's metrics registry replaces (PairCacheStats)
    pub fn pair_cache_stats(&self) -> PairCacheStats {
        self.shared.lock().0.stats()
    }

    /// Ranks `candidates` against `refs` (the session's ROI, or its
    /// current tile when no ROI is committed) through the shared
    /// cache, after any rank already in progress. The ranking is
    /// bit-identical to [`SbRecommender::rank_indexed_cached`] on the
    /// same inputs.
    pub fn rank(&self, candidates: &[TileId], refs: &[TileId]) -> Vec<TileId> {
        self.rank_counted(candidates, refs).0
    }

    /// [`Self::rank`], plus the shared cache's hit/miss counts for
    /// this call alone — read while the lock is held, so another
    /// session's probes never leak into them.
    pub(crate) fn rank_counted(
        &self,
        candidates: &[TileId],
        refs: &[TileId],
    ) -> (Vec<TileId>, PairCacheStats) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let store = self.pyramid.store();
        // Store locks first, ours last: the mutex stays a leaf.
        let Some(index) = store.signature_index() else {
            // Metadata-free store: the locked reference path, exactly
            // the sessions' own fallback. Nothing to cache.
            let ranked = self.sb.rank_reference(store, candidates, refs);
            return (ranked, PairCacheStats::default());
        };
        let mut shared = self.shared.lock();
        let (cache, scratch) = &mut *shared;
        cache.fit(&index);
        self.sb.rank_tiles(&index, candidates, refs, cache, scratch)
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
        let cands = p.geometry().candidates(TileId::new(2, 2, 2), 1);
        let refs = [TileId::new(2, 2, 2)];
        let (ranked, delta) = s.rank_counted(&cands, &refs);
        assert_eq!(ranked, solo(&p, &cands, &refs));
        assert_eq!((delta.hits, delta.misses), (0, cands.len() as u64));
        assert_eq!(delta, s.pair_cache_stats());
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

    #[test]
    fn panicking_rank_leaves_the_ranker_usable() {
        // Infinite metadata drives χ² to ∞/∞ = NaN (NaN inputs are
        // skipped by the zero-bin guard, but ∞ passes it), so
        // sort_scored's finite-distance expectation fires while the
        // rank holds the lock.
        let p = pyramid(Some(|_| vec![f64::INFINITY, 0.5]));
        let s = scheduler(&p);
        let cands = [TileId::new(2, 1, 1), TileId::new(2, 1, 2)];
        let refs = [TileId::new(2, 1, 0)];
        let panicked = std::thread::scope(|scope| scope.spawn(|| s.rank(&cands, &refs)).join());
        assert!(panicked.is_err(), "NaN distances must still panic");
        // The lock was released by the unwind and the cache holds only
        // whole slots: with sane metadata the next rank is the
        // reference ranking, and no probe of either call went missing.
        put_sigs(&p, sane);
        assert_eq!(s.rank(&cands, &refs), solo(&p, &cands, &refs));
        let pc = s.pair_cache_stats();
        assert_eq!(pc.hits + pc.misses, 2 * cands.len() as u64);
        assert_eq!(pc.invalidations, 1, "the repair rebuilt the index");
    }

    #[test]
    fn metadata_free_store_falls_back_to_reference_path() {
        let p = pyramid(None);
        let s = scheduler(&p);
        let cands = [TileId::new(2, 1, 1), TileId::new(2, 1, 2)];
        let refs = [TileId::new(2, 1, 0)];
        let (ranked, delta) = s.rank_counted(&cands, &refs);
        assert_eq!(ranked, solo(&p, &cands, &refs));
        assert_eq!(delta, PairCacheStats::default());
        assert_eq!(s.stats().jobs, 1);
    }
}
