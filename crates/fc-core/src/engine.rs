//! The two-level prediction engine (§4).
//!
//! Per request the engine: (1) records the request in the session history
//! and the ROI tracker, (2) predicts the current analysis phase with the
//! top-level classifier, (3) asks the AB and SB recommenders for ranked
//! candidate lists, and (4) merges them under the cache allocation
//! strategy for the predicted phase.

use crate::ab::AbRecommender;
use crate::alloc::{boost_toward_hotspots, merge_allocated, AllocationStrategy, HotspotBlend};
use crate::batch::PredictScheduler;
use crate::history::{Request, SessionHistory};
use crate::paircache::{PairCache, PairCacheStats};
use crate::phase::{Phase, PhaseClassifier};
use crate::recommender::{PredictionContext, Recommender};
use crate::roi::RoiTracker;
use crate::sb::{PredictScratch, SbRecommender};
use fc_tiles::{Geometry, SignatureIndex, TileId, TileStore};
use std::sync::Arc;

#[cfg(test)]
thread_local! {
    static CLASSIFICATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Phase estimates computed so far on this thread — what the
/// work-count pin on the request path measures.
#[cfg(test)]
pub(crate) fn phases_classified() -> usize {
    CLASSIFICATIONS.with(std::cell::Cell::get)
}

/// Engine configuration (paper §4.1: history length `n` and prediction
/// distance `d` are system parameters set before the session starts).
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// History length `n`.
    pub history_len: usize,
    /// Prediction distance `d` (default 1: "we only considered the tiles
    /// that were exactly one step ahead of the user").
    pub distance: usize,
    /// Cache allocation strategy.
    pub strategy: AllocationStrategy,
    /// Cross-session hotspot blending (multi-user mode): when set, a
    /// hotspot prior handed in through [`PredictOptions::hotspots`]
    /// re-ranks each model's candidate list toward nearby communal
    /// hotspots, gated to the configured phases. `None` (the default)
    /// — and every predict call without a prior — keeps prediction
    /// bit-identical to the paper engine.
    pub hotspot: Option<HotspotBlend>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            history_len: 3,
            distance: 1,
            strategy: AllocationStrategy::Updated,
            hotspot: None,
        }
    }
}

/// Per-call options of [`PredictionEngine::predict_with`]. The default
/// value is [`PredictionEngine::predict`] exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictOptions<'a> {
    /// Externally supplied phase, bypassing the engine's own estimate
    /// (used when evaluating the bottom level against hand-labeled
    /// phases, §5.4.2).
    pub phase: Option<Phase>,
    /// Compute the SB ranking through the dataset's shared pair cache
    /// instead of the engine's own. The result is bit-identical to
    /// the local path (golden-tested). The scheduler must be built
    /// over the same pyramid as the store and with the same SB
    /// configuration as this engine (see
    /// [`PredictionEngine::sb_model`]).
    pub scheduler: Option<&'a PredictScheduler>,
    /// Cross-session hotspot prior (the current
    /// [`crate::multiuser::HotspotSnapshot`] entries of the session's
    /// namespace). Applied only when [`EngineConfig::hotspot`] is set
    /// *and* its phase gate admits the phase; an empty prior, a closed
    /// gate, or an unset config all leave the ranking untouched.
    pub hotspots: &'a [(TileId, u64)],
    /// Candidate horizon override: candidates come from this many
    /// moves ahead instead of the configured
    /// [`EngineConfig::distance`]. The burst scheduler's dwell-time
    /// deep runs use this — the analyst is studying the current view,
    /// so there is time to rank (and prefetch) a larger neighbourhood.
    pub distance: Option<usize>,
}

/// How the engine learns the current analysis phase.
pub enum PhaseSource {
    /// The trained SVM classifier (the deployed configuration).
    Classifier(Box<PhaseClassifier>),
    /// A rule-based fallback for sessions without training data: zooms →
    /// Navigation; pans in the deepest third of the pyramid →
    /// Sensemaking; otherwise Foraging.
    Heuristic,
}

impl std::fmt::Debug for PhaseSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhaseSource::Classifier(_) => f.write_str("Classifier"),
            PhaseSource::Heuristic => f.write_str("Heuristic"),
        }
    }
}

/// The per-session two-level prediction engine.
pub struct PredictionEngine {
    config: EngineConfig,
    geometry: Geometry,
    ab: AbRecommender,
    sb: SbRecommender,
    phase_source: PhaseSource,
    history: SessionHistory,
    roi: RoiTracker,
    /// Reused buffers for the allocation-free SB fast path.
    scratch: PredictScratch,
    /// Epoch-stamped χ² pair-distance cache for steady-state SB
    /// prediction: empty until the first predict that ranks through
    /// it (never, when every predict goes through a shared scheduler),
    /// which bounds it for the current index; from there it grows with
    /// the pairs the session meets. Domain changes invalidate it in
    /// O(1).
    pair_cache: PairCache,
    /// Pair-cache activity of the last predict — see
    /// [`Self::last_pair_cache`].
    last_pair_cache: PairCacheStats,
    /// The last request's candidate set — see [`Self::candidates`].
    candidate_buf: Vec<TileId>,
    /// The store's frozen signature index, cached with the
    /// `(store_id, meta_epoch)` it was read at; revalidated per
    /// predict with one atomic load so the steady state acquires no
    /// store locks, and never confused between stores.
    sig_cache: Option<((u64, u64), Arc<SignatureIndex>)>,
}

impl std::fmt::Debug for PredictionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictionEngine")
            .field("config", &self.config)
            .field("history_len", &self.history.len())
            .field("phase_source", &self.phase_source)
            .finish()
    }
}

impl PredictionEngine {
    /// Builds an engine. The AB model's move-tree memo, and a classifier
    /// phase source's memo, get bound to `geometry`, unless the model
    /// (or a clone) already has one.
    pub fn new(
        geometry: Geometry,
        ab: AbRecommender,
        sb: SbRecommender,
        phase_source: PhaseSource,
        config: EngineConfig,
    ) -> Self {
        ab.memoize(geometry);
        if let PhaseSource::Classifier(c) = &phase_source {
            c.memoize(geometry);
        }
        Self {
            history: SessionHistory::new(config.history_len.max(1)),
            roi: RoiTracker::new(),
            config,
            geometry,
            ab,
            sb,
            phase_source,
            scratch: PredictScratch::default(),
            pair_cache: PairCache::default(),
            last_pair_cache: PairCacheStats::default(),
            candidate_buf: Vec::new(),
            sig_cache: None,
        }
    }

    /// Records a request (history + ROI tracking). Call once per user
    /// request, before [`PredictionEngine::predict`].
    pub fn observe(&mut self, request: Request) {
        self.history.push(request);
        self.roi.update(&request);
    }

    /// The engine's current phase estimate for the last observed request.
    pub fn current_phase(&self) -> Phase {
        let Some(last) = self.history.last() else {
            return Phase::Foraging;
        };
        #[cfg(test)]
        CLASSIFICATIONS.with(|n| n.set(n.get() + 1));
        match &self.phase_source {
            PhaseSource::Classifier(c) => c.predict(last, self.history.previous()),
            PhaseSource::Heuristic => heuristic_phase(self.geometry, last),
        }
    }

    /// Predicts up to `k` tiles to prefetch for the last observed request,
    /// letting the engine infer the phase.
    pub fn predict(&mut self, store: &TileStore, k: usize) -> Vec<TileId> {
        self.predict_with(store, k, PredictOptions::default())
    }

    /// Refreshes the cached frozen signature index. Steady state (same
    /// store, no metadata writes since the last call) costs one atomic
    /// load and touches no store locks. The key carries the store's
    /// process-unique id, so handing the engine a different store
    /// never reuses the previous store's index.
    fn refresh_sig_cache(&mut self, store: &TileStore) -> Option<Arc<SignatureIndex>> {
        let key = (store.store_id(), store.meta_epoch());
        if let Some((cached_key, ix)) = &self.sig_cache {
            if *cached_key == key {
                return Some(ix.clone());
            }
        }
        self.sig_cache = store.signature_index().map(|ix| (key, ix));
        self.sig_cache.as_ref().map(|(_, ix)| ix.clone())
    }

    /// χ² pair-cache activity of the most recent
    /// [`Self::predict_with`] alone: the hits and misses its SB
    /// ranking made, in the engine's own cache or — through
    /// [`PredictOptions::scheduler`] — in the shared one, where the
    /// counts are taken under the cache's lock and so never include
    /// another session's probes. All zero when the call ranked without
    /// a cache (no history yet, metadata-free store) or did not rank SB
    /// at all (the allocation gave it no slot and AB filled the budget).
    pub fn last_pair_cache(&self) -> PairCacheStats {
        self.last_pair_cache
    }

    /// The candidate set of `tile` at prediction distance `d`, as every
    /// predict ranks it: [`Geometry::candidates`] of the engine's
    /// geometry, element by element, into a buffer the engine reuses.
    /// At d = 2 and 3 it is read off the AB model's move trees, which
    /// every clone shares.
    pub fn candidates(&mut self, tile: TileId, d: usize) -> &[TileId] {
        self.ab
            .candidates_into(self.geometry, tile, d, &mut self.candidate_buf);
        &self.candidate_buf
    }

    /// [`Self::predict`] with per-call overrides — see
    /// [`PredictOptions`].
    pub fn predict_with(
        &mut self,
        store: &TileStore,
        k: usize,
        opts: PredictOptions<'_>,
    ) -> Vec<TileId> {
        let PredictOptions {
            phase,
            scheduler,
            hotspots,
            distance,
        } = opts;
        let phase = phase.unwrap_or_else(|| self.current_phase());
        let distance = distance.unwrap_or(self.config.distance);
        self.last_pair_cache = PairCacheStats::default();
        let Some(last) = self.history.last() else {
            return Vec::new();
        };
        let last = *last;
        // Refreshed before `ctx` borrows the engine; steady state is
        // one atomic load (unused on the scheduler path, which owns
        // its own index refresh).
        let index = self.refresh_sig_cache(store);
        self.candidates(last.tile, distance);
        let candidates = &self.candidate_buf;
        let ctx = PredictionContext {
            request: last,
            history: &self.history,
            candidates,
            geometry: self.geometry,
            store,
            roi: self.roi.roi(),
        };
        let (ab_slots, sb_slots) = self.config.strategy.allocate(phase, k);
        // A list is read for its own slots, and past them only to
        // backfill the other when that one is too short to fill the
        // budget (`merge_allocated`). AB ranks every candidate, so it
        // is never too short: SB ranks only where it has a slot (not
        // under `AbOnly`, in Navigation under `Original`, or at small
        // budgets outside Sensemaking). AB is skipped in turn where SB
        // fills the budget alone (Sensemaking under `Updated`,
        // `SbOnly`).
        let mut sb_list = Vec::new();
        if sb_slots > 0 {
            (sb_list, self.last_pair_cache) = match (scheduler, &index) {
                // Cross-session path: the scheduler owns index refresh,
                // scratch and the shared pair cache.
                (Some(s), _) => s.rank_counted(candidates, ctx.reference_tiles()),
                // SB: frozen-index fast path through the pair cache
                // when metadata exists (steady state probes instead of
                // dividing); the locked reference path only serves
                // metadata-free stores.
                (None, Some(ix)) => {
                    self.pair_cache.fit(ix);
                    self.sb.rank_tiles(
                        ix,
                        candidates,
                        ctx.reference_tiles(),
                        &mut self.pair_cache,
                        &mut self.scratch,
                    )
                }
                (None, None) => (self.sb.rank(&ctx), PairCacheStats::default()),
            };
        }
        let sb_fills_budget = sb_list.len() >= (ab_slots + sb_slots).min(candidates.len());
        let mut ab_list = if ab_slots > 0 || !sb_fills_budget {
            self.ab.rank(&ctx)
        } else {
            Vec::new()
        };
        // Cross-session hotspot prior: re-rank each model's *full*
        // candidate list toward nearby communal hotspots before the
        // budget split, so the prior can change which tiles make the
        // top-k (not just their order). Opt-in, phase-gated, and inert
        // without a prior — the default path is bit-identical.
        if let Some(blend) = self.config.hotspot {
            if blend.applies_in(phase) && !hotspots.is_empty() {
                boost_toward_hotspots(&mut ab_list, last.tile, hotspots, blend.radius);
                boost_toward_hotspots(&mut sb_list, last.tile, hotspots, blend.radius);
            }
        }
        merge_allocated(&ab_list, &sb_list, ab_slots, sb_slots)
    }

    /// Enables (or disables) cross-session hotspot blending after
    /// construction — how the multi-user drivers flip the model on for
    /// an A/B measurement without rebuilding the engine.
    pub fn set_hotspot_blend(&mut self, blend: Option<HotspotBlend>) {
        self.config.hotspot = blend;
    }

    /// The engine's SB model (e.g. to clone into a
    /// [`crate::batch::PredictScheduler`] so the shared and local
    /// paths share one configuration).
    pub fn sb_model(&self) -> &SbRecommender {
        &self.sb
    }

    /// The session history (read-only).
    pub fn history(&self) -> &SessionHistory {
        &self.history
    }

    /// The user's most recent ROI.
    pub fn roi(&self) -> &[TileId] {
        self.roi.roi()
    }

    /// The configured geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Resets per-session state (history + ROI) without retraining.
    pub fn reset_session(&mut self) {
        self.history.clear();
        self.roi.reset();
    }
}

/// Rule-based phase fallback: zooms → Navigation; pans in the deepest
/// third of the pyramid → Sensemaking; everything else → Foraging.
pub fn heuristic_phase(geometry: Geometry, request: &Request) -> Phase {
    match request.mv {
        Some(m) if m.is_zoom_in() || m.is_zoom_out() => Phase::Navigation,
        Some(m) if m.is_pan() => {
            let deep_threshold = (geometry.levels as f64 * 2.0 / 3.0).floor() as u8;
            if request.tile.level >= deep_threshold {
                Phase::Sensemaking
            } else {
                Phase::Foraging
            }
        }
        _ => Phase::Foraging,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::{distributions_computed, trees_built};
    use crate::sb::SbConfig;
    use crate::signature::SignatureKind;
    use fc_array::{IoMode, LatencyModel, SimClock};
    use fc_tiles::{Move, Quadrant};

    fn geometry() -> Geometry {
        Geometry::new(4, 512, 512, 64, 64)
    }

    fn store(g: Geometry) -> TileStore {
        let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
        // Give every tile a histogram signature so SB has something.
        for id in g.all_tiles() {
            let v = f64::from(id.x % 3) / 3.0;
            s.put_meta(id, SignatureKind::Hist1D.meta_name(), vec![v, 1.0 - v]);
        }
        s
    }

    fn engine(strategy: AllocationStrategy) -> PredictionEngine {
        let r = Move::PanRight.index() as u16;
        let traces: Vec<Vec<u16>> = vec![vec![r; 10]];
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        PredictionEngine::new(
            geometry(),
            AbRecommender::train(refs, 3),
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy,
                ..EngineConfig::default()
            },
        )
    }

    /// Two stores with identical epoch counters must not share a
    /// cached index: the cache key carries the store identity.
    #[test]
    fn switching_stores_refreshes_the_index() {
        let g = geometry();
        let s_by_x = store(g); // signature class = x % 3
        let s_by_y = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
        for id in g.all_tiles() {
            let v = f64::from(id.y % 3) / 3.0;
            s_by_y.put_meta(id, SignatureKind::Hist1D.meta_name(), vec![v, 1.0 - v]);
        }
        assert_eq!(s_by_x.meta_epoch(), s_by_y.meta_epoch(), "equal epochs");
        assert_ne!(s_by_x.store_id(), s_by_y.store_id());
        let mut e = engine(AllocationStrategy::Updated);
        // Deep pan → Sensemaking → all slots to SB.
        e.observe(Request::initial(TileId::new(3, 4, 4)));
        e.observe(Request::new(TileId::new(3, 4, 5), Some(Move::PanRight)));
        // Warm the cache on the x-keyed store, then predict against the
        // y-keyed store: the top tile must match the y-keyed classes.
        let px = e.predict(&s_by_x, 4);
        assert_eq!(px[0].x % 3, 5 % 3, "x-keyed store ranks by x class");
        let py = e.predict(&s_by_y, 4);
        assert_eq!(py[0].y % 3, 4 % 3, "y-keyed store ranks by y class");
    }

    /// A metadata write after the index froze must be visible to the
    /// next prediction (epoch invalidation end to end).
    #[test]
    fn metadata_writes_invalidate_cached_index() {
        let g = geometry();
        let s = store(g);
        let mut e = engine(AllocationStrategy::Updated);
        e.observe(Request::initial(TileId::new(3, 4, 4)));
        e.observe(Request::new(TileId::new(3, 4, 5), Some(Move::PanRight)));
        let before = e.predict(&s, 4);
        assert_eq!(before[0].x % 3, 5 % 3, "x-keyed classes before rewrite");
        // Rewrite every tile's signature from x-keyed to y-keyed classes.
        for id in g.all_tiles() {
            let v = f64::from(id.y % 3) / 3.0;
            s.put_meta(id, SignatureKind::Hist1D.meta_name(), vec![v, 1.0 - v]);
        }
        let after = e.predict(&s, 4);
        assert_eq!(after[0].y % 3, 4 % 3, "y-keyed classes after rewrite");
        assert_ne!(before[0], after[0], "stale index would repeat {before:?}");
    }

    #[test]
    fn empty_engine_predicts_nothing() {
        let mut e = engine(AllocationStrategy::Updated);
        let s = store(geometry());
        assert!(e.predict(&s, 5).is_empty());
        assert_eq!(e.current_phase(), Phase::Foraging);
    }

    #[test]
    fn predictions_respect_budget_and_dedup() {
        let mut e = engine(AllocationStrategy::Updated);
        let s = store(geometry());
        // Level 2 of 4 is interior: all nine moves are legal at (2,2,2).
        e.observe(Request::initial(TileId::new(2, 2, 0)));
        for x in 1..=2 {
            e.observe(Request::new(TileId::new(2, 2, x), Some(Move::PanRight)));
        }
        for k in 0..=9 {
            let p = e.predict(&s, k);
            assert!(p.len() <= k);
            let mut d = p.clone();
            d.sort();
            d.dedup();
            assert_eq!(d.len(), p.len(), "k={k}");
        }
        // Budget 9 fills completely at an interior tile.
        let full = e.predict(&s, 9);
        assert_eq!(full.len(), 9);
        // The options call with the defaults spelled out is `predict`.
        let spelled = PredictOptions {
            phase: Some(e.current_phase()),
            scheduler: None,
            hotspots: &[],
            distance: Some(e.config().distance),
        };
        assert_eq!(e.predict_with(&s, 9, spelled), full);
        assert_eq!(e.predict_with(&s, 9, PredictOptions::default()), full);
    }

    /// Each model is ranked only when it has slots (either list here
    /// always fills its own), and skipping the other changes no
    /// prediction: every strategy × phase × budget equals the merge of
    /// both lists ranked eagerly, at d = 1 and at the dwell distance.
    /// AB's work is counted in distributions, SB's in the pairs its
    /// fill probed.
    #[test]
    fn lazy_ab_ranking_matches_eager_merge() {
        let s = store(geometry());
        for strategy in [
            AllocationStrategy::Original,
            AllocationStrategy::Updated,
            AllocationStrategy::AbOnly,
            AllocationStrategy::SbOnly,
        ] {
            let mut e = engine(strategy);
            e.observe(Request::initial(TileId::new(2, 2, 0)));
            for x in 1..=2 {
                e.observe(Request::new(TileId::new(2, 2, x), Some(Move::PanRight)));
            }
            let last = *e.history.last().unwrap();
            for distance in [1, 2] {
                let candidates = e.geometry.candidates(last.tile, distance);
                let ctx = PredictionContext {
                    request: last,
                    history: &e.history,
                    candidates: &candidates,
                    geometry: e.geometry,
                    store: &s,
                    roi: e.roi.roi(),
                };
                let (ab_list, sb_list) = (e.ab.rank(&ctx), e.sb.rank(&ctx));
                for phase in Phase::ALL {
                    for k in 0..=9 {
                        let (ab_slots, sb_slots) = strategy.allocate(phase, k);
                        let eager = merge_allocated(&ab_list, &sb_list, ab_slots, sb_slots);
                        let opts = PredictOptions {
                            phase: Some(phase),
                            distance: Some(distance),
                            ..PredictOptions::default()
                        };
                        let case = format!("{strategy:?} {phase} k={k} d={distance}");
                        let before = distributions_computed();
                        assert_eq!(e.predict_with(&s, k, opts), eager, "{case}");
                        let ab_ranked = distributions_computed() > before;
                        assert_eq!(ab_ranked, ab_slots > 0, "{case}");
                        let filled = e.last_pair_cache();
                        let pairs = if sb_slots > 0 { candidates.len() } else { 0 };
                        assert_eq!(filled.hits + filled.misses, pairs as u64, "{case}");
                    }
                }
            }
        }
    }

    /// An engine over `g` whose AB model bound its move trees to
    /// `memo` first.
    fn engine_bound_to(g: Geometry, memo: Geometry) -> PredictionEngine {
        let open = |g| {
            PredictionEngine::new(
                g,
                AbRecommender::train([[0u16; 4].as_slice()], 3),
                SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
                PhaseSource::Heuristic,
                EngineConfig::default(),
            )
        };
        let bound = open(memo);
        PredictionEngine::new(
            g,
            bound.ab.clone(),
            bound.sb.clone(),
            PhaseSource::Heuristic,
            EngineConfig::default(),
        )
    }

    /// The engine's candidate list is `Geometry::candidates`, order
    /// included, for every tile of the benchmark's two grids (`ctx32`,
    /// `ctx64`) and of a ragged one, at d = 1, 2, 3; and past the move
    /// trees' depth (d = 4) and on a geometry the AB model's memo is not
    /// bound to, on a sample of tiles.
    #[test]
    fn candidates_are_the_geometry_bfs_on_every_tile() {
        let other = Geometry::new(4, 512, 512, 64, 64);
        for g in [
            Geometry::new(6, 1024, 1024, 32, 32),
            Geometry::new(5, 1024, 1024, 64, 64),
            Geometry::new(3, 300, 500, 64, 64),
        ] {
            let mut e = engine_bound_to(g, g);
            let mut elsewhere = engine_bound_to(g, other);
            for (i, tile) in g.all_tiles().enumerate() {
                for d in 1..=3 {
                    let want = g.candidates(tile, d);
                    assert_eq!(e.candidates(tile, d), want, "{tile} d = {d}");
                    if i % 7 == 0 {
                        assert_eq!(elsewhere.candidates(tile, d), want, "{tile} d = {d}");
                    }
                }
                if i % 31 == 0 {
                    assert_eq!(e.candidates(tile, 4), g.candidates(tile, 4), "{tile}");
                }
            }
        }
    }

    /// The candidate set builds a move tree only where AB's d = 2 and
    /// d = 3 rankings build one: never at d = 1, past d = 3, or off the
    /// memo.
    #[test]
    fn candidates_build_trees_only_on_the_memo_at_d2_and_d3() {
        let g = geometry();
        let mut e = engine_bound_to(g, g);
        let mut elsewhere = engine_bound_to(g, Geometry::new(6, 1024, 1024, 32, 32));
        let tile = TileId::new(2, 1, 1);
        let before = trees_built();
        e.candidates(tile, 1);
        e.candidates(tile, 4);
        elsewhere.candidates(tile, 2);
        elsewhere.candidates(tile, 3);
        assert_eq!(trees_built(), before);
        e.candidates(tile, 2);
        e.candidates(tile, 3);
        assert_eq!(trees_built(), before + 1, "one tree serves d = 2 and 3");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The same on any grid shape, any tile, d = 0..4, with the AB
        /// model's memo bound to the engine's geometry or to another.
        #[test]
        fn candidates_match_the_geometry_bfs(
            levels in 1u8..8,
            raw_h in 1usize..=300,
            raw_w in 1usize..=300,
            tile_h in 1usize..=64,
            tile_w in 1usize..=64,
            pick in proptest::prelude::any::<u64>(),
            d in 0usize..5,
            bound_elsewhere in proptest::prelude::any::<bool>(),
        ) {
            let g = Geometry::new(levels, raw_h, raw_w, tile_h, tile_w);
            let memo = if bound_elsewhere { geometry() } else { g };
            let mut e = engine_bound_to(g, memo);
            let level = (pick % u64::from(levels)) as u8;
            let (rows, cols) = g.tiles_at(level);
            let tile = TileId::new(level, (pick >> 8) as u32 % rows, (pick >> 36) as u32 % cols);
            let want = g.candidates(tile, d);
            proptest::prop_assert_eq!(e.candidates(tile, d), want.as_slice());
        }
    }

    #[test]
    fn pan_run_predicts_continuation_first() {
        let mut e = engine(AllocationStrategy::AbOnly);
        let s = store(geometry());
        e.observe(Request::initial(TileId::new(3, 4, 1)));
        for x in 2..5 {
            e.observe(Request::new(TileId::new(3, 4, x), Some(Move::PanRight)));
        }
        let p = e.predict(&s, 3);
        assert_eq!(p[0], TileId::new(3, 4, 5));
    }

    #[test]
    fn heuristic_phase_rules() {
        let g = geometry();
        let zoom = Request::new(TileId::new(2, 0, 0), Some(Move::ZoomIn(Quadrant::Nw)));
        assert_eq!(heuristic_phase(g, &zoom), Phase::Navigation);
        let deep_pan = Request::new(TileId::new(3, 1, 1), Some(Move::PanRight));
        assert_eq!(heuristic_phase(g, &deep_pan), Phase::Sensemaking);
        let shallow_pan = Request::new(TileId::new(1, 0, 0), Some(Move::PanRight));
        assert_eq!(heuristic_phase(g, &shallow_pan), Phase::Foraging);
        let initial = Request::initial(TileId::ROOT);
        assert_eq!(heuristic_phase(g, &initial), Phase::Foraging);
    }

    #[test]
    fn sensemaking_uses_sb_only_under_updated_strategy() {
        let mut e = engine(AllocationStrategy::Updated);
        let s = store(geometry());
        // Deep-level pan → Sensemaking heuristic → all slots to SB.
        e.observe(Request::initial(TileId::new(3, 4, 4)));
        e.observe(Request::new(TileId::new(3, 4, 5), Some(Move::PanRight)));
        let phase = e.current_phase();
        assert_eq!(phase, Phase::Sensemaking);
        let p = e.predict(&s, 4);
        assert_eq!(p.len(), 4);
        // SB ranks by signature similarity: top prediction should share
        // the (x % 3) signature class of the ROI fallback (current tile).
        let cur_class = 5 % 3;
        assert_eq!(p[0].x % 3, cur_class);
    }

    #[test]
    fn hotspot_prior_is_inert_unless_opted_in_and_gated() {
        let s = store(geometry());
        // A hotspot up-and-right of the walk; radius wide enough.
        let hotspots = [(TileId::new(2, 0, 4), 50u64)];
        let observe = |e: &mut PredictionEngine| {
            e.observe(Request::initial(TileId::new(2, 2, 1)));
            e.observe(Request::new(TileId::new(2, 2, 2), Some(Move::PanRight)));
        };
        // Without EngineConfig::hotspot, a prior changes nothing.
        let mut plain = engine(AllocationStrategy::AbOnly);
        observe(&mut plain);
        let baseline = plain.predict(&s, 4);
        let mut ignored = engine(AllocationStrategy::AbOnly);
        observe(&mut ignored);
        let with_prior = |hotspots| PredictOptions {
            hotspots,
            ..PredictOptions::default()
        };
        assert_eq!(
            ignored.predict_with(&s, 4, with_prior(&hotspots)),
            baseline,
            "prior must be inert without the config opt-in"
        );
        // Opted in: the toward-hotspot candidate overtakes the AB
        // continuation.
        let mut blended = engine(AllocationStrategy::AbOnly);
        blended.set_hotspot_blend(Some(HotspotBlend {
            radius: 8,
            phases: [true, true, true],
        }));
        observe(&mut blended);
        let boosted = blended.predict_with(&s, 4, with_prior(&hotspots));
        assert_ne!(boosted, baseline, "prior must re-rank when opted in");
        assert!(
            boosted[0].manhattan(&hotspots[0].0) < TileId::new(2, 2, 2).manhattan(&hotspots[0].0),
            "top prediction approaches the hotspot: {boosted:?}"
        );
        // Same engine, empty prior → exactly the baseline again.
        assert_eq!(blended.predict_with(&s, 4, with_prior(&[])), baseline);
        // Phase gate closed for the inferred phase → baseline too.
        let mut gated = engine(AllocationStrategy::AbOnly);
        gated.set_hotspot_blend(Some(HotspotBlend {
            radius: 8,
            phases: [false, false, false],
        }));
        observe(&mut gated);
        assert_eq!(gated.predict_with(&s, 4, with_prior(&hotspots)), baseline);
    }

    #[test]
    fn observe_tracks_roi() {
        let mut e = engine(AllocationStrategy::Updated);
        e.observe(Request::initial(TileId::new(1, 0, 0)));
        e.observe(Request::new(
            TileId::new(2, 0, 0),
            Some(Move::ZoomIn(Quadrant::Nw)),
        ));
        e.observe(Request::new(TileId::new(2, 0, 1), Some(Move::PanRight)));
        e.observe(Request::new(TileId::new(1, 0, 0), Some(Move::ZoomOut)));
        assert_eq!(e.roi(), &[TileId::new(2, 0, 0), TileId::new(2, 0, 1)]);
        e.reset_session();
        assert!(e.roi().is_empty());
        assert!(e.history().last().is_none());
    }
}
