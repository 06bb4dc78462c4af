//! Golden regression test: the frozen-index SB fast path must be
//! indistinguishable from the reference per-pair `meta_vec` path — not
//! just the same ranking, but bit-identical distances — on a real
//! pyramid with all four signatures attached.

use fc_array::{DenseArray, Schema};
use fc_core::engine::PhaseSource;
use fc_core::paircache::PairCache;
use fc_core::sb::{PredictScratch, SbConfig, SbRecommender};
use fc_core::signature::{attach_signatures, SignatureConfig, SignatureKind};
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictionContext, PredictionEngine,
    Recommender, Request, SessionHistory,
};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use std::sync::Arc;

/// A deterministic 128×128 terrain with enough structure that the four
/// signatures disagree between tiles.
fn seeded_pyramid() -> Arc<Pyramid> {
    let side = 128;
    let schema = Schema::grid2d("G", side, side, &["v"]).unwrap();
    let data: Vec<f64> = (0..side * side)
        .map(|i| {
            let y = (i / side) as f64;
            let x = (i % side) as f64;
            ((x * 0.17).sin() * (y * 0.11).cos()).abs() * 0.8 + (x + y) / (4.0 * side as f64)
        })
        .collect();
    let base = DenseArray::from_vec(schema, data).unwrap();
    let pyramid = Arc::new(
        PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(3, 32, &["v"]))
            .unwrap(),
    );
    let mut cfg = SignatureConfig::ndsi("v");
    cfg.domain = (0.0, 1.0);
    attach_signatures(&pyramid, &cfg);
    pyramid
}

#[test]
fn indexed_path_is_bit_identical_to_meta_vec_path() {
    let pyramid = seeded_pyramid();
    let store = pyramid.store();
    let g = pyramid.geometry();
    let index = store.signature_index().expect("signatures attached");
    let mut scratch = PredictScratch::default();
    // Disabled cache: every pair of every case runs the χ² kernel.
    let mut no_cache = PairCache::new(0);
    let mut fast = Vec::new();

    for cfg in [
        SbConfig::all_equal(),
        SbConfig::single(SignatureKind::Hist1D),
        SbConfig::single(SignatureKind::Sift),
        SbConfig {
            manhattan_penalty: false,
            physical_distance: false,
            ..SbConfig::all_equal()
        },
    ] {
        let sb = SbRecommender::new(cfg);
        let mut cases = 0usize;
        for cur in g.all_tiles() {
            let candidates = g.candidates(cur, 1);
            if candidates.is_empty() {
                continue;
            }
            // ROI variants: the current tile (pre-ROI fallback), a
            // single deep tile, and a multi-tile ROI.
            let rois: [&[TileId]; 3] = [
                &[cur],
                &[TileId::new(2, 1, 1)],
                &[
                    TileId::new(2, 0, 0),
                    TileId::new(2, 2, 3),
                    TileId::new(1, 1, 1),
                ],
            ];
            for roi in rois {
                let reference = sb.distances(store, &candidates, roi);
                sb.distances_into(
                    &index,
                    &candidates,
                    roi,
                    &mut no_cache,
                    &mut scratch,
                    &mut fast,
                );
                assert_eq!(reference.len(), fast.len());
                for (r, f) in reference.iter().zip(&fast) {
                    assert_eq!(r.0, f.0, "candidate order must match");
                    assert_eq!(
                        r.1.to_bits(),
                        f.1.to_bits(),
                        "distance for {} vs roi {roi:?} differs: {} vs {}",
                        r.0,
                        r.1,
                        f.1
                    );
                }
                cases += 1;
            }
        }
        assert!(cases > 50, "expected broad coverage, got {cases} cases");
    }
}

#[test]
fn indexed_rank_matches_reference_rank() {
    let pyramid = seeded_pyramid();
    let store = pyramid.store();
    let g = pyramid.geometry();
    let index = store.signature_index().unwrap();
    let sb = SbRecommender::new(SbConfig::all_equal());
    let mut scratch = PredictScratch::default();
    let mut cache = PairCache::for_index(&index);

    let mut h = SessionHistory::new(3);
    let cur = Request::new(TileId::new(2, 2, 2), Some(Move::PanRight));
    h.push(Request::new(TileId::new(2, 2, 1), Some(Move::PanRight)));
    h.push(cur);
    for roi in [
        vec![],
        vec![TileId::new(2, 1, 2)],
        vec![TileId::new(2, 1, 2), TileId::new(2, 3, 1)],
    ] {
        let candidates = g.candidates(cur.tile, 2);
        let ctx = PredictionContext {
            request: cur,
            history: &h,
            candidates: &candidates,
            geometry: g,
            store,
            roi: &roi,
        };
        let reference = sb.rank(&ctx);
        let fast = sb.rank_indexed_cached(&ctx, &index, &mut cache, &mut scratch);
        assert_eq!(reference, fast, "roi {roi:?}");
    }
}

/// The whole engine, fast path against a clone running the reference
/// path (by never freezing an index): identical prefetch decisions over
/// a scripted walk.
#[test]
fn engine_predictions_unchanged_by_index() {
    let pyramid = seeded_pyramid();
    let g = pyramid.geometry();
    let traces: Vec<Vec<u16>> = vec![vec![Move::PanRight.index() as u16; 10]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    let mk_engine = || {
        PredictionEngine::new(
            g,
            AbRecommender::train(refs.clone(), 3),
            SbRecommender::new(SbConfig::all_equal()),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy: AllocationStrategy::Updated,
                ..EngineConfig::default()
            },
        )
    };
    let mut fast = mk_engine();
    let mut walk = vec![Request::initial(TileId::new(2, 2, 0))];
    for x in 1..=3 {
        walk.push(Request::new(TileId::new(2, 2, x), Some(Move::PanRight)));
    }
    walk.push(Request::new(TileId::new(1, 1, 1), Some(Move::ZoomOut)));

    // Reference rankings computed through the trait path on the same
    // store data.
    let mut reference = mk_engine();
    let mut h = SessionHistory::new(3);
    for (step, req) in walk.iter().enumerate() {
        fast.observe(*req);
        reference.observe(*req);
        h.push(*req);
        let p_fast = fast.predict(pyramid.store(), 5);
        let p_ref = reference_predict(&reference, pyramid.store(), &h, *req, 5, g);
        assert_eq!(p_fast, p_ref, "step {step}");
    }
}

/// Recomputes a prediction through the un-indexed recommender path,
/// mirroring `PredictionEngine::predict_with`'s merge.
fn reference_predict(
    engine: &PredictionEngine,
    store: &fc_tiles::TileStore,
    history: &SessionHistory,
    last: Request,
    k: usize,
    g: fc_tiles::Geometry,
) -> Vec<TileId> {
    use fc_core::alloc::merge_allocated;
    let candidates = g.candidates(last.tile, engine.config().distance);
    let ctx = PredictionContext {
        request: last,
        history,
        candidates: &candidates,
        geometry: g,
        store,
        roi: engine.roi(),
    };
    let traces: Vec<Vec<u16>> = vec![vec![Move::PanRight.index() as u16; 10]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    let ab = AbRecommender::train(refs, 3);
    let sb = SbRecommender::new(SbConfig::all_equal());
    let phase = engine.current_phase();
    let (ab_slots, sb_slots) = engine.config().strategy.allocate(phase, k);
    let ab_list = if ab_slots > 0 || sb_slots > 0 {
        ab.rank(&ctx)
    } else {
        Vec::new()
    };
    let sb_list = sb.rank(&ctx);
    merge_allocated(&ab_list, &sb_list, ab_slots, sb_slots)
}
