//! Golden regression tests for prediction through the dataset's shared
//! χ² pair table: every engine over one pyramid ranks through the one
//! table its signature index build carries, so a pair one session
//! computed is a hit for the next — and every ranking must still be
//! exactly the locked reference path's (`SbRecommender::distances`),
//! step by step beside a twin engine, through a [`PredictScheduler`],
//! and with sessions on several threads at once.

use fc_array::{DenseArray, Schema};
use fc_core::batch::{BatchConfig, PredictScheduler};
use fc_core::engine::PhaseSource;
use fc_core::sb::{SbConfig, SbRecommender};
use fc_core::signature::{attach_signatures, SignatureConfig};
use fc_core::{AbRecommender, AllocationStrategy, EngineConfig, PredictionEngine, Request};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use std::sync::Arc;

/// A deterministic pyramid with all four signatures attached (the same
/// construction as `golden_sb.rs`).
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

/// An engine whose every prediction is its SB ranking (`SbOnly`).
fn engine(g: fc_tiles::Geometry) -> PredictionEngine {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 12]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    PredictionEngine::new(
        g,
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::all_equal()),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::SbOnly,
            ..EngineConfig::default()
        },
    )
}

/// The candidates and reference tiles of an engine's last request.
fn job(e: &mut PredictionEngine) -> (Vec<TileId>, Vec<TileId>) {
    let last = e.history().last().expect("a request").tile;
    let refs = if e.roi().is_empty() {
        vec![last]
    } else {
        e.roi().to_vec()
    };
    (e.candidates(last, 1).to_vec(), refs)
}

/// The reference ranking: `SbRecommender::distances` over the store's
/// locked metadata, ascending, ties by tile id.
fn reference(pyramid: &Pyramid, cands: &[TileId], refs: &[TileId]) -> Vec<TileId> {
    let sb = SbRecommender::new(SbConfig::all_equal());
    let mut scored = sb.distances(pyramid.store(), cands, refs);
    scored.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("finite distances")
            .then(a.0.cmp(&b.0))
    });
    scored.into_iter().map(|(t, _)| t).collect()
}

/// Probes the engine's last predict made in the shared table.
fn probes(e: &PredictionEngine) -> u64 {
    let p = e.last_pair_cache();
    p.hits + p.misses
}

#[test]
fn scheduler_predictions_match_unbatched_engine_exactly() {
    let pyramid = seeded_pyramid();
    let g = pyramid.geometry();
    let scheduler = PredictScheduler::new(
        SbRecommender::new(SbConfig::all_equal()),
        pyramid.clone(),
        BatchConfig::default(),
    );
    // Twin engines observe the same walk and predict in turn: the
    // second's ranking probes only pairs the first wrote, and both —
    // and the scheduler on the same job — rank as the reference does.
    let mut first = engine(g);
    let mut second = engine(g);
    let walk = [
        (TileId::new(2, 1, 0), None),
        (TileId::new(2, 1, 1), Some(Move::PanRight)),
        (TileId::new(2, 1, 2), Some(Move::PanRight)),
        (TileId::new(1, 0, 1), Some(Move::ZoomOut)),
        (
            TileId::new(2, 1, 2),
            Some(Move::ZoomIn(fc_tiles::Quadrant::Sw)),
        ),
        (TileId::new(2, 2, 2), Some(Move::PanDown)),
    ];
    for (i, &(t, mv)) in walk.iter().enumerate() {
        first.observe(Request::new(t, mv));
        second.observe(Request::new(t, mv));
        let (cands, refs) = job(&mut first);
        let want = reference(&pyramid, &cands, &refs);
        for k in [1, 4, 9] {
            let a = first.predict(pyramid.store(), k);
            let b = second.predict(pyramid.store(), k);
            assert_eq!(a, want[..k.min(want.len())], "step {i}, k={k}");
            assert_eq!(b, a, "step {i}, k={k}");
            let pairs = second.last_pair_cache();
            assert_eq!((pairs.hits, pairs.misses), (probes(&first), 0), "step {i}");
        }
        assert_eq!(scheduler.rank(&cands, &refs), want, "step {i}");
    }
}

#[test]
fn concurrent_scheduler_fan_in_matches_solo_predictions() {
    let pyramid = seeded_pyramid();
    let g = pyramid.geometry();
    let start = |i: usize| TileId::new(2, (i % 4) as u32, (i % 3) as u32);
    // Engines on their own threads over one store: each ranks through
    // the one table, and each ranking is the reference's.
    const N: usize = 6;
    let probed: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let pyramid = &pyramid;
                scope.spawn(move || {
                    let mut e = engine(g);
                    let mut probed = 0;
                    e.observe(Request::initial(start(i)));
                    for _ in 0..3 {
                        let (cands, refs) = job(&mut e);
                        let got = e.predict(pyramid.store(), 9);
                        assert_eq!(got, reference(pyramid, &cands, &refs), "session {i}");
                        probed += probes(&e);
                        let last = e.history().last().unwrap().tile;
                        let next = g.apply(last, Move::PanRight).unwrap_or(last);
                        e.observe(Request::new(next, Some(Move::PanRight)));
                    }
                    probed
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let index = pyramid.store().signature_index().unwrap();
    let sb = SbRecommender::new(SbConfig::all_equal());
    let (table, _) = sb.pair_table(&index).expect("the sessions made it");
    assert_eq!(
        table.hits + table.misses,
        probed,
        "every probe in one table"
    );
    assert!(table.hits > 0, "sessions share pairs: {table:?}");
}
