//! Golden regression tests for prediction through the dataset-shared
//! pair cache: an engine ranking through a [`PredictScheduler`] must
//! predict exactly what it predicts alone — step by step beside a twin
//! engine, and with several sessions' threads on one scheduler at once.

use fc_array::{DenseArray, Schema};
use fc_core::batch::{BatchConfig, PredictScheduler};
use fc_core::engine::PhaseSource;
use fc_core::sb::{SbConfig, SbRecommender};
use fc_core::signature::{attach_signatures, SignatureConfig};
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictOptions, PredictionEngine, Request,
};
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
            strategy: AllocationStrategy::Updated,
            ..EngineConfig::default()
        },
    )
}

/// Predict options routing the SB ranking through `scheduler`.
fn through(scheduler: &PredictScheduler) -> PredictOptions<'_> {
    PredictOptions {
        scheduler: Some(scheduler),
        ..PredictOptions::default()
    }
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

    // Twin engines observe the same walk; one predicts through the
    // scheduler, the other locally. Every prediction list must match.
    let mut batched = engine(g);
    let mut local = engine(g);
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
        batched.observe(Request::new(t, mv));
        local.observe(Request::new(t, mv));
        for k in [1, 4, 9] {
            let a = batched.predict_with(pyramid.store(), k, through(&scheduler));
            let b = local.predict(pyramid.store(), k);
            assert_eq!(a, b, "step {i}, k={k}");
        }
    }
}

#[test]
fn concurrent_scheduler_fan_in_matches_solo_predictions() {
    let pyramid = seeded_pyramid();
    let g = pyramid.geometry();
    let scheduler = Arc::new(PredictScheduler::new(
        SbRecommender::new(SbConfig::all_equal()),
        pyramid.clone(),
        BatchConfig::default(),
    ));
    const N: usize = 6;
    let results: Vec<(usize, Vec<TileId>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let scheduler = scheduler.clone();
                let pyramid = pyramid.clone();
                scope.spawn(move || {
                    let mut e = engine(g);
                    let start = TileId::new(2, (i % 4) as u32, (i % 3) as u32);
                    e.observe(Request::initial(start));
                    e.observe(Request::new(
                        g.apply(start, Move::PanRight).unwrap_or(start),
                        Some(Move::PanRight),
                    ));
                    (i, e.predict_with(pyramid.store(), 6, through(&scheduler)))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, got) in results {
        let mut e = engine(g);
        let start = TileId::new(2, (i % 4) as u32, (i % 3) as u32);
        e.observe(Request::initial(start));
        e.observe(Request::new(
            g.apply(start, Move::PanRight).unwrap_or(start),
            Some(Move::PanRight),
        ));
        let solo = e.predict(pyramid.store(), 6);
        assert_eq!(got, solo, "session {i}");
    }
    assert_eq!(scheduler.stats().jobs, N as u64);
}
