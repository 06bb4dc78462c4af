//! Golden regression tests for cross-session predict batching: a batch
//! of several sessions' jobs must be **bit-identical**, job by job, to
//! running each job alone — through the raw distance API, at batch
//! widths far past any interactive tick, and end-to-end through the
//! [`PredictScheduler`] under real thread fan-in.

use fc_array::{DenseArray, Schema};
use fc_core::batch::{BatchConfig, PredictScheduler};
use fc_core::engine::PhaseSource;
use fc_core::paircache::PairCache;
use fc_core::sb::{PredictScratch, SbBatchJob, SbConfig, SbRecommender};
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

fn assert_bit_identical(a: &[(TileId, f64)], b: &[(TileId, f64)], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: lengths");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.0, y.0, "{label}: candidate order");
        assert_eq!(
            x.1.to_bits(),
            y.1.to_bits(),
            "{label}: distance bits for {:?} ({} vs {})",
            x.0,
            x.1,
            y.1
        );
    }
}

#[test]
fn batched_jobs_are_bit_identical_to_solo_runs() {
    let pyramid = seeded_pyramid();
    let store = pyramid.store();
    let g = pyramid.geometry();
    let index = store.signature_index().expect("signatures attached");
    let sb = SbRecommender::new(SbConfig::all_equal());

    // Heterogeneous jobs: different candidate sets, different ROI
    // sizes (including the current-tile fallback shape and an
    // out-of-geometry candidate that ranks as "missing").
    let job_specs: Vec<(Vec<TileId>, Vec<TileId>)> = vec![
        (
            g.candidates(TileId::new(2, 2, 2), 1),
            vec![TileId::new(2, 1, 1), TileId::new(2, 3, 3)],
        ),
        (
            g.candidates(TileId::new(1, 0, 1), 1),
            vec![TileId::new(1, 1, 1)],
        ),
        (
            g.candidates(TileId::new(2, 0, 0), 2),
            vec![
                TileId::new(2, 0, 1),
                TileId::new(2, 1, 0),
                TileId::new(1, 0, 0),
                TileId::new(2, 3, 1),
            ],
        ),
        // Degenerate: single candidate, single reference.
        (vec![TileId::new(2, 3, 0)], vec![TileId::new(2, 0, 3)]),
    ];
    let jobs: Vec<SbBatchJob<'_>> = job_specs
        .iter()
        .map(|(c, r)| SbBatchJob {
            candidates: c,
            roi: r,
        })
        .collect();

    let mut batch_scratch = PredictScratch::default();
    let mut no_cache = PairCache::new(0);
    let mut outs = Vec::new();
    sb.distances_into(&index, &jobs, &mut no_cache, &mut batch_scratch, &mut outs);
    assert_eq!(outs.len(), jobs.len());

    let mut solo_scratch = PredictScratch::default();
    let mut solo = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let (c, r) = (job.candidates, job.roi);
        sb.distances_into(
            &index,
            std::slice::from_ref(job),
            &mut no_cache,
            &mut solo_scratch,
            &mut solo,
        );
        assert_bit_identical(&outs[j], &solo[0], &format!("job {j}"));
        // And transitively to the locked reference path.
        let reference = sb.distances(store, c, r);
        assert_bit_identical(&outs[j], &reference, &format!("job {j} vs reference"));
    }

    // Re-running the same batch with warm scratch changes nothing.
    let mut outs2 = Vec::new();
    sb.distances_into(&index, &jobs, &mut no_cache, &mut batch_scratch, &mut outs2);
    for (j, (a, b)) in outs.iter().zip(&outs2).enumerate() {
        assert_bit_identical(a, b, &format!("warm rerun job {j}"));
    }
}

#[test]
fn batches_past_the_parallel_threshold_stay_bit_identical() {
    let pyramid = seeded_pyramid();
    let store = pyramid.store();
    let g = pyramid.geometry();
    let index = store.signature_index().expect("signatures attached");
    let sb = SbRecommender::new(SbConfig::all_equal());

    // 40 jobs × 16 candidates = 640 total candidates in one fill —
    // far wider than any interactive tick. The results must be
    // bit-identical to solo runs.
    let all: Vec<TileId> = g.all_tiles().filter(|t| t.level == 2).collect();
    let job_specs: Vec<(Vec<TileId>, Vec<TileId>)> = (0..40)
        .map(|j| {
            let c: Vec<TileId> = all.iter().cycle().skip(j * 3).take(16).copied().collect();
            let r = vec![all[(j * 5) % all.len()], all[(j * 9 + 2) % all.len()]];
            (c, r)
        })
        .collect();
    let jobs: Vec<SbBatchJob<'_>> = job_specs
        .iter()
        .map(|(c, r)| SbBatchJob {
            candidates: c,
            roi: r,
        })
        .collect();
    assert!(jobs.iter().map(|j| j.candidates.len()).sum::<usize>() >= 512);

    let mut batch_scratch = PredictScratch::default();
    let mut no_cache = PairCache::new(0);
    let mut outs = Vec::new();
    sb.distances_into(&index, &jobs, &mut no_cache, &mut batch_scratch, &mut outs);
    let mut solo_scratch = PredictScratch::default();
    let mut solo = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        sb.distances_into(
            &index,
            std::slice::from_ref(job),
            &mut no_cache,
            &mut solo_scratch,
            &mut solo,
        );
        assert_bit_identical(&outs[j], &solo[0], &format!("wide batch job {j}"));
    }
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
    scheduler.register();

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
    scheduler.unregister();
}

#[test]
fn concurrent_scheduler_fan_in_matches_solo_predictions() {
    let pyramid = seeded_pyramid();
    let g = pyramid.geometry();
    let scheduler = Arc::new(PredictScheduler::new(
        SbRecommender::new(SbConfig::all_equal()),
        pyramid.clone(),
        BatchConfig {
            // A real fan-in window so this test exercises leader waits
            // and multi-job ticks, not just width-1 group commit.
            window: std::time::Duration::from_millis(5),
            ..BatchConfig::default()
        },
    ));
    const N: usize = 6;
    for _ in 0..N {
        scheduler.register();
    }
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
    let stats = scheduler.stats();
    assert_eq!(stats.jobs, N as u64);
    assert!(stats.largest_batch >= 2, "fan-in window should coalesce");
}
