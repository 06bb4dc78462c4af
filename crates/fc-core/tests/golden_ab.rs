//! Golden pins for the AB recommender's ranking.
//!
//! The fingerprints below were captured from the per-candidate depth-3
//! path search (`path_prob`, one DFS per candidate) before AB scored
//! every candidate from one forward expansion. Each folds, for a fixed
//! set of request tiles × move histories, the ranked list and the
//! `f64::to_bits` of every score at one prediction distance — so the
//! ranking must stay bit-identical, not just order-identical. The
//! model is the paper's Markov-3 chain trained on the synthetic study
//! traces.
//!
//! `study_traces_replay_is_pinned` was captured from the forward walk
//! before its distributions became folded Kneser–Ney rows and its path
//! endpoints a per-tile move tree: it replays every study request at
//! d = 2 and d = 3 on the dataset's own grid, through a model an engine
//! has bound to that grid and through one no engine has seen.

use fc_array::{IoMode, LatencyModel, SimClock};
use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, EngineConfig, PredictionContext, PredictionEngine, Recommender, Request,
    SbConfig, SbRecommender, SessionHistory,
};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_sim::study::{Study, StudyConfig};
use fc_sim::trace::Trace;
use fc_tiles::{Geometry, Move, Quadrant, TileId, TileStore};
use std::sync::OnceLock;

/// FNV-1a 64-bit fold; stable across platforms and runs.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn tile(&mut self, t: TileId) {
        self.u64(u64::from(t.level));
        self.u64(u64::from(t.y));
        self.u64(u64::from(t.x));
    }
}

/// The 18-user synthetic study over the tiny dataset: its tile grid and
/// its traces (built once for every test).
fn study() -> &'static (Geometry, Vec<Trace>) {
    static STUDY: OnceLock<(Geometry, Vec<Trace>)> = OnceLock::new();
    STUDY.get_or_init(|| {
        let dataset = StudyDataset::build(DatasetConfig::tiny());
        let study = Study::generate(&dataset, &StudyConfig::default());
        (dataset.pyramid.geometry(), study.traces)
    })
}

/// Markov-3 over the study's move sequences.
fn train() -> AbRecommender {
    let seqs: Vec<Vec<u16>> = study().1.iter().map(Trace::move_sequence).collect();
    assert!(seqs.iter().map(Vec::len).sum::<usize>() > 500);
    AbRecommender::train(seqs.iter().map(Vec::as_slice), 3)
}

/// The study model shared by the fixed-tile pins, which no engine binds.
fn study_model() -> &'static AbRecommender {
    static MODEL: OnceLock<AbRecommender> = OnceLock::new();
    MODEL.get_or_init(train)
}

/// Move histories of length 0–3, as they sit in a 3-request session
/// history (the study traces contain most of them; the last is unseen).
fn histories() -> Vec<Vec<Move>> {
    use Move::*;
    vec![
        vec![],
        vec![PanRight],
        vec![ZoomIn(Quadrant::Se)],
        vec![PanRight, PanRight],
        vec![ZoomOut, PanLeft],
        vec![PanRight, PanRight, PanRight],
        vec![ZoomIn(Quadrant::Nw), PanDown, PanLeft],
        vec![ZoomOut, ZoomOut, ZoomIn(Quadrant::Ne)],
        vec![PanUp, ZoomIn(Quadrant::Sw), PanUp],
    ]
}

/// Folds ranking and score bits of every `tiles × histories()` case at
/// prediction distance `d`; also checks `rank` is `scored` minus scores.
fn fingerprint(ab: &AbRecommender, g: Geometry, tiles: &[TileId], d: usize) -> u64 {
    let store = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
    let mut fold = Fold::new();
    for &tile in tiles {
        assert!(g.contains(tile), "{tile} outside the geometry");
        let candidates = g.candidates(tile, d);
        for moves in histories() {
            let mut history = SessionHistory::new(3);
            let mut request = Request::initial(tile);
            history.push(request);
            for m in moves {
                request = Request::new(tile, Some(m));
                history.push(request);
            }
            let ctx = PredictionContext {
                request,
                history: &history,
                candidates: &candidates,
                geometry: g,
                store: &store,
                roi: &[],
            };
            let scored = ab.scored(&ctx);
            assert_eq!(scored.len(), candidates.len());
            let ranked: Vec<TileId> = scored.iter().map(|&(t, _)| t).collect();
            assert_eq!(ab.rank(&ctx), ranked);
            for (t, score) in scored {
                fold.tile(t);
                fold.u64(score.to_bits());
            }
        }
    }
    fold.0
}

#[test]
fn study_geometry_rankings_are_pinned() {
    // The benchmark's `ctx32` shape: 6 levels, 32×32 tiles at the deepest.
    let g = Geometry::new(6, 1024, 1024, 32, 32);
    let tiles = [
        TileId::ROOT,
        TileId::new(1, 1, 0), // four tiles per level: every pan hits a wall
        TileId::new(5, 0, 0), // deepest-level corners
        TileId::new(5, 31, 31),
        TileId::new(5, 0, 7), // edges
        TileId::new(3, 4, 0),
        TileId::new(2, 1, 2), // interior
        TileId::new(3, 3, 4),
        TileId::new(5, 10, 17), // deepest-level interior: no zoom-in
    ];
    let ab = study_model();
    let got: Vec<u64> = (1..=3).map(|d| fingerprint(ab, g, &tiles, d)).collect();
    assert_eq!(
        got,
        [
            0x20cc_213d_100e_8853,
            0x7b65_383b_3e66_6dcc,
            0xfe56_ea29_139b_59e0
        ],
        "AB ranking changed at d = 1, 2, 3 (got {got:#x?})"
    );
}

/// Folds ranking and score bits of every request of every study trace,
/// replayed through a 3-request session history, at distance `d`.
fn replay_fingerprint(ab: &AbRecommender, g: Geometry, d: usize) -> u64 {
    let store = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
    let mut fold = Fold::new();
    for trace in &study().1 {
        let mut history = SessionHistory::new(3);
        for step in &trace.steps {
            let request = Request::new(step.tile, step.mv);
            history.push(request);
            let candidates = g.candidates(step.tile, d);
            let ctx = PredictionContext {
                request,
                history: &history,
                candidates: &candidates,
                geometry: g,
                store: &store,
                roi: &[],
            };
            for (t, score) in ab.scored(&ctx) {
                fold.tile(t);
                fold.u64(score.to_bits());
            }
        }
    }
    fold.0
}

#[test]
fn study_traces_replay_is_pinned() {
    let (g, traces) = study();
    assert_eq!(traces.len(), 54, "18 users × 3 tasks");
    let unbound = train();
    let bound = train();
    PredictionEngine::new(
        *g,
        bound.clone(),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig::default(),
    );
    for ab in [&unbound, &bound, &bound] {
        let got: Vec<u64> = [2, 3].map(|d| replay_fingerprint(ab, *g, d)).to_vec();
        assert_eq!(
            got,
            [0xebab_6e49_b2cc_b2ab, 0xa9fd_2475_3dcd_eb42],
            "AB replay changed at d = 2, 3 (got {got:#x?})"
        );
    }
}

#[test]
fn one_row_time_series_rankings_are_pinned() {
    // One row of cells: no vertical pans, only the top-row zoom-ins.
    let g = Geometry::new(3, 1, 1024, 1, 256);
    let tiles = [
        TileId::ROOT,
        TileId::new(1, 0, 1),
        TileId::new(2, 0, 0),
        TileId::new(2, 0, 2),
        TileId::new(2, 0, 3),
    ];
    let ab = study_model();
    let got: Vec<u64> = (1..=3).map(|d| fingerprint(ab, g, &tiles, d)).collect();
    assert_eq!(
        got,
        [
            0x4746_517e_a871_d3e8,
            0x2189_d3b6_5b3c_f86d,
            0xb085_2973_5a13_104e
        ],
        "AB ranking changed at d = 1, 2, 3 (got {got:#x?})"
    );
}
