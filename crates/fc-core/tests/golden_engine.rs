//! Golden pin for the prediction engine's whole request path: every
//! request of every study trace replayed through
//! `PredictionEngine::predict_with`, at prediction distance 1, 2 and 3,
//! under each allocation strategy, with SB scoring all four signatures.
//! Each fingerprint folds every predicted list and the χ² pair-cache
//! hits, misses and invalidations of each request, so it covers the
//! candidate set the engine hands both recommenders, their rankings,
//! the merge and the pair cache's evictions. The recommender pins
//! (`golden_ab`, `golden_sb`, `golden_paircache`) build their candidate
//! lists with `Geometry::candidates` themselves; this one takes the
//! engine's.

use fc_core::engine::PhaseSource;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictOptions, PredictionEngine, Request,
    SbConfig, SbRecommender,
};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_sim::study::{Study, StudyConfig};
use fc_sim::trace::Trace;
use fc_tiles::TileId;

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

/// Prefetch budget of every predict.
const K: usize = 8;

/// Replays every trace through one engine per strategy, resetting the
/// session between traces (the engine's pair cache carries over, as it
/// does across a session's requests), and folds each request's
/// prediction and pair-cache counts.
fn fingerprints(
    dataset: &StudyDataset,
    traces: &[Trace],
    ab: &AbRecommender,
    d: usize,
) -> Vec<u64> {
    let store = dataset.pyramid.store();
    let strategies = [
        AllocationStrategy::Original,
        AllocationStrategy::Updated,
        AllocationStrategy::AbOnly,
        AllocationStrategy::SbOnly,
    ];
    strategies
        .into_iter()
        .map(|strategy| {
            let mut engine = PredictionEngine::new(
                dataset.pyramid.geometry(),
                ab.clone(),
                SbRecommender::new(SbConfig::all_equal()),
                PhaseSource::Heuristic,
                EngineConfig {
                    distance: d,
                    strategy,
                    ..EngineConfig::default()
                },
            );
            let mut fold = Fold::new();
            for trace in traces {
                engine.reset_session();
                for step in &trace.steps {
                    engine.observe(Request::new(step.tile, step.mv));
                    let predicted = engine.predict_with(store, K, PredictOptions::default());
                    fold.u64(predicted.len() as u64);
                    for t in predicted {
                        fold.tile(t);
                    }
                    let pairs = engine.last_pair_cache();
                    fold.u64(pairs.hits);
                    fold.u64(pairs.misses);
                    fold.u64(pairs.invalidations);
                }
            }
            fold.0
        })
        .collect()
}

#[test]
fn study_replay_through_the_engine_is_pinned() {
    let dataset = StudyDataset::build(DatasetConfig::tiny());
    let traces = Study::generate(&dataset, &StudyConfig::default()).traces;
    assert_eq!(traces.len(), 54, "18 users × 3 tasks");
    let seqs: Vec<Vec<u16>> = traces.iter().map(Trace::move_sequence).collect();
    let ab = AbRecommender::train(seqs.iter().map(Vec::as_slice), 3);
    let got: Vec<Vec<u64>> = (1..=3)
        .map(|d| fingerprints(&dataset, &traces, &ab, d))
        .collect();
    let want: [[u64; 4]; 3] = [
        [
            0xc133_8dc0_b001_952f,
            0x877a_087d_ae5c_2a8e,
            0x894b_ccd0_dfda_3102,
            0x11a5_3ae8_b2ed_3eee,
        ],
        [
            0xa8a1_f687_fff3_f5aa,
            0xf6b3_8223_c690_851c,
            0x9d30_155d_e5ee_adc4,
            0xd51d_7f57_0885_54de,
        ],
        [
            0xc027_e6ed_051d_e260,
            0x1783_f94f_e87c_d34e,
            0x6e3c_f053_207f_3146,
            0x9c3c_18fd_6e93_e94f,
        ],
    ];
    assert_eq!(
        got, want,
        "engine replay changed; rows are d = 1, 2, 3, columns Original, Updated, AbOnly, \
         SbOnly (got {got:#x?})"
    );
}
