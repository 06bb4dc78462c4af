//! Golden pin for the prediction engine's whole request path: every
//! request of every study trace replayed through
//! `PredictionEngine::predict_with`, at prediction distance 1, 2 and 3,
//! under each allocation strategy, with SB scoring all four signatures.
//! Each case has two fingerprints: a ranking fold over every predicted
//! list, which covers the candidate set the engine hands both
//! recommenders, their rankings and the merge; and a counter fold over
//! the χ² pair-cache hits, misses and invalidations of each request,
//! which covers the pair cache's evictions. The rankings are exact
//! whoever warmed the pair table; the counters move with which pairs
//! it holds, and are re-recorded on purpose when that changes. The recommender pins
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
/// session between traces (the dataset's pair table carries over, as
/// it does across sessions and strategies), and folds each request's
/// prediction (the first value) and pair-cache counts (the second).
fn fingerprints(
    dataset: &StudyDataset,
    traces: &[Trace],
    ab: &AbRecommender,
    d: usize,
) -> Vec<(u64, u64)> {
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
            let (mut fold, mut counts) = (Fold::new(), Fold::new());
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
                    counts.u64(pairs.hits);
                    counts.u64(pairs.misses);
                    counts.u64(pairs.invalidations);
                }
            }
            (fold.0, counts.0)
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
    let got: Vec<Vec<(u64, u64)>> = (1..=3)
        .map(|d| fingerprints(&dataset, &traces, &ab, d))
        .collect();
    let rankings: Vec<Vec<u64>> = got
        .iter()
        .map(|r| r.iter().map(|f| f.0).collect())
        .collect();
    let counts: Vec<Vec<u64>> = got
        .iter()
        .map(|r| r.iter().map(|f| f.1).collect())
        .collect();
    let want_rankings: [[u64; 4]; 3] = [
        [
            0x2846_3d36_1101_7f02,
            0x39a6_8fb5_933e_9562,
            0xd852_896b_9d1a_e242,
            0x7373_5116_8ed2_5c82,
        ],
        [
            0x8230_8812_14ba_f8a4,
            0x1cb5_e89b_a83f_70a5,
            0x1d59_21cd_f539_37e4,
            0x591c_3b86_81fe_3a87,
        ],
        [
            0x435d_412d_4d2f_0346,
            0xf387_fbcb_d921_7e07,
            0x615c_0844_451d_2cc6,
            0x671f_9917_e091_ce66,
        ],
    ];
    assert_eq!(
        rankings, want_rankings,
        "engine replay's rankings changed; rows are d = 1, 2, 3, columns Original, Updated, \
         AbOnly, SbOnly (got {rankings:#x?})"
    );
    let want_counts: [[u64; 4]; 3] = [
        [
            0x7d19_8c12_6c37_d5a8,
            0x7fe7_9198_8532_6405,
            0xb334_5502_332d_1ee5,
            0x4777_5e92_a403_57c5,
        ],
        [
            0x87f5_4490_df27_7bf3,
            0x0cf2_e9e9_ef46_da4a,
            0xb334_5502_332d_1ee5,
            0xdba8_7c79_4f4f_ebf4,
        ],
        [
            0x9b8a_fceb_8377_0133,
            0x643d_8688_10e1_6fc4,
            0xb334_5502_332d_1ee5,
            0x5fd5_8d7f_7c4b_dbe6,
        ],
    ];
    assert_eq!(
        counts, want_counts,
        "engine replay's pair-cache counts changed; rows are d = 1, 2, 3, columns Original, \
         Updated, AbOnly, SbOnly (got {counts:#x?})"
    );
}
