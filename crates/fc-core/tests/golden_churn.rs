//! Golden pin for session churn: every study trace replayed through a
//! *fresh* prediction engine, built the way the benchmark's sessions
//! and the server's Hello handler build one, and dropped when its trace
//! ends. Traces run two at a time on one thread, interleaved request by
//! request: each session opens and takes its first tile before the
//! next one opens, then the two alternate, as the benchmark's driver
//! does. Every engine ranks through the dataset's one χ² pair table,
//! so each session finds the pairs the sessions before it computed.
//!
//! `golden_engine` keeps one engine per strategy across every trace;
//! this pin opens a fresh one per session, at d = 1 and 2 under
//! `Updated` and `SbOnly`.
//! Each case has two fingerprints: a ranking fold over every predicted
//! list, and a counter fold over each request's pair-cache hits,
//! misses and invalidations. The rankings are exact whoever warmed the
//! pair table; the counters move with which pairs it holds, and are
//! re-recorded on purpose when that changes.

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

/// Replays the traces two sessions at a time, each on an engine of its
/// own that is dropped after its trace's last request, and folds each
/// request's prediction (the first value) and pair-cache counts (the
/// second).
fn fingerprint(
    dataset: &StudyDataset,
    traces: &[Trace],
    ab: &AbRecommender,
    strategy: AllocationStrategy,
    d: usize,
) -> (u64, u64) {
    let store = dataset.pyramid.store();
    let open = || {
        PredictionEngine::new(
            dataset.pyramid.geometry(),
            ab.clone(),
            SbRecommender::new(SbConfig::all_equal()),
            PhaseSource::Heuristic,
            EngineConfig {
                distance: d,
                strategy,
                ..EngineConfig::default()
            },
        )
    };
    let (mut fold, mut counts) = (Fold::new(), Fold::new());
    for pair in traces.chunks(2) {
        let mut engines: Vec<Option<PredictionEngine>> = vec![None, None];
        let longest = pair.iter().map(|t| t.steps.len()).max().unwrap_or(0);
        for i in 0..longest {
            for (slot, trace) in pair.iter().enumerate() {
                let Some(step) = trace.steps.get(i) else {
                    continue;
                };
                let engine = engines[slot].get_or_insert_with(open);
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
                if i + 1 == trace.steps.len() {
                    engines[slot] = None;
                }
            }
        }
    }
    (fold.0, counts.0)
}

#[test]
fn study_replay_with_a_fresh_engine_per_session_is_pinned() {
    let dataset = StudyDataset::build(DatasetConfig::tiny());
    let traces = Study::generate(&dataset, &StudyConfig::default()).traces;
    assert_eq!(traces.len(), 54, "18 users × 3 tasks");
    let seqs: Vec<Vec<u16>> = traces.iter().map(Trace::move_sequence).collect();
    let ab = AbRecommender::train(seqs.iter().map(Vec::as_slice), 3);
    let got: Vec<[(u64, u64); 2]> = (1..=2)
        .map(|d| {
            [AllocationStrategy::Updated, AllocationStrategy::SbOnly]
                .map(|strategy| fingerprint(&dataset, &traces, &ab, strategy, d))
        })
        .collect();
    let rankings: Vec<[u64; 2]> = got.iter().map(|row| row.map(|f| f.0)).collect();
    let counts: Vec<[u64; 2]> = got.iter().map(|row| row.map(|f| f.1)).collect();
    let want_rankings: [[u64; 2]; 2] = [
        [0x6975_50fa_95e3_58e2, 0x2f2f_f1ea_038c_c202],
        [0x9e2f_d74e_047c_4005, 0x3cb9_9922_190c_2b47],
    ];
    assert_eq!(
        rankings, want_rankings,
        "churn replay's rankings changed; rows are d = 1, 2, columns Updated, SbOnly \
         (got {rankings:#x?})"
    );
    let want_counts: [[u64; 2]; 2] = [
        [0xea18_5143_d671_aab1, 0x50c1_e51c_da81_d985],
        [0x8032_9c8f_47a9_12d2, 0xf410_223c_9536_c9b4],
    ];
    assert_eq!(
        counts, want_counts,
        "churn replay's pair-cache counts changed; rows are d = 1, 2, columns Updated, \
         SbOnly (got {counts:#x?})"
    );
}
