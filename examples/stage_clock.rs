//! Where a `predict-deep` request's time goes: the held-out study
//! replayed in process through the benchmark's `predict-deep` engine
//! (d = 2, four signatures, k = 8, two sessions over a 64-tile shared
//! cache), with a stage clock attached to every session.
//!
//! ```sh
//! cargo run --release --example stage_clock
//! ```
//!
//! The dataset, models and traces are built as the benchmark builds
//! its `ctx32` context: a 1024² terrain in six levels of 32² tiles,
//! eighteen study users, models trained on the even-numbered ones, the
//! odd-numbered ones' traces replayed two sessions at a time. A lap
//! replays every trace once on a fresh shared cache. The first lap is
//! a burn-in; the stage percentiles cover the laps after it, a
//! session's first request apart from the rest (its first tile), and
//! the χ² counts are printed per lap, then the dataset's pair table.

use forecache::array::LatencyModel;
use forecache::core::engine::PhaseSource;
use forecache::core::signature::SignatureConfig;
use forecache::core::{
    AbRecommender, AllocationStrategy, EngineConfig, LatencyProfile, Middleware, MultiUserCache,
    PhaseClassifier, PredictionEngine, SbConfig, SbRecommender, SharedSessionHandle,
    SharedTileCache, Stage, StageClock,
};
use forecache::sim::terrain::TerrainConfig;
use forecache::sim::{DatasetConfig, Study, StudyConfig, StudyDataset};
use forecache::tiles::{Move, TileId};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Laps replayed after the burn-in lap.
const LAPS: usize = 3;
/// The benchmark's `predict-deep` shape.
const K: usize = 8;
const DISTANCE: usize = 2;
const SHARED_TILES: usize = 64;
const HISTORY_TILES: usize = 4;

/// Nanoseconds since the first reading.
fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

type Walk = Vec<(TileId, Option<Move>)>;

fn main() {
    let dataset = StudyDataset::build(DatasetConfig {
        terrain: TerrainConfig {
            size: 1024,
            ..TerrainConfig::default()
        },
        levels: 6,
        tile: 32,
        latency: LatencyModel::scidb_like(),
        signatures: SignatureConfig::ndsi("ndsi_avg"),
    });
    let study = Study::generate(&dataset, &StudyConfig { num_users: 18 });
    let phases = study.phase_dataset();
    let train: Vec<usize> = (0..phases.len())
        .filter(|&i| phases.users[i].is_multiple_of(2))
        .collect();
    let feats: Vec<Vec<f64>> = train.iter().map(|&i| phases.features[i].clone()).collect();
    let labels: Vec<usize> = train.iter().map(|&i| phases.labels[i]).collect();
    let classifier = PhaseClassifier::train_on_features(&feats, &labels);
    let seqs: Vec<Vec<u16>> = study
        .traces
        .iter()
        .filter(|t| t.user.is_multiple_of(2))
        .map(|t| t.move_sequence())
        .collect();
    let ab = AbRecommender::train(seqs.iter().map(Vec::as_slice), 3);
    let heldout: Vec<Walk> = study
        .traces
        .iter()
        .filter(|t| t.user % 2 == 1)
        .map(|t| t.steps.iter().map(|s| (s.tile, s.mv)).collect())
        .collect();
    let pyramid = dataset.pyramid;
    let engine = || {
        PredictionEngine::new(
            pyramid.geometry(),
            ab.clone(),
            SbRecommender::new(SbConfig::all_equal()),
            PhaseSource::Classifier(Box::new(classifier.clone())),
            EngineConfig {
                strategy: AllocationStrategy::Updated,
                distance: DISTANCE,
                ..EngineConfig::default()
            },
        )
    };

    let steady = Arc::new(StageClock::new(now_ns));
    let first = Arc::new(StageClock::new(now_ns));
    println!("lap      requests  chi2_pairs/req  pair_hit_rate");
    for lap in 0..=LAPS {
        let cache: Arc<dyn MultiUserCache> = Arc::new(SharedTileCache::new(SHARED_TILES));
        let timed = |clock: &Arc<StageClock>| (lap > 0).then(|| clock.clone());
        let (mut requests, mut hits, mut misses) = (0u64, 0u64, 0u64);
        for pair in heldout.chunks(2) {
            let mut sessions: Vec<(Middleware, &Walk)> = pair
                .iter()
                .map(|walk| {
                    let handle = SharedSessionHandle::open(cache.clone(), None);
                    let mut mw = Middleware::new_shared(
                        engine(),
                        pyramid.clone(),
                        LatencyProfile::paper(),
                        HISTORY_TILES,
                        K,
                        handle,
                    );
                    mw.set_stage_clock(timed(&first));
                    (mw, walk)
                })
                .collect();
            let longest = pair.iter().map(Vec::len).max().unwrap_or(0);
            for i in 0..longest {
                for (mw, walk) in &mut sessions {
                    let Some(&(tile, mv)) = walk.get(i) else {
                        continue;
                    };
                    let resp = mw.request(tile, mv).expect("a study tile");
                    if i == 0 {
                        mw.set_stage_clock(timed(&steady));
                    }
                    requests += 1;
                    hits += resp.pair_cache.hits;
                    misses += resp.pair_cache.misses;
                }
            }
        }
        let name = if lap == 0 { "burn-in" } else { "measured" };
        println!(
            "{name:<8} {requests:>9}  {:>14.2}  {:>13.3}",
            misses as f64 / requests as f64,
            hits as f64 / (hits + misses).max(1) as f64
        );
    }

    let index = pyramid
        .store()
        .signature_index()
        .expect("signatures attached");
    if let Some((pairs, slots)) = SbRecommender::new(SbConfig::all_equal()).pair_table(&index) {
        println!(
            "pair table: {slots} slots ({} KiB), {} hits / {} misses over every lap",
            slots * 64 / 1024,
            pairs.hits,
            pairs.misses
        );
    }

    for (name, clock) in [
        ("every later request", &steady),
        ("a session's first request", &first),
    ] {
        println!();
        println!("{name}");
        println!("stage                      count     p50 us     p99 us");
        for stage in Stage::ALL {
            let us = |q| clock.quantile(stage, q).map_or(0.0, |ns| ns as f64 / 1e3);
            println!(
                "{:<24} {:>7}  {:>9.2}  {:>9.2}",
                stage.name(),
                clock.count(stage),
                us(0.5),
                us(0.99)
            );
        }
    }
}
