//! Golden pins for the burst scheduler, off and on.
//!
//! **Off:** with `BurstConfig: None` the middleware is bit-identical
//! to the pre-burst-scheduler code.
//!
//! The fingerprints below were captured by replaying a recorded
//! multiuser trace through the middleware *before* the burst-aware
//! prefetch scheduler existed. The same replay must keep producing the
//! same fold — over every response (tile id, latency, hit flag, phase,
//! prefetched list, pair-cache delta), the final stats, and the final
//! cache contents — in both private and shared mode, at every SIMD
//! dispatch level (CI runs the suite once per level; prediction is
//! golden-tested bit-identical across levels, so one pin serves all).
//!
//! **Zoo A/B:** the six zoo workloads at the shape of the report's
//! `workload_zoo` section (4 sessions × 256 steps, capacity 64 / 4
//! shards, k = 4, seed 77, the same geometry, signatures and engine, so
//! the counts equal that section's rows) are pinned by value:
//! the shared-mode `run_crowd` report with burst scheduling off
//! (the A/B's uniform leg) and with `BurstConfig::default()`, the
//! private-mode `replay_workload` fingerprint with the default config,
//! and the shared-mode report with momentum and the auto sweep
//! fallback off.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, BurstConfig, EngineConfig, LatencyProfile, Middleware,
    MultiUserCache, PredictionEngine, SbConfig, SbRecommender, SharedSessionHandle,
    SharedTileCache,
};
use fc_server::{MultiUserServing, ServerConfig};
use fc_sim::multiuser::synthetic_workload;
use fc_sim::trace::Trace;
use fc_sim::zoo::{self, replay_workload, run_crowd, ZOO_NAMES};
use fc_sim::{RunConfig, RunReport};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig};
use std::sync::Arc;

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
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn tile(&mut self, t: fc_tiles::TileId) {
        self.u64(u64::from(t.level));
        self.u64(u64::from(t.y));
        self.u64(u64::from(t.x));
    }
}

fn pyramid() -> Arc<Pyramid> {
    use fc_array::{DenseArray, Schema};
    let schema = Schema::grid2d("G", 128, 128, &["v"]).unwrap();
    let data: Vec<f64> = (0..128 * 128).map(|i| (i % 128) as f64 / 128.0).collect();
    let base = DenseArray::from_vec(schema, data).unwrap();
    let mut cfg = PyramidConfig::simple(3, 32, &["v"]);
    cfg.latency = fc_array::LatencyModel::scidb_like();
    let p = PyramidBuilder::new().build(&base, &cfg).unwrap();
    for id in p.geometry().all_tiles() {
        let t = p.store().fetch_offline(id).unwrap();
        p.store().put_meta(
            id,
            SignatureKind::Hist1D.meta_name(),
            fc_core::signature::hist_signature(&t, "v", (0.0, 1.0), 8),
        );
    }
    p.store().reset_io_stats();
    Arc::new(p)
}

fn engine(p: &Arc<Pyramid>) -> PredictionEngine {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 10]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    PredictionEngine::new(
        p.geometry(),
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::Updated,
            ..EngineConfig::default()
        },
    )
}

/// Replays `trace` through `mw`, folding every observable of every
/// response plus the final stats into `fold`, and each response's
/// pair-cache delta into `counts`.
fn replay(mw: &mut Middleware, trace: &Trace, fold: &mut Fold, counts: &mut Fold) {
    for (j, step) in trace.steps.iter().enumerate() {
        let mv = if j == 0 { None } else { step.mv };
        let Some(resp) = mw.request(step.tile, mv) else {
            continue;
        };
        fold.tile(resp.tile.id);
        fold.u64(u64::try_from(resp.latency.as_nanos()).unwrap());
        fold.u64(u64::from(resp.cache_hit));
        fold.usize(resp.phase.index());
        fold.usize(resp.prefetched.len());
        for t in &resp.prefetched {
            fold.tile(*t);
        }
        counts.u64(resp.pair_cache.hits);
        counts.u64(resp.pair_cache.misses);
        fold.u64(u64::from(resp.degraded));
    }
    let s = mw.stats();
    fold.usize(s.requests);
    fold.usize(s.hits);
    fold.u64(u64::try_from(s.total_latency.as_nanos()).unwrap());
    for c in s.per_phase {
        fold.usize(c);
    }
    fold.usize(s.degraded);
    fold.usize(s.fetch_failures);
    let cs = mw.cache_stats();
    fold.usize(cs.hits);
    fold.usize(cs.misses);
}

/// Private (single-user) middleware replay, plus the simulated clock.
#[test]
fn burst_config_none_is_bit_identical_private() {
    let p = pyramid();
    let traces = synthetic_workload(p.geometry(), 2, 96, 6);
    let (mut fold, mut counts) = (Fold::new(), Fold::new());
    for trace in &traces {
        let mut mw = Middleware::new(engine(&p), p.clone(), LatencyProfile::paper(), 4, 4);
        replay(&mut mw, trace, &mut fold, &mut counts);
    }
    fold.u64(u64::try_from(p.store().clock().now().as_nanos()).unwrap());
    assert_eq!(
        fold.0, GOLDEN_PRIVATE,
        "private-mode replay diverged from the pre-burst-scheduler middleware"
    );
    assert_eq!(
        counts.0, GOLDEN_PRIVATE_PAIRS,
        "private-mode replay's pair-cache counts changed"
    );
}

/// Shared-mode replay: two sessions interleaved deterministically on
/// one thread, folding the final communal cache contents as well.
#[test]
fn burst_config_none_is_bit_identical_shared() {
    let p = pyramid();
    let traces = synthetic_workload(p.geometry(), 2, 96, 6);
    let cache: Arc<dyn MultiUserCache> = Arc::new(SharedTileCache::with_shards(256, 4));
    let mut sessions: Vec<Middleware> = traces
        .iter()
        .map(|_| {
            let handle = SharedSessionHandle::open(cache.clone(), None);
            Middleware::new_shared(engine(&p), p.clone(), LatencyProfile::paper(), 4, 4, handle)
        })
        .collect();
    let mut fold = Fold::new();
    let steps = traces[0].steps.len();
    for j in 0..steps {
        for (mw, trace) in sessions.iter_mut().zip(&traces) {
            let step = &trace.steps[j];
            let mv = if j == 0 { None } else { step.mv };
            let Some(resp) = mw.request(step.tile, mv) else {
                continue;
            };
            fold.tile(resp.tile.id);
            fold.u64(u64::try_from(resp.latency.as_nanos()).unwrap());
            fold.u64(u64::from(resp.cache_hit));
            fold.usize(resp.prefetched.len());
            for t in &resp.prefetched {
                fold.tile(*t);
            }
        }
    }
    for mw in &sessions {
        let s = mw.stats();
        fold.usize(s.requests);
        fold.usize(s.hits);
        fold.u64(u64::try_from(s.total_latency.as_nanos()).unwrap());
    }
    // Final communal cache contents, in the cache's own (deterministic)
    // popularity order.
    for (t, n) in cache.popular(usize::MAX) {
        fold.tile(t);
        fold.u64(n);
    }
    let st = cache.stats();
    fold.usize(st.hits);
    fold.usize(st.misses);
    fold.usize(st.cross_session_hits);
    fold.u64(u64::try_from(p.store().clock().now().as_nanos()).unwrap());
    assert_eq!(
        fold.0, GOLDEN_SHARED,
        "shared-mode replay diverged from the pre-burst-scheduler middleware"
    );
}

/// The replays above with burst scheduling off. The shared value is
/// the one captured at the commit *before* the burst scheduler landed
/// (PR 7 head). The private replay also folds each response's
/// pair-cache counts, apart, so that fold moves with which requests
/// rank SB (at k = 4 under `Updated`, only those in Sensemaking) and
/// with which pairs the table already holds, while the first moves
/// only with what the requests are served.
const GOLDEN_PRIVATE: u64 = 5_095_954_937_012_719_669;
const GOLDEN_PRIVATE_PAIRS: u64 = 1_892_997_080_476_643_503;
const GOLDEN_SHARED: u64 = 4_225_050_109_384_278_978;

/// The `workload_zoo` section's pyramid: 256² base, 16-cell tiles,
/// four levels (340 tiles), synthetic per-tile signatures.
fn zoo_pyramid() -> Arc<Pyramid> {
    let side = 256;
    let schema = fc_array::Schema::grid2d("ZOO", side, side, &["v"]).unwrap();
    let data: Vec<f64> = (0..side * side)
        .map(|i| (i % side) as f64 / side as f64)
        .collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
    let p = PyramidBuilder::new()
        .build(&base, &PyramidConfig::simple(4, 16, &["v"]))
        .unwrap();
    for id in p.geometry().all_tiles() {
        let mut h = [0.0f64; 8];
        h[(id.x as usize)
            .wrapping_mul(7)
            .wrapping_add(id.y as usize * 3)
            % 8] = 0.7;
        h[(id.level as usize + id.x as usize) % 8] += 0.3;
        p.store()
            .put_meta(id, SignatureKind::Hist1D.meta_name(), h.to_vec());
    }
    Arc::new(p)
}

/// The `workload_zoo` section's engine: AB trained on one 50-step
/// right-pan run.
fn zoo_engine(p: &Arc<Pyramid>) -> PredictionEngine {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 50]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    PredictionEngine::new(
        p.geometry(),
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::Updated,
            ..EngineConfig::default()
        },
    )
}

/// What one shared zoo run is pinned to: the report's hit and prefetch
/// counts, its traffic occupancy and its fingerprint.
#[derive(Debug, PartialEq, Eq)]
struct ZooPin {
    hits: usize,
    prefetch_issued: usize,
    prefetch_used: usize,
    per_traffic: [usize; 3],
    fingerprint: u64,
}

impl From<RunReport> for ZooPin {
    fn from(r: RunReport) -> Self {
        ZooPin {
            hits: r.hits(),
            prefetch_issued: r.prefetch_issued,
            prefetch_used: r.prefetch_used,
            per_traffic: r.per_traffic,
            fingerprint: r.fingerprint,
        }
    }
}

fn zoo_shared(p: &Arc<Pyramid>, name: &str, burst: Option<BurstConfig>) -> ZooPin {
    let workloads = zoo::crowd(name, p.geometry(), 256, 4, 77);
    let d = RunConfig::default();
    let cfg = RunConfig {
        serving: ServerConfig {
            default_k: 4,
            multi_user: Some(MultiUserServing {
                cache_capacity: 64,
                shards: 4,
                hotspots: None,
            }),
            burst,
            ..d.serving
        },
        ..d
    };
    run_crowd(p, zoo_engine, &workloads, &cfg).into()
}

/// Burst-off, shared mode: the A/B's uniform-budget leg, every zoo
/// workload's report pinned by value.
#[test]
fn burst_off_zoo_reports_are_pinned_shared() {
    let p = zoo_pyramid();
    for (name, want) in ZOO_NAMES.iter().zip(GOLDEN_ZOO_SHARED_OFF) {
        let got = zoo_shared(&p, name, None);
        assert_eq!(got, want, "{name}: burst-off shared replay diverged");
    }
}

/// Burst-on, shared mode, default config: every zoo workload's report
/// is pinned by value.
#[test]
fn burst_on_zoo_reports_are_pinned_shared() {
    let p = zoo_pyramid();
    for (name, want) in ZOO_NAMES.iter().zip(GOLDEN_ZOO_SHARED) {
        let got = zoo_shared(&p, name, Some(BurstConfig::default()));
        assert_eq!(got, want, "{name}: burst-on shared replay diverged");
    }
}

/// The counter-cyclical core alone (momentum and the auto sweep
/// fallback off) — the arms the default config's sweeps never reach.
#[test]
fn burst_on_zoo_reports_are_pinned_without_momentum_or_auto() {
    let p = zoo_pyramid();
    let legacy = BurstConfig {
        momentum: false,
        auto_window: 0,
        ..BurstConfig::default()
    };
    for (name, want) in ZOO_NAMES.iter().zip(GOLDEN_ZOO_SHARED_LEGACY) {
        let got = zoo_shared(&p, name, Some(legacy));
        assert_eq!(got, want, "{name}: legacy burst-on shared replay diverged");
    }
}

/// Burst-on, private mode: session 0 of each crowd through one
/// private-cache middleware.
#[test]
fn burst_on_zoo_fingerprints_are_pinned_private() {
    let p = zoo_pyramid();
    for (name, want) in ZOO_NAMES.iter().zip(GOLDEN_ZOO_PRIVATE) {
        let w = &zoo::crowd(name, p.geometry(), 256, 4, 77)[0];
        let mut mw = Middleware::new(zoo_engine(&p), p.clone(), LatencyProfile::paper(), 4, 4);
        mw.set_burst(Some(BurstConfig::default()));
        let got = replay_workload(&mut mw, w).fingerprint;
        assert_eq!(got, want, "{name}: burst-on private replay diverged");
    }
}

/// Captured at the commit before `try_request` was cut into stages
/// (PR 14 head), in `ZOO_NAMES` order.
const GOLDEN_ZOO_SHARED: [ZooPin; 6] = [
    // bursty-pan-sprint
    ZooPin {
        hits: 1012,
        prefetch_issued: 103,
        prefetch_used: 77,
        per_traffic: [834, 190, 0],
        fingerprint: 16_495_438_416_011_971_826,
    },
    // zoom-dive
    ZooPin {
        hits: 787,
        prefetch_issued: 189,
        prefetch_used: 66,
        per_traffic: [469, 527, 28],
        fingerprint: 5_475_797_138_390_366_722,
    },
    // spiral-sweep
    ZooPin {
        hits: 880,
        prefetch_issued: 443,
        prefetch_used: 196,
        per_traffic: [904, 120, 0],
        fingerprint: 13_846_531_013_990_201_243,
    },
    // grid-sweep
    ZooPin {
        hits: 953,
        prefetch_issued: 813,
        prefetch_used: 365,
        per_traffic: [964, 60, 0],
        fingerprint: 9_785_061_738_628_772_910,
    },
    // revisit-loop
    ZooPin {
        hits: 1002,
        prefetch_issued: 172,
        prefetch_used: 18,
        per_traffic: [814, 181, 29],
        fingerprint: 11_121_800_178_766_335_557,
    },
    // flash-crowd
    ZooPin {
        hits: 1015,
        prefetch_issued: 54,
        prefetch_used: 23,
        per_traffic: [989, 31, 4],
        fingerprint: 17_732_057_901_580_216_429,
    },
];
const GOLDEN_ZOO_SHARED_LEGACY: [ZooPin; 6] = [
    // bursty-pan-sprint
    ZooPin {
        hits: 982,
        prefetch_issued: 77,
        prefetch_used: 56,
        per_traffic: [834, 190, 0],
        fingerprint: 8_648_804_472_720_397_783,
    },
    // zoom-dive
    ZooPin {
        hits: 728,
        prefetch_issued: 70,
        prefetch_used: 12,
        per_traffic: [469, 527, 28],
        fingerprint: 6_261_493_600_417_690_879,
    },
    // spiral-sweep
    ZooPin {
        hits: 164,
        prefetch_issued: 192,
        prefetch_used: 36,
        per_traffic: [904, 120, 0],
        fingerprint: 9_966_563_258_602_432_946,
    },
    // grid-sweep
    ZooPin {
        hits: 165,
        prefetch_issued: 239,
        prefetch_used: 27,
        per_traffic: [964, 60, 0],
        fingerprint: 26_427_286_338_429_185,
    },
    // revisit-loop
    ZooPin {
        hits: 986,
        prefetch_issued: 161,
        prefetch_used: 12,
        per_traffic: [814, 181, 29],
        fingerprint: 7_449_887_454_562_960_736,
    },
    // flash-crowd
    ZooPin {
        hits: 1015,
        prefetch_issued: 51,
        prefetch_used: 23,
        per_traffic: [989, 31, 4],
        fingerprint: 14_941_530_416_227_293_326,
    },
];
/// The burst-off leg, captured at the last commit with a separate
/// zoo harness, in `ZOO_NAMES` order.
const GOLDEN_ZOO_SHARED_OFF: [ZooPin; 6] = [
    // bursty-pan-sprint
    ZooPin {
        hits: 976,
        prefetch_issued: 1167,
        prefetch_used: 91,
        per_traffic: [0, 0, 0],
        fingerprint: 8_579_117_273_974_753_099,
    },
    // zoom-dive
    ZooPin {
        hits: 905,
        prefetch_issued: 1078,
        prefetch_used: 242,
        per_traffic: [0, 0, 0],
        fingerprint: 8_562_870_466_243_033_230,
    },
    // spiral-sweep
    ZooPin {
        hits: 856,
        prefetch_issued: 528,
        prefetch_used: 191,
        per_traffic: [0, 0, 0],
        fingerprint: 940_159_520_100_749_007,
    },
    // grid-sweep
    ZooPin {
        hits: 956,
        prefetch_issued: 869,
        prefetch_used: 370,
        per_traffic: [0, 0, 0],
        fingerprint: 5_440_785_107_946_104_138,
    },
    // revisit-loop
    ZooPin {
        hits: 966,
        prefetch_issued: 538,
        prefetch_used: 24,
        per_traffic: [0, 0, 0],
        fingerprint: 14_705_583_438_335_689_300,
    },
    // flash-crowd
    ZooPin {
        hits: 1012,
        prefetch_issued: 83,
        prefetch_used: 17,
        per_traffic: [0, 0, 0],
        fingerprint: 10_276_893_922_644_087_379,
    },
];
const GOLDEN_ZOO_PRIVATE: [u64; 6] = [
    12_422_136_480_886_145_266, // bursty-pan-sprint
    957_979_319_557_922_192,    // zoom-dive
    3_876_421_633_544_906_898,  // spiral-sweep
    17_214_899_408_682_880_678, // grid-sweep
    12_647_431_890_640_224_279, // revisit-loop
    1_567_964_768_897_925_805,  // flash-crowd
];
