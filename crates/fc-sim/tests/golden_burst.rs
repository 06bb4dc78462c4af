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
//! **On:** the six zoo workloads at the `exp_multiuser` A/B shape
//! (4 sessions × 256 steps, capacity 64 / 4 shards, k = 4, seed 77, the
//! same geometry, signatures and engine, so the counts equal
//! `BENCH_multiuser.json`'s `workload_zoo` rows) are pinned by value with
//! `BurstConfig::default()` — the shared-mode `run_zoo_shared` report
//! and the private-mode `replay_workload` fingerprint — plus the
//! shared-mode report with momentum and the auto sweep fallback off.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, BurstConfig, EngineConfig, LatencyProfile, Middleware,
    MultiUserCache, PredictionEngine, SbConfig, SbRecommender, SharedSessionHandle,
    SharedTileCache,
};
use fc_sim::multiuser::synthetic_workload;
use fc_sim::trace::Trace;
use fc_sim::zoo::{self, replay_workload, run_zoo_shared, ZooAbConfig, ZooReport, ZOO_NAMES};
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
/// response plus the final stats into the fingerprint.
fn replay(mw: &mut Middleware, trace: &Trace, fold: &mut Fold) {
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
        fold.u64(resp.pair_cache.hits);
        fold.u64(resp.pair_cache.misses);
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
    let mut fold = Fold::new();
    for trace in &traces {
        let mut mw = Middleware::new(engine(&p), p.clone(), LatencyProfile::paper(), 4, 4);
        replay(&mut mw, trace, &mut fold);
    }
    fold.u64(u64::try_from(p.store().clock().now().as_nanos()).unwrap());
    assert_eq!(
        fold.0, GOLDEN_PRIVATE,
        "private-mode replay diverged from the pre-burst-scheduler middleware"
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
/// pair-cache counts, so its value moves with which requests rank SB
/// (at k = 4 under `Updated`, only those in Sensemaking) as well as
/// with what they are served.
const GOLDEN_PRIVATE: u64 = 13_123_499_312_440_946_627;
const GOLDEN_SHARED: u64 = 4_225_050_109_384_278_978;

/// `exp_multiuser`'s zoo A/B pyramid: 256² base, 16-cell tiles, four
/// levels (341 tiles), synthetic per-tile signatures.
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

/// `exp_multiuser`'s engine: AB trained on one 50-step right-pan run.
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

/// What one burst-on zoo run is pinned to: the `ZooReport` integers
/// and its fingerprint.
#[derive(Debug, PartialEq, Eq)]
struct ZooPin {
    hits: usize,
    prefetch_issued: usize,
    prefetch_used: usize,
    per_traffic: [usize; 3],
    fingerprint: u64,
}

impl From<ZooReport> for ZooPin {
    fn from(r: ZooReport) -> Self {
        ZooPin {
            hits: r.hits,
            prefetch_issued: r.prefetch_issued,
            prefetch_used: r.prefetch_used,
            per_traffic: r.per_traffic,
            fingerprint: r.fingerprint,
        }
    }
}

fn zoo_shared(p: &Arc<Pyramid>, name: &str, burst: BurstConfig) -> ZooPin {
    let workloads = zoo::crowd(name, p.geometry(), 256, 4, 77);
    let cfg = ZooAbConfig {
        cache_capacity: 64,
        shards: 4,
        k: 4,
        burst: Some(burst),
        ..ZooAbConfig::default()
    };
    run_zoo_shared(p, || zoo_engine(p), &workloads, &cfg).into()
}

/// Burst-on, shared mode, default config: every zoo workload's report
/// is pinned by value.
#[test]
fn burst_on_zoo_reports_are_pinned_shared() {
    let p = zoo_pyramid();
    for (name, want) in ZOO_NAMES.iter().zip(GOLDEN_ZOO_SHARED) {
        let got = zoo_shared(&p, name, BurstConfig::default());
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
        let got = zoo_shared(&p, name, legacy);
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
const GOLDEN_ZOO_PRIVATE: [u64; 6] = [
    12_422_136_480_886_145_266, // bursty-pan-sprint
    957_979_319_557_922_192,    // zoom-dive
    3_876_421_633_544_906_898,  // spiral-sweep
    17_214_899_408_682_880_678, // grid-sweep
    12_647_431_890_640_224_279, // revisit-loop
    1_567_964_768_897_925_805,  // flash-crowd
];
