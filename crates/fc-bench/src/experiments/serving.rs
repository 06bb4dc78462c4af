//! The multi-user serving sections: the hotspot model, the fault
//! ladder and the burst scheduler, each an A/B on the lockstep driver (`fc_sim::run`).
//!
//! The driver steps every session round-robin on one thread, as the
//! server's one reactor thread serves them, and opens each session
//! through the server's own [`ServerConfig::open_session`]
//! (`fc-server/tests/lockstep.rs` holds it to the reactor's counts).
//! So every figure here is a count or a simulated time, a function of
//! the code alone, and CI diffs it with the rest of the report. The
//! sections ignore `FC_EXP_SIZE`: each runs one shape at every scale.

use crate::context::ExpContext;
use crate::fmt::{acc, banner, cols, table};
use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, BurstConfig, EngineConfig, FaultPlan, HotspotBlend,
    HotspotConfig, PredictionEngine, RetryPolicy, SbConfig, SbRecommender,
};
use fc_server::{FaultSetup, MultiUserServing, ServerConfig};
use fc_sim::multiuser::{hotspot_workload, run, synthetic_workload, RunConfig};
use fc_sim::zoo::{self, run_crowd, ZOO_NAMES};
use fc_sim::{assert_invariants, Trace};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig};
use std::sync::Arc;

/// A pyramid of 16-cell tiles over a `side`² synthetic base, with
/// cheap deterministic 8-bin histogram signatures: 1024² and 6 levels
/// give 5460 tiles, 256² and 4 levels 340, small enough that a
/// 64-tile cache churns.
fn pyramid(side: usize, levels: u8, wave: f64, seed: usize) -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("MU", side, side, &["v"]).expect("schema");
    let data: Vec<f64> = (0..side * side)
        .map(|i| (((i + seed) as f64 * wave).sin().abs() + (i % side) as f64 / side as f64) / 2.0)
        .collect();
    let base = fc_array::DenseArray::from_vec(schema, data).expect("base");
    let p = PyramidBuilder::new()
        .build(&base, &PyramidConfig::simple(levels, 16, &["v"]))
        .expect("pyramid");
    for id in p.geometry().all_tiles() {
        let (x, y) = (id.x as usize, id.y as usize);
        let mut h = [0.0f64; 8];
        h[x.wrapping_mul(7 + seed).wrapping_add(y * 3) % 8] = 0.7;
        h[(id.level as usize + x) % 8] += 0.3;
        p.store()
            .put_meta(id, SignatureKind::Hist1D.meta_name(), h.to_vec());
    }
    Arc::new(p)
}

/// Every session's engine under `strategy`: AB trained on one
/// rightward pan run, SB on the histogram signature.
fn engine(p: &Arc<Pyramid>, strategy: AllocationStrategy) -> PredictionEngine {
    let run = [Move::PanRight.index() as u16; 50];
    PredictionEngine::new(
        p.geometry(),
        AbRecommender::train(vec![&run[..]], 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy,
            ..EngineConfig::default()
        },
    )
}

/// The hybrid engine the hotspot, fault and zoo sections run.
fn hybrid(p: &Arc<Pyramid>) -> PredictionEngine {
    engine(p, AllocationStrategy::Updated)
}

/// A run of `sessions` × `steps` at prefetch budget `k` over the shared
/// cache `mu`, the server's defaults otherwise.
fn lockstep(sessions: usize, steps: usize, k: usize, mu: MultiUserServing) -> RunConfig {
    RunConfig {
        serving: ServerConfig {
            default_k: k,
            multi_user: Some(mu),
            ..ServerConfig::default()
        },
        sessions,
        steps_per_session: steps,
        ..RunConfig::default()
    }
}

/// `n / d`, zero when `d` is.
fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

const MD_DATASETS: [&str; 2] = ["west", "east"];
const MD_SESSIONS: usize = 8;
const MD_STEPS: usize = 256;
const MD_BUDGET: usize = 2048;
const MD_ATTRACTORS: usize = 3;
/// Below the deepest-level candidate count (~5), so the *ranking*
/// decides what gets prefetched and the hotspot prior has room to
/// matter.
const MD_K: usize = 2;

/// Two datasets served from one process through one registry (a cache
/// namespace each, one global budget), every session walking the
/// attractor workload, with the cross-session hotspot model off and
/// then on.
pub(crate) fn multi_dataset(_: &ExpContext) -> String {
    let leg = |hotspots: bool| {
        let data: Vec<(Arc<Pyramid>, Vec<Trace>)> = (0..MD_DATASETS.len())
            .map(|i| {
                let p = pyramid(1024, 6, 0.19, 1 + i * 37);
                let traces = hotspot_workload(p.geometry(), MD_SESSIONS, MD_STEPS, MD_ATTRACTORS);
                (p, traces)
            })
            .collect();
        let datasets: Vec<_> = MD_DATASETS
            .iter()
            .zip(&data)
            .map(|(&name, (p, traces))| (name, p, &traces[..]))
            .collect();
        let hotspots = hotspots.then_some(HotspotConfig {
            top_n: MD_ATTRACTORS,
            refresh_every: 32,
        });
        let mu = MultiUserServing {
            cache_capacity: MD_BUDGET,
            shards: 0,
            hotspots,
        };
        // The server feeds the model; each session's engine blends its
        // prior.
        let blend = hotspots.map(|_| HotspotBlend {
            radius: 8,
            phases: [true, true, true],
        });
        let blended = |p: &Arc<Pyramid>| {
            let mut e = hybrid(p);
            e.set_hotspot_blend(blend);
            e
        };
        let cfg = lockstep(MD_SESSIONS, MD_STEPS, MD_K, mu);
        run(&datasets, blended, &cfg).namespaces
    };
    let rows: Vec<Vec<String>> = leg(false)
        .into_iter()
        .zip(leg(true))
        .map(|(off, on)| {
            vec![
                off.dataset.clone(),
                off.capacity.to_string(),
                acc(off.hit_rate()),
                acc(on.hit_rate()),
                format!("{:+.3}", on.hit_rate() - off.hit_rate()),
                off.shared.cross_session_hits.to_string(),
                on.shared.cross_session_hits.to_string(),
                on.hotspot_epoch.to_string(),
            ]
        })
        .collect();
    let mut out = banner("Multi-user — shared hotspot model off → on, two datasets in one process");
    out.push_str(&format!(
        "{} datasets × {MD_SESSIONS} sessions × {MD_STEPS} steps, global budget {MD_BUDGET} tiles, \
         {MD_ATTRACTORS} attractors, k {MD_K}\n",
        MD_DATASETS.len()
    ));
    out.push_str(&table(
        &cols("dataset capacity hit-off hit-on delta cross-off cross-on epochs-on"),
        &rows,
    ));
    out
}

const FAULT_SESSIONS: usize = 8;
const FAULT_STEPS: usize = 256;
const FAULT_SEED: u64 = 7;

/// The synthetic mixed pan/zoom workload through the fallible fetch
/// path, under a quiet plan and under a backend brownout over the
/// middle half of each session's requests: degraded and failed
/// replies, hit rates in and after the window, and user-visible
/// latency on the simulated clock.
pub(crate) fn fault_ab(_: &ExpContext) -> String {
    let (from, until) = (FAULT_STEPS as u64 / 4, 3 * FAULT_STEPS as u64 / 4);
    let p = pyramid(1024, 6, 0.19, 0);
    let traces = synthetic_workload(p.geometry(), FAULT_SESSIONS, FAULT_STEPS, 5);
    let mu = MultiUserServing {
        cache_capacity: 4096,
        shards: 64,
        hotspots: None,
    };
    let plans = [
        ("quiet", FaultPlan::quiet(FAULT_SEED)),
        ("brownout", FaultPlan::brownout(FAULT_SEED, from, until)),
    ];
    let rows: Vec<Vec<String>> = plans
        .into_iter()
        .map(|(name, plan)| {
            let mut cfg = lockstep(FAULT_SESSIONS, FAULT_STEPS, 8, mu.clone());
            cfg.fault_window = (from, until);
            cfg.serving.faults = Some(FaultSetup {
                plan: Arc::new(plan),
                retry: RetryPolicy::default(),
            });
            let r = run(&[("fault", &p, &traces)], hybrid, &cfg);
            assert_invariants(&r);
            vec![
                name.to_string(),
                r.attempts.to_string(),
                r.served.to_string(),
                format!("{:.4}", ratio(r.degraded, r.served)),
                format!("{:.4}", ratio(r.failures, r.attempts)),
                acc(r.during.hit_rate()),
                acc(r.after.hit_rate()),
                r.retries.to_string(),
                format!("{:.1}", r.latency_p50.as_nanos() as f64 / 1e3),
                format!("{:.1}", r.latency_p99.as_nanos() as f64 / 1e3),
            ]
        })
        .collect();
    let mut out = banner("Multi-user — fault ladder: quiet plan vs backend brownout");
    out.push_str(&format!(
        "{FAULT_SESSIONS} sessions × {FAULT_STEPS} steps over {} tiles, cache {} in {} shards, \
         k 8, brownout window [{from}, {until}) of each session's requests\n",
        p.geometry().total_tiles(),
        mu.cache_capacity,
        mu.shards,
    ));
    out.push_str(&table(&cols("plan attempts served degraded-rate failure-rate hit-during hit-after retries p50-us p99-us"), &rows));
    out
}

const ZOO_SESSIONS: usize = 4;
const ZOO_STEPS: usize = 256;
const ZOO_SEED: u64 = 77;

/// Every named zoo workload as one crowd of sessions, with the burst
/// scheduler off (the uniform per-request budget) and on
/// ([`BurstConfig::default`]): hit rate, the share of speculative
/// fetches later used, prefetch volume, and time in each traffic phase.
pub(crate) fn workload_zoo(_: &ExpContext) -> String {
    let p = pyramid(256, 4, 0.13, 0);
    // 16 tiles a session: the scheduler acts on residency under churn,
    // and with a roomy cache both legs trivially hit.
    let mu = MultiUserServing {
        cache_capacity: 64,
        shards: 4,
        hotspots: None,
    };
    let rows: Vec<Vec<String>> = ZOO_NAMES
        .iter()
        .map(|&name| {
            let workloads = zoo::crowd(name, p.geometry(), ZOO_STEPS, ZOO_SESSIONS, ZOO_SEED);
            let leg = |burst| {
                let mut cfg = lockstep(ZOO_SESSIONS, ZOO_STEPS, 4, mu.clone());
                cfg.serving.burst = burst;
                run_crowd(&p, hybrid, &workloads, &cfg)
            };
            let (off, on) = (leg(None), leg(Some(BurstConfig::default())));
            let [burst, dwell, idle] = on.per_traffic;
            vec![
                name.to_string(),
                acc(off.hit_rate()),
                acc(on.hit_rate()),
                format!("{:+.3}", on.hit_rate() - off.hit_rate()),
                acc(off.prefetch_efficiency()),
                acc(on.prefetch_efficiency()),
                format!("{}/{}", off.prefetch_issued, on.prefetch_issued),
                format!("{}/{}", off.prefetch_used, on.prefetch_used),
                format!("{burst}/{dwell}/{idle}"),
            ]
        })
        .collect();
    let mut out = banner("Multi-user — workload zoo: burst scheduler off → on");
    out.push_str(&format!(
        "{ZOO_SESSIONS} sessions × {ZOO_STEPS} steps over {} tiles, cache {} in {} shards, k 4, \
         seed {ZOO_SEED}\n",
        p.geometry().total_tiles(),
        mu.cache_capacity,
        mu.shards,
    ));
    out.push_str(&table(&cols("workload hit-off hit-on delta used/issued-off used/issued-on issued-off/on used-off/on burst/dwell/idle-on"), &rows));
    out
}
