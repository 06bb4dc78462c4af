//! The multi-user serving sections: the hotspot model, the fault
//! ladder, the burst scheduler and server push, each an A/B on the
//! lockstep driver (`fc_sim::run`).
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
    HotspotConfig, Phase, PredictionEngine, PushConfig, PushPolicy, RetryPolicy, SbConfig,
    SbRecommender,
};
use fc_server::{FaultSetup, MultiUserServing, PushServing, ServerConfig};
use fc_sim::multiuser::{hotspot_workload, run, synthetic_workload, RunConfig, RunReport};
use fc_sim::zoo::{self, run_crowd, ZOO_NAMES};
use fc_sim::{assert_invariants, Trace, TraceStep};
use fc_tiles::{Geometry, Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

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

const PUSH_SESSIONS: usize = 32;
/// An explorer walks 6× a dweller's steps; the dwellers replay their
/// traces, so both halves of the fleet stay live the whole run.
const PUSH_DWELL_STEPS: usize = 32;
const PUSH_EXPLORER_STEPS: usize = 6 * PUSH_DWELL_STEPS;
const PUSH_DWELL_THINK: Duration = Duration::from_millis(60);
const PUSH_EXPLORER_THINK: Duration = Duration::from_millis(10);
/// Gaps at or below the first classify as burst, gaps above the second
/// leave it: explorers think inside the band, dwellers above it.
const PUSH_BURST: (Duration, Duration) = (Duration::from_millis(20), Duration::from_millis(50));
/// Far below the fleet's refill rate, so the schedule decides which
/// sessions' candidates reach the wire.
const PUSH_TICK_BUDGET: usize = 2;

/// An explorer's trace at `g`'s deepest level: a seeded start cell,
/// then a seeded pan each step (redrawn when it would leave the level).
fn explorer(g: Geometry, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let deepest = g.levels - 1;
    let (rows, cols) = g.tiles_at(deepest);
    let mut tile = TileId::new(deepest, rng.gen_range(0..rows), rng.gen_range(0..cols));
    let mut steps = vec![TraceStep {
        tile,
        mv: None,
        phase: Phase::Foraging,
    }];
    while steps.len() < PUSH_EXPLORER_STEPS {
        let mv = Move::from_index(rng.gen_range(0..4));
        if let Some(next) = g.apply(tile, mv) {
            tile = next;
            steps.push(TraceStep {
                tile,
                mv: Some(mv),
                phase: Phase::Foraging,
            });
        }
    }
    Trace {
        user: 0,
        task: 0,
        steps,
    }
}

/// Server push on the lockstep driver: push off, utility scheduling
/// and the round-robin baseline at one tick budget, over a fleet whose
/// even sessions are explorers (pseudo-random pans no model
/// anticipates, burst-paced) and odd ones serpentine dwellers. Push
/// ships resident tiles and reads them without accounting, so hit rate
/// and backend reads must equal push off's; the arms differ in how
/// many pushed tiles the sessions go on to request.
pub(crate) fn push_ab(_: &ExpContext) -> String {
    let p = pyramid(256, 4, 0.13, 0);
    let g = p.geometry();
    // Pure serpentine: no zoom excursion within a dweller's steps.
    let dwellers = synthetic_workload(g, PUSH_SESSIONS, PUSH_DWELL_STEPS, PUSH_DWELL_STEPS);
    let traces: Vec<Trace> = dwellers
        .into_iter()
        .enumerate()
        .map(|(i, t)| if i % 2 == 0 { explorer(g, i as u64) } else { t })
        .collect();
    let mu = MultiUserServing::default();
    let ab_only = |p: &Arc<Pyramid>| engine(p, AllocationStrategy::AbOnly);
    let arm = |policy: Option<PushPolicy>| {
        let mut cfg = lockstep(PUSH_SESSIONS, PUSH_EXPLORER_STEPS, 2, mu.clone());
        cfg.serving.burst = Some(BurstConfig {
            burst_enter: PUSH_BURST.0,
            burst_exit: PUSH_BURST.1,
            ..BurstConfig::default()
        });
        cfg.serving.push = policy.map(|policy| PushServing {
            planner: PushConfig {
                policy,
                ..PushConfig::default()
            },
            tick_budget: PUSH_TICK_BUDGET,
        });
        // Session `i` thinks on schedule `i % 2`.
        cfg.think = vec![
            vec![PUSH_EXPLORER_THINK; PUSH_EXPLORER_STEPS],
            vec![PUSH_DWELL_THINK; PUSH_DWELL_STEPS],
        ];
        run(&[("push", &p, &traces)], ab_only, &cfg)
    };
    let (off, utility, rr) = (
        arm(None),
        arm(Some(PushPolicy::Utility)),
        arm(Some(PushPolicy::RoundRobin)),
    );
    // Demand misses plus speculative fetches.
    let reads = |r: &RunReport| r.served - r.hits() + r.prefetch_issued;
    let rows: Vec<Vec<String>> = [("off", &off), ("utility", &utility), ("round-robin", &rr)]
        .into_iter()
        .map(|(name, r)| {
            let (sent, used) = (r.push.pushed as usize, r.push.used as usize);
            vec![
                name.to_string(),
                sent.to_string(),
                used.to_string(),
                acc(ratio(used, sent)),
                acc(r.hit_rate()),
                acc(ratio(reads(r), r.served)),
            ]
        })
        .collect();
    let mut out = banner("Multi-user — server push: off, utility, round-robin");
    out.push_str(&format!(
        "{PUSH_SESSIONS} sessions over {} tiles, k 2, tick budget {PUSH_TICK_BUDGET} a round; \
         even sessions explore ({} ms think, {PUSH_EXPLORER_STEPS} steps), odd ones dwell ({} ms \
         think, {PUSH_DWELL_STEPS} steps, repeated); burst at or below {} ms, out above {} ms\n",
        g.total_tiles(),
        PUSH_EXPLORER_THINK.as_millis(),
        PUSH_DWELL_THINK.as_millis(),
        PUSH_BURST.0.as_millis(),
        PUSH_BURST.1.as_millis(),
    ));
    out.push_str(&table(
        &cols("push sent used used/sent hit-rate backend-reads/request"),
        &rows,
    ));
    let same = |r: &RunReport| r.hits() == off.hits() && reads(r) == reads(&off);
    let yes = |b: bool| if b { "yes" } else { "no" };
    // Cross-multiplied, so the verdict is read off the counts.
    let (u, b) = (utility.push, rr.push);
    out.push_str(&format!(
        "hits and backend reads equal push off's: utility {}, round-robin {}\n\
         utility used/sent beats round-robin's: {} ({}/{} vs {}/{})\n\
         against push off, which sends nothing: utility adds {} tiles to the wire and saves {} \
         backend reads\n",
        yes(same(&utility)),
        yes(same(&rr)),
        yes(u.used * b.pushed > b.used * u.pushed),
        u.used,
        u.pushed,
        b.used,
        b.pushed,
        u.pushed,
        reads(&off) as i64 - reads(&utility) as i64,
    ));
    out
}
