//! Multi-user serving benchmark: the multi-dataset hotspot model, the
//! fault A/B, the workload-zoo scheduler A/B, and the reactor's wire
//! path.
//!
//! Parts 1–3 run on `fc-sim`'s multi-session driver in deterministic
//! lockstep (`fc_sim::multiuser::run`): every session steps in
//! round-robin on one thread, as the server's one reactor thread
//! serves them, so their sections are a function of the code alone
//! and repeat exactly from run to run. Each run is a
//! [`fc_server::ServerConfig`], and the driver opens every session the
//! way the server's Hello does. Every session's SB ranking runs
//! through its dataset's one shared χ² pair table
//! (`fc_core::paircache`, "Sharing").
//!
//! **Part 1 — multi-dataset hotspot model.** Two pyramids served from
//! one process through a [`fc_core::DatasetRegistry`] (one cache
//! namespace each, one global budget), with every session replaying an
//! attractor-converging workload (`fc_sim::multiuser::hotspot_workload`).
//! Measured twice — cross-session hotspot model **off** then **on**
//! (`SharedHotspotModel` prior blended into candidate ranking) — and
//! reported as per-namespace hit-rate and cross-session-hit deltas.
//!
//! **Part 2 — fault A/B.** A synthetic mixed pan/zoom workload
//! (`fc_sim::multiuser::synthetic_workload`) replayed twice through the
//! fallible fetch path (a run whose `ServerConfig` sets `faults`):
//! once under a quiet [`fc_core::FaultPlan`] and once under a backend
//! brownout covering the middle half of the run. Reported as
//! degraded-reply and failure rates, in-window and post-window hit
//! rates, and p50/p99 user-visible latency — the `fault_ab` JSON
//! section.
//!
//! **Part 3 — workload-zoo scheduler A/B.** Every named zoo workload
//! (`fc_sim::zoo::ZOO_NAMES`) replayed as one crowd of sessions
//! (`fc_sim::zoo::run_crowd`) twice — burst
//! scheduler off (uniform per-request budget) and on
//! ([`fc_core::BurstConfig::default`]) — over a tight communal cache,
//! recording per-workload hit rate, useful-prefetch ratio, prefetch
//! volume, and time-in-phase occupancy as the `workload_zoo` section.
//!
//! **Part 4 — reactor tail sweep + push A/B.** The wire path: the
//! `fc-sim` swarm driver (paced nonblocking sockets, one thread)
//! against a live reactor server. First the tail sweep — 64 and 1024
//! concurrent sessions at the **same aggregate request rate**
//! ([`SWARM_RATE`]; per-session pace scales with the fleet, so the
//! comparison isolates session-count overhead rather than offered
//! load), reporting p50/p99 enqueue→reply latency and the 1024:64
//! p99 ratio (acceptance: ≤ 2×, i.e. a flat tail when the session
//! count multiplies by 16). Then the push A/B: servers with server
//! push enabled at the **same** tick budget, utility scheduling
//! ([`fc_core::PushPolicy::Utility`]) vs the round-robin baseline,
//! [`SWARM_TAIL_RUNS`] runs per arm in alternation, over a
//! heterogeneous fleet (predictable serpentine dwellers interleaved
//! with burst explorers — see the `PUSH_*` constants), compared on the
//! median push efficiency (pushed tiles the session actually requested
//! afterwards / all pushed tiles) — the `reactor` section.
//!
//! Writes `BENCH_multiuser.json` with the fault A/B's pyramid and
//! cache `shape`, the `multi_dataset`, `fault_ab`, `workload_zoo` and
//! `reactor` sections. With `--smoke` (CI) it runs one short iteration
//! of everything and does **not** overwrite the JSON. See
//! `docs/BENCHMARKS.md` for field definitions.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, BurstConfig, EngineConfig, FaultPlan, HotspotBlend,
    HotspotConfig, PredictionEngine, PushConfig, PushPolicy, RetryPolicy, SbConfig, SbRecommender,
};
use fc_server::{EngineFactory, FaultSetup, MultiUserServing, PushServing, Server, ServerConfig};
use fc_sim::multiuser::{
    hotspot_workload, run, synthetic_workload, NamespaceReport, RunConfig, RunReport,
};
use fc_sim::swarm::{run_swarm, SwarmConfig, SwarmReport};
use fc_sim::zoo::{self, run_crowd, ZOO_NAMES};
use fc_sim::{assert_invariants, trace::Trace};
use fc_tiles::{Geometry, Move, Pyramid, PyramidBuilder, PyramidConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Fault A/B shared-cache capacity (tiles).
const CAPACITY: usize = 4096;
/// Fault A/B shard count.
const SHARDS: usize = 64;
/// Fault A/B prefetch budget per session.
const K: usize = 8;

/// Multi-dataset scenario shape (part 1).
const MD_DATASETS: [&str; 2] = ["west", "east"];
const MD_SESSIONS: usize = 8;
const MD_STEPS: usize = 256;
const MD_BUDGET: usize = 2048;
const MD_ATTRACTORS: usize = 3;
/// Prefetch budget for the multi-dataset scenario: deliberately below
/// the deepest-level candidate count (~5), so the *ranking* decides
/// what gets prefetched and the hotspot prior has room to matter.
const MD_K: usize = 2;

fn pyramid(seed: u64) -> Arc<Pyramid> {
    // 1024² base, 16-cell tiles, 6 levels → 5460 tiles.
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

/// The engine every replay session runs, for its dataset's pyramid.
fn engine(p: &Arc<Pyramid>) -> PredictionEngine {
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

/// A lockstep run at prefetch budget `k` over the shared cache `mu`;
/// faults and burst scheduling off.
fn lockstep(k: usize, mu: MultiUserServing) -> RunConfig {
    RunConfig {
        serving: ServerConfig {
            default_k: k,
            multi_user: Some(mu),
            ..ServerConfig::default()
        },
        ..RunConfig::default()
    }
}

/// Runs the multi-dataset scenario twice (hotspot model off, then on)
/// over fresh pyramids each time, pairing the per-namespace reports.
fn run_multi_dataset_ab(sessions: usize, steps: usize) -> Vec<(NamespaceReport, NamespaceReport)> {
    let leg = |hotspots: bool| {
        let data: Vec<(Arc<Pyramid>, Vec<Trace>)> = (0..MD_DATASETS.len())
            .map(|i| {
                let p = pyramid(1 + i as u64 * 37);
                let traces = hotspot_workload(p.geometry(), sessions, steps, MD_ATTRACTORS);
                (p, traces)
            })
            .collect();
        let datasets: Vec<_> = MD_DATASETS
            .iter()
            .zip(&data)
            .map(|(&name, (p, traces))| (name, p, &traces[..]))
            .collect();
        let mu = MultiUserServing {
            cache_capacity: MD_BUDGET,
            shards: 0,
            hotspots: hotspots.then_some(HotspotConfig {
                top_n: MD_ATTRACTORS,
                refresh_every: 32,
            }),
        };
        let cfg = RunConfig {
            sessions,
            steps_per_session: steps,
            ..lockstep(MD_K, mu)
        };
        // The server feeds the model; each session's engine blends its
        // prior.
        let blend = hotspots.then_some(HotspotBlend {
            radius: 8,
            phases: [true, true, true],
        });
        let blended = |p: &Arc<Pyramid>| {
            let mut e = engine(p);
            e.set_hotspot_blend(blend);
            e
        };
        run(&datasets, blended, &cfg)
    };
    let off = leg(false).namespaces;
    off.into_iter().zip(leg(true).namespaces).collect()
}

/// Fault A/B shape (part 2): the same workload replayed under a quiet
/// plan and under a mid-run backend brownout.
const FAULT_SESSIONS: usize = 8;
const FAULT_STEPS: usize = 256;
const FAULT_SEED: u64 = 7;

/// Workload-zoo A/B shape (part 3). The cache is deliberately tight —
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
    off: RunReport,
    on: RunReport,
}

/// A small pyramid for the zoo A/B ([`pyramid`]'s 5460 tiles would
/// need thousands of tiles of cache to reach the same pressure).
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

/// Runs every named zoo workload as one lockstep crowd with the burst
/// scheduler off, then on.
fn run_zoo_ab(steps: usize) -> Vec<ZooDelta> {
    let p = zoo_pyramid();
    ZOO_NAMES
        .iter()
        .map(|&name| {
            let workloads = zoo::crowd(name, p.geometry(), steps, ZOO_SESSIONS, ZOO_SEED);
            let leg = |burst| {
                let mu = MultiUserServing {
                    cache_capacity: ZOO_CAPACITY,
                    shards: ZOO_SHARDS,
                    hotspots: None,
                };
                let mut cfg = lockstep(ZOO_K, mu);
                cfg.serving.burst = burst;
                run_crowd(&p, engine, &workloads, &cfg)
            };
            ZooDelta {
                name,
                off: leg(None),
                on: leg(Some(BurstConfig::default())),
            }
        })
        .collect()
}

/// Reactor swarm shape (part 4): `(sessions, requests_per_session)`
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
/// Runs per tail leg and per push arm. A tail leg reports its run with
/// the best p99: the box shares one CPU between swarm driver, server,
/// and the rest of the system, and a single scheduler hiccup lands
/// whole milliseconds on a ~300 µs p99 — min-over-runs is the standard
/// noise-floor estimate for that regime (every run must still finish
/// error-free to count). A push arm reports its medians, since its
/// headline is a ratio of counts rather than a latency floor.
const SWARM_TAIL_RUNS: usize = 2;
/// The 1024:64 p99 ratio the acceptance criterion tracks (≤ 2×).
const TAIL_ACCEPTANCE: f64 = 2.0;

/// Push A/B shape (part 4). The tick budget is far below the fleet's
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
fn run_push_leg(p: &Arc<Pyramid>, policy: PushPolicy, sessions: usize, requests: usize) -> PushRun {
    let g = p.geometry();
    let factory: EngineFactory = Arc::new(move || swarm_engine(g));
    let mut server = Server::bind(
        "127.0.0.1:0",
        p.clone(),
        factory,
        ServerConfig {
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

/// One push run: the swarm's report and the server-side push counters
/// `(pushed, used)`.
type PushRun = (SwarmReport, (u64, u64));

/// `used ÷ pushed`, zero when nothing was pushed.
fn push_efficiency(&(_, (pushed, used)): &PushRun) -> f64 {
    if pushed == 0 {
        0.0
    } else {
        used as f64 / pushed as f64
    }
}

/// A run's client-observed p99, in µs.
fn p99_us(r: &SwarmReport) -> f64 {
    r.latency_quantile(0.99).as_nanos() as f64 / 1e3
}

/// The median of `xs` (the mean of the middle two for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One push arm's medians `(efficiency, p99 µs)` over its runs.
fn push_arm_medians(runs: &[PushRun]) -> (f64, f64) {
    (
        median(runs.iter().map(push_efficiency).collect()),
        median(runs.iter().map(|(r, _)| p99_us(r)).collect()),
    )
}

/// One push arm's JSON: the medians over its runs, then each run's
/// server-side counters (authoritative) plus the client-side echo from
/// the swarm.
fn push_arm_json(runs: &[PushRun]) -> String {
    let (eff, p99) = push_arm_medians(runs);
    let per_run: Vec<String> = runs
        .iter()
        .map(|run @ (r, (pushed, used))| {
            format!(
                "{{\"pushed\": {pushed}, \"used\": {used}, \"efficiency\": {:.3}, \"client_pushes\": {}, \"client_pushes_used\": {}, \"hit_rate\": {:.3}, \"p99_us\": {:.1}}}",
                push_efficiency(run),
                r.pushes,
                r.pushes_used,
                r.hit_rate(),
                p99_us(r),
            )
        })
        .collect();
    format!(
        "{{\"efficiency\": {eff:.3}, \"p99_us\": {p99:.1}, \"runs\": [{}]}}",
        per_run.join(", ")
    )
}

/// Replays `sessions × steps` of the synthetic workload under `plan`
/// through the fallible fetch path, window `[from, until)`.
fn run_fault_arm(
    p: &Arc<Pyramid>,
    sessions: usize,
    steps: usize,
    plan: FaultPlan,
    window: (u64, u64),
) -> RunReport {
    let traces = synthetic_workload(p.geometry(), sessions, steps, 5);
    let mu = MultiUserServing {
        cache_capacity: CAPACITY,
        shards: SHARDS,
        hotspots: None,
    };
    let mut cfg = RunConfig {
        sessions,
        steps_per_session: steps,
        fault_window: window,
        ..lockstep(K, mu)
    };
    cfg.serving.faults = Some(FaultSetup {
        plan: Arc::new(plan),
        retry: RetryPolicy::default(),
    });
    let r = run(&[("fault", p, &traces)], engine, &cfg);
    assert_invariants(&r);
    r
}

/// One arm's JSON fields (rates over the whole run; the `during` /
/// `after` splits let the report show recovery once the window shuts).
fn fault_arm_json(r: &RunReport) -> String {
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
    let (md_sessions, md_steps) = if smoke {
        (2, 32)
    } else {
        (MD_SESSIONS, MD_STEPS)
    };

    // Part 1: the multi-dataset hotspot-model A/B.
    let deltas = run_multi_dataset_ab(md_sessions, md_steps);

    // Part 2: fault A/B — the same workload under a quiet plan and
    // under a mid-run backend brownout (middle half of the run).
    let (fault_sessions, fault_steps) = if smoke {
        (2, 24)
    } else {
        (FAULT_SESSIONS, FAULT_STEPS)
    };
    let window = (fault_steps as u64 / 4, 3 * fault_steps as u64 / 4);
    let p = pyramid(0);
    let quiet = run_fault_arm(
        &p,
        fault_sessions,
        fault_steps,
        FaultPlan::quiet(FAULT_SEED),
        window,
    );
    let brownout = run_fault_arm(
        &p,
        fault_sessions,
        fault_steps,
        FaultPlan::brownout(FAULT_SEED, window.0, window.1),
        window,
    );

    // Part 3: the workload-zoo scheduler A/B.
    let zoo_steps = if smoke { 32 } else { ZOO_STEPS };
    let zoo_deltas = run_zoo_ab(zoo_steps);

    // Part 4: reactor tail sweep + push A/B over real sockets. Smoke
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
    let tail_ratio = p99_us(&tail_legs[tail_legs.len() - 1].3) / p99_us(&tail_legs[0].3).max(1e-9);
    // The two push arms alternate run by run, so a drift of the shared
    // host lands on both.
    let (mut push_util, mut push_rr) = (Vec::new(), Vec::new());
    for _ in 0..SWARM_TAIL_RUNS.max(1) {
        for (policy, runs) in [
            (PushPolicy::Utility, &mut push_util),
            (PushPolicy::RoundRobin, &mut push_rr),
        ] {
            runs.push(run_push_leg(&swarm_p, policy, push_sessions, push_requests));
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"multiuser\",\n");
    let _ = writeln!(
        json,
        "  \"shape\": {{\"tiles\": {}, \"capacity\": {CAPACITY}, \"shards\": {SHARDS}, \"k\": {K}}},",
        p.geometry().total_tiles()
    );
    let _ = writeln!(
        json,
        "  \"multi_dataset\": {{\n    \"datasets\": {}, \"sessions_per_dataset\": {md_sessions}, \"steps_per_session\": {md_steps}, \"global_budget\": {MD_BUDGET}, \"attractors\": {MD_ATTRACTORS},",
        MD_DATASETS.len()
    );
    json.push_str("    \"namespaces\": [\n");
    for (i, (off, on)) in deltas.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"dataset\": \"{}\", \"capacity\": {}, \"hit_rate_model_off\": {:.3}, \"hit_rate_model_on\": {:.3}, \"hit_rate_delta\": {:.3}, \"cross_session_hits_model_off\": {}, \"cross_session_hits_model_on\": {}, \"hotspot_epochs\": {}}}",
            off.dataset,
            off.capacity,
            off.hit_rate(),
            on.hit_rate(),
            on.hit_rate() - off.hit_rate(),
            off.shared.cross_session_hits,
            on.shared.cross_session_hits,
            on.hotspot_epoch,
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
            d.off.hit_rate(),
            d.on.hit_rate(),
            d.on.hit_rate() - d.off.hit_rate(),
            d.off.prefetch_efficiency(),
            d.on.prefetch_efficiency(),
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
        "    \"push_ab\": {{\n      \"runs_per_arm\": {SWARM_TAIL_RUNS}, \"sessions\": {push_sessions}, \"requests_per_session\": {push_requests}, \"pace_ms\": {}, \"tick_budget\": {PUSH_TICK_BUDGET},",
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
    let _ = writeln!(json, "      \"utility\": {},", push_arm_json(&push_util));
    let _ = writeln!(json, "      \"round_robin\": {}", push_arm_json(&push_rr));
    json.push_str("    }\n  }\n}\n");
    if !smoke {
        std::fs::write("BENCH_multiuser.json", &json).expect("write BENCH_multiuser.json");
    }

    println!("# multi-dataset hotspot model (off -> on), one namespace per dataset");
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>7} {:>12} {:>12}",
        "dataset", "capacity", "hit-off", "hit-on", "delta", "cross-off", "cross-on"
    );
    for (off, on) in &deltas {
        println!(
            "{:<8} {:>9} {:>9.3} {:>9.3} {:>+7.3} {:>12} {:>12}",
            off.dataset,
            off.capacity,
            off.hit_rate(),
            on.hit_rate(),
            on.hit_rate() - off.hit_rate(),
            off.shared.cross_session_hits,
            on.shared.cross_session_hits,
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
            d.off.hit_rate(),
            d.on.hit_rate(),
            d.on.hit_rate() - d.off.hit_rate(),
            d.off.prefetch_efficiency(),
            d.on.prefetch_efficiency(),
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
        "# push A/B — utility vs round-robin at tick budget {PUSH_TICK_BUDGET} ({push_sessions} sessions, every {PUSH_EXPLORER_EVERY}nd a burst explorer), {SWARM_TAIL_RUNS} runs per arm"
    );
    println!(
        "{:<12} {:>4} {:>8} {:>8} {:>11} {:>8} {:>12}",
        "policy", "run", "pushed", "used", "efficiency", "hit", "p99 µs"
    );
    for (name, runs) in [("utility", &push_util), ("round_robin", &push_rr)] {
        for (i, run @ (r, (pushed, used))) in runs.iter().enumerate() {
            println!(
                "{:<12} {:>4} {:>8} {:>8} {:>11.3} {:>8.3} {:>12.1}",
                name,
                i,
                pushed,
                used,
                push_efficiency(run),
                r.hit_rate(),
                p99_us(r),
            );
        }
        let (eff, p99) = push_arm_medians(runs);
        println!(
            "{:<12} {:>4} {:>8} {:>8} {:>11.3} {:>8} {:>12.1}",
            name, "med", "", "", eff, "", p99
        );
    }
    println!();
    if smoke {
        println!("smoke mode: BENCH_multiuser.json left untouched");
    } else {
        println!("wrote BENCH_multiuser.json");
        if tail_ratio > TAIL_ACCEPTANCE {
            eprintln!("WARNING: reactor p99 tail ratio above the {TAIL_ACCEPTANCE}x acceptance");
        }
        if push_arm_medians(&push_util).0 <= push_arm_medians(&push_rr).0 {
            eprintln!("WARNING: utility push median efficiency did not beat round-robin");
        }
    }
}
