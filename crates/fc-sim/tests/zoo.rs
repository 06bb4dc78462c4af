//! Workload-zoo suite: every zoo workload replays bit-identically
//! from its seed through a full middleware session with the burst
//! scheduler active; the zoom-dive drives all three analysis-phase
//! buckets with balanced accounting; and the flash-crowd runs under a
//! backend brownout with the burst scheduler on, holding every chaos
//! invariant. Run with `cargo test -p fc-sim --test zoo`.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, BurstConfig, EngineConfig, FaultPlan, LatencyProfile,
    Middleware, PredictionEngine, RetryPolicy, SbConfig, SbRecommender, TrafficPhase,
};
use fc_server::{FaultSetup, MultiUserServing, ServerConfig};
use fc_sim::zoo::{self, replay_workload, run_crowd, Workload, ZOO_NAMES};
use fc_sim::{assert_invariants, RunConfig};
use fc_tiles::{Geometry, Move, Pyramid, PyramidBuilder, PyramidConfig};
use std::sync::Arc;

fn pyramid() -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("G", 128, 128, &["v"]).unwrap();
    let data: Vec<f64> = (0..128 * 128).map(|i| (i % 128) as f64 / 128.0).collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
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

fn engine(g: Geometry) -> PredictionEngine {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 10]];
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

/// Steps of declared traffic per phase (burst/dwell/idle) — what the
/// generator promises, for comparison against the middleware's
/// `per_traffic` step counts.
fn declared_occupancy(w: &Workload) -> [usize; 3] {
    let mut counts = [0usize; 3];
    for p in &w.declared {
        counts[p.index()] += 1;
    }
    counts
}

fn session(p: &Arc<Pyramid>, burst: Option<BurstConfig>) -> Middleware {
    let mut mw = Middleware::new(
        engine(p.geometry()),
        p.clone(),
        LatencyProfile::paper(),
        4,
        4,
    );
    mw.set_burst(burst);
    mw
}

/// Acceptance criterion: every zoo workload — generator *and* full
/// middleware replay with the scheduler active — is bit-identical
/// from its seed. Two independent sessions over two independently
/// generated copies must produce the same response fingerprint.
#[test]
fn zoo_replays_bit_identically_from_seed() {
    let p = pyramid();
    let g = p.geometry();
    for name in ZOO_NAMES {
        let a = zoo::build(name, g, 96, 2024, 0).unwrap();
        let b = zoo::build(name, g, 96, 2024, 0).unwrap();
        assert_eq!(a, b, "{name}: generator must be pure in its seed");
        let ra = replay_workload(&mut session(&p, Some(BurstConfig::default())), &a);
        let rb = replay_workload(&mut session(&p, Some(BurstConfig::default())), &b);
        assert!(ra.served > 0, "{name}: nothing served");
        assert_eq!(
            ra.fingerprint, rb.fingerprint,
            "{name}: replay must be bit-identical from seed"
        );
        assert_eq!(ra.stats, rb.stats, "{name}: stats must match");
    }
}

/// The scheduler-off replay is deterministic too (the baseline leg of
/// the report's `workload_zoo` section depends on it).
#[test]
fn zoo_replays_bit_identically_with_scheduler_off() {
    let p = pyramid();
    let w = zoo::bursty_pan_sprint(p.geometry(), 96, 7, 0);
    let ra = replay_workload(&mut session(&p, None), &w);
    let rb = replay_workload(&mut session(&p, None), &w);
    assert_eq!(ra, rb);
    assert_eq!(ra.stats.per_traffic, [0, 0, 0], "burst off tracks nothing");
}

/// Zoo-backed regression for the analysis-phase accounting: the
/// zoom-dive drives Foraging (coarse pans), Navigation (zooms), and
/// Sensemaking (deep pans) in one session, and the per-phase counts
/// must balance against total requests — as must the traffic-phase
/// counts, which the same replay drives through all three buckets.
#[test]
fn zoom_dive_fills_and_balances_every_phase_bucket() {
    let p = pyramid();
    let w = zoo::zoom_dive(p.geometry(), 200, 5, 0);
    let mut mw = session(&p, Some(BurstConfig::default()));
    let out = replay_workload(&mut mw, &w);
    let s = out.stats;
    assert_eq!(s.requests, out.served);
    assert_eq!(
        s.per_phase.iter().sum::<usize>(),
        s.requests,
        "every request lands in exactly one analysis phase: {s:?}"
    );
    assert!(
        s.per_phase.iter().all(|&n| n > 0),
        "zoom-dive must drive Foraging, Navigation, and Sensemaking: {:?}",
        s.per_phase
    );
    assert_eq!(
        s.per_traffic.iter().sum::<usize>(),
        s.requests,
        "every request lands in exactly one traffic phase: {s:?}"
    );
    assert!(
        s.per_traffic.iter().all(|&n| n > 0),
        "zoom-dive must drive burst, dwell, and idle: {:?}",
        s.per_traffic
    );
}

/// The middleware's classifier recovers each workload's declared
/// traffic structure through a real replay (not just the pure-gap
/// check in the zoo's unit tests): the served per-traffic counts
/// match the declared occupancy of the steps that were served.
#[test]
fn middleware_recovers_declared_structure_on_replay() {
    let p = pyramid();
    for w in zoo::zoo(p.geometry(), 120, 31) {
        let mut mw = session(&p, Some(BurstConfig::default()));
        let out = replay_workload(&mut mw, &w);
        // All zoo tiles exist in the test pyramid, so declared
        // occupancy and served counts are directly comparable.
        assert_eq!(out.served, w.len(), "{}: unservable tiles in zoo", w.name);
        assert_eq!(
            out.stats.per_traffic,
            declared_occupancy(&w),
            "{}: middleware must recover the declared phase structure",
            w.name
        );
    }
}

/// The A/B pyramid: large enough (256²/16-cell tiles → 341 tiles)
/// that a 64-tile shared cache actually churns.
fn ab_pyramid() -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("AB", 256, 256, &["v"]).unwrap();
    let data: Vec<f64> = (0..256 * 256).map(|i| (i % 256) as f64 / 256.0).collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
    let mut pcfg = PyramidConfig::simple(4, 16, &["v"]);
    pcfg.latency = fc_array::LatencyModel::scidb_like();
    let p = PyramidBuilder::new().build(&base, &pcfg).unwrap();
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

/// A per-step model with no momentum signal for horizontal runs: its
/// AB corpus is vertical survey traces — the realistic cross-task
/// mismatch the burst scheduler exists for.
fn cross_task_engine(p: &Arc<Pyramid>) -> PredictionEngine {
    let d = Move::PanDown.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![d; 10]];
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

/// The A/B shape: a 64-tile shared cache in 4 shards, no shared pair
/// cache, and a 4-tile uniform budget — wide enough to matter, narrow
/// enough that the per-step models must actually choose: with no
/// momentum signal they spend it on same-column lookalikes while the
/// sprint runs horizontally.
fn ab_config(burst: Option<BurstConfig>) -> RunConfig {
    let d = RunConfig::default();
    RunConfig {
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
    }
}

/// The multi-session A/B harness is deterministic (single-threaded
/// lockstep interleave), and the acceptance A/B holds: for the
/// bursty-pan-sprint and revisit-loop workloads, turning the burst
/// scheduler on must improve BOTH the hit rate and the
/// useful-prefetch ratio over the uniform per-request baseline.
#[test]
fn scheduler_ab_wins_on_sprint_and_revisit_workloads() {
    // A/B regime, two deliberate choices:
    //  - the pyramid must dwarf the shared cache, or nothing ever
    //    evicts and both legs trivially hit. 256²/16-cell tiles →
    //    341 tiles vs a 64-tile cache shared by 4 sessions;
    //  - the engine's trained corpus is cross-task (vertical survey
    //    runs), so the per-step models carry no momentum signal for
    //    these horizontal sprints — the realistic mismatch the burst
    //    scheduler exists for. The uniform baseline spends 4 fetches
    //    per request on model candidates that churn the communal LRU,
    //    while the scheduler stays reactive mid-burst (holding the
    //    previous plan) and stages the actual run continuation during
    //    dwell via geometric extrapolation, promoting and pinning the
    //    retrace set an anchored pause predicts.
    let p = ab_pyramid();
    let g = p.geometry();
    for name in ["bursty-pan-sprint", "revisit-loop"] {
        let workloads = zoo::crowd(name, g, 256, 4, 77);
        let leg = |burst| run_crowd(&p, cross_task_engine, &workloads, &ab_config(burst));
        let off = leg(None);
        let off2 = leg(None);
        assert_eq!(
            (off.fingerprint, off.hits(), off.prefetch_used),
            (off2.fingerprint, off2.hits(), off2.prefetch_used),
            "{name}: A/B legs must be deterministic"
        );
        let on = leg(Some(BurstConfig::default()));
        assert_eq!(off.served, on.served, "{name}: same served work");
        assert!(
            on.hit_rate() > off.hit_rate(),
            "{name}: hit rate must improve: off {:.3} vs on {:.3}",
            off.hit_rate(),
            on.hit_rate()
        );
        assert!(
            on.prefetch_efficiency() > off.prefetch_efficiency(),
            "{name}: useful-prefetch ratio must improve: off {:.3} vs on {:.3}",
            off.prefetch_efficiency(),
            on.prefetch_efficiency()
        );
        assert_eq!(
            on.per_traffic.iter().sum::<usize>(),
            on.served,
            "{name}: traffic accounting balances"
        );
    }
}

/// The scheduler's sweep blind spot is closed: on pause-free sweep
/// traffic (spiral, serpentine grid) the default config — burst
/// momentum plus the auto sweep fallback — recovers to within noise
/// of scheduler-off, while the legacy counter-cyclical config (both
/// refinements disabled) demonstrates the blind spot is real. The
/// sprint/revisit wins surviving the same defaults is asserted by
/// `scheduler_ab_wins_on_sprint_and_revisit_workloads` above.
#[test]
fn auto_mode_recovers_sweeps_to_off_parity() {
    let p = ab_pyramid();
    let g = p.geometry();
    for name in ["spiral-sweep", "grid-sweep"] {
        let workloads = zoo::crowd(name, g, 256, 4, 77);
        let leg = |burst| run_crowd(&p, cross_task_engine, &workloads, &ab_config(burst));
        let off = leg(None);
        let on = leg(Some(BurstConfig::default()));
        let legacy = leg(Some(BurstConfig {
            momentum: false,
            auto_window: 0,
            ..BurstConfig::default()
        }));
        // The blind spot: reactive-only bursts with no quiet windows
        // collapse the hit rate (measured: spiral 0.82→0.16, grid
        // 0.93→0.16 at this shape).
        assert!(
            legacy.hit_rate() < off.hit_rate() - 0.3,
            "{name}: expected the legacy scheduler to collapse on sweeps \
             (the blind spot this test guards): off {:.3} vs legacy {:.3}",
            off.hit_rate(),
            legacy.hit_rate()
        );
        // The recovery: defaults hold both metrics to off-parity
        // (within noise — spiral actually beats off on both).
        assert!(
            on.hit_rate() >= off.hit_rate() - 0.02,
            "{name}: sweep must recover to off-parity hit rate: off {:.3} vs on {:.3}",
            off.hit_rate(),
            on.hit_rate()
        );
        assert!(
            on.prefetch_efficiency() >= off.prefetch_efficiency() - 0.02,
            "{name}: sweep must recover to off-parity efficiency: off {:.3} vs on {:.3}",
            off.prefetch_efficiency(),
            on.prefetch_efficiency()
        );
    }
}

/// Chaos cross-coverage: the flash-crowd arrival replayed under a
/// backend brownout with the burst scheduler ACTIVE. Every fault
/// invariant from the chaos harness must hold with counter-cyclical
/// budgets in play, and the traffic accounting must balance across
/// the degradation ladder (clean, degraded, and failed requests).
#[test]
fn flash_crowd_brownout_with_burst_scheduler_holds_invariants() {
    let p = pyramid();
    let g = p.geometry();
    let crowd: Vec<Workload> = zoo::crowd("flash-crowd", g, 48, 4, 1337);
    let d = RunConfig::default();
    let cfg = RunConfig {
        serving: ServerConfig {
            multi_user: Some(MultiUserServing {
                cache_capacity: 32,
                shards: 4,
                hotspots: None,
            }),
            faults: Some(FaultSetup {
                plan: Arc::new(FaultPlan::brownout(21, 10, 28)),
                retry: RetryPolicy::default(),
            }),
            burst: Some(BurstConfig::default()),
            ..d.serving
        },
        fault_window: (10, 28),
        ..d
    };
    let r = run_crowd(&p, |p| engine(p.geometry()), &crowd, &cfg);
    assert_invariants(&r);
    assert!(r.burst_active);
    assert_eq!(r.attempts, 4 * 48);
    assert!(
        r.per_traffic[TrafficPhase::Burst.index()] > 0,
        "the storm must register as burst traffic: {:?}",
        r.per_traffic
    );
    assert!(
        r.per_traffic[TrafficPhase::Dwell.index()] > 0,
        "the approach must register as dwell traffic: {:?}",
        r.per_traffic
    );
}
