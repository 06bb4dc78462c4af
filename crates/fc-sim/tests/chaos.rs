//! Chaos suite: named fault schedules replayed over the multi-user
//! serving stack, checked against the harness invariants (no escaped
//! panics, bounded cache, balanced accounting, recovery after the
//! fault window). Run with `cargo test -p fc-sim chaos`.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, FaultPlan, FaultRates, FaultWindow,
    PredictionEngine, RetryPolicy, SbConfig, SbRecommender,
};
use fc_sim::multiuser::{hotspot_workload, synthetic_workload, CacheImpl, MultiUserConfig};
use fc_sim::{assert_invariants, run_chaos, ChaosConfig};
use fc_tiles::{Geometry, Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use std::sync::Arc;
use std::time::Duration;

/// **Error burst** (the flash-crowd companion): inside `[from, until)`
/// most attempts fail outright; almost no spikes, no wedges.
fn error_burst(seed: u64, from: u64, until: u64) -> FaultPlan {
    FaultPlan::windowed(
        seed,
        FaultWindow {
            from,
            until,
            rates: FaultRates {
                transient_per_mille: 850,
                transient_first_attempts: 0,
                spike_per_mille: 100,
                spike: Duration::from_millis(100),
                stuck_per_mille: 0,
            },
        },
    )
}

/// **Degraded backend**: a constant low-grade fault floor with no
/// window — background flakiness rather than an incident.
fn degraded_backend(seed: u64) -> FaultPlan {
    FaultPlan::new(
        seed,
        FaultRates {
            transient_per_mille: 100,
            transient_first_attempts: 0,
            spike_per_mille: 200,
            spike: Duration::from_millis(150),
            stuck_per_mille: 10,
        },
    )
}

fn pyramid() -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("G", 128, 128, &["v"]).unwrap();
    let data: Vec<f64> = (0..128 * 128).map(|i| (i % 128) as f64 / 128.0).collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
    let p = PyramidBuilder::new()
        .build(&base, &PyramidConfig::simple(3, 32, &["v"]))
        .unwrap();
    for id in p.geometry().all_tiles() {
        let v = f64::from(id.x % 3) / 3.0;
        p.store()
            .put_meta(id, SignatureKind::Hist1D.meta_name(), vec![v, 1.0 - v]);
    }
    Arc::new(p)
}

fn factory(g: Geometry) -> impl Fn() -> PredictionEngine + Sync {
    move || {
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
}

#[test]
fn chaos_quiet_plan_is_faultless() {
    let p = pyramid();
    let g = p.geometry();
    let traces = synthetic_workload(g, 2, 24, 6);
    let cfg = ChaosConfig {
        base: MultiUserConfig {
            sessions: 2,
            steps_per_session: 24,
            cache_capacity: 32,
            ..MultiUserConfig::default()
        },
        plan: Arc::new(FaultPlan::quiet(1)),
        retry: RetryPolicy::default(),
        fault_window: (0, u64::MAX),
        burst: None,
        think: Vec::new(),
    };
    let r = run_chaos(&p, factory(g), &traces, &cfg);
    assert_invariants(&r);
    assert_eq!(r.attempts, 2 * 24);
    assert_eq!(r.served, r.attempts, "a quiet plan serves everything");
    assert_eq!(r.degraded, 0);
    assert_eq!(r.failures, 0);
    assert_eq!(r.retries, 0);
}

/// Backend brownout: flaky mid-run window, quiet before and after.
/// The ladder must absorb the window (retries, degraded replies, or
/// clean failures — never a panic or a wedged session) and the
/// sessions must come back to clean cache-assisted serving afterward.
#[test]
fn chaos_backend_brownout_recovers() {
    let p = pyramid();
    let g = p.geometry();
    let traces = synthetic_workload(g, 4, 40, 6);
    let cfg = ChaosConfig {
        base: MultiUserConfig {
            sessions: 4,
            steps_per_session: 40,
            cache_capacity: 32,
            ..MultiUserConfig::default()
        },
        plan: Arc::new(FaultPlan::brownout(7, 8, 20)),
        retry: RetryPolicy::default(),
        fault_window: (8, 20),
        burst: None,
        think: Vec::new(),
    };
    let r = run_chaos(&p, factory(g), &traces, &cfg);
    assert_invariants(&r);
    assert_eq!(r.attempts, 4 * 40, "every session drained its steps");
    // The scheduler check bites under faults: at k = 4 under `Updated`
    // only Sensemaking requests rank SB, so the job count sits strictly
    // inside the predicted requests, and a report one job short is
    // refused.
    let jobs = r.scheduler.expect("batch_predicts is the default").jobs;
    assert!(0 < jobs && jobs < (r.served - r.degraded) as u64, "{r:?}");
    let mut short = r.clone();
    short.scheduler.as_mut().unwrap().jobs -= 1;
    assert!(std::panic::catch_unwind(|| assert_invariants(&short)).is_err());
    // Outside the window the plan is quiet: clean serving only.
    assert_eq!(r.before.failures + r.before.degraded, 0, "{:?}", r.before);
    assert_eq!(r.after.failures + r.after.degraded, 0, "{:?}", r.after);
    // Inside it, every backend fetch trips the retry ladder at least
    // once (brownout's first attempt always fails).
    assert!(r.during.attempts > 0);
    assert!(r.retries > 0, "the window must exercise retries: {r:?}");
    // Recovery: once the backend heals, the sessions serve (and hit)
    // again rather than staying degraded.
    assert!(r.after.hits > 0, "hit rate must recover: {:?}", r.after);
}

/// Flash crowd + error burst: sessions converge on shared attractors
/// while the backend sheds most fetches outright. The shared cache and
/// the degradation ladder must contain the burst.
#[test]
fn chaos_flash_crowd_error_burst_is_contained() {
    let p = pyramid();
    let g = p.geometry();
    let traces = hotspot_workload(g, 6, 48, 2);
    let cfg = ChaosConfig {
        base: MultiUserConfig {
            sessions: 6,
            steps_per_session: 48,
            // Tight budget: the flash crowd cannot simply cache its
            // way around the burst.
            cache_capacity: 8,
            cache: CacheImpl::Sharded { shards: 4 },
            ..MultiUserConfig::default()
        },
        plan: Arc::new(error_burst(11, 10, 26)),
        retry: RetryPolicy::default(),
        fault_window: (10, 26),
        burst: None,
        think: Vec::new(),
    };
    let r = run_chaos(&p, factory(g), &traces, &cfg);
    assert_invariants(&r);
    assert_eq!(r.attempts, 6 * 48);
    // The burst must actually bite…
    assert!(
        r.during.failures + r.during.degraded > 0,
        "the burst must surface in the ladder: {:?}",
        r.during
    );
    // …while staying inside the window,
    assert_eq!(r.before.failures + r.before.degraded, 0, "{:?}", r.before);
    assert_eq!(r.after.failures + r.after.degraded, 0, "{:?}", r.after);
    // and the coalescing scheduler keeps draining under it.
    let sched = r.scheduler.expect("batching on");
    assert!(sched.jobs > 0);
}

/// Degraded backend: a windowless low-grade fault floor. Slow-client
/// pressure comes from latency spikes charged to the shared clock; the
/// run must stay almost entirely served.
#[test]
fn chaos_degraded_backend_stays_mostly_served() {
    let p = pyramid();
    let g = p.geometry();
    let traces = synthetic_workload(g, 4, 32, 5);
    let cfg = ChaosConfig {
        base: MultiUserConfig {
            sessions: 4,
            steps_per_session: 32,
            cache_capacity: 32,
            ..MultiUserConfig::default()
        },
        plan: Arc::new(degraded_backend(3)),
        retry: RetryPolicy::default(),
        fault_window: (0, u64::MAX),
        burst: None,
        think: Vec::new(),
    };
    let r = run_chaos(&p, factory(g), &traces, &cfg);
    assert_invariants(&r);
    assert_eq!(r.attempts, 4 * 32);
    // Everything lands in the (unbounded) window bucket.
    assert_eq!(r.before.attempts, 0);
    assert_eq!(r.after.attempts, 0);
    assert_eq!(r.during.attempts, r.attempts);
    // A 10% transient floor under a 3-attempt retry budget should
    // almost never exhaust: the vast majority of attempts serve.
    assert!(
        r.served * 10 >= r.attempts * 9,
        "background flakiness must not dominate: {r:?}"
    );
}

/// One session, batching off: the whole replay — fault decisions,
/// retries, degraded replies, cache contents — is a pure function of
/// the (plan, trace) pair and replays bit-identically.
#[test]
fn chaos_single_session_replay_is_deterministic() {
    let p = pyramid();
    let g = p.geometry();
    let traces = synthetic_workload(g, 1, 36, 5);
    let cfg = ChaosConfig {
        base: MultiUserConfig {
            sessions: 1,
            steps_per_session: 36,
            cache_capacity: 16,
            batch_predicts: false,
            ..MultiUserConfig::default()
        },
        plan: Arc::new(FaultPlan::brownout(23, 6, 18)),
        retry: RetryPolicy::default(),
        fault_window: (6, 18),
        burst: None,
        think: Vec::new(),
    };
    let a = run_chaos(&p, factory(g), &traces, &cfg);
    let b = run_chaos(&pyramid(), factory(g), &traces, &cfg);
    assert_invariants(&a);
    assert_eq!(a.before, b.before);
    assert_eq!(a.during, b.during);
    assert_eq!(a.after, b.after);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.max_resident, b.max_resident);
    assert_eq!(
        (a.served, a.degraded, a.failures),
        (b.served, b.degraded, b.failures)
    );
}

/// The deepest corner tile is reachable only through faulted fetches
/// once the window opens, but its ancestors stay resident from the
/// warm-up — the ladder must keep answering (degraded) rather than
/// failing, and the payloads must come from the ancestor chain.
#[test]
fn chaos_window_serves_ancestors_not_errors_when_resident() {
    let p = pyramid();
    let g = p.geometry();
    // A two-phase trace: warm the root path, then hammer one deep tile.
    let deep = TileId::new(g.levels - 1, 3, 3);
    let mut steps = vec![fc_sim::trace::TraceStep {
        tile: TileId::ROOT,
        mv: None,
        phase: fc_core::Phase::Foraging,
    }];
    for _ in 0..11 {
        steps.push(fc_sim::trace::TraceStep {
            tile: deep,
            mv: None,
            phase: fc_core::Phase::Foraging,
        });
    }
    let trace = fc_sim::Trace {
        user: 0,
        task: 0,
        steps,
    };
    let cfg = ChaosConfig {
        base: MultiUserConfig {
            sessions: 1,
            steps_per_session: 12,
            cache_capacity: 16,
            batch_predicts: false,
            k: 0,
            ..MultiUserConfig::default()
        },
        // Request 0 (the root warm-up) is clean; every fetch after it
        // fails until the retry budget exhausts.
        plan: Arc::new(FaultPlan::windowed(
            5,
            fc_core::FaultWindow {
                from: 1,
                until: u64::MAX,
                rates: fc_core::FaultRates {
                    transient_per_mille: 1000,
                    transient_first_attempts: u32::MAX,
                    ..fc_core::FaultRates::default()
                },
            },
        )),
        retry: RetryPolicy::default(),
        fault_window: (1, u64::MAX),
        burst: None,
        think: Vec::new(),
    };
    let r = run_chaos(&p, factory(g), &[trace], &cfg);
    assert_invariants(&r);
    assert_eq!(r.attempts, 12);
    assert_eq!(r.before.served, 1, "the warm-up request is clean");
    // Every deep attempt has the root resident in the private history
    // cache: the ladder answers degraded instead of failing.
    assert_eq!(r.failures, 0, "nothing should fail outright: {r:?}");
    assert_eq!(r.during.degraded, 11, "deep attempts degrade: {r:?}");
}
