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
use fc_server::{FaultSetup, MultiUserServing, ServerConfig};
use fc_sim::multiuser::{hotspot_workload, synthetic_workload};
use fc_sim::trace::Trace;
use fc_sim::{assert_invariants, RunConfig, RunReport};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
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

/// A run of `sessions` × `steps` over a shared cache of `capacity`
/// tiles in `shards` shards (0 = default striping), every session under
/// `plan` with its faults covering `window`.
fn faulted(
    sessions: usize,
    steps: usize,
    (capacity, shards): (usize, usize),
    plan: FaultPlan,
    window: (u64, u64),
) -> RunConfig {
    let d = RunConfig::default();
    RunConfig {
        serving: ServerConfig {
            multi_user: Some(MultiUserServing {
                cache_capacity: capacity,
                shards,
                hotspots: None,
            }),
            faults: Some(FaultSetup {
                plan: Arc::new(plan),
                retry: RetryPolicy::default(),
            }),
            ..d.serving
        },
        sessions,
        steps_per_session: steps,
        fault_window: window,
        ..d
    }
}

/// One lockstep run of `traces` over `p`.
fn run(p: &Arc<Pyramid>, traces: &[Trace], cfg: &RunConfig) -> RunReport {
    fc_sim::run(&[("chaos", p, traces)], engine, cfg)
}

#[test]
fn chaos_quiet_plan_is_faultless() {
    let p = pyramid();
    let g = p.geometry();
    let traces = synthetic_workload(g, 2, 24, 6);
    let cfg = faulted(2, 24, (32, 0), FaultPlan::quiet(1), (0, u64::MAX));
    let r = run(&p, &traces, &cfg);
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
    let cfg = faulted(4, 40, (32, 0), FaultPlan::brownout(7, 8, 20), (8, 20));
    let r = run(&p, &traces, &cfg);
    assert_invariants(&r);
    assert_eq!(r.attempts, 4 * 40, "every session drained its steps");
    // The pair-count check bites under faults: at k = 4 under
    // `Updated` only Sensemaking requests rank SB, so some replies
    // probe no pair, and a report one probe short is refused.
    let probes = r.namespaces[0].pair_probes;
    assert!(0 < probes && r.sb_ranked < (r.served - r.degraded), "{r:?}");
    let mut short = r.clone();
    short.namespaces[0].pair_probes -= 1;
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
    // Tight budget: the flash crowd cannot simply cache its way
    // around the burst.
    let cfg = faulted(6, 48, (8, 4), error_burst(11, 10, 26), (10, 26));
    let r = run(&p, &traces, &cfg);
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
    // and the shared pair table keeps ranking under it.
    assert!(r.namespaces[0].pair_probes > 0);
}

/// Degraded backend: a windowless low-grade fault floor. Slow-client
/// pressure comes from latency spikes charged to the shared clock; the
/// run must stay almost entirely served.
#[test]
fn chaos_degraded_backend_stays_mostly_served() {
    let p = pyramid();
    let g = p.geometry();
    let traces = synthetic_workload(g, 4, 32, 5);
    let cfg = faulted(4, 32, (32, 0), degraded_backend(3), (0, u64::MAX));
    let r = run(&p, &traces, &cfg);
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

/// Eight sessions, batching on, a brownout: the whole replay — fault
/// decisions, retries, degraded replies, shared-cache contention,
/// every reply's surface — is a pure function of the (plan, traces)
/// pair under the lockstep driver and replays bit-identically.
#[test]
fn chaos_multi_session_replay_is_deterministic() {
    let traces = synthetic_workload(pyramid().geometry(), 8, 36, 5);
    let cfg = faulted(8, 36, (16, 4), FaultPlan::brownout(23, 6, 18), (6, 18));
    let a = run(&pyramid(), &traces, &cfg);
    let b = run(&pyramid(), &traces, &cfg);
    assert_invariants(&a);
    assert!(a.retries > 0 && a.during.attempts > 0, "{a:?}");
    assert_eq!(a, b);
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
    // Request 0 (the root warm-up) is clean; every fetch after it
    // fails until the retry budget exhausts.
    let plan = FaultPlan::windowed(
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
    );
    let mut cfg = faulted(1, 12, (16, 0), plan, (1, u64::MAX));
    cfg.serving.default_k = 0;
    let r = run(&p, &[trace], &cfg);
    assert_invariants(&r);
    assert_eq!(r.attempts, 12);
    assert_eq!(r.before.served, 1, "the warm-up request is clean");
    // Every deep attempt has the root resident in the private history
    // cache: the ladder answers degraded instead of failing.
    assert_eq!(r.failures, 0, "nothing should fail outright: {r:?}");
    assert_eq!(r.during.degraded, 11, "deep attempts degrade: {r:?}");
}
