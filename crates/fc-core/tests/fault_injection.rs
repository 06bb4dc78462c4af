//! Fault-injection integration tests: the guarded fetch path, the
//! degradation ladder, and the zero-cost-by-default guarantee.

use fc_core::engine::PhaseSource;
use fc_core::signature::{hist_signature, SignatureKind};
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, FaultPlan, FaultRates, FaultWindow,
    FetchError, LatencyProfile, Middleware, PredictionEngine, RetryPolicy, SbConfig, SbRecommender,
};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use std::sync::Arc;
use std::time::Duration;

fn pyramid() -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("G", 64, 64, &["v"]).unwrap();
    let data: Vec<f64> = (0..64 * 64).map(|i| (i % 64) as f64 / 64.0).collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
    let mut cfg = PyramidConfig::simple(3, 16, &["v"]);
    cfg.latency = fc_array::LatencyModel::scidb_like();
    let p = PyramidBuilder::new().build(&base, &cfg).unwrap();
    for id in p.geometry().all_tiles() {
        let t = p.store().fetch_offline(id).unwrap();
        p.store().put_meta(
            id,
            SignatureKind::Hist1D.meta_name(),
            hist_signature(&t, "v", (0.0, 1.0), 8),
        );
    }
    p.store().reset_io_stats();
    Arc::new(p)
}

fn middleware(p: Arc<Pyramid>, k: usize) -> Middleware {
    let r = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![r; 12]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    let engine = PredictionEngine::new(
        p.geometry(),
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::AbOnly,
            ..EngineConfig::default()
        },
    );
    Middleware::new(engine, p, LatencyProfile::paper(), 3, k)
}

/// The trace every comparison test replays: a deepest-level pan run.
fn walk(mw: &mut Middleware, steps: u32) -> Vec<(Duration, bool, bool, Vec<TileId>)> {
    let mut out = Vec::new();
    for x in 0..steps {
        let mv = (x > 0).then_some(Move::PanRight);
        let r = mw
            .try_request(TileId::new(2, 1, x), mv)
            .expect("servable walk")
            .expect("in geometry");
        out.push((r.latency, r.cache_hit, r.degraded, r.prefetched));
    }
    out
}

/// Zero-cost-by-default: no plan, a quiet plan, and an out-of-window
/// plan all produce bit-identical responses and clock readings.
#[test]
fn faults_off_quiet_and_out_of_window_are_bit_identical() {
    let baseline = {
        let p = pyramid();
        let mut mw = middleware(p.clone(), 3);
        let r = walk(&mut mw, 4);
        (r, p.store().clock().now())
    };
    for plan in [
        FaultPlan::quiet(7),
        FaultPlan::brownout(7, 1_000_000, 2_000_000),
    ] {
        let p = pyramid();
        let mut mw = middleware(p.clone(), 3);
        mw.set_faults(Arc::new(plan), RetryPolicy::default());
        let r = walk(&mut mw, 4);
        assert_eq!(r, baseline.0, "responses must match the fault-free run");
        assert_eq!(p.store().clock().now(), baseline.1, "clock must agree");
        assert_eq!(mw.stats().degraded, 0);
        assert_eq!(mw.stats().fetch_failures, 0);
    }
}

/// The same seed replays the same chaos: responses, degraded flags,
/// and the simulated clock all agree between two runs.
#[test]
fn chaos_replay_is_bit_identical() {
    let run = || {
        let p = pyramid();
        let mut mw = middleware(p.clone(), 3);
        mw.set_faults(
            Arc::new(FaultPlan::brownout(1234, 1, 3)),
            RetryPolicy::default(),
        );
        let r = walk(&mut mw, 4);
        (r, p.store().clock().now(), mw.stats())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

/// Transient errors within the retry budget recover: the reply is
/// normal (not degraded), reports its retries, and the backoff waits
/// land in both the latency and the simulated clock.
#[test]
fn transient_errors_retry_and_recover() {
    let p = pyramid();
    let mut mw = middleware(p.clone(), 0);
    let retry = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(400),
        jitter_per_mille: 0,
        deadline: Duration::from_secs(10),
    };
    // First two attempts of every fetch fail; the third succeeds.
    mw.set_faults(
        Arc::new(FaultPlan::new(
            5,
            FaultRates {
                transient_first_attempts: 2,
                ..FaultRates::default()
            },
        )),
        retry,
    );
    let before = p.store().clock().now();
    let r = mw.try_request(TileId::new(2, 1, 0), None).unwrap().unwrap();
    assert!(!r.degraded);
    assert_eq!(r.fetch_retries, 2);
    // Backoffs 10 ms + 20 ms precede the successful backend fetch.
    let backoffs = Duration::from_millis(30);
    assert!(r.latency > backoffs, "{:?}", r.latency);
    assert!(p.store().clock().now() - before >= backoffs + Duration::from_millis(900));
    assert_eq!(mw.stats().requests, 1);
    assert_eq!(mw.stats().degraded, 0);
}

/// When the budget is exhausted and an ancestor is resident, the
/// request degrades: the ancestor tile answers, the reply is flagged,
/// and prefetch is skipped.
#[test]
fn exhausted_fetch_degrades_to_resident_ancestor() {
    let p = pyramid();
    let mut mw = middleware(p.clone(), 2);
    let child = TileId::new(2, 2, 0);
    let parent = child.parent().unwrap();
    // Window starts at request index 1: request 0 (the parent) is
    // clean and lands in the history cache; request 1 (the child)
    // always fails.
    let plan = FaultPlan::windowed(
        99,
        FaultWindow {
            from: 1,
            until: u64::MAX,
            rates: FaultRates {
                transient_per_mille: 1000,
                transient_first_attempts: u32::MAX,
                ..FaultRates::default()
            },
        },
    );
    mw.set_faults(Arc::new(plan), RetryPolicy::default());
    let r0 = mw.try_request(parent, None).unwrap().unwrap();
    assert!(!r0.degraded);
    let r1 = mw
        .try_request(child, Some(Move::ZoomIn(fc_tiles::Quadrant::Nw)))
        .unwrap()
        .unwrap();
    assert!(r1.degraded, "deadline-exhausted fetch must degrade");
    assert_eq!(r1.tile.id, parent, "nearest resident ancestor answers");
    assert!(!r1.cache_hit, "booked as a miss for the requested tile");
    assert!(r1.prefetched.is_empty(), "prefetch skipped on degraded");
    assert!(r1.fetch_retries > 0);
    let s = mw.stats();
    assert_eq!((s.requests, s.degraded, s.fetch_failures), (2, 1, 0));
}

/// With nothing resident to degrade to, the failure surfaces as a
/// clean `FetchError` with no counters moved; the session recovers
/// once the plan goes quiet.
#[test]
fn failure_without_ancestor_is_a_clean_error() {
    let p = pyramid();
    let mut mw = middleware(p.clone(), 2);
    mw.set_faults(
        Arc::new(FaultPlan::always_failing(3)),
        RetryPolicy::default(),
    );
    let err = mw.try_request(TileId::new(2, 1, 1), None).unwrap_err();
    assert!(
        matches!(err, FetchError::Unavailable { attempts: 4 }),
        "{err:?}"
    );
    let s = mw.stats();
    assert_eq!((s.requests, s.fetch_failures), (0, 1));
    // `request` maps the failure to None for legacy callers.
    assert!(mw.request(TileId::new(2, 1, 1), None).is_none());
    mw.set_faults(Arc::new(FaultPlan::quiet(3)), RetryPolicy::default());
    assert!(mw
        .try_request(TileId::new(2, 1, 1), None)
        .unwrap()
        .is_some());
}

/// A stuck fetch consumes the whole remaining deadline on the
/// simulated clock before failing.
#[test]
fn stuck_fetch_consumes_the_deadline() {
    let p = pyramid();
    let mut mw = middleware(p.clone(), 0);
    let deadline = Duration::from_millis(500);
    mw.set_faults(
        Arc::new(FaultPlan::new(
            8,
            FaultRates {
                stuck_per_mille: 1000,
                ..FaultRates::default()
            },
        )),
        RetryPolicy {
            deadline,
            ..RetryPolicy::default()
        },
    );
    let before = p.store().clock().now();
    let err = mw.try_request(TileId::new(2, 1, 0), None).unwrap_err();
    assert!(
        matches!(err, FetchError::DeadlineExceeded { .. }),
        "{err:?}"
    );
    assert_eq!(p.store().clock().now() - before, deadline);
}

/// Fault windows are per-session request indices: hit-rate collapses
/// inside the window and recovers after it — the invariant the chaos
/// suite asserts at scale.
#[test]
fn hit_rate_recovers_after_the_fault_window() {
    let p = pyramid();
    let mut mw = middleware(p.clone(), 4);
    // Requests 4..8 fail hard; before and after are clean.
    let plan = FaultPlan::windowed(
        21,
        FaultWindow {
            from: 4,
            until: 8,
            rates: FaultRates {
                transient_per_mille: 1000,
                transient_first_attempts: u32::MAX,
                ..FaultRates::default()
            },
        },
    );
    mw.set_faults(Arc::new(plan), RetryPolicy::default());
    // A 12-step serpentine across level 2's 4x4 tile grid. (served
    // cleanly, cache hit) per step; a pan walk caches no ancestors, so
    // in-window failures surface as errors rather than degraded
    // replies — either way the session survives the window.
    let steps: [(Option<Move>, u32, u32); 12] = [
        (None, 1, 0),
        (Some(Move::PanRight), 1, 1),
        (Some(Move::PanRight), 1, 2),
        (Some(Move::PanRight), 1, 3),
        (Some(Move::PanDown), 2, 3),
        (Some(Move::PanLeft), 2, 2),
        (Some(Move::PanLeft), 2, 1),
        (Some(Move::PanLeft), 2, 0),
        (Some(Move::PanDown), 3, 0),
        (Some(Move::PanRight), 3, 1),
        (Some(Move::PanRight), 3, 2),
        (Some(Move::PanRight), 3, 3),
    ];
    let mut outcomes = Vec::new();
    for (mv, y, x) in steps {
        match mw.try_request(TileId::new(2, y, x), mv) {
            Ok(Some(r)) => outcomes.push((true, r.cache_hit)),
            Ok(None) => panic!("tile ({y},{x}) must exist"),
            Err(_) => outcomes.push((false, false)),
        }
    }
    // Inside the window the backend is unreachable: a request either
    // fails or is answered from cache — never a clean backend miss.
    assert!(
        outcomes[4..8].iter().all(|&(served, hit)| !served || hit),
        "no clean miss inside the window: {outcomes:?}"
    );
    let failures = outcomes[4..8].iter().filter(|&&(s, _)| !s).count();
    assert!(failures >= 2, "the window must bite: {outcomes:?}");
    assert!(
        outcomes[..4].iter().chain(&outcomes[8..]).all(|&(s, _)| s),
        "outside the window every request serves: {outcomes:?}"
    );
    // After the window the prefetcher resumes and hits return.
    let hits_after = outcomes[8..].iter().filter(|&&(_, h)| h).count();
    assert!(hits_after >= 2, "hit rate must recover, got {hits_after}");
    assert_eq!(mw.fault_request_index(), 12);
    assert_eq!(mw.stats().fetch_failures, failures);
}
