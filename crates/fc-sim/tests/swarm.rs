//! Socket-level swarm runs against the reactor: the wire-path
//! equivalent of the in-process chaos harness, asserting the PR-7
//! robustness invariants hold when every session rides the event loop.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, FaultPlan, FaultRates, FaultWindow,
    PredictionEngine, RetryPolicy, SbConfig, SbRecommender,
};
use fc_server::{
    EngineFactory, FaultSetup, MultiUserServing, PushServing, Server, ServerConfig, SessionLimits,
};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_sim::swarm::{run_swarm, SwarmConfig};
use fc_tiles::Move;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn factory(ds: &StudyDataset) -> EngineFactory {
    let engine_pyramid = ds.pyramid.clone();
    Arc::new(move || {
        let r = Move::PanRight.index() as u16;
        let traces: Vec<Vec<u16>> = vec![vec![r; 10]];
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        PredictionEngine::new(
            engine_pyramid.geometry(),
            AbRecommender::train(refs, 3),
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy: AllocationStrategy::AbOnly,
                ..EngineConfig::default()
            },
        )
    })
}

fn wait_drained(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() != 0 {
        assert!(
            Instant::now() < deadline,
            "sessions failed to drain: {} still active",
            server.active_sessions()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn swarm_completes_a_clean_run_on_the_reactor() {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let mut server = Server::bind(
        "127.0.0.1:0",
        ds.pyramid.clone(),
        factory(&ds),
        ServerConfig {
            reactor: true,
            multi_user: Some(MultiUserServing::default()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let cfg = SwarmConfig {
        sessions: 32,
        requests_per_session: 8,
        pace: Duration::from_millis(5),
        ..SwarmConfig::default()
    };
    let r = run_swarm(server.addr(), &cfg);
    assert_eq!(r.requests, 32 * 8, "every scripted request answered");
    assert_eq!(r.errors, 0, "a clean run has no error replies");
    assert_eq!(
        r.served_requests, r.requests,
        "server-side accounting matches the wire"
    );
    assert!(
        r.prefetch_used <= r.prefetch_issued,
        "used {} > issued {}",
        r.prefetch_used,
        r.prefetch_issued
    );
    assert!(r.latency_quantile(0.5) <= r.latency_quantile(0.99));
    wait_drained(&server);
    server.shutdown();
}

/// Explorers random-walk a 4×4 level, so they keep coming back to tiles
/// the server pushed earlier. The client must book each push as used at
/// most once, like the server's planner does.
#[test]
fn a_pushed_tile_counts_as_used_once() {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let mut server = Server::bind(
        "127.0.0.1:0",
        ds.pyramid.clone(),
        factory(&ds),
        ServerConfig {
            reactor: true,
            multi_user: Some(MultiUserServing::default()),
            push: Some(PushServing::default()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let cfg = SwarmConfig {
        sessions: 4,
        requests_per_session: 96,
        pace: Duration::from_millis(5),
        explorer_every: 1,
        ..SwarmConfig::default()
    };
    let r = run_swarm(server.addr(), &cfg);
    assert_eq!(r.requests, 4 * 96);
    assert!(r.pushes > 0, "the walk must draw pushes to revisit");
    assert!(
        r.pushes_used <= r.pushes,
        "used {} > pushed {}",
        r.pushes_used,
        r.pushes
    );
    wait_drained(&server);
    server.shutdown();
}

/// The socket-level chaos run: transient backend faults mid-window,
/// bounded write queues, liveness timeouts — all at once, through the
/// reactor. The PR-7 invariants must survive the substrate change: no
/// panic escapes (the server keeps serving afterwards), accounting
/// balances (every attempt is answered exactly once, failures and
/// all), and session teardown reclaims every slot.
#[test]
fn chaos_swarm_through_the_reactor_preserves_invariants() {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let plan = FaultPlan::windowed(
        23,
        FaultWindow {
            from: 2,
            until: 6,
            rates: FaultRates {
                transient_per_mille: 400,
                transient_first_attempts: 2,
                ..FaultRates::default()
            },
        },
    );
    let mut server = Server::bind(
        "127.0.0.1:0",
        ds.pyramid.clone(),
        factory(&ds),
        ServerConfig {
            reactor: true,
            multi_user: Some(MultiUserServing::default()),
            faults: Some(FaultSetup {
                plan: Arc::new(plan),
                retry: RetryPolicy::default(),
            }),
            limits: SessionLimits {
                max_write_queue: 64,
                read_timeout: Some(Duration::from_secs(5)),
                write_timeout: Some(Duration::from_secs(5)),
                ..SessionLimits::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let cfg = SwarmConfig {
        sessions: 24,
        requests_per_session: 12,
        pace: Duration::from_millis(5),
        ..SwarmConfig::default()
    };
    let r = run_swarm(server.addr(), &cfg);
    // Accounting balances: every attempt answered exactly once —
    // served replies and structured failures partition the walk.
    assert_eq!(r.requests, 24 * 12);
    assert_eq!(
        r.served_requests + r.errors,
        r.requests,
        "served ({}) + failed ({}) must cover every attempt",
        r.served_requests,
        r.errors
    );
    assert!(
        r.prefetch_used <= r.prefetch_issued,
        "used {} > issued {}",
        r.prefetch_used,
        r.prefetch_issued
    );
    wait_drained(&server);
    // No panic escaped the per-session containment: the reactor is
    // still serving fresh sessions.
    let mut probe = fc_server::Client::connect(server.addr(), 2).expect("reactor still alive");
    probe
        .request_tile(fc_tiles::TileId::ROOT, None)
        .expect("still serving");
    probe.bye().expect("bye");
    server.shutdown();
}
