//! Failure-containment tests for the serving stack: admission control,
//! socket timeouts, panic containment, structured error codes, and the
//! degraded-reply path end-to-end over localhost.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, FaultPlan, FaultRates, FaultWindow,
    PredictionEngine, RetryPolicy, SbConfig, SbRecommender,
};
use fc_server::protocol::{read_frame, write_frame};
use fc_server::{
    Client, ClientMsg, EngineFactory, ErrorCode, FaultSetup, MultiUserServing, Server,
    ServerConfig, ServerError, ServerMsg, SessionLimits,
};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small pyramid with well-formed Hist1D signatures.
fn pyramid(sig: fn(&TileId) -> Vec<f64>) -> Arc<Pyramid> {
    let schema = fc_array::Schema::grid2d("G", 64, 64, &["v"]).unwrap();
    let data: Vec<f64> = (0..64 * 64).map(|i| (i % 64) as f64 / 64.0).collect();
    let base = fc_array::DenseArray::from_vec(schema, data).unwrap();
    let mut cfg = PyramidConfig::simple(3, 16, &["v"]);
    cfg.latency = fc_array::LatencyModel::scidb_like();
    let p = PyramidBuilder::new().build(&base, &cfg).unwrap();
    for id in p.geometry().all_tiles() {
        p.store()
            .put_meta(id, SignatureKind::Hist1D.meta_name(), sig(&id));
    }
    Arc::new(p)
}

fn good_sig(id: &TileId) -> Vec<f64> {
    let t = f64::from(id.x % 3) / 3.0;
    vec![t, 1.0 - t]
}

/// ∞ entries pass the SB zero-bin guard and drive χ² to ∞/∞ = NaN, so
/// `sort_scored` panics inside the session's predict — the in-process
/// stand-in for any middleware bug.
fn poisoned_sig(_id: &TileId) -> Vec<f64> {
    vec![f64::INFINITY, 0.5]
}

fn factory_for(p: &Arc<Pyramid>, strategy: AllocationStrategy) -> EngineFactory {
    let geometry = p.geometry();
    Arc::new(move || {
        let r = Move::PanRight.index() as u16;
        let traces: Vec<Vec<u16>> = vec![vec![r; 10]];
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        PredictionEngine::new(
            geometry,
            AbRecommender::train(refs, 3),
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy,
                ..EngineConfig::default()
            },
        )
    })
}

fn bind(p: Arc<Pyramid>, strategy: AllocationStrategy, config: ServerConfig) -> Server {
    let factory = factory_for(&p, strategy);
    Server::bind("127.0.0.1:0", p, factory, config).expect("server binds")
}

/// The structured code inside a client-side `io::Error`, if any.
fn code_of(err: &io::Error) -> Option<ErrorCode> {
    err.get_ref()?.downcast_ref::<ServerError>().map(|e| e.code)
}

/// Polls until `cond` holds or the deadline passes.
fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn overloaded_server_sheds_at_accept_with_structured_code() {
    let p = pyramid(good_sig);
    let mut server = bind(
        p,
        AllocationStrategy::AbOnly,
        ServerConfig {
            limits: SessionLimits {
                max_sessions: 1,
                ..SessionLimits::default()
            },
            ..ServerConfig::default()
        },
    );
    let mut first = Client::connect(server.addr(), 2).expect("first session admitted");
    first.request_tile(TileId::ROOT, None).expect("serves");
    wait_for(|| server.active_sessions() == 1, "session registration");
    // The second connection is shed before a session thread exists.
    let err = Client::connect(server.addr(), 2).expect_err("must shed");
    assert_eq!(code_of(&err), Some(ErrorCode::Overloaded), "{err}");
    // The first session is unaffected, and capacity frees on its exit.
    first
        .request_tile(TileId::new(1, 0, 0), None)
        .expect("still serving");
    first.bye().expect("bye");
    wait_for(|| server.active_sessions() == 0, "capacity release");
    let mut again = Client::connect(server.addr(), 2).expect("admitted after release");
    again.request_tile(TileId::ROOT, None).expect("serves");
    server.shutdown();
}

#[test]
fn overload_watermark_sheds_hello_on_cache_pressure() {
    let p = pyramid(good_sig);
    let mut server = bind(
        p,
        AllocationStrategy::AbOnly,
        ServerConfig {
            multi_user: Some(MultiUserServing {
                cache_capacity: 64,
                ..MultiUserServing::default()
            }),
            limits: SessionLimits {
                // One session gets 64 tiles; a second would halve that
                // below the floor.
                min_session_budget: 40,
                ..SessionLimits::default()
            },
            ..ServerConfig::default()
        },
    );
    let mut first = Client::connect(server.addr(), 2).expect("first admitted");
    first.request_tile(TileId::ROOT, None).expect("serves");
    let err = Client::connect(server.addr(), 2).expect_err("watermark must shed");
    assert_eq!(code_of(&err), Some(ErrorCode::Overloaded), "{err}");
    // The shed session's teardown must not disturb the admitted one.
    first
        .request_tile(TileId::new(1, 0, 0), None)
        .expect("still serving");
    first.bye().expect("bye");
    // With the namespace idle again, admission resumes.
    wait_for(|| server.active_sessions() == 0, "session close");
    Client::connect(server.addr(), 2).expect("admitted after release");
    server.shutdown();
}

#[test]
fn read_timeout_reclaims_stalled_sessions() {
    let p = pyramid(good_sig);
    let mut server = bind(
        p,
        AllocationStrategy::AbOnly,
        ServerConfig {
            limits: SessionLimits {
                read_timeout: Some(Duration::from_millis(80)),
                write_timeout: Some(Duration::from_secs(5)),
                ..SessionLimits::default()
            },
            ..ServerConfig::default()
        },
    );
    // A client that connects and never speaks: the session thread must
    // not be pinned forever.
    let stalled = std::net::TcpStream::connect(server.addr()).expect("connect");
    wait_for(|| server.active_sessions() == 1, "session start");
    wait_for(|| server.active_sessions() == 0, "stalled-session reclaim");
    drop(stalled);
    // Live clients are unaffected as long as they keep talking.
    let mut c = Client::connect(server.addr(), 2).expect("connect");
    c.request_tile(TileId::ROOT, None).expect("serves");
    server.shutdown();
}

#[test]
fn session_panic_becomes_error_reply_and_clean_teardown() {
    // SbOnly forces every predict through the poisoned χ² scoring.
    let p = pyramid(poisoned_sig);
    let mut server = bind(p, AllocationStrategy::SbOnly, ServerConfig::default());
    let mut client = Client::connect(server.addr(), 3).expect("connect");
    let err = client
        .request_tile(TileId::ROOT, None)
        .expect_err("the poisoned predict must not produce a tile");
    assert_eq!(code_of(&err), Some(ErrorCode::Internal), "{err}");
    // The server closed the session after replying…
    let also = client.request_tile(TileId::new(1, 0, 0), None);
    assert!(also.is_err(), "session must be closed: {also:?}");
    wait_for(|| server.active_sessions() == 0, "session teardown");
    // …and the process is still healthy: new sessions come up fine
    // (and fail the same contained way, not by wedging).
    let mut again = Client::connect(server.addr(), 3).expect("server alive");
    let err = again
        .request_tile(TileId::ROOT, None)
        .expect_err("same fault");
    assert_eq!(code_of(&err), Some(ErrorCode::Internal));
    wait_for(|| server.active_sessions() == 0, "second teardown");
    server.shutdown();
}

/// `Hello { prefetch_k: u32::MAX }`, then one tile request, with a
/// bystander session open. The budget used to size the ranked list's
/// reservation on the session's first predict — 51 GB, an allocation
/// failure, which aborts the process past every `catch_unwind`.
fn hostile_prefetch_budget(reactor: bool) {
    let p = pyramid(good_sig);
    let config = ServerConfig {
        reactor,
        ..ServerConfig::default()
    };
    let mut server = bind(p, AllocationStrategy::Updated, config);
    let mut bystander = Client::connect(server.addr(), 2).expect("bystander connects");
    bystander
        .request_tile(TileId::ROOT, None)
        .expect("bystander served");
    let mut hostile = Client::connect(server.addr(), u32::MAX).expect("hello accepted");
    // A tile or a structured error, never a dead socket.
    if let Err(e) = hostile.request_tile(TileId::ROOT, None) {
        assert!(code_of(&e).is_some(), "{e}");
    }
    let zoom = Move::ZoomIn(fc_tiles::Quadrant::Nw);
    bystander
        .request_tile(TileId::new(1, 0, 0), Some(zoom))
        .expect("the bystander's next request is served");
    server.shutdown();
}

#[test]
fn hostile_prefetch_budget_costs_only_its_own_session_threaded() {
    hostile_prefetch_budget(false);
}

#[test]
fn hostile_prefetch_budget_costs_only_its_own_session_reactor() {
    hostile_prefetch_budget(true);
}

#[test]
fn malformed_frames_draw_an_error_then_close() {
    let p = pyramid(good_sig);
    let mut server = bind(p, AllocationStrategy::AbOnly, ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    // A well-framed body with an unknown tag.
    write_frame(&mut stream, &[1, 0, 0, 0, 9]).expect("send");
    match ServerMsg::decode(read_frame(&mut stream).expect("reply")).expect("decodes") {
        ServerMsg::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed error, got {other:?}"),
    }
    // The server hangs up after the courtesy reply.
    assert!(read_frame(&mut stream).is_err(), "connection must close");
    wait_for(|| server.active_sessions() == 0, "teardown");
    server.shutdown();
}

#[test]
fn requests_before_hello_are_rejected_per_message() {
    let p = pyramid(good_sig);
    let mut server = bind(p, AllocationStrategy::AbOnly, ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let req = ClientMsg::RequestTile {
        tile: TileId::ROOT,
        mv: None,
    };
    write_frame(&mut stream, &req.encode()).expect("send");
    match ServerMsg::decode(read_frame(&mut stream).expect("reply")).expect("decodes") {
        ServerMsg::Error { code, reason } => {
            assert_eq!(code, ErrorCode::General);
            assert!(reason.contains("Hello"), "{reason}");
        }
        other => panic!("expected error, got {other:?}"),
    }
    // Unlike a malformed frame, a premature request leaves the session
    // open: a proper Hello still works.
    write_frame(
        &mut stream,
        &ClientMsg::Hello {
            prefetch_k: 1,
            dataset: String::new(),
        }
        .encode(),
    )
    .expect("send");
    match ServerMsg::decode(read_frame(&mut stream).expect("reply")).expect("decodes") {
        ServerMsg::Welcome { .. } => {}
        other => panic!("expected welcome, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn exhausted_fetches_surface_as_unavailable() {
    let p = pyramid(good_sig);
    let mut server = bind(
        p,
        AllocationStrategy::AbOnly,
        ServerConfig {
            faults: Some(FaultSetup {
                plan: Arc::new(FaultPlan::always_failing(11)),
                retry: RetryPolicy::default(),
            }),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.addr(), 0).expect("connect");
    // Deepest-level tile, nothing resident to degrade to.
    let err = client
        .request_tile(TileId::new(2, 1, 1), None)
        .expect_err("backend always fails");
    assert_eq!(code_of(&err), Some(ErrorCode::Unavailable), "{err}");
    // The session survives the failure; the client chooses what's next.
    let stats = client.stats().expect("session still up");
    assert_eq!(stats.requests, 0, "failed fetches serve nothing");
    client.bye().expect("bye");
    server.shutdown();
}

#[test]
fn degraded_replies_carry_the_resident_ancestor() {
    let p = pyramid(good_sig);
    // Request 0 is clean; everything after always fails.
    let plan = FaultPlan::windowed(
        17,
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
    let mut server = bind(
        p,
        AllocationStrategy::AbOnly,
        ServerConfig {
            faults: Some(FaultSetup {
                plan: Arc::new(plan),
                retry: RetryPolicy::default(),
            }),
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(server.addr(), 2).expect("connect");
    let root = client.request_tile(TileId::ROOT, None).expect("clean");
    assert!(!root.degraded);
    // A deep tile the engine would not have prefetched off the root
    // request — its parent is not resident either, so the ladder walks
    // all the way up to the cached root.
    let child = client
        .request_tile(TileId::new(2, 3, 3), None)
        .expect("degrades instead of failing");
    assert!(child.degraded, "reply must be flagged degraded");
    assert_eq!(
        child.payload.tile,
        TileId::ROOT,
        "the resident ancestor answers in the child's place"
    );
    client.bye().expect("bye");
    server.shutdown();
}
