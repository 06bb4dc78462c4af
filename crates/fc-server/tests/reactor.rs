//! Reactor tests: a golden trace pinned by value, the failure paths of
//! an event loop (write backpressure, pipelined input, mid-frame
//! disconnects, idle teardown, shutdown).

mod common;

use common::Pin;
use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictionEngine, SbConfig, SbRecommender,
};
use fc_server::protocol::{
    read_frame, write_frame, ClientMsg, ServerMsg, MAX_CLIENT_FRAME, MAX_DATASET_NAME,
};
use fc_server::server::tile_payload;
use fc_server::{
    Client, DatasetSpec, EngineFactory, ErrorCode, MultiUserServing, Server, ServerConfig,
    ServerError, SessionLimits,
};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_tiles::{Move, Quadrant, TileId};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn pan_right_factory(ds: &StudyDataset) -> EngineFactory {
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
                strategy: AllocationStrategy::Updated,
                ..EngineConfig::default()
            },
        )
    })
}

fn start_server_with(config: ServerConfig) -> (Server, StudyDataset) {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let factory = pan_right_factory(&ds);
    let server =
        Server::bind("127.0.0.1:0", ds.pyramid.clone(), factory, config).expect("server binds");
    (server, ds)
}

fn wait_for(mut cond: impl FnMut() -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The golden walk, its replies folded into a value pin: every
/// payload bit, flag, simulated latency and phase, then the session's
/// stats.
fn golden_walk(addr: std::net::SocketAddr) -> Pin {
    let mut c = Client::connect(addr, 4).expect("connect");
    let deepest = c.levels() - 1;
    let mut walk: Vec<(TileId, Option<Move>)> = vec![
        (TileId::ROOT, None),
        (TileId::new(1, 0, 0), Some(Move::ZoomIn(Quadrant::Nw))),
    ];
    for x in 0..4 {
        walk.push((TileId::new(deepest, 1, x), Some(Move::PanRight)));
    }
    let mut pin = Pin::default();
    for (tile, mv) in walk {
        pin.tile(&c.request_tile(tile, mv).expect("tile reply"));
    }
    pin.stats(&c.stats().expect("stats"));
    c.bye().expect("bye");
    pin
}

/// The golden walk's replies, recorded from the thread-per-connection
/// server this crate served sessions with before the reactor.
const GOLDEN_WALK: u64 = 0x1d48ff0c4bdbb4ed;

#[test]
fn reactor_is_bit_identical_to_threaded_on_a_golden_trace() {
    let (mut server, _ds) = start_server_with(ServerConfig::default());
    golden_walk(server.addr()).check(GOLDEN_WALK, "reactor");
    server.shutdown();
}

#[test]
fn reactor_serves_concurrent_isolated_sessions() {
    let (mut server, _ds) = start_server_with(ServerConfig::default());
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, 3).expect("connect");
                c.request_tile(TileId::ROOT, None).expect("root");
                let q = [Quadrant::Nw, Quadrant::Ne, Quadrant::Sw, Quadrant::Se][i % 4];
                c.request_tile(TileId::new(1, q.dy(), q.dx()), Some(Move::ZoomIn(q)))
                    .expect("child");
                let s = c.stats().expect("stats");
                assert_eq!(s.requests, 2, "sessions do not share counters");
                c.bye().expect("bye");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    wait_for(|| server.active_sessions() == 0, "session teardown");
    server.shutdown();
}

#[test]
fn reactor_sheds_at_max_sessions() {
    let (mut server, _ds) = start_server_with(ServerConfig {
        limits: SessionLimits {
            max_sessions: 2,
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let _a = Client::connect(addr, 2).expect("first session");
    let _b = Client::connect(addr, 2).expect("second session");
    wait_for(|| server.active_sessions() == 2, "two admitted sessions");
    let refused = Client::connect(addr, 2);
    let err = refused.expect_err("third session is shed");
    let code = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<ServerError>())
        .map(|e| e.code);
    assert_eq!(code, Some(ErrorCode::Overloaded), "err: {err}");
    server.shutdown();
}

#[test]
fn slow_reader_backlog_is_shed_with_overloaded() {
    let (mut server, _ds) = start_server_with(ServerConfig {
        limits: SessionLimits {
            max_write_queue: 2,
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    write_frame(
        &mut stream,
        &ClientMsg::Hello {
            prefetch_k: 2,
            dataset: String::new(),
        }
        .encode(),
    )
    .expect("hello");
    // Pipeline far more requests than the kernel's socket buffers can
    // absorb in replies — without reading any. The reactor's write
    // queue hits the 2-frame bound and sheds the session. The shed
    // can land mid-pipeline: the reactor's close resets the
    // connection while we are still writing, which is itself proof of
    // the shed (and may discard the best-effort Overloaded frame
    // queued ahead of the reset).
    let mut write_reset = false;
    for _ in 0..2000 {
        if let Err(e) = write_frame(
            &mut stream,
            &ClientMsg::RequestTile {
                tile: TileId::ROOT,
                mv: None,
            }
            .encode(),
        ) {
            assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                ),
                "pipelined request: {e}"
            );
            write_reset = true;
            break;
        }
    }
    // Now drain: Welcome, some Tile replies, then the shed notice.
    let mut shed = false;
    let mut replies = 0u32;
    // (EOF or a reset after teardown ends the drain.)
    while let Ok(frame) = read_frame(&mut stream) {
        match ServerMsg::decode(frame).expect("well-formed frame") {
            ServerMsg::Error { code, reason } => {
                assert_eq!(code, ErrorCode::Overloaded, "reason: {reason}");
                shed = true;
            }
            _ => replies += 1,
        }
    }
    assert!(
        shed || write_reset,
        "write backlog must shed with Overloaded (saw {replies} replies)"
    );
    assert!(
        replies < 2000,
        "the session must not survive to serve everything"
    );
    wait_for(|| server.active_sessions() == 0, "shed session reaped");
    server.shutdown();
}

/// Caps every read at 1 KiB, so the peer's blocked writes are let
/// through a sliver at a time.
struct Trickle(TcpStream);

impl std::io::Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(1024);
        self.0.read(&mut buf[..n])
    }
}

/// The vectored write's resume on a real socket after real
/// `WouldBlock`s: a client pipelines far more tile requests than the
/// kernel's buffers hold in replies (under a write-queue bound that
/// never sheds), reads nothing until all are sent, then drains in
/// 1 KiB reads. Most replies are cut somewhere — header, column,
/// mask — by a full socket and finished later from the queue; every
/// one must still be its tile, bit for bit. Behind the tiles the client
/// pipelines more than two read chunks of `GetStats` frames, which the
/// reactor reads a chunk per readiness event: a bystander session
/// opened first is still served behind them, and every `Stats` reply
/// follows the tiles in order.
#[test]
fn pipelined_replies_resume_mid_frame_through_a_full_socket() {
    const REQUESTS: usize = 600; // × 33 KiB ≈ 20 MB of replies
    const STATS: usize = 30_000; // × 5 B ≈ 146 KiB of requests
    let (mut server, ds) = start_server_with(ServerConfig {
        limits: SessionLimits {
            max_write_queue: REQUESTS + STATS + 1,
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    // A tile's payload as bytes (NaN-safe): what each reply must carry.
    let bits = |payload| {
        let reply = ServerMsg::Tile {
            payload,
            latency_ns: 0,
            cache_hit: false,
            phase: 0,
            degraded: false,
        };
        reply.encode()
    };
    let store = ds.pyramid.store();
    let tiles: Vec<TileId> = ds.pyramid.geometry().all_tiles().collect();
    let expected: Vec<_> = tiles
        .iter()
        .map(|&id| bits(tile_payload(&store.fetch_offline(id).expect("tile"))))
        .collect();

    let mut bystander = Client::connect(server.addr(), 2).expect("bystander connects");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let hello = ClientMsg::Hello {
        prefetch_k: 2,
        dataset: String::new(),
    };
    write_frame(&mut stream, &hello.encode()).expect("hello");
    for i in 0..REQUESTS {
        let request = ClientMsg::RequestTile {
            tile: tiles[i % tiles.len()],
            mv: None,
        };
        write_frame(&mut stream, &request.encode()).expect("pipelined request");
    }
    let stats = ClientMsg::GetStats.encode().repeat(STATS);
    assert!(stats.len() > 2 * 64 * 1024, "more than two read chunks");
    write_frame(&mut stream, &stats).expect("pipelined stats requests");
    bystander
        .request_tile(TileId::ROOT, None)
        .expect("the bystander is served behind the pipelined input");
    bystander.bye().expect("bye");
    let mut stream = Trickle(stream);
    let welcome = ServerMsg::decode(read_frame(&mut stream).expect("welcome")).expect("decode");
    assert!(matches!(welcome, ServerMsg::Welcome { .. }));
    for i in 0..REQUESTS {
        let frame = read_frame(&mut stream).expect("reply frame");
        match ServerMsg::decode(frame).expect("well-formed reply") {
            ServerMsg::Tile {
                payload, degraded, ..
            } => {
                assert!(!degraded);
                assert_eq!(payload.tile, tiles[i % tiles.len()], "reply {i}");
                assert!(bits(payload) == expected[i % tiles.len()], "reply {i}");
            }
            other => panic!("reply {i}: {other:?}"),
        }
    }
    for i in 0..STATS {
        let frame = read_frame(&mut stream).expect("stats frame");
        match ServerMsg::decode(frame).expect("well-formed reply") {
            ServerMsg::Stats { requests, .. } => {
                assert_eq!(requests, REQUESTS as u64, "stats reply {i}");
            }
            other => panic!("stats reply {i}: {other:?}"),
        }
    }
    write_frame(&mut stream.0, &ClientMsg::Bye.encode()).expect("bye");
    wait_for(|| server.active_sessions() == 0, "session closed");
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_is_reaped_cleanly() {
    let (mut server, _ds) = start_server_with(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(
        &mut stream,
        &ClientMsg::Hello {
            prefetch_k: 2,
            dataset: String::new(),
        }
        .encode(),
    )
    .expect("hello");
    let welcome = ServerMsg::decode(read_frame(&mut stream).expect("reply")).expect("decode");
    assert!(matches!(welcome, ServerMsg::Welcome { .. }));
    wait_for(|| server.active_sessions() == 1, "session admitted");
    // A frame header promising 100 bytes, followed by 10 — then gone.
    use std::io::Write;
    stream.write_all(&100u32.to_le_bytes()).expect("prefix");
    stream.write_all(&[0u8; 10]).expect("partial body");
    drop(stream);
    wait_for(
        || server.active_sessions() == 0,
        "mid-frame disconnect reaped",
    );
    server.shutdown();
}

/// A frame prefix longer than any client message ends the session,
/// without a reply and without waiting for the body it claims; a Hello
/// of exactly the bound is still served.
#[test]
fn oversized_client_prefix_is_reaped() {
    use std::io::{Read, Write};
    let (mut server, _ds) = start_server_with(ServerConfig::default());
    // 32 MiB claimed, 1 KiB sent, and the connection kept open.
    let mut hostile = TcpStream::connect(server.addr()).expect("connect");
    hostile
        .write_all(&(32u32 << 20).to_le_bytes())
        .expect("prefix");
    hostile.write_all(&[0u8; 1024]).expect("some body");
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    match hostile.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected a hang-up, got {other:?}"),
    }
    wait_for(|| server.active_sessions() == 0, "oversized prefix reaped");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let longest = ClientMsg::Hello {
        prefetch_k: 2,
        dataset: "x".repeat(MAX_DATASET_NAME),
    }
    .encode();
    assert_eq!(longest.len(), 4 + MAX_CLIENT_FRAME);
    write_frame(&mut stream, &longest).expect("longest hello");
    match ServerMsg::decode(read_frame(&mut stream).expect("reply")).expect("decode") {
        ServerMsg::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownDataset),
        other => panic!("{other:?}"),
    }
    let hello = ClientMsg::Hello {
        prefetch_k: 2,
        dataset: String::new(),
    };
    write_frame(&mut stream, &hello.encode()).expect("hello");
    let welcome = ServerMsg::decode(read_frame(&mut stream).expect("reply")).expect("decode");
    assert!(matches!(welcome, ServerMsg::Welcome { .. }), "{welcome:?}");
    write_frame(&mut stream, &ClientMsg::Bye.encode()).expect("bye");
    wait_for(|| server.active_sessions() == 0, "session closed");
    server.shutdown();
}

#[test]
fn idle_session_times_out_on_the_reactor_clock() {
    let (mut server, _ds) = start_server_with(ServerConfig {
        limits: SessionLimits {
            read_timeout: Some(Duration::from_millis(150)),
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    let _c = Client::connect(server.addr(), 2).expect("connect");
    wait_for(|| server.active_sessions() == 1, "session admitted");
    // Say nothing. The reactor's idle clock reaps the session.
    wait_for(|| server.active_sessions() == 0, "idle teardown");
    server.shutdown();
}

/// Shutdown takes the live sessions down with the reactor: a connected
/// client's next request fails, and no session is left counted.
#[test]
fn shutdown_closes_live_sessions() {
    let (mut server, _ds) = start_server_with(ServerConfig::default());
    let mut c = Client::connect(server.addr(), 2).expect("connect");
    c.request_tile(TileId::ROOT, None).expect("served");
    wait_for(|| server.active_sessions() == 1, "session admitted");
    server.shutdown();
    assert_eq!(server.active_sessions(), 0);
    let after = c.request_tile(TileId::new(1, 0, 0), None);
    assert!(
        after.is_err(),
        "the session closed with the server: {after:?}"
    );
}

/// The reactor is the only serving path: a config asking for anything
/// else is refused rather than silently served from the reactor.
#[test]
fn reactor_false_is_refused() {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let config = ServerConfig {
        reactor: false,
        ..ServerConfig::default()
    };
    let refused = Server::bind(
        "127.0.0.1:0",
        ds.pyramid.clone(),
        pan_right_factory(&ds),
        config,
    );
    let err = refused.err().expect("reactor: false is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
}

#[test]
fn reactor_supports_multiple_datasets() {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let factory = pan_right_factory(&ds);
    let specs = vec![
        DatasetSpec {
            name: "alpha".into(),
            pyramid: ds.pyramid.clone(),
            engines: factory.clone(),
        },
        DatasetSpec {
            name: "beta".into(),
            pyramid: ds.pyramid.clone(),
            engines: factory,
        },
    ];
    let mut server = Server::bind_datasets(
        "127.0.0.1:0",
        specs,
        ServerConfig {
            multi_user: Some(MultiUserServing::default()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let mut a = Client::connect_dataset(server.addr(), 3, "alpha").expect("alpha");
    let mut b = Client::connect_dataset(server.addr(), 3, "beta").expect("beta");
    a.request_tile(TileId::ROOT, None).expect("alpha root");
    b.request_tile(TileId::ROOT, None).expect("beta root");
    let missing = Client::connect_dataset(server.addr(), 3, "gamma");
    assert!(missing.is_err(), "unknown dataset still refused");
    a.bye().expect("bye");
    b.bye().expect("bye");
    server.shutdown();
}
