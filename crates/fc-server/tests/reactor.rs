//! Reactor-path tests: equivalence with the threaded server, the
//! failure paths that only exist on an event loop (write backpressure,
//! mid-frame disconnects, idle teardown), and utility-scheduled push.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictionEngine, PushConfig, PushPolicy,
    SbConfig, SbRecommender,
};
use fc_server::protocol::{
    read_frame, write_frame, ClientMsg, ServerMsg, TilePayload, MAX_CLIENT_FRAME, MAX_DATASET_NAME,
};
use fc_server::server::tile_payload;
use fc_server::{
    Client, DatasetSpec, EngineFactory, ErrorCode, MultiUserServing, PushServing, Server,
    ServerConfig, ServerError, SessionLimits,
};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_tiles::{Move, Quadrant, TileId};
use std::net::{SocketAddr, TcpStream};
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

/// The golden walk both substrates replay for the equivalence test.
fn golden_walk(addr: std::net::SocketAddr) -> (Vec<String>, String) {
    let mut c = Client::connect(addr, 4).expect("connect");
    let deepest = c.levels() - 1;
    let mut answers = Vec::new();
    let mut walk: Vec<(TileId, Option<Move>)> = vec![
        (TileId::ROOT, None),
        (TileId::new(1, 0, 0), Some(Move::ZoomIn(Quadrant::Nw))),
    ];
    for x in 0..4 {
        walk.push((TileId::new(deepest, 1, x), Some(Move::PanRight)));
    }
    for (tile, mv) in walk {
        let a = c.request_tile(tile, mv).expect("tile reply");
        // The full answer, bit-exactly: payload (tile, dims, attrs,
        // data bits, validity), flags, latency.
        let bits: Vec<String> = a
            .payload
            .data
            .iter()
            .map(|col| {
                col.iter()
                    .map(|v| format!("{:016x}", v.to_bits()))
                    .collect::<String>()
            })
            .collect();
        answers.push(format!(
            "{}|{}x{}|{:?}|{:?}|{:?}|hit={}|deg={}|phase={}|lat={}",
            a.payload.tile,
            a.payload.h,
            a.payload.w,
            a.payload.attrs,
            bits,
            a.payload.present,
            a.cache_hit,
            a.degraded,
            a.phase,
            a.latency.as_nanos(),
        ));
    }
    let stats = c.stats().expect("stats");
    c.bye().expect("bye");
    (answers, format!("{stats:?}"))
}

#[test]
fn reactor_is_bit_identical_to_threaded_on_a_golden_trace() {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let factory = pan_right_factory(&ds);
    let threaded = Server::bind(
        "127.0.0.1:0",
        ds.pyramid.clone(),
        factory.clone(),
        ServerConfig::default(),
    )
    .expect("threaded server");
    let reactor = Server::bind(
        "127.0.0.1:0",
        ds.pyramid.clone(),
        factory,
        ServerConfig {
            reactor: true,
            ..ServerConfig::default()
        },
    )
    .expect("reactor server");
    let (mut threaded, mut reactor) = (threaded, reactor);
    let (t_answers, t_stats) = golden_walk(threaded.addr());
    let (r_answers, r_stats) = golden_walk(reactor.addr());
    assert_eq!(t_answers, r_answers, "every reply must match bit-exactly");
    assert_eq!(t_stats, r_stats, "session stats must match");
    threaded.shutdown();
    reactor.shutdown();
}

#[test]
fn reactor_serves_concurrent_isolated_sessions() {
    let (mut server, _ds) = start_server_with(ServerConfig {
        reactor: true,
        ..ServerConfig::default()
    });
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
        reactor: true,
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
        reactor: true,
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
/// one must still be its tile, bit for bit.
#[test]
fn pipelined_replies_resume_mid_frame_through_a_full_socket() {
    const REQUESTS: usize = 600; // × 33 KiB ≈ 20 MB of replies
    let (mut server, ds) = start_server_with(ServerConfig {
        reactor: true,
        limits: SessionLimits {
            max_write_queue: REQUESTS + 1,
            ..SessionLimits::default()
        },
        ..ServerConfig::default()
    });
    // A tile's payload as bytes (NaN-safe): what each reply must carry.
    let bits = |payload| ServerMsg::Push { payload }.encode();
    let store = ds.pyramid.store();
    let tiles: Vec<TileId> = ds.pyramid.geometry().all_tiles().collect();
    let expected: Vec<_> = tiles
        .iter()
        .map(|&id| bits(tile_payload(&store.fetch_offline(id).expect("tile"))))
        .collect();

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
    write_frame(&mut stream.0, &ClientMsg::Bye.encode()).expect("bye");
    wait_for(|| server.active_sessions() == 0, "session closed");
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_is_reaped_cleanly() {
    let (mut server, _ds) = start_server_with(ServerConfig {
        reactor: true,
        ..ServerConfig::default()
    });
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

/// A frame prefix longer than any client message ends the session on
/// both substrates, without a reply and without waiting for the body
/// it claims; a Hello of exactly the bound is still served.
#[test]
fn oversized_client_prefix_is_reaped_on_both_substrates() {
    use std::io::{Read, Write};
    for reactor in [false, true] {
        let (mut server, _ds) = start_server_with(ServerConfig {
            reactor,
            ..ServerConfig::default()
        });
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
            other => panic!("reactor {reactor}: expected a hang-up, got {other:?}"),
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
            other => panic!("reactor {reactor}: {other:?}"),
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
}

#[test]
fn idle_session_times_out_on_the_reactor_clock() {
    let (mut server, _ds) = start_server_with(ServerConfig {
        reactor: true,
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

/// A raw-frame session that keeps the `Push` frames arriving ahead of
/// each reply (the client library skips them). Pushes are only
/// observed while a reply is awaited, so after a reply this holds every
/// push sent before it.
struct PushWatcher {
    stream: TcpStream,
    pushed: Vec<TilePayload>,
}

impl PushWatcher {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut w = Self {
            stream,
            pushed: Vec::new(),
        };
        let hello = ClientMsg::Hello {
            prefetch_k: 4,
            dataset: String::new(),
        };
        let welcome = w.call(&hello);
        assert!(matches!(welcome, ServerMsg::Welcome { .. }), "{welcome:?}");
        w
    }

    /// Sends `msg` and returns its reply.
    fn call(&mut self, msg: &ClientMsg) -> ServerMsg {
        write_frame(&mut self.stream, &msg.encode()).expect("send");
        loop {
            let frame = read_frame(&mut self.stream).expect("reply frame");
            match ServerMsg::decode(frame).expect("decode") {
                ServerMsg::Push { payload } => self.pushed.push(payload),
                reply => return reply,
            }
        }
    }

    /// Requests `tile` and returns the tile the reply carries.
    fn request_tile(&mut self, tile: TileId) -> TileId {
        let mv = Some(Move::PanRight);
        match self.call(&ClientMsg::RequestTile { tile, mv }) {
            ServerMsg::Tile { payload, .. } => payload.tile,
            other => panic!("unexpected reply to RequestTile: {other:?}"),
        }
    }

    fn bye(mut self) {
        write_frame(&mut self.stream, &ClientMsg::Bye.encode()).expect("bye");
    }
}

#[test]
fn utility_push_ships_predicted_tiles_and_counts_use() {
    let (mut server, ds) = start_server_with(ServerConfig {
        reactor: true,
        multi_user: Some(MultiUserServing::default()),
        push: Some(PushServing {
            planner: PushConfig {
                policy: PushPolicy::Utility,
                ..PushConfig::default()
            },
            tick_budget: 4,
        }),
        ..ServerConfig::default()
    });
    let deepest = ds.pyramid.geometry().levels - 1;
    let mut c = PushWatcher::connect(server.addr());
    // Establish a rightward pan run the AB model can extrapolate,
    // leaving think-time gaps for push ticks to fire in.
    for x in 0..3 {
        c.request_tile(TileId::new(deepest, 1, x));
        std::thread::sleep(Duration::from_millis(120));
    }
    // Poke the socket with stats until pushes surface.
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.pushed.is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(60));
        c.call(&ClientMsg::GetStats);
    }
    assert!(!c.pushed.is_empty(), "the planner must push in think time");
    let (srv_pushed, _) = server.push_stats();
    assert!(srv_pushed >= c.pushed.len() as u64);
    // Requesting a pushed tile books a *used* push server-side.
    let pushed = c.pushed[0].tile;
    assert_eq!(c.request_tile(pushed), pushed);
    wait_for(
        || server.push_stats().1 >= 1,
        "a pushed-then-requested tile counted as used",
    );
    c.bye();
    server.shutdown();
}

#[test]
fn push_stays_silent_without_opt_in() {
    let (mut server, ds) = start_server_with(ServerConfig {
        reactor: true,
        multi_user: Some(MultiUserServing::default()),
        ..ServerConfig::default()
    });
    let deepest = ds.pyramid.geometry().levels - 1;
    let mut c = PushWatcher::connect(server.addr());
    for x in 0..3 {
        c.request_tile(TileId::new(deepest, 1, x));
        std::thread::sleep(Duration::from_millis(80));
    }
    c.call(&ClientMsg::GetStats);
    assert!(c.pushed.is_empty(), "no push without opt-in");
    assert_eq!(server.push_stats(), (0, 0));
    c.bye();
    server.shutdown();
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
            reactor: true,
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
