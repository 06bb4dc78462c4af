//! End-to-end client/server tests over localhost. A test whose
//! sessions are deterministic folds every reply into a value pin
//! (`common::Pin`); one whose outcome depends on wall-clock gaps or
//! thread scheduling asserts its outcome's shape.

mod common;

use common::Pin;
use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictionEngine, SbConfig, SbRecommender,
};
use fc_server::{Client, DatasetSpec, EngineFactory, MultiUserServing, Server, ServerConfig};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_tiles::{Move, Pyramid, Quadrant, TileId};
use std::sync::Arc;

fn start_server_with(config: ServerConfig) -> (Server, StudyDataset) {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let pyramid = ds.pyramid.clone();
    let engine_pyramid = pyramid.clone();
    let factory: EngineFactory = Arc::new(move || {
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
    });
    let server = Server::bind("127.0.0.1:0", pyramid, factory, config).expect("server binds");
    (server, ds)
}

fn start_server() -> (Server, StudyDataset) {
    start_server_with(ServerConfig::default())
}

#[test]
fn session_serves_tiles_and_stats() {
    let (mut server, ds) = start_server();
    let mut client = Client::connect(server.addr(), 4).expect("client connects");
    assert_eq!(client.levels(), ds.pyramid.geometry().levels);
    let mut pin = Pin::default();

    // Walk: root → zoom in → pan.
    let root = client.request_tile(TileId::ROOT, None).expect("root tile");
    pin.tile(&root);
    assert_eq!(root.payload.tile, TileId::ROOT);
    assert!(!root.cache_hit, "first request is a miss");
    assert!(root.payload.attrs.contains(&"ndsi_avg".to_string()));
    assert_eq!(
        root.payload.data.len(),
        root.payload.attrs.len(),
        "one data vector per attribute"
    );

    let child = client
        .request_tile(TileId::new(1, 0, 0), Some(Move::ZoomIn(Quadrant::Nw)))
        .expect("child tile");
    assert_eq!(child.payload.tile, TileId::new(1, 0, 0));
    pin.tile(&child);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.requests, 2);
    pin.stats(&stats);
    pin.check(0xc09f20b360d0b563, "root, then its NW child");

    client.bye().expect("clean close");
    server.shutdown();
}

#[test]
fn bad_requests_are_rejected_not_fatal() {
    let (mut server, _ds) = start_server();
    let mut client = Client::connect(server.addr(), 2).expect("connect");
    let mut pin = Pin::default();
    // Nonexistent tile → error reply, connection stays usable.
    let err = client
        .request_tile(TileId::new(7, 0, 0), None)
        .expect_err("no such tile");
    pin.error(&err);
    let ok = client.request_tile(TileId::ROOT, None).expect("root");
    pin.tile(&ok);
    pin.stats(&client.stats().expect("stats"));
    pin.check(0x4031731306da0e8d, "a missing tile, then the root");
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn concurrent_sessions_are_isolated() {
    let (mut server, _ds) = start_server();
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, 3).expect("connect");
                // Each session walks a different path.
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
    server.shutdown();
}

#[test]
fn multi_user_mode_shares_prefetched_tiles_across_sessions() {
    let (mut server, ds) = start_server_with(ServerConfig {
        multi_user: Some(MultiUserServing::default()),
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let g = ds.pyramid.geometry();
    let deepest = g.levels - 1;
    // Two sessions walk the same pan run, one after the other: the
    // second rides the first's communal prefetches.
    let mut pin = Pin::default();
    let mut walk = |hold: bool| {
        let mut c = Client::connect(addr, 5).expect("connect");
        let first = c
            .request_tile(TileId::new(deepest, 1, 0), None)
            .expect("first");
        pin.tile(&first);
        let mut hits = 0;
        for x in 1..4 {
            let a = c
                .request_tile(TileId::new(deepest, 1, x), Some(Move::PanRight))
                .expect("pan");
            if a.cache_hit {
                hits += 1;
            }
            pin.tile(&a);
        }
        pin.stats(&c.stats().expect("stats"));
        if hold {
            (Some(c), hits)
        } else {
            c.bye().expect("bye");
            (None, hits)
        }
    };
    // Keep the first session open so its installs stay held while the
    // second session walks.
    let (first, _) = walk(true);
    let (_, second_hits) = walk(false);
    assert!(
        second_hits >= 2,
        "second session should hit shared prefetches, got {second_hits}"
    );
    let shared = server.shared_cache_stats().expect("multi-user mode");
    assert!(
        shared.cross_session_hits > 0,
        "expected cross-session hits, got {shared:?}"
    );
    fold_shared(&mut pin, &shared);
    pin.check(
        0xb993cf3c76c603e0,
        "two sessions' pan runs, the second on shared prefetches, and the namespace's counters",
    );
    // Both sessions ranked SB through the dataset's one pair table.
    let index = ds
        .pyramid
        .store()
        .signature_index()
        .expect("signatures attached");
    let sb = SbRecommender::new(SbConfig::single(SignatureKind::Hist1D));
    let (pairs, _) = sb.pair_table(&index).expect("sessions ranked SB");
    assert!(pairs.misses > 0, "{pairs:?}");
    first.expect("held client").bye().expect("bye");
    server.shutdown();
}

/// Folds a namespace's shared-cache counters into `pin`.
fn fold_shared(pin: &mut Pin, s: &fc_core::SharedCacheStats) {
    pin.scalars([s.hits, s.misses, s.cross_session_hits, s.evictions].map(|v| v as u64));
}

fn engine_factory_for(pyramid: &Arc<Pyramid>) -> EngineFactory {
    let g = pyramid.geometry();
    Arc::new(move || {
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
    })
}

/// Acceptance: one server process serves two pyramids, each under its
/// own cache namespace carved from one global budget.
#[test]
fn one_process_serves_two_datasets_in_separate_namespaces() {
    // Two different geometries so the Welcome tells them apart.
    let west = StudyDataset::build(DatasetConfig::tiny()); // 3 levels
    let east = {
        let mut cfg = DatasetConfig::tiny();
        cfg.levels = 4;
        StudyDataset::build(cfg) // 4 levels
    };
    let specs = vec![
        DatasetSpec {
            name: "west".into(),
            pyramid: west.pyramid.clone(),
            engines: engine_factory_for(&west.pyramid),
        },
        DatasetSpec {
            name: "east".into(),
            pyramid: east.pyramid.clone(),
            engines: engine_factory_for(&east.pyramid),
        },
    ];
    let mut server = Server::bind_datasets(
        "127.0.0.1:0",
        specs,
        ServerConfig {
            multi_user: Some(MultiUserServing {
                cache_capacity: 512,
                hotspots: Some(fc_core::HotspotConfig::default()),
                ..MultiUserServing::default()
            }),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.addr();

    // The global budget partitions exactly across the two namespaces.
    let caps = server.namespace_capacities();
    assert_eq!(caps.len(), 2);
    assert_eq!(caps.iter().map(|&(_, c)| c).sum::<usize>(), 512);

    // Unknown dataset → error reply, not a wedged connection.
    assert!(Client::connect_dataset(addr, 2, "north").is_err());

    // An empty name selects the default (first) dataset.
    let default = Client::connect(addr, 2).expect("default dataset");
    assert_eq!(default.levels(), west.pyramid.geometry().levels);
    default.bye().expect("bye");

    // Each namespace serves its own pyramid.
    let mut pin = Pin::default();
    let mut walk = |dataset: &str, levels: u8| {
        let mut c = Client::connect_dataset(addr, 5, dataset).expect("connect");
        assert_eq!(c.levels(), levels, "{dataset}");
        let deepest = levels - 1;
        let first = c
            .request_tile(TileId::new(deepest, 1, 0), None)
            .expect("first");
        pin.tile(&first);
        let mut hits = 0;
        for x in 1..4 {
            let a = c
                .request_tile(TileId::new(deepest, 1, x), Some(Move::PanRight))
                .expect("pan");
            if a.cache_hit {
                hits += 1;
            }
            pin.tile(&a);
        }
        pin.stats(&c.stats().expect("stats"));
        (c, hits)
    };
    let west_levels = west.pyramid.geometry().levels;
    let east_levels = east.pyramid.geometry().levels;
    // Two sessions on "west": the second rides the first's communal
    // prefetches inside the west namespace.
    let (w1, _) = walk("west", west_levels);
    let (w2, w2_hits) = walk("west", west_levels);
    assert!(w2_hits >= 2, "west session 2 rides shared prefetches");
    // One session on "east" — its namespace is independent.
    let (e1, _) = walk("east", east_levels);

    let stats: std::collections::HashMap<String, fc_core::SharedCacheStats> =
        server.namespace_stats().into_iter().collect();
    let west_stats = stats["west"];
    let east_stats = stats["east"];
    fold_shared(&mut pin, &west_stats);
    fold_shared(&mut pin, &east_stats);
    pin.check(
        0x6e211dd2e78ce398,
        "two west sessions, then one east session, and both namespaces' counters",
    );
    assert!(
        west_stats.cross_session_hits > 0,
        "west sharing: {west_stats:?}"
    );
    assert_eq!(
        east_stats.cross_session_hits, 0,
        "east had one session: {east_stats:?}"
    );
    assert!(
        west_stats.hits + west_stats.misses > 0 && east_stats.hits + east_stats.misses > 0,
        "both namespaces saw traffic"
    );

    w1.bye().expect("bye");
    w2.bye().expect("bye");
    e1.bye().expect("bye");
    server.shutdown();
}

/// Regression: a Hello whose dataset name approaches the u16 wire
/// limit must cost no more than its own session — echoing the raw name
/// into the Error reason used to overflow the reply's own string field
/// and panic the session (leaking the active-session counter).
/// Such a Hello is longer than any client message may be, so the
/// server ends the session at its frame prefix, without a reply.
#[test]
fn oversized_dataset_name_is_rejected_not_fatal() {
    use fc_server::protocol::{read_frame, write_frame, MAX_DATASET_NAME};
    use fc_server::{ClientMsg, ServerMsg};
    let (mut server, _ds) = start_server();
    // Client-side guard: refuse before any bytes hit the wire.
    let long = "x".repeat(MAX_DATASET_NAME + 1);
    let err = Client::connect_dataset(server.addr(), 2, &long).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // Raw-frame client: a near-u16-max name. The server may hang up
    // while the frame is still being written.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let hello = ClientMsg::Hello {
        prefetch_k: 1,
        dataset: "x".repeat(65_530),
    };
    let _ = write_frame(&mut stream, &hello.encode());
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let closed = read_frame(&mut stream).expect_err("no reply");
    assert!(
        !matches!(
            closed.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "the server closes the session: {closed}"
    );
    // The server survives: a proper Hello on a new connection opens a
    // session.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let hello = ClientMsg::Hello {
        prefetch_k: 1,
        dataset: String::new(),
    };
    write_frame(&mut stream, &hello.encode()).expect("send");
    match ServerMsg::decode(read_frame(&mut stream).expect("alive")).expect("reply") {
        ServerMsg::Welcome { .. } => {}
        other => panic!("expected welcome, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn prefetching_speeds_up_predictable_walks() {
    let (mut server, ds) = start_server();
    let mut client = Client::connect(server.addr(), 5).expect("connect");
    let g = ds.pyramid.geometry();
    let deepest = g.levels - 1;
    // Pan right along the deepest level; the right-run-trained AB model
    // should prefetch continuations.
    let mut pin = Pin::default();
    let mut hits = 0;
    let first = client
        .request_tile(TileId::new(deepest, 1, 0), None)
        .expect("first");
    pin.tile(&first);
    for x in 1..4 {
        let a = client
            .request_tile(TileId::new(deepest, 1, x), Some(Move::PanRight))
            .expect("pan");
        if a.cache_hit {
            hits += 1;
            assert!(a.latency.as_millis() < 100, "hits are fast");
        }
        pin.tile(&a);
    }
    assert!(hits >= 2, "expected prefetch hits, got {hits}");
    pin.stats(&client.stats().expect("stats"));
    pin.check(0xc0ae9e49e3bd473b, "a pan run along the deepest level");
    client.bye().unwrap();
    server.shutdown();
}

#[test]
fn burst_scheduler_wired_through_server_config() {
    // Burst-scheduled server: a pan run at wire speed never leaves the
    // Burst phase (every inter-request gap is far below `burst_enter`),
    // so the engine stays off the burst path — the only speculation
    // under the default config is the momentum lookahead, at most one
    // tile per pan, and the wire carries the counters to prove it.
    let (mut server, ds) = start_server_with(ServerConfig {
        burst: Some(fc_core::BurstConfig::default()),
        ..ServerConfig::default()
    });
    let deepest = ds.pyramid.geometry().levels - 1;
    let walk = |server: &Server, pin: &mut Pin| {
        let mut client = Client::connect(server.addr(), 4).expect("client connects");
        let first = client
            .request_tile(TileId::new(deepest, 0, 0), None)
            .expect("first tile");
        pin.tile(&first);
        for x in 1..4 {
            let a = client
                .request_tile(TileId::new(deepest, 0, x), Some(Move::PanRight))
                .expect("pan tile");
            pin.tile(&a);
        }
        let stats = client.stats().expect("stats");
        pin.stats(&stats);
        client.bye().expect("clean close");
        stats
    };
    // The burst legs' phases and budgets follow the wall-clock gaps
    // between requests, so only the uniform-budget leg is pinned.
    let on = walk(&server, &mut Pin::default());
    server.shutdown();
    assert_eq!(on.requests, 4);
    assert!(
        on.prefetch_issued >= 1 && on.prefetch_issued <= 3,
        "mid-burst speculation is the 1-deep momentum lookahead only: {on:?}"
    );
    assert!(
        on.prefetch_used >= 1,
        "the momentum chain must cover the pan run: {on:?}"
    );

    // With momentum disabled the burst path is fully reactive — zero
    // speculative fetches.
    let (mut server, _ds) = start_server_with(ServerConfig {
        burst: Some(fc_core::BurstConfig {
            momentum: false,
            ..fc_core::BurstConfig::default()
        }),
        ..ServerConfig::default()
    });
    let reactive = walk(&server, &mut Pin::default());
    server.shutdown();
    assert_eq!(reactive.requests, 4);
    assert_eq!(
        reactive.prefetch_issued, 0,
        "wire-speed traffic is a burst: the scheduler must stay reactive"
    );

    // The same walk against a default (uniform-budget) server issues
    // speculative fetches every request.
    let (mut server, _ds) = start_server();
    let mut pin = Pin::default();
    let off = walk(&server, &mut pin);
    server.shutdown();
    pin.check(
        0x13a8dac1dae66cf8,
        "the same pan run under the uniform budget",
    );
    assert_eq!(off.requests, 4);
    assert!(
        off.prefetch_issued > 0,
        "uniform budget prefetches per request: {off:?}"
    );
    assert!(off.prefetch_used <= off.prefetch_issued);
}
