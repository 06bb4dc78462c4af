//! Fleets of real clients against one reactor: the socket-level
//! robustness invariants under backend faults, bounded write queues
//! and timeouts; and a client that meets an oversized reply prefix.
//! Each fleet keeps one request in flight at a time, round-robin, as
//! `lockstep.rs` does.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, FaultPlan, FaultRates, FaultWindow,
    PredictionEngine, RetryPolicy, SbConfig, SbRecommender,
};
use fc_server::protocol::read_frame;
use fc_server::{
    Client, ClientMsg, EngineFactory, FaultSetup, MultiUserServing, Server, ServerConfig,
    ServerMsg, SessionLimits,
};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_sim::synthetic_workload;
use fc_tiles::{Move, TileId};
use std::io::{self, Read, Write};
use std::sync::{mpsc, Arc};
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

/// What a fleet saw: requests attempted, answered with an error and
/// answered degraded (an ancestor in the tile's place), then its
/// sessions' `GetStats` summed — requests served, their simulated
/// latency, prefetches issued and used.
#[derive(Debug, Default)]
struct FleetTally {
    attempts: u64,
    errors: u64,
    degraded: u64,
    served: u64,
    latency: Duration,
    prefetch_issued: u64,
    prefetch_used: u64,
}

/// Connects `sessions` clients, walks each through its synthetic
/// trace for `steps` requests, round-robin, then reads every session's
/// stats and says goodbye.
fn walk_fleet(server: &Server, ds: &StudyDataset, sessions: usize, steps: usize) -> FleetTally {
    let traces = synthetic_workload(ds.pyramid.geometry(), sessions, steps, 5);
    let mut clients: Vec<Client> = (0..sessions)
        .map(|_| Client::connect(server.addr(), 2).expect("connect"))
        .collect();
    let mut t = FleetTally::default();
    for j in 0..steps {
        for (c, trace) in clients.iter_mut().zip(&traces) {
            let step = &trace.steps[j];
            t.attempts += 1;
            match c.request_tile(step.tile, step.mv) {
                Ok(answer) => t.degraded += u64::from(answer.degraded),
                Err(e) => {
                    assert!(
                        e.get_ref()
                            .is_some_and(|inner| inner.is::<fc_server::ServerError>()),
                        "only structured error replies: {e}"
                    );
                    t.errors += 1;
                }
            }
        }
    }
    for mut c in clients {
        let s = c.stats().expect("stats");
        t.served += s.requests;
        t.latency += s.avg_latency * u32::try_from(s.requests).unwrap();
        t.prefetch_issued += s.prefetch_issued;
        t.prefetch_used += s.prefetch_used;
        c.bye().expect("bye");
    }
    t
}

/// No panic escaped the per-session containment: the reactor is still
/// serving fresh sessions.
fn assert_still_serves(server: &Server) {
    let mut probe = Client::connect(server.addr(), 2).expect("reactor still alive");
    probe
        .request_tile(TileId::ROOT, None)
        .expect("still serving");
    probe.bye().expect("bye");
}

/// A fault-free fleet of 32 sessions: every request is served, none
/// draws an error reply, the server's per-session accounting matches
/// the wire, and prefetches used never exceed those issued.
#[test]
fn swarm_completes_a_clean_run_on_the_reactor() {
    let ds = StudyDataset::build(DatasetConfig::tiny());
    let mut server = Server::bind(
        "127.0.0.1:0",
        ds.pyramid.clone(),
        factory(&ds),
        ServerConfig {
            multi_user: Some(MultiUserServing::default()),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let t = walk_fleet(&server, &ds, 32, 8);
    assert_eq!(t.attempts, 32 * 8, "every scripted request attempted");
    assert_eq!(t.errors, 0, "a clean run has no error replies");
    assert_eq!(
        t.served, t.attempts,
        "server-side accounting matches the wire: {t:?}"
    );
    assert!(t.prefetch_used <= t.prefetch_issued, "{t:?}");
    wait_drained(&server);
    assert_still_serves(&server);
    server.shutdown();
}

/// The socket-level chaos run: transient backend faults mid-window,
/// bounded write queues, liveness timeouts — all at once, through the
/// reactor — and the same fleet on a fault-free server. Inside the
/// window every fetch fails for as many attempts as the retry policy
/// makes, so the faulty fleet meets failures the ladder cannot absorb.
/// The robustness invariants must hold on both: every attempt is
/// answered exactly once (failures and all, and none without faults),
/// no panic escapes (the server keeps serving afterwards), and session
/// teardown reclaims every slot.
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
                transient_first_attempts: RetryPolicy::default().max_attempts,
                ..FaultRates::default()
            },
        },
    );
    let chaos = ServerConfig {
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
    };
    let clean = ServerConfig {
        multi_user: Some(MultiUserServing::default()),
        ..ServerConfig::default()
    };
    let mut latency = Vec::new();
    for (faulty, config) in [(true, chaos), (false, clean)] {
        let mut server = Server::bind("127.0.0.1:0", ds.pyramid.clone(), factory(&ds), config)
            .expect("server binds");
        let t = walk_fleet(&server, &ds, 24, 12);
        assert_eq!(t.attempts, 24 * 12);
        assert_eq!(
            t.served + t.errors,
            t.attempts,
            "faults={faulty}: served and failed must cover every attempt: {t:?}"
        );
        if faulty {
            assert!(
                t.errors + t.degraded > 0,
                "the window outlasts the retry ladder: {t:?}"
            );
        } else {
            assert_eq!(t.errors + t.degraded, 0, "a clean run has no failures");
        }
        assert!(
            t.prefetch_used <= t.prefetch_issued && t.prefetch_issued > 0,
            "faults={faulty}: {t:?}"
        );
        wait_drained(&server);
        assert_still_serves(&server);
        server.shutdown();
        latency.push(t.latency);
    }
    // The window's faults fired: their retries cost simulated time.
    assert!(latency[0] > latency[1], "{latency:?}");
}

/// A reply prefix over the frame bound fails the client's request as
/// soon as it arrives, instead of waiting on a body that never comes.
#[test]
fn an_oversized_reply_prefix_fails_at_once() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_frame(&mut conn).unwrap();
        assert!(matches!(
            ClientMsg::decode(hello),
            Ok(ClientMsg::Hello { .. })
        ));
        let welcome = ServerMsg::Welcome {
            levels: 2,
            deepest_tiles: (2, 2),
        };
        conn.write_all(&welcome.encode()).unwrap();
        // Answer the first request with a prefix claiming 4 GiB, then
        // hold the connection open until the client drops it.
        read_frame(&mut conn).unwrap();
        conn.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let _ = conn.read(&mut [0u8; 64]);
    });
    let mut client = Client::connect(addr, 2).expect("connect");
    // The request runs on its own thread so that a client that waits
    // on the claimed body fails the test at the timeout, not hangs it.
    let (tx, rx) = mpsc::channel();
    let requester = std::thread::spawn(move || {
        let got = client.request_tile(TileId::ROOT, None).map(|_| ());
        tx.send(got.map_err(|e| e.kind())).unwrap();
    });
    let got = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("the request must fail at the prefix, not hang");
    assert_eq!(got, Err(io::ErrorKind::InvalidData));
    requester.join().unwrap();
    peer.join().unwrap();
}
