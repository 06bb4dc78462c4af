//! Differential test: the reactor and the lockstep driver
//! (`fc_sim::run`) serve a session the same replies. Both open their
//! sessions through `ServerConfig::open_session`; this suite checks
//! that the request paths around it agree too. N clients connect
//! before any request, then keep one request in flight at a time,
//! round-robin, in the order the driver steps its sessions. Each
//! session's `GetStats`, its replies' summed latency and the
//! namespace's shared-cache counters must equal what the driver
//! reports for the same sessions on the same `ServerConfig`.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, HotspotBlend, HotspotConfig, PredictionEngine,
    SbConfig, SbRecommender, SharedCacheStats,
};
use fc_server::{Client, EngineFactory, MultiUserServing, Server, ServerConfig};
use fc_sim::multiuser::hotspot_workload;
use fc_sim::{RunConfig, Trace};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 4;
/// Longer than each trace, so every session wraps to a second pass.
const STEPS: usize = 40;
const TRACE_LEN: usize = 24;

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

/// Every session's engine; `blend` turns the hotspot prior on.
fn engine(p: &Pyramid, blend: Option<HotspotBlend>) -> PredictionEngine {
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
            hotspot: blend,
            ..EngineConfig::default()
        },
    )
}

/// What one session saw on the wire: its `GetStats` counters
/// `(requests, hits, prefetch_issued, prefetch_used)` and the sum of
/// its tile replies' `latency_ns`.
type SessionView = ((u64, u64, u64, u64), u64);

/// Serves `traces` through a reactor on `serving`, one request in
/// flight at a time in the driver's round-robin order; returns each
/// session's view and the namespace's counters once every session
/// has closed.
fn over_the_wire(
    p: &Arc<Pyramid>,
    traces: &[Trace],
    serving: &ServerConfig,
    blend: Option<HotspotBlend>,
) -> (Vec<SessionView>, SharedCacheStats) {
    let engine_pyramid = p.clone();
    let factory: EngineFactory = Arc::new(move || engine(&engine_pyramid, blend));
    let server = Server::bind("127.0.0.1:0", p.clone(), factory, serving.clone()).unwrap();
    // k = 0: the server's `default_k`, as the driver's sessions get.
    let mut clients: Vec<Client> = (0..SESSIONS)
        .map(|_| Client::connect(server.addr(), 0).unwrap())
        .collect();
    let mut latency_ns = [0u64; SESSIONS];
    for step in 0..STEPS {
        for (i, c) in clients.iter_mut().enumerate() {
            let trace = &traces[i % traces.len()].steps;
            let j = step % trace.len();
            // Each pass starts a fresh navigation arc, as the driver's.
            let mv = if j == 0 { None } else { trace[j].mv };
            let a = c.request_tile(trace[j].tile, mv).unwrap();
            latency_ns[i] += u64::try_from(a.latency.as_nanos()).unwrap();
        }
    }
    let views = clients
        .iter_mut()
        .zip(latency_ns)
        .map(|(c, ns)| {
            let s = c.stats().unwrap();
            ((s.requests, s.hits, s.prefetch_issued, s.prefetch_used), ns)
        })
        .collect();
    for c in clients {
        c.bye().unwrap();
    }
    // The driver reads its namespace after its sessions close.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "sessions never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.namespace_stats();
    assert_eq!(stats.len(), 1);
    (views, stats[0].1)
}

/// Runs the reactor and the driver on one config and compares them.
fn assert_agree(hotspots: bool) {
    let p = pyramid();
    let traces = hotspot_workload(p.geometry(), SESSIONS, TRACE_LEN, 2);
    let d = RunConfig::default();
    let cfg = RunConfig {
        serving: ServerConfig {
            // Below the deepest-level candidate count, so the ranking
            // (and with it the hotspot prior) decides what is
            // prefetched; an 8-tile cache so sessions evict.
            default_k: 2,
            multi_user: Some(MultiUserServing {
                cache_capacity: 8,
                shards: 1,
                hotspots: hotspots.then_some(HotspotConfig {
                    top_n: 4,
                    refresh_every: 8,
                }),
            }),
            ..d.serving
        },
        sessions: SESSIONS,
        steps_per_session: STEPS,
        ..d
    };
    let blend = hotspots.then_some(HotspotBlend {
        radius: 6,
        phases: [true, true, true],
    });
    let (wire, wire_ns) = over_the_wire(&p, &traces, &cfg.serving, blend);
    let r = fc_sim::run(&[("", &p, &traces[..])], |p| engine(p, blend), &cfg);
    assert_eq!(r.served, SESSIONS * STEPS);
    let lockstep: Vec<SessionView> = r
        .session_stats
        .iter()
        .map(|s| {
            let n = |v: usize| v as u64;
            let counts = (
                n(s.requests),
                n(s.hits),
                n(s.prefetch_issued),
                n(s.prefetch_used),
            );
            (counts, u64::try_from(s.total_latency.as_nanos()).unwrap())
        })
        .collect();
    assert_eq!(wire, lockstep, "hotspots={hotspots}: per-session views");
    assert_eq!(
        wire_ns, r.namespaces[0].shared,
        "hotspots={hotspots}: namespace counters"
    );
    // The comparison has teeth: sessions hit, prefetch and share.
    assert!(
        wire_ns.cross_session_hits > 0 && wire_ns.evictions > 0,
        "{wire_ns:?}"
    );
    assert!(wire
        .iter()
        .all(|&((_, hits, issued, _), _)| hits > 0 && issued > 0));
    if hotspots {
        assert!(r.namespaces[0].hotspot_epoch > 0);
    }
}

#[test]
fn reactor_and_lockstep_driver_agree() {
    assert_agree(false);
}

#[test]
fn reactor_and_lockstep_driver_agree_with_hotspots() {
    assert_agree(true);
}
