//! Multi-user client/server demo: a ForeCache TCP server sharing one
//! tile pyramid across several concurrent browsing sessions (§3, §5.5:
//! "many users can actively navigate the data freely and in parallel")
//! — running the multi-user serving core: a lock-striped shared tile
//! cache (communal prefetches, fairly repartitioned budgets) plus one
//! χ² pair cache every session's predictions rank through.
//!
//! ```sh
//! cargo run --example multiuser_server --release
//! ```

use forecache::core::engine::PhaseSource;
use forecache::core::{
    AbRecommender, AllocationStrategy, EngineConfig, PredictionEngine, SbConfig, SbRecommender,
};
use forecache::server::{Client, EngineFactory, MultiUserServing, Server, ServerConfig};
use forecache::sim::dataset::{DatasetConfig, StudyDataset};
use forecache::sim::terrain::TerrainConfig;
use forecache::tiles::{Move, Quadrant, TileId};
use std::sync::Arc;

fn main() {
    println!("building shared NDSI dataset…");
    let ds = StudyDataset::build(DatasetConfig {
        terrain: TerrainConfig {
            size: 256,
            ..TerrainConfig::default()
        },
        levels: 4,
        tile: 32,
        ..DatasetConfig::default()
    });
    let pyramid = ds.pyramid.clone();

    let engine_pyramid = pyramid.clone();
    let factory: EngineFactory = Arc::new(move || {
        let right = Move::PanRight.index() as u16;
        let zin = Move::ZoomIn(Quadrant::Nw).index() as u16;
        let traces: Vec<Vec<u16>> = vec![vec![right; 8], vec![zin, zin, zin, right, right]];
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        PredictionEngine::new(
            engine_pyramid.geometry(),
            AbRecommender::train(refs, 3),
            SbRecommender::new(SbConfig::all_equal()),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy: AllocationStrategy::Updated,
                ..EngineConfig::default()
            },
        )
    });

    let config = ServerConfig {
        // The multi-user serving core: sessions share a lock-striped
        // tile cache and rank through one shared pair cache.
        multi_user: Some(MultiUserServing::default()),
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", pyramid, factory, config).expect("server binds");
    let addr = server.addr();
    println!("server listening on {addr} (multi-user: shared tile cache + shared pair cache)");

    // Three users explore different corners of the dataset concurrently.
    let walks: Vec<Vec<(TileId, Option<Move>)>> = vec![
        vec![
            (TileId::ROOT, None),
            (TileId::new(1, 0, 0), Some(Move::ZoomIn(Quadrant::Nw))),
            (TileId::new(1, 0, 1), Some(Move::PanRight)),
            (TileId::new(1, 1, 1), Some(Move::PanDown)),
        ],
        vec![
            (TileId::ROOT, None),
            (TileId::new(1, 1, 1), Some(Move::ZoomIn(Quadrant::Se))),
            (TileId::new(2, 2, 2), Some(Move::ZoomIn(Quadrant::Nw))),
            (TileId::new(2, 2, 3), Some(Move::PanRight)),
            (TileId::new(2, 2, 2), Some(Move::PanLeft)),
        ],
        vec![
            (TileId::ROOT, None),
            (TileId::new(1, 1, 0), Some(Move::ZoomIn(Quadrant::Sw))),
            (TileId::new(2, 2, 0), Some(Move::ZoomIn(Quadrant::Nw))),
            (TileId::new(2, 3, 0), Some(Move::PanDown)),
        ],
    ];

    let handles: Vec<_> = walks
        .into_iter()
        .enumerate()
        .map(|(uid, walk)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, 5).expect("connect");
                for (tile, mv) in walk {
                    let a = client.request_tile(tile, mv).expect("tile");
                    println!(
                        "user {uid}: {:<9} {:>7.1}ms {}",
                        tile.to_string(),
                        a.latency.as_secs_f64() * 1e3,
                        if a.cache_hit { "HIT" } else { "miss" }
                    );
                }
                let stats = client.stats().expect("stats");
                client.bye().expect("bye");
                (uid, stats)
            })
        })
        .collect();

    println!("\nper-session summaries:");
    for h in handles {
        let (uid, stats) = h.join().expect("client thread");
        println!(
            "  user {uid}: {} requests, {} hits, avg {:.1} ms",
            stats.requests,
            stats.hits,
            stats.avg_latency.as_secs_f64() * 1e3
        );
    }
    if let Some(shared) = server.shared_cache_stats() {
        println!(
            "shared cache: {} hits / {} misses, {} cross-session hits, {} evictions",
            shared.hits, shared.misses, shared.cross_session_hits, shared.evictions
        );
    }
    if let Some(sched) = server.scheduler_stats() {
        println!("shared pair cache: {} rankings served", sched.jobs);
    }
    server.shutdown();
    println!("server stopped");
}
