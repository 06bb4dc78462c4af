//! The adapter to the system under test: the only file of the
//! benchmark that imports `fc_*`. Everything else sees tiles, steps,
//! sessions and probes through the types defined here, so a refactor
//! of the repo's public API is absorbed in this one place.
//!
//! Pinned public items:
//!
//! * set-up — `fc_sim::terrain::{TerrainConfig, build_ndsi_database}`,
//!   `fc_tiles::{PyramidBuilder, PyramidConfig, AttrAgg}`,
//!   `fc_core::signature::{attach_signatures, SignatureConfig}`,
//!   `fc_sim::{StudyDataset, DatasetConfig, Study::generate,
//!   StudyConfig}`,
//!   `fc_core::PhaseClassifier::train_on_features`,
//!   `fc_core::AbRecommender::train`;
//! * serving — `fc_server::{Server, ServerConfig, MultiUserServing,
//!   EngineFactory, Client}` (reactor mode only; `Server::addr` and
//!   `Server::active_sessions`), `fc_core::{Middleware, Response,
//!   MiddlewareStats, PredictionEngine, EngineConfig, PhaseSource,
//!   AllocationStrategy, SbConfig, SbRecommender, SignatureKind,
//!   LatencyProfile, SharedSessionHandle, SharedTileCache,
//!   MultiUserCache}` (an in-process workload's sessions share a
//!   cache through `Middleware::new_shared`);
//! * oracle — `fc_tiles::TileStore::{fetch_offline, io_stats}`,
//!   `fc_server::server::tile_payload`;
//! * probes — `fc_server::protocol::{ClientMsg, ServerMsg, FrameBuf,
//!   unframe}`, `fc_core::{Recommender::rank, PredictionContext,
//!   SbRecommender::rank_indexed_cached, PairCache, PredictScheduler,
//!   BatchConfig, DatasetRegistry, RegistryConfig, HotspotConfig,
//!   SessionId}`, `fc_core::sb::PredictScratch`,
//!   `fc_simd::{chi2_acc4, active_level}`,
//!   `fc_tiles::{Geometry, MetaKey, SignatureIndex::{matrix, ntiles},
//!   TileStore::{fetch_backend, signature_index, put_meta, meta_vec}}`.
//!
//! Deliberately unused, because ROADMAP plans to delete them:
//! `SingleMutexTileCache`, `Chi2Kernel::Reciprocal`, the
//! `SbRecommender::distances_*` family, `fc_server::poll`, the
//! thread-per-connection serving path (`reactor: false`) and the
//! `Server::*_stats` accessors. `rank_indexed_cached` is slated to be
//! folded into one call; it is pinned here because it is the only
//! public entry to the SB ranking the engine actually runs.

use crate::trace::{Recorder, SpanId};
use bytes::Bytes;
use fc_array::{AggFn, IoMode, LatencyModel};
use fc_core::engine::PhaseSource;
use fc_core::multiuser::{DatasetRegistry, RegistryConfig};
use fc_core::sb::PredictScratch;
use fc_core::signature::{attach_signatures, SignatureConfig, SignatureKind};
use fc_core::{
    AbRecommender, AllocationStrategy, BatchConfig, EngineConfig, LatencyProfile, Middleware,
    MultiUserCache, PairCache, PhaseClassifier, PredictScheduler, PredictionContext,
    PredictionEngine, Recommender, SbConfig, SbRecommender, SharedSessionHandle, SharedTileCache,
};
use fc_server::protocol::{unframe, ClientMsg, FrameBuf, ServerMsg, TilePayload};
use fc_server::server::tile_payload;
use fc_server::{Client, EngineFactory, MultiUserServing, Server, ServerConfig};
use fc_sim::terrain::{build_ndsi_database, TerrainConfig};
use fc_sim::{DatasetConfig, Study, StudyConfig, StudyDataset};
use fc_tiles::{AttrAgg, Geometry, Pyramid, PyramidBuilder, PyramidConfig, Tile};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use fc_tiles::{Move, TileId};

/// One interface request: the tile asked for and the move that led to
/// it (`None` for a session's first request and for jumps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    pub tile: TileId,
    pub mv: Option<Move>,
}

/// The tile grid of a pyramid, for building walks without a dataset.
#[derive(Debug, Clone, Copy)]
pub struct Geo(Geometry);

impl Geo {
    pub fn new(levels: u8, raw: usize, tile: usize) -> Self {
        Self(Geometry::new(levels, raw, raw, tile, tile))
    }

    pub fn levels(&self) -> u8 {
        self.0.levels
    }

    /// `(rows, columns)` of tiles at `level`.
    pub fn tiles_at(&self, level: u8) -> (u32, u32) {
        self.0.tiles_at(level)
    }

    pub fn legal_moves(&self, from: TileId) -> Vec<Move> {
        self.0.legal_moves(from)
    }

    pub fn apply(&self, from: TileId, mv: Move) -> Option<TileId> {
        self.0.apply(from, mv)
    }

    /// The single move that leads from `from` to `to`, if there is one.
    pub fn move_between(&self, from: TileId, to: TileId) -> Option<Move> {
        self.0.move_between(from, to)
    }
}

/// Side of the raw terrain array, in cells.
pub const TERRAIN: usize = 1024;
/// Simulated study users; even-numbered ones train, odd ones replay.
const USERS: usize = 18;

/// The shape of a dataset context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextSpec {
    pub name: &'static str,
    pub levels: u8,
    pub tile: usize,
}

/// 6 levels of 32² tiles: 1365 tiles with 32 KiB payloads.
pub const CTX32: ContextSpec = ContextSpec {
    name: "ctx32",
    levels: 6,
    tile: 32,
};

/// 5 levels of 64² tiles: 341 tiles with 128 KiB payloads.
pub const CTX64: ContextSpec = ContextSpec {
    name: "ctx64",
    levels: 5,
    tile: 64,
};

impl ContextSpec {
    pub fn geo(&self) -> Geo {
        Geo::new(self.levels, TERRAIN, self.tile)
    }
}

/// A timed call into one layer during set-up.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

fn timed<T>(log: &mut Vec<Timed>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    log.push(Timed {
        name,
        start,
        end: Instant::now(),
    });
    out
}

/// The trained models every session's engine is built from.
struct Models {
    geometry: Geometry,
    ab: AbRecommender,
    classifier: PhaseClassifier,
}

/// Which prediction engine a workload serves with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's hybrid: Markov-3 AB + SIFT SB, `Updated` allocation,
    /// prediction distance 1.
    Hybrid,
    /// AB only: the predictor does as little as the engine allows.
    AbOnly,
    /// All four signatures at prediction distance 2: the published
    /// 4-signature × 64-candidate shape.
    Deep,
}

impl Models {
    fn sb(kind: EngineKind) -> SbRecommender {
        SbRecommender::new(match kind {
            EngineKind::Deep => SbConfig::all_equal(),
            _ => SbConfig::single(SignatureKind::Sift),
        })
    }

    fn distance(kind: EngineKind) -> usize {
        match kind {
            EngineKind::Deep => 2,
            _ => 1,
        }
    }

    fn engine(&self, kind: EngineKind) -> PredictionEngine {
        PredictionEngine::new(
            self.geometry,
            self.ab.clone(),
            Self::sb(kind),
            PhaseSource::Classifier(Box::new(self.classifier.clone())),
            EngineConfig {
                strategy: match kind {
                    EngineKind::AbOnly => AllocationStrategy::AbOnly,
                    _ => AllocationStrategy::Updated,
                },
                distance: Self::distance(kind),
                ..EngineConfig::default()
            },
        )
    }
}

/// A built dataset with its trained models and held-out traces.
pub struct Context {
    pub spec: ContextSpec,
    pyramid: Arc<Pyramid>,
    models: Arc<Models>,
    /// The traces of the odd-numbered users, never trained on.
    pub heldout: Vec<Vec<Step>>,
    /// The timed set-up calls, in order.
    pub setup: Vec<Timed>,
    /// Payload checksum of every tile, from `fetch_offline`.
    oracle: HashMap<TileId, u64>,
}

impl Context {
    /// Builds the study dataset (the repo's default terrain and its
    /// eighteen study users), simulates the study and trains the
    /// models, timing each call into a layer.
    pub fn build(spec: ContextSpec) -> Self {
        let mut setup = Vec::with_capacity(8);
        let terrain = TerrainConfig {
            size: TERRAIN,
            ..TerrainConfig::default()
        };
        let (db, ndsi) = timed(&mut setup, "fc-array.ndsi_build", || {
            build_ndsi_database(&terrain)
        });
        let config = DatasetConfig {
            terrain,
            levels: spec.levels,
            tile: spec.tile,
            latency: LatencyModel::scidb_like(),
            signatures: SignatureConfig::ndsi("ndsi_avg"),
        };
        let pyramid = timed(&mut setup, "fc-tiles.pyramid_build", || {
            let cfg = PyramidConfig {
                levels: spec.levels,
                tile_h: spec.tile,
                tile_w: spec.tile,
                aggs: vec![
                    AttrAgg::new("ndsi_max", AggFn::Max),
                    AttrAgg::new("ndsi_min", AggFn::Min),
                    AttrAgg::new("ndsi_avg", AggFn::Avg),
                    AttrAgg::new("land", AggFn::Avg),
                ],
                latency: config.latency,
                io_mode: IoMode::Simulated,
            };
            Arc::new(
                PyramidBuilder::new()
                    .build(&ndsi, &cfg)
                    .expect("pyramid builds from the NDSI array"),
            )
        });
        let (sift_vocab, dense_vocab) = timed(&mut setup, "fc-vision.attach_signatures", || {
            attach_signatures(&pyramid, &config.signatures)
        });
        let dataset = StudyDataset {
            pyramid,
            db,
            sift_vocab,
            dense_vocab,
            config,
        };
        let study = timed(&mut setup, "fc-sim.study_generate", || {
            Study::generate(&dataset, &StudyConfig { num_users: USERS })
        });
        let classifier = timed(&mut setup, "fc-ml.classifier_train", || {
            let phases = study.phase_dataset();
            let train: Vec<usize> = (0..phases.len())
                .filter(|&i| phases.users[i] % 2 == 0)
                .collect();
            let feats: Vec<Vec<f64>> = train.iter().map(|&i| phases.features[i].clone()).collect();
            let labels: Vec<usize> = train.iter().map(|&i| phases.labels[i]).collect();
            PhaseClassifier::train_on_features(&feats, &labels)
        });
        let ab = timed(&mut setup, "fc-ngram.ab_train", || {
            let seqs: Vec<Vec<u16>> = study
                .traces
                .iter()
                .filter(|t| t.user % 2 == 0)
                .map(|t| t.move_sequence())
                .collect();
            AbRecommender::train(seqs.iter().map(Vec::as_slice), 3)
        });
        let heldout = study
            .traces
            .iter()
            .filter(|t| t.user % 2 == 1)
            .map(|t| {
                t.steps
                    .iter()
                    .map(|s| Step {
                        tile: s.tile,
                        mv: s.mv,
                    })
                    .collect()
            })
            .collect();
        let pyramid = dataset.pyramid;
        pyramid.store().reset_io_stats();
        pyramid.store().clock().reset();
        Self {
            spec,
            models: Arc::new(Models {
                geometry: pyramid.geometry(),
                ab,
                classifier,
            }),
            pyramid,
            heldout,
            setup,
            oracle: HashMap::new(),
        }
    }

    /// Wall time of the whole build.
    pub fn setup_time(&self) -> Duration {
        match (self.setup.first(), self.setup.last()) {
            (Some(a), Some(b)) => b.end.duration_since(a.start),
            _ => Duration::ZERO,
        }
    }

    /// Checksums every tile's payload from offline storage: the oracle
    /// every reply is compared against. Not part of set-up.
    pub fn build_oracle(&mut self) {
        let store = self.pyramid.store();
        self.oracle = self
            .pyramid
            .geometry()
            .all_tiles()
            .filter_map(|id| Some((id, checksum(&tile_payload(&*store.fetch_offline(id)?)))))
            .collect();
    }

    pub fn tile_count(&self) -> usize {
        self.oracle.len()
    }

    /// Whether `answer` carries exactly the payload of `requested`.
    pub fn verify(&self, requested: TileId, answer: &Answer) -> bool {
        let sum = match &answer.payload {
            Payload::Wire(p) => (p.tile == requested).then(|| checksum(p)),
            Payload::Local(t) => (t.id == requested).then(|| checksum(&tile_payload(t))),
        };
        sum.is_some() && sum == self.oracle.get(&requested).copied()
    }

    /// Foreground reads served by the backend store so far.
    pub fn backend_reads(&self) -> u64 {
        self.pyramid.store().io_stats().reads as u64
    }

    /// Invalidates the frozen signature index (by re-writing one
    /// tile's metadata vector with its own value) and times the
    /// rebuild: the cost the first session pays when the index is cold.
    pub fn time_sigindex_rebuild(&self) -> Duration {
        let store = self.pyramid.store();
        let name = SignatureKind::Sift.meta_name();
        if let Some(v) = store.meta_vec(TileId::ROOT, name) {
            store.put_meta(TileId::ROOT, name, v.to_vec());
        }
        let start = Instant::now();
        black_box(store.signature_index());
        start.elapsed()
    }

    /// Nanoseconds per χ² pair of the dispatched SIMD kernel, over the
    /// dataset's own SIFT signature rows.
    pub fn chi2_ns_per_pair(&self) -> f64 {
        let Some(index) = self.pyramid.store().signature_index() else {
            return 0.0;
        };
        let key = fc_tiles::MetaKey::intern(SignatureKind::Sift.meta_name());
        let Some(matrix) = index.matrix(key) else {
            return 0.0;
        };
        let rows: Vec<&[f64]> = (0..index.ntiles()).filter_map(|i| matrix.row(i)).collect();
        if rows.len() < 5 {
            return 0.0;
        }
        let level = fc_simd::active_level();
        let rounds = 20_000usize;
        let start = Instant::now();
        let mut acc = 0.0f64;
        for i in 0..rounds {
            let at = |o: usize| rows[(i * 5 + o) % rows.len()];
            let out = fc_simd::chi2_acc4::<false>(level, at(0), at(1), at(2), at(3), at(4));
            acc += out[0] + out[3];
        }
        black_box(acc);
        start.elapsed().as_nanos() as f64 / (rounds * 4) as f64
    }
}

/// FNV-style checksum over a payload's identity, shape and every data
/// word.
fn checksum(p: &TilePayload) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |w: u64| h = (h ^ w).wrapping_mul(PRIME);
    eat(u64::from(p.tile.level));
    eat(u64::from(p.tile.y));
    eat(u64::from(p.tile.x));
    eat(u64::from(p.h));
    eat(u64::from(p.w));
    for (name, col) in p.attrs.iter().zip(&p.data) {
        name.bytes().for_each(|b| eat(u64::from(b)));
        eat(col.len() as u64);
        col.iter().for_each(|v| eat(v.to_bits()));
    }
    eat(p.present.len() as u64);
    p.present.iter().for_each(|&b| eat(u64::from(b)));
    h
}

/// SIMD dispatch level of this host: 0 scalar, 1 SSE2, 2 AVX2.
pub fn simd_level() -> (u32, &'static str) {
    let level = fc_simd::active_level();
    let code = match level {
        fc_simd::SimdLevel::Scalar => 0,
        fc_simd::SimdLevel::Sse2 => 1,
        fc_simd::SimdLevel::Avx2 => 2,
    };
    (code, level.name())
}

/// How a workload is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Serving {
    pub engine: EngineKind,
    /// Through the reactor over TCP, or a `Middleware` called in
    /// process.
    pub wire: bool,
    /// Shared-cache tile budget. `0` means the server's default over
    /// the wire, and private caches only in process.
    pub capacity: usize,
    /// Shared-cache shards (`0` = the default striping).
    pub shards: usize,
    /// Prefetch budget per session.
    pub k: usize,
}

impl Serving {
    fn capacity(&self) -> usize {
        match self.capacity {
            0 => MultiUserServing::default().cache_capacity,
            n => n,
        }
    }

    /// Whether sessions share a tile cache.
    pub fn shared(&self) -> bool {
        self.wire || self.capacity > 0
    }
}

/// What sessions served in process share: for a wire workload's
/// replica, what `Server::bind` builds for a multi-user dataset, built
/// the same way; for an in-process workload, a bare shared cache (no
/// cross-session predict scheduler: the engine ranks through its own
/// pair cache).
struct SharedHalf {
    _registry: Option<Arc<DatasetRegistry>>,
    cache: Arc<SharedTileCache>,
    scheduler: Option<Arc<PredictScheduler>>,
}

impl SharedHalf {
    fn build(ctx: &Context, serving: Serving) -> Option<Self> {
        if !serving.shared() {
            return None;
        }
        if !serving.wire {
            return Some(Self {
                _registry: None,
                cache: Arc::new(shared_cache(serving)),
                scheduler: None,
            });
        }
        let registry = Arc::new(DatasetRegistry::new(RegistryConfig {
            budget: serving.capacity(),
            shards: serving.shards,
            hotspots: fc_core::HotspotConfig::default(),
        }));
        let cache = registry.attach("").cache().clone();
        let scheduler = Arc::new(PredictScheduler::new(
            Models::sb(serving.engine),
            ctx.pyramid.clone(),
            BatchConfig::default(),
        ));
        Some(Self {
            _registry: Some(registry),
            cache,
            scheduler: Some(scheduler),
        })
    }
}

/// A shared cache of the workload's capacity and shards.
fn shared_cache(serving: Serving) -> SharedTileCache {
    match serving.shards {
        0 => SharedTileCache::new(serving.capacity()),
        n => SharedTileCache::with_shards(serving.capacity(), n),
    }
}

/// A session's middleware, as the server's Hello handler builds it.
fn middleware(ctx: &Context, serving: Serving, shared: Option<&SharedHalf>) -> Middleware {
    let engine = ctx.models.engine(serving.engine);
    let (pyramid, profile) = (ctx.pyramid.clone(), LatencyProfile::paper());
    match shared {
        Some(sh) => Middleware::new_shared(
            engine,
            pyramid,
            profile,
            history_cache(),
            serving.k,
            SharedSessionHandle::open(
                sh.cache.clone() as Arc<dyn MultiUserCache>,
                sh.scheduler.clone(),
            ),
        ),
        None => Middleware::new(engine, pyramid, profile, history_cache(), serving.k),
    }
}

/// History tiles a session's private cache keeps (the server default).
fn history_cache() -> usize {
    ServerConfig::default().history_cache
}

/// The serving side of one lap: a fresh reactor server, or for an
/// in-process workload a fresh shared cache (each session owns its
/// middleware).
pub struct Harness<'a> {
    ctx: &'a Context,
    serving: Serving,
    server: Option<Server>,
    local: Option<SharedHalf>,
}

impl<'a> Harness<'a> {
    pub fn start(ctx: &'a Context, serving: Serving) -> io::Result<Self> {
        let server = if serving.wire {
            let models = ctx.models.clone();
            let kind = serving.engine;
            let engines: EngineFactory = Arc::new(move || models.engine(kind));
            Some(Server::bind(
                "127.0.0.1:0",
                ctx.pyramid.clone(),
                engines,
                ServerConfig {
                    reactor: true,
                    multi_user: Some(MultiUserServing {
                        cache_capacity: serving.capacity(),
                        shards: serving.shards,
                        ..MultiUserServing::default()
                    }),
                    ..ServerConfig::default()
                },
            )?)
        } else {
            None
        };
        let local = if serving.wire {
            None
        } else {
            SharedHalf::build(ctx, serving)
        };
        Ok(Self {
            ctx,
            serving,
            server,
            local,
        })
    }

    /// Opens a session: connect + Hello → Welcome over the wire, or
    /// the construction of a middleware in process.
    pub fn open(&self) -> io::Result<Session> {
        Ok(match &self.server {
            Some(server) => Session::Wire(Client::connect(server.addr(), self.serving.k as u32)?),
            None => Session::Local(Box::new(middleware(
                self.ctx,
                self.serving,
                self.local.as_ref(),
            ))),
        })
    }

    /// Waits until the server holds exactly `n` sessions, so that a
    /// close is ordered before whatever the driver does next. `false`
    /// if that takes more than two seconds.
    pub fn wait_sessions(&self, n: usize) -> bool {
        let Some(server) = &self.server else {
            return true;
        };
        let deadline = Instant::now() + Duration::from_secs(2);
        while server.active_sessions() != n {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }
}

/// One client session.
pub enum Session {
    Wire(Client),
    Local(Box<Middleware>),
}

enum Payload {
    Wire(TilePayload),
    Local(Arc<Tile>),
}

/// A served tile as the client saw it.
pub struct Answer {
    payload: Payload,
    pub hit: bool,
    /// Response latency on the simulated clock.
    pub sim_latency: Duration,
}

/// A session's own account of what it served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub requests: u64,
    pub hits: u64,
    pub prefetch_issued: u64,
    pub prefetch_used: u64,
}

impl Session {
    /// Serves one request; `None` when it failed or was refused.
    pub fn request(&mut self, step: Step) -> Option<Answer> {
        match self {
            Session::Wire(client) => {
                let a = client.request_tile(step.tile, step.mv).ok()?;
                (!a.degraded).then_some(Answer {
                    payload: Payload::Wire(a.payload),
                    hit: a.cache_hit,
                    sim_latency: a.latency,
                })
            }
            Session::Local(mw) => {
                let r = mw.request(step.tile, step.mv)?;
                (!r.degraded).then_some(Answer {
                    payload: Payload::Local(r.tile),
                    hit: r.cache_hit,
                    sim_latency: r.latency,
                })
            }
        }
    }

    pub fn totals(&mut self) -> Option<Totals> {
        Some(match self {
            Session::Wire(client) => {
                let s = client.stats().ok()?;
                Totals {
                    requests: s.requests,
                    hits: s.hits,
                    prefetch_issued: s.prefetch_issued,
                    prefetch_used: s.prefetch_used,
                }
            }
            Session::Local(mw) => {
                let s = mw.stats();
                Totals {
                    requests: s.requests as u64,
                    hits: s.hits as u64,
                    prefetch_issued: s.prefetch_issued as u64,
                    prefetch_used: s.prefetch_used as u64,
                }
            }
        })
    }

    /// Ends the session (Bye over the wire).
    pub fn close(self) -> bool {
        match self {
            Session::Wire(client) => client.bye().is_ok(),
            Session::Local(_) => true,
        }
    }
}

/// Counters the shadow replica accumulates over the traced laps.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCounts {
    pub requests: u64,
    pub hits: u64,
    pub shared_hits: u64,
    pub shared_misses: u64,
    pub cross_session_hits: u64,
    pub evictions: u64,
    pub prefetch_issued: u64,
    pub prefetch_used: u64,
    pub candidates: u64,
    pub pair_hits: u64,
    pub pair_misses: u64,
    pub reply_bytes: u64,
    pub request_bytes: u64,
    pub largest_batch: u64,
}

/// An in-process replica of the serving side (same engine, cache shape
/// and sessions) that is fed every request the server was sent, in the
/// same order, with a timer around every call into a layer. Its state
/// tracks the server's exactly because both are deterministic.
pub struct Shadow<'a> {
    ctx: &'a Context,
    serving: Serving,
    shared: Option<SharedHalf>,
    slots: [Option<Middleware>; 2],
    // Direct probes, warmed by the same request sequence.
    sb: SbRecommender,
    pair_cache: Option<PairCache>,
    scratch: PredictScratch,
    probe_scheduler: PredictScheduler,
    probe_cache: SharedTileCache,
    probe_ids: [fc_core::SessionId; 2],
    frame: FrameBuf,
    pub counts: ShadowCounts,
}

impl<'a> Shadow<'a> {
    pub fn new(ctx: &'a Context, serving: Serving) -> Self {
        let sb = Models::sb(serving.engine);
        let batch = BatchConfig::default();
        let (probe_cache, probe_ids) = probe_cache(serving);
        Self {
            ctx,
            serving,
            shared: None,
            slots: [None, None],
            probe_scheduler: PredictScheduler::new(sb.clone(), ctx.pyramid.clone(), batch),
            sb,
            pair_cache: None,
            scratch: PredictScratch::default(),
            probe_cache,
            probe_ids,
            frame: FrameBuf::new(),
            counts: ShadowCounts::default(),
        }
    }

    /// Starts a lap: the replica of a fresh server.
    pub fn start_lap(&mut self) {
        self.finish_lap();
        (self.probe_cache, self.probe_ids) = probe_cache(self.serving);
        self.shared = SharedHalf::build(self.ctx, self.serving);
    }

    /// Ends a lap, folding the replica's shared-cache books into the
    /// counters.
    pub fn finish_lap(&mut self) {
        self.slots = [None, None];
        if let Some(sh) = self.shared.take() {
            let s = sh.cache.stats();
            self.counts.shared_hits += s.hits as u64;
            self.counts.shared_misses += s.misses as u64;
            self.counts.cross_session_hits += s.cross_session_hits as u64;
            self.counts.evictions += s.evictions as u64;
            if let Some(scheduler) = &sh.scheduler {
                let largest = scheduler.stats().largest_batch as u64;
                self.counts.largest_batch = self.counts.largest_batch.max(largest);
            }
        }
    }

    pub fn open(&mut self, slot: usize) {
        self.slots[slot] = Some(middleware(self.ctx, self.serving, self.shared.as_ref()));
    }

    pub fn close(&mut self, slot: usize) {
        if let Some(mw) = self.slots[slot].take() {
            let s = mw.stats();
            self.counts.prefetch_issued += s.prefetch_issued as u64;
            self.counts.prefetch_used += s.prefetch_used as u64;
        }
    }

    /// Replays one request on the replica under `parent`, recording a
    /// span per call into a layer. Returns whether the replica agreed
    /// with the server on hit or miss.
    pub fn request(
        &mut self,
        slot: usize,
        step: Step,
        server_hit: bool,
        rec: &mut Recorder,
        parent: SpanId,
        request: u32,
    ) -> bool {
        let store = self.ctx.pyramid.store();
        if self.serving.wire {
            let msg = ClientMsg::RequestTile {
                tile: step.tile,
                mv: step.mv,
            };
            let t0 = Instant::now();
            let framed = msg.encode();
            let t1 = Instant::now();
            rec.span(parent, request, "protocol.encode_request", t0, t1);
            self.counts.request_bytes += framed.len() as u64;
            let body = unframe(&framed);
            let t0 = Instant::now();
            let decoded = ClientMsg::decode(body);
            let t1 = Instant::now();
            rec.span(parent, request, "protocol.decode_request", t0, t1);
            black_box(decoded.is_ok());
        }

        let Some(mw) = self.slots[slot].as_mut() else {
            return false;
        };
        let t0 = Instant::now();
        let resp = mw.request(step.tile, step.mv);
        let t1 = Instant::now();
        let Some(resp) = resp else {
            return false;
        };
        let mw_span = rec.span(parent, request, "middleware.request", t0, t1);
        // The engine call's duration is the middleware's own report
        // (`Response::predict_time`); its offset inside the request is
        // not observable from outside, so the span starts with it.
        let predict_span = rec.span(
            mw_span,
            request,
            "engine.predict",
            t0,
            t0 + resp.predict_time,
        );
        self.counts.requests += 1;
        self.counts.hits += u64::from(resp.cache_hit);
        self.counts.pair_hits += resp.pair_cache.hits;
        self.counts.pair_misses += resp.pair_cache.misses;

        // The engine's children, as direct calls over the replica's
        // own history.
        let engine = mw.engine();
        if let Some(&last) = engine.history().last() {
            let geometry = engine.geometry();
            let t0 = Instant::now();
            let candidates = geometry.candidates(last.tile, Models::distance(self.serving.engine));
            let t1 = Instant::now();
            rec.span(predict_span, request, "geometry.candidates", t0, t1);
            self.counts.candidates += candidates.len() as u64;

            let previous = engine.history().previous();
            let t0 = Instant::now();
            black_box(self.ctx.models.classifier.predict(&last, previous));
            let t1 = Instant::now();
            rec.span(predict_span, request, "phase.classify", t0, t1);

            let pctx = PredictionContext {
                request: last,
                history: engine.history(),
                candidates: &candidates,
                geometry,
                store,
                roi: engine.roi(),
            };
            let t0 = Instant::now();
            black_box(self.ctx.models.ab.rank(&pctx));
            let t1 = Instant::now();
            rec.span(predict_span, request, "ab.rank", t0, t1);

            if let Some(index) = store.signature_index() {
                let cache = self
                    .pair_cache
                    .get_or_insert_with(|| PairCache::for_index(&index));
                let t0 = Instant::now();
                black_box(
                    self.sb
                        .rank_indexed_cached(&pctx, &index, cache, &mut self.scratch),
                );
                let t1 = Instant::now();
                rec.span(predict_span, request, "sb.rank", t0, t1);
            }

            // Not a child: the same ranking through the cross-session
            // rendezvous, for the overhead it adds when it runs solo.
            let fallback = [last.tile];
            let refs: &[TileId] = if pctx.roi.is_empty() {
                &fallback
            } else {
                pctx.roi
            };
            let t0 = Instant::now();
            black_box(self.probe_scheduler.rank(&candidates, refs));
            let t1 = Instant::now();
            rec.span(crate::trace::NONE, request, "batch.scheduler_rank", t0, t1);
        }

        // The backend fetches the request made: the foreground one on
        // a miss, and one per tile it prefetched.
        let mut fetch = |id: TileId| {
            let t0 = Instant::now();
            let got = store.fetch_backend(id);
            let t1 = Instant::now();
            rec.span(mw_span, request, "store.fetch_backend", t0, t1);
            got.map(|(tile, _)| tile)
        };
        if !resp.cache_hit {
            black_box(fetch(step.tile));
        }
        let tiles: Vec<Arc<Tile>> = resp.prefetched.iter().filter_map(|&id| fetch(id)).collect();

        // The shared cache's own cost, on a standalone cache of the
        // workload's shape fed the same lookups and installs.
        if self.shared.is_some() {
            let sid = self.probe_ids[slot];
            let t0 = Instant::now();
            black_box(self.probe_cache.lookup(sid, step.tile));
            let t1 = Instant::now();
            rec.span(crate::trace::NONE, request, "multiuser.lookup", t0, t1);
            if !tiles.is_empty() {
                let t0 = Instant::now();
                black_box(self.probe_cache.install(sid, tiles));
                let t1 = Instant::now();
                rec.span(crate::trace::NONE, request, "multiuser.install", t0, t1);
                self.probe_cache.retain_for(sid, &resp.prefetched);
            }
        }

        if self.serving.wire {
            let t0 = Instant::now();
            let reply = ServerMsg::Tile {
                payload: tile_payload(&resp.tile),
                latency_ns: resp.latency.as_nanos() as u64,
                cache_hit: resp.cache_hit,
                phase: resp.phase.index() as u8,
                degraded: resp.degraded,
            };
            let framed = reply.encode_into(&mut self.frame);
            let t1 = Instant::now();
            rec.span(parent, request, "protocol.encode_reply", t0, t1);
            self.counts.reply_bytes += framed.len() as u64;
            let body = Bytes::from(framed[4..].to_vec());
            let t0 = Instant::now();
            let decoded = ServerMsg::decode(body);
            let t1 = Instant::now();
            rec.span(parent, request, "protocol.decode_reply", t0, t1);
            black_box(decoded.is_ok());
        }
        resp.cache_hit == server_hit
    }
}

/// A standalone shared cache of the workload's shape with two open
/// sessions.
fn probe_cache(serving: Serving) -> (SharedTileCache, [fc_core::SessionId; 2]) {
    let cache = shared_cache(serving);
    let ids = [cache.open_session(), cache.open_session()];
    (cache, ids)
}
