//! The middleware server: one TCP connection = one user session with
//! its own prediction engine over a served pyramid, every session
//! multiplexed on the single-threaded epoll reactor
//! (`crate::reactor`). One process
//! serves one or many datasets ([`Server::bind_datasets`]): the Hello
//! handshake names the dataset, and in multi-user mode
//! ([`ServerConfig::multi_user`]) each dataset gets its own cache
//! **namespace** from a [`fc_core::DatasetRegistry`] partitioning one
//! global tile budget — sessions of a dataset share that namespace's
//! lock-striped tile cache (prefetches are communal; the per-session
//! budget re-partitions as sessions come and go), one χ² pair cache
//! that every session's SB ranking runs through, and (opt-in) the
//! namespace's cross-session hotspot model.

use crate::protocol::{wire_shape, ClientMsg, ErrorCode, Frame, ServerMsg, TilePayload};
use fc_core::{
    DatasetNamespace, DatasetRegistry, FaultPlan, HotspotConfig, LatencyProfile, Middleware,
    MultiUserCache, PredictionEngine, RegistryConfig, RetryPolicy, SharedCacheStats,
    SharedSessionHandle,
};
use fc_tiles::{Pyramid, Tile};
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Builds a fresh prediction engine per session (sessions never share
/// history/ROI state; what *is* shared in multi-user mode — the tile
/// cache and the pair cache — carries no per-session model state).
pub type EngineFactory = Arc<dyn Fn() -> PredictionEngine + Send + Sync>;

/// One dataset a server process serves: its pyramid plus the factory
/// building each session's prediction engine over it.
#[derive(Clone)]
pub struct DatasetSpec {
    /// Name clients select in the Hello handshake (must be unique per
    /// server; the first spec is the default for an empty name).
    pub name: String,
    /// The served pyramid.
    pub pyramid: Arc<Pyramid>,
    /// Per-session engine factory for this pyramid.
    pub engines: EngineFactory,
}

impl std::fmt::Debug for DatasetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DatasetSpec")
            .field("name", &self.name)
            .field("geometry", &self.pyramid.geometry())
            .finish()
    }
}

/// Multi-user serving parameters (see `fc_core::multiuser` for the
/// sharding invariants). A dataset's sessions rank through its one
/// shared χ² pair table whatever the mode (`fc_core::paircache`).
#[derive(Debug, Clone)]
pub struct MultiUserServing {
    /// **Global** tile budget: partitioned exactly across dataset
    /// namespaces by the registry, then across shards within each
    /// namespace, and fairly across a namespace's sessions.
    pub cache_capacity: usize,
    /// Shard count per namespace (power of two); 0 picks the default
    /// striping.
    pub shards: usize,
    /// Opt-in cross-session hotspot model: when set, every session's
    /// handle carries its namespace's `SharedHotspotModel` at this
    /// cadence. The prior only takes effect for engines whose
    /// `EngineConfig::hotspot` also opts in — the factory controls
    /// blending, the server only feeds the model.
    pub hotspots: Option<HotspotConfig>,
}

impl Default for MultiUserServing {
    fn default() -> Self {
        Self {
            cache_capacity: 4096,
            shards: 0,
            hotspots: None,
        }
    }
}

/// Session admission and socket-liveness limits, enforced by the
/// reactor. The all-off [`Default`] admits every session and never
/// times one out; production configs should set all five.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionLimits {
    /// Maximum concurrently active sessions; connections beyond it are
    /// shed at accept time with [`ErrorCode::Overloaded`] instead of
    /// accepted-then-wedged (0 = unlimited).
    pub max_sessions: usize,
    /// Overload watermark on shared-cache pressure (multi-user mode):
    /// a Hello is shed with [`ErrorCode::Overloaded`] when admitting
    /// it would drop its namespace's fair per-session tile budget
    /// below this floor (0 = no watermark).
    pub min_session_budget: usize,
    /// Idle-session timeout, on the event loop's clock: a client that
    /// sends nothing for this long (a slow client or a dead peer) gets
    /// a clean server-side teardown (`None` = never).
    pub read_timeout: Option<Duration>,
    /// Write-stall timeout: a session whose socket stays unwritable
    /// this long with output pending is torn down (`None` = never).
    pub write_timeout: Option<Duration>,
    /// Bound on a session's pending write queue, in frames. A reply
    /// that would queue past it sheds the session with
    /// [`ErrorCode::Overloaded`] — a slow reader's backlog is bounded
    /// memory, never unbounded (0 = unbounded). A queued tile frame
    /// holds its tile by `Arc`, not by copy, so it keeps that tile's
    /// memory alive past a cache eviction: at most this many tiles per
    /// session.
    pub max_write_queue: usize,
}

/// Deterministic backend fault injection applied to every session's
/// middleware (chaos testing; see `fc_core::fault`). The plan is
/// shared, but fault decisions key on (tile, per-session request
/// index), so each session draws its own reproducible fault stream.
#[derive(Debug, Clone)]
pub struct FaultSetup {
    /// The seeded fault plan.
    pub plan: Arc<FaultPlan>,
    /// Retry/backoff/deadline budget for faulted fetches.
    pub retry: RetryPolicy,
}

/// Server-push serving parameters (multi-user only — pushes ship tiles
/// already resident in the shared cache).
#[derive(Debug, Clone, Copy)]
pub struct PushServing {
    /// The planner's policy and queue bounds.
    pub planner: fc_core::PushConfig,
    /// Pushes the planner may hand to the wire per reactor tick — the
    /// global drain budget the utility (or round-robin) schedule
    /// allocates across writable sessions.
    pub tick_budget: usize,
}

impl Default for PushServing {
    fn default() -> Self {
        Self {
            planner: fc_core::PushConfig::default(),
            tick_budget: 4,
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Latency profile reported to clients.
    pub profile: LatencyProfile,
    /// Recently-requested tiles kept per session cache.
    pub history_cache: usize,
    /// Default prefetch budget when the client's Hello doesn't set one.
    pub default_k: usize,
    /// Multi-user serving core; `None` keeps the fully-isolated
    /// per-session caches of the paper's single-analyst architecture.
    pub multi_user: Option<MultiUserServing>,
    /// Admission control and socket timeouts (default: all off).
    pub limits: SessionLimits,
    /// Backend fault injection (default: none — the fault layer is
    /// zero-cost when absent).
    pub faults: Option<FaultSetup>,
    /// Burst-aware prefetch scheduling applied to every session's
    /// middleware (default: `None` — the uniform per-request budget,
    /// bit-identical to the unscheduled server).
    pub burst: Option<fc_core::BurstConfig>,
    /// Must stay `true` (the default): sessions are served on the
    /// epoll reactor, the server's only serving path, and
    /// [`Server::bind_datasets`] refuses `false` with `InvalidInput`.
    /// The field is kept only because `benchmark/src/sut.rs` spells
    /// `reactor: true`; it is removed with ROADMAP item 2(a).
    pub reactor: bool,
    /// Utility-scheduled server push (multi-user mode only; ignored
    /// otherwise). Default: `None` — no unsolicited frames,
    /// bit-identical to the pre-push wire stream.
    pub push: Option<PushServing>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            profile: LatencyProfile::paper(),
            history_cache: 4,
            default_k: 5,
            multi_user: None,
            limits: SessionLimits::default(),
            faults: None,
            burst: None,
            reactor: true,
            push: None,
        }
    }
}

/// One dataset's serving state: spec + (in multi-user mode) its cache
/// namespace.
pub(crate) struct ServedDataset {
    pub(crate) spec: DatasetSpec,
    pub(crate) shared: Option<DatasetShared>,
}

/// A dataset's slice of the multi-user serving core.
pub(crate) struct DatasetShared {
    pub(crate) namespace: Arc<DatasetNamespace>,
    /// Whether sessions' handles carry the namespace's hotspot model.
    pub(crate) hotspots_on: bool,
}

/// Everything the reactor's sessions share.
pub(crate) struct ServedDatasets {
    pub(crate) datasets: Vec<ServedDataset>,
    /// The registry partitioning the global budget (multi-user mode).
    /// Held so the namespaces stay attached for the server's lifetime.
    #[allow(dead_code)]
    registry: Option<Arc<DatasetRegistry>>,
}

impl ServedDatasets {
    /// Resolves a Hello's dataset name: empty picks the default
    /// (first) dataset.
    pub(crate) fn resolve(&self, name: &str) -> Option<&ServedDataset> {
        if name.is_empty() {
            self.datasets.first()
        } else {
            self.datasets.iter().find(|d| d.spec.name == name)
        }
    }
}

/// Cumulative push accounting mirrored out of the reactor's planner
/// (the reactor thread owns the planner; these atomics are the
/// observable copy).
#[derive(Debug, Default)]
pub(crate) struct PushCounters {
    pub(crate) pushed: AtomicU64,
    pub(crate) used: AtomicU64,
}

/// A running ForeCache server.
pub struct Server {
    local_addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor_thread: Option<JoinHandle<()>>,
    active_sessions: Arc<AtomicUsize>,
    served: Arc<ServedDatasets>,
    push_counters: Arc<PushCounters>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) serving one
    /// dataset, and starts the reactor on a background thread.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        pyramid: Arc<Pyramid>,
        engines: EngineFactory,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Self::bind_datasets(
            addr,
            vec![DatasetSpec {
                name: String::new(),
                pyramid,
                engines,
            }],
            config,
        )
    }

    /// Binds to `addr` serving several datasets from one process: the
    /// Hello handshake picks the dataset by name (empty = the first
    /// spec). In multi-user mode a [`DatasetRegistry`] partitions
    /// `cache_capacity` exactly across one cache namespace per
    /// dataset.
    ///
    /// # Errors
    /// Propagates socket errors; `InvalidInput` when `datasets` is
    /// empty or contains duplicate names, or when `config.reactor` is
    /// `false`.
    ///
    /// # Panics
    /// Panics (from the registry) when the per-namespace budget slice
    /// cannot cover the configured shard count.
    pub fn bind_datasets<A: ToSocketAddrs>(
        addr: A,
        datasets: Vec<DatasetSpec>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        if !config.reactor {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the reactor is the only serving path: `reactor` must be true",
            ));
        }
        if datasets.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server needs at least one dataset",
            ));
        }
        for (i, d) in datasets.iter().enumerate() {
            if datasets[..i].iter().any(|e| e.name == d.name) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate dataset name: {:?}", d.name),
                ));
            }
        }
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active_sessions = Arc::new(AtomicUsize::new(0));
        let registry = config.multi_user.as_ref().map(|mu| {
            Arc::new(DatasetRegistry::new(RegistryConfig {
                budget: mu.cache_capacity,
                shards: mu.shards,
                hotspots: mu.hotspots.unwrap_or_default(),
            }))
        });
        let datasets: Vec<ServedDataset> = datasets
            .into_iter()
            .map(|spec| {
                let shared = config.multi_user.as_ref().map(|mu| {
                    // fc-check: allow(handler-unwrap) -- registry is built above whenever multi_user config is set
                    let registry = registry.as_ref().expect("registry exists in mu mode");
                    let namespace = registry.attach(&spec.name);
                    DatasetShared {
                        namespace,
                        hotspots_on: mu.hotspots.is_some(),
                    }
                });
                ServedDataset { spec, shared }
            })
            .collect();
        let served = Arc::new(ServedDatasets { datasets, registry });
        let push_counters = Arc::new(PushCounters::default());
        let reactor_thread = {
            let (served, shutdown) = (served.clone(), shutdown.clone());
            let (sessions, push) = (active_sessions.clone(), push_counters.clone());
            std::thread::spawn(move || {
                crate::reactor::reactor_loop(listener, served, config, shutdown, sessions, push)
            })
        };
        Ok(Server {
            local_addr,
            shutdown,
            reactor_thread: Some(reactor_thread),
            active_sessions,
            served,
            push_counters,
        })
    }

    /// Shared-cache statistics of the default dataset's namespace when
    /// running in multi-user mode.
    pub fn shared_cache_stats(&self) -> Option<SharedCacheStats> {
        self.served
            .datasets
            .first()
            .and_then(|d| d.shared.as_ref())
            .map(|s| s.namespace.cache().stats())
    }

    /// Per-namespace shared-cache statistics, one entry per served
    /// dataset (multi-user mode; empty otherwise).
    // fc-check: allow(unreferenced-pub) -- accessor that ROADMAP item 3's metrics registry replaces (SharedCacheStats)
    pub fn namespace_stats(&self) -> Vec<(String, SharedCacheStats)> {
        self.served
            .datasets
            .iter()
            .filter_map(|d| {
                d.shared
                    .as_ref()
                    .map(|s| (d.spec.name.clone(), s.namespace.cache().stats()))
            })
            .collect()
    }

    /// Per-namespace cache capacities after the registry's partition
    /// (multi-user mode; empty otherwise) — Σ equals the configured
    /// global `cache_capacity`.
    // fc-check: allow(unreferenced-pub) -- accessor that ROADMAP item 3's metrics registry replaces
    pub fn namespace_capacities(&self) -> Vec<(String, usize)> {
        self.served
            .datasets
            .iter()
            .filter_map(|d| {
                d.shared
                    .as_ref()
                    .map(|s| (d.spec.name.clone(), s.namespace.cache().capacity()))
            })
            .collect()
    }

    /// Cumulative server-push accounting `(pushed, used)` across all
    /// sessions: frames handed to the wire unsolicited, and how many of
    /// them the session then requested. Both zero with push off.
    pub fn push_stats(&self) -> (u64, u64) {
        (
            self.push_counters.pushed.load(Ordering::Relaxed),
            self.push_counters.used.load(Ordering::Relaxed),
        )
    }

    /// The bound address (for clients).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Number of sessions currently connected.
    pub fn active_sessions(&self) -> usize {
        self.active_sessions.load(Ordering::Relaxed)
    }

    /// Stops the reactor and joins its thread. The listener closes and
    /// every live session is dropped with the loop: its socket closes,
    /// so a connected client's next request fails, its middleware
    /// releases its shared holds, and [`Server::active_sessions`] reads
    /// 0 on return.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.reactor_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the reactor does with a session after [`handle_msg`] handled
/// one message.
pub(crate) enum Flow {
    /// Send the reply, keep serving.
    Reply(Reply),
    /// Send the reply (best-effort), then tear the session down.
    ReplyClose(ServerMsg),
    /// Tear the session down silently (client said Bye).
    Close,
}

/// What [`handle_msg`] answers a request with: a small owned message,
/// or a tile as the middleware handed it over — the `Arc` and the four
/// reply scalars, never a [`TilePayload`] copy of its columns.
pub(crate) enum Reply {
    Msg(ServerMsg),
    Tile {
        tile: Arc<Tile>,
        latency_ns: u64,
        cache_hit: bool,
        phase: u8,
        degraded: bool,
    },
}

impl Reply {
    /// The frame the reactor sends for this reply.
    pub(crate) fn into_frame(self) -> Frame {
        match self {
            Reply::Msg(msg) => Frame::msg(&msg),
            Reply::Tile {
                tile,
                latency_ns,
                cache_hit,
                phase,
                degraded,
            } => Frame::tile(tile, latency_ns, cache_hit, phase, degraded),
        }
    }
}

/// Handles one decoded client message. Runs under the reactor's
/// per-message `catch_unwind`; must not write to the socket (the
/// reactor owns it).
pub(crate) fn handle_msg(
    msg: ClientMsg,
    middleware: &mut Option<Middleware>,
    served: &ServedDatasets,
    config: &ServerConfig,
) -> Flow {
    match msg {
        ClientMsg::Hello {
            prefetch_k,
            dataset,
        } => {
            let k = if prefetch_k == 0 {
                config.default_k
            } else {
                prefetch_k as usize
            };
            // The name is at most `MAX_DATASET_NAME` bytes: a longer
            // Hello exceeds `MAX_CLIENT_FRAME`, and the reactor ends
            // the session at its prefix. So echoing it keeps the reply
            // small.
            let resolved = served.resolve(&dataset).ok_or((
                ErrorCode::UnknownDataset,
                format!("unknown dataset: {dataset:?}"),
            ));
            let reply = match resolved {
                Err((code, reason)) => ServerMsg::Error { code, reason },
                Ok(d) => {
                    // Overload watermark: admitting another session
                    // into this namespace must not starve everyone's
                    // fair tile budget below the configured floor.
                    let floor = config.limits.min_session_budget;
                    if let (true, Some(s)) = (floor > 0, &d.shared) {
                        let cache = s.namespace.cache();
                        let budget_after = cache.capacity() / (cache.session_count() + 1);
                        if budget_after < floor {
                            return Flow::ReplyClose(ServerMsg::Error {
                                code: ErrorCode::Overloaded,
                                reason: format!(
                                    "namespace under pressure: per-session budget \
                                     {budget_after} would fall below {floor}"
                                ),
                            });
                        }
                    }
                    let pyramid = d.spec.pyramid.clone();
                    let mut mw = match &d.shared {
                        Some(s) => {
                            let mut handle = SharedSessionHandle::open(
                                s.namespace.cache().clone() as Arc<dyn MultiUserCache>,
                                None,
                            );
                            if s.hotspots_on {
                                handle = handle.with_hotspots(s.namespace.hotspots().clone());
                            }
                            Middleware::new_shared(
                                (d.spec.engines)(),
                                pyramid.clone(),
                                config.profile,
                                config.history_cache,
                                k,
                                handle,
                            )
                        }
                        None => Middleware::new(
                            (d.spec.engines)(),
                            pyramid.clone(),
                            config.profile,
                            config.history_cache,
                            k,
                        ),
                    };
                    if let Some(fs) = &config.faults {
                        mw.set_faults(fs.plan.clone(), fs.retry);
                    }
                    mw.set_burst(config.burst);
                    *middleware = Some(mw);
                    let g = pyramid.geometry();
                    ServerMsg::Welcome {
                        levels: g.levels,
                        deepest_tiles: g.tiles_at(g.levels - 1),
                    }
                }
            };
            Flow::Reply(Reply::Msg(reply))
        }
        ClientMsg::RequestTile { tile, mv } => {
            let error = |code, reason| Reply::Msg(ServerMsg::Error { code, reason });
            let reply = match middleware.as_mut() {
                None => error(
                    ErrorCode::General,
                    "session not opened: send Hello first".into(),
                ),
                Some(mw) => match mw.try_request(tile, mv) {
                    Ok(Some(resp)) => Reply::Tile {
                        tile: resp.tile,
                        latency_ns: u64::try_from(resp.latency.as_nanos()).unwrap_or(u64::MAX),
                        cache_hit: resp.cache_hit,
                        // fc-check: allow(handler-unwrap) -- phase index is 0..3 by construction, always fits u8
                        phase: u8::try_from(resp.phase.index()).expect("phase id"),
                        degraded: resp.degraded,
                    },
                    Ok(None) => error(ErrorCode::NoSuchTile, format!("no such tile: {tile}")),
                    // The fetch exhausted its retry/deadline budget
                    // with nothing resident to degrade to. The session
                    // stays up: the fault may be transient and the
                    // client decides whether to retry or re-navigate.
                    Err(e) => error(
                        ErrorCode::Unavailable,
                        format!("tile {tile} unavailable: {e}"),
                    ),
                },
            };
            Flow::Reply(reply)
        }
        ClientMsg::GetStats => {
            let reply = match middleware.as_ref() {
                None => ServerMsg::Error {
                    code: ErrorCode::General,
                    reason: "session not opened".into(),
                },
                Some(mw) => {
                    let s = mw.stats();
                    ServerMsg::Stats {
                        requests: s.requests as u64,
                        hits: s.hits as u64,
                        avg_latency_ns: u64::try_from(s.avg_latency().as_nanos())
                            .unwrap_or(u64::MAX),
                        prefetch_issued: s.prefetch_issued as u64,
                        prefetch_used: s.prefetch_used as u64,
                    }
                }
            };
            Flow::Reply(Reply::Msg(reply))
        }
        ClientMsg::Bye => Flow::Close,
    }
}

/// Converts a tile into its wire payload: an owned copy of its names,
/// columns and expanded presence mask. Serving does not call this —
/// replies leave by reference ([`Frame::tile`]) — it feeds the
/// reference encoder the tests and benchmarks compare against.
pub fn tile_payload(tile: &Tile) -> TilePayload {
    let (h, w) = wire_shape(tile);
    let array = &tile.array;
    let attrs = &array.schema().attrs;
    let mut present = Vec::new();
    array.validity().expand_into(&mut present);
    TilePayload {
        tile: tile.id,
        h,
        w,
        attrs: attrs.iter().map(|a| a.name.clone()).collect(),
        data: (0..attrs.len())
            .map(|ai| array.attr_col(ai).to_vec())
            .collect(),
        present,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_array::{DenseArray, Schema};
    use fc_tiles::TileId;

    #[test]
    fn tile_payload_reflects_tile() {
        let schema = Schema::grid2d("T", 2, 3, &["a", "b"]).unwrap();
        let mut arr = DenseArray::empty(schema);
        arr.set("a", &[0, 0], 1.5).unwrap();
        arr.set("b", &[0, 0], 2.5).unwrap();
        arr.set("a", &[1, 2], 3.5).unwrap();
        arr.set("b", &[1, 2], 4.5).unwrap();
        let tile = Tile::new(TileId::new(1, 0, 0), arr);
        let p = tile_payload(&tile);
        assert_eq!((p.h, p.w), (2, 3));
        assert_eq!(p.attrs, vec!["a", "b"]);
        assert_eq!(p.present, vec![1, 0, 0, 0, 0, 1]);
        assert_eq!(p.data[0][0], 1.5);
        assert_eq!(p.data[1][5], 4.5);
    }
}
