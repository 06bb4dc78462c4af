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

use crate::protocol::{wire_shape, TilePayload};
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
    /// shed at accept time with [`crate::ErrorCode::Overloaded`]
    /// instead of accepted-then-wedged (0 = unlimited).
    pub max_sessions: usize,
    /// Overload watermark on shared-cache pressure (multi-user mode):
    /// a Hello is shed with [`crate::ErrorCode::Overloaded`] when
    /// admitting it would drop its namespace's fair per-session tile
    /// budget below this floor (0 = no watermark).
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
    /// [`crate::ErrorCode::Overloaded`] — a slow reader's backlog is
    /// bounded memory, never unbounded (0 = unbounded). A queued tile
    /// frame holds its tile by `Arc`, not by copy, so it keeps that
    /// tile's memory alive past a cache eviction: at most this many
    /// tiles per session.
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

impl MultiUserServing {
    /// The registry that partitions [`Self::cache_capacity`] across the
    /// served datasets, one namespace per [`DatasetRegistry::attach`]:
    /// the server builds one per process, `fc_sim::run` one per run.
    pub fn registry(&self) -> DatasetRegistry {
        DatasetRegistry::new(RegistryConfig {
            budget: self.cache_capacity,
            shards: self.shards,
            hotspots: self.hotspots.unwrap_or_default(),
        })
    }
}

impl ServerConfig {
    /// Builds one session's middleware: what a Hello opens, and what
    /// `fc_sim::run` opens for each of its sessions. `engine` is the
    /// session's own, already built for `pyramid`. In multi-user mode
    /// `namespace` is the dataset's cache namespace: the session's
    /// handle joins its shared cache and, when
    /// [`MultiUserServing::hotspots`] is set, feeds its hotspot model;
    /// `None` gives the session private caches only. `prefetch_k` is
    /// the budget as the Hello carries it (0 = [`Self::default_k`]).
    /// The faults and burst scheduling set here apply to every
    /// session.
    pub fn open_session(
        &self,
        engine: PredictionEngine,
        pyramid: Arc<Pyramid>,
        namespace: Option<&DatasetNamespace>,
        prefetch_k: usize,
    ) -> Middleware {
        let k = if prefetch_k == 0 {
            self.default_k
        } else {
            prefetch_k
        };
        let (profile, history) = (self.profile, self.history_cache);
        let hotspots_on = matches!(&self.multi_user, Some(mu) if mu.hotspots.is_some());
        let mut mw = match namespace {
            Some(ns) => {
                let mut handle = SharedSessionHandle::open(ns.cache().clone(), None);
                if hotspots_on {
                    handle = handle.with_hotspots(ns.hotspots().clone());
                }
                Middleware::new_shared(engine, pyramid, profile, history, k, handle)
            }
            None => Middleware::new(engine, pyramid, profile, history, k),
        };
        if let Some(fs) = &self.faults {
            mw.set_faults(fs.plan.clone(), fs.retry);
        }
        mw.set_burst(self.burst);
        mw
    }
}

/// One dataset's serving state: spec + (in multi-user mode) its cache
/// namespace.
pub(crate) struct ServedDataset {
    pub(crate) spec: DatasetSpec,
    pub(crate) namespace: Option<Arc<DatasetNamespace>>,
}

/// Everything the reactor's sessions share.
pub(crate) struct ServedDatasets {
    pub(crate) datasets: Vec<ServedDataset>,
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
        let registry = config.multi_user.as_ref().map(MultiUserServing::registry);
        let datasets: Vec<ServedDataset> = datasets
            .into_iter()
            .map(|spec| ServedDataset {
                namespace: registry.as_ref().map(|r| r.attach(&spec.name)),
                spec,
            })
            .collect();
        let served = Arc::new(ServedDatasets { datasets });
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
            .and_then(|d| d.namespace.as_ref())
            .map(|ns| ns.cache().stats())
    }

    /// Per-namespace shared-cache statistics, one entry per served
    /// dataset (multi-user mode; empty otherwise).
    // fc-check: allow(unreferenced-pub) -- accessor that ROADMAP item 3's metrics registry replaces (SharedCacheStats)
    pub fn namespace_stats(&self) -> Vec<(String, SharedCacheStats)> {
        self.served
            .datasets
            .iter()
            .filter_map(|d| {
                d.namespace
                    .as_ref()
                    .map(|ns| (d.spec.name.clone(), ns.cache().stats()))
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
                d.namespace
                    .as_ref()
                    .map(|ns| (d.spec.name.clone(), ns.cache().capacity()))
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

/// Converts a tile into its wire payload: an owned copy of its names,
/// columns and expanded presence mask. Serving does not call this —
/// replies leave by reference ([`crate::Frame::tile`]) — it feeds
/// the reference encoder the tests and benchmarks compare against.
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
