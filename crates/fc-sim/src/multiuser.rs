//! The multi-session replay driver: K simulated analysts over one or
//! more shared datasets.
//!
//! The paper's evaluation replays one analyst at a time (§5.2.2); the
//! ROADMAP's north star is a backend shared by many. Every session is
//! a full [`Middleware`] (engine + private history cache) replaying its
//! own trace. Its shared tile cache is its dataset's
//! [`DatasetRegistry`] namespace (one global budget split across the
//! datasets), and with `batch_predicts` it ranks through the dataset's
//! one χ² pair cache ([`PredictScheduler`]). One [`RunConfig`] sets,
//! for every session of a run, the workload shape, the fault schedule,
//! burst scheduling, think time and the cross-session hotspot blend.
//!
//! Two loops drive the same per-session step:
//!
//! - [`run`] steps every session in lockstep round-robin on one thread
//!   (session 0 step 0, session 1 step 0, …, session 0 step 1, …). The
//!   report, fingerprint included, is a function of the inputs alone
//!   (bar the two wall-clock predict percentiles): every A/B leg and
//!   every test replays bit-identically.
//! - [`run_threaded`] gives each session its own OS thread. Which
//!   session installs a shared tile first then depends on the OS
//!   scheduler, so only the lock-contention sweep (`exp_multiuser`)
//!   and its invariant test use it.
//!
//! [`synthetic_workload`] and [`hotspot_workload`] build the scripted
//! traces the drivers replay.

use crate::trace::{Trace, TraceStep};
use fc_core::{
    BatchConfig, BurstConfig, DatasetRegistry, FaultPlan, FetchError, HotspotBlend, HotspotConfig,
    LatencyProfile, Middleware, MultiUserCache, Phase, PredictScheduler, PredictionEngine,
    RegistryConfig, Response, RetryPolicy, SchedulerStats, SharedCacheStats, SharedHotspotModel,
    SharedSessionHandle, SingleMutexTileCache,
};
use fc_tiles::{Geometry, Move, Pyramid, Quadrant, TileId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Which shared-cache implementation the sessions meet in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheImpl {
    /// The retained pre-sharding reference: one global mutex.
    SingleMutex,
    /// The lock-striped cache; `shards` 0 picks the default striping.
    Sharded {
        /// Shard count (power of two, 0 = default).
        shards: usize,
    },
}

/// The workload shape of a run.
#[derive(Debug, Clone)]
pub struct MultiUserConfig {
    /// Sessions per dataset.
    pub sessions: usize,
    /// Serviceable requests each session attempts (its trace repeats
    /// as needed).
    pub steps_per_session: usize,
    /// Global shared-cache budget in tiles, split exactly across the
    /// datasets' namespaces.
    pub cache_capacity: usize,
    /// Shared-cache implementation under test.
    pub cache: CacheImpl,
    /// Whether a dataset's sessions rank through one shared pair cache
    /// (a [`PredictScheduler`]) instead of one each.
    pub batch_predicts: bool,
    /// Per-session prefetch budget k.
    pub k: usize,
    /// Private last-n history cache per session.
    pub history_cache: usize,
    /// Latency profile for hit/miss accounting.
    pub profile: LatencyProfile,
}

impl Default for MultiUserConfig {
    fn default() -> Self {
        Self {
            sessions: 8,
            steps_per_session: 64,
            cache_capacity: 1024,
            cache: CacheImpl::Sharded { shards: 0 },
            batch_predicts: true,
            k: 4,
            history_cache: 4,
            profile: LatencyProfile::paper(),
        }
    }
}

/// A fault schedule every session of a run replays under.
#[derive(Debug, Clone)]
pub struct Faults {
    /// The plan, shared by all sessions; decisions stay deterministic
    /// because the plan keys on each session's own request index.
    pub plan: Arc<FaultPlan>,
    /// Retry/backoff/deadline budget for faulted fetches.
    pub retry: RetryPolicy,
    /// `[from, until)` request-index window the plan's faults cover,
    /// used to bucket the report's phase statistics. Use
    /// `(0, u64::MAX)` for an unwindowed (always-on) plan.
    pub window: (u64, u64),
}

/// One run: the workload shape plus what every session runs under.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Workload shape (sessions, steps, cache, batching, k, …).
    pub base: MultiUserConfig,
    /// The fault schedule; `None` is the fault-free fetch path.
    pub faults: Option<Faults>,
    /// Burst-aware prefetch scheduling (`None` keeps the uniform
    /// per-request budget).
    pub burst: Option<BurstConfig>,
    /// Think-time schedules, parallel to each dataset's traces:
    /// session `i` charges `think[i % think.len()][j]` to its timeline
    /// before step `j` of each pass (the gap stream the burst
    /// classifier sees). Empty = back-to-back replay.
    pub think: Vec<Vec<Duration>>,
    /// The cross-session hotspot model's cadence and the engine-side
    /// blend every session applies (`None` = model off).
    pub hotspots: Option<(HotspotConfig, HotspotBlend)>,
}

/// One dataset of a run: its namespace name, its pyramid, and the
/// traces its sessions replay (session `i` replays
/// `traces[i % traces.len()]`).
pub(crate) type Dataset<'a> = (&'a str, &'a Arc<Pyramid>, &'a [Trace]);

/// Outcome counters for one phase (before/during/after the window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Serviceable requests attempted.
    pub attempts: usize,
    /// Replies produced (clean or degraded).
    pub served: usize,
    /// Cache hits among the served.
    pub hits: usize,
    /// Degraded (ancestor-fallback) replies among the served.
    pub degraded: usize,
    /// Attempts that failed outright (no resident ancestor).
    pub failures: usize,
}

impl PhaseStats {
    /// Hit rate over served replies; zero when nothing was served.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.served)
    }

    fn absorb(&mut self, o: &PhaseStats) {
        self.attempts += o.attempts;
        self.served += o.served;
        self.hits += o.hits;
        self.degraded += o.degraded;
        self.failures += o.failures;
    }
}

/// `n / d`, zero when `d` is.
fn ratio(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// One dataset's namespace at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct NamespaceReport {
    /// Dataset name.
    pub dataset: String,
    /// The namespace's capacity slice of the global budget.
    pub capacity: usize,
    /// High-water mark of resident tiles, sampled after every step of
    /// a lockstep [`run`]. [`run_threaded`] leaves it 0: reading a
    /// sharded cache's size locks every shard, and doing that per
    /// request would contend with the locks the sweep measures.
    pub max_resident: usize,
    /// Replies served to this dataset's sessions.
    pub served: usize,
    /// Cache hits among them (private + shared combined).
    pub hits: usize,
    /// Shared-cache counters of the namespace.
    pub shared: SharedCacheStats,
    /// Scheduler counters when `batch_predicts` was on.
    pub scheduler: Option<SchedulerStats>,
    /// Hotspot-model epoch at the end of the run (0 = model off or
    /// never refreshed).
    pub hotspot_epoch: u64,
}

impl NamespaceReport {
    /// Session-visible hit rate over served replies.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.served)
    }
}

/// Aggregate outcome of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Sessions run, across datasets.
    pub sessions: usize,
    /// Serviceable attempts across sessions.
    pub attempts: usize,
    /// Replies produced (clean + degraded).
    pub served: usize,
    /// Degraded replies among them.
    pub degraded: usize,
    /// Outright failures.
    pub failures: usize,
    /// Backend retries spent on primary fetches.
    pub retries: u64,
    /// Sessions stopped by a panic (must be zero — see
    /// [`crate::assert_invariants`]).
    pub panics: usize,
    /// Attempts before the fault window opened.
    pub before: PhaseStats,
    /// Attempts inside the window (every attempt without faults).
    pub during: PhaseStats,
    /// Attempts after the window closed.
    pub after: PhaseStats,
    /// Non-degraded replies whose phase the allocation strategy gives
    /// an SB slot at the configured budget: the requests that rank SB,
    /// derived from the replies and not from the engine's own counts.
    pub sb_ranked: usize,
    /// Median user-visible latency over served replies (includes
    /// spike charges and retry backoff on the simulated clock).
    pub latency_p50: Duration,
    /// 99th-percentile user-visible latency over served replies.
    pub latency_p99: Duration,
    /// Median wall time of a reply's prediction (includes any wait for
    /// the shared pair cache).
    pub predict_p50: Duration,
    /// 99th-percentile wall time of a reply's prediction.
    pub predict_p99: Duration,
    /// Served requests per traffic phase (burst/dwell/idle), summed
    /// over sessions; all zero unless burst scheduling was on.
    pub per_traffic: [usize; 3],
    /// Speculative tiles fetched across sessions.
    pub prefetch_issued: usize,
    /// Speculative tiles later served as cache hits.
    pub prefetch_used: usize,
    /// Whether burst-aware scheduling was active for this run.
    pub burst_active: bool,
    /// FNV-1a fold of every reply's observable surface in run order
    /// ([`run`]), or of each session's own fold in session order
    /// ([`run_threaded`]).
    pub fingerprint: u64,
    /// One report per dataset, in input order.
    pub namespaces: Vec<NamespaceReport>,
}

impl RunReport {
    /// Cache hits among the served replies.
    pub fn hits(&self) -> usize {
        self.before.hits + self.during.hits + self.after.hits
    }

    /// Session-visible hit rate over served replies.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits(), self.served)
    }

    /// Speculative tiles later served as hits, over those fetched.
    pub fn prefetch_efficiency(&self) -> f64 {
        ratio(self.prefetch_used, self.prefetch_issued)
    }
}

/// A session's position in its trace: the one per-session step both
/// loops (and [`crate::zoo::replay_workload`]) drive. Each call to
/// [`Cursor::step`] issues one trace step. A repeat of the trace starts
/// a fresh navigation arc, so the first step of each pass carries no
/// move; unservable tiles do not count as attempts; and a full pass
/// that attempted nothing ends the replay.
pub(crate) struct Cursor<'a> {
    trace: &'a Trace,
    think: &'a [Duration],
    target: usize,
    next: usize,
    attempts: usize,
    pass_start: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor that attempts `target` requests from `trace`, charging
    /// `think[j]` (when present) before step `j`.
    pub(crate) fn new(trace: &'a Trace, think: &'a [Duration], target: usize) -> Self {
        Self {
            trace,
            think,
            target,
            next: 0,
            attempts: 0,
            pass_start: 0,
        }
    }

    /// Issues the next trace step through `mw` and returns the tile,
    /// the session's fault request index before the request, and what
    /// [`Middleware::try_request`] returned (`Ok(None)` = unservable,
    /// not an attempt); `None` once the session is done.
    pub(crate) fn step(
        &mut self,
        mw: &mut Middleware,
    ) -> Option<(TileId, u64, Result<Option<Response>, FetchError>)> {
        if self.attempts >= self.target {
            return None;
        }
        if self.next == self.trace.steps.len() {
            if self.attempts == self.pass_start {
                return None;
            }
            self.next = 0;
            self.pass_start = self.attempts;
        }
        let j = self.next;
        self.next += 1;
        let step = &self.trace.steps[j];
        let index = mw.fault_request_index();
        if let Some(&d) = self.think.get(j) {
            mw.note_idle(d);
        }
        let mv = if j == 0 { None } else { step.mv };
        let result = mw.try_request(step.tile, mv);
        self.attempts += usize::from(!matches!(result, Ok(None)));
        Some((step.tile, index, result))
    }
}

/// One session of a run.
struct Session<'a> {
    dataset: usize,
    mw: Middleware,
    cursor: Cursor<'a>,
    tally: Tally,
}

/// What one session has seen so far.
#[derive(Default)]
struct Tally {
    /// Attempts before, during and after the fault window.
    phases: [PhaseStats; 3],
    retries: u64,
    sb_ranked: usize,
    max_resident: usize,
    latency_ns: Vec<u64>,
    predict_ns: Vec<u64>,
    panicked: bool,
}

impl Session<'_> {
    /// Issues one step and books it, folding a served reply into `fp`.
    /// Returns whether the session goes on. A panic inside the step is
    /// caught here: the session is marked and stopped, and the run
    /// goes on without it.
    fn advance(&mut self, cfg: &RunConfig, fp: &mut u64) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.book_step(cfg, fp))) {
            Ok(more) => more,
            Err(_) => {
                self.tally.panicked = true;
                false
            }
        }
    }

    fn book_step(&mut self, cfg: &RunConfig, fp: &mut u64) -> bool {
        let Some((tile, index, result)) = self.cursor.step(&mut self.mw) else {
            return false;
        };
        let (from, until) = cfg.faults.as_ref().map_or((0, u64::MAX), |f| f.window);
        let t = &mut self.tally;
        let bucket = &mut t.phases[usize::from(index >= from) + usize::from(index >= until)];
        match result {
            Ok(None) => return true,
            Ok(Some(resp)) => {
                bucket.served += 1;
                bucket.hits += usize::from(resp.cache_hit);
                bucket.degraded += usize::from(resp.degraded);
                t.retries += u64::from(resp.fetch_retries);
                let strategy = self.mw.engine().config().strategy;
                let (_, sb_slots) = strategy.allocate(resp.phase, cfg.base.k);
                t.sb_ranked += usize::from(!resp.degraded && sb_slots > 0);
                t.latency_ns.push(nanos(resp.latency));
                t.predict_ns.push(nanos(resp.predict_time));
                fold_response(fp, tile, &resp);
            }
            Err(_) => bucket.failures += 1,
        }
        bucket.attempts += 1;
        true
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A dataset's shared state for one run.
struct Namespace {
    name: String,
    cache: Arc<dyn MultiUserCache>,
    scheduler: Option<Arc<PredictScheduler>>,
    hotspots: Option<Arc<SharedHotspotModel>>,
}

/// Builds every dataset's namespace and `cfg.base.sessions` sessions
/// per dataset, dataset by dataset, in session order.
fn open<'a, F>(
    datasets: &[Dataset<'a>],
    engine_factory: F,
    cfg: &'a RunConfig,
) -> (Vec<Session<'a>>, Vec<Namespace>)
where
    F: Fn(&Arc<Pyramid>) -> PredictionEngine,
{
    assert!(cfg.base.sessions > 0, "need at least one session");
    assert!(!datasets.is_empty(), "need at least one dataset");
    let registry = DatasetRegistry::new(RegistryConfig {
        budget: cfg.base.cache_capacity,
        shards: match cfg.base.cache {
            CacheImpl::Sharded { shards } => shards,
            CacheImpl::SingleMutex => 0,
        },
        hotspots: cfg.hotspots.map_or_else(HotspotConfig::default, |(h, _)| h),
    });
    let mut sessions = Vec::new();
    let mut namespaces = Vec::new();
    for (d, &(name, pyramid, traces)) in datasets.iter().enumerate() {
        assert!(!traces.is_empty(), "dataset {name} needs traces");
        let ns = registry.attach(name);
        let cache: Arc<dyn MultiUserCache> = match cfg.base.cache {
            CacheImpl::SingleMutex => Arc::new(SingleMutexTileCache::new(ns.cache().capacity())),
            CacheImpl::Sharded { .. } => ns.cache().clone(),
        };
        let hotspots = cfg.hotspots.map(|_| ns.hotspots().clone());
        let engines: Vec<PredictionEngine> = (0..cfg.base.sessions)
            .map(|_| engine_factory(pyramid))
            .collect();
        let scheduler = cfg.base.batch_predicts.then(|| {
            Arc::new(PredictScheduler::new(
                engines[0].sb_model().clone(),
                pyramid.clone(),
                BatchConfig::default(),
            ))
        });
        for (i, mut engine) in engines.into_iter().enumerate() {
            let mut handle = SharedSessionHandle::open(cache.clone(), scheduler.clone());
            if let (Some((_, blend)), Some(model)) = (cfg.hotspots, &hotspots) {
                engine.set_hotspot_blend(Some(blend));
                handle = handle.with_hotspots(model.clone());
            }
            let mut mw = Middleware::new_shared(
                engine,
                pyramid.clone(),
                cfg.base.profile,
                cfg.base.history_cache,
                cfg.base.k,
                handle,
            );
            if let Some(f) = &cfg.faults {
                mw.set_faults(f.plan.clone(), f.retry);
            }
            mw.set_burst(cfg.burst);
            let think = match cfg.think.len() {
                0 => &[][..],
                n => &cfg.think[i % n][..],
            };
            sessions.push(Session {
                dataset: d,
                mw,
                cursor: Cursor::new(&traces[i % traces.len()], think, cfg.base.steps_per_session),
                tally: Tally::default(),
            });
        }
        namespaces.push(Namespace {
            name: name.to_string(),
            cache,
            scheduler,
            hotspots,
        });
    }
    (sessions, namespaces)
}

/// Replays `cfg.base.sessions` analysts on each of `datasets`, every
/// session stepped in lockstep round-robin on the calling thread until
/// each has attempted `steps_per_session` requests (or can make no
/// progress). `engine_factory` builds each session's private
/// prediction engine for its dataset's pyramid. Same inputs ⇒
/// bit-identical report.
pub fn run<'a, F>(datasets: &[Dataset<'a>], engine_factory: F, cfg: &'a RunConfig) -> RunReport
where
    F: Fn(&Arc<Pyramid>) -> PredictionEngine,
{
    let (mut sessions, namespaces) = open(datasets, engine_factory, cfg);
    let mut fp = FNV_OFFSET;
    let mut live: Vec<&mut Session> = sessions.iter_mut().collect();
    while !live.is_empty() {
        live.retain_mut(|s| {
            let more = s.advance(cfg, &mut fp);
            let resident = s.mw.shared().map_or(0, |h| h.cache().len());
            s.tally.max_resident = s.tally.max_resident.max(resident);
            more
        });
    }
    report(sessions, namespaces, cfg, fp)
}

/// [`run`] with every session on its own OS thread, so sessions meet
/// on the shared cache's and pair cache's locks for real. Interleaving
/// follows the OS scheduler: the report is not reproducible, and its
/// fingerprint folds each session's own fold in session order.
pub fn run_threaded<'a, F>(
    datasets: &[Dataset<'a>],
    engine_factory: F,
    cfg: &'a RunConfig,
) -> RunReport
where
    F: Fn(&Arc<Pyramid>) -> PredictionEngine,
{
    let (mut sessions, namespaces) = open(datasets, engine_factory, cfg);
    let folds: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter_mut()
            .map(|s| {
                scope.spawn(move || {
                    let mut fp = FNV_OFFSET;
                    while s.advance(cfg, &mut fp) {}
                    fp
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let mut fp = FNV_OFFSET;
    folds.into_iter().for_each(|v| fnv(&mut fp, v));
    report(sessions, namespaces, cfg, fp)
}

/// Sums the finished sessions into one report. Sessions close (their
/// handles drop) before the namespace counters are read.
fn report(
    sessions: Vec<Session>,
    namespaces: Vec<Namespace>,
    cfg: &RunConfig,
    fingerprint: u64,
) -> RunReport {
    let mut r = RunReport {
        sessions: sessions.len(),
        burst_active: cfg.burst.is_some(),
        fingerprint,
        ..RunReport::default()
    };
    // Per namespace: (max resident, served, hits).
    let mut per_ns = vec![(0usize, 0usize, 0usize); namespaces.len()];
    let mut latency_ns = Vec::new();
    let mut predict_ns = Vec::new();
    for s in sessions {
        let t = s.tally;
        for (sum, p) in [&mut r.before, &mut r.during, &mut r.after]
            .into_iter()
            .zip(&t.phases)
        {
            sum.absorb(p);
        }
        r.retries += t.retries;
        r.sb_ranked += t.sb_ranked;
        r.panics += usize::from(t.panicked);
        let st = s.mw.stats();
        for (sum, n) in r.per_traffic.iter_mut().zip(st.per_traffic) {
            *sum += n;
        }
        r.prefetch_issued += st.prefetch_issued;
        r.prefetch_used += st.prefetch_used;
        let ns = &mut per_ns[s.dataset];
        ns.0 = ns.0.max(t.max_resident);
        ns.1 += t.phases.iter().map(|p| p.served).sum::<usize>();
        ns.2 += t.phases.iter().map(|p| p.hits).sum::<usize>();
        latency_ns.extend(t.latency_ns);
        predict_ns.extend(t.predict_ns);
    }
    let phases = [r.before, r.during, r.after];
    r.attempts = phases.iter().map(|p| p.attempts).sum();
    r.served = phases.iter().map(|p| p.served).sum();
    r.degraded = phases.iter().map(|p| p.degraded).sum();
    r.failures = phases.iter().map(|p| p.failures).sum();
    latency_ns.sort_unstable();
    predict_ns.sort_unstable();
    r.latency_p50 = percentile(&latency_ns, 0.50);
    r.latency_p99 = percentile(&latency_ns, 0.99);
    r.predict_p50 = percentile(&predict_ns, 0.50);
    r.predict_p99 = percentile(&predict_ns, 0.99);
    r.namespaces = namespaces
        .into_iter()
        .zip(per_ns)
        .map(|(ns, (max_resident, served, hits))| NamespaceReport {
            dataset: ns.name,
            capacity: ns.cache.capacity(),
            max_resident,
            served,
            hits,
            shared: ns.cache.stats(),
            scheduler: ns.scheduler.map(|s| s.stats()),
            hotspot_epoch: ns.hotspots.map_or(0, |m| m.epoch()),
        })
        .collect();
    r
}

/// The `p`-quantile (nearest rank) of ascending nanosecond samples;
/// zero when there are none.
fn percentile(sorted_ns: &[u64], p: f64) -> Duration {
    let Some(last) = sorted_ns.len().checked_sub(1) else {
        return Duration::ZERO;
    };
    let idx = ((last as f64) * p).round() as usize;
    Duration::from_nanos(sorted_ns[idx.min(last)])
}

/// The FNV-1a offset basis every replay fingerprint starts from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `v`'s little-endian bytes into the FNV-1a fingerprint `fp`.
fn fnv(fp: &mut u64, v: u64) {
    for byte in v.to_le_bytes() {
        *fp ^= u64::from(byte);
        *fp = fp.wrapping_mul(0x100_0000_01b3);
    }
}

/// Folds one response's observable surface — requested tile, latency,
/// hit flag, traffic phase, prefetched ids — into the FNV-1a
/// fingerprint `fp`. The one fold every replay uses.
pub(crate) fn fold_response(fp: &mut u64, tile: TileId, resp: &Response) {
    let words = |t: TileId| [u64::from(t.level), u64::from(t.y), u64::from(t.x)];
    let mut fold = |v: u64| fnv(fp, v);
    words(tile).into_iter().for_each(&mut fold);
    fold(nanos(resp.latency));
    fold(u64::from(resp.cache_hit));
    fold(resp.traffic.map_or(u64::MAX, |t| t.index() as u64));
    fold(resp.prefetched.len() as u64);
    for &t in &resp.prefetched {
        words(t).into_iter().for_each(&mut fold);
    }
}

/// Builds `sessions` deterministic scripted traces over `geometry`:
/// each session serpentines along its own deepest-level row (panning
/// right, then left after hitting an edge), descending a row at each
/// turn, with a zoom-out/zoom-in excursion every `zoom_every` steps
/// (offset per session). Distinct rows give disjoint working sets;
/// the shared zoom ancestors give communal hotspots; the per-session
/// zoom cadence mixes the ROI workloads.
pub fn synthetic_workload(
    geometry: Geometry,
    sessions: usize,
    steps: usize,
    zoom_every: usize,
) -> Vec<Trace> {
    let level = geometry.levels - 1;
    let (rows, cols) = geometry.tiles_at(level);
    let mut traces = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let mut y = (s as u32 * 7 + 1) % rows;
        let mut x = (s as u32 * 3) % cols;
        let mut dir_right = (s % 2) == 0;
        let mut steps_out = Vec::with_capacity(steps);
        let mut cur = TileId::new(level, y, x);
        steps_out.push(TraceStep {
            tile: cur,
            mv: None,
            phase: Phase::Foraging,
        });
        let cadence = zoom_every.max(2) + s % 3;
        let mut i = 1usize;
        while steps_out.len() < steps {
            if i.is_multiple_of(cadence) && cur.level > 0 {
                // Zoom out to the parent, then back into the same
                // quadrant — a §5.2.2 "verify context" excursion.
                let parent = cur.parent().expect("level > 0");
                steps_out.push(TraceStep {
                    tile: parent,
                    mv: Some(Move::ZoomOut),
                    phase: Phase::Navigation,
                });
                if steps_out.len() >= steps {
                    break;
                }
                let q = Quadrant::ALL
                    .into_iter()
                    .find(|q| q.dy() == cur.y % 2 && q.dx() == cur.x % 2)
                    .expect("quadrant");
                steps_out.push(TraceStep {
                    tile: cur,
                    mv: Some(Move::ZoomIn(q)),
                    phase: Phase::Navigation,
                });
            } else {
                // Serpentine pan.
                if dir_right && x + 1 < cols {
                    x += 1;
                    cur = TileId::new(level, y, x);
                    steps_out.push(TraceStep {
                        tile: cur,
                        mv: Some(Move::PanRight),
                        phase: Phase::Foraging,
                    });
                } else if !dir_right && x > 0 {
                    x -= 1;
                    cur = TileId::new(level, y, x);
                    steps_out.push(TraceStep {
                        tile: cur,
                        mv: Some(Move::PanLeft),
                        phase: Phase::Foraging,
                    });
                } else {
                    dir_right = !dir_right;
                    y = (y + 1) % rows;
                    cur = TileId::new(level, y, x);
                    steps_out.push(TraceStep {
                        tile: cur,
                        mv: Some(Move::PanDown),
                        phase: Phase::Sensemaking,
                    });
                }
            }
            i += 1;
        }
        traces.push(Trace {
            user: s,
            task: s % 3,
            steps: steps_out,
        });
    }
    traces
}

/// Builds `sessions` deterministic traces that converge on a shared
/// set of `attractors` deepest-level tiles — the workload the
/// cross-session hotspot model is built for. Each session walks
/// Manhattan-style toward its current attractor (horizontal first,
/// then vertical), dwells there for a four-step loop, then heads for
/// the next attractor (rotated per session so approaches differ).
/// Momentum-style prediction misses the *turns* of these walks; a
/// popularity prior pulls the prefetch toward the attractor every
/// session keeps revisiting.
pub fn hotspot_workload(
    geometry: Geometry,
    sessions: usize,
    steps: usize,
    attractors: usize,
) -> Vec<Trace> {
    assert!(attractors > 0, "need at least one attractor");
    let level = geometry.levels - 1;
    let (rows, cols) = geometry.tiles_at(level);
    assert!(
        rows >= 3 && cols >= 3,
        "hotspot workload needs an interior at the deepest level"
    );
    // Interior attractor tiles, deterministically spread.
    let targets: Vec<TileId> = (0..attractors)
        .map(|a| {
            let y = 1 + ((a as u32 * 5 + 1) % (rows - 2));
            let x = 1 + ((a as u32 * 7 + 2) % (cols - 2));
            TileId::new(level, y, x)
        })
        .collect();
    let dwell = [Move::PanRight, Move::PanLeft, Move::PanDown, Move::PanUp];
    let mut traces = Vec::with_capacity(sessions);
    for s in 0..sessions {
        let mut cur = TileId::new(level, (s as u32 * 3) % rows, (s as u32 * 11) % cols);
        let mut steps_out = vec![TraceStep {
            tile: cur,
            mv: None,
            phase: Phase::Foraging,
        }];
        let mut next_target = s; // rotated start: approaches differ
        let mut dwell_i = 0usize;
        let mut target = targets[next_target % targets.len()];
        while steps_out.len() < steps {
            let mv = if cur == target && dwell_i < dwell.len() {
                // Dwell loop around the attractor (interior, so every
                // move is legal); ends back on the attractor.
                let pair = dwell[dwell_i];
                dwell_i += 1;
                pair
            } else if cur == target {
                // Dwell done: head for the next attractor.
                dwell_i = 0;
                next_target += 1;
                target = targets[next_target % targets.len()];
                continue;
            } else if cur.x != target.x {
                if cur.x < target.x {
                    Move::PanRight
                } else {
                    Move::PanLeft
                }
            } else if cur.y < target.y {
                Move::PanDown
            } else {
                Move::PanUp
            };
            cur = geometry.apply(cur, mv).expect("legal move");
            steps_out.push(TraceStep {
                tile: cur,
                mv: Some(mv),
                phase: Phase::Foraging,
            });
        }
        traces.push(Trace {
            user: s,
            task: 0,
            steps: steps_out,
        });
    }
    traces
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_array::{DenseArray, Schema};
    use fc_core::engine::PhaseSource;
    use fc_core::signature::SignatureKind;
    use fc_core::{AbRecommender, AllocationStrategy, EngineConfig, SbConfig, SbRecommender};
    use fc_tiles::{PyramidBuilder, PyramidConfig};

    fn pyramid() -> Arc<Pyramid> {
        let schema = Schema::grid2d("G", 128, 128, &["v"]).unwrap();
        let data: Vec<f64> = (0..128 * 128).map(|i| (i % 128) as f64 / 128.0).collect();
        let base = DenseArray::from_vec(schema, data).unwrap();
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

    fn engine(p: &Arc<Pyramid>) -> PredictionEngine {
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
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn synthetic_workload_is_deterministic_and_well_formed() {
        let p = pyramid();
        let g = p.geometry();
        let a = synthetic_workload(g, 4, 40, 8);
        let b = synthetic_workload(g, 4, 40, 8);
        assert_eq!(a, b, "deterministic");
        assert_eq!(a.len(), 4);
        for t in &a {
            assert_eq!(t.steps.len(), 40);
            assert!(t.steps[0].mv.is_none());
            for s in &t.steps {
                assert!(g.contains(s.tile), "in-geometry: {:?}", s.tile);
            }
            // Mixed workload: both pans and zooms appear.
            assert!(t
                .steps
                .iter()
                .any(|s| matches!(s.mv, Some(m) if m.is_pan())));
            assert!(t.steps.iter().any(|s| matches!(s.mv, Some(Move::ZoomOut))));
        }
        // Sessions differ (mixed ROI workloads).
        assert_ne!(a[0].steps, a[1].steps);
    }

    #[test]
    fn concurrent_run_accounts_every_request() {
        let p = pyramid();
        let traces = synthetic_workload(p.geometry(), 4, 30, 6);
        for cache in [CacheImpl::SingleMutex, CacheImpl::Sharded { shards: 4 }] {
            let cfg = RunConfig {
                base: MultiUserConfig {
                    sessions: 4,
                    steps_per_session: 30,
                    cache_capacity: 16,
                    cache,
                    batch_predicts: true,
                    // Past AB's four slots, so SB has one in every phase
                    // and every request ranks through the shared cache.
                    k: 5,
                    ..MultiUserConfig::default()
                },
                ..RunConfig::default()
            };
            let r = run_threaded(&[("g", &p, &traces[..])], engine, &cfg);
            assert_eq!(r.served, 4 * 30, "{cache:?}");
            assert_eq!(r.panics, 0);
            assert!(r.predict_p50 <= r.predict_p99);
            assert!((0.0..=1.0).contains(&r.hit_rate()));
            // Stats balance: every shared-cache probe is a hit or miss.
            let s = r.namespaces[0].shared;
            assert!(s.hits + s.misses > 0);
            assert!(s.cross_session_hits <= s.hits);
            let sched = r.namespaces[0].scheduler.expect("shared pair cache on");
            assert_eq!(sched.jobs, 4 * 30, "one SB rank per request");
        }
    }

    /// The cursor cycles its trace, skips unservable tiles without
    /// counting them, and ends after a pass that attempted nothing.
    #[test]
    fn cursor_cycles_and_skips_unservable_tiles() {
        let p = pyramid();
        let g = p.geometry();
        let outside = TileId::new(g.levels, 0, 0);
        let step = |tile| TraceStep {
            tile,
            mv: None,
            phase: Phase::Foraging,
        };
        let trace = Trace {
            user: 0,
            task: 0,
            steps: vec![step(TileId::ROOT), step(outside)],
        };
        let mut mw = Middleware::new(engine(&p), p.clone(), LatencyProfile::paper(), 4, 0);
        let mut cursor = Cursor::new(&trace, &[], 3);
        let mut issued = Vec::new();
        while let Some((tile, _, result)) = cursor.step(&mut mw) {
            issued.push((tile, matches!(result, Ok(Some(_)))));
        }
        let served = (TileId::ROOT, true);
        let skipped = (outside, false);
        assert_eq!(issued, [served, skipped, served, skipped, served]);
        let dead = Trace {
            user: 0,
            task: 0,
            steps: vec![step(outside)],
        };
        let mut cursor = Cursor::new(&dead, &[], 3);
        assert!(cursor.step(&mut mw).is_some());
        assert!(
            cursor.step(&mut mw).is_none(),
            "a pass with no attempt ends"
        );
    }

    #[test]
    fn hotspot_workload_converges_on_shared_attractors() {
        let p = pyramid();
        let g = p.geometry();
        let a = hotspot_workload(g, 4, 60, 2);
        let b = hotspot_workload(g, 4, 60, 2);
        assert_eq!(a, b, "deterministic");
        assert_eq!(a.len(), 4);
        // Every session visits every attractor (the communal hotspots).
        let level = g.levels - 1;
        let (rows, cols) = g.tiles_at(level);
        let targets: Vec<TileId> = (0..2)
            .map(|i| {
                TileId::new(
                    level,
                    1 + ((i * 5 + 1) % (rows - 2)),
                    1 + ((i * 7 + 2) % (cols - 2)),
                )
            })
            .collect();
        for t in &a {
            assert_eq!(t.steps.len(), 60);
            assert!(t.steps[0].mv.is_none());
            for s in &t.steps {
                assert!(g.contains(s.tile), "in-geometry: {:?}", s.tile);
            }
            for target in &targets {
                assert!(
                    t.steps.iter().any(|s| s.tile == *target),
                    "user {} never reached attractor {target}",
                    t.user
                );
            }
        }
        // Approaches differ across sessions.
        assert_ne!(a[0].steps, a[1].steps);
    }

    #[test]
    fn multi_dataset_run_partitions_budget_and_reports_per_namespace() {
        let (west, east) = (pyramid(), pyramid());
        let traces = hotspot_workload(west.geometry(), 2, 40, 2);
        let datasets = [("west", &west, &traces[..]), ("east", &east, &traces[..])];
        // Pinned per leg: the run's fingerprint, then each namespace's
        // (hits, cross-session hits, hotspot epoch).
        let pins = [
            (1_391_862_381_458_899_717, [(69, 15, 0); 2]),
            (8_852_986_954_812_206_845, [(69, 15, 10); 2]),
        ];
        for (hotspots, (want_fp, want_ns)) in [false, true].into_iter().zip(pins) {
            let cfg = RunConfig {
                base: MultiUserConfig {
                    sessions: 2,
                    steps_per_session: 40,
                    cache_capacity: 64,
                    cache: CacheImpl::Sharded { shards: 1 },
                    batch_predicts: false,
                    // Below the deepest-level candidate count, so the
                    // ranking (and with it the hotspot prior) decides
                    // what gets prefetched.
                    k: 2,
                    ..MultiUserConfig::default()
                },
                hotspots: hotspots.then_some((
                    HotspotConfig {
                        top_n: 4,
                        refresh_every: 8,
                    },
                    HotspotBlend {
                        radius: 6,
                        phases: [true, true, true],
                    },
                )),
                ..RunConfig::default()
            };
            let r = run(&datasets, engine, &cfg);
            assert_eq!(r.served, 2 * 2 * 40, "hotspots={hotspots}");
            let caps: usize = r.namespaces.iter().map(|n| n.capacity).sum();
            assert_eq!(caps, 64, "namespace capacities sum to the budget");
            for n in &r.namespaces {
                assert_eq!(n.served, 2 * 40);
                assert!(n.max_resident <= n.capacity, "{n:?}");
            }
            let got = r.namespaces.iter().map(|n| {
                let s = n.shared;
                (n.hits, s.cross_session_hits, n.hotspot_epoch)
            });
            assert_eq!(
                (r.fingerprint, got.collect::<Vec<_>>()),
                (want_fp, want_ns.to_vec()),
                "hotspots={hotspots}"
            );
        }
    }

    #[test]
    fn sessions_close_after_the_run() {
        let p = pyramid();
        let traces = synthetic_workload(p.geometry(), 2, 10, 5);
        let cfg = RunConfig {
            base: MultiUserConfig {
                sessions: 2,
                steps_per_session: 10,
                cache_capacity: 8,
                batch_predicts: false,
                ..MultiUserConfig::default()
            },
            ..RunConfig::default()
        };
        // The drivers open their own caches; check the handle
        // lifecycle on one directly.
        let cache: Arc<dyn MultiUserCache> = Arc::new(fc_core::SharedTileCache::new(8));
        let h = SharedSessionHandle::open(cache.clone(), None);
        assert_eq!(cache.session_count(), 1);
        drop(h);
        assert_eq!(cache.session_count(), 0);
        let r = run(&[("g", &p, &traces[..])], engine, &cfg);
        assert!(r.namespaces[0].scheduler.is_none());
        assert_eq!(r.served, 20);
    }
}
