//! The multi-session replay driver: K simulated analysts over one or
//! more shared datasets.
//!
//! The paper's evaluation replays one analyst at a time (§5.2.2); the
//! ROADMAP's north star is a backend shared by many. The driver reads
//! the server's own [`ServerConfig`] and opens every session the way a
//! Hello does: one [`MultiUserServing::registry`] per run, one
//! namespace per dataset, and [`ServerConfig::open_session`] per
//! session, so a session here is the [`Middleware`] the server would
//! build — its private engine and history cache, its dataset's shared
//! tile cache, and its dataset's one χ² pair table
//! (`fc_core::paircache`, "Sharing"). [`RunConfig`] adds only the
//! workload shape: session and step counts, think time, and the fault
//! window the report's phases bucket by.
//!
//! [`run`] steps every session in lockstep round-robin on one thread
//! (session 0 step 0, session 1 step 0, …, session 0 step 1, …), the
//! way the server's one reactor thread interleaves its sessions. The
//! report, fingerprint included, is a function of the inputs alone:
//! every A/B leg and every test replays bit-identically.
//!
//! [`synthetic_workload`] and [`hotspot_workload`] build the scripted
//! traces the driver replays.

use crate::trace::{Trace, TraceStep};
use fc_core::paircache::PairCacheStats;
use fc_core::{
    DatasetNamespace, FetchError, Middleware, MiddlewareStats, MultiUserCache, Phase,
    PredictionEngine, Response, SbRecommender, SharedCacheStats,
};
use fc_server::{MultiUserServing, ServerConfig};
use fc_tiles::{Geometry, Move, Pyramid, Quadrant, TileId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// One run: the serving config every session opens under, and the
/// workload shape.
///
/// Of [`Self::serving`] the driver reads what a session is built from
/// — `profile`, `history_cache`, `default_k` (every session's prefetch
/// budget, as a Hello that leaves `prefetch_k` at 0), `multi_user`
/// (required: the driver replays shared-cache sessions), `faults` and
/// `burst`. There are no sockets, so `limits` and `reactor` go unread.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The server config every session opens under.
    pub serving: ServerConfig,
    /// Sessions per dataset.
    pub sessions: usize,
    /// Serviceable requests each session attempts (its trace repeats
    /// as needed).
    pub steps_per_session: usize,
    /// Think-time schedules, parallel to each dataset's traces:
    /// session `i` charges `think[i % think.len()][j]` to its timeline
    /// before step `j` of each pass (the gap stream the burst
    /// classifier sees). Empty = back-to-back replay.
    pub think: Vec<Vec<Duration>>,
    /// `[from, until)` request-index window of `serving.faults`' plan,
    /// used to bucket the report's phase statistics; `(0, u64::MAX)`
    /// (the default) for an unwindowed plan or none.
    pub fault_window: (u64, u64),
}

impl Default for RunConfig {
    /// 8 sessions of 64 steps over a 1,024-tile shared cache, k 4,
    /// and the server's defaults otherwise (history 4, the paper's
    /// latency profile).
    fn default() -> Self {
        Self {
            serving: ServerConfig {
                default_k: 4,
                multi_user: Some(MultiUserServing {
                    cache_capacity: 1024,
                    ..MultiUserServing::default()
                }),
                ..ServerConfig::default()
            },
            sessions: 8,
            steps_per_session: 64,
            think: Vec::new(),
            fault_window: (0, u64::MAX),
        }
    }
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
    /// High-water mark of resident tiles, sampled after every step.
    pub max_resident: usize,
    /// Replies served to this dataset's sessions.
    pub served: usize,
    /// Cache hits among them (private + shared combined).
    pub hits: usize,
    /// Shared-cache counters of the namespace.
    pub shared: SharedCacheStats,
    /// χ² pair probes the dataset's replies report
    /// (`Response::pair_cache`, hits plus misses), summed.
    pub pair_probes: u64,
    /// What the dataset's shared χ² pair table counted over the run.
    /// Its probes equal `pair_probes` while no other run ranks over the
    /// same pyramid at the same time.
    pub pair_table: PairCacheStats,
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
    /// Each session's middleware counters at the end of the run, in
    /// session order (dataset by dataset): what a `GetStats` would
    /// answer it.
    pub session_stats: Vec<MiddlewareStats>,
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
    /// Served requests per traffic phase (burst/dwell/idle), summed
    /// over sessions; all zero unless burst scheduling was on.
    pub per_traffic: [usize; 3],
    /// Speculative tiles fetched across sessions.
    pub prefetch_issued: usize,
    /// Speculative tiles later served as cache hits.
    pub prefetch_used: usize,
    /// Whether burst-aware scheduling was active for this run.
    pub burst_active: bool,
    /// FNV-1a fold of every reply's observable surface in run order.
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

/// A session's position in its trace: the one per-session step [`run`]
/// (and [`crate::zoo::replay_workload`]) drives. Each call to
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
    pair_probes: u64,
    max_resident: usize,
    latency_ns: Vec<u64>,
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
        let (from, until) = cfg.fault_window;
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
                let (_, sb_slots) = strategy.allocate(resp.phase, cfg.serving.default_k);
                t.sb_ranked += usize::from(!resp.degraded && sb_slots > 0);
                t.pair_probes += resp.pair_cache.hits + resp.pair_cache.misses;
                t.latency_ns.push(nanos(resp.latency));
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
    namespace: Arc<DatasetNamespace>,
    /// The dataset's pyramid and SB model, and its pair table's
    /// counters when the run opened.
    pyramid: Arc<Pyramid>,
    sb: SbRecommender,
    pair_table: PairCacheStats,
}

impl Namespace {
    /// The counters of the dataset's shared pair table now.
    fn pair_table(&self) -> PairCacheStats {
        let index = self.pyramid.store().signature_index();
        index
            .and_then(|ix| self.sb.pair_table(&ix))
            .map_or_else(PairCacheStats::default, |(stats, _)| stats)
    }
}

/// Builds every dataset's namespace and `cfg.sessions` sessions per
/// dataset, dataset by dataset, in session order, through the
/// server's registry and session recipe.
fn open<'a, F>(
    datasets: &[Dataset<'a>],
    engine_factory: F,
    cfg: &'a RunConfig,
) -> (Vec<Session<'a>>, Vec<Namespace>)
where
    F: Fn(&Arc<Pyramid>) -> PredictionEngine,
{
    assert!(cfg.sessions > 0, "need at least one session");
    assert!(!datasets.is_empty(), "need at least one dataset");
    let registry = cfg
        .serving
        .multi_user
        .as_ref()
        .expect("the driver replays shared-cache sessions: set `serving.multi_user`")
        .registry();
    let mut sessions = Vec::new();
    let mut namespaces = Vec::new();
    for (d, &(name, pyramid, traces)) in datasets.iter().enumerate() {
        assert!(!traces.is_empty(), "dataset {name} needs traces");
        let ns = registry.attach(name);
        let engines: Vec<PredictionEngine> =
            (0..cfg.sessions).map(|_| engine_factory(pyramid)).collect();
        let mut namespace = Namespace {
            name: name.to_string(),
            namespace: ns.clone(),
            pyramid: pyramid.clone(),
            sb: engines[0].sb_model().clone(),
            pair_table: PairCacheStats::default(),
        };
        namespace.pair_table = namespace.pair_table();
        for (i, engine) in engines.into_iter().enumerate() {
            let think = match cfg.think.len() {
                0 => &[][..],
                n => &cfg.think[i % n][..],
            };
            sessions.push(Session {
                dataset: d,
                mw: cfg
                    .serving
                    .open_session(engine, pyramid.clone(), Some(&ns), 0),
                cursor: Cursor::new(&traces[i % traces.len()], think, cfg.steps_per_session),
                tally: Tally::default(),
            });
        }
        namespaces.push(namespace);
    }
    (sessions, namespaces)
}

/// Replays `cfg.sessions` analysts on each of `datasets`, every
/// session stepped in lockstep round-robin on the calling thread until
/// each has attempted `steps_per_session` requests (or can make no
/// progress). `engine_factory` builds each session's private
/// prediction engine for its dataset's pyramid, as a server's
/// [`fc_server::EngineFactory`] does: an engine that blends the
/// hotspot prior (`EngineConfig::hotspot`) comes from it. Same inputs
/// ⇒ bit-identical report.
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

/// Sums the finished sessions into one report. Sessions close (their
/// handles drop) before the namespace counters are read.
fn report(
    sessions: Vec<Session>,
    namespaces: Vec<Namespace>,
    cfg: &RunConfig,
    fingerprint: u64,
) -> RunReport {
    let mut r = RunReport {
        burst_active: cfg.serving.burst.is_some(),
        fingerprint,
        ..RunReport::default()
    };
    // Per namespace: (max resident, served, hits, pair probes).
    let mut per_ns = vec![(0usize, 0usize, 0usize, 0u64); namespaces.len()];
    let mut latency_ns = Vec::new();
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
        r.session_stats.push(st);
        for (sum, n) in r.per_traffic.iter_mut().zip(st.per_traffic) {
            *sum += n;
        }
        r.prefetch_issued += st.prefetch_issued;
        r.prefetch_used += st.prefetch_used;
        let ns = &mut per_ns[s.dataset];
        ns.0 = ns.0.max(t.max_resident);
        ns.1 += t.phases.iter().map(|p| p.served).sum::<usize>();
        ns.2 += t.phases.iter().map(|p| p.hits).sum::<usize>();
        ns.3 += t.pair_probes;
        latency_ns.extend(t.latency_ns);
    }
    let phases = [r.before, r.during, r.after];
    r.attempts = phases.iter().map(|p| p.attempts).sum();
    r.served = phases.iter().map(|p| p.served).sum();
    r.degraded = phases.iter().map(|p| p.degraded).sum();
    r.failures = phases.iter().map(|p| p.failures).sum();
    latency_ns.sort_unstable();
    r.latency_p50 = percentile(&latency_ns, 0.50);
    r.latency_p99 = percentile(&latency_ns, 0.99);
    r.namespaces = namespaces
        .into_iter()
        .zip(per_ns)
        .map(
            |(ns, (max_resident, served, hits, pair_probes))| NamespaceReport {
                capacity: ns.namespace.cache().capacity(),
                max_resident,
                served,
                hits,
                shared: ns.namespace.cache().stats(),
                pair_probes,
                pair_table: ns.pair_table().since(ns.pair_table),
                hotspot_epoch: ns.namespace.hotspots().epoch(),
                dataset: ns.name,
            },
        )
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
    use fc_core::{
        AbRecommender, AllocationStrategy, EngineConfig, HotspotBlend, HotspotConfig,
        LatencyProfile, SbConfig, SbRecommender, SharedSessionHandle,
    };
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

    /// A run of `sessions` × `steps` over a shared cache of `capacity`
    /// tiles in `shards` shards at prefetch budget `k`.
    fn config(
        sessions: usize,
        steps: usize,
        capacity: usize,
        shards: usize,
        k: usize,
    ) -> RunConfig {
        let d = RunConfig::default();
        RunConfig {
            serving: ServerConfig {
                default_k: k,
                multi_user: Some(MultiUserServing {
                    cache_capacity: capacity,
                    shards,
                    hotspots: None,
                }),
                ..d.serving
            },
            sessions,
            steps_per_session: steps,
            ..d
        }
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
        // k = 5: past AB's four slots, so SB has one in every phase
        // and every request ranks through the shared table.
        let cfg = config(4, 30, 16, 4, 5);
        let r = run(&[("g", &p, &traces[..])], engine, &cfg);
        assert_eq!(r.served, 4 * 30);
        assert_eq!(r.panics, 0);
        assert!((0.0..=1.0).contains(&r.hit_rate()));
        // Stats balance: every shared-cache probe is a hit or miss.
        let s = r.namespaces[0].shared;
        assert!(s.hits + s.misses > 0);
        assert!(s.cross_session_hits <= s.hits);
        assert_eq!(r.sb_ranked, 4 * 30, "one SB rank per request");
        let ns = &r.namespaces[0];
        let table = ns.pair_table.hits + ns.pair_table.misses;
        assert!(ns.pair_probes > 0 && table == ns.pair_probes, "{ns:?}");
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
            // k = 2: below the deepest-level candidate count, so the
            // ranking (and with it the hotspot prior) decides what
            // gets prefetched.
            let mut cfg = config(2, 40, 64, 1, 2);
            if let Some(mu) = cfg.serving.multi_user.as_mut() {
                mu.hotspots = hotspots.then_some(HotspotConfig {
                    top_n: 4,
                    refresh_every: 8,
                });
            }
            // The model feeds every session's handle; the engines
            // blend its prior.
            let blend = hotspots.then_some(HotspotBlend {
                radius: 6,
                phases: [true, true, true],
            });
            let blended = |p: &Arc<Pyramid>| {
                let mut e = engine(p);
                e.set_hotspot_blend(blend);
                e
            };
            let r = run(&datasets, blended, &cfg);
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
        let cfg = config(2, 10, 8, 0, 4);
        // The driver opens its own caches; check the handle
        // lifecycle on one directly.
        let cache: Arc<dyn MultiUserCache> = Arc::new(fc_core::SharedTileCache::new(8));
        let h = SharedSessionHandle::open(cache.clone(), None);
        assert_eq!(cache.session_count(), 1);
        drop(h);
        assert_eq!(cache.session_count(), 0);
        let r = run(&[("g", &p, &traces[..])], engine, &cfg);
        assert_eq!(r.served, 20);
    }
}
