//! Multi-user replay: K concurrent simulated analysts over one shared
//! dataset.
//!
//! The paper's evaluation replays one analyst at a time (§5.2.2); the
//! ROADMAP's north star is a backend shared by many. This driver closes
//! the gap: it runs `sessions` OS threads, each a full
//! [`Middleware`] session (engine + private history cache) over one
//! shared pyramid, joined through a [`MultiUserCache`] (the lock-striped
//! [`fc_core::SharedTileCache`] or the retained
//! [`fc_core::SingleMutexTileCache`] reference) and, optionally, one
//! χ² pair cache shared through a [`PredictScheduler`]. Sessions replay *different*
//! traces (mixed pan runs and zoom cadences at distinct rows — mixed
//! ROI workloads), so the shared cache sees both disjoint working sets
//! and communal hotspots.
//!
//! The report aggregates what `exp_multiuser` publishes: wall-clock
//! request throughput, p50/p99 per-request predict latency (including
//! any wait for the shared pair cache), hit rates, shared-cache
//! statistics, and scheduler statistics.

use crate::trace::{Trace, TraceStep};
use fc_core::{
    BatchConfig, DatasetRegistry, HotspotBlend, HotspotConfig, LatencyProfile, Middleware,
    MultiUserCache, Phase, PredictScheduler, PredictionEngine, RegistryConfig, SchedulerStats,
    SharedCacheStats, SharedSessionHandle, SharedTileCache, SingleMutexTileCache,
};
use fc_tiles::{Geometry, Move, Pyramid, Quadrant, TileId};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct MultiUserConfig {
    /// Concurrent sessions (threads).
    pub sessions: usize,
    /// Requests each session replays (its trace repeats as needed).
    pub steps_per_session: usize,
    /// Shared-cache capacity in tiles.
    pub cache_capacity: usize,
    /// Shared-cache implementation under test.
    pub cache: CacheImpl,
    /// Whether sessions rank through one shared pair cache (a
    /// [`PredictScheduler`]) instead of one each.
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

/// Aggregate outcome of one multi-user run.
#[derive(Debug, Clone)]
pub struct MultiUserReport {
    /// Sessions run.
    pub sessions: usize,
    /// Total requests served across sessions.
    pub requests: usize,
    /// Wall-clock time of the concurrent phase.
    pub wall: Duration,
    /// Aggregate served requests (= predicts) per second.
    pub throughput_rps: f64,
    /// Median per-request predict latency.
    pub predict_p50: Duration,
    /// 99th-percentile per-request predict latency.
    pub predict_p99: Duration,
    /// Session-visible cache-hit rate (private + shared combined).
    pub hit_rate: f64,
    /// Shared-cache counters.
    pub shared: SharedCacheStats,
    /// Scheduler counters when `batch_predicts` was on.
    pub scheduler: Option<SchedulerStats>,
}

/// Builds the shared cache named by `cfg`.
pub fn build_cache(cfg: &MultiUserConfig) -> Arc<dyn MultiUserCache> {
    match cfg.cache {
        CacheImpl::SingleMutex => Arc::new(SingleMutexTileCache::new(cfg.cache_capacity)),
        CacheImpl::Sharded { shards: 0 } => Arc::new(SharedTileCache::new(cfg.cache_capacity)),
        CacheImpl::Sharded { shards } => {
            Arc::new(SharedTileCache::with_shards(cfg.cache_capacity, shards))
        }
    }
}

/// Runs `cfg.sessions` concurrent analysts. Session `i` replays
/// `traces[i % traces.len()]`, cycling it until `steps_per_session`
/// requests have been served. `engine_factory` builds each session's
/// private prediction engine (as in `fc-server`).
pub fn run_multi_user<F>(
    pyramid: &Arc<Pyramid>,
    engine_factory: F,
    traces: &[Trace],
    cfg: &MultiUserConfig,
) -> MultiUserReport
where
    F: Fn() -> PredictionEngine + Sync,
{
    assert!(cfg.sessions > 0, "need at least one session");
    assert!(!traces.is_empty(), "need at least one trace");
    let cache = build_cache(cfg);
    let scheduler = cfg.batch_predicts.then(|| {
        Arc::new(PredictScheduler::new(
            engine_factory().sb_model().clone(),
            pyramid.clone(),
            BatchConfig::default(),
        ))
    });

    struct SessionOutcome {
        requests: usize,
        hits: usize,
        predict_ns: Vec<u64>,
    }

    let start = Instant::now();
    let outcomes: Vec<SessionOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|i| {
                let trace = &traces[i % traces.len()];
                let cache = cache.clone();
                let scheduler = scheduler.clone();
                let engine = engine_factory();
                let pyramid = pyramid.clone();
                scope.spawn(move || {
                    let handle = SharedSessionHandle::open(cache, scheduler);
                    let mut mw = Middleware::new_shared(
                        engine,
                        pyramid,
                        cfg.profile,
                        cfg.history_cache,
                        cfg.k,
                        handle,
                    );
                    let mut out = SessionOutcome {
                        requests: 0,
                        hits: 0,
                        predict_ns: Vec::with_capacity(cfg.steps_per_session),
                    };
                    replay_cycled(trace, cfg.steps_per_session, |_, tile, mv| {
                        let Some(resp) = mw.request(tile, mv) else {
                            return false;
                        };
                        out.requests += 1;
                        out.hits += usize::from(resp.cache_hit);
                        out.predict_ns
                            .push(u64::try_from(resp.predict_time.as_nanos()).unwrap_or(u64::MAX));
                        true
                    });
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let wall = start.elapsed();

    let requests: usize = outcomes.iter().map(|o| o.requests).sum();
    let hits: usize = outcomes.iter().map(|o| o.hits).sum();
    let mut all_ns: Vec<u64> = outcomes.into_iter().flat_map(|o| o.predict_ns).collect();
    all_ns.sort_unstable();

    MultiUserReport {
        sessions: cfg.sessions,
        requests,
        wall,
        throughput_rps: if wall.as_secs_f64() > 0.0 {
            requests as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        predict_p50: percentile(&all_ns, 0.50),
        predict_p99: percentile(&all_ns, 0.99),
        hit_rate: if requests == 0 {
            0.0
        } else {
            hits as f64 / requests as f64
        },
        shared: cache.stats(),
        scheduler: scheduler.map(|s| s.stats()),
    }
}

/// Cycles `trace` until `target` requests have counted. A repeat of
/// the trace starts a fresh navigation arc, so the first step of each
/// pass carries no move; a full pass that counted nothing (empty
/// trace, or every tile unservable) can never progress and ends the
/// replay. `request(step index, tile, move)` issues one request and
/// says whether it counted.
pub(crate) fn replay_cycled(
    trace: &Trace,
    target: usize,
    mut request: impl FnMut(usize, TileId, Option<Move>) -> bool,
) {
    let mut counted = 0usize;
    loop {
        let before = counted;
        for (j, step) in trace.steps.iter().enumerate() {
            if counted >= target {
                return;
            }
            let mv = if j == 0 { None } else { step.mv };
            counted += usize::from(request(j, step.tile, mv));
        }
        if counted == before {
            return;
        }
    }
}

/// The `p`-quantile (nearest rank) of ascending nanosecond samples;
/// zero when there are none.
pub(crate) fn percentile(sorted_ns: &[u64], p: f64) -> Duration {
    let Some(last) = sorted_ns.len().checked_sub(1) else {
        return Duration::ZERO;
    };
    let idx = ((last as f64) * p).round() as usize;
    Duration::from_nanos(sorted_ns[idx.min(last)])
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

/// Configuration of the multi-dataset, hotspot-model scenario.
#[derive(Debug, Clone)]
pub struct MultiDatasetConfig {
    /// Concurrent sessions (threads) per dataset.
    pub sessions_per_dataset: usize,
    /// Requests each session replays.
    pub steps_per_session: usize,
    /// Global tile budget, partitioned exactly across the dataset
    /// namespaces by the [`DatasetRegistry`].
    pub global_budget: usize,
    /// Shards per namespace cache (0 = default striping).
    pub shards: usize,
    /// The A/B knob: whether sessions carry their namespace's
    /// cross-session hotspot model and blend its prior.
    pub hotspots: bool,
    /// Model cadence (used when `hotspots` is on).
    pub hotspot_cfg: HotspotConfig,
    /// Engine-side blend (applied to every session's engine when
    /// `hotspots` is on).
    pub blend: HotspotBlend,
    /// Per-session prefetch budget k.
    pub k: usize,
    /// Private last-n history cache per session.
    pub history_cache: usize,
    /// Latency profile for hit/miss accounting.
    pub profile: LatencyProfile,
}

impl Default for MultiDatasetConfig {
    fn default() -> Self {
        Self {
            sessions_per_dataset: 4,
            steps_per_session: 96,
            global_budget: 1024,
            shards: 0,
            hotspots: false,
            hotspot_cfg: HotspotConfig::default(),
            blend: HotspotBlend {
                radius: 6,
                phases: [true, true, true],
            },
            k: 4,
            history_cache: 4,
            profile: LatencyProfile::paper(),
        }
    }
}

/// Per-namespace outcome of a multi-dataset run.
#[derive(Debug, Clone)]
pub struct NamespaceReport {
    /// Dataset name.
    pub dataset: String,
    /// The namespace's capacity slice of the global budget.
    pub capacity: usize,
    /// Requests served by this dataset's sessions.
    pub requests: usize,
    /// Session-visible hit rate (private + shared combined).
    pub hit_rate: f64,
    /// Shared-cache counters of the namespace.
    pub shared: SharedCacheStats,
    /// Hotspot-model epoch at the end of the run (0 = model off or
    /// never refreshed).
    pub hotspot_epoch: u64,
}

/// Aggregate outcome of one multi-dataset run.
#[derive(Debug, Clone)]
pub struct MultiDatasetReport {
    /// Wall-clock time of the concurrent phase.
    pub wall: Duration,
    /// Total requests across all namespaces.
    pub requests: usize,
    /// Aggregate served requests per second.
    pub throughput_rps: f64,
    /// One report per dataset, in input order.
    pub namespaces: Vec<NamespaceReport>,
}

/// Runs `cfg.sessions_per_dataset` concurrent analysts on **each** of
/// `datasets` — one [`DatasetRegistry`] namespace per dataset under
/// one global budget, with the cross-session hotspot model on or off
/// (`cfg.hotspots`). Session `i` of a dataset replays
/// `traces[i % traces.len()]` from that dataset's trace set, cycling
/// until `steps_per_session` requests have been served.
pub fn run_multi_dataset<F>(
    datasets: &[(String, Arc<Pyramid>, Vec<Trace>)],
    engine_factory: F,
    cfg: &MultiDatasetConfig,
) -> MultiDatasetReport
where
    F: Fn(&Arc<Pyramid>) -> PredictionEngine + Sync,
{
    assert!(!datasets.is_empty(), "need at least one dataset");
    assert!(cfg.sessions_per_dataset > 0, "need at least one session");
    let registry = DatasetRegistry::new(RegistryConfig {
        budget: cfg.global_budget,
        shards: cfg.shards,
        hotspots: cfg.hotspot_cfg,
    });
    let namespaces: Vec<_> = datasets
        .iter()
        .map(|(name, _, traces)| {
            assert!(!traces.is_empty(), "dataset {name} needs traces");
            registry.attach(name)
        })
        .collect();

    struct SessionOutcome {
        dataset: usize,
        requests: usize,
        hits: usize,
    }

    let start = Instant::now();
    let outcomes: Vec<SessionOutcome> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (di, (_, pyramid, traces)) in datasets.iter().enumerate() {
            let ns = &namespaces[di];
            for si in 0..cfg.sessions_per_dataset {
                let trace = &traces[si % traces.len()];
                let pyramid = pyramid.clone();
                let ns = ns.clone();
                let engine_factory = &engine_factory;
                handles.push(scope.spawn(move || {
                    let mut engine = engine_factory(&pyramid);
                    if cfg.hotspots {
                        engine.set_hotspot_blend(Some(cfg.blend));
                    }
                    let cache: Arc<dyn MultiUserCache> = ns.cache().clone();
                    let mut handle = SharedSessionHandle::open(cache, None);
                    if cfg.hotspots {
                        handle = handle.with_hotspots(ns.hotspots().clone());
                    }
                    let mut mw = Middleware::new_shared(
                        engine,
                        pyramid,
                        cfg.profile,
                        cfg.history_cache,
                        cfg.k,
                        handle,
                    );
                    let mut out = SessionOutcome {
                        dataset: di,
                        requests: 0,
                        hits: 0,
                    };
                    replay_cycled(trace, cfg.steps_per_session, |_, tile, mv| {
                        let Some(resp) = mw.request(tile, mv) else {
                            return false;
                        };
                        out.requests += 1;
                        out.hits += usize::from(resp.cache_hit);
                        true
                    });
                    out
                }));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });
    let wall = start.elapsed();

    let namespaces: Vec<NamespaceReport> = datasets
        .iter()
        .enumerate()
        .map(|(di, (name, _, _))| {
            let requests: usize = outcomes
                .iter()
                .filter(|o| o.dataset == di)
                .map(|o| o.requests)
                .sum();
            let hits: usize = outcomes
                .iter()
                .filter(|o| o.dataset == di)
                .map(|o| o.hits)
                .sum();
            let ns = registry.get(name).expect("attached");
            NamespaceReport {
                dataset: name.clone(),
                capacity: ns.cache().capacity(),
                requests,
                hit_rate: if requests == 0 {
                    0.0
                } else {
                    hits as f64 / requests as f64
                },
                shared: ns.cache().stats(),
                hotspot_epoch: ns.hotspots().epoch(),
            }
        })
        .collect();
    let requests: usize = namespaces.iter().map(|n| n.requests).sum();

    MultiDatasetReport {
        wall,
        requests,
        throughput_rps: if wall.as_secs_f64() > 0.0 {
            requests as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        namespaces,
    }
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

    fn factory(g: Geometry) -> impl Fn() -> PredictionEngine + Sync {
        move || {
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
        let g = p.geometry();
        let traces = synthetic_workload(g, 4, 30, 6);
        for cache in [CacheImpl::SingleMutex, CacheImpl::Sharded { shards: 4 }] {
            let cfg = MultiUserConfig {
                sessions: 4,
                steps_per_session: 30,
                cache_capacity: 16,
                cache,
                batch_predicts: true,
                // Past AB's four slots, so SB has one in every phase
                // and every request ranks through the shared cache.
                k: 5,
                ..MultiUserConfig::default()
            };
            let r = run_multi_user(&p, factory(g), &traces, &cfg);
            assert_eq!(r.requests, 4 * 30, "{cache:?}");
            assert!(r.throughput_rps > 0.0);
            assert!(r.predict_p50 <= r.predict_p99);
            assert!((0.0..=1.0).contains(&r.hit_rate));
            // Stats balance: every shared-cache probe is a hit or miss.
            let s = r.shared;
            assert!(s.hits + s.misses > 0);
            assert!(s.cross_session_hits <= s.hits);
            let sched = r.scheduler.expect("shared pair cache on");
            assert_eq!(sched.jobs, 4 * 30, "one SB rank per request");
        }
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
        let p1 = pyramid();
        let p2 = pyramid();
        let g = p1.geometry();
        let traces = hotspot_workload(g, 2, 40, 2);
        let datasets = vec![
            ("west".to_string(), p1.clone(), traces.clone()),
            ("east".to_string(), p2, traces),
        ];
        for hotspots in [false, true] {
            let cfg = MultiDatasetConfig {
                sessions_per_dataset: 2,
                steps_per_session: 40,
                global_budget: 64,
                shards: 1,
                hotspots,
                hotspot_cfg: HotspotConfig {
                    top_n: 4,
                    refresh_every: 8,
                },
                ..MultiDatasetConfig::default()
            };
            let r = run_multi_dataset(&datasets, |p| factory(p.geometry())(), &cfg);
            assert_eq!(r.requests, 2 * 2 * 40, "hotspots={hotspots}");
            assert_eq!(r.namespaces.len(), 2);
            let caps: usize = r.namespaces.iter().map(|n| n.capacity).sum();
            assert_eq!(caps, 64, "namespace capacities sum to the budget");
            for n in &r.namespaces {
                assert_eq!(n.requests, 2 * 40);
                assert!((0.0..=1.0).contains(&n.hit_rate));
                assert!(n.shared.hits + n.shared.misses > 0);
                if hotspots {
                    assert!(n.hotspot_epoch > 0, "model must have refreshed: {n:?}");
                } else {
                    assert_eq!(n.hotspot_epoch, 0, "model off ⇒ no epochs");
                }
            }
        }
    }

    #[test]
    fn sessions_close_after_the_run() {
        let p = pyramid();
        let g = p.geometry();
        let traces = synthetic_workload(g, 2, 10, 5);
        let cfg = MultiUserConfig {
            sessions: 2,
            steps_per_session: 10,
            cache_capacity: 8,
            batch_predicts: false,
            ..MultiUserConfig::default()
        };
        let cache = build_cache(&cfg);
        // run_multi_user builds its own cache; emulate one session here
        // to check the handle lifecycle directly.
        {
            let h = SharedSessionHandle::open(cache.clone(), None);
            assert_eq!(cache.session_count(), 1);
            drop(h);
        }
        assert_eq!(cache.session_count(), 0);
        let r = run_multi_user(&p, factory(g), &traces, &cfg);
        assert!(r.scheduler.is_none());
        assert_eq!(r.requests, 20);
    }
}
