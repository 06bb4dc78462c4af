//! The ForeCache middleware: prediction engine + cache manager + backend
//! store, serving tile requests with the paper's latency profile (§3).
//!
//! Per request the middleware:
//! 1. answers from the cache (hit → 19.5 ms) or the backend DBMS
//!    (miss → ~984 ms);
//! 2. records the request with the prediction engine and cache manager;
//! 3. re-evaluates the allocation strategy and prefetches the engine's
//!    top-k tiles into the cache for the *next* request.

use crate::batch::PredictScheduler;
use crate::burst::{BurstConfig, BurstPlanner, Install, Plan, TrafficPhase};
use crate::cache::{CacheManager, CacheStats};
use crate::engine::{PredictOptions, PredictionEngine};
use crate::fault::{FaultKind, FaultPlan, FetchError, RetryPolicy};
use crate::history::Request;
use crate::latency::LatencyProfile;
use crate::multiuser::{
    HotspotSnapshot, HotspotView, MultiUserCache, SessionId, SharedHotspotModel,
};
use crate::paircache::PairCacheStats;
use crate::phase::Phase;
use fc_tiles::{Pyramid, Tile, TileId, TileStore};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The middleware's answer to one tile request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The tile payload.
    pub tile: Arc<Tile>,
    /// User-visible response time for this request.
    pub latency: Duration,
    /// Whether the cache answered.
    pub cache_hit: bool,
    /// The phase the engine inferred for this request.
    pub phase: Phase,
    /// Tiles prefetched after answering (for the next request).
    pub prefetched: Vec<TileId>,
    /// Wall time the prediction-engine call took (includes any wait
    /// for the dataset's shared pair cache) — the quantity
    /// `exp_multiuser` reports percentiles of.
    pub predict_time: Duration,
    /// χ² pair-cache activity of this request's prediction alone
    /// ([`PredictionEngine::last_pair_cache`]): probes of the engine's
    /// private cache or — with a shared scheduler — of the dataset's
    /// shared cache, counted under its lock, so summed over every
    /// session's responses they equal the cache's own totals.
    pub pair_cache: PairCacheStats,
    /// Whether this is a **degraded** reply: the requested tile's fetch
    /// failed within its deadline budget, so the middleware served the
    /// nearest resident ancestor instead (and skipped prediction +
    /// prefetch). Always `false` when no fault plan is attached.
    pub degraded: bool,
    /// Backend retries the primary fetch needed (0 on the fault-free
    /// path and on cache hits).
    pub fetch_retries: u32,
    /// The traffic phase this request was served under (burst / dwell
    /// / idle), classified from the session's inter-request gap.
    /// `None` unless burst-aware scheduling is on
    /// ([`crate::burst::BurstConfig`]).
    pub traffic: Option<TrafficPhase>,
}

/// A session's membership in the multi-user serving layer: its slot in
/// the shared tile cache, plus (optionally) the scheduler whose pair
/// cache it shares with the dataset's other sessions. Dropping the
/// handle closes the session — holds release and the prefetch budget
/// repartitions across the remaining sessions.
pub struct SharedSessionHandle {
    cache: Arc<dyn MultiUserCache>,
    id: SessionId,
    scheduler: Option<Arc<PredictScheduler>>,
    /// The namespace's cross-session hotspot model, when popularity
    /// blending is on for this session.
    hotspots: Option<Arc<SharedHotspotModel>>,
    /// Epoch-cached snapshot view (steady state reads no lock).
    view: HotspotView,
}

impl std::fmt::Debug for SharedSessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSessionHandle")
            .field("id", &self.id)
            .field("batched", &self.scheduler.is_some())
            .field("hotspots", &self.hotspots.is_some())
            .finish()
    }
}

impl SharedSessionHandle {
    /// Opens a session on `cache`, ranking through `scheduler`'s shared
    /// pair cache when one is given.
    pub fn open(cache: Arc<dyn MultiUserCache>, scheduler: Option<Arc<PredictScheduler>>) -> Self {
        let id = cache.open_session();
        Self {
            cache,
            id,
            scheduler,
            hotspots: None,
            view: HotspotView::default(),
        }
    }

    /// Attaches the namespace's cross-session hotspot model: each
    /// request ticks the model's refresh cadence and hands the current
    /// snapshot to the engine as a ranking prior (the engine applies
    /// it only when `EngineConfig::hotspot` opts in).
    pub fn with_hotspots(mut self, model: Arc<SharedHotspotModel>) -> Self {
        self.hotspots = Some(model);
        self
    }

    /// The session's id within the shared cache.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The shared cache this session participates in.
    pub fn cache(&self) -> &Arc<dyn MultiUserCache> {
        &self.cache
    }

    /// Ticks the hotspot model's refresh cadence and returns the
    /// current epoch snapshot (None when blending is off).
    fn hotspot_prior(&mut self) -> Option<Arc<HotspotSnapshot>> {
        let model = self.hotspots.as_ref()?;
        model.observe(self.cache.as_ref());
        Some(self.view.current(model).clone())
    }
}

impl Drop for SharedSessionHandle {
    fn drop(&mut self) {
        self.cache.close_session(self.id);
    }
}

/// Aggregate middleware statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MiddlewareStats {
    /// Requests served.
    pub requests: usize,
    /// Cache hits among them.
    pub hits: usize,
    /// Sum of user-visible latency.
    pub total_latency: Duration,
    /// Requests per phase, indexed by [`Phase::index`].
    pub per_phase: [usize; 3],
    /// Degraded replies served (ancestor fallback after a failed
    /// fetch); these also count in `requests`.
    pub degraded: usize,
    /// Requests that failed outright — fetch error with no resident
    /// ancestor to degrade to. **Not** counted in `requests`.
    pub fetch_failures: usize,
    /// Requests per traffic phase, indexed by
    /// [`TrafficPhase::index`]. All zero unless burst-aware
    /// scheduling is on.
    pub per_traffic: [usize; 3],
    /// Speculative (prefetch) tiles this session fetched from the
    /// backend, over the session. Tracked whether or not burst-aware
    /// scheduling is on — it is the denominator of the
    /// prefetch-efficiency A/B.
    pub prefetch_issued: usize,
    /// Prefetched tiles later served to this session as cache hits —
    /// the *useful* prefetches.
    pub prefetch_used: usize,
}

impl MiddlewareStats {
    /// Average user-visible latency; zero when no requests.
    pub fn avg_latency(&self) -> Duration {
        if self.requests == 0 {
            Duration::ZERO
        } else {
            self.total_latency / u32::try_from(self.requests).unwrap_or(u32::MAX)
        }
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Useful-prefetch ratio in `[0, 1]`: the fraction of speculative
    /// fetches this session later consumed as cache hits. Zero when
    /// nothing was prefetched.
    pub fn prefetch_efficiency(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            self.prefetch_used as f64 / self.prefetch_issued as f64
        }
    }
}

/// The middleware layer for one user session.
pub struct Middleware {
    engine: PredictionEngine,
    cache: CacheManager,
    pyramid: Arc<Pyramid>,
    profile: LatencyProfile,
    /// Prefetch budget k (tiles fetched ahead per request).
    k: usize,
    stats: MiddlewareStats,
    /// Multi-user mode: prefetched tiles go to the shared cache (under
    /// the session's fair budget slice) instead of the private
    /// prefetch set, and predictions may rank through the dataset's
    /// shared pair cache.
    shared: Option<SharedSessionHandle>,
    /// Fault injection (chaos runs only): `None` keeps the fetch path
    /// byte-for-byte the fault-free code.
    faults: Option<FaultInjector>,
    /// Burst-aware prefetch scheduling: `None` (the default) plans
    /// every request with [`Plan::uniform`].
    burst: Option<BurstPlanner>,
    /// Tiles this session prefetched that have not been requested
    /// yet — the outstanding speculation `prefetch_used` is settled
    /// against. Tracked unconditionally (it never changes behavior).
    speculative: HashSet<TileId>,
    /// The last request's full ranked prediction list, captured
    /// *before* the fetch-budget truncation — the server-push
    /// planner's candidate feed ([`Middleware::take_push_candidates`]).
    /// Tracked unconditionally; behavior-inert (no stats, no cache
    /// effect) until something drains it.
    push_candidates: Vec<TileId>,
}

/// The session's attachment to a fault plan: the shared plan, the
/// retry policy the guarded fetch runs under, and the per-session
/// request counter fault decisions are keyed by.
struct FaultInjector {
    plan: Arc<FaultPlan>,
    retry: RetryPolicy,
    /// Serviceable requests seen so far — the `request_index` in the
    /// plan's `(tile, request index, attempt)` decision key, and the
    /// coordinate fault windows are expressed in.
    request_index: u64,
}

/// One request's view of the attached fault plan: the plan, the retry
/// policy, and this request's index.
type FaultCtx = (Arc<FaultPlan>, RetryPolicy, u64);

/// A guarded fetch that gave up, with the simulated time it burned
/// (already charged to the clock) for latency accounting.
struct FailedFetch {
    error: FetchError,
    waited: Duration,
}

impl std::fmt::Debug for Middleware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Middleware")
            .field("k", &self.k)
            .field("stats", &self.stats)
            .finish()
    }
}

impl Middleware {
    /// Creates a middleware session.
    ///
    /// `history_cache` is the number of recently requested tiles kept in
    /// the cache alongside the prefetch set; `k` is the prefetch budget.
    pub fn new(
        engine: PredictionEngine,
        pyramid: Arc<Pyramid>,
        profile: LatencyProfile,
        history_cache: usize,
        k: usize,
    ) -> Self {
        Self {
            engine,
            cache: CacheManager::new(history_cache),
            pyramid,
            profile,
            k,
            stats: MiddlewareStats::default(),
            shared: None,
            faults: None,
            burst: None,
            speculative: HashSet::new(),
            push_candidates: Vec::new(),
        }
    }

    /// Attaches (or detaches) burst-aware prefetch scheduling — the
    /// one way to turn it on. Starts a fresh planner: phase tracker,
    /// session timeline, recent-tile ring and pinned plan all reset.
    pub fn set_burst(&mut self, cfg: Option<BurstConfig>) {
        self.burst = cfg.map(BurstPlanner::new);
    }

    /// The session's current traffic phase (`None` when burst-aware
    /// scheduling is off).
    pub fn traffic_phase(&self) -> Option<TrafficPhase> {
        self.burst.as_ref().map(|b| b.tracker().phase())
    }

    /// Whether the auto sweep detector currently has this session on
    /// the uniform fallback budget (always `false` with burst-aware
    /// scheduling off or [`crate::burst::BurstConfig::auto_window`]
    /// = 0).
    pub fn sweeping(&self) -> bool {
        self.burst.as_ref().is_some_and(|b| b.tracker().sweeping())
    }

    /// Takes the last request's full ranked prediction list (before
    /// the fetch-budget truncation) — the candidate feed for the
    /// server-push planner ([`crate::PushPlanner::refill`]). Empty
    /// until a request has been served, and after each take.
    pub fn take_push_candidates(&mut self) -> Vec<TileId> {
        std::mem::take(&mut self.push_candidates)
    }

    /// Advances the session's burst timeline by `d` of user think
    /// time: the replay harness's way of saying "the analyst sat on
    /// the current view for `d` before the next request". A no-op
    /// when burst-aware scheduling is off.
    pub fn note_idle(&mut self, d: Duration) {
        if let Some(b) = self.burst.as_mut() {
            b.note_idle(d);
        }
    }

    /// Attaches a fault plan: primary fetches run under `retry`
    /// (bounded retries with backoff and a deadline budget, all
    /// charged to the simulated clock) and failures degrade to the
    /// nearest resident ancestor or surface as [`FetchError`] from
    /// [`Middleware::try_request`]. Sessions of one chaos run share
    /// the plan (`Arc`); decisions stay deterministic because they key
    /// on this session's own request counter, not on global state.
    pub fn set_faults(&mut self, plan: Arc<FaultPlan>, retry: RetryPolicy) {
        self.faults = Some(FaultInjector {
            plan,
            retry,
            request_index: 0,
        });
    }

    /// Serviceable requests seen so far under the attached fault plan
    /// — the request-index coordinate fault windows are expressed in.
    /// Zero when no plan is attached.
    pub fn fault_request_index(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.request_index)
    }

    /// Creates a middleware session in multi-user mode: lookups fall
    /// back to the shared tile cache (earning cross-session hits),
    /// prefetched tiles install into it under the session's fair
    /// budget slice, and — when the handle carries a scheduler —
    /// predictions rank through the χ² pair cache every session of
    /// the dataset shares. The private cache still keeps the last
    /// `history_cache` requested tiles, as in single-user mode.
    pub fn new_shared(
        engine: PredictionEngine,
        pyramid: Arc<Pyramid>,
        profile: LatencyProfile,
        history_cache: usize,
        k: usize,
        shared: SharedSessionHandle,
    ) -> Self {
        let mut mw = Self::new(engine, pyramid, profile, history_cache, k);
        mw.shared = Some(shared);
        mw
    }

    /// The session's multi-user membership, when in shared mode.
    pub fn shared(&self) -> Option<&SharedSessionHandle> {
        self.shared.as_ref()
    }

    /// Serves one tile request. The `mv` is the interface move that
    /// produced it (`None` for the session's first request).
    ///
    /// Returns `None` when the tile does not exist in the pyramid.
    /// When a fault plan is attached, a fetch failure with no resident
    /// ancestor also maps to `None` here — callers that need to tell
    /// the two apart use [`Middleware::try_request`].
    pub fn request(&mut self, id: TileId, mv: Option<fc_tiles::Move>) -> Option<Response> {
        self.try_request(id, mv).unwrap_or(None)
    }

    /// Serves one tile request, surfacing fetch failures.
    ///
    /// `Ok(None)` means the tile does not exist in the pyramid (no
    /// side effects); `Err` means the backend fetch failed within its
    /// retry/deadline budget *and* no resident ancestor was available
    /// to degrade to. Without an attached fault plan this never
    /// returns `Err` and behaves exactly like [`Middleware::request`].
    ///
    /// The request runs as four stages that hand one `Plan` forward:
    /// **serve** the tile and record it, **predict** the ranked list
    /// the plan asks the engine for, **plan** what to fetch and pin,
    /// **install** it for the next request. The plan is the burst
    /// planner's when one is attached, else the uniform plan.
    ///
    /// # Errors
    /// [`FetchError`] as above (fault plans only).
    pub fn try_request(
        &mut self,
        id: TileId,
        mv: Option<fc_tiles::Move>,
    ) -> Result<Option<Response>, FetchError> {
        // Unservable ids — outside the geometry, or absent from the
        // backend (both free metadata checks) — return before *any*
        // side effect: no stats, no shared-cache probe, and in
        // particular no popularity-sketch bump that could train the
        // communal hotspot model toward a tile that cannot be served.
        if !self.pyramid.geometry().contains(id) || !self.pyramid.store().contains(id) {
            return Ok(None);
        }
        // Under a fault plan every serviceable request ticks the
        // session's request index — the coordinate fault windows are
        // keyed by — whether it ends in a hit, a miss, or a failure.
        let faults: Option<FaultCtx> = self.faults.as_mut().map(|f| {
            let idx = f.request_index;
            f.request_index += 1;
            (f.plan.clone(), f.retry, idx)
        });
        let mut plan = match self.burst.as_mut() {
            Some(b) => b.begin(self.k),
            None => Plan::uniform(self.k),
        };
        // Settle outstanding speculation: if this tile was one of our
        // prefetches, the request decides whether it was useful (it
        // must still be resident to count).
        let was_speculative = self.speculative.remove(&id);
        let req = Request::new(id, mv);
        let Some(mut resp) = self.serve(req, plan.traffic, faults.as_ref())? else {
            return Ok(None);
        };
        // A degraded reply skips prediction and prefetch: the backend
        // is in no state for speculative I/O.
        if !resp.degraded {
            let start = parking_lot::time::now();
            // The cross-session hotspot prior (when the handle carries
            // a model), read through the epoch-cached view. Every
            // request ticks the model's refresh cadence.
            let prior = self
                .shared
                .as_mut()
                .and_then(SharedSessionHandle::hotspot_prior);
            let prior: &[(TileId, u64)] = prior.as_ref().map_or(&[], |s| s.hotspots.as_slice());
            resp.pair_cache = self.predict(&mut plan, resp.phase, prior);
            self.plan(&mut plan, req, resp.cache_hit && !was_speculative, prior);
            resp.predict_time = parking_lot::time::now().saturating_duration_since(start);
            resp.prefetched = self.install(plan, faults.as_ref());
        }
        self.book(req, &resp, was_speculative);
        Ok(Some(resp))
    }

    /// Stage 1 — serve and record: private cache, then the shared
    /// cache (another session may have prefetched it — the §6.2
    /// sharing benefit), then the backend; then the request is
    /// recorded with the engine and the cache manager. Returns the
    /// reply with its prefetch fields still empty, or `Ok(None)` when
    /// the backend has no such tile (nothing was counted).
    ///
    /// Under a fault plan a fetch that spends its budget climbs the
    /// degradation ladder: the nearest resident ancestor answers as a
    /// flagged degraded reply — the user waited out the failed fetch
    /// (already on the clock), then the ancestor served at cache-hit
    /// cost, booked as a miss for the requested tile. With nothing
    /// resident the request fails cleanly.
    fn serve(
        &mut self,
        req: Request,
        traffic: Option<TrafficPhase>,
        faults: Option<&FaultCtx>,
    ) -> Result<Option<Response>, FetchError> {
        let id = req.tile;
        // The private probe is uncounted: the hit/miss is booked once
        // below, after the whole serve path resolves, so a
        // shared-cache answer counts as a cache hit (not a private
        // miss) and a request the backend cannot serve counts as
        // nothing at all.
        let cache_probe = self.cache.peek(id).or_else(|| {
            let sh = self.shared.as_ref()?;
            sh.cache.lookup(sh.id, id)
        });
        let (mut fetch_retries, mut degraded) = (0u32, false);
        let (tile, latency, cache_hit) = match (cache_probe, faults) {
            (Some(t), _) => {
                self.pyramid.store().clock().advance(self.profile.hit);
                (t, self.profile.hit, true)
            }
            (None, None) => {
                // Backend query; the store charges its own
                // (SciDB-like) latency on the shared clock.
                let Some((t, cost)) = self.pyramid.store().fetch_backend(id) else {
                    return Ok(None);
                };
                (t, cost, false)
            }
            (None, Some((plan, retry, idx))) => {
                match fetch_guarded(self.pyramid.store(), plan, retry, id, *idx) {
                    Ok((t, cost, retries)) => {
                        fetch_retries = retries;
                        (t, cost, false)
                    }
                    Err(fail) => {
                        let Some(ancestor) = self.resident_ancestor(id) else {
                            self.stats.fetch_failures += 1;
                            // The user still waited out the failed
                            // fetch on the session timeline.
                            if let Some(b) = self.burst.as_mut() {
                                b.waited(fail.waited);
                            }
                            return Err(fail.error);
                        };
                        self.pyramid.store().clock().advance(self.profile.hit);
                        let (FetchError::Unavailable { attempts }
                        | FetchError::DeadlineExceeded { attempts }) = fail.error;
                        fetch_retries = attempts.saturating_sub(1);
                        degraded = true;
                        (ancestor, fail.waited + self.profile.hit, false)
                    }
                }
            }
        };
        self.cache.count_lookup(cache_hit);
        self.engine.observe(req);
        self.cache.note_request(tile.clone());
        Ok(Some(Response {
            tile,
            latency,
            cache_hit,
            phase: self.engine.current_phase(),
            prefetched: Vec::new(),
            predict_time: Duration::ZERO,
            pair_cache: PairCacheStats::default(),
            degraded,
            fetch_retries,
            traffic,
        }))
    }

    /// The nearest ancestor of `id` resident in the private or shared
    /// cache — the stale-but-served answer of the degradation ladder.
    fn resident_ancestor(&self, id: TileId) -> Option<Arc<Tile>> {
        let mut cur = id.parent();
        while let Some(a) = cur {
            if let Some(t) = self.cache.peek(a) {
                return Some(t);
            }
            if let Some(sh) = &self.shared {
                if let Some(t) = sh.cache.lookup(sh.id, a) {
                    return Some(t);
                }
            }
            cur = a.parent();
        }
        None
    }

    /// Stage 2 — predict: one engine call for the budget and horizon
    /// the plan names (through the handle's shared scheduler when it
    /// has one, blending `prior` if the engine's config opts in), or
    /// none at all when the plan keeps the engine off. `phase` is the
    /// estimate stage 1 put in the reply: nothing was observed since,
    /// so the engine would classify the same history to the same
    /// answer. Returns the call's own χ² pair-cache activity.
    fn predict(
        &mut self,
        plan: &mut Plan,
        phase: Phase,
        prior: &[(TileId, u64)],
    ) -> PairCacheStats {
        let Some((k, distance)) = plan.engine else {
            return PairCacheStats::default();
        };
        plan.ranked = self.engine.predict_with(
            self.pyramid.store(),
            k,
            PredictOptions {
                phase: Some(phase),
                scheduler: self.shared.as_ref().and_then(|sh| sh.scheduler.as_deref()),
                hotspots: prior,
                distance,
            },
        );
        self.engine.last_pair_cache()
    }

    /// Stage 3 — plan: the burst planner (when attached) settles the
    /// ranked list, the fetch cap and the install mode; the uniform
    /// plan already has all three.
    fn plan(&mut self, plan: &mut Plan, req: Request, organic_hit: bool, prior: &[(TileId, u64)]) {
        // Shared mode: install() keeps at most the session's fair
        // budget slice, so fetching past it would charge backend I/O
        // for tiles the cache immediately discards. The list is ranked
        // best-first; the cap keeps the best.
        let slice = self.shared.as_ref().map(|sh| sh.cache.session_budget());
        let geometry = self.pyramid.geometry();
        if let Some(b) = self.burst.as_mut() {
            b.plan(plan, req, organic_hit, geometry, prior, slice);
        }
        plan.fetch_cap = plan.fetch_cap.min(slice.unwrap_or(usize::MAX));
        // Captured before the fetch cap applies: the push planner
        // wants the whole ranked belief, including tiles already
        // resident (they are exactly the ones a push can ship without
        // new backend I/O).
        self.push_candidates.clear();
        self.push_candidates.extend_from_slice(&plan.ranked);
    }

    /// Stage 4 — install: fetches the plan's non-resident tiles up to
    /// its cap and stages them for the next request. Returns the ids
    /// fetched.
    fn install(&mut self, plan: Plan, faults: Option<&FaultCtx>) -> Vec<TileId> {
        let store = self.pyramid.store();
        let model = store.latency_model();
        let wanted = plan.ranked.iter().copied().filter(|p| {
            !self.cache.contains(*p) && self.shared.as_ref().is_none_or(|sh| !sh.cache.contains(*p))
        });
        // Prefetch I/O happens while the user analyzes the current tile;
        // it costs backend time (accounted on the shared clock) but not
        // user-visible latency.
        let mut ids: Vec<TileId> = Vec::new();
        let mut tiles: Vec<Arc<Tile>> = Vec::new();
        let mut cost = Duration::ZERO;
        for p in wanted.take(plan.fetch_cap) {
            // Prefetches are best-effort under a fault plan: a failed
            // speculative fetch skips the tile (no retries — the budget
            // belongs to foreground requests), a spike only raises its
            // background cost.
            let mut extra = Duration::ZERO;
            if let Some((fault_plan, _, idx)) = faults {
                match fault_plan.decide_prefetch(p, *idx) {
                    Some(FaultKind::Transient | FaultKind::Stuck) => continue,
                    Some(FaultKind::LatencySpike(d)) => extra = d,
                    None => {}
                }
            }
            if let Some(t) = store.fetch_offline(p) {
                cost += model.cost(t.array.nbytes()) + extra;
                ids.push(p);
                tiles.push(t);
            }
        }
        store.clock().advance(cost);
        match (&self.shared, plan.install) {
            // Shared mode: the prefetch set lives in the communal
            // cache (capped at this session's fair budget slice).
            // `hold` covers listed tiles already resident — fetched by
            // this session earlier or by *another* session — so they
            // are protected from eviction until the next request, when
            // `retain_for` re-partitions the hold set to the new list.
            (Some(sh), mode) => {
                sh.cache.install(sh.id, tiles);
                let pinned = match mode {
                    Install::Replace => &plan.ranked[..],
                    Install::Pin(n) => {
                        // Promote local copies first: a just-visited
                        // tile lives only in the private LRU
                        // (foreground misses never install
                        // communally), so the fetch set skips it as
                        // resident and `hold`, which pins communal
                        // residents only, skips it too — the plan
                        // would lose exactly the tiles the analyst
                        // just walked. The `Arc` is in hand: a map
                        // insert, not backend I/O.
                        let pinned = &plan.ranked[..n];
                        let promoted: Vec<Arc<Tile>> = pinned
                            .iter()
                            .filter(|&&t| !sh.cache.contains(t))
                            .filter_map(|&t| self.cache.peek(t))
                            .collect();
                        sh.cache.install(sh.id, promoted);
                        pinned
                    }
                    Install::Keep(_) => return ids,
                };
                sh.cache.hold(sh.id, pinned);
                sh.cache.retain_for(sh.id, pinned);
            }
            (None, Install::Replace) => self.cache.install_prefetch(tiles),
            (None, Install::Pin(n)) => self
                .cache
                .install_prefetch_keeping(tiles, &plan.ranked[..n]),
            (None, Install::Keep(keep)) => {
                if !tiles.is_empty() {
                    self.cache.install_prefetch_keeping(tiles, &keep);
                }
            }
        }
        ids
    }

    /// Books a served reply, clean or degraded, into the session's
    /// statistics and the burst planner's timeline.
    fn book(&mut self, req: Request, resp: &Response, was_speculative: bool) {
        self.stats.requests += 1;
        self.stats.hits += usize::from(resp.cache_hit);
        self.stats.degraded += usize::from(resp.degraded);
        self.stats.total_latency += resp.latency;
        self.stats.per_phase[resp.phase.index()] += 1;
        if let Some(tp) = resp.traffic {
            self.stats.per_traffic[tp.index()] += 1;
        }
        self.stats.prefetch_used += usize::from(was_speculative && resp.cache_hit);
        self.stats.prefetch_issued += resp.prefetched.len();
        self.speculative.extend(resp.prefetched.iter().copied());
        if let Some(b) = self.burst.as_mut() {
            b.served(req, resp.latency);
        }
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> MiddlewareStats {
        self.stats
    }

    /// Cache counters.
    // fc-check: allow(unreferenced-pub) -- accessor that ROADMAP item 3's metrics registry replaces (CacheStats)
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The underlying engine (e.g. to inspect ROI state).
    pub fn engine(&self) -> &PredictionEngine {
        &self.engine
    }

    /// Resets the session (history, ROI, cache, stats). In shared mode
    /// this also releases the session's shared-cache holds (its last
    /// prediction list): holds that outlive the session state would
    /// pin stale tiles against eviction and shrink every other
    /// session's effective capacity until the handle drops.
    pub fn reset_session(&mut self) {
        self.engine.reset_session();
        self.cache.clear();
        if let Some(sh) = &self.shared {
            sh.cache.retain_for(sh.id, &[]);
        }
        self.stats = MiddlewareStats::default();
        self.speculative.clear();
        if let Some(b) = self.burst.as_mut() {
            b.reset();
        }
    }
}

/// The guarded primary fetch: bounded retries with exponential
/// backoff and deterministic jitter, under a per-request deadline
/// budget. Every wait is simulated — charged to the store's shared
/// clock — so chaos runs replay at full speed. Returns the tile, the
/// user-visible cost (backoffs + backend latency + any spike), and
/// the retry count.
fn fetch_guarded(
    store: &TileStore,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    id: TileId,
    request_index: u64,
) -> Result<(Arc<Tile>, Duration, u32), FailedFetch> {
    let max_attempts = retry.max_attempts.max(1);
    let mut consumed = Duration::ZERO;
    let mut attempt = 0u32;
    loop {
        match plan.decide(id, request_index, attempt) {
            None => {
                let Some((t, cost)) = store.fetch_backend(id) else {
                    return Err(FailedFetch {
                        error: FetchError::Unavailable {
                            attempts: attempt + 1,
                        },
                        waited: consumed,
                    });
                };
                return Ok((t, consumed + cost, attempt));
            }
            Some(FaultKind::LatencySpike(extra)) => {
                let Some((t, cost)) = store.fetch_backend(id) else {
                    return Err(FailedFetch {
                        error: FetchError::Unavailable {
                            attempts: attempt + 1,
                        },
                        waited: consumed,
                    });
                };
                store.clock().advance(extra);
                return Ok((t, consumed + cost + extra, attempt));
            }
            Some(FaultKind::Stuck) => {
                // A wedged fetch never returns; the deadline reaps it,
                // consuming whatever budget was left.
                let rem = retry.deadline.saturating_sub(consumed);
                store.clock().advance(rem);
                return Err(FailedFetch {
                    error: FetchError::DeadlineExceeded {
                        attempts: attempt + 1,
                    },
                    waited: retry.deadline,
                });
            }
            Some(FaultKind::Transient) => {
                attempt += 1;
                if attempt >= max_attempts {
                    return Err(FailedFetch {
                        error: FetchError::Unavailable { attempts: attempt },
                        waited: consumed,
                    });
                }
                let backoff = retry.backoff(plan, id, request_index, attempt);
                if consumed + backoff >= retry.deadline {
                    let rem = retry.deadline.saturating_sub(consumed);
                    store.clock().advance(rem);
                    return Err(FailedFetch {
                        error: FetchError::DeadlineExceeded { attempts: attempt },
                        waited: retry.deadline,
                    });
                }
                store.clock().advance(backoff);
                consumed += backoff;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::AbRecommender;
    use crate::alloc::AllocationStrategy;
    use crate::engine::{EngineConfig, PhaseSource};
    use crate::sb::{SbConfig, SbRecommender};
    use crate::signature::SignatureKind;
    use fc_array::{DenseArray, Schema};
    use fc_tiles::{Move, PyramidBuilder, PyramidConfig};

    fn pyramid() -> Arc<Pyramid> {
        let schema = Schema::grid2d("G", 64, 64, &["v"]).unwrap();
        let data: Vec<f64> = (0..64 * 64).map(|i| (i % 64) as f64 / 64.0).collect();
        let base = DenseArray::from_vec(schema, data).unwrap();
        let mut cfg = PyramidConfig::simple(3, 16, &["v"]);
        cfg.latency = fc_array::LatencyModel::scidb_like();
        let p = PyramidBuilder::new().build(&base, &cfg).unwrap();
        // Hist signatures for the SB model.
        for id in p.geometry().all_tiles() {
            let t = p.store().fetch_offline(id).unwrap();
            p.store().put_meta(
                id,
                SignatureKind::Hist1D.meta_name(),
                crate::signature::hist_signature(&t, "v", (0.0, 1.0), 8),
            );
        }
        p.store().reset_io_stats();
        Arc::new(p)
    }

    /// AB-only keeps the prefetch target deterministic for the pan-run
    /// tests (the SB model would chase the synthetic gradient's
    /// vertical stripes instead).
    fn engine(p: &Pyramid) -> PredictionEngine {
        engine_with(p, AllocationStrategy::AbOnly)
    }

    fn engine_with(p: &Pyramid, strategy: AllocationStrategy) -> PredictionEngine {
        let r = Move::PanRight.index() as u16;
        let traces: Vec<Vec<u16>> = vec![vec![r; 12]];
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        PredictionEngine::new(
            p.geometry(),
            AbRecommender::train(refs, 3),
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy,
                ..EngineConfig::default()
            },
        )
    }

    fn middleware(p: Arc<Pyramid>, k: usize) -> Middleware {
        Middleware::new(engine(&p), p, LatencyProfile::paper(), 3, k)
    }

    #[test]
    fn first_request_misses_then_prefetch_hits() {
        let p = pyramid();
        let mut mw = middleware(p.clone(), 4);
        let r1 = mw.request(TileId::new(2, 2, 0), None).unwrap();
        assert!(!r1.cache_hit);
        assert!(r1.latency >= Duration::from_millis(900), "{:?}", r1.latency);
        assert!(!r1.prefetched.is_empty());
        // AB holds every slot and fills them: SB is never ranked.
        assert_eq!(r1.pair_cache, PairCacheStats::default());

        // Pan right repeatedly: the AB model (trained on right-runs)
        // prefetches the continuation, so subsequent requests hit.
        let mut hits = 0;
        for x in 1..=3 {
            let r = mw
                .request(TileId::new(2, 2, x), Some(Move::PanRight))
                .unwrap();
            if r.cache_hit {
                hits += 1;
                assert_eq!(r.latency, LatencyProfile::paper().hit);
            }
        }
        assert!(hits >= 2, "prefetching should produce hits, got {hits}");

        let stats = mw.stats();
        assert_eq!(stats.requests, 4);
        assert!(stats.hit_rate() > 0.0);
        assert!(stats.avg_latency() < Duration::from_millis(984));

        // The same walk with SB holding the slots: the first prediction
        // runs against a cold pair cache, the pan overlap hits it.
        let sb_only = engine_with(&p, AllocationStrategy::SbOnly);
        let mut sb = Middleware::new(sb_only, p, LatencyProfile::paper(), 3, 4);
        let r1 = sb.request(TileId::new(2, 2, 0), None).unwrap();
        assert_eq!(r1.pair_cache.hits, 0);
        assert!(r1.pair_cache.misses > 0, "{:?}", r1.pair_cache);
        let pair_hits: u64 = (1..=3)
            .map(|x| sb.request(TileId::new(2, 2, x), Some(Move::PanRight)))
            .map(|r| r.unwrap().pair_cache.hits)
            .sum();
        assert!(pair_hits > 0, "pan overlap must hit the pair cache");
    }

    #[test]
    fn nonexistent_tile_returns_none() {
        let p = pyramid();
        let mut mw = middleware(p, 2);
        assert!(mw.request(TileId::new(7, 0, 0), None).is_none());
        assert!(mw.request(TileId::new(2, 9, 9), None).is_none());
        assert_eq!(mw.stats().requests, 0);
    }

    #[test]
    fn zero_budget_never_prefetches() {
        let p = pyramid();
        let mut mw = middleware(p, 0);
        let r1 = mw.request(TileId::new(2, 2, 0), None).unwrap();
        assert!(r1.prefetched.is_empty());
        let r2 = mw
            .request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        assert!(!r2.cache_hit, "no prefetching → miss");
        // Except the history cache: re-requesting a recent tile hits.
        let r3 = mw
            .request(TileId::new(2, 2, 0), Some(Move::PanLeft))
            .unwrap();
        assert!(r3.cache_hit, "history cache serves recent tiles");
    }

    #[test]
    fn budget_is_adjustable() {
        let p = pyramid();
        let one = middleware(p.clone(), 1)
            .request(TileId::new(2, 2, 2), None)
            .unwrap();
        assert!(one.prefetched.len() <= 1);
        let eight = middleware(p, 8)
            .request(TileId::new(2, 2, 2), None)
            .unwrap();
        assert!(eight.prefetched.len() > 1);
    }

    /// Work count: a request estimates the phase once — for the reply —
    /// and the predict stage ranks under that estimate instead of
    /// classifying the same history again. A degraded reply still
    /// reports its phase (one estimate) and predicts nothing.
    #[test]
    fn a_request_classifies_its_phase_once() {
        use crate::engine::phases_classified;
        use crate::fault::{FaultRates, FaultWindow};
        let p = pyramid();
        let mut mw = middleware(p, 2);
        let parent = TileId::new(1, 1, 0);
        let before = phases_classified();
        let r = mw.request(parent, None).unwrap();
        assert!(!r.prefetched.is_empty(), "the predict stage ran");
        assert_eq!(phases_classified() - before, 1, "served request");
        // Every fetch from the next request on fails: a child that was
        // not prefetched degrades to its resident parent.
        let (q, child) = fc_tiles::Quadrant::ALL
            .into_iter()
            .zip(parent.children())
            .find(|(_, c)| !r.prefetched.contains(c))
            .unwrap();
        let rates = FaultRates {
            transient_per_mille: 1000,
            transient_first_attempts: u32::MAX,
            ..FaultRates::default()
        };
        let window = FaultWindow {
            from: 0,
            until: u64::MAX,
            rates,
        };
        mw.set_faults(
            Arc::new(FaultPlan::windowed(99, window)),
            RetryPolicy::default(),
        );
        let before = phases_classified();
        let mv = Move::ZoomIn(q);
        let r = mw.try_request(child, Some(mv)).unwrap().unwrap();
        assert!(r.degraded);
        assert_eq!(phases_classified() - before, 1, "degraded reply");
    }

    #[test]
    fn reset_session_clears_state() {
        let p = pyramid();
        let mut mw = middleware(p, 4);
        mw.request(TileId::new(2, 2, 0), None).unwrap();
        mw.reset_session();
        assert_eq!(mw.stats(), MiddlewareStats::default());
        assert!(mw.engine().history().is_empty());
        let r = mw.request(TileId::new(2, 2, 0), None).unwrap();
        assert!(!r.cache_hit, "cache cleared");
    }

    fn shared_middleware(p: Arc<Pyramid>, cache: Arc<dyn MultiUserCache>, k: usize) -> Middleware {
        let handle = SharedSessionHandle::open(cache, None);
        Middleware::new_shared(engine(&p), p, LatencyProfile::paper(), 3, k, handle)
    }

    /// Regression (reset-session hold leak): before the fix,
    /// `reset_session` never touched the shared cache, so the
    /// session's holds from its last prediction list pinned stale
    /// tiles against eviction forever (until the handle dropped),
    /// making *other* sessions' unheld tiles the preferred victims.
    #[test]
    fn reset_session_releases_shared_holds() {
        use crate::multiuser::SharedTileCache;
        let p = pyramid();
        let cache: Arc<dyn MultiUserCache> = Arc::new(SharedTileCache::with_shards(2, 1));
        let mut mw = shared_middleware(p.clone(), cache.clone(), 2);
        mw.request(TileId::new(2, 2, 0), None).unwrap();
        let stale: Vec<TileId> = cache.popular(usize::MAX).iter().map(|&(t, _)| t).collect();
        assert_eq!(stale.len(), 2, "both prefetches installed and held");
        mw.reset_session();
        // Session B: install f1, release it, install f2. Eviction
        // prefers unheld tiles — if A's reset leaked its holds, the
        // just-released f1 is the only unheld resident and gets
        // evicted in favour of A's stale tiles; with the fix the stale
        // tiles are unheld and older, so they are the victims.
        let b = cache.open_session();
        let (f1, f2) = (TileId::new(2, 0, 0), TileId::new(2, 0, 1));
        let store = p.store();
        cache.install(b, vec![store.fetch_offline(f1).unwrap()]);
        cache.retain_for(b, &[]);
        cache.install(b, vec![store.fetch_offline(f2).unwrap()]);
        assert!(
            cache.contains(f1),
            "f1 must survive: reset released A's holds, so A's stale tiles evict first"
        );
        assert!(cache.contains(f2));
        for id in stale {
            assert!(!cache.contains(id), "stale tile {id} must have evicted");
        }
    }

    /// Regression (shared-hit accounting skew): a shared-cache hit
    /// used to be booked as a *miss* in the private CacheManager, so
    /// `cache_stats().hit_rate()` contradicted `stats().hit_rate()`.
    #[test]
    fn shared_hit_counts_once_and_consistently() {
        use crate::multiuser::SharedTileCache;
        let p = pyramid();
        let cache: Arc<dyn MultiUserCache> = Arc::new(SharedTileCache::with_shards(64, 1));
        // Session A walks right; its prefetches are communal.
        let mut a = shared_middleware(p.clone(), cache.clone(), 4);
        a.request(TileId::new(2, 2, 0), None).unwrap();
        let ra = a
            .request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        assert!(ra.cache_hit, "A rides its own prefetch");
        // Session B requests a tile A prefetched: private miss, shared
        // hit — one *hit* in both counters, zero misses.
        let mut b = shared_middleware(p, cache.clone(), 4);
        let rb = b.request(TileId::new(2, 2, 1), None).unwrap();
        assert!(rb.cache_hit, "B rides A's communal prefetch");
        let cs = b.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 0), "shared hit booked as a hit");
        assert!(
            (b.cache_stats().hit_rate() - b.stats().hit_rate()).abs() < 1e-12,
            "cache_stats {:?} must agree with stats {:?}",
            b.cache_stats(),
            b.stats()
        );
        assert!(cache.stats().cross_session_hits > 0);
    }

    /// Each response reports the pair-cache probes of its own
    /// prediction only: two sessions on two threads, one shared
    /// ranker, and the responses sum to the shared cache's totals.
    /// (Counters read around the engine call, outside the lock, also
    /// pick up whatever the other session probed meanwhile.)
    #[test]
    fn shared_pair_cache_counts_are_the_requests_own() {
        use crate::batch::{BatchConfig, PredictScheduler};
        use crate::multiuser::SharedTileCache;
        let p = pyramid();
        let cache: Arc<dyn MultiUserCache> = Arc::new(SharedTileCache::with_shards(64, 1));
        let sched = Arc::new(PredictScheduler::new(
            engine(&p).sb_model().clone(),
            p.clone(),
            BatchConfig::default(),
        ));
        const STEPS: u32 = 4;
        let walk = |row: u32| {
            let handle = SharedSessionHandle::open(cache.clone(), Some(sched.clone()));
            let mut mw = Middleware::new_shared(
                engine_with(&p, AllocationStrategy::SbOnly),
                p.clone(),
                LatencyProfile::paper(),
                3,
                2,
                handle,
            );
            let (mut hits, mut misses) = (0, 0);
            for _lap in 0..8 {
                for x in 0..STEPS {
                    let mv = (x > 0).then_some(Move::PanRight);
                    let r = mw.request(TileId::new(2, row, x), mv).unwrap();
                    hits += r.pair_cache.hits;
                    misses += r.pair_cache.misses;
                }
            }
            (hits, misses)
        };
        let ((h1, m1), (h2, m2)) = std::thread::scope(|scope| {
            let other = scope.spawn(|| walk(2));
            (walk(1), other.join().unwrap())
        });
        let total = sched.pair_cache_stats();
        assert_eq!((h1 + h2, m1 + m2), (total.hits, total.misses));
        assert!(total.hits > 0 && total.misses > 0, "{total:?}");
        assert_eq!(sched.stats().jobs, u64::from(2 * 8 * STEPS));
    }

    /// Regression (dangling miss counter): a request the backend
    /// cannot serve used to charge a private-cache miss before
    /// returning `None`.
    #[test]
    fn unserved_request_counts_nothing() {
        use fc_array::{IoMode, LatencyModel, SimClock};
        use fc_tiles::{Geometry, TileStore};
        // A store that covers the geometry only partially: the root
        // exists, its children don't.
        let g = Geometry::new(2, 32, 32, 16, 16);
        let store = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
        let schema = Schema::grid2d("T", 16, 16, &["v"]).unwrap();
        store.put_tile(fc_tiles::Tile::new(
            TileId::ROOT,
            DenseArray::filled(schema, 0.5),
        ));
        let p = Arc::new(Pyramid::from_parts(g, store));
        let mut mw = middleware(p, 2);
        assert!(mw.request(TileId::new(1, 0, 0), None).is_none());
        let cs = mw.cache_stats();
        assert_eq!(
            (cs.hits, cs.misses),
            (0, 0),
            "unserved request must leave the counters untouched: {cs:?}"
        );
        assert_eq!(mw.stats().requests, 0);
        // A servable tile still counts normally afterwards.
        assert!(mw.request(TileId::ROOT, None).is_some());
        assert_eq!(mw.cache_stats().misses, 1);
    }

    /// The hotspot prior flows handle → middleware → engine: with the
    /// blend opted in, a popular off-path tile redirects the prefetch.
    #[test]
    fn hotspot_model_redirects_shared_prefetch() {
        use crate::alloc::HotspotBlend;
        use crate::multiuser::{HotspotConfig, SharedHotspotModel, SharedTileCache};
        let p = pyramid();
        let cache = Arc::new(SharedTileCache::with_shards(64, 1));
        // top_n 1: only the genuinely hammered tile qualifies, so the
        // walk's own install/lookup bumps can't dilute the prior.
        let model = Arc::new(SharedHotspotModel::new(HotspotConfig {
            top_n: 1,
            refresh_every: 1,
        }));
        // Another session has hammered the tile *below* the walk.
        let hot_tile = TileId::new(2, 3, 1);
        let other = cache.open_session();
        for _ in 0..50 {
            let _ = MultiUserCache::lookup(cache.as_ref(), other, hot_tile);
        }
        let build = |blend: Option<HotspotBlend>| {
            let mut engine = engine(&p);
            engine.set_hotspot_blend(blend);
            let cache: Arc<dyn MultiUserCache> = cache.clone();
            let handle = SharedSessionHandle::open(cache, None).with_hotspots(model.clone());
            Middleware::new_shared(engine, p.clone(), LatencyProfile::paper(), 3, 1, handle)
        };
        // Blend off: k=1 prefetch follows the AB continuation (right).
        let mut off = build(None);
        let r_off = off
            .request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        assert_eq!(r_off.prefetched, vec![TileId::new(2, 2, 2)]);
        // Blend on: the communal hotspot pulls the single prefetch
        // slot toward it instead.
        let mut on = build(Some(HotspotBlend {
            radius: 8,
            phases: [true, true, true],
        }));
        let r_on = on
            .request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        assert_eq!(r_on.prefetched.len(), 1);
        let target = r_on.prefetched[0];
        assert!(
            target.manhattan(&hot_tile) < TileId::new(2, 2, 1).manhattan(&hot_tile),
            "prefetch {target} must approach the hotspot {hot_tile}"
        );
    }

    #[test]
    fn phase_counts_accumulate() {
        let p = pyramid();
        let mut mw = middleware(p, 4);
        mw.request(TileId::new(1, 0, 0), None).unwrap();
        mw.request(TileId::new(1, 0, 1), Some(Move::PanRight))
            .unwrap();
        mw.request(TileId::new(1, 0, 0), Some(Move::PanLeft))
            .unwrap();
        let total: usize = mw.stats().per_phase.iter().sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn burst_scheduler_spends_counter_cyclically() {
        use crate::burst::{BurstConfig, TrafficPhase};
        let p = pyramid();
        let mut mw = middleware(p, 4);
        mw.set_burst(Some(BurstConfig::default()));
        assert_eq!(mw.traffic_phase(), Some(TrafficPhase::Burst));

        // Back-to-back requests land inside the burst-enter threshold:
        // reactive-only — the engine stays off, and the only
        // speculation is the momentum lookahead along the confirmed
        // pan (one tile, no move on r1 means none at all).
        let r1 = mw.request(TileId::new(2, 2, 0), None).unwrap();
        let r2 = mw
            .request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        assert_eq!(r1.traffic, Some(TrafficPhase::Burst));
        assert_eq!(r2.traffic, Some(TrafficPhase::Burst));
        assert!(r1.prefetched.is_empty(), "no move, no momentum");
        assert_eq!(
            r2.prefetched,
            vec![TileId::new(2, 2, 2)],
            "mid-burst speculation is the momentum lookahead only"
        );

        // A one-second pause exits the burst; the dwell deep run
        // speculates along the pan direction.
        mw.note_idle(Duration::from_secs(1));
        let r3 = mw
            .request(TileId::new(2, 2, 2), Some(Move::PanRight))
            .unwrap();
        assert_eq!(r3.traffic, Some(TrafficPhase::Dwell));
        assert!(
            !r3.prefetched.is_empty(),
            "dwell must spend speculative budget"
        );

        // A 40 s pause goes idle: keep-warm trickle caps speculation.
        mw.note_idle(Duration::from_secs(40));
        let r4 = mw
            .request(TileId::new(2, 2, 3), Some(Move::PanRight))
            .unwrap();
        assert_eq!(r4.traffic, Some(TrafficPhase::Idle));
        assert!(
            r4.prefetched.len() <= 1,
            "idle trickle exceeded: {:?}",
            r4.prefetched
        );
        // The dwell run predicted the pan continuation, so the request
        // after the pause is a useful prefetch.
        assert!(r4.cache_hit, "dwell deep run should cover the pan run");

        let s = mw.stats();
        assert_eq!(s.per_traffic, [2, 1, 1]);
        assert_eq!(s.per_traffic.iter().sum::<usize>(), s.requests);
        assert!(s.prefetch_issued >= r3.prefetched.len());
        assert!(s.prefetch_used >= 1);
        let eff = s.prefetch_efficiency();
        assert!(eff > 0.0 && eff <= 1.0, "{eff}");
    }

    /// Regression (self-hotspot rider): the communal sketch counts the
    /// session's own lookups, so the tile being requested can top the
    /// hotspot prior. It used to take a rider slot of the dwell plan —
    /// promoted into the shared cache and pinned there.
    #[test]
    fn dwell_hotspot_rider_skips_the_requested_tile() {
        use crate::burst::{BurstConfig, TrafficPhase};
        use crate::multiuser::{HotspotConfig, SharedHotspotModel, SharedTileCache};
        let p = pyramid();
        let cache = Arc::new(SharedTileCache::with_shards(64, 1));
        let model = Arc::new(SharedHotspotModel::new(HotspotConfig {
            top_n: 1,
            refresh_every: 1,
        }));
        let hot = TileId::new(2, 2, 1);
        let other = cache.open_session();
        for _ in 0..50 {
            let _ = MultiUserCache::lookup(cache.as_ref(), other, hot);
        }
        let mut mw = shared_middleware(p, cache.clone(), 4);
        mw.shared = mw.shared.take().map(|h| h.with_hotspots(model));
        mw.set_burst(Some(BurstConfig::default()));
        mw.request(TileId::new(2, 2, 0), None).unwrap();
        mw.note_idle(Duration::from_secs(1));
        let r = mw.request(hot, Some(Move::PanRight)).unwrap();
        assert_eq!(r.traffic, Some(TrafficPhase::Dwell));
        assert!(!r.cache_hit);
        assert!(
            !mw.take_push_candidates().contains(&hot),
            "the requested tile must not ride its own dwell plan"
        );
        assert!(
            !cache.contains(hot),
            "a foreground miss must not be promoted and pinned as a rider"
        );
    }

    #[test]
    fn momentum_off_keeps_bursts_fully_reactive() {
        use crate::burst::{BurstConfig, TrafficPhase};
        let p = pyramid();
        let mut mw = middleware(p, 4);
        mw.set_burst(Some(BurstConfig {
            momentum: false,
            ..BurstConfig::default()
        }));
        mw.request(TileId::new(2, 2, 0), None).unwrap();
        let r = mw
            .request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        assert_eq!(r.traffic, Some(TrafficPhase::Burst));
        assert!(r.prefetched.is_empty(), "no lookahead with momentum off");
        assert_eq!(mw.stats().prefetch_issued, 0);
    }

    #[test]
    fn sweep_fallback_restores_uniform_speculation() {
        use crate::burst::{BurstConfig, TrafficPhase};
        let p = pyramid();
        let mut mw = middleware(p, 4);
        mw.set_burst(Some(BurstConfig {
            auto_window: 8,
            ..BurstConfig::default()
        }));
        // A serpentine sweep over the deepest level's 4×4 grid,
        // back-to-back (every gap inside the burst band).
        let serp: Vec<(TileId, Option<Move>)> = {
            let mut walk = vec![(TileId::new(2, 0, 0), None)];
            for row in 0..4u32 {
                let (cols, mv): (Vec<u32>, Move) = if row % 2 == 0 {
                    ((1..4).collect(), Move::PanRight)
                } else {
                    ((0..3).rev().collect(), Move::PanLeft)
                };
                for c in cols {
                    walk.push((TileId::new(2, row, c), Some(mv)));
                }
                if row < 3 {
                    let x = walk.last().unwrap().0.x;
                    walk.push((TileId::new(2, row + 1, x), Some(Move::PanDown)));
                }
            }
            walk
        };
        for &(id, mv) in &serp {
            mw.request(id, mv).unwrap();
        }
        assert!(
            mw.sweeping(),
            "a pause-free sweep must trip the auto fallback"
        );
        assert_eq!(mw.traffic_phase(), Some(TrafficPhase::Burst));
        // Second lap, still sweeping: a mid-row pan is served with
        // the uniform budget — the model speculates again (a reactive
        // burst would fetch at most the single momentum tile; sweep
        // mode hands the full `k` back to the engine).
        mw.request(TileId::new(2, 0, 0), None).unwrap();
        let r = mw
            .request(TileId::new(2, 0, 1), Some(Move::PanRight))
            .unwrap();
        assert_eq!(r.traffic, Some(TrafficPhase::Burst));
        assert!(mw.sweeping());
        assert!(
            !r.prefetched.is_empty(),
            "sweep fallback must restore uniform speculation"
        );
    }

    #[test]
    fn burst_off_tracks_efficiency_but_not_traffic() {
        let p = pyramid();
        let mut mw = middleware(p, 4);
        let r1 = mw.request(TileId::new(2, 2, 0), None).unwrap();
        assert!(r1.traffic.is_none());
        mw.request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        let s = mw.stats();
        assert_eq!(s.per_traffic, [0, 0, 0]);
        // Prefetch-efficiency accounting runs unconditionally — it is
        // the denominator of the scheduler on/off A/B.
        assert!(s.prefetch_issued > 0);
    }

    #[test]
    fn burst_reset_session_restarts_the_tracker() {
        use crate::burst::{BurstConfig, TrafficPhase};
        let p = pyramid();
        let mut mw = middleware(p, 4);
        mw.set_burst(Some(BurstConfig::default()));
        mw.request(TileId::new(2, 2, 0), None).unwrap();
        mw.note_idle(Duration::from_secs(40));
        mw.request(TileId::new(2, 2, 1), Some(Move::PanRight))
            .unwrap();
        assert_eq!(mw.traffic_phase(), Some(TrafficPhase::Idle));
        mw.reset_session();
        // Fresh session: tracker back to its initial phase, no stale
        // speculative bookkeeping.
        assert_eq!(mw.traffic_phase(), Some(TrafficPhase::Burst));
        assert_eq!(mw.stats().prefetch_issued, 0);
        let r = mw.request(TileId::new(2, 2, 0), None).unwrap();
        assert_eq!(r.traffic, Some(TrafficPhase::Burst));
    }

    /// Two requests of a distance-3 engine with a budget of 72 on a
    /// 341-tile pyramid, private cache: the first plan installs 72
    /// fetches, the second the part of its 72 that the first left
    /// non-resident. Returns what the install stage decides — the ids
    /// fetched, in ranked order, per request — and what it charges:
    /// the backend clock, the session's and the cache's counters.
    fn bulk_install(
        faults: Option<FaultPlan>,
    ) -> ([Vec<String>; 2], Duration, MiddlewareStats, CacheStats) {
        let schema = Schema::grid2d("G", 256, 256, &["v"]).unwrap();
        let data: Vec<f64> = (0..256 * 256).map(|i| (i % 256) as f64 / 256.0).collect();
        let base = DenseArray::from_vec(schema, data).unwrap();
        let mut cfg = PyramidConfig::simple(5, 16, &["v"]);
        cfg.latency = fc_array::LatencyModel::scidb_like();
        let p = Arc::new(PyramidBuilder::new().build(&base, &cfg).unwrap());
        let r = Move::PanRight.index() as u16;
        let engine = PredictionEngine::new(
            p.geometry(),
            AbRecommender::train([&[r; 12][..]], 3),
            SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy: AllocationStrategy::AbOnly,
                distance: 3,
                ..EngineConfig::default()
            },
        );
        let mut mw = Middleware::new(engine, p.clone(), LatencyProfile::paper(), 3, 72);
        if let Some(plan) = faults {
            mw.set_faults(Arc::new(plan), RetryPolicy::default());
        }
        let fetched = [
            (TileId::new(3, 4, 3), None),
            (TileId::new(3, 4, 4), Some(Move::PanRight)),
        ]
        .map(|(id, mv)| {
            let served = mw.request(id, mv).unwrap();
            let ids = served.prefetched.iter();
            ids.map(|t| format!("{}.{}.{}", t.level, t.y, t.x))
                .collect()
        });
        (
            fetched,
            p.store().clock().now(),
            mw.stats(),
            mw.cache_stats(),
        )
    }

    /// One miss, then a hit on a tile the first plan installed.
    fn bulk_stats(prefetch_issued: usize) -> MiddlewareStats {
        MiddlewareStats {
            requests: 2,
            hits: 1,
            total_latency: Duration::from_nanos(999_531_380),
            per_phase: [1, 0, 1],
            prefetch_issued,
            prefetch_used: 1,
            ..MiddlewareStats::default()
        }
    }

    fn bulk_cache(prefetched: usize) -> CacheStats {
        CacheStats {
            hits: 1,
            misses: 1,
            prefetched,
        }
    }

    fn ids(list: &str) -> Vec<String> {
        list.split(' ').map(String::from).collect()
    }

    /// The install stage pinned by value on a plan of 72 fetches — past
    /// every size threshold the stage ever had.
    #[test]
    fn bulk_install_is_pinned_by_value() {
        let (fetched, clock, stats, cache) = bulk_install(None);
        assert_eq!(fetched[0].len(), 72);
        assert_eq!(
            fetched[0],
            ids(
                "3.4.4 2.2.1 3.3.3 3.4.2 3.5.3 4.8.6 4.8.7 4.9.6 4.9.7 3.4.5 \
                 2.2.2 3.3.4 3.5.4 4.8.8 4.9.8 4.8.9 4.9.9 1.1.0 2.1.1 2.2.0 \
                 2.3.1 3.2.3 3.3.2 3.4.1 3.5.2 3.6.3 4.6.6 4.6.7 4.7.6 4.7.7 \
                 4.8.4 4.8.5 4.9.4 4.9.5 4.10.6 4.10.7 4.11.6 4.11.7 3.4.6 2.2.3 \
                 3.3.5 3.5.5 4.8.10 4.8.11 4.9.10 4.9.11 1.1.1 2.1.2 2.3.2 3.2.4 \
                 3.6.4 4.6.8 4.7.8 4.10.8 4.11.8 4.6.9 4.7.9 4.10.9 4.11.9 0.0.0 \
                 1.0.0 2.0.1 2.1.0 2.3.0 3.1.3 3.2.2 3.3.1 3.4.0 3.5.0 3.5.1 \
                 3.6.2 3.7.2"
            )
        );
        assert_eq!(
            fetched[1],
            ids(
                "3.4.7 3.3.6 3.5.6 4.8.12 4.9.12 3.2.5 3.6.5 4.6.10 4.6.11 4.7.10 \
                 4.7.11 4.10.10 4.10.11 4.11.10 4.11.11 2.1.3 2.3.3 3.5.7 1.0.1 \
                 2.0.2 3.1.4 3.7.4 3.7.5 4.4.8"
            )
        );
        assert_eq!(clock, Duration::from_nanos(95_082_526_580));
        assert_eq!(stats, bulk_stats(96));
        assert_eq!(cache, bulk_cache(96));
    }

    /// The same two requests under a fault plan that skips some
    /// prefetches (transient, stuck) and spikes others: skipped tiles
    /// leave the list without reordering it and stay candidates for the
    /// next plan, spikes are charged to the clock.
    #[test]
    fn bulk_install_under_faults_is_pinned_by_value() {
        use crate::fault::FaultRates;
        let rates = FaultRates {
            transient_per_mille: 150,
            spike_per_mille: 200,
            spike: Duration::from_millis(250),
            stuck_per_mille: 50,
            ..FaultRates::default()
        };
        let (fetched, clock, stats, cache) = bulk_install(Some(FaultPlan::new(7, rates)));
        assert_eq!(
            fetched[0],
            ids(
                "3.4.4 2.2.1 3.3.3 3.4.2 3.5.3 4.8.6 4.9.6 4.9.7 3.4.5 2.2.2 \
                 3.3.4 3.5.4 4.8.8 4.9.8 4.8.9 4.9.9 1.1.0 2.1.1 2.2.0 3.2.3 \
                 3.6.3 4.6.6 4.6.7 4.7.6 4.7.7 4.8.4 4.9.4 4.9.5 4.10.6 4.10.7 \
                 4.11.6 4.11.7 3.4.6 4.8.10 4.9.10 4.9.11 2.1.2 2.3.2 3.2.4 3.6.4 \
                 4.6.8 4.7.8 4.11.8 4.6.9 4.10.9 4.11.9 0.0.0 1.0.0 2.0.1 2.1.0 \
                 2.3.0 3.2.2 3.3.1 3.4.0 3.5.0 3.5.1 3.6.2 3.7.2"
            )
        );
        assert_eq!(
            fetched[1],
            ids(
                "3.4.7 3.3.5 3.5.5 4.8.11 4.7.9 4.8.7 4.10.8 3.3.6 3.5.6 4.8.12 \
                 3.2.5 3.6.5 4.6.10 4.6.11 4.7.11 4.10.10 4.10.11 4.11.10 4.11.11 \
                 2.1.3 2.3.3 3.5.7 2.0.2 2.3.1 3.1.4 3.3.2 3.4.1 3.5.2 3.7.4 \
                 4.4.8"
            )
        );
        assert_eq!(clock, Duration::from_nanos(90_242_276_980));
        assert_eq!(stats, bulk_stats(88));
        assert_eq!(cache, bulk_cache(88));
    }
}
