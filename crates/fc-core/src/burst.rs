//! Burst-aware traffic-phase classification and the counter-cyclical
//! prefetch planner.
//!
//! Real exploration traffic does not arrive at the uniform cadence the
//! paper's replay harness uses: requests come in **bursts** (a pan
//! sprint, a zoom dive) separated by **dwell** (the analyst studies
//! what just rendered) and, eventually, **idle** (they walked away).
//! The xearthlayer tile-prefetch design doc makes the same observation
//! for flight-simulator scenery — "loading occurs in bursts, followed
//! by quiet periods" — and prescribes the counter-cyclical policy this
//! module implements: stay out of the way while the user is actively
//! loading, and spend the speculative budget in the quiet windows.
//!
//! [`BurstTracker`] is a three-state Schmitt trigger over the
//! inter-request gaps of one session's timeline. Each boundary has two
//! thresholds (an *enter* and an *exit* gap), so a gap inside the
//! hysteresis band keeps the current phase: a single hesitation
//! mid-sprint cannot flap burst→dwell→burst, and a single quick
//! double-request during analysis cannot flap the other way. The
//! classification is a pure function of the gap sequence — same trace,
//! same phases, on any host and at any SIMD dispatch level.
//!
//! `BurstPlanner` is where every prefetch decision is made once a
//! session has a scheduler (`Middleware::set_burst`, fed by the
//! server's `ServerConfig::burst` — the only way in). It owns the
//! tracker, the session timeline, the recent-tile ring, the previous
//! move and the last pinned plan. The middleware calls it twice per
//! request: `begin` classifies the request and says where the ranked
//! list comes from, `plan` turns that list into the `Plan` the install
//! stage executes. Without a planner every request gets
//! `Plan::uniform` — the paper's fixed budget `k`.
//!
//! [`BurstConfig`] carries what callers vary: the four gap thresholds,
//! and the two refinements that close the policy's blind spot,
//! pause-free sweeps with no quiet window to spend a budget in
//! (momentum lookahead; the auto sweep fallback to the uniform plan).
//! The per-phase budget policy is constants: the values every
//! `workload_zoo` row of `BENCH_multiuser.json` was measured at
//! (`exp_multiuser` part 3: 4 sessions × 256 steps, 64-tile cache in 4
//! shards, k = 4, seed 77), which no caller ever changed:
//!
//! | constant | value | role, and the zoo evidence for it |
//! |---|---|---|
//! | `BURST_BUDGET` | 0 | burst is reactive-only, prefetch I/O never competes with the user's own misses: sprint issues 1167 → 103 fetches, efficiency 0.078 → 0.748 |
//! | `DWELL_BOOST` | 2 | dwell fetch budget `2k`: a pause is when the backend is free |
//! | `DWELL_DISTANCE` | 2 | engine candidate horizon during dwell |
//! | `DWELL_DEPTH` | 8 | steps a live pan run is extrapolated: a zoo sprint leg is 4–9 pans |
//! | `DWELL_KEEP_WARM` | 8 | recent tiles a dwell or idle plan re-pins: revisit-loop hit rate 0.943 → 0.979 |
//! | `DWELL_HOTSPOTS` | 2 | communal hotspot riders per dwell plan (the zoo runs without a hotspot model) |
//! | `IDLE_TRICKLE` | 1 | re-fetches per idle request |
//!
//! Burst-off is golden-pinned to the pre-scheduler middleware, and
//! burst-on to per-workload zoo fingerprints, in
//! `fc-sim/tests/golden_burst.rs`.

use crate::history::Request;
use fc_tiles::{Geometry, TileId};
use std::collections::VecDeque;
use std::time::Duration;

/// One session's traffic phase, classified from inter-request gaps.
///
/// Distinct from the *analysis* phase ([`crate::Phase`]): that one
/// describes what the analyst is doing with the data (foraging /
/// navigation / sensemaking); this one describes how their requests
/// arrive in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficPhase {
    /// Requests arriving back-to-back (a pan sprint, a zoom dive).
    Burst,
    /// The analyst is studying the current view; the next burst is
    /// seconds away — the window deep speculation pays off in.
    Dwell,
    /// The session has gone quiet for a long stretch.
    Idle,
}

impl TrafficPhase {
    /// Stable index (0, 1, 2) for stats arrays.
    pub fn index(self) -> usize {
        match self {
            TrafficPhase::Burst => 0,
            TrafficPhase::Dwell => 1,
            TrafficPhase::Idle => 2,
        }
    }
}

/// Thresholds of the phase state machine, plus the two sweep
/// refinements. The per-phase budget policy is fixed (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstConfig {
    /// A gap at or below this (re-)enters **burst** from any phase.
    pub burst_enter: Duration,
    /// A gap above this leaves **burst**; gaps in
    /// `(burst_enter, burst_exit]` are the hysteresis band and keep
    /// the current phase.
    pub burst_exit: Duration,
    /// A gap below this leaves **idle**; gaps in
    /// `[idle_exit, idle_enter)` keep the current phase.
    pub idle_exit: Duration,
    /// A gap at or above this enters **idle** from any phase.
    pub idle_enter: Duration,
    /// Burst-phase momentum prefetch: a 1-deep same-direction
    /// lookahead on every burst-paced pan. It consults no model (one
    /// geometry step, one fetch), so it is nearly free even on the
    /// reactive path — and it is the one speculation that pays on
    /// pause-free sweeps, where every request continues the current
    /// pan run.
    pub momentum: bool,
    /// Sliding window (in requests) of the *auto* sweep detector; 0
    /// disables auto mode. The detector watches the classified phase
    /// of the last `auto_window` requests and, when burst occupancy
    /// crosses [`BurstConfig::auto_enter_per_mille`], declares the
    /// session **sweeping** — traffic with essentially no quiet
    /// windows, where the counter-cyclical schedule has nothing to
    /// spend its budget in and the right policy is the uniform
    /// per-request budget.
    pub auto_window: usize,
    /// Burst occupancy (per mille of the window) at or above which
    /// auto mode enters sweep fallback. Integer per-mille keeps the
    /// config `Eq`/hashable and the detector exact.
    pub auto_enter_per_mille: u32,
    /// Burst occupancy (per mille) below which sweep fallback exits.
    /// The `[auto_exit, auto_enter)` band is hysteresis: bursty
    /// workloads that hover near their worst-case occupancy cannot
    /// flap the budget policy request-to-request.
    pub auto_exit_per_mille: u32,
}

// The fixed budget policy (module docs have the table).
const BURST_BUDGET: usize = 0;
const DWELL_BOOST: usize = 2;
const DWELL_DISTANCE: usize = 2;
const DWELL_DEPTH: usize = 8;
const DWELL_HOTSPOTS: usize = 2;
const DWELL_KEEP_WARM: usize = 8;
const IDLE_TRICKLE: usize = 1;
/// Cap on the planner's recent-tile ring. Bounds the bookkeeping, not
/// the plan: a plan takes `DWELL_KEEP_WARM` of it.
const RECENT_RING: usize = 32;

impl Default for BurstConfig {
    fn default() -> Self {
        Self {
            burst_enter: Duration::from_millis(200),
            burst_exit: Duration::from_millis(500),
            idle_exit: Duration::from_secs(10),
            idle_enter: Duration::from_secs(30),
            momentum: true,
            // Defaults calibrated against the workload zoo: the
            // bursty-pan-sprint's worst sustained window is 29/32
            // burst (906 ‰) — the enter threshold sits above it, so
            // genuinely bursty traffic can never trip the fallback —
            // while serpentine sweeps run 30/32 (937 ‰) and cross it
            // within two rows.
            auto_window: 32,
            auto_enter_per_mille: 925,
            auto_exit_per_mille: 850,
        }
    }
}

impl BurstConfig {
    /// Whether the four thresholds are consistently ordered
    /// (`burst_enter ≤ burst_exit ≤ idle_exit ≤ idle_enter`). The
    /// tracker asserts this at construction: a crossed band would make
    /// one gap qualify for two phases at once.
    pub(crate) fn thresholds_ordered(&self) -> bool {
        self.burst_enter <= self.burst_exit
            && self.burst_exit <= self.idle_exit
            && self.idle_exit <= self.idle_enter
            && self.auto_exit_per_mille <= self.auto_enter_per_mille
            && self.auto_enter_per_mille <= 1000
    }

    /// The speculative fetch budget for one request: the
    /// counter-cyclical schedule applied to the session's configured
    /// budget `k` — none while bursting, `2k` during dwell, a one-tile
    /// trickle when idle.
    pub(crate) fn speculative_budget(&self, phase: TrafficPhase, k: usize) -> usize {
        match phase {
            TrafficPhase::Burst => BURST_BUDGET,
            TrafficPhase::Dwell => k.saturating_mul(DWELL_BOOST),
            TrafficPhase::Idle => IDLE_TRICKLE.min(k),
        }
    }
}

/// The deterministic three-state hysteresis classifier. Feed it each
/// request's gap since the previous request ([`BurstTracker::observe`])
/// and read the phase it settles on.
#[derive(Debug, Clone)]
pub struct BurstTracker {
    cfg: BurstConfig,
    phase: TrafficPhase,
    /// Ring of `phase == Burst` verdicts for the last
    /// `cfg.auto_window` requests (empty when auto mode is off).
    window: VecDeque<bool>,
    bursts_in_window: usize,
    sweeping: bool,
}

impl BurstTracker {
    /// A tracker in its initial state. A session's first request opens
    /// a loading burst (there is no gap to classify yet), so the
    /// tracker starts in [`TrafficPhase::Burst`].
    ///
    /// # Panics
    /// If the config's thresholds are not ordered
    /// (`BurstConfig::thresholds_ordered`).
    pub fn new(cfg: BurstConfig) -> Self {
        assert!(
            cfg.thresholds_ordered(),
            "burst thresholds must be ordered: {cfg:?}"
        );
        Self {
            cfg,
            phase: TrafficPhase::Burst,
            window: VecDeque::with_capacity(cfg.auto_window),
            bursts_in_window: 0,
            sweeping: false,
        }
    }

    /// Classifies one request. `gap` is the time since the previous
    /// request on this session's timeline (`None` for the first
    /// request, which keeps the initial phase). Returns the phase the
    /// request is served under.
    pub fn observe(&mut self, gap: Option<Duration>) -> TrafficPhase {
        if let Some(gap) = gap {
            let cfg = &self.cfg;
            let next = match self.phase {
                TrafficPhase::Burst => {
                    if gap <= cfg.burst_exit {
                        TrafficPhase::Burst
                    } else if gap >= cfg.idle_enter {
                        TrafficPhase::Idle
                    } else {
                        TrafficPhase::Dwell
                    }
                }
                TrafficPhase::Dwell => {
                    if gap <= cfg.burst_enter {
                        TrafficPhase::Burst
                    } else if gap >= cfg.idle_enter {
                        TrafficPhase::Idle
                    } else {
                        TrafficPhase::Dwell
                    }
                }
                TrafficPhase::Idle => {
                    if gap >= cfg.idle_exit {
                        TrafficPhase::Idle
                    } else if gap <= cfg.burst_enter {
                        TrafficPhase::Burst
                    } else {
                        TrafficPhase::Dwell
                    }
                }
            };
            self.phase = next;
        }
        self.note_phase_for_sweep();
        self.phase
    }

    /// Feeds this request's verdict into the auto sweep window and
    /// updates the sweep Schmitt trigger. Occupancy is compared in
    /// integer per-mille-scaled units (`bursts × 1000` vs
    /// `threshold × window`), so the detector is exact and
    /// host-independent.
    fn note_phase_for_sweep(&mut self) {
        let cap = self.cfg.auto_window;
        if cap == 0 {
            return;
        }
        let is_burst = self.phase == TrafficPhase::Burst;
        self.window.push_back(is_burst);
        self.bursts_in_window += is_burst as usize;
        if self.window.len() > cap && self.window.pop_front() == Some(true) {
            self.bursts_in_window -= 1;
        }
        if self.window.len() == cap {
            let occ = self.bursts_in_window * 1000;
            if !self.sweeping && occ >= self.cfg.auto_enter_per_mille as usize * cap {
                self.sweeping = true;
            } else if self.sweeping && occ < self.cfg.auto_exit_per_mille as usize * cap {
                self.sweeping = false;
            }
        }
    }

    /// Whether the auto detector currently classifies this session as
    /// a pause-free sweep (serve it with the uniform budget). Always
    /// `false` when [`BurstConfig::auto_window`] is 0.
    pub(crate) fn sweeping(&self) -> bool {
        self.sweeping
    }

    /// The current phase (the last [`BurstTracker::observe`] verdict).
    pub fn phase(&self) -> TrafficPhase {
        self.phase
    }

    /// The thresholds and policy this tracker runs under.
    pub(crate) fn config(&self) -> &BurstConfig {
        &self.cfg
    }
}

/// How the install stage treats what the session already has staged.
pub(crate) enum Install {
    /// Hold the whole ranked list until the next request (shared) or
    /// replace the private prefetch set with the fetched tiles.
    Replace,
    /// Pin only the first `n` ranked entries: shared mode promotes
    /// private copies, holds and retains exactly that prefix; private
    /// mode folds the fetched tiles in around it.
    Pin(usize),
    /// Leave holds and the prefetch set as they are; a private-mode
    /// fetch folds in around this keep list.
    Keep(Vec<TileId>),
}

/// One request's prefetch decision: made by [`BurstPlanner`] (or
/// [`Plan::uniform`] when the session has none) and handed from stage
/// to stage through `Middleware::try_request`.
pub(crate) struct Plan {
    /// The traffic phase the request is served under (`None`: no
    /// scheduler).
    pub traffic: Option<TrafficPhase>,
    /// `(budget, distance)` the predict stage asks the engine for
    /// (`distance` `None` = the engine's configured one); `None` keeps
    /// the engine off this request entirely.
    pub engine: Option<(usize, Option<usize>)>,
    /// Prefetch candidates, best first.
    pub ranked: Vec<TileId>,
    /// Most tiles of `ranked` the install stage may fetch.
    pub fetch_cap: usize,
    /// What happens to holds and the private prefetch set.
    pub install: Install,
}

impl Plan {
    /// The paper's plan: ask the engine for `k` tiles, fetch up to
    /// `k`, hold them all until the next request.
    pub(crate) fn uniform(k: usize) -> Self {
        Plan {
            traffic: None,
            engine: Some((k, None)),
            ranked: Vec::new(),
            fetch_cap: k,
            install: Install::Replace,
        }
    }
}

/// One session's burst scheduler: classifies each request's traffic
/// phase and decides its [`Plan`].
///
/// The timeline the gaps are measured on advances by each served
/// request's user-visible latency and by explicit
/// [`BurstPlanner::note_idle`] charges (think time) — the same
/// nanoseconds the shared `SimClock` accounts, but private to the
/// session, so a co-resident session's backend charges can never
/// bleed into this session's classification and multi-session replays
/// stay deterministic.
pub(crate) struct BurstPlanner {
    tracker: BurstTracker,
    /// Session-local timeline reading.
    now: Duration,
    /// Timeline reading when the previous request finished.
    last_done: Option<Duration>,
    /// The prefix the last dwell or idle plan pinned. Shared mode keeps
    /// holding it while the session rides a burst reactively (it is
    /// capped to the fair budget slice, so planning sessions can never
    /// pin more than the communal capacity between them); private mode
    /// keeps it when a momentum fetch folds in.
    dwell_plan: Vec<TileId>,
    /// The previous request's move: a dwell move that repeats it (same
    /// pan, same direction) is a live run, anything else is a pivot.
    last_move: Option<fc_tiles::Move>,
    /// Recent distinct requests, most recent first — the keep-warm
    /// candidates.
    recent: VecDeque<TileId>,
}

impl BurstPlanner {
    pub(crate) fn new(cfg: BurstConfig) -> Self {
        Self {
            tracker: BurstTracker::new(cfg),
            now: Duration::ZERO,
            last_done: None,
            dwell_plan: Vec::new(),
            last_move: None,
            recent: VecDeque::new(),
        }
    }

    pub(crate) fn tracker(&self) -> &BurstTracker {
        &self.tracker
    }

    /// Advances the timeline by `d` of think time.
    pub(crate) fn note_idle(&mut self, d: Duration) {
        self.now += d;
    }

    /// First call of a request: classifies it from the gap since the
    /// last one finished and says where its ranked list comes from. A
    /// sweeping session gets the uniform plan; classification goes on.
    pub(crate) fn begin(&mut self, k: usize) -> Plan {
        let gap = self.last_done.map(|at| self.now.saturating_sub(at));
        let phase = self.tracker.observe(gap);
        let mut plan = Plan::uniform(k);
        plan.traffic = Some(phase);
        if !self.tracker.sweeping() {
            let budget = self.tracker.config().speculative_budget(phase, k);
            plan.fetch_cap = budget;
            plan.engine = match phase {
                // A burst is reactive (the engine and the shared
                // pair cache's lock stay off its path); idle keep-warm
                // maintains the working set, it does not speculate.
                TrafficPhase::Burst | TrafficPhase::Idle => None,
                TrafficPhase::Dwell => Some((budget, Some(DWELL_DISTANCE))),
            };
        }
        plan
    }

    /// Second call, after the predict stage filled `plan.ranked` from
    /// the engine (when `plan.engine` asked for it): settles the
    /// ranked list, the fetch cap and the install mode.
    ///
    /// `organic_hit` is a cache hit on a tile this session did not
    /// prefetch; `hotspots` is the communal prior, best first; `slice`
    /// is the session's fair shared-cache budget (`None` in private
    /// mode).
    pub(crate) fn plan(
        &mut self,
        plan: &mut Plan,
        req: Request,
        organic_hit: bool,
        geometry: Geometry,
        hotspots: &[(TileId, u64)],
        slice: Option<usize>,
    ) {
        let pan = req.mv.filter(|m| m.is_pan());
        match self.tracker.phase() {
            _ if self.tracker.sweeping() => self.dwell_plan.clear(),
            TrafficPhase::Burst => {
                // Momentum: the one speculation with a confirmed
                // signal mid-burst is the pan being executed right
                // now. Its lookahead leads the list and rides on top
                // of the phase budget, so each request of a straight
                // leg hits its predecessor's lookahead. It fires on a
                // miss (the run outran the cache) or a speculative hit
                // (the run is live and staged coverage ends here); an
                // organic hit is inside a revisited or pinned set,
                // where a lookahead would only churn others' pins.
                let next = pan
                    .filter(|_| self.tracker.config().momentum && !organic_hit)
                    .and_then(|m| geometry.apply(req.tile, m));
                if let Some(next) = next.filter(|n| !plan.ranked.contains(n)) {
                    plan.ranked.insert(0, next);
                    plan.fetch_cap += 1;
                }
                // Holds stay as they are: the dwell plan's pins keep
                // protecting the run the burst is consuming, and the
                // holder registrations each hit adds pin the working
                // set; both release at the next planning step. Private
                // mode has no holds (a replacing install would drop
                // the staged plan), so a momentum fetch keeps the plan
                // plus the recent ring — both capped, so the set stays
                // bounded however long the burst.
                let mut keep = Vec::new();
                if slice.is_none() && !plan.ranked.is_empty() {
                    keep.extend(self.dwell_plan.iter().chain(&self.recent));
                }
                plan.install = Install::Keep(keep);
            }
            phase => {
                let deliberate = match phase {
                    TrafficPhase::Dwell => self.dwell_list(plan, req, pan, geometry, hotspots),
                    _ => {
                        // Idle keep-warm: the recent ring is the plan;
                        // resident tiles stay pinned, evicted ones
                        // trickle back in under the fetch cap.
                        let others = self.recent.iter().filter(|&&t| t != req.tile);
                        plan.ranked = others.take(DWELL_KEEP_WARM).copied().collect();
                        plan.ranked.len()
                    }
                };
                // Shared mode pins only the deliberate prefix, capped
                // at the fair slice: pinning the opportunistic tail too
                // would leave the communal LRU no slack, and plans
                // would evict each other on every foreground miss.
                // Private mode keeps the whole list.
                let pinned = slice.map_or(plan.ranked.len(), |s| deliberate.min(s));
                self.dwell_plan = plan.ranked[..pinned].to_vec();
                plan.install = Install::Pin(pinned);
            }
        }
    }

    /// Replaces `plan.ranked` with the dwell plan and returns how many
    /// leading entries are deliberate (pinnable).
    ///
    /// The engine's list is dropped: it scores the *next single move*
    /// from transition history, which a pause contradicts, and
    /// fetching it is what turns a deep dwell budget into junk I/O.
    /// The plan is the scheduler's own two signals — **run
    /// extrapolation** (the current pan walked `DWELL_DEPTH` steps on,
    /// the one candidate set the models cannot rank) and **keep-warm**
    /// (the recent tiles: an analyst who paused mid-loop comes back
    /// over them) — ordered by whether the run is still alive. It is
    /// *live* only when this move repeats the previous one; then
    /// extrapolation leads, deliberate. Anything else (reversal, turn,
    /// zoom) is a *pivot*: extrapolating one unconfirmed move would
    /// pin tiles nobody may touch and outrank re-fetching evicted
    /// keep-warm tiles (a hold pins residents only, so a tile that
    /// loses its fetch slot loses its pin too), so keep-warm leads and
    /// the extrapolation rides behind, fetched but never pinned.
    fn dwell_list(
        &self,
        plan: &mut Plan,
        req: Request,
        pan: Option<fc_tiles::Move>,
        geometry: Geometry,
        hotspots: &[(TileId, u64)],
    ) -> usize {
        let id = req.tile;
        let list = &mut plan.ranked;
        list.clear();
        let push = |list: &mut Vec<TileId>, t: TileId| {
            let fresh = t != id && !list.contains(&t);
            if fresh {
                list.push(t);
            }
            fresh
        };
        let extrapolate = |list: &mut Vec<TileId>| {
            let mut cur = id;
            for _ in 0..DWELL_DEPTH {
                let Some(next) = pan.and_then(|m| geometry.apply(cur, m)) else {
                    break;
                };
                push(list, next);
                cur = next;
            }
        };
        let live = pan.is_some() && self.last_move == req.mv;
        if live {
            extrapolate(list);
        }
        for &t in self.recent.iter().take(DWELL_KEEP_WARM) {
            push(list, t);
        }
        // Hotspot riders reach across the dataset to where the crowd
        // is (the engine's blend only re-ranks candidates near the
        // session's own position). The sketch always contains the
        // tile being served; it is not a rider.
        let mut riders = 0;
        for &(t, _) in hotspots {
            if riders == DWELL_HOTSPOTS {
                break;
            }
            riders += usize::from(push(list, t));
        }
        let deliberate = list.len();
        if !live {
            extrapolate(list);
        }
        deliberate
    }

    /// Books a served request (clean or degraded) that took `latency`.
    pub(crate) fn served(&mut self, req: Request, latency: Duration) {
        self.last_move = req.mv;
        if let Some(pos) = self.recent.iter().position(|&t| t == req.tile) {
            self.recent.remove(pos);
        }
        self.recent.push_front(req.tile);
        self.recent.truncate(RECENT_RING);
        self.waited(latency);
    }

    /// Books time the user spent waiting — a served request's latency,
    /// or a failed request's burned fetch budget.
    pub(crate) fn waited(&mut self, d: Duration) {
        self.now += d;
        self.last_done = Some(self.now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn starts_in_burst_and_first_request_keeps_it() {
        let mut t = BurstTracker::new(BurstConfig::default());
        assert_eq!(t.phase(), TrafficPhase::Burst);
        assert_eq!(t.observe(None), TrafficPhase::Burst);
    }

    #[test]
    fn classifies_the_three_regimes() {
        let mut t = BurstTracker::new(BurstConfig::default());
        t.observe(None);
        assert_eq!(t.observe(Some(ms(50))), TrafficPhase::Burst);
        assert_eq!(t.observe(Some(ms(2_000))), TrafficPhase::Dwell);
        assert_eq!(t.observe(Some(ms(60_000))), TrafficPhase::Idle);
        assert_eq!(t.observe(Some(ms(50))), TrafficPhase::Burst);
    }

    #[test]
    fn hysteresis_band_never_flaps() {
        let cfg = BurstConfig::default();
        // Gaps inside (burst_enter, burst_exit]: from Burst they stay
        // Burst, and once in Dwell they stay Dwell.
        let mut t = BurstTracker::new(cfg);
        t.observe(None);
        assert_eq!(t.observe(Some(ms(300))), TrafficPhase::Burst);
        assert_eq!(t.observe(Some(ms(450))), TrafficPhase::Burst);
        assert_eq!(t.observe(Some(ms(2_000))), TrafficPhase::Dwell);
        assert_eq!(t.observe(Some(ms(300))), TrafficPhase::Dwell);
        assert_eq!(t.observe(Some(ms(450))), TrafficPhase::Dwell);
    }

    #[test]
    fn idle_band_holds_both_ways() {
        let cfg = BurstConfig::default();
        let mut t = BurstTracker::new(cfg);
        t.observe(None);
        t.observe(Some(ms(2_000))); // Dwell
        assert_eq!(t.observe(Some(ms(15_000))), TrafficPhase::Dwell);
        assert_eq!(t.observe(Some(ms(40_000))), TrafficPhase::Idle);
        assert_eq!(t.observe(Some(ms(15_000))), TrafficPhase::Idle);
        assert_eq!(t.observe(Some(ms(2_000))), TrafficPhase::Dwell);
    }

    #[test]
    fn budget_schedule_is_counter_cyclical() {
        let cfg = BurstConfig::default();
        assert_eq!(cfg.speculative_budget(TrafficPhase::Burst, 4), 0);
        assert_eq!(cfg.speculative_budget(TrafficPhase::Dwell, 4), 8);
        assert_eq!(cfg.speculative_budget(TrafficPhase::Idle, 4), 1);
        // Zero k stays zero everywhere.
        for p in [TrafficPhase::Burst, TrafficPhase::Dwell, TrafficPhase::Idle] {
            assert_eq!(cfg.speculative_budget(p, 0), 0);
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn crossed_thresholds_are_rejected() {
        let cfg = BurstConfig {
            burst_enter: ms(500),
            burst_exit: ms(200),
            ..BurstConfig::default()
        };
        let _ = BurstTracker::new(cfg);
    }

    #[test]
    fn sweep_trigger_needs_a_full_window() {
        let cfg = BurstConfig::default();
        let mut t = BurstTracker::new(cfg);
        t.observe(None);
        for _ in 0..cfg.auto_window - 2 {
            assert_eq!(t.observe(Some(ms(50))), TrafficPhase::Burst);
            assert!(!t.sweeping(), "partial window must not trigger");
        }
        t.observe(Some(ms(50)));
        assert!(t.sweeping(), "a full all-burst window is a sweep");
    }

    #[test]
    fn sweep_exit_has_hysteresis() {
        let cfg = BurstConfig::default();
        let mut t = BurstTracker::new(cfg);
        t.observe(None);
        for _ in 0..cfg.auto_window {
            t.observe(Some(ms(50)));
        }
        assert!(t.sweeping());
        // Two dwell gaps in a 32-window: occupancy 30/32 = 937 ‰ —
        // below enter (925 would re-enter at 937? no: 937 ≥ 925), so
        // drive occupancy just below exit (850 ‰ → < 27.2/32): five
        // dwells leaves 27/32 = 843 ‰.
        for _ in 0..4 {
            t.observe(Some(ms(2_000)));
            t.observe(Some(ms(50))); // classifier re-enters burst fast
            assert!(t.sweeping(), "inside the hysteresis band: still sweeping");
        }
        t.observe(Some(ms(2_000)));
        assert!(!t.sweeping(), "occupancy fell below the exit threshold");
    }

    #[test]
    fn bursty_occupancy_never_trips_the_sweep_trigger() {
        // A 9-burst/1-dwell sprint cycle — the zoo's worst sustained
        // bursty pattern — peaks at 29/32 burst (906 ‰), under the
        // 925 ‰ enter threshold.
        let cfg = BurstConfig::default();
        let mut t = BurstTracker::new(cfg);
        t.observe(None);
        for _ in 0..40 {
            for _ in 0..9 {
                t.observe(Some(ms(50)));
            }
            t.observe(Some(ms(2_000)));
            assert!(!t.sweeping(), "sprint traffic must keep the schedule");
        }
    }

    #[test]
    fn auto_window_zero_disables_the_detector() {
        let cfg = BurstConfig {
            auto_window: 0,
            ..BurstConfig::default()
        };
        let mut t = BurstTracker::new(cfg);
        t.observe(None);
        for _ in 0..200 {
            t.observe(Some(ms(50)));
        }
        assert!(!t.sweeping());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn crossed_auto_thresholds_are_rejected() {
        let cfg = BurstConfig {
            auto_enter_per_mille: 700,
            auto_exit_per_mille: 900,
            ..BurstConfig::default()
        };
        let _ = BurstTracker::new(cfg);
    }

    #[test]
    fn index_roundtrip() {
        let phases = [TrafficPhase::Burst, TrafficPhase::Dwell, TrafficPhase::Idle];
        for (i, p) in phases.into_iter().enumerate() {
            assert_eq!(p.index(), i, "{p:?} indexes its stats slot");
        }
    }
}
