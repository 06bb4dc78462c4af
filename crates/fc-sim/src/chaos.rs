//! Chaos harness: multi-user replay under a deterministic fault
//! schedule, with invariant checks over the whole serving stack.
//!
//! [`run_chaos`] is [`crate::multiuser::run_multi_user`] with a
//! [`FaultPlan`] attached to every session's middleware. Each session
//! replays its trace through the *fallible* fetch path
//! ([`Middleware::try_request`]), so a scheduled backend brownout or
//! error burst produces the full degradation ladder: retried fetches,
//! degraded ancestor replies, and clean [`fc_core::FetchError`]s. The
//! report buckets every attempt into before/during/after the fault
//! window (by the per-session request index the plan itself keys on),
//! which is what lets a test assert "the hit rate recovers once the
//! fault clears" instead of eyeballing aggregate counters.
//!
//! [`assert_invariants`] checks the properties every schedule must
//! preserve, no matter how hostile:
//!
//! - **no panic escapes a session** — each session body runs under
//!   `catch_unwind`; an unwound session is counted, never propagated;
//! - **the shared cache never exceeds capacity** — resident count is
//!   sampled after every request and the high-water mark reported;
//! - **accounting balances** — every serviceable attempt is served
//!   (possibly degraded) or failed, and every attempt lands in exactly
//!   one phase bucket;
//! - **the run drains** — `run_chaos` returning at all means no
//!   session wedged on the shared pair cache's lock.

use crate::multiuser::{build_cache, percentile, replay_cycled, MultiUserConfig};
use crate::trace::Trace;
use fc_core::{
    BatchConfig, BurstConfig, FaultPlan, Middleware, PredictScheduler, PredictionEngine,
    RetryPolicy, SchedulerStats, SharedCacheStats, SharedSessionHandle,
};
use fc_tiles::Pyramid;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A chaos scenario: the multi-user workload shape plus the fault
/// schedule every session runs under.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Workload shape (sessions, steps, cache, batching, k, …).
    pub base: MultiUserConfig,
    /// The fault schedule, shared by all sessions; decisions stay
    /// deterministic because the plan keys on each session's own
    /// request index.
    pub plan: Arc<FaultPlan>,
    /// Retry/backoff/deadline budget for faulted fetches.
    pub retry: RetryPolicy,
    /// `[from, until)` request-index window the schedule's faults
    /// cover, used to bucket the report's phase statistics. Use
    /// `(0, u64::MAX)` for an unwindowed (always-on) schedule.
    pub fault_window: (u64, u64),
    /// Burst-aware prefetch scheduling, applied to every session's
    /// middleware (`None` keeps the uniform per-request budget — the
    /// bit-identical default).
    pub burst: Option<BurstConfig>,
    /// Per-trace think-time schedules, parallel to `traces`: session
    /// `i` charges `think[i % think.len()][j]` to its timeline before
    /// step `j` of each pass (the gap stream the burst classifier
    /// sees). Empty = no think time, back-to-back replay.
    pub think: Vec<Vec<std::time::Duration>>,
}

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
        if self.served == 0 {
            0.0
        } else {
            self.hits as f64 / self.served as f64
        }
    }

    fn absorb(&mut self, o: &PhaseStats) {
        self.attempts += o.attempts;
        self.served += o.served;
        self.hits += o.hits;
        self.degraded += o.degraded;
        self.failures += o.failures;
    }
}

/// Aggregate outcome of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Sessions run.
    pub sessions: usize,
    /// Serviceable attempts across sessions (the sum of the
    /// per-session fault request indices).
    pub attempts: usize,
    /// Replies produced (clean + degraded).
    pub served: usize,
    /// Degraded replies among them.
    pub degraded: usize,
    /// Outright failures.
    pub failures: usize,
    /// Backend retries spent on primary fetches.
    pub retries: u64,
    /// Sessions whose body panicked (must be zero — see
    /// [`assert_invariants`]).
    pub panics: usize,
    /// Attempts before the fault window opened.
    pub before: PhaseStats,
    /// Attempts inside the window.
    pub during: PhaseStats,
    /// Attempts after the window closed.
    pub after: PhaseStats,
    /// Shared-cache capacity the run was configured with.
    pub cache_capacity: usize,
    /// High-water mark of resident tiles, sampled after every request.
    pub max_resident: usize,
    /// Shared-cache counters.
    pub shared: SharedCacheStats,
    /// Scheduler counters when `batch_predicts` was on.
    pub scheduler: Option<SchedulerStats>,
    /// Non-degraded replies whose phase the allocation strategy gives
    /// an SB slot at the configured budget: the requests that rank SB,
    /// derived from the replies and not from the engine's own counts.
    pub sb_ranked: usize,
    /// Median user-visible latency over served replies (includes
    /// spike charges and retry backoff on the simulated clock).
    pub latency_p50: std::time::Duration,
    /// 99th-percentile user-visible latency over served replies.
    pub latency_p99: std::time::Duration,
    /// Served requests per traffic phase (burst/dwell/idle), summed
    /// over sessions; all zero unless burst scheduling was on.
    pub per_traffic: [usize; 3],
    /// Speculative tiles fetched across sessions.
    pub prefetch_issued: usize,
    /// Speculative tiles later served as cache hits.
    pub prefetch_used: usize,
    /// Whether burst-aware scheduling was active for this run.
    pub burst_active: bool,
}

/// Runs `cfg.base.sessions` concurrent analysts under `cfg.plan`.
/// Session `i` replays `traces[i % traces.len()]`, cycling it until
/// `steps_per_session` serviceable requests have been *attempted*
/// (attempts, not replies — a failed fetch still advances the fault
/// window, exactly as it advances the plan's request index).
pub fn run_chaos<F>(
    pyramid: &Arc<Pyramid>,
    engine_factory: F,
    traces: &[Trace],
    cfg: &ChaosConfig,
) -> ChaosReport
where
    F: Fn() -> PredictionEngine + Sync,
{
    assert!(cfg.base.sessions > 0, "need at least one session");
    assert!(!traces.is_empty(), "need at least one trace");
    let cache = build_cache(&cfg.base);
    let template = engine_factory();
    let strategy = template.config().strategy;
    let scheduler = cfg.base.batch_predicts.then(|| {
        Arc::new(PredictScheduler::new(
            template.sb_model().clone(),
            pyramid.clone(),
            BatchConfig::default(),
        ))
    });

    #[derive(Default)]
    struct SessionOutcome {
        before: PhaseStats,
        during: PhaseStats,
        after: PhaseStats,
        retries: u64,
        sb_ranked: usize,
        max_resident: usize,
        panicked: bool,
        latency_ns: Vec<u64>,
        per_traffic: [usize; 3],
        prefetch_issued: usize,
        prefetch_used: usize,
    }

    let outcomes: Vec<SessionOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.base.sessions)
            .map(|i| {
                let trace = &traces[i % traces.len()];
                let cache = cache.clone();
                let scheduler = scheduler.clone();
                let engine = engine_factory();
                let pyramid = pyramid.clone();
                scope.spawn(move || {
                    let mut out = SessionOutcome::default();
                    // The session body must never unwind past this
                    // frame: a panic is an invariant violation to
                    // *report*, not to propagate into the scope (which
                    // would abort the whole harness).
                    let body = catch_unwind(AssertUnwindSafe(|| {
                        let handle = SharedSessionHandle::open(cache.clone(), scheduler);
                        let mut mw = Middleware::new_shared(
                            engine,
                            pyramid,
                            cfg.base.profile,
                            cfg.base.history_cache,
                            cfg.base.k,
                            handle,
                        );
                        mw.set_faults(cfg.plan.clone(), cfg.retry);
                        mw.set_burst(cfg.burst);
                        let think = (!cfg.think.is_empty())
                            .then(|| cfg.think[i % cfg.think.len()].as_slice());
                        let mut out = SessionOutcome::default();
                        let (from, until) = cfg.fault_window;
                        // Attempts count: every serviceable request
                        // ticks the session's fault request index, an
                        // unservable tile (`Ok(None)`) does not.
                        replay_cycled(trace, cfg.base.steps_per_session, |j, tile, mv| {
                            let idx = mw.fault_request_index();
                            if let Some(d) = think.and_then(|t| t.get(j)) {
                                mw.note_idle(*d);
                            }
                            let result = mw.try_request(tile, mv);
                            let bucket = if idx < from {
                                &mut out.before
                            } else if idx < until {
                                &mut out.during
                            } else {
                                &mut out.after
                            };
                            match result {
                                Ok(None) => return false,
                                Ok(Some(resp)) => {
                                    bucket.served += 1;
                                    bucket.hits += usize::from(resp.cache_hit);
                                    bucket.degraded += usize::from(resp.degraded);
                                    out.retries += u64::from(resp.fetch_retries);
                                    let (_, sb_slots) = strategy.allocate(resp.phase, cfg.base.k);
                                    out.sb_ranked += usize::from(!resp.degraded && sb_slots > 0);
                                    out.latency_ns.push(
                                        u64::try_from(resp.latency.as_nanos()).unwrap_or(u64::MAX),
                                    );
                                }
                                Err(_) => bucket.failures += 1,
                            }
                            bucket.attempts += 1;
                            out.max_resident = out.max_resident.max(cache.len());
                            true
                        });
                        let st = mw.stats();
                        out.per_traffic = st.per_traffic;
                        out.prefetch_issued = st.prefetch_issued;
                        out.prefetch_used = st.prefetch_used;
                        out
                    }));
                    match body {
                        Ok(done) => out = done,
                        Err(_) => out.panicked = true,
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread"))
            .collect()
    });

    let mut before = PhaseStats::default();
    let mut during = PhaseStats::default();
    let mut after = PhaseStats::default();
    let mut retries = 0u64;
    let mut sb_ranked = 0usize;
    let mut max_resident = 0usize;
    let mut panics = 0usize;
    let mut per_traffic = [0usize; 3];
    let mut prefetch_issued = 0usize;
    let mut prefetch_used = 0usize;
    let mut all_ns: Vec<u64> = Vec::new();
    for o in &outcomes {
        before.absorb(&o.before);
        during.absorb(&o.during);
        after.absorb(&o.after);
        retries += o.retries;
        sb_ranked += o.sb_ranked;
        max_resident = max_resident.max(o.max_resident);
        panics += usize::from(o.panicked);
        for (sum, n) in per_traffic.iter_mut().zip(o.per_traffic) {
            *sum += n;
        }
        prefetch_issued += o.prefetch_issued;
        prefetch_used += o.prefetch_used;
        all_ns.extend_from_slice(&o.latency_ns);
    }
    all_ns.sort_unstable();

    ChaosReport {
        sessions: cfg.base.sessions,
        attempts: before.attempts + during.attempts + after.attempts,
        served: before.served + during.served + after.served,
        degraded: before.degraded + during.degraded + after.degraded,
        failures: before.failures + during.failures + after.failures,
        retries,
        panics,
        before,
        during,
        after,
        cache_capacity: cfg.base.cache_capacity,
        max_resident,
        shared: cache.stats(),
        scheduler: scheduler.map(|s| s.stats()),
        sb_ranked,
        latency_p50: percentile(&all_ns, 0.50),
        latency_p99: percentile(&all_ns, 0.99),
        per_traffic,
        prefetch_issued,
        prefetch_used,
        burst_active: cfg.burst.is_some(),
    }
}

/// Asserts the schedule-independent invariants of a chaos run. Panics
/// (with the offending counters) when one is violated.
pub fn assert_invariants(r: &ChaosReport) {
    assert_eq!(r.panics, 0, "a panic escaped a session body: {r:?}");
    assert!(
        r.max_resident <= r.cache_capacity,
        "shared cache exceeded capacity: {} resident > {} capacity",
        r.max_resident,
        r.cache_capacity
    );
    assert_eq!(
        r.served + r.failures,
        r.attempts,
        "every attempt is served or failed: {r:?}"
    );
    assert!(
        r.degraded <= r.served,
        "degraded replies are a subset of served: {r:?}"
    );
    for (name, p) in [
        ("before", &r.before),
        ("during", &r.during),
        ("after", &r.after),
    ] {
        assert_eq!(
            p.served + p.failures,
            p.attempts,
            "{name} bucket balances: {p:?}"
        );
        assert!(p.hits <= p.served, "{name}: hits within served: {p:?}");
        assert!(
            p.degraded <= p.served,
            "{name}: degraded within served: {p:?}"
        );
    }
    assert!(
        r.prefetch_used <= r.prefetch_issued,
        "a prefetch cannot be used more often than issued: {r:?}"
    );
    if r.burst_active {
        assert_eq!(
            r.per_traffic.iter().sum::<usize>(),
            r.served,
            "every served request lands in exactly one traffic phase: {r:?}"
        );
    } else {
        assert_eq!(
            r.per_traffic,
            [0, 0, 0],
            "traffic buckets must stay empty with burst scheduling off: {r:?}"
        );
    }
    if let Some(s) = &r.scheduler {
        // One rank per predicted request whose allocation gives SB a
        // slot: a degraded reply skips prediction, and the burst
        // planner may keep the engine off or change the budget.
        let predicted = (r.served - r.degraded) as u64;
        assert!(
            s.jobs <= predicted && (r.burst_active || s.jobs == r.sb_ranked as u64),
            "scheduler jobs must match the requests that rank SB: {s:?} vs {r:?}"
        );
    }
}
