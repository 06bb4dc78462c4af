//! Deterministic fault injection for the backend fetch path.
//!
//! The reproduction's backend never fails: `TileStore::fetch_backend`
//! is infallible-or-absent, which makes every resilience claim about
//! the serving stack untestable. This module supplies the missing
//! adversary — a seeded [`FaultPlan`] that injects **latency spikes**,
//! **transient errors**, and **stuck fetches** into the fetch path —
//! without giving up replayability:
//!
//! * Every decision is a pure function of `(seed, tile id, request
//!   index, attempt)` hashed through a splitmix64 mix, so a chaos run
//!   replays **bit-identically** regardless of thread count or
//!   interleaving. No global RNG stream exists to race on.
//! * Fault *windows* are expressed in per-session request indices, so
//!   "brownout between requests 24 and 56" means the same thing for
//!   every session of a workload — and hit-rate recovery *after* the
//!   window is a well-defined, assertable quantity.
//! * All waiting (retry backoff, consumed deadlines, spike latency) is
//!   charged to the shared [`fc_array::SimClock`], never to wall time:
//!   chaos suites run at full speed.
//!
//! The consumer is [`crate::middleware::Middleware`]: when a plan is
//! attached (`set_faults`) the primary fetch runs under a bounded
//! [`RetryPolicy`] and failures surface as [`FetchError`] / degraded
//! replies. With no plan attached the fetch path is byte-for-byte the
//! pre-fault code — zero cost by default, enforced by golden tests.

use fc_tiles::TileId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One injected fault on a single fetch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The fetch succeeds but costs this much extra backend latency.
    LatencySpike(Duration),
    /// The attempt fails with a retryable error.
    Transient,
    /// The fetch never returns; the caller's remaining deadline budget
    /// is consumed reaping it.
    Stuck,
}

/// Why a guarded fetch gave up. The middleware maps these to degraded
/// replies (when an ancestor tile is resident) or error replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// Transient backend errors exhausted the retry budget.
    Unavailable {
        /// Fetch attempts made (including the first).
        attempts: u32,
    },
    /// The per-request deadline budget ran out — a stuck fetch, or
    /// backoff waits that would overrun it.
    DeadlineExceeded {
        /// Fetch attempts made before the deadline expired.
        attempts: u32,
    },
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Unavailable { attempts } => {
                write!(f, "backend unavailable after {attempts} attempts")
            }
            FetchError::DeadlineExceeded { attempts } => {
                write!(f, "fetch deadline exceeded after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for FetchError {}

/// Bounded-retry parameters for the guarded fetch path. All waits are
/// simulated (charged to the `SimClock`), so generous budgets cost no
/// wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fetch attempts allowed (first try + retries). At least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Deterministic jitter added to each backoff, as a per-mille
    /// fraction of it (250 = up to +25%), keyed off the plan seed.
    pub jitter_per_mille: u16,
    /// Per-request fetch budget: once backoffs (or a stuck fetch) have
    /// consumed it, the fetch gives up with
    /// [`FetchError::DeadlineExceeded`].
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            jitter_per_mille: 250,
            deadline: Duration::from_secs(3),
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retry number `retry` (1-based), with
    /// the plan-seeded jitter for `(tile, request_index)` folded in.
    pub fn backoff(
        &self,
        plan: &FaultPlan,
        tile: TileId,
        request_index: u64,
        retry: u32,
    ) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let base = self
            .base_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        if self.jitter_per_mille == 0 || base.is_zero() {
            return base;
        }
        let jitter_mille = plan.roll(tile, request_index, retry, SALT_JITTER)
            % (u64::from(self.jitter_per_mille) + 1);
        let extra = base.as_nanos().saturating_mul(u128::from(jitter_mille)) / 1000;
        base + Duration::from_nanos(u64::try_from(extra).unwrap_or(u64::MAX))
    }
}

/// Per-mille fault probabilities for one regime (inside or outside the
/// plan's window). All-zero rates inject nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRates {
    /// Probability (‰) that an attempt fails with a transient error.
    pub transient_per_mille: u16,
    /// Attempts below this index on a faulted fetch *always* fail
    /// transiently — a deterministic "first k tries fail" knob for
    /// exercising the retry ladder in tests and schedules.
    pub transient_first_attempts: u32,
    /// Probability (‰) that a successful fetch carries a latency spike.
    pub spike_per_mille: u16,
    /// Spike magnitude.
    pub spike: Duration,
    /// Probability (‰) that the fetch wedges (consuming the deadline).
    pub stuck_per_mille: u16,
}

impl FaultRates {
    fn quiet(&self) -> bool {
        self.transient_per_mille == 0
            && self.transient_first_attempts == 0
            && self.spike_per_mille == 0
            && self.stuck_per_mille == 0
    }
}

/// A request-index window (half-open, per session) with its own rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First request index (0-based, per session) the window covers.
    pub from: u64,
    /// First request index past the window.
    pub until: u64,
    /// Rates in effect inside the window.
    pub rates: FaultRates,
}

const SALT_STUCK: u64 = 0x5157_4b21;
const SALT_TRANSIENT: u64 = 0x7452_4e53;
const SALT_SPIKE: u64 = 0x5350_4b45;
const SALT_JITTER: u64 = 0x4a49_5454;
const SALT_PREFETCH: u64 = 0x5046_4348;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Monotonic counters of faults actually injected (relaxed atomics;
/// approximate under concurrency, exact in single-threaded replays).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Latency spikes injected (primary fetches and prefetches).
    pub spikes: u64,
    /// Transient errors injected.
    pub transients: u64,
    /// Stuck fetches injected.
    pub stuck: u64,
}

/// A seeded, deterministic schedule of backend faults.
///
/// Decisions are keyed by `(tile id, request index, attempt)`, so the
/// same plan replayed over the same traces produces the same faults in
/// the same places — independent of thread interleaving. Construct one
/// per chaos run and share it (`Arc`) across sessions.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    base: FaultRates,
    window: Option<FaultWindow>,
    spikes: AtomicU64,
    transients: AtomicU64,
    stuck: AtomicU64,
}

impl FaultPlan {
    /// A plan applying `base` everywhere (no window).
    pub fn new(seed: u64, base: FaultRates) -> Self {
        Self {
            seed,
            base,
            window: None,
            spikes: AtomicU64::new(0),
            transients: AtomicU64::new(0),
            stuck: AtomicU64::new(0),
        }
    }

    /// A plan that is quiet outside `window` and applies the window's
    /// rates inside it.
    pub fn windowed(seed: u64, window: FaultWindow) -> Self {
        let mut plan = Self::new(seed, FaultRates::default());
        plan.window = Some(window);
        plan
    }

    /// A plan that never injects anything — for A/B baselines where
    /// the *mechanism* (guarded fetch, retry bookkeeping) should run
    /// but no fault should fire.
    pub fn quiet(seed: u64) -> Self {
        Self::new(seed, FaultRates::default())
    }

    /// **Backend brownout**: inside `[from, until)` the backend turns
    /// flaky — frequent transient errors (first attempt always fails,
    /// so every fetch exercises the retry ladder), latency spikes on
    /// survivors, and occasional wedged fetches. Quiet outside.
    pub fn brownout(seed: u64, from: u64, until: u64) -> Self {
        Self::windowed(
            seed,
            FaultWindow {
                from,
                until,
                rates: FaultRates {
                    transient_per_mille: 350,
                    transient_first_attempts: 1,
                    spike_per_mille: 300,
                    spike: Duration::from_millis(250),
                    stuck_per_mille: 40,
                },
            },
        )
    }

    /// A plan where every attempt fails transiently — the retry budget
    /// always exhausts (test helper for the degradation ladder).
    // fc-check: allow(unreferenced-pub) -- fixture shared across crates: fc-core's fault_injection and fc-server's robustness tests
    pub fn always_failing(seed: u64) -> Self {
        Self::new(
            seed,
            FaultRates {
                transient_per_mille: 1000,
                transient_first_attempts: u32::MAX,
                ..FaultRates::default()
            },
        )
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The rates in effect at `request_index`.
    pub fn rates_at(&self, request_index: u64) -> FaultRates {
        match self.window {
            Some(w) if request_index >= w.from && request_index < w.until => w.rates,
            _ => self.base,
        }
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            spikes: self.spikes.load(Ordering::Relaxed),
            transients: self.transients.load(Ordering::Relaxed),
            stuck: self.stuck.load(Ordering::Relaxed),
        }
    }

    fn roll(&self, tile: TileId, request_index: u64, attempt: u32, salt: u64) -> u64 {
        let tile_key =
            (u64::from(tile.level) << 56) ^ (u64::from(tile.y) << 28) ^ u64::from(tile.x);
        splitmix64(
            self.seed
                ^ splitmix64(tile_key)
                ^ splitmix64(request_index.wrapping_mul(0x9e37_79b9))
                ^ splitmix64(u64::from(attempt) ^ salt),
        )
    }

    fn hits(&self, per_mille: u16, roll: u64) -> bool {
        per_mille > 0 && roll % 1000 < u64::from(per_mille)
    }

    /// The fault (if any) injected into fetch `attempt` (0-based) of
    /// the request at `request_index` for `tile`. Pure in its inputs;
    /// records the decision in [`FaultPlan::stats`].
    pub fn decide(&self, tile: TileId, request_index: u64, attempt: u32) -> Option<FaultKind> {
        let rates = self.rates_at(request_index);
        if rates.quiet() {
            return None;
        }
        if self.hits(
            rates.stuck_per_mille,
            self.roll(tile, request_index, attempt, SALT_STUCK),
        ) {
            self.stuck.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::Stuck);
        }
        if attempt < rates.transient_first_attempts
            || self.hits(
                rates.transient_per_mille,
                self.roll(tile, request_index, attempt, SALT_TRANSIENT),
            )
        {
            self.transients.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::Transient);
        }
        if self.hits(
            rates.spike_per_mille,
            self.roll(tile, request_index, attempt, SALT_SPIKE),
        ) {
            self.spikes.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::LatencySpike(rates.spike));
        }
        None
    }

    /// The fault (if any) injected into a *prefetch* of `tile` issued
    /// by the request at `request_index`. Prefetches are best-effort:
    /// no retries, so transient and stuck both mean "skip this tile";
    /// a spike only makes the background fetch cost more.
    pub fn decide_prefetch(&self, tile: TileId, request_index: u64) -> Option<FaultKind> {
        let rates = self.rates_at(request_index);
        if rates.quiet() {
            return None;
        }
        if self.hits(
            rates.stuck_per_mille,
            self.roll(tile, request_index, 0, SALT_PREFETCH ^ SALT_STUCK),
        ) {
            self.stuck.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::Stuck);
        }
        if self.hits(
            rates.transient_per_mille,
            self.roll(tile, request_index, 0, SALT_PREFETCH ^ SALT_TRANSIENT),
        ) {
            self.transients.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::Transient);
        }
        if self.hits(
            rates.spike_per_mille,
            self.roll(tile, request_index, 0, SALT_PREFETCH ^ SALT_SPIKE),
        ) {
            self.spikes.fetch_add(1, Ordering::Relaxed);
            return Some(FaultKind::LatencySpike(rates.spike));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(x: u32) -> TileId {
        TileId::new(2, 1, x)
    }

    #[test]
    fn decisions_are_deterministic_and_key_sensitive() {
        let a = FaultPlan::brownout(42, 0, 1000);
        let b = FaultPlan::brownout(42, 0, 1000);
        let mut decisions = Vec::new();
        for x in 0..32 {
            for req in 0..16 {
                for attempt in 0..3 {
                    let da = a.decide(tile(x), req, attempt);
                    assert_eq!(da, b.decide(tile(x), req, attempt), "same seed, same key");
                    decisions.push(da);
                }
            }
        }
        assert!(decisions.iter().any(Option::is_some), "brownout injects");
        assert!(decisions.iter().any(Option::is_none), "but not everywhere");
        // A different seed disagrees somewhere.
        let c = FaultPlan::brownout(43, 0, 1000);
        let mut diff = false;
        for x in 0..32 {
            for req in 0..16 {
                if a.decide(tile(x), req, 1) != c.decide(tile(x), req, 1) {
                    diff = true;
                }
            }
        }
        assert!(diff, "seed must matter");
    }

    #[test]
    fn window_bounds_are_half_open_and_quiet_outside() {
        let plan = FaultPlan::brownout(7, 10, 20);
        for req in [0u64, 9, 20, 21, 1000] {
            assert_eq!(plan.rates_at(req), FaultRates::default());
            for x in 0..64 {
                for attempt in 0..4 {
                    assert_eq!(plan.decide(tile(x), req, attempt), None, "req {req}");
                }
            }
        }
        assert_ne!(plan.rates_at(10), FaultRates::default());
        assert_eq!(plan.rates_at(10), plan.rates_at(19));
        // Inside the window the forced-first-attempt knob guarantees a
        // transient on attempt 0 of every fetch.
        assert_eq!(plan.decide(tile(0), 10, 0), Some(FaultKind::Transient));
    }

    #[test]
    fn always_failing_fails_every_attempt() {
        let plan = FaultPlan::always_failing(1);
        for attempt in 0..64 {
            assert_eq!(plan.decide(tile(3), 5, attempt), Some(FaultKind::Transient));
        }
        assert_eq!(plan.stats().transients, 64);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::quiet(99);
        for x in 0..64 {
            for req in 0..64 {
                assert_eq!(plan.decide(tile(x), req, 0), None);
                assert_eq!(plan.decide_prefetch(tile(x), req), None);
            }
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let plan = FaultPlan::brownout(5, 0, 100);
        let policy = RetryPolicy::default();
        let b1 = policy.backoff(&plan, tile(1), 3, 1);
        let b2 = policy.backoff(&plan, tile(1), 3, 2);
        let b5 = policy.backoff(&plan, tile(1), 3, 5);
        assert!(b1 >= policy.base_backoff);
        assert!(b2 > b1, "{b2:?} vs {b1:?}");
        // Cap: max_backoff plus at most the jitter fraction.
        let cap = policy.max_backoff + policy.max_backoff / 4;
        assert!(b5 <= cap, "{b5:?} > {cap:?}");
        // Deterministic.
        assert_eq!(b1, policy.backoff(&plan, tile(1), 3, 1));
        // Jitter-free policy is exact.
        let flat = RetryPolicy {
            jitter_per_mille: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(flat.backoff(&plan, tile(1), 3, 1), flat.base_backoff);
        assert_eq!(flat.backoff(&plan, tile(1), 3, 2), flat.base_backoff * 2);
    }

    #[test]
    fn degraded_backend_has_no_window_and_constant_rates() {
        let plan = FaultPlan::new(
            11,
            FaultRates {
                transient_per_mille: 100,
                spike_per_mille: 200,
                spike: Duration::from_millis(150),
                stuck_per_mille: 10,
                ..FaultRates::default()
            },
        );
        assert_eq!(plan.rates_at(0), plan.rates_at(u64::MAX - 1));
        let mut injected = 0;
        for x in 0..64 {
            for req in 0..32 {
                if plan.decide(tile(x), req, 0).is_some() {
                    injected += 1;
                }
            }
        }
        assert!(injected > 0, "background flakiness must fire somewhere");
    }

    #[test]
    fn fetch_error_displays() {
        assert_eq!(
            FetchError::Unavailable { attempts: 4 }.to_string(),
            "backend unavailable after 4 attempts"
        );
        assert_eq!(
            FetchError::DeadlineExceeded { attempts: 2 }.to_string(),
            "fetch deadline exceeded after 2 attempts"
        );
    }
}
