//! Utility-scheduled server push: which speculative tile, to which
//! session, *now*?
//!
//! The serving stack's prefetch path fills the **cache**; this module
//! decides what is worth shipping over the **wire** unsolicited. The
//! split matters because the wire budget is the scarcer resource: a
//! push occupies a session's socket and client buffer, so pushing the
//! wrong tile to the wrong session at the wrong time is strictly worse
//! than pushing nothing — the Khameleon insight that server push must
//! be *scheduled* against a utility model rather than streamed
//! greedily.
//!
//! [`PushPlanner`] keeps one bounded candidate queue per session,
//! refilled after each served request from the middleware's ranked
//! prediction list ([`crate::Middleware::take_push_candidates`] — the
//! capture point sits right behind the predict stage, so the planner
//! reuses the ranking the request already paid for). At drain time the
//! reactor asks for a *plan*: the best `(session, tile)` picks for the
//! sessions whose sockets are writable and whose write queues have
//! headroom.
//!
//! Candidate utility is a product of four deterministic factors:
//!
//! * **likelihood** — `1/(1+rank)` in the refill's ranked list: the
//!   engine's own belief, already blended (AB × SB × hotspot prior);
//! * **staleness** — `2^-age`, age in refill epochs: a candidate from
//!   three requests ago predicts a view the analyst has since moved
//!   past, so its claim on the wire decays geometrically;
//! * **namespace fairness** — `(1+min_pushed)/(1+own_pushed)` across
//!   live sessions: the cheapest-served session's multiplier is 1,
//!   a session that has already absorbed many pushes yields;
//! * **traffic phase** — Burst = 0 (the session's socket belongs to
//!   its own misses; pushing into a burst competes with exactly the
//!   traffic the reactive budget protects), Dwell = 1 (the quiet
//!   window speculation exists for), Idle = 0.25 (a trickle keeps the
//!   working set warm without spending the wire on a user who may be
//!   gone), unclassified = 1.
//!
//! [`PushPolicy::RoundRobin`] is the A/B control: same queues, same
//! budget, but sessions are drained cyclically with no utility model —
//! the baseline the report's `push_ab` section (fc-bench's `run_all`)
//! measures the utility schedule and push off against.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::burst::TrafficPhase;
use fc_tiles::TileId;

/// How the planner picks among candidates at drain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushPolicy {
    /// Utility-ordered: likelihood × staleness × fairness × phase.
    Utility,
    /// Cyclic per-session drain, no utility model (the A/B baseline).
    RoundRobin,
}

/// Planner knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushConfig {
    /// Drain policy.
    pub policy: PushPolicy,
    /// Per-session candidate queue bound; a refill past it drops the
    /// lowest-ranked tail. Bounds planner memory per session.
    pub queue_cap: usize,
}

impl Default for PushConfig {
    fn default() -> Self {
        Self {
            policy: PushPolicy::Utility,
            queue_cap: 16,
        }
    }
}

/// Cumulative push accounting (planner-wide).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PushStats {
    /// Tiles handed to the wire by [`PushPlanner::plan`].
    pub pushed: u64,
    /// Pushed tiles the session later requested — push analog of the
    /// prefetch useful ratio.
    pub used: u64,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    tile: TileId,
    /// Position in the ranked list of the refill that produced it.
    rank: usize,
    /// The session's refill epoch at that refill.
    epoch: u64,
}

#[derive(Debug, Default)]
struct SessionQueue {
    candidates: VecDeque<Candidate>,
    phase: Option<TrafficPhase>,
    /// Refill epochs seen (the staleness clock).
    epoch: u64,
    /// Pushes absorbed (the fairness denominator).
    pushed: u64,
    /// Pushed but not yet requested — settled by
    /// [`PushPlanner::note_request`].
    outstanding: HashSet<TileId>,
}

/// The per-session candidate queues plus the drain scheduler. All
/// state is deterministic in its inputs: same refills, same plans,
/// same picks — on any host.
#[derive(Debug)]
pub struct PushPlanner {
    cfg: PushConfig,
    sessions: HashMap<u64, SessionQueue>,
    /// Round-robin resume cursor (session id to start after).
    rr_cursor: Option<u64>,
    stats: PushStats,
}

impl PushPlanner {
    /// An empty planner.
    pub fn new(cfg: PushConfig) -> Self {
        Self {
            cfg,
            sessions: HashMap::new(),
            rr_cursor: None,
            stats: PushStats::default(),
        }
    }

    /// Replaces session `sid`'s candidate queue from a fresh ranked
    /// prediction list and advances its staleness epoch. Unpushed
    /// leftovers that the new list does not re-confirm survive with
    /// their old epoch (they age instead of vanishing); everything is
    /// capped at [`PushConfig::queue_cap`], best-first.
    pub fn refill(&mut self, sid: u64, ranked: &[TileId], phase: Option<TrafficPhase>) {
        let q = self.sessions.entry(sid).or_default();
        q.epoch += 1;
        q.phase = phase;
        let mut next: Vec<Candidate> = Vec::with_capacity(self.cfg.queue_cap);
        let mut seen: HashSet<TileId> = HashSet::new();
        for (rank, &tile) in ranked.iter().enumerate() {
            if next.len() >= self.cfg.queue_cap {
                break;
            }
            if seen.insert(tile) && !q.outstanding.contains(&tile) {
                next.push(Candidate {
                    tile,
                    rank,
                    epoch: q.epoch,
                });
            }
        }
        for old in &q.candidates {
            if next.len() >= self.cfg.queue_cap {
                break;
            }
            if seen.insert(old.tile) {
                next.push(*old);
            }
        }
        q.candidates = next.into();
    }

    /// Forgets a departed session entirely (queue, counters,
    /// outstanding pushes).
    pub fn drop_session(&mut self, sid: u64) {
        self.sessions.remove(&sid);
        if self.rr_cursor == Some(sid) {
            self.rr_cursor = None;
        }
    }

    /// Settles a served request against outstanding pushes: returns
    /// `true` (and books a useful push) iff `tile` was pushed to
    /// `sid` strictly before the session asked for it. Also drops the
    /// tile from the session's pending candidates — the request
    /// overtook the push.
    pub fn note_request(&mut self, sid: u64, tile: TileId) -> bool {
        let Some(q) = self.sessions.get_mut(&sid) else {
            return false;
        };
        q.candidates.retain(|c| c.tile != tile);
        let used = q.outstanding.remove(&tile);
        if used {
            self.stats.used += 1;
        }
        used
    }

    /// Picks up to `budget` `(session, tile)` pushes among `writable`
    /// sessions (sockets ready, write queues with headroom), books
    /// them as pushed, and returns them in drain order. `is_resident`
    /// vets each `(session, tile)` candidate at the moment of the pick
    /// (sessions may browse different dataset namespaces) — an evicted
    /// tile has nothing to push and is silently discarded (its slot
    /// goes to the next candidate).
    pub fn plan(
        &mut self,
        budget: usize,
        writable: &[u64],
        mut is_resident: impl FnMut(u64, TileId) -> bool,
    ) -> Vec<(u64, TileId)> {
        match self.cfg.policy {
            PushPolicy::Utility => self.plan_utility(budget, writable, &mut is_resident),
            PushPolicy::RoundRobin => self.plan_round_robin(budget, writable, &mut is_resident),
        }
    }

    fn plan_utility(
        &mut self,
        budget: usize,
        writable: &[u64],
        is_resident: &mut dyn FnMut(u64, TileId) -> bool,
    ) -> Vec<(u64, TileId)> {
        let mut picks = Vec::new();
        // Sessions are re-scored after every pick: each push moves its
        // session's fairness denominator, which is the point — the
        // budget spreads instead of dumping on the single best queue.
        while picks.len() < budget {
            let min_pushed = self.sessions.values().map(|q| q.pushed).min().unwrap_or(0);
            let mut best: Option<(f64, u64)> = None;
            let mut sids: Vec<u64> = writable
                .iter()
                .copied()
                .filter(|sid| self.sessions.contains_key(sid))
                .collect();
            sids.sort_unstable();
            for sid in sids {
                let q = &self.sessions[&sid];
                let Some(front) = q.candidates.front() else {
                    continue;
                };
                let u = utility(front, q, min_pushed);
                if u <= 0.0 {
                    continue;
                }
                // Strict > keeps the tie-break on the smaller session
                // id — deterministic on every host.
                if best.is_none_or(|(bu, _)| u > bu) {
                    best = Some((u, sid));
                }
            }
            let Some((_, sid)) = best else {
                break;
            };
            let q = self.sessions.get_mut(&sid).expect("scored session");
            let cand = q.candidates.pop_front().expect("non-empty queue");
            if !is_resident(sid, cand.tile) {
                // Evicted since refill: discard, re-score.
                continue;
            }
            q.pushed += 1;
            q.outstanding.insert(cand.tile);
            self.stats.pushed += 1;
            picks.push((sid, cand.tile));
        }
        picks
    }

    fn plan_round_robin(
        &mut self,
        budget: usize,
        writable: &[u64],
        is_resident: &mut dyn FnMut(u64, TileId) -> bool,
    ) -> Vec<(u64, TileId)> {
        let mut sids: Vec<u64> = writable
            .iter()
            .copied()
            .filter(|sid| self.sessions.contains_key(sid))
            .collect();
        sids.sort_unstable();
        if sids.is_empty() {
            return Vec::new();
        }
        // Resume after the last session served in the previous tick so
        // the cycle is fair across ticks, not just within one.
        let start = match self.rr_cursor {
            Some(cur) => sids.iter().position(|&s| s > cur).unwrap_or(0),
            None => 0,
        };
        let mut picks = Vec::new();
        let mut idle_rounds = 0;
        let mut i = start;
        while picks.len() < budget && idle_rounds < sids.len() {
            let sid = sids[i % sids.len()];
            i += 1;
            let q = self.sessions.get_mut(&sid).expect("filtered session");
            match q.candidates.pop_front() {
                Some(cand) if is_resident(sid, cand.tile) => {
                    q.pushed += 1;
                    q.outstanding.insert(cand.tile);
                    self.stats.pushed += 1;
                    self.rr_cursor = Some(sid);
                    picks.push((sid, cand.tile));
                    idle_rounds = 0;
                }
                Some(_) => {
                    // Evicted candidate: this session's turn is spent,
                    // but the round is not idle — it consumed a tile.
                    self.rr_cursor = Some(sid);
                    idle_rounds = 0;
                }
                None => idle_rounds += 1,
            }
        }
        picks
    }

    /// Cumulative planner stats.
    pub fn stats(&self) -> PushStats {
        self.stats
    }

    /// Live sessions with at least one queued candidate.
    pub fn pending_sessions(&self) -> usize {
        self.sessions
            .values()
            .filter(|q| !q.candidates.is_empty())
            .count()
    }
}

/// The utility model (module docs): likelihood × staleness × fairness
/// × phase factor.
fn utility(c: &Candidate, q: &SessionQueue, min_pushed: u64) -> f64 {
    let likelihood = 1.0 / (1.0 + c.rank as f64);
    let age = q.epoch.saturating_sub(c.epoch).min(62);
    let staleness = 1.0 / (1u64 << age) as f64;
    let fairness = (1.0 + min_pushed as f64) / (1.0 + q.pushed as f64);
    let phase = match q.phase {
        Some(TrafficPhase::Burst) => 0.0,
        Some(TrafficPhase::Dwell) | None => 1.0,
        Some(TrafficPhase::Idle) => 0.25,
    };
    likelihood * staleness * fairness * phase
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u32) -> TileId {
        TileId::new(3, 0, n)
    }

    fn planner(policy: PushPolicy) -> PushPlanner {
        PushPlanner::new(PushConfig {
            policy,
            ..PushConfig::default()
        })
    }

    #[test]
    fn utility_prefers_dwell_over_idle_and_skips_burst() {
        let mut p = planner(PushPolicy::Utility);
        p.refill(1, &[tid(1)], Some(TrafficPhase::Burst));
        p.refill(2, &[tid(2)], Some(TrafficPhase::Idle));
        p.refill(3, &[tid(3)], Some(TrafficPhase::Dwell));
        let picks = p.plan(2, &[1, 2, 3], |_, _| true);
        assert_eq!(picks, vec![(3, tid(3)), (2, tid(2))]);
        // The burst session's candidate is never pushed, even with
        // budget to spare.
        let more = p.plan(4, &[1, 2, 3], |_, _| true);
        assert!(more.is_empty(), "burst utility is zero: {more:?}");
    }

    #[test]
    fn staleness_decays_across_refills() {
        let mut p = planner(PushPolicy::Utility);
        // Session 1's candidate survives two refills unconfirmed;
        // session 2's is fresh. Equal rank, equal fairness — the
        // fresh one must win.
        p.refill(1, &[tid(1)], Some(TrafficPhase::Dwell));
        p.refill(1, &[], Some(TrafficPhase::Dwell));
        p.refill(1, &[], Some(TrafficPhase::Dwell));
        p.refill(2, &[tid(2)], Some(TrafficPhase::Dwell));
        let picks = p.plan(1, &[1, 2], |_, _| true);
        assert_eq!(picks, vec![(2, tid(2))]);
    }

    #[test]
    fn fairness_spreads_the_budget_across_sessions() {
        let mut p = planner(PushPolicy::Utility);
        p.refill(1, &[tid(1), tid(2), tid(3)], Some(TrafficPhase::Dwell));
        p.refill(2, &[tid(11), tid(12)], Some(TrafficPhase::Dwell));
        let picks = p.plan(4, &[1, 2], |_, _| true);
        let s1 = picks.iter().filter(|(s, _)| *s == 1).count();
        let s2 = picks.iter().filter(|(s, _)| *s == 2).count();
        assert_eq!(picks.len(), 4);
        assert_eq!(
            (s1, s2),
            (2, 2),
            "fairness must alternate, not drain one queue: {picks:?}"
        );
        // Rank order within each session is preserved.
        assert_eq!(picks[0], (1, tid(1)), "tie at equal utility → lower sid");
        assert!(picks.contains(&(2, tid(11))));
    }

    #[test]
    fn unwritable_sessions_are_never_planned() {
        let mut p = planner(PushPolicy::Utility);
        p.refill(1, &[tid(1)], Some(TrafficPhase::Dwell));
        p.refill(2, &[tid(2)], Some(TrafficPhase::Dwell));
        let picks = p.plan(8, &[2], |_, _| true);
        assert_eq!(picks, vec![(2, tid(2))]);
    }

    #[test]
    fn evicted_candidates_are_discarded_not_pushed() {
        let mut p = planner(PushPolicy::Utility);
        p.refill(1, &[tid(1), tid(2)], Some(TrafficPhase::Dwell));
        let picks = p.plan(2, &[1], |_, t| t != tid(1));
        assert_eq!(picks, vec![(1, tid(2))]);
        assert_eq!(p.stats().pushed, 1, "an evicted tile is not a push");
    }

    #[test]
    fn note_request_settles_used_once() {
        let mut p = planner(PushPolicy::Utility);
        p.refill(1, &[tid(1)], Some(TrafficPhase::Dwell));
        assert_eq!(p.plan(1, &[1], |_, _| true), vec![(1, tid(1))]);
        assert!(p.note_request(1, tid(1)), "pushed before requested");
        assert!(!p.note_request(1, tid(1)), "settled only once");
        assert_eq!(p.stats(), PushStats { pushed: 1, used: 1 });
        // A tile never pushed is not a useful push, and the request
        // drops it from the pending queue (the request overtook it).
        p.refill(1, &[tid(2)], Some(TrafficPhase::Dwell));
        assert!(!p.note_request(1, tid(2)));
        assert!(p.plan(1, &[1], |_, _| true).is_empty());
    }

    #[test]
    fn refill_keeps_unconfirmed_leftovers_and_caps_the_queue() {
        let mut p = PushPlanner::new(PushConfig {
            policy: PushPolicy::Utility,
            queue_cap: 3,
        });
        p.refill(1, &[tid(1), tid(2)], Some(TrafficPhase::Dwell));
        // New list confirms nothing; leftovers age behind it.
        p.refill(1, &[tid(3), tid(4)], Some(TrafficPhase::Dwell));
        let picks = p.plan(4, &[1], |_, _| true);
        assert_eq!(
            picks,
            vec![(1, tid(3)), (1, tid(4)), (1, tid(1))],
            "fresh first, leftover behind, cap at 3"
        );
    }

    #[test]
    fn round_robin_cycles_sessions_across_ticks() {
        let mut p = planner(PushPolicy::RoundRobin);
        p.refill(1, &[tid(1), tid(2)], Some(TrafficPhase::Dwell));
        p.refill(2, &[tid(11), tid(12)], Some(TrafficPhase::Burst));
        p.refill(3, &[tid(21)], Some(TrafficPhase::Idle));
        // The baseline ignores phase entirely — that is the A/B.
        let t1 = p.plan(2, &[1, 2, 3], |_, _| true);
        assert_eq!(t1, vec![(1, tid(1)), (2, tid(11))]);
        let t2 = p.plan(2, &[1, 2, 3], |_, _| true);
        assert_eq!(t2, vec![(3, tid(21)), (1, tid(2))], "cursor resumes");
    }

    #[test]
    fn drop_session_forgets_everything() {
        let mut p = planner(PushPolicy::Utility);
        p.refill(1, &[tid(1)], Some(TrafficPhase::Dwell));
        p.plan(1, &[1], |_, _| true);
        p.drop_session(1);
        assert!(!p.note_request(1, tid(1)));
        assert_eq!(p.pending_sessions(), 0);
        assert_eq!(p.stats().pushed, 1, "history survives, state does not");
    }
}
