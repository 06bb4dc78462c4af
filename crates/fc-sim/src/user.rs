//! The behavioural user agent.
//!
//! The agent explores the tile pyramid exactly as the paper's analysis
//! model describes its study participants (§4.2.1, §5.3.5):
//!
//! * **Foraging** — scan coarse zoom levels with pans (plus occasional
//!   one-level "peek" zooms) looking for snowy quadrants inside the task
//!   region;
//! * **Navigation** — zoom down a greedy quadrant path to the target
//!   level, and zoom back up when a neighbourhood is exhausted;
//! * **Sensemaking** — pan across neighbouring tiles at the target
//!   level, collecting tiles that satisfy the task predicate, with
//!   occasional zoom-out/zoom-in sibling comparisons.
//!
//! Every emitted request carries its ground-truth phase label. Phase
//! labels follow the paper's semantics: transit zooms are Navigation,
//! while peek/compare zooms keep the phase they serve (Foraging /
//! Sensemaking) — this is what keeps the Table-1 move flags from being
//! perfectly separable, as in the hand-labeled study data.

use crate::dataset::StudyDataset;
use crate::task::TaskSpec;
use crate::trace::{Trace, TraceStep};
use fc_core::Phase;
use fc_tiles::{Move, Quadrant, TileId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Per-user behavioural parameters (the 18 study users differ in these).
#[derive(Debug, Clone, Copy)]
pub(crate) struct UserParams {
    /// RNG seed.
    pub seed: u64,
    /// Probability of a non-greedy pan while foraging.
    pub exploration: f64,
    /// Probability of picking the second-best quadrant when descending.
    pub error_rate: f64,
    /// Zoom level used for foraging scans.
    pub coarse_level: u8,
    /// Probability of a one-level peek (zoom-in + zoom-out) in Foraging.
    pub forage_peek: f64,
    /// Probability of a sibling comparison (zoom-out + zoom-in) in
    /// Sensemaking.
    pub sense_peek: f64,
    /// Pans tolerated in Sensemaking without finding a qualifying tile
    /// before giving up on the neighbourhood.
    pub patience: usize,
    /// Coarse tiles the user examines since the last dive before they
    /// commit to zooming in (scanning behaviour of the Foraging phase).
    pub min_forage_scan: usize,
    /// Hard cap on requests per session.
    pub max_steps: usize,
}

impl UserParams {
    /// Deterministic parameters for study user `i` (0..17), spanning the
    /// behaviour groups visible in the paper's Fig. 8c–e.
    pub(crate) fn study_user(i: usize) -> Self {
        let group = i % 3;
        Self {
            seed: 0xA11CE ^ ((i as u64) << 8),
            exploration: 0.05 + 0.05 * group as f64 + 0.01 * (i / 3) as f64,
            error_rate: 0.04 + 0.03 * group as f64,
            coarse_level: 1 + (i % 2) as u8,
            forage_peek: match group {
                0 => 0.10,
                1 => 0.20,
                _ => 0.05,
            },
            sense_peek: match group {
                0 => 0.15,
                1 => 0.05,
                _ => 0.25,
            },
            patience: 2 + group,
            min_forage_scan: 3 + group + (i % 2),
            max_steps: 160,
        }
    }
}

/// Agent state machine phases (internal; maps to emitted labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AgentState {
    Forage,
    NavDown,
    Sense,
    NavUp,
}

/// Runs one simulated session and returns the labeled trace.
pub(crate) fn run_session(
    dataset: &StudyDataset,
    task: &TaskSpec,
    params: &UserParams,
    user: usize,
) -> Trace {
    let geometry = dataset.pyramid.geometry();
    let coarse = params
        .coarse_level
        .min(geometry.levels.saturating_sub(2))
        .max(1);
    let mut agent = Agent {
        dataset,
        task,
        p: *params,
        rng: StdRng::seed_from_u64(params.seed ^ ((task.id as u64) << 32)),
        geometry,
        coarse,
        pos: TileId::ROOT,
        steps: Vec::new(),
        collected: HashSet::new(),
        visited_deep: HashSet::new(),
        visited_coarse: HashSet::new(),
        pans_since_find: 0,
        scanned_since_dive: 0,
    };
    agent.run();
    Trace {
        user,
        task: task.id,
        steps: agent.steps,
    }
}

struct Agent<'a> {
    dataset: &'a StudyDataset,
    task: &'a TaskSpec,
    p: UserParams,
    rng: StdRng,
    geometry: fc_tiles::Geometry,
    /// Foraging level, clamped to the pyramid depth.
    coarse: u8,
    pos: TileId,
    steps: Vec<TraceStep>,
    collected: HashSet<TileId>,
    visited_deep: HashSet<TileId>,
    visited_coarse: HashSet<TileId>,
    pans_since_find: usize,
    scanned_since_dive: usize,
}

impl Agent<'_> {
    fn run(&mut self) {
        // Session opens at the root overview.
        self.emit(self.pos, None, Phase::Foraging);
        let mut state = AgentState::NavDown; // descend to the coarse level first
        while self.steps.len() < self.p.max_steps && self.collected.len() < self.task.tiles_needed {
            state = match state {
                AgentState::Forage => self.forage(),
                AgentState::NavDown => self.nav_down(),
                AgentState::Sense => self.sense(),
                AgentState::NavUp => self.nav_up(),
            };
        }
    }

    fn emit(&mut self, tile: TileId, mv: Option<Move>, phase: Phase) {
        self.pos = tile;
        self.steps.push(TraceStep { tile, mv, phase });
        if tile.level == self.task.target_level {
            self.visited_deep.insert(tile);
        }
        if tile.level == self.coarse {
            self.visited_coarse.insert(tile);
        }
    }

    fn do_move(&mut self, mv: Move, phase: Phase) -> bool {
        match self.geometry.apply(self.pos, mv) {
            Some(next) => {
                self.emit(next, Some(mv), phase);
                true
            }
            None => false,
        }
    }

    /// Fraction of a tile's cells meeting the task threshold (what the
    /// user "sees" as snow coverage), with personal estimation noise.
    fn snow_score(&mut self, id: TileId) -> f64 {
        let base = self
            .dataset
            .tile_fraction_above(id, &self.task.attr, self.task.threshold)
            .unwrap_or(0.0);
        (base + self.rng.gen_range(-0.02..0.02)).max(0.0)
    }

    /// Histogram similarity between two tiles in [0, 1], from the same
    /// shared metadata the SB recommender reads.
    fn visual_similarity(&self, a: TileId, b: TileId) -> f64 {
        let store = self.dataset.pyramid.store();
        match (store.meta_vec(a, "sig_hist"), store.meta_vec(b, "sig_hist")) {
            (Some(x), Some(y)) => {
                let d = fc_core::sb::chi_squared(&x, &y);
                (1.0 - d).clamp(0.0, 1.0)
            }
            _ => 0.5,
        }
    }

    fn qualifies(&self, id: TileId) -> bool {
        // A tile "counts" only when snow clearly dominates it; this keeps
        // users hunting across several neighbourhoods, matching the
        // paper's session lengths (35/25/17 requests on average).
        self.dataset
            .tile_fraction_above(id, &self.task.attr, self.task.threshold)
            .is_some_and(|f| f >= 0.55)
    }

    /// The best zoom-in quadrant of the current tile, restricted to
    /// children overlapping the task region; `None` if every child is
    /// barren or off-region.
    fn best_quadrant(&mut self) -> Option<(Quadrant, f64)> {
        let mut scored: Vec<(Quadrant, f64)> = Quadrant::ALL
            .into_iter()
            .filter_map(|q| {
                let child = self.geometry.apply(self.pos, Move::ZoomIn(q))?;
                if !self.task.region.overlaps(child) {
                    return None;
                }
                // Prefer unexplored ground at the target level.
                let penalty = if child.level == self.task.target_level
                    && self.visited_deep.contains(&child)
                {
                    0.5
                } else {
                    0.0
                };
                Some((q, self.snow_score(child) - penalty))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));
        // Occasional suboptimal choice (human error).
        if scored.len() >= 2 && self.rng.gen_bool(self.p.error_rate) {
            return Some(scored[1]);
        }
        scored.first().copied()
    }

    /// Foraging: scan the coarse level for a promising quadrant.
    fn forage(&mut self) -> AgentState {
        debug_assert_eq!(self.pos.level, self.coarse);
        self.scanned_since_dive += 1;
        // Occasional peek: zoom in one level and back out, still foraging.
        if self.rng.gen_bool(self.p.forage_peek) && self.pos.level + 1 < self.geometry.levels {
            if let Some((q, _)) = self.best_quadrant() {
                if self.do_move(Move::ZoomIn(q), Phase::Foraging) {
                    self.do_move(Move::ZoomOut, Phase::Foraging);
                }
                return AgentState::Forage;
            }
        }
        // Commit to a descent when the current tile looks promising and
        // the user has scanned enough of the neighbourhood to be
        // confident it is the best lead.
        if self.task.region.overlaps(self.pos) && self.scanned_since_dive >= self.p.min_forage_scan
        {
            if let Some((_, score)) = self.best_quadrant() {
                if score > 0.08 {
                    self.scanned_since_dive = 0;
                    return AgentState::NavDown;
                }
            }
        }
        // Otherwise pan: toward the region if outside, else to the best
        // unvisited coarse tile; occasionally a random exploration pan.
        let legal_pans: Vec<Move> = self
            .geometry
            .legal_moves(self.pos)
            .into_iter()
            .filter(|m| m.is_pan())
            .collect();
        if legal_pans.is_empty() {
            return AgentState::NavDown; // degenerate geometry: just dive
        }
        let mv = if self.rng.gen_bool(self.p.exploration) {
            legal_pans[self.rng.gen_range(0..legal_pans.len())]
        } else if !self.task.region.overlaps(self.pos) {
            self.pan_toward_region(&legal_pans)
        } else {
            self.pan_to_best_coarse(&legal_pans)
        };
        self.do_move(mv, Phase::Foraging);
        AgentState::Forage
    }

    fn pan_toward_region(&mut self, legal: &[Move]) -> Move {
        let center = self.task.region.center().project_to(self.pos.level);
        let dy = i64::from(center.y) - i64::from(self.pos.y);
        let dx = i64::from(center.x) - i64::from(self.pos.x);
        let prefer = if dy.abs() >= dx.abs() {
            if dy > 0 {
                Move::PanDown
            } else {
                Move::PanUp
            }
        } else if dx > 0 {
            Move::PanRight
        } else {
            Move::PanLeft
        };
        if legal.contains(&prefer) {
            prefer
        } else {
            legal[self.rng.gen_range(0..legal.len())]
        }
    }

    fn pan_to_best_coarse(&mut self, legal: &[Move]) -> Move {
        let scored: Vec<(Move, f64)> = legal
            .iter()
            .map(|&m| {
                let next = self.geometry.apply(self.pos, m).expect("legal move");
                let visited_penalty = if self.visited_coarse.contains(&next) {
                    0.3
                } else {
                    0.0
                };
                let region_bonus = if self.task.region.overlaps(next) {
                    0.2
                } else {
                    0.0
                };
                (m, self.snow_score(next) + region_bonus - visited_penalty)
            })
            .collect();
        scored
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(m, _)| m)
            .expect("legal is nonempty")
    }

    /// Navigation down: greedy quadrant descent to the target level.
    fn nav_down(&mut self) -> AgentState {
        if self.pos.level >= self.task.target_level {
            return AgentState::Sense;
        }
        match self.best_quadrant() {
            Some((q, score)) if score > 0.01 || self.pos.level < self.coarse => {
                if self.do_move(Move::ZoomIn(q), Phase::Navigation) {
                    AgentState::NavDown
                } else {
                    AgentState::NavUp
                }
            }
            // Any legal zoom-in when still descending to coarse level.
            _ if self.pos.level < self.coarse => {
                let q = Quadrant::ALL[self.rng.gen_range(0..4)];
                if self.do_move(Move::ZoomIn(q), Phase::Navigation) {
                    AgentState::NavDown
                } else {
                    AgentState::NavUp
                }
            }
            // Barren path: back out.
            _ => AgentState::NavUp,
        }
    }

    /// Sensemaking: test the current tile, pan across neighbours.
    fn sense(&mut self) -> AgentState {
        let far_enough = self
            .collected
            .iter()
            .all(|c| c.manhattan(&self.pos) >= self.task.min_separation);
        if self.qualifies(self.pos) && far_enough && !self.collected.contains(&self.pos) {
            self.collected.insert(self.pos);
            self.pans_since_find = 0;
            if self.collected.len() >= self.task.tiles_needed {
                return AgentState::Sense; // loop terminates in run()
            }
        }
        // Occasional sibling comparison: zoom out and back into a
        // different quadrant — Sensemaking-labeled zooms.
        if self.rng.gen_bool(self.p.sense_peek) && self.pos.level > 0 {
            let came_from = self.pos;
            if self.do_move(Move::ZoomOut, Phase::Sensemaking) {
                let mut options: Vec<Quadrant> = Quadrant::ALL
                    .into_iter()
                    .filter(|&q| {
                        self.geometry
                            .apply(self.pos, Move::ZoomIn(q))
                            .is_some_and(|t| t != came_from && self.task.region.overlaps(t))
                    })
                    .collect();
                if options.is_empty() {
                    options = vec![Quadrant::Nw];
                }
                let q = options[self.rng.gen_range(0..options.len())];
                self.do_move(Move::ZoomIn(q), Phase::Sensemaking);
                return AgentState::Sense;
            }
        }
        // Pan to the most promising unvisited neighbour in the region.
        let pans: Vec<(Move, TileId)> = self
            .geometry
            .legal_moves(self.pos)
            .into_iter()
            .filter(|m| m.is_pan())
            .filter_map(|m| self.geometry.apply(self.pos, m).map(|t| (m, t)))
            .filter(|(_, t)| self.task.region.overlaps(*t))
            .collect();
        let unvisited: Vec<(Move, TileId)> = pans
            .iter()
            .copied()
            .filter(|(_, t)| !self.visited_deep.contains(t))
            .collect();
        // The user hunts for tiles that *look like* what they have found:
        // blend snow coverage with visual similarity to the current tile
        // (the same histogram signal the SB recommender exploits), and
        // pick stochastically between the top two leads.
        let mut scored: Vec<(Move, TileId, f64)> = unvisited
            .into_iter()
            .map(|(m, t)| {
                let sim = self.visual_similarity(self.pos, t);
                let snow = self.snow_score(t);
                (m, t, 0.55 * snow + 0.45 * sim)
            })
            .collect();
        scored.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
        if scored.len() >= 2 && self.rng.gen_bool(0.35) {
            scored.swap(0, 1);
        }
        let best = scored.first().copied();
        match best {
            Some((m, _, score))
                if (score > 0.005 || self.pans_since_find < 2)
                    && self.pans_since_find <= self.p.patience =>
            {
                self.pans_since_find += 1;
                self.do_move(m, Phase::Sensemaking);
                AgentState::Sense
            }
            _ => {
                self.pans_since_find = 0;
                AgentState::NavUp
            }
        }
    }

    /// Navigation up: zoom back out to the coarse level.
    fn nav_up(&mut self) -> AgentState {
        if self.pos.level <= self.coarse {
            return AgentState::Forage;
        }
        if self.do_move(Move::ZoomOut, Phase::Navigation) {
            AgentState::NavUp
        } else {
            AgentState::Forage
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, StudyDataset};

    fn tiny() -> StudyDataset {
        StudyDataset::build(DatasetConfig::tiny())
    }

    #[test]
    fn session_is_deterministic_and_legal() {
        let ds = tiny();
        let tasks = TaskSpec::study_tasks(ds.pyramid.geometry().levels);
        let p = UserParams::study_user(0);
        let a = run_session(&ds, &tasks[0], &p, 0);
        let b = run_session(&ds, &tasks[0], &p, 0);
        assert_eq!(a, b, "same seed → same trace");
        assert!(!a.is_empty());
        // Every transition is a legal single move.
        let g = ds.pyramid.geometry();
        for w in a.steps.windows(2) {
            let mv = w[1].mv.expect("non-initial steps carry moves");
            assert_eq!(
                g.apply(w[0].tile, mv),
                Some(w[1].tile),
                "step {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        assert!(a.steps[0].mv.is_none());
    }

    #[test]
    fn different_users_behave_differently() {
        let ds = tiny();
        let tasks = TaskSpec::study_tasks(ds.pyramid.geometry().levels);
        let a = run_session(&ds, &tasks[0], &UserParams::study_user(0), 0);
        let b = run_session(&ds, &tasks[0], &UserParams::study_user(1), 1);
        assert_ne!(a.steps, b.steps);
    }

    #[test]
    fn sessions_visit_all_three_phases() {
        let ds = tiny();
        let tasks = TaskSpec::study_tasks(ds.pyramid.geometry().levels);
        let mut seen = [false; 3];
        for u in 0..4 {
            let t = run_session(&ds, &tasks[0], &UserParams::study_user(u), u);
            for s in &t.steps {
                seen[s.phase.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "phases seen: {seen:?}");
    }

    #[test]
    fn sessions_reach_the_target_level_and_terminate() {
        let ds = tiny();
        let tasks = TaskSpec::study_tasks(ds.pyramid.geometry().levels);
        for (ti, task) in tasks.iter().enumerate() {
            let t = run_session(&ds, task, &UserParams::study_user(2), 2);
            // Peek gestures emit two moves, so a session may overshoot
            // the cap by one request.
            assert!(t.len() <= UserParams::study_user(2).max_steps + 2);
            assert!(
                t.steps.iter().any(|s| s.tile.level == task.target_level),
                "task {ti} never reached target level"
            );
        }
    }
}
