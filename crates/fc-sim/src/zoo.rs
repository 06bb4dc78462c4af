//! The deterministic workload zoo: named, seeded exploration traces
//! with **declared traffic structure**, built for evaluating the
//! burst-aware prefetch scheduler ([`fc_core::BurstConfig`]).
//!
//! Each [`Workload`] carries three parallel tracks per step: the tile
//! request itself (a [`Trace`] the multi-user harness can replay), a
//! **think time** charged to the session timeline before the request
//! (`Middleware::note_idle`), and the **declared traffic phase** the
//! generator intended. The think times are drawn from bands strictly
//! inside the default classifier's hysteresis thresholds — burst steps
//! think 20–180 ms (≤ `burst_enter`), dwell steps 1–8 s (between
//! `burst_exit` and `idle_exit`), idle gaps 35–60 s (≥ `idle_enter`) —
//! so a default-config [`fc_core::BurstTracker`] must recover the
//! declared sequence exactly from step 1 on (step 0 has no gap and
//! stays in the tracker's initial phase). The zoo tests assert this.
//!
//! Every generator is a pure function of `(geometry, steps, seed,
//! session)` driven by a splitmix64 stream: same inputs, bit-identical
//! workload, every time. The `session` salt lets the multi-user
//! harness hand each concurrent analyst its own variant while
//! generators keep any *shared* structure (the flash-crowd target) on
//! the base seed.

use crate::multiuser::{
    fold_response, run, Cursor, MultiUserConfig, RunConfig, RunReport, FNV_OFFSET,
};
use crate::trace::{Trace, TraceStep};
use fc_core::engine::heuristic_phase;
use fc_core::{Middleware, MiddlewareStats, PredictionEngine, Request, TrafficPhase};
use fc_tiles::{Geometry, Move, Pyramid, Quadrant, TileId};
use std::sync::Arc;
use std::time::Duration;

/// The zoo roster, in registry order.
pub const ZOO_NAMES: [&str; 6] = [
    "bursty-pan-sprint",
    "zoom-dive",
    "spiral-sweep",
    "grid-sweep",
    "revisit-loop",
    "flash-crowd",
];

/// Think-time band for burst-paced steps (strictly ≤ the default
/// `burst_enter` of 200 ms).
const BURST_THINK_MS: (u64, u64) = (20, 180);
/// Think-time band for dwell-paced steps (strictly between the default
/// `burst_exit` 500 ms and `idle_exit` 10 s).
const DWELL_THINK_MS: (u64, u64) = (1_000, 8_000);
/// Think-time band for idle gaps (strictly ≥ the default `idle_enter`
/// of 30 s).
const IDLE_THINK_MS: (u64, u64) = (35_000, 60_000);

/// One zoo entry: a replayable trace plus its think schedule and the
/// traffic structure the generator declared while emitting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Registry name (one of [`ZOO_NAMES`]).
    pub name: &'static str,
    /// Seed the generator ran on (before session salting).
    pub seed: u64,
    /// Session index this variant was built for (0 = canonical).
    pub session: usize,
    /// The tile-request trace (ground-truth analysis-phase labels on
    /// each step, like the study traces).
    pub trace: Trace,
    /// Think time charged to the session timeline *before* each step;
    /// `think[0]` is zero (the first request has no preceding gap).
    pub think: Vec<Duration>,
    /// The traffic phase the generator intended for each step;
    /// `declared[0]` is always [`TrafficPhase::Burst`] (the tracker's
    /// initial state — a single request carries no gap evidence).
    pub declared: Vec<TrafficPhase>,
}

impl Workload {
    /// Steps in the workload.
    pub fn len(&self) -> usize {
        self.trace.steps.len()
    }

    /// Whether the workload has no steps.
    pub fn is_empty(&self) -> bool {
        self.trace.steps.is_empty()
    }
}

/// splitmix64 — the zoo's house PRNG: tiny, seedable, and identical
/// on every platform.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic generator stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `[lo, hi]` (inclusive).
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next() % (hi - lo + 1)
    }

    fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range(lo as u64, hi as u64) as usize
    }
}

/// Trace-under-construction: keeps the three tracks in lockstep and
/// refuses illegal moves so generators can probe directions freely.
struct Builder {
    g: Geometry,
    cur: TileId,
    steps: Vec<TraceStep>,
    think: Vec<Duration>,
    declared: Vec<TrafficPhase>,
}

impl Builder {
    fn start(g: Geometry, origin: TileId) -> Self {
        assert!(g.contains(origin), "origin {origin} outside geometry");
        let phase = heuristic_phase(g, &Request::initial(origin));
        Self {
            g,
            cur: origin,
            steps: vec![TraceStep {
                tile: origin,
                mv: None,
                phase,
            }],
            think: vec![Duration::ZERO],
            declared: vec![TrafficPhase::Burst],
        }
    }

    fn len(&self) -> usize {
        self.steps.len()
    }

    /// Think time for a `pace`-classified step.
    fn think_for(pace: TrafficPhase, rng: &mut Rng) -> Duration {
        let (lo, hi) = match pace {
            TrafficPhase::Burst => BURST_THINK_MS,
            TrafficPhase::Dwell => DWELL_THINK_MS,
            TrafficPhase::Idle => IDLE_THINK_MS,
        };
        Duration::from_millis(rng.range(lo, hi))
    }

    /// Pushes one step if `mv` is legal from the current tile; returns
    /// whether it advanced.
    fn push(&mut self, mv: Move, pace: TrafficPhase, rng: &mut Rng) -> bool {
        let Some(next) = self.g.apply(self.cur, mv) else {
            return false;
        };
        if !self.g.contains(next) {
            return false;
        }
        self.cur = next;
        let phase = heuristic_phase(self.g, &Request::new(next, Some(mv)));
        self.steps.push(TraceStep {
            tile: next,
            mv: Some(mv),
            phase,
        });
        self.think.push(Self::think_for(pace, rng));
        self.declared.push(pace);
        true
    }

    /// Pushes `mv`, falling back to the first legal move in `alts` —
    /// generators at a dataset edge turn instead of stalling.
    fn push_or(&mut self, mv: Move, alts: &[Move], pace: TrafficPhase, rng: &mut Rng) {
        if self.push(mv, pace, rng) {
            return;
        }
        for &alt in alts {
            if self.push(alt, pace, rng) {
                return;
            }
        }
        panic!("no legal move from {} among {mv:?} / {alts:?}", self.cur);
    }

    fn finish(self, name: &'static str, seed: u64, session: usize, user: usize) -> Workload {
        debug_assert_eq!(self.steps.len(), self.think.len());
        debug_assert_eq!(self.steps.len(), self.declared.len());
        Workload {
            name,
            seed,
            session,
            trace: Trace {
                user,
                task: 0,
                steps: self.steps,
            },
            think: self.think,
            declared: self.declared,
        }
    }
}

/// Per-session salt: session 0 keeps the base seed so the canonical
/// variant is exactly `build(name, g, steps, seed, 0)`.
fn session_seed(seed: u64, session: usize) -> u64 {
    if session == 0 {
        seed
    } else {
        let mut s = seed ^ (session as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        splitmix64(&mut s)
    }
}

/// Out-and-back pan sprints: a burst of rapid pans one way along a
/// row, a dwell pause (deep prefetch window), then the sprint *back*
/// over the same tiles — the workload where burst-aware residency
/// pays: tiles fetched on the way out are re-requested on the return.
pub fn bursty_pan_sprint(g: Geometry, steps: usize, seed: u64, session: usize) -> Workload {
    let mut rng = Rng::new(session_seed(seed, session) ^ 0xb0b1);
    let level = g.levels - 1;
    let (rows, cols) = g.tiles_at(level);
    let y = rng.range(0, u64::from(rows) - 1) as u32;
    let origin = TileId::new(level, y, rng.range(0, u64::from(cols) / 4) as u32);
    let mut b = Builder::start(g, origin);
    let mut outward = true;
    while b.len() < steps {
        let sprint = rng.range_usize(4, 9).min(steps - b.len());
        let (fwd, back) = if outward {
            (Move::PanRight, Move::PanLeft)
        } else {
            (Move::PanLeft, Move::PanRight)
        };
        for _ in 0..sprint {
            if b.len() >= steps {
                break;
            }
            b.push_or(
                fwd,
                &[back, Move::PanDown, Move::PanUp],
                TrafficPhase::Burst,
                &mut rng,
            );
        }
        // Dwell at the turn-around point: 1–2 slow steps while the
        // scheduler's deep run covers the return leg.
        for _ in 0..rng.range_usize(1, 2) {
            if b.len() >= steps {
                break;
            }
            b.push_or(
                back,
                &[fwd, Move::PanDown, Move::PanUp],
                TrafficPhase::Dwell,
                &mut rng,
            );
        }
        outward = !outward;
    }
    b.finish("bursty-pan-sprint", seed, session, session)
}

/// Zoom dives: dwell-paced context panning at a coarse level
/// (Foraging), a Navigation zoom descent to the deepest level, a
/// burst of detail pans there (Sensemaking), then the climb back out
/// — with an idle think-break every third dive. Drives all three
/// analysis phases *and* all three traffic phases.
pub fn zoom_dive(g: Geometry, steps: usize, seed: u64, session: usize) -> Workload {
    let mut rng = Rng::new(session_seed(seed, session) ^ 0xd1fe);
    assert!(g.levels >= 2, "zoom-dive needs at least two levels");
    let top = g.levels.saturating_sub(2).min(1);
    let (rows, cols) = g.tiles_at(top);
    assert!(
        rows * cols > 1,
        "zoom-dive needs more than one tile at its survey level L{top}"
    );
    let origin = TileId::new(
        top,
        rng.range(0, u64::from(rows) - 1) as u32,
        rng.range(0, u64::from(cols) - 1) as u32,
    );
    let mut b = Builder::start(g, origin);
    let mut dive = 0usize;
    while b.len() < steps {
        // Coarse-level survey: slow pans hunting the next region.
        for _ in 0..rng.range_usize(1, 3) {
            if b.len() >= steps {
                break;
            }
            let mv = if rng.range(0, 1) == 0 {
                Move::PanRight
            } else {
                Move::PanDown
            };
            b.push_or(
                mv,
                &[Move::PanLeft, Move::PanUp],
                TrafficPhase::Dwell,
                &mut rng,
            );
        }
        // Descend to the deepest level (Navigation), dwell-paced —
        // the user is reading each level on the way down.
        while b.cur.level + 1 < g.levels && b.len() < steps {
            let q = Quadrant::ALL[rng.range_usize(0, 3)];
            b.push_or(
                Move::ZoomIn(q),
                &[
                    Move::ZoomIn(Quadrant::ALL[0]),
                    Move::ZoomIn(Quadrant::ALL[1]),
                    Move::ZoomIn(Quadrant::ALL[2]),
                    Move::ZoomIn(Quadrant::ALL[3]),
                ],
                TrafficPhase::Dwell,
                &mut rng,
            );
        }
        // Detail burst at depth (Sensemaking pans).
        for _ in 0..rng.range_usize(3, 7) {
            if b.len() >= steps {
                break;
            }
            let mv = if rng.range(0, 1) == 0 {
                Move::PanRight
            } else {
                Move::PanLeft
            };
            b.push_or(
                mv,
                &[Move::PanDown, Move::PanUp],
                TrafficPhase::Burst,
                &mut rng,
            );
        }
        // Climb back out (Navigation); idle break every third dive.
        dive += 1;
        let mut first_out = true;
        while b.cur.level > top && b.len() < steps {
            let pace = if first_out && dive.is_multiple_of(3) {
                TrafficPhase::Idle
            } else {
                TrafficPhase::Dwell
            };
            first_out = false;
            b.push_or(Move::ZoomOut, &[], pace, &mut rng);
        }
    }
    b.finish("zoom-dive", seed, session, session)
}

/// An expanding square spiral at the deepest level: burst-paced legs
/// with a dwell step at each corner (legs grow 1, 1, 2, 2, 3, 3, …).
/// The spiral revisits no tile, so it stresses the *prediction* side:
/// only direction-following prefetch helps.
pub(crate) fn spiral_sweep(g: Geometry, steps: usize, seed: u64, session: usize) -> Workload {
    let mut rng = Rng::new(session_seed(seed, session) ^ 0x59a1);
    let level = g.levels - 1;
    let (rows, cols) = g.tiles_at(level);
    let origin = TileId::new(level, rows / 2, cols / 2);
    let mut b = Builder::start(g, origin);
    let legs = [Move::PanRight, Move::PanDown, Move::PanLeft, Move::PanUp];
    let mut leg = 0usize;
    let mut len = 1usize;
    while b.len() < steps {
        let mv = legs[leg % 4];
        for i in 0..len {
            if b.len() >= steps {
                break;
            }
            // The corner step of each leg is the dwell beat.
            let pace = if i + 1 == len {
                TrafficPhase::Dwell
            } else {
                TrafficPhase::Burst
            };
            b.push_or(
                mv,
                &[legs[(leg + 1) % 4], legs[(leg + 3) % 4]],
                pace,
                &mut rng,
            );
        }
        leg += 1;
        if leg.is_multiple_of(2) {
            len += 1;
        }
    }
    b.finish("spiral-sweep", seed, session, session)
}

/// A serpentine full-row scan at the deepest level: burst across each
/// row, dwell on the row-turn (the paper's Foraging sweep, paced the
/// way real scans are — fast inside a row, a pause at each edge).
pub(crate) fn grid_sweep(g: Geometry, steps: usize, seed: u64, session: usize) -> Workload {
    let mut rng = Rng::new(session_seed(seed, session) ^ 0x6e1d);
    let level = g.levels - 1;
    let (rows, _) = g.tiles_at(level);
    let origin = TileId::new(level, rng.range(0, u64::from(rows) - 1) as u32, 0);
    let mut b = Builder::start(g, origin);
    let mut rightward = true;
    while b.len() < steps {
        let fwd = if rightward {
            Move::PanRight
        } else {
            Move::PanLeft
        };
        if !b.push(fwd, TrafficPhase::Burst, &mut rng) {
            // Row edge: dwell turn onto the next row (wrapping to the
            // top once the bottom row is swept).
            if !b.push(Move::PanDown, TrafficPhase::Dwell, &mut rng) {
                let restart = TileId::new(level, 0, b.cur.x);
                let phase = heuristic_phase(g, &Request::initial(restart));
                b.cur = restart;
                b.steps.push(TraceStep {
                    tile: restart,
                    mv: None,
                    phase,
                });
                b.think
                    .push(Builder::think_for(TrafficPhase::Dwell, &mut rng));
                b.declared.push(TrafficPhase::Dwell);
            }
            rightward = !rightward;
        }
    }
    b.finish("grid-sweep", seed, session, session)
}

/// Laps around a small rectangular circuit: burst laps, a dwell pause
/// at the anchor corner each lap, an idle break every few laps. The
/// canonical revisit workload — every tile comes back around, so
/// prefetched residency (not prediction novelty) decides the hit
/// rate.
pub(crate) fn revisit_loop(g: Geometry, steps: usize, seed: u64, session: usize) -> Workload {
    let mut rng = Rng::new(session_seed(seed, session) ^ 0x4e57);
    let level = g.levels - 1;
    let (rows, cols) = g.tiles_at(level);
    assert!(
        rows >= 2 && cols >= 3,
        "revisit-loop needs a deepest level at least 3 tiles wide and 2 tall"
    );
    let w = rng.range(2, u64::from(cols.min(4)) - 1) as u32;
    let h = rng.range(1, u64::from(rows.min(3)) - 1) as u32;
    let y0 = rng.range(0, u64::from(rows - h) - 1) as u32;
    let x0 = rng.range(0, u64::from(cols - w) - 1) as u32;
    let mut b = Builder::start(g, TileId::new(level, y0, x0));
    let mut lap = 0usize;
    let idle_every = rng.range_usize(3, 5);
    'outer: while b.len() < steps {
        lap += 1;
        // One circuit: right w, down h, left w, up h.
        for (mv, n) in [
            (Move::PanRight, w),
            (Move::PanDown, h),
            (Move::PanLeft, w),
            (Move::PanUp, h),
        ] {
            for _ in 0..n {
                if b.len() >= steps {
                    break 'outer;
                }
                b.push_or(mv, &[], TrafficPhase::Burst, &mut rng);
            }
        }
        // Anchor pause: dwell (or a full idle break every few laps)
        // on an out-and-back shuffle that restores the lap origin
        // exactly (drift would walk the circuit off the grid).
        if b.len() >= steps {
            break;
        }
        let pace = if lap.is_multiple_of(idle_every) {
            TrafficPhase::Idle
        } else {
            TrafficPhase::Dwell
        };
        let (out_mv, back_mv) = if g.apply(b.cur, Move::PanRight).is_some() {
            (Move::PanRight, Move::PanLeft)
        } else {
            (Move::PanLeft, Move::PanRight)
        };
        b.push_or(out_mv, &[], pace, &mut rng);
        if b.len() >= steps {
            break;
        }
        b.push_or(back_mv, &[], TrafficPhase::Dwell, &mut rng);
    }
    b.finish("revisit-loop", seed, session, session)
}

/// Flash crowd: every session converges on one *shared* target tile
/// (drawn from the base seed, not the session salt), idles until the
/// "event", then storms a tight loop around it in burst pace. The
/// multi-user stressor: disjoint approach paths, then maximal overlap
/// under the heaviest request rate.
pub(crate) fn flash_crowd(g: Geometry, steps: usize, seed: u64, session: usize) -> Workload {
    // Shared structure from the base seed — all sessions, one target.
    let mut shared = Rng::new(seed ^ 0xf1a5);
    let level = g.levels - 1;
    let (rows, cols) = g.tiles_at(level);
    assert!(
        rows >= 3 && cols >= 3,
        "flash-crowd needs an interior at the deepest level"
    );
    let target = TileId::new(
        level,
        1 + shared.range(0, u64::from(rows) - 3) as u32,
        1 + shared.range(0, u64::from(cols) - 3) as u32,
    );
    let mut rng = Rng::new(session_seed(seed, session) ^ 0xc40d);
    let origin = TileId::new(
        level,
        rng.range(0, u64::from(rows) - 1) as u32,
        rng.range(0, u64::from(cols) - 1) as u32,
    );
    let mut b = Builder::start(g, origin);
    // Approach: dwell-paced Manhattan walk toward the target
    // (horizontal first) — each session arrives from its own side.
    while b.cur != target && b.len() < steps {
        let mv = if b.cur.x != target.x {
            if b.cur.x < target.x {
                Move::PanRight
            } else {
                Move::PanLeft
            }
        } else if b.cur.y < target.y {
            Move::PanDown
        } else {
            Move::PanUp
        };
        b.push_or(mv, &[], TrafficPhase::Dwell, &mut rng);
    }
    // The crowd waits for the event (one idle gap), then storms the
    // target in complete orbits — each orbit returns to the target
    // exactly, so the loop never walks off the grid.
    let storm = [Move::PanRight, Move::PanDown, Move::PanLeft, Move::PanUp];
    let mut first = true;
    while b.len() < steps {
        for (k, mv) in storm.into_iter().enumerate() {
            if b.len() >= steps {
                break;
            }
            let pace = if first && k == 0 {
                TrafficPhase::Idle
            } else {
                TrafficPhase::Burst
            };
            b.push_or(mv, &[], pace, &mut rng);
        }
        first = false;
    }
    b.finish("flash-crowd", seed, session, session)
}

/// Builds the named workload; `None` for names outside [`ZOO_NAMES`].
pub fn build(name: &str, g: Geometry, steps: usize, seed: u64, session: usize) -> Option<Workload> {
    assert!(steps > 0, "a workload needs at least one step");
    Some(match name {
        "bursty-pan-sprint" => bursty_pan_sprint(g, steps, seed, session),
        "zoom-dive" => zoom_dive(g, steps, seed, session),
        "spiral-sweep" => spiral_sweep(g, steps, seed, session),
        "grid-sweep" => grid_sweep(g, steps, seed, session),
        "revisit-loop" => revisit_loop(g, steps, seed, session),
        "flash-crowd" => flash_crowd(g, steps, seed, session),
        _ => return None,
    })
}

/// The full zoo at the canonical session (0), one workload per name,
/// each on a per-name salt of `seed`.
pub fn zoo(g: Geometry, steps: usize, seed: u64) -> Vec<Workload> {
    ZOO_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| build(name, g, steps, seed ^ ((i as u64) << 32), 0).expect("roster name"))
        .collect()
}

/// `sessions` concurrent variants of one named workload (session `i`
/// gets salt `i`; shared structure stays on the base seed).
pub fn crowd(name: &str, g: Geometry, steps: usize, sessions: usize, seed: u64) -> Vec<Workload> {
    (0..sessions)
        .map(|s| build(name, g, steps, seed, s).expect("known workload name"))
        .collect()
}

/// Outcome of replaying one workload through a middleware session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZooOutcome {
    /// Requests actually served (tiles outside the pyramid are
    /// skipped, matching the multi-user harness).
    pub served: usize,
    /// Cache hits among them.
    pub hits: usize,
    /// FNV-1a fingerprint over every response's observable surface
    /// (tile, latency, hit flag, traffic phase, prefetch list) — two
    /// replays are bit-identical iff these match.
    pub fingerprint: u64,
    /// Middleware counters after the replay.
    pub stats: MiddlewareStats,
}

/// Replays `w` once through `mw` — the driver's per-session step over
/// a private session — charging each step's think time to the session
/// timeline before issuing the request: exactly the gap structure the
/// burst classifier sees in production.
// fc-check: allow(unreferenced-pub) -- fixture shared across crates: the golden_burst and zoo test crates both replay through it
pub fn replay_workload(mw: &mut Middleware, w: &Workload) -> ZooOutcome {
    let mut cursor = Cursor::new(&w.trace, &w.think, w.len());
    let mut served = 0usize;
    let mut hits = 0usize;
    let mut fp = FNV_OFFSET;
    while let Some((tile, _, result)) = cursor.step(mw) {
        if let Ok(Some(resp)) = result {
            served += 1;
            hits += usize::from(resp.cache_hit);
            fold_response(&mut fp, tile, &resp);
        }
    }
    ZooOutcome {
        served,
        hits,
        fingerprint: fp,
        stats: mw.stats(),
    }
}

/// Replays `workloads` as concurrent sessions of one dataset through
/// the lockstep driver ([`run`]): session `i` replays `workloads[i]`
/// once with its think schedule. The workloads set `sessions`,
/// `steps_per_session` and `think`; everything else comes from `cfg`.
/// Same pyramid + workloads + config ⇒ bit-identical report, so an
/// A/B's delta measures the configuration, not the interleaving.
pub fn run_crowd<F>(
    pyramid: &Arc<Pyramid>,
    engine_factory: F,
    workloads: &[Workload],
    cfg: &RunConfig,
) -> RunReport
where
    F: Fn(&Arc<Pyramid>) -> PredictionEngine,
{
    let traces: Vec<Trace> = workloads.iter().map(|w| w.trace.clone()).collect();
    let cfg = RunConfig {
        base: MultiUserConfig {
            sessions: workloads.len(),
            steps_per_session: workloads.iter().map(Workload::len).max().unwrap_or(0),
            ..cfg.base.clone()
        },
        think: workloads.iter().map(|w| w.think.clone()).collect(),
        ..cfg.clone()
    };
    run(&[("zoo", pyramid, &traces)], engine_factory, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_core::{BurstConfig, BurstTracker};

    fn geometry() -> Geometry {
        Geometry::new(3, 128, 128, 16, 16)
    }

    #[test]
    fn roster_builds_and_tracks_stay_in_lockstep() {
        for w in zoo(geometry(), 96, 7) {
            assert_eq!(w.len(), 96, "{}", w.name);
            assert_eq!(w.think.len(), w.len(), "{}", w.name);
            assert_eq!(w.declared.len(), w.len(), "{}", w.name);
            assert_eq!(w.think[0], Duration::ZERO, "{}", w.name);
            assert_eq!(w.declared[0], TrafficPhase::Burst, "{}", w.name);
            for s in &w.trace.steps {
                assert!(geometry().contains(s.tile), "{}: {}", w.name, s.tile);
            }
        }
    }

    #[test]
    fn generators_are_bit_identical_from_seed() {
        let g = geometry();
        for name in ZOO_NAMES {
            let a = build(name, g, 128, 42, 3).unwrap();
            let b = build(name, g, 128, 42, 3).unwrap();
            assert_eq!(a, b, "{name} must replay bit-identically from seed");
            let c = build(name, g, 128, 43, 3).unwrap();
            assert_ne!(
                (&a.trace.steps, &a.think),
                (&c.trace.steps, &c.think),
                "{name} must actually use its seed"
            );
        }
    }

    #[test]
    fn default_classifier_recovers_declared_structure() {
        for w in zoo(geometry(), 160, 11) {
            // The gap sequence the middleware's session timeline sees on
            // replay: request latency cancels out of consecutive gaps,
            // only the explicit think time remains.
            let mut t = BurstTracker::new(BurstConfig::default());
            let got: Vec<TrafficPhase> = (0..w.len())
                .map(|i| t.observe((i > 0).then(|| w.think[i])))
                .collect();
            let agree = got.iter().zip(&w.declared).filter(|(a, b)| a == b).count();
            // Think bands sit strictly inside the hysteresis bands, so
            // recovery is exact — any slack here is a generator bug.
            assert_eq!(
                agree,
                w.len(),
                "{}: classifier recovered {agree}/{} declared phases",
                w.name,
                w.len()
            );
        }
    }

    #[test]
    fn flash_crowd_sessions_share_one_target_but_not_paths() {
        let g = geometry();
        let crowd = crowd("flash-crowd", g, 96, 4, 99);
        // The storm loops all orbit the same tiles: the most-visited
        // tile of every session's tail must coincide.
        let hot = |w: &Workload| -> TileId {
            let mut counts = std::collections::HashMap::new();
            for s in &w.trace.steps[w.len() / 2..] {
                *counts.entry(s.tile).or_insert(0usize) += 1;
            }
            counts
                .into_iter()
                .max_by_key(|&(t, n)| (n, t.y, t.x))
                .unwrap()
                .0
        };
        let anchor = hot(&crowd[0]);
        for w in &crowd[1..] {
            assert_eq!(hot(w), anchor, "session {} storms elsewhere", w.session);
        }
        assert_ne!(
            crowd[0].trace.steps[0].tile, crowd[1].trace.steps[0].tile,
            "sessions should approach from different origins"
        );
    }

    /// Deepest level 2×2: too small for either generator's shape.
    fn tiny() -> Geometry {
        Geometry::new(2, 64, 64, 32, 32)
    }

    #[test]
    #[should_panic(
        expected = "revisit-loop needs a deepest level at least 3 tiles wide and 2 tall"
    )]
    fn revisit_loop_refuses_a_tiny_geometry() {
        revisit_loop(tiny(), 16, 1, 0);
    }

    #[test]
    #[should_panic(expected = "zoom-dive needs more than one tile at its survey level L0")]
    fn zoom_dive_refuses_a_tiny_geometry() {
        zoom_dive(tiny(), 16, 1, 0);
    }

    #[test]
    fn zoom_dive_declares_all_traffic_phases() {
        let w = zoom_dive(geometry(), 200, 5, 0);
        let mut occ = [0usize; 3];
        for p in &w.declared {
            occ[p.index()] += 1;
        }
        assert!(
            occ.iter().all(|&n| n > 0),
            "zoom-dive must exercise burst, dwell, and idle: {occ:?}"
        );
    }
}
