//! The comparison baselines from Doshi et al. \[8\], as described in §5.2.3.
//!
//! * **Momentum** — "assumes that the user's next move will be the same
//!   as her previous move. … the tile matching the user's previous move
//!   is assigned a probability of 0.9, and the eight other candidates are
//!   assigned a probability of 0.0125."
//! * **Hotspot** — "an extension of the Momentum model that adds
//!   awareness of popular tiles. … When a hotspot is nearby, the Hotspot
//!   model assigns a higher ranking to any tiles that bring the user
//!   closer to that hotspot."

use crate::recommender::{PredictionContext, Recommender};
use fc_tiles::{TileId, MOVES};
use std::collections::HashMap;

/// The Momentum baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct MomentumRecommender;

impl MomentumRecommender {
    /// The probability assigned to the repeat-move tile.
    pub(crate) const REPEAT_PROB: f64 = 0.9;
    /// The probability assigned to each other candidate.
    pub(crate) const OTHER_PROB: f64 = 0.0125;

    /// Scores each candidate under the Momentum distribution.
    pub(crate) fn scores(ctx: &PredictionContext<'_>) -> Vec<(TileId, f64)> {
        let repeat_target = ctx
            .request
            .mv
            .and_then(|m| ctx.geometry.apply(ctx.request.tile, m));
        ctx.candidates
            .iter()
            .map(|&c| {
                let p = if Some(c) == repeat_target {
                    Self::REPEAT_PROB
                } else {
                    Self::OTHER_PROB
                };
                (c, p)
            })
            .collect()
    }
}

impl Recommender for MomentumRecommender {
    fn name(&self) -> &str {
        "Momentum"
    }

    fn rank(&self, ctx: &PredictionContext<'_>) -> Vec<TileId> {
        let mut scored = Self::scores(ctx);
        sort_by_score_then_move_order(&mut scored, ctx);
        scored.into_iter().map(|(t, _)| t).collect()
    }
}

/// The Hotspot baseline: Momentum plus popular-tile awareness, trained on
/// trace data ahead of time ("This training process took less than one
/// second to complete").
#[derive(Debug, Clone)]
pub struct HotspotRecommender {
    hotspots: Vec<TileId>,
    /// A hotspot is "nearby" within this projected Manhattan distance.
    radius: u32,
}

impl HotspotRecommender {
    /// Counts tile requests across traces and keeps the `num_hotspots`
    /// most-requested tiles.
    pub fn train(traces: &[Vec<TileId>], num_hotspots: usize, radius: u32) -> Self {
        let mut counts: HashMap<TileId, usize> = HashMap::new();
        for trace in traces {
            for &t in trace {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let mut ranked: Vec<(TileId, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Self {
            hotspots: ranked
                .into_iter()
                .take(num_hotspots)
                .map(|(t, _)| t)
                .collect(),
            radius,
        }
    }

    /// The nearest hotspot within the radius of `tile`, if any.
    pub(crate) fn nearby_hotspot(&self, tile: TileId) -> Option<TileId> {
        self.hotspots
            .iter()
            .copied()
            .map(|h| (h, tile.manhattan(&h)))
            .filter(|&(_, d)| d <= self.radius)
            .min_by_key(|&(h, d)| (d, h))
            .map(|(h, _)| h)
    }
}

impl Recommender for HotspotRecommender {
    fn name(&self) -> &str {
        "Hotspot"
    }

    fn rank(&self, ctx: &PredictionContext<'_>) -> Vec<TileId> {
        let mut scored = MomentumRecommender::scores(ctx);
        if let Some(hs) = self.nearby_hotspot(ctx.request.tile) {
            let here = ctx.request.tile.manhattan(&hs);
            for (c, p) in scored.iter_mut() {
                let there = c.manhattan(&hs);
                if there < here {
                    // Boost tiles that bring the user closer to the
                    // hotspot above the momentum tile.
                    *p += 1.0;
                } else if there > here {
                    *p *= 0.5;
                }
            }
        }
        sort_by_score_then_move_order(&mut scored, ctx);
        scored.into_iter().map(|(t, _)| t).collect()
    }
}

/// Sorts descending by score; ties broken by the canonical move order
/// (then tile order) so rankings are deterministic.
fn sort_by_score_then_move_order(scored: &mut [(TileId, f64)], ctx: &PredictionContext<'_>) {
    let move_rank = |t: TileId| -> usize {
        MOVES
            .iter()
            .position(|&m| ctx.geometry.apply(ctx.request.tile, m) == Some(t))
            .unwrap_or(MOVES.len())
    };
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then_with(|| move_rank(a.0).cmp(&move_rank(b.0)))
            .then(a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Request, SessionHistory};
    use fc_array::{IoMode, LatencyModel, SimClock};
    use fc_tiles::{Geometry, Move, TileStore};

    fn setup() -> (Geometry, TileStore) {
        let g = Geometry::new(4, 512, 512, 64, 64);
        let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
        (g, s)
    }

    fn ctx_for<'a>(
        g: Geometry,
        s: &'a TileStore,
        h: &'a SessionHistory,
        cur: Request,
        candidates: &'a [TileId],
    ) -> PredictionContext<'a> {
        PredictionContext {
            request: cur,
            history: h,
            candidates,
            geometry: g,
            store: s,
            roi: &[],
        }
    }

    #[test]
    fn momentum_repeats_previous_move() {
        let (g, s) = setup();
        let mut h = SessionHistory::new(3);
        let cur = Request::new(TileId::new(3, 4, 4), Some(Move::PanDown));
        h.push(cur);
        let candidates = g.candidates(cur.tile, 1);
        let ctx = ctx_for(g, &s, &h, cur, &candidates);
        let ranked = MomentumRecommender.rank(&ctx);
        assert_eq!(ranked[0], TileId::new(3, 5, 4), "pan-down repeats");
        assert_eq!(ranked.len(), candidates.len());
    }

    #[test]
    fn momentum_with_no_previous_move_uses_canonical_order() {
        let (g, s) = setup();
        let mut h = SessionHistory::new(3);
        let cur = Request::initial(TileId::new(3, 4, 4));
        h.push(cur);
        let candidates = g.candidates(cur.tile, 1);
        let ctx = ctx_for(g, &s, &h, cur, &candidates);
        let ranked = MomentumRecommender.rank(&ctx);
        // All equal probabilities → first candidate is the first legal
        // move in canonical order (PanUp).
        assert_eq!(ranked[0], TileId::new(3, 3, 4));
    }

    #[test]
    fn momentum_at_boundary_cannot_repeat() {
        let (g, s) = setup();
        let mut h = SessionHistory::new(3);
        // At the left edge after a PanLeft: the repeat target is invalid.
        let cur = Request::new(TileId::new(3, 4, 0), Some(Move::PanLeft));
        h.push(cur);
        let candidates = g.candidates(cur.tile, 1);
        let ctx = ctx_for(g, &s, &h, cur, &candidates);
        let ranked = MomentumRecommender.rank(&ctx);
        assert_eq!(ranked.len(), candidates.len());
        assert!(!ranked.contains(&TileId::new(3, 4, 0)));
    }

    #[test]
    fn hotspot_training_finds_popular_tiles() {
        let hot = TileId::new(3, 2, 2);
        let traces = vec![
            vec![hot, hot, hot, TileId::new(3, 0, 0)],
            vec![hot, TileId::new(3, 1, 1)],
        ];
        let hs = HotspotRecommender::train(&traces, 2, 3);
        assert_eq!(hs.hotspots[0], hot);
        assert_eq!(hs.hotspots.len(), 2);
    }

    #[test]
    fn hotspot_pulls_toward_popular_tile() {
        let (g, s) = setup();
        let hot = TileId::new(3, 4, 6);
        let traces = vec![vec![hot; 5]];
        let hs = HotspotRecommender::train(&traces, 1, 4);
        let mut h = SessionHistory::new(3);
        // Previous move was PanDown; Momentum alone would pick (3,5,4).
        let cur = Request::new(TileId::new(3, 4, 4), Some(Move::PanDown));
        h.push(cur);
        let candidates = g.candidates(cur.tile, 1);
        let ctx = ctx_for(g, &s, &h, cur, &candidates);
        let ranked = hs.rank(&ctx);
        assert_eq!(
            ranked[0],
            TileId::new(3, 4, 5),
            "pan-right moves toward the hotspot"
        );
    }

    #[test]
    fn hotspot_defaults_to_momentum_when_far() {
        let (g, s) = setup();
        let hot = TileId::new(3, 0, 7);
        let traces = vec![vec![hot; 5]];
        let hs = HotspotRecommender::train(&traces, 1, 1); // tiny radius
        let mut h = SessionHistory::new(3);
        let cur = Request::new(TileId::new(3, 6, 1), Some(Move::PanDown));
        h.push(cur);
        let candidates = g.candidates(cur.tile, 1);
        let ctx = ctx_for(g, &s, &h, cur, &candidates);
        assert_eq!(hs.nearby_hotspot(cur.tile), None);
        let ranked = hs.rank(&ctx);
        let momentum = MomentumRecommender.rank(&ctx);
        assert_eq!(ranked, momentum);
    }
}
