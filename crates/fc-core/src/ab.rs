//! The Action-Based (AB) recommender (§4.3.2).
//!
//! "our AB recommender … builds an n-th order Markov chain from users'
//! past actions", smoothed with Kneser–Ney. Candidates one move away are
//! scored by the probability of the move that reaches them; candidates
//! further away (d > 1) by the best move-path product.

use crate::recommender::{PredictionContext, Recommender};
use fc_ngram::KneserNey;
use fc_tiles::{Geometry, TileId, MOVES};

/// The AB recommendation model: a Kneser–Ney smoothed move-sequence
/// Markov chain.
#[derive(Debug, Clone)]
pub struct AbRecommender {
    model: KneserNey,
}

impl AbRecommender {
    /// Trains from move-id traces with context length `order` (the paper
    /// settles on `order = 3`, "Markov3").
    pub fn train<'a, I>(traces: I, order: usize) -> Self
    where
        I: IntoIterator<Item = &'a [u16]>,
    {
        Self {
            model: KneserNey::train(traces, order, MOVES.len()),
        }
    }

    /// Wraps an already-trained model.
    pub fn from_model(model: KneserNey) -> Self {
        Self { model }
    }

    /// Context length of the underlying chain.
    pub fn order(&self) -> usize {
        self.model.order()
    }

    /// Probability of each move given the history (exposed for the
    /// Markov-sweep experiment).
    pub fn move_distribution(&self, move_history: &[u16]) -> Vec<f64> {
        self.model.distribution(move_history)
    }

    /// Best move-path probability from `from` to `target` within
    /// `depth` moves, extending `seq` greedily per step.
    fn path_prob(
        &self,
        geometry: Geometry,
        seq: &mut Vec<u16>,
        from: TileId,
        target: TileId,
        depth: usize,
    ) -> f64 {
        if depth == 0 {
            return 0.0;
        }
        let dist = self.model.distribution(seq);
        let mut best = 0.0f64;
        for m in MOVES {
            if let Some(next) = geometry.apply(from, m) {
                let p = dist[m.index()];
                if next == target {
                    best = best.max(p);
                } else if depth > 1 && p > best {
                    seq.push(m.index() as u16);
                    let tail = self.path_prob(geometry, seq, next, target, depth - 1);
                    seq.pop();
                    best = best.max(p * tail);
                }
            }
        }
        best
    }

    /// The candidates with their AB scores, best first: score
    /// descending, ties by `TileId` ascending. [`Recommender::rank`] is
    /// this list without the scores.
    pub fn scored(&self, ctx: &PredictionContext<'_>) -> Vec<(TileId, f64)> {
        let mut seq = ctx.history.move_sequence();
        let dist = self.model.distribution(&seq);
        let mut scored: Vec<(TileId, f64)> = ctx
            .candidates
            .iter()
            .map(|&c| {
                // Fast path: single-move candidates (d = 1, the default).
                let score = match ctx.geometry.move_between(ctx.request.tile, c) {
                    Some(m) => dist[m.index()],
                    None => self.path_prob(ctx.geometry, &mut seq, ctx.request.tile, c, 3),
                };
                (c, score)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite probabilities")
                .then(a.0.cmp(&b.0))
        });
        scored
    }
}

impl Recommender for AbRecommender {
    fn name(&self) -> &str {
        "AB"
    }

    fn rank(&self, ctx: &PredictionContext<'_>) -> Vec<TileId> {
        self.scored(ctx).into_iter().map(|(t, _)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{Request, SessionHistory};
    use fc_array::{IoMode, LatencyModel, SimClock};
    use fc_tiles::{Move, Quadrant, TileStore};

    fn geometry() -> Geometry {
        Geometry::new(4, 512, 512, 64, 64)
    }

    fn store(g: Geometry) -> TileStore {
        TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new())
    }

    /// Traces where three rights are always followed by a fourth.
    fn right_runs() -> Vec<Vec<u16>> {
        let r = Move::PanRight.index() as u16;
        let d = Move::PanDown.index() as u16;
        let o = Move::ZoomOut.index() as u16;
        vec![
            vec![r, r, r, r, r, r, d, r, r, r, r],
            vec![o, r, r, r, r, r],
        ]
    }

    #[test]
    fn predicts_continued_pan() {
        let traces = right_runs();
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        let ab = AbRecommender::train(refs, 3);
        let g = geometry();
        let s = store(g);

        let mut h = SessionHistory::new(3);
        let tiles = [
            TileId::new(3, 4, 1),
            TileId::new(3, 4, 2),
            TileId::new(3, 4, 3),
        ];
        for t in tiles {
            h.push(Request::new(t, Some(Move::PanRight)));
        }
        let cur = Request::new(tiles[2], Some(Move::PanRight));
        let candidates = g.candidates(cur.tile, 1);
        let ctx = PredictionContext {
            request: cur,
            history: &h,
            candidates: &candidates,
            geometry: g,
            store: &s,
            roi: &[],
        };
        let ranked = ab.rank(&ctx);
        assert_eq!(ranked.len(), candidates.len());
        assert_eq!(
            ranked[0],
            TileId::new(3, 4, 4),
            "after right,right,right → pan right again"
        );
    }

    #[test]
    fn ranks_all_candidates_no_duplicates() {
        let traces = right_runs();
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        let ab = AbRecommender::train(refs, 3);
        let g = geometry();
        let s = store(g);
        let mut h = SessionHistory::new(3);
        let cur = Request::new(TileId::new(2, 1, 1), Some(Move::ZoomIn(Quadrant::Nw)));
        h.push(cur);
        let candidates = g.candidates(cur.tile, 2);
        let ctx = PredictionContext {
            request: cur,
            history: &h,
            candidates: &candidates,
            geometry: g,
            store: &s,
            roi: &[],
        };
        let mut ranked = ab.rank(&ctx);
        assert_eq!(ranked.len(), candidates.len());
        ranked.sort();
        ranked.dedup();
        assert_eq!(ranked.len(), candidates.len());
    }

    #[test]
    fn order_is_reported() {
        let traces = right_runs();
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        assert_eq!(AbRecommender::train(refs, 5).order(), 5);
    }

    #[test]
    fn move_distribution_sums_to_one() {
        let traces = right_runs();
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        let ab = AbRecommender::train(refs, 3);
        let d = ab.move_distribution(&[3, 3, 3]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
