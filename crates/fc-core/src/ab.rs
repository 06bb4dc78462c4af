//! The Action-Based (AB) recommender (§4.3.2).
//!
//! "our AB recommender … builds an n-th order Markov chain from users'
//! past actions", smoothed with Kneser–Ney. A candidate's score is the
//! probability of the likeliest short move path that reaches it from
//! the requested tile, each move conditioned on the session's move
//! history extended by the moves before it on the path:
//!
//! * a candidate one move `m` away scores `P(m | history)` **alone** —
//!   never a longer path, even when one has a higher product;
//! * any other candidate scores the maximum, over paths of two or three
//!   legal moves ending at it, of the product of the moves'
//!   probabilities, right-associated as `p1 * p2` and `p1 * (p2 * p3)`.
//!   Paths may pass back through the requested tile;
//! * a candidate no such path reaches scores `0.0`.
//!
//! Candidates rank by score descending, ties by `TileId` ascending.
//!
//! The move tree is walked **once per request**, forward from the
//! requested tile: each of its ≤ 1 + 9 + 81 interior nodes computes its
//! smoothed distribution once, and every path's endpoint keeps the best
//! probability seen, reaching its candidates by one probe of an index
//! built from the candidate list when the request starts. The work
//! does not depend on how many candidates there are, and when every
//! candidate is one move away (prediction distance 1, the default)
//! only the root's distribution is computed.

use crate::recommender::{PredictionContext, Recommender};
use fc_ngram::KneserNey;
use fc_tiles::{Geometry, TileId, MOVES};
use std::sync::Arc;

/// One smoothed next-move distribution, indexed by `Move::index`.
type MoveDist = [f64; MOVES.len()];

#[cfg(test)]
thread_local! {
    static DISTRIBUTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Distributions computed so far on this thread — what the work-count
/// pins measure.
#[cfg(test)]
pub(crate) fn distributions_computed() -> usize {
    DISTRIBUTIONS.with(std::cell::Cell::get)
}

/// The AB recommendation model: a Kneser–Ney smoothed move-sequence
/// Markov chain. The chain is immutable once trained, so a clone — one
/// per session — shares its tables.
#[derive(Debug, Clone)]
pub struct AbRecommender {
    model: Arc<KneserNey>,
}

impl AbRecommender {
    /// Trains from move-id traces with context length `order` (the paper
    /// settles on `order = 3`, "Markov3").
    pub fn train<'a, I>(traces: I, order: usize) -> Self
    where
        I: IntoIterator<Item = &'a [u16]>,
    {
        Self {
            model: Arc::new(KneserNey::train(traces, order, MOVES.len())),
        }
    }

    /// Context length of the underlying chain.
    pub fn order(&self) -> usize {
        self.model.order()
    }

    /// The smoothed distribution of the move after `seq`.
    fn dist(&self, seq: &[u16]) -> MoveDist {
        #[cfg(test)]
        DISTRIBUTIONS.with(|n| n.set(n.get() + 1));
        let mut dist = [0.0; MOVES.len()];
        self.model.distribution_into(seq, &mut dist);
        dist
    }

    /// The candidates with their AB scores, best first: score
    /// descending, ties by `TileId` ascending. [`Recommender::rank`] is
    /// this list without the scores. The module doc states the scoring
    /// rule.
    pub fn scored(&self, ctx: &PredictionContext<'_>) -> Vec<(TileId, f64)> {
        let g = ctx.geometry;
        let origin = ctx.request.tile;
        let mut seq = ctx.history.move_sequence();
        let first = self.dist(&seq);
        // Kept sorted by tile while scoring: a listed-twice candidate's
        // entries are adjacent, and `at` knows where each tile's begin.
        let mut scored: Vec<(TileId, f64)> = ctx.candidates.iter().map(|&c| (c, 0.0)).collect();
        scored.sort_unstable_by_key(|&(t, _)| t);
        let at = Endpoints::new(&scored);
        let hops = MOVES.map(|m| g.apply(origin, m));
        if scored.iter().any(|&(c, _)| !hops.contains(&Some(c))) {
            for (m1, t1, p1) in steps(g, origin, &first) {
                seq.push(m1);
                let second = self.dist(&seq);
                for (m2, t2, p2) in steps(g, t1, &second) {
                    at.raise(&mut scored, t2, p1 * p2);
                    seq.push(m2);
                    let third = self.dist(&seq);
                    for (_, t3, p3) in steps(g, t2, &third) {
                        at.raise(&mut scored, t3, p1 * (p2 * p3));
                    }
                    seq.pop();
                }
                seq.pop();
            }
        }
        // One move away: that move's probability, whatever longer
        // paths led back here.
        for (_, t1, p1) in steps(g, origin, &first) {
            for e in at.entries(&mut scored, t1) {
                e.1 = p1;
            }
        }
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }
}

/// The legal moves out of `from`: `(move id, tile reached, probability)`.
fn steps(
    g: Geometry,
    from: TileId,
    dist: &MoveDist,
) -> impl Iterator<Item = (u16, TileId, f64)> + '_ {
    MOVES.into_iter().filter_map(move |m| {
        let to = g.apply(from, m)?;
        Some((m.index() as u16, to, dist[m.index()]))
    })
}

/// Where each distinct tile's entries begin in a candidate list sorted
/// by tile: an open-addressed table, built once per request, so that
/// each of the walk's ≤ 810 path endpoints costs one probe instead of a
/// binary search. At most a quarter full, because most endpoints are
/// not candidates and a miss should end at its home slot.
struct Endpoints {
    /// Power-of-two many; an index into the list, or `VACANT`.
    slots: Vec<u32>,
    /// `64 − log2(slots.len())`: the hash's top bits are the home slot.
    shift: u32,
}

const VACANT: u32 = u32::MAX;

impl Endpoints {
    fn new(scored: &[(TileId, f64)]) -> Self {
        assert!(scored.len() < VACANT as usize, "candidate list too long");
        let len = (scored.len() * 4).next_power_of_two().max(2);
        let mut at = Self {
            slots: vec![VACANT; len],
            shift: 64 - len.trailing_zeros(),
        };
        for (i, &(tile, _)) in scored.iter().enumerate() {
            if i > 0 && scored[i - 1].0 == tile {
                continue;
            }
            let mut s = at.home(tile);
            while at.slots[s] != VACANT {
                s = (s + 1) & (len - 1);
            }
            at.slots[s] = i as u32;
        }
        at
    }

    /// Fibonacci hash of the packed coordinates (a collision costs a
    /// probe, never a wrong answer: `entries` compares the tile).
    fn home(&self, t: TileId) -> usize {
        let packed = (u64::from(t.level) << 58) ^ (u64::from(t.y) << 29) ^ u64::from(t.x);
        (packed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// The entries of `scored` (the list this was built from) for
    /// `tile`: none when it is not a candidate, several when the caller
    /// listed it more than once.
    fn entries<'s>(
        &self,
        scored: &'s mut [(TileId, f64)],
        tile: TileId,
    ) -> &'s mut [(TileId, f64)] {
        let mask = self.slots.len() - 1;
        let mut s = self.home(tile);
        loop {
            let lo = self.slots[s] as usize;
            if lo == VACANT as usize {
                return &mut [];
            }
            if scored[lo].0 == tile {
                let n = scored[lo..].iter().take_while(|e| e.0 == tile).count();
                return &mut scored[lo..lo + n];
            }
            s = (s + 1) & mask;
        }
    }

    /// Records a path of probability `p` ending at `tile`.
    fn raise(&self, scored: &mut [(TileId, f64)], tile: TileId, p: f64) {
        for e in self.entries(scored, tile) {
            e.1 = e.1.max(p);
        }
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
    use proptest::prelude::*;

    fn geometry() -> Geometry {
        Geometry::new(4, 512, 512, 64, 64)
    }

    fn store(g: Geometry) -> TileStore {
        TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new())
    }

    /// The search `scored` replaced, kept as its oracle: best move-path
    /// probability from `from` to `target` within `depth` moves, one
    /// depth-first search per candidate.
    fn path_prob(
        model: &KneserNey,
        geometry: Geometry,
        seq: &mut Vec<u16>,
        from: TileId,
        target: TileId,
        depth: usize,
    ) -> f64 {
        if depth == 0 {
            return 0.0;
        }
        let dist = model.distribution(seq);
        let mut best = 0.0f64;
        for m in MOVES {
            if let Some(next) = geometry.apply(from, m) {
                let p = dist[m.index()];
                if next == target {
                    best = best.max(p);
                } else if depth > 1 && p > best {
                    seq.push(m.index() as u16);
                    let tail = path_prob(model, geometry, seq, next, target, depth - 1);
                    seq.pop();
                    best = best.max(p * tail);
                }
            }
        }
        best
    }

    /// `scored` as it was computed before the forward expansion.
    fn dfs_scored(ab: &AbRecommender, ctx: &PredictionContext<'_>) -> Vec<(TileId, f64)> {
        let mut seq = ctx.history.move_sequence();
        let dist = ab.model.distribution(&seq);
        let mut scored: Vec<(TileId, f64)> = ctx
            .candidates
            .iter()
            .map(|&c| {
                let score = match ctx.geometry.move_between(ctx.request.tile, c) {
                    Some(m) => dist[m.index()],
                    None => path_prob(&ab.model, ctx.geometry, &mut seq, ctx.request.tile, c, 3),
                };
                (c, score)
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        scored
    }

    /// Distributions `scored` computes for `ctx`.
    fn distributions(ab: &AbRecommender, ctx: &PredictionContext<'_>) -> usize {
        let before = distributions_computed();
        ab.scored(ctx);
        distributions_computed() - before
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

    /// The deterministic guard against a per-candidate search coming
    /// back: the distributions one ranking computes depend on the
    /// request tile's move tree, never on how many candidates are read
    /// off it.
    #[test]
    fn work_does_not_grow_with_candidates() {
        let traces = right_runs();
        let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
        let ab = AbRecommender::train(refs, 3);
        let g = geometry();
        let s = store(g);
        let mut h = SessionHistory::new(3);
        // Level 2 of 4 is interior: all nine moves are legal.
        let cur = Request::new(TileId::new(2, 1, 1), Some(Move::PanRight));
        h.push(cur);
        let count = |candidates: &[TileId]| {
            let ctx = PredictionContext {
                request: cur,
                history: &h,
                candidates,
                geometry: g,
                store: &s,
                roi: &[],
            };
            distributions(&ab, &ctx)
        };
        let (d1, d2, d3) = (
            g.candidates(cur.tile, 1),
            g.candidates(cur.tile, 2),
            g.candidates(cur.tile, 3),
        );
        assert_eq!(d1.len(), MOVES.len());
        assert!(d1.len() < d2.len() && d2.len() < d3.len());
        // Every candidate adjacent: the root's distribution only.
        assert_eq!(count(&d1), 1);
        assert_eq!(count(&d1[..3]), 1);
        assert_eq!(count(&[]), 1);
        // Anything further: one walk of the move tree, root + ≤ 9 + ≤ 81
        // interior nodes, whether one candidate needs it or hundreds.
        let walk = count(&d2);
        assert!(walk > 1 && walk <= 91, "{walk} distributions");
        assert_eq!(count(&d3), walk);
        assert_eq!(count(&d2[d1.len()..d1.len() + 1]), walk);
        let repeated: Vec<TileId> = d3.iter().cycle().take(4 * d3.len()).copied().collect();
        assert_eq!(count(&repeated), walk);
    }

    const GEOMETRIES: [(u8, usize, usize, usize, usize); 4] = [
        (4, 512, 512, 64, 64),
        (6, 1024, 1024, 32, 32),
        (3, 1, 1024, 1, 256),  // one-row time series
        (3, 300, 500, 64, 64), // ragged grid
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The forward expansion is the per-candidate search, bit for
        /// bit: same scores, same order — over random models of order
        /// 0–4, every geometry shape, any tile, histories of 0–4 moves,
        /// d = 1..3, and candidate lists that also hold the request
        /// tile, a repeated tile and a tile no path reaches.
        #[test]
        fn forward_expansion_matches_per_candidate_search(
            traces in proptest::collection::vec(
                proptest::collection::vec(0u16..MOVES.len() as u16, 0..40), 1..6),
            order in 0usize..5,
            shape in 0usize..GEOMETRIES.len(),
            tile in any::<u32>(),
            moves in proptest::collection::vec(0usize..MOVES.len(), 0..5),
            capacity in 1usize..5,
            d in 1usize..4,
            extras in any::<bool>(),
        ) {
            let ab = AbRecommender::train(traces.iter().map(Vec::as_slice), order);
            let (levels, raw_h, raw_w, tile_h, tile_w) = GEOMETRIES[shape];
            let g = Geometry::new(levels, raw_h, raw_w, tile_h, tile_w);
            let s = store(g);
            let tile = g.all_tiles().nth(tile as usize % g.total_tiles()).unwrap();
            let mut h = SessionHistory::new(capacity);
            let mut cur = Request::initial(tile);
            h.push(cur);
            for m in moves {
                cur = Request::new(tile, Some(MOVES[m]));
                h.push(cur);
            }
            let mut candidates = g.candidates(tile, d);
            if extras {
                candidates.push(tile);
                candidates.extend(candidates.first().copied());
                candidates.extend(g.all_tiles().last());
            }
            let ctx = PredictionContext {
                request: cur,
                history: &h,
                candidates: &candidates,
                geometry: g,
                store: &s,
                roi: &[],
            };
            let bits = |scored: Vec<(TileId, f64)>| -> Vec<(TileId, u64)> {
                scored.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
            };
            prop_assert_eq!(bits(ab.scored(&ctx)), bits(dfs_scored(&ab, &ctx)));
        }
    }
}
