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
//! When every candidate is one move away (prediction distance 1, the
//! default) only the root's distribution is computed, and each
//! candidate finds its move among the requested tile's nine
//! neighbours. Otherwise the move tree is walked **once per request**,
//! forward from the requested tile: each of its ≤ 1 + 9 + 81 interior
//! nodes computes its distribution once, and every path's endpoint
//! keeps the best probability seen; each candidate then reads its
//! endpoint's. Where each path ends depends only on the tile and the
//! grid, so it is resolved once per tile and process into a
//! [`MoveTree`], shared by every clone of the model: the walk reads a
//! byte per path and applies no move, and its work does not depend on
//! how many candidates there are.

use crate::recommender::{PredictionContext, Recommender};
use crate::slots::TileSlots;
use fc_ngram::KneserNey;
use fc_tiles::{Geometry, TileId, MOVES};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Moves out of a tile: the branching factor of a move tree.
const N: usize = MOVES.len();

/// One smoothed next-move distribution, indexed by `Move::index`.
type MoveDist = [f64; N];

/// A path's endpoint byte when the path takes an illegal move; also a
/// free slot of a tree's endpoint index.
const ILLEGAL: u8 = u8::MAX;

/// Slots of a tree's endpoint index: a power of two at least twice the
/// most endpoints a tree holds, so a probe run stays short.
const INDEX_SLOTS: usize = 512;

/// Most trees a memo holds: one 16-byte slot each, about 4 KiB per tree
/// once built. A grid larger than this is memoized from level 0 down to
/// the last level that fits.
const MEMO_TREES: usize = 1 << 16;

#[cfg(test)]
thread_local! {
    static DISTRIBUTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static TREES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Distributions computed so far on this thread — what the work-count
/// pins measure.
#[cfg(test)]
pub(crate) fn distributions_computed() -> usize {
    DISTRIBUTIONS.with(std::cell::Cell::get)
}

/// The three-move tree of one origin tile under one geometry: where
/// each path of one, two and three moves ends, as an index into the
/// tree's distinct endpoints (`ILLEGAL` when the path takes an illegal
/// move), and an index from tile to endpoint.
pub struct MoveTree {
    /// `one[m1]`.
    one: [u8; N],
    /// `two[m1 * N + m2]`.
    two: [u8; N * N],
    /// `three[(m1 * N + m2) * N + m3]`.
    three: [u8; N * N * N],
    /// The distinct endpoints, in the order the paths first reach them.
    endpoints: Vec<TileId>,
    /// Open-addressed from a tile's hash: an index into `endpoints`, or
    /// `ILLEGAL` for a free slot.
    index: [u8; INDEX_SLOTS],
}

impl MoveTree {
    /// Resolves every path of one to three moves out of `origin`: 819
    /// [`Geometry::apply`] calls.
    ///
    /// # Panics
    /// Panics when the tree has 255 or more distinct endpoints, which
    /// no grid allows (see the bound in the body).
    pub fn new(geometry: Geometry, origin: TileId) -> Self {
        #[cfg(test)]
        TREES_BUILT.with(|n| n.set(n.get() + 1));
        let mut tree = Self {
            one: [ILLEGAL; N],
            two: [ILLEGAL; N * N],
            three: [ILLEGAL; N * N * N],
            endpoints: Vec::new(),
            index: [ILLEGAL; INDEX_SLOTS],
        };
        for (m1, mv1) in MOVES.into_iter().enumerate() {
            let Some(t1) = geometry.apply(origin, mv1) else {
                continue;
            };
            tree.one[m1] = tree.intern(t1);
            for (m2, mv2) in MOVES.into_iter().enumerate() {
                let Some(t2) = geometry.apply(t1, mv2) else {
                    continue;
                };
                let path = m1 * N + m2;
                tree.two[path] = tree.intern(t2);
                for (m3, mv3) in MOVES.into_iter().enumerate() {
                    if let Some(t3) = geometry.apply(t2, mv3) {
                        tree.three[path * N + m3] = tree.intern(t3);
                    }
                }
            }
        }
        tree.endpoints.shrink_to_fit();
        tree
    }

    /// Fibonacci hash of the packed coordinates; a collision costs a
    /// probe, never a wrong answer (both probes compare the tile).
    fn home(t: TileId) -> usize {
        let packed = (u64::from(t.level) << 58) ^ (u64::from(t.y) << 29) ^ u64::from(t.x);
        (packed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - INDEX_SLOTS.trailing_zeros())) as usize
    }

    /// The endpoint index of `tile`, or the free slot its probe run
    /// ends at.
    fn probe(&self, tile: TileId) -> Result<u8, usize> {
        let mut s = Self::home(tile);
        loop {
            match self.index[s] {
                ILLEGAL => return Err(s),
                e if self.endpoints[usize::from(e)] == tile => return Ok(e),
                _ => s = (s + 1) % INDEX_SLOTS,
            }
        }
    }

    /// `tile`'s endpoint index, added when new.
    fn intern(&mut self, tile: TileId) -> u8 {
        self.probe(tile).unwrap_or_else(|free| {
            // Which tiles three moves reach depends only on which moves
            // are legal nearby and on the origin's coordinates mod 8
            // (three zoom-outs). A 10-level grid of 512² deepest tiles
            // holds every such case with three levels above and below,
            // and its most is 242 endpoints (ctx32's most is 208,
            // ctx64's 144). So a byte names any endpoint, with
            // `ILLEGAL` to spare.
            assert!(
                self.endpoints.len() < usize::from(ILLEGAL),
                "a move tree has fewer than 255 endpoints"
            );
            let e = self.endpoints.len() as u8;
            self.endpoints.push(tile);
            self.index[free] = e;
            e
        })
    }

    /// The endpoint index of `tile`, when some path ends there.
    fn endpoint(&self, tile: TileId) -> Option<usize> {
        self.probe(tile).ok().map(usize::from)
    }
}

/// The AB recommendation model: a Kneser–Ney smoothed move-sequence
/// Markov chain. The chain is immutable once trained, so a clone — one
/// per session — shares its tables, and shares the move trees of the
/// geometry that the first [`crate::PredictionEngine`] built over it
/// binds.
#[derive(Clone)]
pub struct AbRecommender {
    trained: Arc<Trained>,
}

struct Trained {
    chain: KneserNey,
    trees: OnceLock<TreeMemo>,
}

/// One lazily built tree per tile of a geometry's grid.
struct TreeMemo {
    geometry: Geometry,
    slots: TileSlots,
    trees: Box<[OnceLock<Box<MoveTree>>]>,
}

impl TreeMemo {
    fn new(geometry: Geometry) -> Self {
        let slots = TileSlots::new(geometry, MEMO_TREES);
        Self {
            geometry,
            trees: (0..slots.len()).map(|_| OnceLock::new()).collect(),
            slots,
        }
    }

    fn filled(&self) -> usize {
        self.trees.iter().filter(|t| t.get().is_some()).count()
    }
}

impl fmt::Debug for AbRecommender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let memo = self.trained.trees.get();
        f.debug_struct("AbRecommender")
            .field("order", &self.order())
            .field("trees_filled", &memo.map_or(0, TreeMemo::filled))
            .field("tree_slots", &memo.map_or(0, |m| m.trees.len()))
            .finish()
    }
}

impl AbRecommender {
    /// Trains from move-id traces with context length `order` (the paper
    /// settles on `order = 3`, "Markov3").
    pub fn train<'a, I>(traces: I, order: usize) -> Self
    where
        I: IntoIterator<Item = &'a [u16]>,
    {
        Self {
            trained: Arc::new(Trained {
                chain: KneserNey::train(traces, order, MOVES.len()),
                trees: OnceLock::new(),
            }),
        }
    }

    /// Context length of the underlying chain.
    pub fn order(&self) -> usize {
        self.trained.chain.order()
    }

    /// Binds the memo of move trees to `geometry`'s tile grid, for this
    /// model and every clone of it. The first call binds; later calls —
    /// whatever their geometry — do nothing. A request on another
    /// geometry, or on a tile past the memo's cap, builds its tree for
    /// that call alone. Trees are built lazily, by the first request
    /// that walks each one.
    pub(crate) fn memoize(&self, geometry: Geometry) {
        self.trained.trees.get_or_init(|| TreeMemo::new(geometry));
    }

    /// The move tree of `origin`: the memo's, built there on first use,
    /// or else one built into `local`.
    fn tree<'t>(
        &'t self,
        geometry: Geometry,
        origin: TileId,
        local: &'t mut Option<MoveTree>,
    ) -> &'t MoveTree {
        let memo = self.trained.trees.get().filter(|m| m.geometry == geometry);
        match memo.and_then(|m| Some(&m.trees[m.slots.slot(origin)?])) {
            Some(cell) => cell.get_or_init(|| Box::new(MoveTree::new(geometry, origin))),
            None => local.insert(MoveTree::new(geometry, origin)),
        }
    }

    /// The smoothed distribution of the move after `seq`.
    fn dist(&self, seq: &[u16]) -> MoveDist {
        #[cfg(test)]
        DISTRIBUTIONS.with(|n| n.set(n.get() + 1));
        let mut dist = [0.0; N];
        self.trained.chain.distribution_into(seq, &mut dist);
        dist
    }

    /// The best path probability into each of `tree`'s endpoints, by
    /// the module doc's rule: the walk's products, maxed per endpoint,
    /// then a one-move endpoint's move probability over whatever longer
    /// paths led back to it. `seq` is the history's move sequence, and
    /// `first` its distribution.
    fn walk(
        &self,
        tree: &MoveTree,
        seq: &mut Vec<u16>,
        first: &MoveDist,
    ) -> [f64; ILLEGAL as usize] {
        let mut best = [0.0f64; ILLEGAL as usize];
        for (m1, &p1) in first.iter().enumerate() {
            if tree.one[m1] == ILLEGAL {
                continue;
            }
            seq.push(m1 as u16);
            let second = self.dist(seq);
            for (m2, &p2) in second.iter().enumerate() {
                let path = m1 * N + m2;
                let e2 = tree.two[path];
                if e2 == ILLEGAL {
                    continue;
                }
                let e2 = usize::from(e2);
                best[e2] = best[e2].max(p1 * p2);
                seq.push(m2 as u16);
                let third = self.dist(seq);
                for (&e3, &p3) in tree.three[path * N..][..N].iter().zip(&third) {
                    if e3 != ILLEGAL {
                        let e3 = usize::from(e3);
                        best[e3] = best[e3].max(p1 * (p2 * p3));
                    }
                }
                seq.pop();
            }
            seq.pop();
        }
        for (&e1, &p1) in tree.one.iter().zip(first) {
            if e1 != ILLEGAL {
                best[usize::from(e1)] = p1;
            }
        }
        best
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
        let hops = MOVES.map(|m| g.apply(origin, m));
        let mut scored = Vec::with_capacity(ctx.candidates.len());
        for &c in ctx.candidates {
            let Some(m) = hops.iter().position(|&h| h == Some(c)) else {
                break;
            };
            scored.push((c, first[m]));
        }
        if scored.len() < ctx.candidates.len() {
            // Some candidate is more than one move away: walk the tree.
            let mut local = None;
            let tree = self.tree(g, origin, &mut local);
            let best = self.walk(tree, &mut seq, &first);
            scored.clear();
            scored.extend(
                ctx.candidates
                    .iter()
                    .map(|&c| (c, tree.endpoint(c).map_or(0.0, |e| best[e]))),
            );
        }
        scored.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
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
        let mut dist = [0.0; N];
        model.distribution_into(seq, &mut dist);
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
        let mut dist = [0.0; N];
        ab.trained.chain.distribution_into(&seq, &mut dist);
        let mut scored: Vec<(TileId, f64)> = ctx
            .candidates
            .iter()
            .map(|&c| {
                let score = match ctx.geometry.move_between(ctx.request.tile, c) {
                    Some(m) => dist[m.index()],
                    None => path_prob(
                        &ab.trained.chain,
                        ctx.geometry,
                        &mut seq,
                        ctx.request.tile,
                        c,
                        3,
                    ),
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

    /// Move trees built so far on this thread.
    fn trees_built() -> usize {
        TREES_BUILT.with(std::cell::Cell::get)
    }

    fn right_run_model() -> AbRecommender {
        AbRecommender::train(right_runs().iter().map(Vec::as_slice), 3)
    }

    /// Ranks a pan onto `tile` against its `d`-move candidates, checks
    /// the ranking against the per-candidate search bit for bit, and
    /// returns how many move trees the ranking built.
    fn trees_for(ab: &AbRecommender, g: Geometry, tile: TileId, d: usize) -> usize {
        let s = store(g);
        let mut h = SessionHistory::new(3);
        let cur = Request::new(tile, Some(Move::PanRight));
        h.push(cur);
        let candidates = g.candidates(tile, d);
        let ctx = PredictionContext {
            request: cur,
            history: &h,
            candidates: &candidates,
            geometry: g,
            store: &s,
            roi: &[],
        };
        let before = trees_built();
        let got = ab.scored(&ctx);
        let built = trees_built() - before;
        let bits = |scored: Vec<(TileId, f64)>| -> Vec<(TileId, u64)> {
            scored.into_iter().map(|(t, p)| (t, p.to_bits())).collect()
        };
        assert_eq!(bits(got), bits(dfs_scored(ab, &ctx)), "{tile} at d = {d}");
        built
    }

    #[test]
    fn a_clone_reuses_its_parents_trees() {
        let (ab, g) = (right_run_model(), geometry());
        ab.memoize(g);
        let tile = TileId::new(2, 1, 1);
        assert_eq!(trees_for(&ab, g, tile, 2), 1);
        assert_eq!(trees_for(&ab, g, tile, 3), 0, "one tree serves every d > 1");
        let clone = ab.clone();
        assert_eq!(trees_for(&clone, g, tile, 2), 0);
        assert_eq!(trees_for(&clone, g, TileId::new(2, 1, 2), 2), 1);
        assert_eq!(trees_for(&ab, g, TileId::new(2, 1, 2), 3), 0);
        // 1 + 4 + 16 + 64 tiles.
        let shown = format!("{ab:?}");
        assert!(shown.contains("trees_filled: 2, tree_slots: 85"), "{shown}");
    }

    #[test]
    fn a_d1_request_builds_no_tree() {
        let (ab, g) = (right_run_model(), geometry());
        ab.memoize(g);
        for tile in g.all_tiles() {
            assert_eq!(trees_for(&ab, g, tile, 1), 0, "{tile}");
        }
        let shown = format!("{ab:?}");
        assert!(shown.contains("trees_filled: 0, tree_slots: 85"), "{shown}");
    }

    /// A context on a geometry other than the bound one gets a tree of
    /// its own for the call, even for a tile both grids hold.
    #[test]
    fn another_geometry_is_ranked_exactly_and_leaves_the_memo_alone() {
        let (ab, g) = (right_run_model(), geometry());
        ab.memoize(g);
        let other = Geometry::new(6, 1024, 1024, 32, 32);
        let tile = TileId::new(2, 1, 1);
        assert!(g.contains(tile) && other.contains(tile));
        assert_eq!(trees_for(&ab, other, tile, 2), 1);
        assert_eq!(trees_for(&ab, other, tile, 2), 1, "built again per call");
        ab.memoize(other);
        assert_eq!(trees_for(&ab, other, tile, 3), 1, "the first binding holds");
        let shown = format!("{ab:?}");
        assert!(shown.contains("trees_filled: 0, tree_slots: 85"), "{shown}");
        assert_eq!(trees_for(&ab, g, tile, 2), 1);
        assert_eq!(trees_for(&ab, g, tile, 2), 0);
    }

    #[test]
    fn a_tile_past_the_cap_is_ranked_exactly() {
        // 4^0 + … + 4^7 = 21,845 tiles fit the cap; with level 8 the
        // grid would need 87,381 slots.
        let (ab, g) = (right_run_model(), Geometry::new(10, 512, 512, 1, 1));
        ab.memoize(g);
        let memoized = TileId::new(7, 100, 100);
        assert_eq!(trees_for(&ab, g, memoized, 2), 1);
        assert_eq!(trees_for(&ab, g, memoized, 2), 0);
        for past in [TileId::new(8, 200, 200), TileId::new(9, 300, 300)] {
            assert_eq!(trees_for(&ab, g, past, 2), 1, "{past}");
            assert_eq!(trees_for(&ab, g, past, 2), 1, "{past} again");
        }
        let shown = format!("{ab:?}");
        assert!(
            shown.contains("trees_filled: 1, tree_slots: 21845"),
            "{shown}"
        );
    }

    /// An endpoint's byte has room: the most endpoints any tile's tree
    /// has on both benchmark grids, and at an interior tile of a deep
    /// grid, which no tile exceeds.
    #[test]
    fn endpoints_fit_a_byte() {
        let most = |g: Geometry| {
            g.all_tiles()
                .map(|t| MoveTree::new(g, t).endpoints.len())
                .max()
        };
        assert_eq!(most(Geometry::new(6, 1024, 1024, 32, 32)), Some(208));
        assert_eq!(most(Geometry::new(5, 1024, 1024, 64, 64)), Some(144));
        let deep = Geometry::new(10, 512, 512, 1, 1);
        let interior = MoveTree::new(deep, TileId::new(5, 16, 16));
        assert_eq!(interior.endpoints.len(), 242);
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
        /// d = 1..3, candidate lists that also hold the request tile, a
        /// repeated tile and a tile no path reaches, and move trees
        /// built for the call or (twice: built, then read) memoized.
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
            memoized in any::<bool>(),
        ) {
            let ab = AbRecommender::train(traces.iter().map(Vec::as_slice), order);
            let (levels, raw_h, raw_w, tile_h, tile_w) = GEOMETRIES[shape];
            let g = Geometry::new(levels, raw_h, raw_w, tile_h, tile_w);
            if memoized {
                ab.memoize(g);
            }
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
            let want = bits(dfs_scored(&ab, &ctx));
            prop_assert_eq!(bits(ab.scored(&ctx)), want.clone());
            if memoized {
                prop_assert_eq!(bits(ab.scored(&ctx)), want);
            }
        }
    }
}
