//! Pyramid geometry: which tiles exist, and how moves map between them.

use crate::id::TileId;
#[cfg(test)]
use crate::nav::Quadrant;
use crate::nav::{Move, MOVES};

/// The shape of a tile pyramid: number of zoom levels and per-level tile
/// grids derived from the raw array shape and the tiling intervals.
///
/// Level `levels-1` is the raw data; level `l` aggregates the raw array
/// with windows of `2^(levels-1-l)` cells per dimension (§2.3: "we
/// calculated our zoom levels bottom-up, multiplying our aggregation
/// intervals by 2 for each coarser zoom level").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of zoom levels (≥ 1).
    pub levels: u8,
    /// Raw (deepest level) array height in cells.
    pub raw_h: usize,
    /// Raw array width in cells.
    pub raw_w: usize,
    /// Tile height in (aggregated) cells — the tiling interval.
    pub tile_h: usize,
    /// Tile width in cells.
    pub tile_w: usize,
    /// Tile grid `(rows, cols)` of the deepest level, from which every
    /// coarser grid follows by a shift (see [`Geometry::tiles_at`]).
    deepest: (usize, usize),
}

impl Geometry {
    /// Creates a geometry.
    ///
    /// # Panics
    /// Panics on zero levels, tile sizes, or raw dimensions, and on more
    /// levels than a `usize` has bits: level 0's aggregation window,
    /// `2^(levels − 1)`, must fit one.
    pub fn new(levels: u8, raw_h: usize, raw_w: usize, tile_h: usize, tile_w: usize) -> Self {
        assert!(levels >= 1, "need at least one zoom level");
        assert!(
            u32::from(levels) <= usize::BITS,
            "at most {} zoom levels: level 0's aggregation window 2^(levels - 1) must fit a usize",
            usize::BITS
        );
        assert!(tile_h >= 1 && tile_w >= 1, "tile size must be positive");
        assert!(raw_h >= 1 && raw_w >= 1, "raw shape must be positive");
        Self {
            levels,
            raw_h,
            raw_w,
            tile_h,
            tile_w,
            deepest: (raw_h.div_ceil(tile_h), raw_w.div_ceil(tile_w)),
        }
    }

    /// Aggregation window applied to the raw array for `level`.
    pub(crate) fn agg_window(&self, level: u8) -> usize {
        1usize << (self.levels - 1 - level)
    }

    /// Tile-grid dimensions `(rows, cols)` at `level`:
    /// `⌈⌈raw / 2^s⌉ / tile⌉ = ⌈⌈raw / tile⌉ / 2^s⌉` (nested ceilings
    /// compose), with `s = levels − 1 − level` — a shift of the deepest
    /// grid instead of four divisions.
    pub fn tiles_at(&self, level: u8) -> (u32, u32) {
        let s = self.levels - 1 - level;
        let ceil_shr = |n: usize| (n >> s) + usize::from(n & ((1usize << s) - 1) != 0);
        let (rows, cols) = self.deepest;
        (
            u32::try_from(ceil_shr(rows)).expect("tile rows fit u32"),
            u32::try_from(ceil_shr(cols)).expect("tile cols fit u32"),
        )
    }

    /// Whether `id` denotes an existing tile.
    pub fn contains(&self, id: TileId) -> bool {
        if id.level >= self.levels {
            return false;
        }
        let (rows, cols) = self.tiles_at(id.level);
        id.y < rows && id.x < cols
    }

    /// Total number of tiles across all levels.
    pub fn total_tiles(&self) -> usize {
        (0..self.levels)
            .map(|l| {
                let (r, c) = self.tiles_at(l);
                r as usize * c as usize
            })
            .sum()
    }

    /// Iterates over every tile id, coarsest level first.
    pub fn all_tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.levels).flat_map(move |l| {
            let (rows, cols) = self.tiles_at(l);
            (0..rows).flat_map(move |y| (0..cols).map(move |x| TileId::new(l, y, x)))
        })
    }

    /// Applies `mv` to the tile `from`; `None` when the move would leave
    /// the dataset (interactions are incremental — no jumping, §2.2).
    pub fn apply(&self, from: TileId, mv: Move) -> Option<TileId> {
        debug_assert!(self.contains(from), "apply from nonexistent tile {from}");
        let to = match mv {
            Move::PanUp => TileId::new(from.level, from.y.checked_sub(1)?, from.x),
            Move::PanDown => TileId::new(from.level, from.y + 1, from.x),
            Move::PanLeft => TileId::new(from.level, from.y, from.x.checked_sub(1)?),
            Move::PanRight => TileId::new(from.level, from.y, from.x + 1),
            Move::ZoomOut => from.parent()?,
            Move::ZoomIn(q) => {
                if from.level + 1 >= self.levels {
                    return None;
                }
                TileId::new(from.level + 1, from.y * 2 + q.dy(), from.x * 2 + q.dx())
            }
        };
        self.contains(to).then_some(to)
    }

    /// The moves that are legal from `from`.
    pub fn legal_moves(&self, from: TileId) -> Vec<Move> {
        MOVES
            .into_iter()
            .filter(|&m| self.apply(from, m).is_some())
            .collect()
    }

    /// Infers which move produced the transition `from → to`, if any
    /// single move explains it.
    pub fn move_between(&self, from: TileId, to: TileId) -> Option<Move> {
        MOVES.into_iter().find(|&m| self.apply(from, m) == Some(to))
    }

    /// The candidate set for prediction: all tiles reachable in **at most
    /// `d` moves** from `from`, excluding `from` itself (paper §4.3.1,
    /// default `d = 1`). Order: BFS (distance-1 tiles first), move order
    /// within a ring.
    ///
    /// This search is the reference. The prediction engine reads the
    /// same list at d = 2 and 3 from the AB model's per-tile move trees,
    /// which a process resolves once (`fc-core`'s `AbRecommender`), and
    /// calls this everywhere else.
    pub fn candidates(&self, from: TileId, d: usize) -> Vec<TileId> {
        // `out` is its own seen-set and, by index range, its own
        // frontier; `from` sits at the front until the search is done.
        let mut out = vec![from];
        let mut ring = 0..1;
        for _ in 0..d {
            for i in ring.clone() {
                for m in MOVES {
                    if let Some(n) = self.apply(out[i], m) {
                        if !out.contains(&n) {
                            out.push(n);
                        }
                    }
                }
            }
            ring = ring.end..out.len();
        }
        out.remove(0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 levels over a 512x512 raw array with 64x64 tiles:
    /// level 0: 64x64 cells = 1x1 tiles … level 3: 512x512 = 8x8 tiles.
    fn geo() -> Geometry {
        Geometry::new(4, 512, 512, 64, 64)
    }

    #[test]
    fn level_shapes_double() {
        let g = geo();
        assert_eq!(g.tiles_at(0), (1, 1));
        assert_eq!(g.tiles_at(1), (2, 2));
        assert_eq!(g.tiles_at(3), (8, 8));
        assert_eq!(g.total_tiles(), 1 + 4 + 16 + 64);
    }

    #[test]
    fn ragged_shapes_round_up() {
        let g = Geometry::new(3, 300, 500, 64, 64);
        // level 2 raw: 300x500 → 5x8 tiles
        assert_eq!(g.tiles_at(2), (5, 8));
        // level 0 window 4: 75x125 cells → 2x2 tiles
        assert_eq!(g.tiles_at(0), (2, 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The shifted deepest grid is the per-level division formula,
        /// ragged shapes included.
        #[test]
        fn tiles_at_is_the_div_ceil_formula(
            levels in 1u8..=16,
            raw_h in 1usize..=4096,
            raw_w in 1usize..=4096,
            tile_h in 1usize..=257,
            tile_w in 1usize..=257,
        ) {
            let g = Geometry::new(levels, raw_h, raw_w, tile_h, tile_w);
            for level in 0..levels {
                let w = 1usize << (levels - 1 - level);
                let rows = raw_h.div_ceil(w).div_ceil(tile_h);
                let cols = raw_w.div_ceil(w).div_ceil(tile_w);
                proptest::prop_assert_eq!(g.tiles_at(level), (rows as u32, cols as u32));
            }
        }
    }

    #[test]
    fn sixty_four_levels_reach_a_one_tile_root() {
        let g = Geometry::new(64, 1024, 1024, 32, 32);
        assert_eq!(g.agg_window(0), 1 << 63);
        assert_eq!(g.tiles_at(0), (1, 1));
        assert_eq!(g.tiles_at(63), (32, 32));
    }

    /// Past 64 levels, level 0's window `1 << 64` would wrap (release
    /// masks the shift to `1 << 0`) and hand back the deepest grid.
    #[test]
    #[should_panic(expected = "at most 64 zoom levels")]
    fn more_than_sixty_four_levels_are_rejected() {
        Geometry::new(65, 1024, 1024, 32, 32);
    }

    #[test]
    fn root_has_only_zoom_ins() {
        let g = geo();
        let legal = g.legal_moves(TileId::ROOT);
        assert_eq!(legal.len(), 4);
        assert!(legal.iter().all(|m| m.is_zoom_in()));
    }

    #[test]
    fn apply_pans_respect_bounds() {
        let g = geo();
        let t = TileId::new(3, 0, 0);
        assert_eq!(g.apply(t, Move::PanUp), None);
        assert_eq!(g.apply(t, Move::PanLeft), None);
        assert_eq!(g.apply(t, Move::PanDown), Some(TileId::new(3, 1, 0)));
        assert_eq!(g.apply(t, Move::PanRight), Some(TileId::new(3, 0, 1)));
        // Deepest level cannot zoom in.
        assert_eq!(g.apply(t, Move::ZoomIn(Quadrant::Nw)), None);
    }

    #[test]
    fn zoom_roundtrip() {
        let g = geo();
        let t = TileId::new(1, 1, 0);
        let child = g.apply(t, Move::ZoomIn(Quadrant::Se)).unwrap();
        assert_eq!(child, TileId::new(2, 3, 1));
        assert_eq!(g.apply(child, Move::ZoomOut), Some(t));
    }

    #[test]
    fn move_between_identifies_moves() {
        let g = geo();
        let t = TileId::new(2, 1, 1);
        for m in g.legal_moves(t) {
            let to = g.apply(t, m).unwrap();
            assert_eq!(g.move_between(t, to), Some(m));
        }
        // No single move explains a 2-step pan.
        assert_eq!(g.move_between(t, TileId::new(2, 1, 3)), None);
    }

    #[test]
    fn candidates_d1_are_legal_neighbors() {
        let g = geo();
        let t = TileId::new(2, 1, 1);
        let c = g.candidates(t, 1);
        assert_eq!(c.len(), g.legal_moves(t).len());
        assert!(!c.contains(&t));
        // Interior deep-level tile has all nine neighbours except zoom-in
        // at the deepest level; level 2 of 4 can zoom in, so 9 candidates.
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn candidates_d2_superset_of_d1() {
        let g = geo();
        let t = TileId::new(2, 1, 1);
        let c1 = g.candidates(t, 1);
        let c2 = g.candidates(t, 2);
        assert!(c1.iter().all(|x| c2.contains(x)));
        assert!(c2.len() > c1.len());
        // BFS ordering: first |c1| entries are the distance-1 ring.
        assert_eq!(&c2[..c1.len()], c1.as_slice());
    }

    #[test]
    fn one_dimensional_dataset_disables_vertical_moves() {
        // A time-series style pyramid: 1 row of cells.
        let g = Geometry::new(3, 1, 1024, 1, 256);
        let t = TileId::new(2, 0, 1);
        let legal = g.legal_moves(t);
        assert!(legal.contains(&Move::PanLeft));
        assert!(legal.contains(&Move::PanRight));
        assert!(!legal.contains(&Move::PanUp));
        assert!(!legal.contains(&Move::PanDown));
        // Zoom-ins limited to the top-row quadrants.
        assert!(!legal.contains(&Move::ZoomIn(Quadrant::Sw)));
    }

    #[test]
    fn all_tiles_enumerates_everything() {
        let g = geo();
        let all: Vec<TileId> = g.all_tiles().collect();
        assert_eq!(all.len(), g.total_tiles());
        assert!(all.iter().all(|&t| g.contains(t)));
        assert_eq!(all[0], TileId::ROOT);
    }
}
