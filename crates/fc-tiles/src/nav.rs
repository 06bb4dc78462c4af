//! The browsing interface's move alphabet (paper §5.2.2).
//!
//! "the interface only supports nine different moves: zoom out, pan (left,
//! right, up, down), and zoom in (users could zoom into one of four tiles
//! at the zoom level below)". At `k = 9` prefetching is guaranteed to
//! contain the next request.

use std::fmt;

/// One of the four quadrants of a tile, targeted by a zoom-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Quadrant {
    /// Top-left child.
    Nw,
    /// Top-right child.
    Ne,
    /// Bottom-left child.
    Sw,
    /// Bottom-right child.
    Se,
}

impl Quadrant {
    /// All four quadrants, in child-index order.
    pub const ALL: [Quadrant; 4] = [Quadrant::Nw, Quadrant::Ne, Quadrant::Sw, Quadrant::Se];

    /// Row offset (0 or 1) of the child tile.
    pub fn dy(self) -> u32 {
        matches!(self, Quadrant::Sw | Quadrant::Se) as u32
    }

    /// Column offset (0 or 1) of the child tile.
    pub fn dx(self) -> u32 {
        matches!(self, Quadrant::Ne | Quadrant::Se) as u32
    }
}

/// A user interaction ("move") in the browsing interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Move {
    /// Pan one tile up (decreasing y).
    PanUp,
    /// Pan one tile down (increasing y).
    PanDown,
    /// Pan one tile left (decreasing x).
    PanLeft,
    /// Pan one tile right (increasing x).
    PanRight,
    /// Zoom out to the parent tile.
    ZoomOut,
    /// Zoom in to one of the four child tiles.
    ZoomIn(Quadrant),
}

/// All nine moves, in a fixed canonical order. This ordering doubles as
/// the move vocabulary for the n-gram model.
pub const MOVES: [Move; 9] = [
    Move::PanUp,
    Move::PanDown,
    Move::PanLeft,
    Move::PanRight,
    Move::ZoomOut,
    Move::ZoomIn(Quadrant::Nw),
    Move::ZoomIn(Quadrant::Ne),
    Move::ZoomIn(Quadrant::Sw),
    Move::ZoomIn(Quadrant::Se),
];

impl Move {
    /// Index of this move in [`MOVES`] (stable vocabulary id).
    pub fn index(self) -> usize {
        match self {
            Move::PanUp => 0,
            Move::PanDown => 1,
            Move::PanLeft => 2,
            Move::PanRight => 3,
            Move::ZoomOut => 4,
            Move::ZoomIn(Quadrant::Nw) => 5,
            Move::ZoomIn(Quadrant::Ne) => 6,
            Move::ZoomIn(Quadrant::Sw) => 7,
            Move::ZoomIn(Quadrant::Se) => 8,
        }
    }

    /// Inverse of [`Move::index`].
    ///
    /// # Panics
    /// Panics when `idx >= 9`.
    pub fn from_index(idx: usize) -> Move {
        MOVES[idx]
    }

    /// Whether this is any pan move.
    pub fn is_pan(self) -> bool {
        matches!(
            self,
            Move::PanUp | Move::PanDown | Move::PanLeft | Move::PanRight
        )
    }

    /// Whether this is a zoom-in move.
    pub fn is_zoom_in(self) -> bool {
        matches!(self, Move::ZoomIn(_))
    }

    /// Whether this is the zoom-out move.
    pub fn is_zoom_out(self) -> bool {
        matches!(self, Move::ZoomOut)
    }

    /// The *move class* used in trace summaries (Fig. 8): pan / zoom-in /
    /// zoom-out.
    pub fn class(self) -> MoveClass {
        if self.is_pan() {
            MoveClass::Pan
        } else if self.is_zoom_in() {
            MoveClass::ZoomIn
        } else {
            MoveClass::ZoomOut
        }
    }

    /// Short stable name used by the trace codec.
    pub fn name(self) -> &'static str {
        match self {
            Move::PanUp => "up",
            Move::PanDown => "down",
            Move::PanLeft => "left",
            Move::PanRight => "right",
            Move::ZoomOut => "out",
            Move::ZoomIn(Quadrant::Nw) => "in_nw",
            Move::ZoomIn(Quadrant::Ne) => "in_ne",
            Move::ZoomIn(Quadrant::Sw) => "in_sw",
            Move::ZoomIn(Quadrant::Se) => "in_se",
        }
    }

    /// Parses a name produced by [`Move::name`].
    pub fn from_name(s: &str) -> Option<Move> {
        MOVES.into_iter().find(|m| m.name() == s)
    }
}

/// Coarse move categories reported in the paper's Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveClass {
    /// Any directional pan.
    Pan,
    /// Any zoom-in.
    ZoomIn,
    /// Zoom-out.
    ZoomOut,
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_distinct_moves() {
        assert_eq!(MOVES.len(), 9);
        for (i, m) in MOVES.iter().enumerate() {
            assert_eq!(m.index(), i);
            assert_eq!(Move::from_index(i), *m);
        }
    }

    #[test]
    fn name_roundtrip() {
        for m in MOVES {
            assert_eq!(Move::from_name(m.name()), Some(m));
        }
        assert_eq!(Move::from_name("bogus"), None);
    }

    #[test]
    fn quadrant_offsets() {
        assert_eq!((Quadrant::Nw.dy(), Quadrant::Nw.dx()), (0, 0));
        assert_eq!((Quadrant::Ne.dy(), Quadrant::Ne.dx()), (0, 1));
        assert_eq!((Quadrant::Sw.dy(), Quadrant::Sw.dx()), (1, 0));
        assert_eq!((Quadrant::Se.dy(), Quadrant::Se.dx()), (1, 1));
    }

    #[test]
    fn classes_partition_moves() {
        let pans = MOVES.iter().filter(|m| m.is_pan()).count();
        let ins = MOVES.iter().filter(|m| m.is_zoom_in()).count();
        let outs = MOVES.iter().filter(|m| m.is_zoom_out()).count();
        assert_eq!((pans, ins, outs), (4, 4, 1));
        assert_eq!(Move::PanUp.class(), MoveClass::Pan);
        assert_eq!(Move::ZoomOut.class(), MoveClass::ZoomOut);
        assert_eq!(Move::ZoomIn(Quadrant::Se).class(), MoveClass::ZoomIn);
    }

    #[test]
    fn display_is_name() {
        assert_eq!(Move::ZoomIn(Quadrant::Nw).to_string(), "in_nw");
    }
}
