//! The most-recent-ROI heuristic — the paper's Algorithm 1, verbatim.
//!
//! The SB recommender needs "the last location in the dataset that the
//! user explored in detail". The heuristic searches the request stream
//! for the pattern: one zoom-in, zero or more pans, one zoom-out; the
//! tiles visited between the zoom-in and the zoom-out become the ROI.

use crate::history::Request;
use fc_tiles::TileId;

/// Streaming implementation of Algorithm 1 (`UPDATEROI`).
#[derive(Debug, Clone, Default)]
pub struct RoiTracker {
    roi: Vec<TileId>,
    temp_roi: Vec<TileId>,
    in_flag: bool,
}

impl RoiTracker {
    /// Creates a tracker with an empty ROI.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes one request and returns the current ROI (Algorithm 1,
    /// lines 4–15).
    pub fn update(&mut self, r: &Request) -> &[TileId] {
        match r.mv {
            // Lines 5-7: a zoom-in starts collecting a new tempROI.
            Some(m) if m.is_zoom_in() => {
                self.in_flag = true;
                self.temp_roi = vec![r.tile];
            }
            // Lines 8-12: a zoom-out commits tempROI if we were collecting.
            Some(m) if m.is_zoom_out() && self.in_flag => {
                self.roi = std::mem::take(&mut self.temp_roi);
                self.in_flag = false;
            }
            // Lines 13-14: pans while collecting extend tempROI.
            Some(m) if m.is_pan() && self.in_flag => {
                self.temp_roi.push(r.tile);
            }
            _ => {}
        }
        &self.roi
    }

    /// The user's most recent committed ROI.
    pub fn roi(&self) -> &[TileId] {
        &self.roi
    }

    /// Resets all state (new session).
    pub fn reset(&mut self) {
        self.roi.clear();
        self.temp_roi.clear();
        self.in_flag = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tiles::{Move, Quadrant, TileId};

    fn req(tile: TileId, mv: Move) -> Request {
        Request::new(tile, Some(mv))
    }

    fn zin() -> Move {
        Move::ZoomIn(Quadrant::Nw)
    }

    #[test]
    fn zoom_in_pan_zoom_out_commits_roi() {
        let mut t = RoiTracker::new();
        let a = TileId::new(3, 2, 2);
        let b = TileId::new(3, 2, 3);
        let c = TileId::new(3, 3, 3);
        t.update(&req(a, zin()));
        assert!(t.in_flag);
        t.update(&req(b, Move::PanRight));
        t.update(&req(c, Move::PanDown));
        assert!(t.roi().is_empty(), "ROI not committed until zoom-out");
        let out = t.update(&req(TileId::new(2, 1, 1), Move::ZoomOut)).to_vec();
        assert_eq!(out, vec![a, b, c]);
        assert!(!t.in_flag);
    }

    #[test]
    fn consecutive_zoom_ins_restart_collection() {
        let mut t = RoiTracker::new();
        t.update(&req(TileId::new(2, 0, 0), zin()));
        t.update(&req(TileId::new(3, 0, 0), zin()));
        t.update(&req(TileId::new(2, 0, 0), Move::ZoomOut));
        // Only the tile from the *last* zoom-in is committed (line 7
        // replaces tempROI).
        assert_eq!(t.roi(), &[TileId::new(3, 0, 0)]);
    }

    #[test]
    fn zoom_out_without_zoom_in_keeps_old_roi() {
        let mut t = RoiTracker::new();
        t.update(&req(TileId::new(3, 1, 1), zin()));
        t.update(&req(TileId::new(2, 0, 0), Move::ZoomOut));
        let committed = t.roi().to_vec();
        // A second zoom-out with inFlag false must not clear the ROI.
        t.update(&req(TileId::new(1, 0, 0), Move::ZoomOut));
        assert_eq!(t.roi(), committed.as_slice());
    }

    #[test]
    fn pans_outside_collection_are_ignored() {
        let mut t = RoiTracker::new();
        t.update(&req(TileId::new(1, 0, 0), Move::PanRight));
        t.update(&req(TileId::new(1, 0, 1), Move::PanRight));
        assert!(t.roi().is_empty());
        assert!(t.temp_roi.is_empty());
    }

    #[test]
    fn initial_request_is_ignored() {
        let mut t = RoiTracker::new();
        t.update(&Request::initial(TileId::ROOT));
        assert!(t.roi().is_empty());
        assert!(!t.in_flag);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = RoiTracker::new();
        t.update(&req(TileId::new(2, 0, 0), zin()));
        t.update(&req(TileId::new(1, 0, 0), Move::ZoomOut));
        assert!(!t.roi().is_empty());
        t.reset();
        assert!(t.roi().is_empty());
        assert!(!t.in_flag);
    }
}
