//! User requests and bounded session history (paper §4.1).
//!
//! "The user's last n moves are constantly recorded by the cache manager
//! and sent to the prediction engine as an ordered list of user requests:
//! H = [r1, r2, …, rn]." The history length n is a system parameter set
//! before the session starts.

use fc_tiles::{Move, TileId};
use std::collections::VecDeque;

/// One user request: the tile retrieved, and the move that produced it
/// (`None` for the session's first request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The requested tile `T_r`.
    pub tile: TileId,
    /// The interface move that led here (`r.move` in the paper).
    pub mv: Option<Move>,
}

impl Request {
    /// Creates a request.
    pub fn new(tile: TileId, mv: Option<Move>) -> Self {
        Self { tile, mv }
    }

    /// The session-opening request (no move).
    pub fn initial(tile: TileId) -> Self {
        Self { tile, mv: None }
    }
}

/// A bounded FIFO of the last `n` requests.
#[derive(Debug, Clone)]
pub struct SessionHistory {
    capacity: usize,
    items: VecDeque<Request>,
}

impl SessionHistory {
    /// Creates a history holding at most `capacity` requests.
    ///
    /// # Panics
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history capacity must be positive");
        Self {
            capacity,
            items: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a request, evicting the oldest when full.
    pub fn push(&mut self, r: Request) {
        if self.items.len() == self.capacity {
            self.items.pop_front();
        }
        self.items.push_back(r);
    }

    /// Most recent request.
    pub fn last(&self) -> Option<&Request> {
        self.items.back()
    }

    /// Second most recent request (the "previous request rn ∈ H" used by
    /// the phase feature extractor).
    pub fn previous(&self) -> Option<&Request> {
        self.items.iter().rev().nth(1)
    }

    /// Number of stored requests.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// The move sequence (vocabulary ids) of stored requests, oldest to
    /// newest, skipping the initial moveless request — the n-gram model's
    /// context.
    pub(crate) fn move_sequence(&self) -> Vec<u16> {
        self.items
            .iter()
            .filter_map(|r| r.mv.map(|m| m.index() as u16))
            .collect()
    }

    /// Clears the history (new session).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tiles::Quadrant;

    fn t(l: u8, y: u32, x: u32) -> TileId {
        TileId::new(l, y, x)
    }

    #[test]
    fn bounded_fifo_evicts_oldest() {
        let mut h = SessionHistory::new(3);
        for i in 0..5 {
            h.push(Request::new(t(0, 0, i), Some(Move::PanRight)));
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.items.front().unwrap().tile, t(0, 0, 2));
        assert_eq!(h.last().unwrap().tile, t(0, 0, 4));
        assert_eq!(h.previous().unwrap().tile, t(0, 0, 3));
        assert_eq!(h.capacity, 3);
    }

    #[test]
    fn move_sequence_skips_initial_request() {
        let mut h = SessionHistory::new(5);
        h.push(Request::initial(t(0, 0, 0)));
        h.push(Request::new(t(1, 0, 0), Some(Move::ZoomIn(Quadrant::Nw))));
        h.push(Request::new(t(1, 0, 1), Some(Move::PanRight)));
        assert_eq!(
            h.move_sequence(),
            vec![
                Move::ZoomIn(Quadrant::Nw).index() as u16,
                Move::PanRight.index() as u16
            ]
        );
    }

    #[test]
    fn clear_resets() {
        let mut h = SessionHistory::new(2);
        h.push(Request::initial(t(0, 0, 0)));
        assert!(!h.items.is_empty());
        h.clear();
        assert!(h.items.is_empty());
        assert!(h.last().is_none());
        assert!(h.previous().is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        SessionHistory::new(0);
    }
}
