//! The recommendation-model interface (paper §4.3.1).
//!
//! "given a user request r, a set of candidate tiles for prediction C,
//! and the session history H, compute an ordering for the candidate
//! tiles Pm = [T1, T2, …]. The ordering signifies m's prediction of how
//! relatively likely the user will request each tile in C."

use crate::history::{Request, SessionHistory};
use fc_tiles::{Geometry, TileId, TileStore};

/// Everything a recommendation model may consult when ranking candidates.
pub struct PredictionContext<'a> {
    /// The user's current request `r`.
    pub request: Request,
    /// The session history `H`.
    pub history: &'a SessionHistory,
    /// The candidate set `C` (tiles at most `d` moves from `r`).
    pub candidates: &'a [TileId],
    /// Pyramid geometry (for move reasoning).
    pub geometry: Geometry,
    /// Tile store (for signature metadata; reads are free).
    pub store: &'a TileStore,
    /// The user's most recent ROI (Algorithm 1 output).
    pub roi: &'a [TileId],
}

impl PredictionContext<'_> {
    /// The SB model's reference set: the last committed ROI, or the
    /// current tile before any ROI has been committed (the recommender
    /// then looks for "more tiles like the one being viewed").
    pub(crate) fn reference_tiles(&self) -> &[TileId] {
        if self.roi.is_empty() {
            std::slice::from_ref(&self.request.tile)
        } else {
            self.roi
        }
    }
}

/// A low-level recommendation model.
pub trait Recommender: Send + Sync {
    /// Short stable name (used in experiment output).
    fn name(&self) -> &str;

    /// Orders the candidate tiles from most to least likely. The returned
    /// list is a permutation of (a subset of) `ctx.candidates`; the
    /// prediction engine trims it to the model's cache allocation.
    fn rank(&self, ctx: &PredictionContext<'_>) -> Vec<TileId>;
}
