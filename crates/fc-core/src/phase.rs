//! Analysis phases and the top-level SVM phase classifier (§4.2).
//!
//! "We found that our users alternated between three high-level analysis
//! phases, each representing different user goals: Foraging, Sensemaking,
//! and Navigation."

use crate::features::{phase_features, NUM_FEATURES};
use crate::history::Request;
use crate::slots::TileSlots;
use fc_ml::{Scaler, SvmClassifier, SvmParams};
use fc_tiles::{Geometry, TileId};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

/// The user's current frame of mind while exploring (§4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Scanning coarse zoom levels for interesting patterns, forming
    /// hypotheses.
    Foraging,
    /// Zooming between the coarse levels of Foraging and the detailed
    /// levels of Sensemaking.
    Navigation,
    /// Comparing neighbouring tiles at a detailed zoom level to test the
    /// current hypothesis.
    Sensemaking,
}

impl Phase {
    /// All phases in canonical (class-id) order.
    pub const ALL: [Phase; 3] = [Phase::Foraging, Phase::Navigation, Phase::Sensemaking];

    /// Stable class id.
    pub fn index(self) -> usize {
        match self {
            Phase::Foraging => 0,
            Phase::Navigation => 1,
            Phase::Sensemaking => 2,
        }
    }

    /// Inverse of [`Phase::index`].
    ///
    /// # Panics
    /// Panics for ids ≥ 3.
    pub fn from_index(i: usize) -> Phase {
        Self::ALL[i]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Foraging => "Foraging",
            Phase::Navigation => "Navigation",
            Phase::Sensemaking => "Sensemaking",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The top-level classifier: a multi-class SVM with an RBF kernel over the
/// Table-1 feature vector, with min-max scaling fitted on the training
/// fold (the paper used LibSVM; §4.2.2). Both are immutable once
/// trained, so a clone — one per session — shares them, and shares the
/// memo of their answers that the first [`crate::PredictionEngine`]
/// built over it binds to its geometry.
#[derive(Clone)]
pub struct PhaseClassifier {
    trained: Arc<Trained>,
}

struct Trained {
    scaler: Scaler,
    svm: SvmClassifier,
    memo: OnceLock<PhaseMemo>,
}

/// Most cells a memo holds (one byte each); a grid larger than this is
/// memoized from level 0 down to the last level that fits.
const MEMO_CELLS: usize = 1 << 20;

/// Move kinds a memo cell is keyed by: none (a session's first request,
/// a jump), pan, zoom in, zoom out — the Table-1 one-hot.
const MOVE_KINDS: usize = 4;

// Table-1 features are the tile's x, y, level and the move's one-hot,
// and nothing else: a memo cell keyed by (tile, move kind) holds the
// whole input. A feature that reads more (the previous request, say)
// must come with a different key.
const _: () = assert!(NUM_FEATURES == 6);

/// The classifier's answer per (tile, move kind) over one geometry's
/// tile grid: 0 while unknown, else the class id + 1. Every fill of a
/// cell stores the same byte, so relaxed loads and stores suffice.
struct PhaseMemo {
    /// A tile's cells are `slot * MOVE_KINDS..`, one per move kind.
    slots: TileSlots,
    cells: Box<[AtomicU8]>,
}

impl PhaseMemo {
    fn new(geometry: Geometry) -> Self {
        let slots = TileSlots::new(geometry, MEMO_CELLS / MOVE_KINDS);
        Self {
            cells: (0..slots.len() * MOVE_KINDS)
                .map(|_| AtomicU8::new(0))
                .collect(),
            slots,
        }
    }

    /// The cell of `tile` reached by the move whose one-hot is
    /// `features[3..6]`; `None` off the memoized grid.
    fn cell(&self, tile: TileId, features: &[f64; NUM_FEATURES]) -> Option<&AtomicU8> {
        let slot = self.slots.slot(tile)?;
        let kind = features[3..]
            .iter()
            .position(|&f| f == 1.0)
            .map_or(0, |i| i + 1);
        self.cells.get(slot * MOVE_KINDS + kind)
    }

    fn filled(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.load(Ordering::Relaxed) != 0)
            .count()
    }
}

impl fmt::Debug for PhaseClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let memo = self.trained.memo.get();
        f.debug_struct("PhaseClassifier")
            .field("memo_filled", &memo.map_or(0, PhaseMemo::filled))
            .field("memo_cells", &memo.map_or(0, |m| m.cells.len()))
            .finish()
    }
}

impl PhaseClassifier {
    /// Trains from one feature vector per labeled request — the
    /// [`phase_features`] of its `(current, previous)` pair, or a
    /// Table-1 ablation's subset of them — and its phase's
    /// [`Phase::index`].
    ///
    /// # Panics
    /// Panics on empty or single-class training data (propagated from the
    /// SVM trainer).
    pub fn train_on_features(feats: &[Vec<f64>], label_ids: &[usize]) -> Self {
        let scaler = Scaler::fit(feats);
        let scaled = scaler.transform_all(feats);
        let dim = feats.first().map_or(NUM_FEATURES, |f| f.len());
        let svm = SvmClassifier::train(&scaled, label_ids, SvmParams::rbf_default(dim));
        Self {
            trained: Arc::new(Trained {
                scaler,
                svm,
                memo: OnceLock::new(),
            }),
        }
    }

    /// Binds the memo of [`PhaseClassifier::predict`]'s answers to
    /// `geometry`'s tile grid, for this classifier and every clone of
    /// it. The first call binds; later calls — whatever their geometry
    /// — do nothing. The answer is a function of (tile, move kind)
    /// alone, so any grid is correct: the bound one only decides which
    /// tiles are memoized. Cells fill lazily, one SVM evaluation each.
    pub(crate) fn memoize(&self, geometry: Geometry) {
        self.trained.memo.get_or_init(|| PhaseMemo::new(geometry));
    }

    /// Predicts the phase for a `(current, previous)` request pair: from
    /// the memo once this (tile, move kind) has been classified in this
    /// process, else from the SVM (and then into the memo, when the
    /// tile is on its grid).
    pub fn predict(&self, r: &Request, prev: Option<&Request>) -> Phase {
        let f = phase_features(r, prev);
        let Some(cell) = self.trained.memo.get().and_then(|m| m.cell(r.tile, &f)) else {
            return Phase::from_index(self.predict_features(&f));
        };
        match cell.load(Ordering::Relaxed) {
            0 => self.fill(cell, &f),
            known => Phase::from_index(usize::from(known - 1)),
        }
    }

    /// The SVM's answer for `features`, stored in `cell`: once per cell
    /// and process, so kept out of line of the memo hit.
    #[cold]
    fn fill(&self, cell: &AtomicU8, features: &[f64]) -> Phase {
        let class = self.predict_features(features);
        let phase = Phase::from_index(class);
        cell.store(class as u8 + 1, Ordering::Relaxed);
        phase
    }

    /// Predicts a class id from a raw feature vector, through the SVM
    /// (never the memo: the Table-1 ablation feeds other feature sets).
    pub fn predict_features(&self, features: &[f64]) -> usize {
        let Trained { scaler, svm, .. } = &*self.trained;
        svm.predict(&scaler.transform(features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tiles::{Move, Quadrant, TileId};

    fn train(samples: &[(Request, Option<Request>)], labels: &[Phase]) -> PhaseClassifier {
        let feats: Vec<Vec<f64>> = samples
            .iter()
            .map(|(r, prev)| phase_features(r, prev.as_ref()).to_vec())
            .collect();
        let label_ids: Vec<usize> = labels.iter().map(|p| p.index()).collect();
        PhaseClassifier::train_on_features(&feats, &label_ids)
    }

    #[test]
    fn phase_index_roundtrip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_index(p.index()), p);
        }
        assert_eq!(Phase::Foraging.to_string(), "Foraging");
    }

    /// A synthetic but structured dataset: Foraging = coarse-level pans,
    /// Navigation = zooms, Sensemaking = deep-level pans. The classifier
    /// must exceed 80% training-set accuracy (the paper reports 82% on
    /// held-out users).
    #[test]
    fn classifier_learns_structured_phases() {
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40u32 {
            // Foraging: pan at level 1.
            let cur = Request::new(TileId::new(1, 0, i % 4), Some(Move::PanRight));
            let prev = Request::new(TileId::new(1, 0, (i + 3) % 4), Some(Move::PanRight));
            samples.push((cur, Some(prev)));
            labels.push(Phase::Foraging);
            // Navigation: zoom at mid levels.
            let cur = Request::new(
                TileId::new(3 + (i % 2) as u8, i % 8, i % 8),
                Some(if i % 2 == 0 {
                    Move::ZoomIn(Quadrant::Nw)
                } else {
                    Move::ZoomOut
                }),
            );
            let prev = Request::new(
                TileId::new(3, i % 4, i % 4),
                Some(Move::ZoomIn(Quadrant::Se)),
            );
            samples.push((cur, Some(prev)));
            labels.push(Phase::Navigation);
            // Sensemaking: pan at deep level 6.
            let cur = Request::new(TileId::new(6, 20 + i % 3, 30 + i % 3), Some(Move::PanDown));
            let prev = Request::new(TileId::new(6, 20 + i % 3, 29 + i % 3), Some(Move::PanLeft));
            samples.push((cur, Some(prev)));
            labels.push(Phase::Sensemaking);
        }
        let clf = train(&samples, &labels);
        let correct = samples
            .iter()
            .zip(&labels)
            .filter(|((r, prev), &l)| clf.predict(r, prev.as_ref()) == l)
            .count();
        let acc = correct as f64 / samples.len() as f64;
        assert!(acc > 0.8, "training accuracy {acc}");
    }

    #[test]
    fn predict_handles_missing_previous() {
        let samples = vec![
            (Request::initial(TileId::new(1, 0, 0)), None),
            (
                Request::new(TileId::new(6, 5, 5), Some(Move::PanRight)),
                None,
            ),
        ];
        let labels = vec![Phase::Foraging, Phase::Sensemaking];
        let clf = train(&samples, &labels);
        // Must not panic; any of the trained phases is acceptable.
        let p = clf.predict(&Request::initial(TileId::new(1, 0, 0)), None);
        assert!(Phase::ALL.contains(&p));
    }
}
