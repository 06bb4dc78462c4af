//! The accuracy / latency replay harness (§5.2.2).
//!
//! "To compute this, we ran our models in parallel while stepping through
//! tile request logs, one request at a time. For each requested tile, we
//! collected a ranked list of predictions from each of our recommendation
//! models, and recorded whether the next tile to be requested was located
//! within the list." Varying `k` simulates the middleware cache's space
//! allocation; prediction accuracy equals tile-cache hit rate, and
//! latency follows from the hit/miss profile (§5.5).

use crate::trace::Trace;
use fc_core::{
    LatencyProfile, Phase, PhaseClassifier, PredictOptions, PredictionContext, PredictionEngine,
    Recommender, Request, RoiTracker, SessionHistory,
};
use fc_tiles::{Pyramid, TileId};
use std::sync::Arc;
use std::time::Duration;

/// A model under evaluation: observes requests, predicts the next tile.
pub trait Predictor {
    /// Display name for experiment output.
    fn name(&self) -> String;
    /// Clears per-session state (between traces).
    fn reset(&mut self);
    /// Observes the current request (with its ground-truth phase, which
    /// implementations may ignore) and returns up to `k` predictions for
    /// the **next** request.
    fn step(&mut self, req: Request, phase_truth: Phase, k: usize) -> Vec<TileId>;
}

/// Wraps a bottom-level [`Recommender`] (AB, SB, Momentum, Hotspot) as a
/// predictor: maintains history and ROI, ranks the candidate set, trims
/// to `k`.
pub struct ModelPredictor {
    model: Box<dyn Recommender>,
    pyramid: Arc<Pyramid>,
    history: SessionHistory,
    roi: RoiTracker,
    distance: usize,
}

impl ModelPredictor {
    /// Creates a predictor around `model`.
    pub fn new(model: Box<dyn Recommender>, pyramid: Arc<Pyramid>) -> Self {
        Self {
            model,
            pyramid,
            history: SessionHistory::new(12),
            roi: RoiTracker::new(),
            distance: 1,
        }
    }
}

impl Predictor for ModelPredictor {
    fn name(&self) -> String {
        self.model.name().to_string()
    }

    fn reset(&mut self) {
        self.history.clear();
        self.roi.reset();
    }

    fn step(&mut self, req: Request, _phase: Phase, k: usize) -> Vec<TileId> {
        self.history.push(req);
        self.roi.update(&req);
        let geometry = self.pyramid.geometry();
        let candidates = geometry.candidates(req.tile, self.distance);
        let ctx = PredictionContext {
            request: req,
            history: &self.history,
            candidates: &candidates,
            geometry,
            store: self.pyramid.store(),
            roi: self.roi.roi(),
        };
        let mut ranked = self.model.rank(&ctx);
        ranked.truncate(k);
        ranked
    }
}

/// How the two-level engine learns the phase during replay.
pub enum EnginePhaseMode {
    /// Use the engine's own classifier / heuristic (the deployed path).
    Inferred,
    /// Use the hand-labeled ground-truth phase (the §5.4.2 level-isolated
    /// evaluation).
    Oracle,
    /// Use an explicitly supplied classifier trained on the fold.
    Classifier(Box<PhaseClassifier>),
}

/// Wraps the full two-level [`PredictionEngine`].
pub struct EnginePredictor {
    engine: PredictionEngine,
    pyramid: Arc<Pyramid>,
    mode: EnginePhaseMode,
    label: String,
    prev: Option<Request>,
}

impl EnginePredictor {
    /// Creates an engine predictor.
    pub fn new(
        engine: PredictionEngine,
        pyramid: Arc<Pyramid>,
        mode: EnginePhaseMode,
        label: impl Into<String>,
    ) -> Self {
        Self {
            engine,
            pyramid,
            mode,
            label: label.into(),
            prev: None,
        }
    }
}

impl Predictor for EnginePredictor {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn reset(&mut self) {
        self.engine.reset_session();
        self.prev = None;
    }

    fn step(&mut self, req: Request, phase_truth: Phase, k: usize) -> Vec<TileId> {
        self.engine.observe(req);
        let store = self.pyramid.store();
        let phase = match &self.mode {
            EnginePhaseMode::Inferred => None,
            EnginePhaseMode::Oracle => Some(phase_truth),
            EnginePhaseMode::Classifier(c) => Some(c.predict(&req, self.prev.as_ref())),
        };
        let out = self.engine.predict_with(
            store,
            k,
            PredictOptions {
                phase,
                ..PredictOptions::default()
            },
        );
        self.prev = Some(req);
        out
    }
}

/// One replay step's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Whether the next requested tile was in the prediction list.
    pub hit: bool,
    /// Ground-truth phase of the *next* request (the one predicted).
    pub phase: Phase,
}

/// Replays one trace, returning an outcome per predicted transition.
pub fn replay_trace(p: &mut dyn Predictor, trace: &Trace, k: usize) -> Vec<ReplayOutcome> {
    p.reset();
    let mut outcomes = Vec::with_capacity(trace.len().saturating_sub(1));
    for pair in trace.steps.windows(2) {
        let cur = pair[0];
        let next = pair[1];
        let preds = p.step(Request::new(cur.tile, cur.mv), cur.phase, k);
        debug_assert!(preds.len() <= k);
        outcomes.push(ReplayOutcome {
            hit: preds.contains(&next.tile),
            phase: next.phase,
        });
    }
    outcomes
}

/// Aggregated prediction accuracy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyReport {
    /// Overall accuracy (fraction of transitions predicted).
    pub overall: f64,
    /// Accuracy per phase, indexed by [`Phase::index`]; NaN-free (0 when
    /// a phase never occurs).
    pub per_phase: [f64; 3],
    /// Transitions per phase.
    pub counts: [usize; 3],
    /// Total transitions evaluated.
    pub total: usize,
}

impl AccuracyReport {
    /// Builds a report from outcomes.
    pub fn from_outcomes(outcomes: &[ReplayOutcome]) -> Self {
        let mut hits = [0usize; 3];
        let mut counts = [0usize; 3];
        for o in outcomes {
            counts[o.phase.index()] += 1;
            if o.hit {
                hits[o.phase.index()] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let total_hits: usize = hits.iter().sum();
        let per_phase = std::array::from_fn(|i| {
            if counts[i] == 0 {
                0.0
            } else {
                hits[i] as f64 / counts[i] as f64
            }
        });
        Self {
            overall: if total == 0 {
                0.0
            } else {
                total_hits as f64 / total as f64
            },
            per_phase,
            counts,
            total,
        }
    }

    /// Averages several reports (the paper averages across users).
    pub fn average(reports: &[AccuracyReport]) -> Self {
        if reports.is_empty() {
            return Self {
                overall: 0.0,
                per_phase: [0.0; 3],
                counts: [0; 3],
                total: 0,
            };
        }
        let n = reports.len() as f64;
        let mut out = Self {
            overall: reports.iter().map(|r| r.overall).sum::<f64>() / n,
            per_phase: [0.0; 3],
            counts: [0; 3],
            total: reports.iter().map(|r| r.total).sum(),
        };
        for i in 0..3 {
            // Average only over users who visited the phase.
            let with: Vec<f64> = reports
                .iter()
                .filter(|r| r.counts[i] > 0)
                .map(|r| r.per_phase[i])
                .collect();
            out.per_phase[i] = if with.is_empty() {
                0.0
            } else {
                with.iter().sum::<f64>() / with.len() as f64
            };
            out.counts[i] = reports.iter().map(|r| r.counts[i]).sum();
        }
        out
    }

    /// Expected average response time under a latency profile
    /// (accuracy = cache hit rate, §5.5).
    pub fn avg_latency(&self, profile: LatencyProfile) -> Duration {
        profile.expected_response(self.overall)
    }
}

/// Leave-one-user-out cross-validation (§5.4): for each user, builds a
/// predictor from the other users' traces via `factory`, replays the
/// held-out user's traces, and averages the per-user reports.
pub fn loocv<F>(traces: &[Trace], k: usize, mut factory: F) -> AccuracyReport
where
    F: FnMut(&[&Trace]) -> Box<dyn Predictor>,
{
    let mut users: Vec<usize> = traces.iter().map(|t| t.user).collect();
    users.sort_unstable();
    users.dedup();
    let mut reports = Vec::with_capacity(users.len());
    for &u in &users {
        let train: Vec<&Trace> = traces.iter().filter(|t| t.user != u).collect();
        let test: Vec<&Trace> = traces.iter().filter(|t| t.user == u).collect();
        let mut predictor = factory(&train);
        let mut outcomes = Vec::new();
        for t in test {
            outcomes.extend(replay_trace(predictor.as_mut(), t, k));
        }
        reports.push(AccuracyReport::from_outcomes(&outcomes));
    }
    AccuracyReport::average(&reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetConfig, StudyDataset};
    use crate::study::{Study, StudyConfig};
    use fc_core::MomentumRecommender;

    fn setup() -> (StudyDataset, Study) {
        let ds = StudyDataset::build(DatasetConfig::tiny());
        let study = Study::generate(&ds, &StudyConfig { num_users: 3 });
        (ds, study)
    }

    #[test]
    fn replay_produces_one_outcome_per_transition() {
        let (ds, study) = setup();
        let mut p = ModelPredictor::new(Box::new(MomentumRecommender), ds.pyramid.clone());
        let trace = &study.traces[0];
        let outcomes = replay_trace(&mut p, trace, 3);
        assert_eq!(outcomes.len(), trace.len() - 1);
    }

    #[test]
    fn momentum_accuracy_grows_with_k() {
        let (ds, study) = setup();
        let mut prev = 0.0;
        for k in [1, 3, 5, 9] {
            let mut outcomes = Vec::new();
            let mut p = ModelPredictor::new(Box::new(MomentumRecommender), ds.pyramid.clone());
            for t in &study.traces {
                outcomes.extend(replay_trace(&mut p, t, k));
            }
            let r = AccuracyReport::from_outcomes(&outcomes);
            assert!(
                r.overall >= prev - 1e-9,
                "accuracy should not decrease with k: {} -> {} at k={k}",
                prev,
                r.overall
            );
            prev = r.overall;
        }
        // k=9 covers every legal move: guaranteed prefetch (§5.2.2).
        assert!((prev - 1.0).abs() < 1e-9, "k=9 must be perfect, got {prev}");
    }

    #[test]
    fn report_aggregation_and_latency() {
        let outcomes = vec![
            ReplayOutcome {
                hit: true,
                phase: Phase::Foraging,
            },
            ReplayOutcome {
                hit: false,
                phase: Phase::Foraging,
            },
            ReplayOutcome {
                hit: true,
                phase: Phase::Navigation,
            },
        ];
        let r = AccuracyReport::from_outcomes(&outcomes);
        assert!((r.overall - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.per_phase[0] - 0.5).abs() < 1e-12);
        assert_eq!(r.per_phase[1], 1.0);
        assert_eq!(r.per_phase[2], 0.0);
        assert_eq!(r.counts, [2, 1, 0]);

        let avg = AccuracyReport::average(&[r, r]);
        assert!((avg.overall - r.overall).abs() < 1e-12);
        assert_eq!(avg.total, 6);

        let lat = r.avg_latency(LatencyProfile::paper());
        assert!(lat > LatencyProfile::paper().hit);
        assert!(lat < LatencyProfile::paper().miss);
    }

    #[test]
    fn loocv_trains_without_the_held_out_user() {
        let (ds, study) = setup();
        let mut seen_train_sizes = Vec::new();
        let r = loocv(&study.traces, 3, |train| {
            seen_train_sizes.push(train.len());
            let users: Vec<usize> = train.iter().map(|t| t.user).collect();
            // The factory must never see all users at once.
            let mut u = users.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 2);
            Box::new(ModelPredictor::new(
                Box::new(MomentumRecommender),
                ds.pyramid.clone(),
            ))
        });
        assert_eq!(seen_train_sizes.len(), 3);
        assert!(r.overall > 0.0 && r.overall <= 1.0);
    }
}
