//! Shared experiment context: the dataset, the simulated study, and
//! predictor factories for every model the paper compares.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, HotspotRecommender, MomentumRecommender,
    PhaseClassifier, PredictionEngine, SbConfig, SbRecommender,
};
use fc_sim::dataset::{DatasetConfig, StudyDataset};
use fc_sim::replay::{EnginePhaseMode, EnginePredictor, ModelPredictor, Predictor};
use fc_sim::study::{PhaseDataset, Study, StudyConfig};
use fc_sim::terrain::TerrainConfig;
use fc_sim::trace::Trace;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// Everything the experiments need, built once.
pub struct ExpContext {
    /// The tiled NDSI dataset with signatures.
    pub dataset: StudyDataset,
    /// The simulated 18-user study.
    pub study: Study,
    /// The labeled phase dataset derived from the study.
    pub phases: PhaseDataset,
    /// Fold-trained classifiers, keyed by the sorted training-user set
    /// (classifier training dominates sweep time; k-sweeps reuse folds;
    /// a clone shares the trained model).
    classifier_cache: Mutex<HashMap<Vec<usize>, PhaseClassifier>>,
}

impl ExpContext {
    /// Builds the context at the scale selected by `FC_EXP_SIZE`.
    pub fn load() -> Self {
        let size = std::env::var("FC_EXP_SIZE").unwrap_or_else(|_| "full".into());
        match size.as_str() {
            "small" => Self::build(512, 5, 32, 10),
            "tiny" => Self::build(128, 3, 32, 4),
            _ => Self::build(2048, 6, 64, 18),
        }
    }

    /// Builds a context with explicit parameters.
    pub fn build(terrain: usize, levels: u8, tile: usize, users: usize) -> Self {
        eprintln!("[setup] building dataset (terrain {terrain}², {levels} levels, tile {tile}) …");
        let dataset = StudyDataset::build(DatasetConfig {
            terrain: TerrainConfig {
                size: terrain,
                ..TerrainConfig::default()
            },
            levels,
            tile,
            ..DatasetConfig::default()
        });
        eprintln!("[setup] simulating study ({users} users × 3 tasks) …");
        let study = Study::generate(&dataset, &StudyConfig { num_users: users });
        let phases = study.phase_dataset();
        eprintln!(
            "[setup] {} traces, {} requests",
            study.traces.len(),
            study.total_requests()
        );
        Self {
            dataset,
            study,
            phases,
            classifier_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Predictor factory: Momentum baseline.
    pub(crate) fn momentum(&self) -> Box<dyn Predictor> {
        Box::new(ModelPredictor::new(
            Box::new(MomentumRecommender),
            self.dataset.pyramid.clone(),
        ))
    }

    /// Predictor factory: Hotspot baseline trained on the fold's traces.
    pub(crate) fn hotspot(&self, train: &[&Trace]) -> Box<dyn Predictor> {
        let tiles: Vec<Vec<fc_tiles::TileId>> = train.iter().map(|t| t.tile_sequence()).collect();
        Box::new(ModelPredictor::new(
            Box::new(HotspotRecommender::train(&tiles, 10, 4)),
            self.dataset.pyramid.clone(),
        ))
    }

    /// Predictor factory: AB (Markov-n) trained on the fold's traces.
    pub(crate) fn ab(&self, train: &[&Trace], order: usize) -> Box<dyn Predictor> {
        Box::new(ModelPredictor::new(
            Box::new(self.ab_model(train, order)),
            self.dataset.pyramid.clone(),
        ))
    }

    /// The raw AB model for a fold.
    pub fn ab_model(&self, train: &[&Trace], order: usize) -> AbRecommender {
        let seqs: Vec<Vec<u16>> = train.iter().map(|t| t.move_sequence()).collect();
        let refs: Vec<&[u16]> = seqs.iter().map(|s| s.as_slice()).collect();
        AbRecommender::train(refs, order)
    }

    /// Predictor factory: SB with one signature.
    pub(crate) fn sb_single(&self, kind: SignatureKind) -> Box<dyn Predictor> {
        Box::new(ModelPredictor::new(
            Box::new(SbRecommender::new(SbConfig::single(kind))),
            self.dataset.pyramid.clone(),
        ))
    }

    /// Predictor factory: SB with a custom config.
    pub(crate) fn sb_with(&self, cfg: SbConfig) -> Box<dyn Predictor> {
        Box::new(ModelPredictor::new(
            Box::new(SbRecommender::new(cfg)),
            self.dataset.pyramid.clone(),
        ))
    }

    /// A fold-trained phase classifier, cached by training-user set.
    pub(crate) fn classifier_for_cached(&self, train: &[&Trace]) -> PhaseClassifier {
        let mut users: Vec<usize> = train.iter().map(|t| t.user).collect();
        users.sort_unstable();
        users.dedup();
        if let Some(c) = self.classifier_cache.lock().get(&users) {
            return c.clone();
        }
        let built = self.classifier_for(train);
        self.classifier_cache.lock().insert(users, built.clone());
        built
    }

    /// A phase classifier trained on the fold's users only.
    pub fn classifier_for(&self, train: &[&Trace]) -> PhaseClassifier {
        let users: HashSet<usize> = train.iter().map(|t| t.user).collect();
        let mut fx = Vec::new();
        let mut fy = Vec::new();
        for i in 0..self.phases.len() {
            if users.contains(&self.phases.users[i]) {
                fx.push(self.phases.features[i].clone());
                fy.push(self.phases.labels[i]);
            }
        }
        PhaseClassifier::train_on_features(&fx, &fy)
    }

    /// Predictor factory: the full two-level engine ("hybrid": Markov3
    /// AB plus SIFT SB under the §5.4.3 allocation, phase from a
    /// fold-trained classifier — the configuration of Figs. 10c–13).
    pub(crate) fn hybrid(&self, train: &[&Trace]) -> Box<dyn Predictor> {
        self.hybrid_with(train, AllocationStrategy::Updated, SignatureKind::Sift)
    }

    /// Hybrid with explicit strategy/signature (ablations).
    pub(crate) fn hybrid_with(
        &self,
        train: &[&Trace],
        strategy: AllocationStrategy,
        signature: SignatureKind,
    ) -> Box<dyn Predictor> {
        let ab = self.ab_model(train, 3);
        let clf = self.classifier_for_cached(train);
        let engine = PredictionEngine::new(
            self.dataset.pyramid.geometry(),
            ab,
            SbRecommender::new(SbConfig::single(signature)),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy,
                ..EngineConfig::default()
            },
        );
        Box::new(EnginePredictor::new(
            engine,
            self.dataset.pyramid.clone(),
            EnginePhaseMode::Classifier(Box::new(clf)),
            format!("hybrid:{}", strategy.name()),
        ))
    }
}
