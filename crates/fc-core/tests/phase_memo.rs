//! The phase memo answers exactly what the SVM answers.
//!
//! The classifier is trained the way `fc-ml`'s `golden_svm` trains the
//! benchmark's: the study's phase rows (`study_phases_ctx32.txt`), even
//! users, min-max scaled, default RBF. Over every tile of the
//! benchmark's two grids × the four move kinds, a cold `predict` (which
//! fills the cell from the SVM), a warm `predict` (which reads it) and
//! `predict_features(phase_features(..))` (the SVM alone) agree — also
//! when two threads fill one table at once.

use fc_core::engine::PhaseSource;
use fc_core::signature::SignatureKind;
use fc_core::{
    phase_features, AbRecommender, EngineConfig, PhaseClassifier, PredictionEngine, Request,
    SbConfig, SbRecommender,
};
use fc_tiles::{Geometry, Move, Quadrant, TileId};

/// The study's even users' rows, as `golden_svm` reads them.
fn trained() -> PhaseClassifier {
    let (mut feats, mut labels) = (Vec::new(), Vec::new());
    for line in include_str!("../../fc-ml/tests/data/study_phases_ctx32.txt").lines() {
        if line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split(' ').collect();
        if f[0].parse::<usize>().expect("a user") % 2 != 0 {
            continue;
        }
        let num = |s: &str| s.parse::<f64>().expect("a number");
        let flag = |c: &str| if f[5] == c { 1.0 } else { 0.0 };
        feats.push(vec![
            num(f[2]),
            num(f[3]),
            num(f[4]),
            flag("p"),
            flag("i"),
            flag("o"),
        ]);
        labels.push(f[1].parse().expect("a label"));
    }
    PhaseClassifier::train_on_features(&feats, &labels)
}

/// The benchmark's contexts: 1024² terrain in 32² tiles over 6 levels
/// (ctx32) and in 64² tiles over 5 (ctx64).
fn grids() -> [Geometry; 2] {
    [
        Geometry::new(6, 1024, 1024, 32, 32),
        Geometry::new(5, 1024, 1024, 64, 64),
    ]
}

/// One move of each kind: none, pan, zoom in, zoom out.
const KINDS: [Option<Move>; 4] = [
    None,
    Some(Move::PanRight),
    Some(Move::ZoomIn(Quadrant::Se)),
    Some(Move::ZoomOut),
];

fn requests(g: Geometry) -> Vec<Request> {
    g.all_tiles()
        .flat_map(|t| KINDS.map(|mv| Request::new(t, mv)))
        .collect()
}

fn svm(clf: &PhaseClassifier, r: &Request) -> usize {
    clf.predict_features(&phase_features(r, None))
}

/// Binds `clf`'s memo the way serving does: through an engine.
fn bind(clf: &PhaseClassifier, g: Geometry) {
    PredictionEngine::new(
        g,
        AbRecommender::train([[0u16; 4].as_slice()], 3),
        SbRecommender::new(SbConfig::single(SignatureKind::Hist1D)),
        PhaseSource::Classifier(Box::new(clf.clone())),
        EngineConfig::default(),
    );
}

#[test]
fn memo_equals_the_svm_on_every_cell_of_both_grids() {
    let base = trained();
    for g in grids() {
        // A fresh memo per grid: a clone would share the first one's.
        let clf = trained();
        bind(&clf, g);
        let reqs = requests(g);
        assert_eq!(reqs.len(), g.total_tiles() * 4);
        let answers: Vec<usize> = reqs.iter().map(|r| svm(&base, r)).collect();
        let cold: Vec<usize> = reqs.iter().map(|r| clf.predict(r, None).index()).collect();
        assert_eq!(cold, answers, "cold predict over {g:?}");
        assert!(format!("{clf:?}").contains(&format!("memo_filled: {}", reqs.len())));
        // Warm: every cell filled, and a previous request changes nothing.
        let prev = Request::initial(TileId::ROOT);
        let warm: Vec<usize> = reqs
            .iter()
            .map(|r| clf.predict(r, Some(&prev)).index())
            .collect();
        assert_eq!(warm, answers, "warm predict over {g:?}");
        // Off the grid (one level deeper, one column past the edge):
        // still the SVM's answer.
        let (rows, cols) = g.tiles_at(g.levels - 1);
        for tile in [
            TileId::new(g.levels, 0, 0),
            TileId::new(g.levels - 1, rows - 1, cols),
        ] {
            let r = Request::new(tile, Some(Move::PanRight));
            assert_eq!(clf.predict(&r, None).index(), svm(&base, &r));
        }
    }
}

#[test]
fn two_threads_filling_one_memo_agree_with_the_svm() {
    let g = grids()[0];
    let clf = trained();
    bind(&clf, g);
    let reqs = requests(g);
    let answers: Vec<usize> = reqs.iter().map(|r| svm(&clf, r)).collect();
    // The two start together and walk the cells in opposite orders, so
    // they meet in the middle and then read each other's fills.
    let n = reqs.len();
    let start = std::sync::Barrier::new(2);
    let filled: Vec<Vec<usize>> = std::thread::scope(|s| {
        [false, true]
            .map(|reverse| {
                let (clf, reqs, start) = (clf.clone(), &reqs, &start);
                s.spawn(move || {
                    let mut out = vec![usize::MAX; n];
                    start.wait();
                    for i in 0..n {
                        let j = if reverse { n - 1 - i } else { i };
                        out[j] = clf.predict(&reqs[j], None).index();
                    }
                    out
                })
            })
            .map(|walker| walker.join().expect("walker"))
            .into()
    });
    assert_eq!(filled[0], answers);
    assert_eq!(filled[1], answers);
    let warm: Vec<usize> = reqs.iter().map(|r| clf.predict(r, None).index()).collect();
    assert_eq!(warm, answers);
}
