//! Prediction-accuracy experiments: the Markov-order sweep and
//! Figs. 10a/10b/10c/11.

use crate::context::ExpContext;
use crate::fmt::{acc, banner, table};
use fc_core::signature::{SignatureKind, SIGNATURE_KINDS};
use fc_core::Phase;
use fc_sim::replay::{loocv, AccuracyReport, Predictor};
use fc_sim::trace::Trace;

/// The prefetch budgets the paper sweeps ("We varied k from 1 to 8").
pub(crate) const KS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// LOOCV accuracy for one model family across all k.
pub(crate) fn sweep<F>(ctx: &ExpContext, mut factory: F) -> Vec<(usize, AccuracyReport)>
where
    F: FnMut(&[&Trace]) -> Box<dyn Predictor>,
{
    KS.iter()
        .map(|&k| (k, loocv(&ctx.study.traces, k, &mut factory)))
        .collect()
}

/// Renders one per-phase accuracy table: columns = models, rows = k.
pub(crate) fn phase_table(
    phase: Option<Phase>,
    names: &[&str],
    sweeps: &[Vec<(usize, AccuracyReport)>],
) -> String {
    let mut header = vec!["k"];
    header.extend_from_slice(names);
    let rows: Vec<Vec<String>> = KS
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut row = vec![k.to_string()];
            for s in sweeps {
                let r = &s[i].1;
                let v = match phase {
                    Some(p) => r.per_phase[p.index()],
                    None => r.overall,
                };
                row.push(acc(v));
            }
            row
        })
        .collect();
    table(&header, &rows)
}

/// §5.4.2: Markov chain order sweep (n = 2 … 10).
pub(crate) fn markov_sweep(ctx: &ExpContext) -> String {
    let mut out = banner("§5.4.2 — AB model history-length sweep (Markov2 … Markov10)");
    let mut rows = Vec::new();
    let mut accs = Vec::new();
    for n in 2..=10usize {
        let r = loocv(&ctx.study.traces, 1, |train| ctx.ab(train, n));
        accs.push(r.overall);
        rows.push(vec![format!("Markov{n}"), acc(r.overall)]);
    }
    out.push_str(&table(&["model", "accuracy @ k=1"], &rows));
    let m2 = accs[0];
    let m3 = accs[1];
    let plateau = accs[1..].iter().all(|&a| (a - m3).abs() < 0.05);
    out.push_str(&format!(
        "\npaper: \"n = 2 was too small, and resulted in worse accuracy.\nOtherwise … negligible improvements in accuracy for lengths beyond\nn = 3\". measured: Markov2 {} vs Markov3 {} ({}), plateau beyond 3: {}\n",
        acc(m2),
        acc(m3),
        if m3 >= m2 { "confirms" } else { "DIFFERS" },
        if plateau { "yes" } else { "no" },
    ));
    out
}

/// Fig. 10a: AB (Markov3) vs Momentum vs Hotspot, per phase, k = 1..8.
pub(crate) fn fig10a(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 10a — AB model vs existing techniques, per phase");
    let ab = sweep(ctx, |train| ctx.ab(train, 3));
    let momentum = sweep(ctx, |_| ctx.momentum());
    let hotspot = sweep(ctx, |train| ctx.hotspot(train));
    let sweeps = [ab, momentum, hotspot];
    let names = ["AB(Markov3)", "Momentum", "Hotspot"];
    for phase in Phase::ALL {
        out.push_str(&format!("{phase}:\n"));
        out.push_str(&phase_table(Some(phase), &names, &sweeps));
        out.push('\n');
    }
    let nav = Phase::Navigation.index();
    let ab_nav: f64 =
        sweeps[0].iter().map(|(_, r)| r.per_phase[nav]).sum::<f64>() / KS.len() as f64;
    let mo_nav: f64 =
        sweeps[1].iter().map(|(_, r)| r.per_phase[nav]).sum::<f64>() / KS.len() as f64;
    out.push_str(&format!(
        "paper: \"our AB model achieves significantly higher accuracy during\nthe Navigation phase for all values of k\". measured mean Navigation\naccuracy: AB {} vs Momentum {} → {}\n",
        acc(ab_nav),
        acc(mo_nav),
        if ab_nav > mo_nav { "confirms" } else { "DIFFERS" },
    ));
    out
}

/// Fig. 10b: the four signatures, per phase, k = 1..8.
pub(crate) fn fig10b(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 10b — SB signature accuracy, per phase");
    let sweeps: Vec<Vec<(usize, AccuracyReport)>> = SIGNATURE_KINDS
        .iter()
        .map(|&kind| sweep(ctx, |_| ctx.sb_single(kind)))
        .collect();
    let names: Vec<&str> = SIGNATURE_KINDS.iter().map(|k| k.display_name()).collect();
    for phase in Phase::ALL {
        out.push_str(&format!("{phase}:\n"));
        out.push_str(&phase_table(Some(phase), &names, &sweeps));
        out.push('\n');
    }
    let avg_of = |i: usize| -> f64 {
        sweeps[i].iter().map(|(_, r)| r.overall).sum::<f64>() / KS.len() as f64
    };
    let sift = avg_of(2);
    let dense = avg_of(3);
    out.push_str(&format!(
        "paper: \"the SIFT signature provided the best overall accuracy\" and\n\"the denseSIFT signature did not perform as well as SIFT\".\nmeasured overall means: Normal {} Hist {} SIFT {} DenseSIFT {} → SIFT vs DenseSIFT: {}\n",
        acc(avg_of(0)),
        acc(avg_of(1)),
        acc(sift),
        acc(dense),
        if sift >= dense { "confirms" } else { "DIFFERS" },
    ));
    out
}

/// Fig. 10c: the final two-level engine vs its best individual models.
pub(crate) fn fig10c(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 10c — final engine (hybrid) vs best individual models");
    let hybrid = sweep(ctx, |train| ctx.hybrid(train));
    let ab = sweep(ctx, |train| ctx.ab(train, 3));
    let sb = sweep(ctx, |_| ctx.sb_single(SignatureKind::Sift));
    let sweeps = [hybrid, ab, sb];
    let names = ["hybrid", "AB(Markov3)", "SB(SIFT)"];
    out.push_str("overall accuracy:\n");
    out.push_str(&phase_table(None, &names, &sweeps));
    for phase in Phase::ALL {
        out.push_str(&format!("\n{phase}:\n"));
        out.push_str(&phase_table(Some(phase), &names, &sweeps));
    }
    let mean_overall = |i: usize| -> f64 {
        sweeps[i].iter().map(|(_, r)| r.overall).sum::<f64>() / KS.len() as f64
    };
    let (hybrid, best) = (mean_overall(0), mean_overall(1).max(mean_overall(2)));
    out.push_str(&format!(
        "\npaper: the hybrid \"was able to match the accuracy of the best\nrecommender for each analysis phase, resulting in better overall\naccuracy than any individual recommendation model\".\nmeasured overall means: hybrid {} AB {} SB {} → hybrid best: {}\n",
        acc(hybrid),
        acc(mean_overall(1)),
        acc(mean_overall(2)),
        if hybrid >= best {
            "confirms".to_string()
        } else {
            format!(
                "DIFFERS (hybrid trails the best model by {:.1} points)",
                (best - hybrid) * 100.0
            )
        },
    ));
    out
}

/// Fig. 11: the hybrid engine vs Momentum and Hotspot, per phase.
pub(crate) fn fig11(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 11 — hybrid vs existing techniques, per phase");
    let hybrid = sweep(ctx, |train| ctx.hybrid(train));
    let momentum = sweep(ctx, |_| ctx.momentum());
    let hotspot = sweep(ctx, |train| ctx.hotspot(train));
    let sweeps = [hybrid, momentum, hotspot];
    let names = ["hybrid", "Momentum", "Hotspot"];
    for phase in Phase::ALL {
        out.push_str(&format!("{phase}:\n"));
        out.push_str(&phase_table(Some(phase), &names, &sweeps));
        out.push('\n');
    }
    // Paper's quantitative claims: up to 25% better in Navigation,
    // 10–18% in Sensemaking.
    let max_gain = |phase: Phase| -> f64 {
        let p = phase.index();
        KS.iter()
            .enumerate()
            .map(|(i, _)| {
                let h = sweeps[0][i].1.per_phase[p];
                let m = sweeps[1][i].1.per_phase[p].max(sweeps[2][i].1.per_phase[p]);
                h - m
            })
            .fold(f64::MIN, f64::max)
    };
    out.push_str(&format!(
        "max accuracy gain over the best baseline: Navigation +{:.1} points\n(paper: up to 25), Sensemaking +{:.1} points (paper: 10–18),\nForaging +{:.1} points (paper: \"performs as well, if not better\").\n",
        max_gain(Phase::Navigation) * 100.0,
        max_gain(Phase::Sensemaking) * 100.0,
        max_gain(Phase::Foraging) * 100.0,
    ));
    out
}
