//! Ablation benches for two design choices in ARCHITECTURE.md's "Where
//! each paper algorithm lives": Algorithm 3's distance penalties
//! (`fc-core::sb`) and the cache allocation strategies (`fc-core::alloc`).

use crate::context::ExpContext;
use crate::experiments::accuracy::{phase_table, sweep};
use crate::fmt::{acc, banner, table};
use fc_core::signature::SignatureKind;
use fc_core::{AllocationStrategy, Phase, SbConfig};
use fc_sim::replay::loocv;

/// Algorithm 3 ablation: drop the Manhattan penalty and/or the physical
/// distance division and watch SB accuracy move.
pub(crate) fn ablation_sb(ctx: &ExpContext) -> String {
    let mut out = banner("Ablation — Algorithm 3 distance terms (SB, all signatures, k = 2)");
    let variants: [(&str, bool, bool); 4] = [
        ("full Algorithm 3", true, true),
        ("no Manhattan penalty", false, true),
        ("no physical-distance division", true, false),
        ("raw χ² only", false, false),
    ];
    let mut rows = Vec::new();
    for (name, manhattan, physical) in variants {
        let cfg = SbConfig {
            manhattan_penalty: manhattan,
            physical_distance: physical,
            ..SbConfig::all_equal()
        };
        let r = loocv(&ctx.study.traces, 2, |_| ctx.sb_with(cfg.clone()));
        rows.push(vec![
            name.to_string(),
            acc(r.overall),
            acc(r.per_phase[Phase::Foraging.index()]),
            acc(r.per_phase[Phase::Navigation.index()]),
            acc(r.per_phase[Phase::Sensemaking.index()]),
        ]);
    }
    out.push_str(&table(
        &[
            "variant",
            "overall",
            "Foraging",
            "Navigation",
            "Sensemaking",
        ],
        &rows,
    ));
    out.push_str(
        "\nthe paper motivates both terms (\"since our signatures do not\nautomatically account for the physical distance between TA and TB,\nwe apply a penalty\"); this ablation quantifies them.\n",
    );
    out
}

/// §6.2 extension: automatic signature-weight learning. Compares the SB
/// recommender with equal weights vs weights learned from the training
/// folds' standalone accuracies.
pub(crate) fn auto_weights(ctx: &ExpContext) -> String {
    let mut out = banner("§6.2 extension — automatic signature selection");
    let k = 3usize;
    let equal = loocv(&ctx.study.traces, k, |_| ctx.sb_with(SbConfig::all_equal()));
    let learned = loocv(&ctx.study.traces, k, |train| {
        let lw = fc_sim::auto_weights::learn_weights(ctx.dataset.pyramid.clone(), train, k);
        ctx.sb_with(lw.config)
    });
    // Show one fold's learned weights for transparency.
    let train: Vec<&fc_sim::trace::Trace> =
        ctx.study.traces.iter().filter(|t| t.user != 0).collect();
    let lw = fc_sim::auto_weights::learn_weights(ctx.dataset.pyramid.clone(), &train, k);
    let mut rows = Vec::new();
    for (kind, a, w) in &lw.per_signature {
        rows.push(vec![
            kind.display_name().to_string(),
            acc(*a),
            format!("{w:.3}"),
        ]);
    }
    out.push_str("weights learned on the fold excluding user 0:\n");
    out.push_str(&table(&["signature", "standalone acc", "weight"], &rows));
    out.push_str(&format!(
        "\nLOOCV accuracy @ k={k}: equal weights {} vs learned weights {} ({})\n",
        acc(equal.overall),
        acc(learned.overall),
        if learned.overall >= equal.overall - 0.01 {
            "learned holds or wins"
        } else {
            "equal wins here"
        },
    ));
    out.push_str("paper §6.2: \"we plan to extend ForeCache to learn what signatures\nwork best for a given dataset automatically\" — implemented here.\n");
    out
}

/// Allocation-strategy ablation: §4.4 original vs §5.4.3 updated vs
/// single-model engines.
pub(crate) fn ablation_alloc(ctx: &ExpContext) -> String {
    let mut out = banner("Ablation — cache allocation strategies (two-level engine)");
    let strategies = [
        AllocationStrategy::Updated,
        AllocationStrategy::Original,
        AllocationStrategy::AbOnly,
        AllocationStrategy::SbOnly,
    ];
    let sweeps: Vec<_> = strategies
        .iter()
        .map(|&s| sweep(ctx, |train| ctx.hybrid_with(train, s, SignatureKind::Sift)))
        .collect();
    let names: Vec<&str> = strategies.iter().map(|s| s.name()).collect();
    out.push_str("overall accuracy:\n");
    out.push_str(&phase_table(None, &names, &sweeps));
    for phase in Phase::ALL {
        out.push_str(&format!("\n{phase}:\n"));
        out.push_str(&phase_table(Some(phase), &names, &sweeps));
    }
    let mean = |i: usize| -> f64 {
        sweeps[i].iter().map(|(_, r)| r.overall).sum::<f64>() / sweeps[i].len() as f64
    };
    out.push_str(&format!(
        "\nmean overall: updated {} original {} ab-only {} sb-only {}\n(the paper replaced the §4.4 original strategy with the updated one\nafter the accuracy study — the updated strategy should win or tie.)\n",
        acc(mean(0)),
        acc(mean(1)),
        acc(mean(2)),
        acc(mean(3)),
    ));
    out
}
