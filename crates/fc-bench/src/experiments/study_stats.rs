//! Study-statistics experiments: Fig. 8 (move/phase distributions) and
//! Fig. 9 (one user's zoom-level trajectory).

use crate::context::ExpContext;
use crate::fmt::{banner, pct, table};

/// Fig. 8a/8b (+ 8c–e): distribution of moves and phases per task, and
/// per-user move distributions.
pub(crate) fn fig8(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 8 — distribution of moves and phases");
    let study = &ctx.study;

    // 8a: move distribution per task.
    let move_rows: Vec<Vec<String>> = study
        .move_distribution_per_task()
        .iter()
        .enumerate()
        .map(|(t, row)| {
            vec![
                format!("Task {}", t + 1),
                pct(row[0]),
                pct(row[1]),
                pct(row[2]),
            ]
        })
        .collect();
    out.push_str("(a) moves, averaged across users:\n");
    out.push_str(&table(&["task", "pan", "zoom-in", "zoom-out"], &move_rows));
    out.push_str("paper: zoom-in is the most frequent move in every task;\ntask 3 favours panning over zooming out.\n\n");

    // 8b: phase distribution per task.
    let phase_rows: Vec<Vec<String>> = study
        .phase_distribution_per_task()
        .iter()
        .enumerate()
        .map(|(t, row)| {
            vec![
                format!("Task {}", t + 1),
                pct(row[0]),
                pct(row[1]),
                pct(row[2]),
            ]
        })
        .collect();
    out.push_str("(b) phases, averaged across users:\n");
    out.push_str(&table(
        &["task", "Foraging", "Navigation", "Sensemaking"],
        &phase_rows,
    ));
    out.push_str(
        "paper: \"users spent noticeably less time in the Foraging phase\nfor tasks 2 and 3\".\n\n",
    );

    // 8c-e: per-user distributions, grouped by dominant style.
    for task in 0..3 {
        out.push_str(&format!(
            "({}) per-user move mix, task {}:\n",
            ['c', 'd', 'e'][task],
            task + 1
        ));
        let mut rows: Vec<(usize, [f64; 3])> = study.per_user_move_distribution(task);
        // Group users with similar mixes (sort by pan share) as in the
        // paper's grouped bars.
        rows.sort_by(|a, b| b.1[0].partial_cmp(&a.1[0]).expect("finite"));
        let urows: Vec<Vec<String>> = rows
            .iter()
            .map(|(u, m)| vec![format!("user {u}"), pct(m[0]), pct(m[1]), pct(m[2])])
            .collect();
        out.push_str(&table(&["user", "pan", "zoom-in", "zoom-out"], &urows));
        out.push('\n');
    }
    out.push_str(&format!(
        "totals: {} traces, {} requests (paper: 54 traces, 1390 requests; \naverage requests per task 1/2/3 = {:.0}/{:.0}/{:.0}, paper 35/25/17)\n",
        study.traces.len(),
        study.total_requests(),
        avg_len(ctx, 0),
        avg_len(ctx, 1),
        avg_len(ctx, 2),
    ));
    out
}

fn avg_len(ctx: &ExpContext, task: usize) -> f64 {
    let ts = ctx.study.task_traces(task);
    if ts.is_empty() {
        return 0.0;
    }
    ts.iter().map(|t| t.len()).sum::<usize>() as f64 / ts.len() as f64
}

/// Fig. 9: change in zoom level per request for study participant 2,
/// task 2.
pub(crate) fn fig9(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 9 — zoom level per request (participant 2, task 2)");
    let trace = ctx
        .study
        .traces
        .iter()
        .find(|t| t.user == 1 && t.task == 1)
        .or_else(|| ctx.study.traces.first())
        .expect("study has traces");
    let levels = ctx.dataset.pyramid.geometry().levels;

    out.push_str("request_id  zoom_level   (0 = coarsest, plotted top like the paper)\n");
    for (i, s) in trace.steps.iter().enumerate() {
        let bar = "·".repeat(s.tile.level as usize * 3);
        out.push_str(&format!("{:>10}  {:>10}   {}▇\n", i, s.tile.level, bar));
    }

    // The paper's qualitative claims about the trajectory.
    let max_level = trace.steps.iter().map(|s| s.tile.level).max().unwrap_or(0);
    let returns_to_coarse = trace
        .steps
        .windows(2)
        .filter(|w| w[1].tile.level < w[0].tile.level)
        .count();
    out.push_str(&format!(
        "\n{} requests; deepest level reached {} of {}; {} upward (zoom-out) segments.\n",
        trace.len(),
        max_level,
        levels - 1,
        returns_to_coarse
    ));
    out.push_str(
        "paper: the user alternates between zooming out to coarse levels\n(Foraging) and diving to detailed levels (Sensemaking); 13/18 users\nshowed this pattern throughout.\n",
    );

    // How many users show the alternating pattern (≥ 2 dives).
    let mut alternating = 0usize;
    let users = ctx.study.num_users();
    for u in 0..users {
        let dives: usize = ctx
            .study
            .user_traces(u)
            .iter()
            .map(|t| {
                t.steps
                    .windows(2)
                    .filter(|w| {
                        w[1].tile.level > w[0].tile.level
                            && w[1].tile.level == ctx.dataset.pyramid.geometry().levels - 1
                    })
                    .count()
            })
            .sum();
        if dives >= 2 {
            alternating += 1;
        }
    }
    out.push_str(&format!(
        "measured: {alternating}/{users} simulated users show ≥2 full dives (paper: 13/18).\n"
    ));
    out
}
