//! Latency experiments: Fig. 12 (accuracy↔latency law), Fig. 13 (average
//! response times), and the headline §5.5 numbers.

use crate::context::ExpContext;
use crate::experiments::accuracy::{sweep, KS};
use crate::fmt::{acc, banner, table};
use fc_core::LatencyProfile;
use fc_ml::linreg;
use fc_sim::replay::{loocv, replay_trace, ReplayOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulates measured response times for a set of replay outcomes: each
/// hit/miss gets the paper's base latency plus Gaussian-ish jitter
/// (deterministic under the seed), mirroring real deployment noise.
fn simulated_avg_ms(outcomes: &[ReplayOutcome], profile: LatencyProfile, seed: u64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let total: f64 = outcomes
        .iter()
        .map(|o| {
            let base = if o.hit { profile.hit } else { profile.miss };
            // ±2% uniform jitter ≈ network + scheduling noise.
            base.as_secs_f64() * 1e3 * rng.gen_range(0.98..1.02)
        })
        .sum();
    total / outcomes.len() as f64
}

/// Fig. 12: average response time vs prefetch accuracy for all models and
/// fetch sizes, with the linear fit.
pub(crate) fn fig12(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 12 — response time vs prefetch accuracy (all models × k)");
    let profile = LatencyProfile::paper();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut rows = Vec::new();

    // (name, factory) pairs; keep a closure-free structure by running
    // each model inline.
    let mut point = |name: &str, k: usize, accv: f64, outcomes: &[ReplayOutcome], seed: u64| {
        let ms = simulated_avg_ms(outcomes, profile, seed);
        xs.push(accv);
        ys.push(ms);
        rows.push(vec![
            name.to_string(),
            k.to_string(),
            acc(accv),
            format!("{ms:.1}"),
        ]);
    };

    for &k in &KS {
        for (mi, name) in ["Momentum", "Hotspot", "AB(Markov3)", "hybrid"]
            .iter()
            .enumerate()
        {
            // Pool outcomes over all users (LOOCV folds).
            let mut outcomes = Vec::new();
            let users: Vec<usize> = {
                let mut u: Vec<usize> = ctx.study.traces.iter().map(|t| t.user).collect();
                u.sort_unstable();
                u.dedup();
                u
            };
            for &u in &users {
                let train: Vec<&fc_sim::trace::Trace> =
                    ctx.study.traces.iter().filter(|t| t.user != u).collect();
                let mut p = match mi {
                    0 => ctx.momentum(),
                    1 => ctx.hotspot(&train),
                    2 => ctx.ab(&train, 3),
                    _ => ctx.hybrid(&train),
                };
                for t in ctx.study.traces.iter().filter(|t| t.user == u) {
                    outcomes.extend(replay_trace(p.as_mut(), t, k));
                }
            }
            let accv =
                outcomes.iter().filter(|o| o.hit).count() as f64 / outcomes.len().max(1) as f64;
            point(name, k, accv, &outcomes, (mi as u64) << 8 | k as u64);
        }
    }

    out.push_str(&table(
        &["model", "k", "accuracy", "avg response (ms)"],
        &rows,
    ));
    let fit = linreg(&xs, &ys);
    out.push_str(&format!(
        "\nlinear fit: response_ms = {:.2} + {:.2} · accuracy, adj R² = {:.5}\n",
        fit.intercept, fit.slope, fit.adj_r2
    ));
    out.push_str(
        "paper: Intercept = 961.33, Slope = −939.08, adj R² = 0.99985\n(\"a 1% increase in accuracy corresponded to a 10 ms decrease in\naverage response time\").\n",
    );
    // `expected_response` is `hit·a + miss·(1 − a)`: the fit recovers
    // the §5.5 constants, so its slope grades nothing.
    out.push_str(&format!(
        "measured: a 1%-point accuracy gain is worth {:.1} ms (by construction: response time is derived from accuracy via the §5.5 constants).\n",
        -fit.slope / 100.0,
    ));
    out
}

/// Fig. 13: average prefetching response times for hybrid / Momentum /
/// Hotspot across k, against the no-prefetch baseline.
pub(crate) fn fig13(ctx: &ExpContext) -> String {
    let mut out = banner("Figure 13 — average response times (hybrid vs existing techniques)");
    let profile = LatencyProfile::paper();
    let hybrid = sweep(ctx, |train| ctx.hybrid(train));
    let momentum = sweep(ctx, |_| ctx.momentum());
    let hotspot = sweep(ctx, |train| ctx.hotspot(train));

    let mut rows = Vec::new();
    for (i, &k) in KS.iter().enumerate() {
        rows.push(vec![
            k.to_string(),
            format!(
                "{:.1}",
                hybrid[i].1.avg_latency(profile).as_secs_f64() * 1e3
            ),
            format!(
                "{:.1}",
                momentum[i].1.avg_latency(profile).as_secs_f64() * 1e3
            ),
            format!(
                "{:.1}",
                hotspot[i].1.avg_latency(profile).as_secs_f64() * 1e3
            ),
            format!("{:.1}", profile.miss.as_secs_f64() * 1e3),
        ]);
    }
    out.push_str(&table(
        &[
            "k",
            "hybrid (ms)",
            "Momentum (ms)",
            "Hotspot (ms)",
            "no prefetch (ms)",
        ],
        &rows,
    ));

    let at = |s: &[(usize, fc_sim::replay::AccuracyReport)], k: usize| {
        s.iter()
            .find(|(kk, _)| *kk == k)
            .map(|(_, r)| r.avg_latency(profile))
            .expect("k in sweep")
    };
    let h5 = at(&hybrid, 5).as_secs_f64() * 1e3;
    let m5 = at(&momentum, 5).as_secs_f64() * 1e3;
    let hs5 = at(&hotspot, 5).as_secs_f64() * 1e3;
    out.push_str(&format!(
        "\nat k = 5: hybrid {h5:.0} ms vs Momentum {m5:.0} ms, Hotspot {hs5:.0} ms, no-prefetch 984 ms\n(paper: 185 ms vs 349 ms / 360 ms / 984 ms)\n",
    ));
    // "reduced response times by more than 50% for k >= 5".
    let halved = KS
        .iter()
        .enumerate()
        .filter(|(i, &k)| {
            k >= 5 && {
                let h = hybrid[*i].1.avg_latency(profile).as_secs_f64();
                let best = momentum[*i]
                    .1
                    .avg_latency(profile)
                    .min(hotspot[*i].1.avg_latency(profile))
                    .as_secs_f64();
                h <= best
            }
        })
        .count();
    out.push_str(&format!(
        "hybrid is the fastest model for {halved}/4 budgets with k ≥ 5\n(paper: \"reduced response times by more than 50% for k ≥ 5\").\n",
    ));
    out
}

/// §5.5 headline numbers: 430% over no-prefetch, 88% over existing
/// prefetchers, 25% better Navigation accuracy.
pub(crate) fn headline(ctx: &ExpContext) -> String {
    let mut out = banner("§5.5 headline — ForeCache vs baselines at k = 5");
    let profile = LatencyProfile::paper();
    let k = 5usize;
    let hybrid = loocv(&ctx.study.traces, k, |train| ctx.hybrid(train));
    let momentum = loocv(&ctx.study.traces, k, |_| ctx.momentum());
    let hotspot = loocv(&ctx.study.traces, k, |train| ctx.hotspot(train));

    let h = hybrid.avg_latency(profile).as_secs_f64() * 1e3;
    let m = momentum.avg_latency(profile).as_secs_f64() * 1e3;
    let hs = hotspot.avg_latency(profile).as_secs_f64() * 1e3;
    let miss = profile.miss.as_secs_f64() * 1e3;

    let rows = vec![
        vec![
            "accuracy @ k=5".into(),
            acc(hybrid.overall),
            acc(momentum.overall),
            acc(hotspot.overall),
            "0.000".into(),
        ],
        vec![
            "avg latency (ms)".into(),
            format!("{h:.0}"),
            format!("{m:.0}"),
            format!("{hs:.0}"),
            format!("{miss:.0}"),
        ],
    ];
    out.push_str(&table(
        &["metric", "hybrid", "Momentum", "Hotspot", "no prefetch"],
        &rows,
    ));

    let vs_traditional = (miss - h) / h * 100.0;
    let best_existing = m.min(hs);
    let vs_existing = (best_existing - h) / h * 100.0;
    let nav_gain = (hybrid.per_phase[1] - momentum.per_phase[1].max(hotspot.per_phase[1])) * 100.0;
    out.push_str(&format!(
        "\nlatency improvement over traditional (no-prefetch) systems: {vs_traditional:.0}%  (paper: 430%)\n"
    ));
    out.push_str(&format!(
        "latency improvement over existing prefetching techniques: {vs_existing:.0}%  (paper: 88%)\n"
    ));
    out.push_str(&format!(
        "Navigation-phase accuracy gain over best baseline: {nav_gain:.0} points  (paper: up to 25%)\n"
    ));
    out.push_str(&format!(
        "middleware constants: {:.1} ms hit / {:.0} ms miss  (paper: 19.5 / 984.0)\n",
        profile.hit.as_secs_f64() * 1e3,
        profile.miss.as_secs_f64() * 1e3,
    ));
    out
}
