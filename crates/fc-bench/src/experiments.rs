//! One module per experiment family; every experiment is a
//! `fn(&ExpContext) -> String` that returns its printable report.

pub(crate) mod ablation;
pub(crate) mod accuracy;
pub(crate) mod classifier;
pub(crate) mod data_model;
pub(crate) mod latency;
pub(crate) mod serving;
pub(crate) mod study_stats;

use crate::context::ExpContext;

/// An experiment runner: renders one table/figure from the context.
pub(crate) type ExpRunner = fn(&ExpContext) -> String;

/// Every experiment, in the order of the report (docs/BENCHMARKS.md,
/// "`run_all` → the paper reproduction report"): `(id, runner)`.
pub fn all() -> Vec<(&'static str, ExpRunner)> {
    vec![
        ("fig3_4", data_model::fig3_4 as fn(&ExpContext) -> String),
        ("table1", classifier::table1),
        ("table2", data_model::table2),
        ("fig8", study_stats::fig8),
        ("fig9", study_stats::fig9),
        ("phase_acc", classifier::phase_acc),
        ("markov_sweep", accuracy::markov_sweep),
        ("fig10a", accuracy::fig10a),
        ("fig10b", accuracy::fig10b),
        ("fig10c", accuracy::fig10c),
        ("fig11", accuracy::fig11),
        ("fig12", latency::fig12),
        ("fig13", latency::fig13),
        ("headline", latency::headline),
        ("ablation_sb", ablation::ablation_sb),
        ("auto_weights", ablation::auto_weights),
        ("ablation_alloc", ablation::ablation_alloc),
        ("multi_dataset", serving::multi_dataset),
        ("fault_ab", serving::fault_ab),
        ("workload_zoo", serving::workload_zoo),
    ]
}

/// Looks up one experiment by id.
pub fn by_name(name: &str) -> Option<fn(&ExpContext) -> String> {
    all().into_iter().find(|(n, _)| *n == name).map(|(_, f)| f)
}
