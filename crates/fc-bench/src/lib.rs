//! # fc-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§5); each
//! prints the same rows/series the paper reports, so EXPERIMENTS.md can
//! record paper-vs-measured side by side. `run_all` executes every
//! experiment against one shared dataset build and writes a combined
//! report.
//!
//! Scale is controlled by the `FC_EXP_SIZE` environment variable:
//! `full` (default; 1024² terrain, 6 levels, 18 users) or `small`
//! (512² terrain, 5 levels, 10 users — minutes faster, same shapes).

#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod fmt;
pub mod seed_baseline;

pub use context::ExpContext;
