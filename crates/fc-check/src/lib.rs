//! fc-check: repo correctness tooling.
//!
//! Three independent pieces, one crate:
//!
//! 1. **Lint gate** ([`lint`]) — a token-level scanner that enforces
//!    repo-wide invariants (SAFETY comments on `unsafe`, SimClock
//!    discipline, shim-only locking, panic-free server handlers,
//!    bounded wire strings, no `pub` item that only tests call) with
//!    an explicit, reasoned waiver syntax.
//! 2. **Lock-order cycle check** ([`cycle`]) — merges the acquisition
//!    graphs dumped by `FC_LOCKGRAPH=1` test runs and flags any cycle
//!    as a potential deadlock.
//! 3. **Concurrency model suites** (under `tests/`) — Loom-lite
//!    exhaustive interleaving exploration of the cache / scheduler /
//!    hotspot models, driven by the instrumented `parking_lot` shim.
//!
//! The library is dependency-free and builds in release; the model
//! suites are debug-only (the shim's scheduler hooks compile away in
//! release builds). See `docs/CHECKS.md` for the runbook.

pub mod cycle;
pub mod lint;

pub use cycle::LockGraph;
pub use lint::{lint_sources, lint_tree, mask_source, Finding, LintSummary};
