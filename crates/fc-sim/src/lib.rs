//! # fc-sim — synthetic study: data, users, and the replay harness
//!
//! The paper evaluates ForeCache with a user study: 18 domain scientists
//! exploring NASA MODIS snow-cover (NDSI) data, three search tasks each,
//! yielding 54 traces (§5). Neither the MODIS archive nor the study
//! traces ship with the paper, so this crate builds faithful synthetic
//! equivalents:
//!
//! * [`terrain`] — fractal terrain with three continent-scale mountain
//!   ranges (stand-ins for the Rockies, Alps, and Andes); VIS/SWIR
//!   reflectance bands derived from elevation and snow cover, pushed
//!   through the paper's Query-1 `join`+`apply` NDSI pipeline in
//!   `fc-array`;
//! * [`dataset`] — the tiled study dataset: NDSI pyramid + signatures;
//! * `user` — a stochastic behavioural agent that explores the pyramid
//!   according to the paper's own three-phase analysis model, emitting
//!   ground-truth-labeled traces;
//! * [`study`] — 18 parameterized users × 3 tasks = 54 traces;
//! * [`trace`] — trace types and a line-oriented (de)serializer;
//! * [`replay`] — the accuracy/latency harness of §5.2.2: step through a
//!   trace, collect each model's top-k predictions, count a hit when the
//!   next requested tile is in the list; leave-one-user-out
//!   cross-validation as in §5.4;
//! * [`multiuser`] — the multi-session replay driver: K simulated
//!   analysts per dataset, each dataset one shared-cache namespace,
//!   stepped in deterministic lockstep on one thread. It reads the
//!   server's own `fc_server::ServerConfig` (faults, burst scheduling,
//!   the hotspot model) and opens each session through
//!   the server's session recipe; one report per run (the substrate of
//!   fc-bench's multi-user report sections);
//! * `chaos` — the invariants every run must hold under any fault
//!   schedule (bounded namespaces, balanced accounting, no escaped
//!   panic);
//! * [`zoo`] — the deterministic workload zoo: named, seeded traces
//!   with think times and declared traffic phases, for the burst
//!   scheduler's A/B.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod auto_weights;
mod chaos;
pub mod dataset;
pub mod multiuser;
pub mod replay;
pub mod study;
mod task;
pub mod terrain;
pub mod trace;
mod user;
pub mod zoo;

pub use auto_weights::learn_weights;
pub use chaos::assert_invariants;
pub use dataset::{DatasetConfig, StudyDataset};
pub use multiuser::{run, synthetic_workload, RunConfig, RunReport};
pub use replay::{AccuracyReport, Predictor, ReplayOutcome};
pub use study::{Study, StudyConfig};
pub use task::TaskSpec;
pub use terrain::TerrainConfig;
pub use trace::{Trace, TraceStep};
pub use zoo::{replay_workload, Workload, ZOO_NAMES};
