//! # fc-array — embedded array-DBMS substrate
//!
//! ForeCache (Battle et al., SIGMOD 2016) runs against SciDB, an array
//! database. This crate provides the array-DBMS functionality the paper
//! depends on, implemented from scratch:
//!
//! * dense n-dimensional arrays with named dimensions and attributes
//!   ([`DenseArray`], [`Schema`]) and whole-cell emptiness (validity);
//! * the aggregation machinery used to build zoom levels: [`ops::regrid`]
//!   aggregates every `(j1, …, jd)` window into one cell (paper §2.3,
//!   Fig. 3);
//! * cell-wise [`ops::join`] and UDF [`ops::apply`] — enough to express
//!   the paper's Query 1 (NDSI = (VIS − SWIR)/(VIS + SWIR));
//! * [`ops::subarray`] slicing, used to cut materialized views into tiles
//!   (paper Fig. 4);
//! * a chunked storage engine with a **simulated I/O latency model**
//!   ([`storage::SimDisk`]) so experiments can reproduce the paper's
//!   19.5 ms cache-hit / 984 ms cache-miss behaviour deterministically;
//! * a named-array [`Database`], SciDB's `store(…)` / `scan(…)`.
//!
//! The design goal is *behavioural* fidelity: every DBMS code path the
//! paper exercises (materialized-view building, tile reads with large
//! miss latency) exists here, with latency constants configurable by the
//! caller.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod agg;
mod bitvec;
mod database;
mod dense;
mod error;
mod ops;
mod schema;
mod storage;

pub use agg::AggFn;
pub use bitvec::BitVec;
pub use database::Database;
pub use dense::{CellView, DenseArray};
pub use error::{ArrayError, Result};
pub use ops::{
    apply, extract_block_2d, join, project, project_as, regrid, regrid_with, regrid_with_reference,
    subarray,
};
pub use schema::{Attribute, Dimension, Schema};
pub use storage::{BlobSize, IoMode, IoStats, LatencyModel, SimClock, SimDisk};
