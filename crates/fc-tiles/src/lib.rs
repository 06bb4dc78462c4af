//! # fc-tiles — the ForeCache data model (paper §2)
//!
//! ForeCache browses a dataset as a pyramid of **zoom levels**, each a
//! materialized aggregation of the raw array, partitioned into fixed-size
//! **data tiles**. This crate implements:
//!
//! * [`TileId`] / [`Tile`] — a tile is one fixed-size block of one zoom
//!   level, carrying its attribute data as a [`fc_array::DenseArray`];
//! * [`Pyramid`]/[`PyramidBuilder`] — builds every zoom level bottom-up,
//!   multiplying aggregation intervals by 2 per coarser level, so one tile
//!   at level *i* maps to exactly four tiles at level *i+1* (§2.3);
//! * [`Move`] — the paper's nine-move interface: pan ×4, zoom-out, and
//!   zoom-in into one of four quadrants (§5.2.2);
//! * [`Geometry`] — tile counts per level, move application, and
//!   candidate-set enumeration ("all tiles at most *d* moves away", §4.1);
//! * [`TileStore`] — tiles on the simulated backend disk plus in-memory
//!   per-tile metadata (signatures are attached by `fc-core`).
//!
//! Zoom level 0 is the **coarsest** level; the deepest level is the raw
//! data, matching the paper's numbering (users "go from zoom level 0 to 4
//! through levels 1, 2, 3").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod geometry;
mod id;
pub mod nav;
mod pyramid;
mod sigindex;
mod store;
mod tile;

pub use geometry::Geometry;
pub use id::TileId;
pub use nav::{Move, Quadrant, MOVES};
pub use pyramid::{lift_1d, AttrAgg, Pyramid, PyramidBuilder, PyramidConfig};
pub use sigindex::{SigMatrix, SignatureIndex};
pub use store::{MetaKey, TileMeta, TileStore};
pub use tile::Tile;
