//! Building zoom levels and data tiles in advance (paper §2.3).
//!
//! ForeCache pre-computes everything: "(1) building a separate
//! materialized view for each zoom level; (2) partitioning each zoom level
//! into non-overlapping blocks of fixed size (i.e., data tiles); and
//! (3) computing any necessary metadata (e.g., data statistics) for each
//! data tile."

use crate::geometry::Geometry;
use crate::id::TileId;
use crate::store::TileStore;
use crate::tile::Tile;
use fc_array::{
    extract_block_2d, regrid_with, AggFn, ArrayError, DenseArray, IoMode, LatencyModel, Result,
    Schema, SimClock,
};

/// How one attribute aggregates when building coarser levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrAgg {
    /// Attribute name in the base array.
    pub attr: String,
    /// Aggregate applied per regrid window.
    pub agg: AggFn,
}

impl AttrAgg {
    /// Creates an attribute-aggregate pair.
    pub fn new(attr: impl Into<String>, agg: AggFn) -> Self {
        Self {
            attr: attr.into(),
            agg,
        }
    }
}

/// Configuration for building a tile pyramid.
#[derive(Debug, Clone)]
pub struct PyramidConfig {
    /// Number of zoom levels. The deepest level is the raw data.
    pub levels: u8,
    /// Tiling interval along y (tile height in cells).
    pub tile_h: usize,
    /// Tiling interval along x (tile width in cells).
    pub tile_w: usize,
    /// Aggregation per attribute. Attributes not listed are dropped from
    /// the pyramid.
    pub aggs: Vec<AttrAgg>,
    /// Latency model for the backend tile store (reads on cache misses).
    pub latency: LatencyModel,
    /// I/O mode for the backend store.
    pub io_mode: IoMode,
}

impl PyramidConfig {
    /// A configuration with `levels` levels and square tiles, averaging
    /// every attribute, zero-latency backend (good for tests).
    pub fn simple(levels: u8, tile: usize, attrs: &[&str]) -> Self {
        Self {
            levels,
            tile_h: tile,
            tile_w: tile,
            aggs: attrs
                .iter()
                .map(|a| AttrAgg::new(a.to_string(), AggFn::Avg))
                .collect(),
            latency: LatencyModel::free(),
            io_mode: IoMode::Simulated,
        }
    }
}

/// A fully built tile pyramid: geometry + backend tile store.
#[derive(Debug)]
pub struct Pyramid {
    geometry: Geometry,
    store: TileStore,
}

impl Pyramid {
    /// Assembles a pyramid from an existing geometry and store —
    /// serving-layer plumbing (e.g. a registry wrapping stores built
    /// elsewhere) and tests that need partially-populated backends.
    /// [`PyramidBuilder`] is the normal construction path.
    pub fn from_parts(geometry: Geometry, store: TileStore) -> Self {
        Self { geometry, store }
    }

    /// The pyramid's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// The backend tile store.
    pub fn store(&self) -> &TileStore {
        &self.store
    }
}

/// Builds pyramids from base arrays.
#[derive(Debug, Default)]
pub struct PyramidBuilder;

impl PyramidBuilder {
    /// Creates a builder.
    pub fn new() -> Self {
        Self
    }

    /// Builds all zoom levels and tiles from `base` (the raw, deepest
    /// level). `base` must be 2-D; 1-D arrays can be lifted with
    /// [`lift_1d`]. Levels are materialized by aggregating the raw array
    /// with windows of `2^(levels-1-l)`, then partitioned into
    /// `tile_h × tile_w` tiles.
    ///
    /// # Errors
    /// Propagates schema errors: unknown attributes in `aggs`, non-2-D
    /// base arrays, or empty `aggs`.
    pub fn build(&self, base: &DenseArray, cfg: &PyramidConfig) -> Result<Pyramid> {
        if base.schema().ndims() != 2 {
            return Err(ArrayError::InvalidArgument(format!(
                "pyramid base must be 2-D (got {} dims); lift 1-D arrays first",
                base.schema().ndims()
            )));
        }
        if cfg.aggs.is_empty() {
            return Err(ArrayError::InvalidArgument(
                "pyramid needs at least one attribute aggregate".into(),
            ));
        }
        // Project the base array onto the configured attributes, in order.
        let projected = project(base, &cfg.aggs)?;
        let shape = projected.shape();
        let geometry = Geometry::new(cfg.levels, shape[0], shape[1], cfg.tile_h, cfg.tile_w);
        let clock = SimClock::new();
        let store = TileStore::new(geometry, cfg.latency, cfg.io_mode, clock);

        let aggs: Vec<AggFn> = cfg.aggs.iter().map(|a| a.agg).collect();
        for level in 0..cfg.levels {
            let window = geometry.agg_window(level);
            // The deepest level is the raw data without any aggregation.
            let view = if window == 1 {
                projected.clone()
            } else {
                regrid_with(&projected, &[window, window], &aggs)?
            };
            partition_level(&view, level, &geometry, &store)?;
        }
        Ok(Pyramid { geometry, store })
    }
}

/// Cuts one materialized level into `tile_h × tile_w` tiles with
/// [`extract_block_2d`] (row-wise contiguous copies; ragged edge tiles
/// come back already padded to the nominal size with empty cells, so
/// "all tiles have the same dimensions" — §2.3), stored in row-major
/// tile order. Signatures are attached afterwards, over the whole
/// pyramid, by `fc_core::signature::attach_signatures`.
fn partition_level(
    view: &DenseArray,
    level: u8,
    geometry: &Geometry,
    store: &TileStore,
) -> Result<()> {
    let (rows, cols) = geometry.tiles_at(level);
    for ty in 0..rows {
        for tx in 0..cols {
            let block = extract_block_2d(
                view,
                ty as usize * geometry.tile_h,
                tx as usize * geometry.tile_w,
                geometry.tile_h,
                geometry.tile_w,
            )?;
            store.put_tile(Tile::new(TileId::new(level, ty, tx), block));
        }
    }
    Ok(())
}

/// Keeps only the attributes in `aggs` (in that order) via the columnar
/// `fc_array::project`.
fn project(base: &DenseArray, aggs: &[AttrAgg]) -> Result<DenseArray> {
    let names: Vec<&str> = aggs.iter().map(|a| a.attr.as_str()).collect();
    fc_array::project(base, &names)
}

/// Lifts a 1-D array (e.g. a time series) to the 2-D `[y=1, x]` layout the
/// pyramid builder expects.
///
/// # Errors
/// [`ArrayError::InvalidArgument`] for non-1-D inputs.
pub fn lift_1d(base: &DenseArray) -> Result<DenseArray> {
    let schema = base.schema();
    if schema.ndims() != 1 {
        return Err(ArrayError::InvalidArgument(format!(
            "lift_1d expects a 1-D array, got {} dims",
            schema.ndims()
        )));
    }
    let out_schema = Schema::new(
        schema.name.clone(),
        [
            ("y".to_string(), 1),
            (schema.dims[0].name.clone(), schema.dims[0].len),
        ],
        schema.attrs.iter().map(|a| a.name.clone()),
    )?;
    let mut out = DenseArray::empty(out_schema);
    let nattrs = schema.attrs.len();
    let mut values = vec![0.0f64; nattrs];
    for c in base.cells() {
        for (ai, v) in values.iter_mut().enumerate() {
            *v = c.attr(ai);
        }
        out.fill_cell(c.index(), &values)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 32×32 raw array with a gradient; 3 levels of 8×8 tiles:
    /// level 2: 32×32 (4×4 tiles), level 1: 16×16 (2×2), level 0: 8×8 (1×1).
    fn base() -> DenseArray {
        let schema = Schema::grid2d("G", 32, 32, &["v"]).unwrap();
        let data: Vec<f64> = (0..32 * 32).map(|i| (i % 32) as f64).collect();
        DenseArray::from_vec(schema, data).unwrap()
    }

    fn cfg() -> PyramidConfig {
        PyramidConfig::simple(3, 8, &["v"])
    }

    #[test]
    fn builds_every_level_and_tile() {
        let p = PyramidBuilder::new().build(&base(), &cfg()).unwrap();
        let g = p.geometry();
        assert_eq!(g.tiles_at(0), (1, 1));
        assert_eq!(g.tiles_at(1), (2, 2));
        assert_eq!(g.tiles_at(2), (4, 4));
        assert_eq!(p.store().backend_len(), 1 + 4 + 16);
    }

    #[test]
    fn deepest_level_is_raw_data() {
        let p = PyramidBuilder::new().build(&base(), &cfg()).unwrap();
        let (tile, _) = p.store().fetch_backend(TileId::new(2, 0, 0)).unwrap();
        assert_eq!(tile.array.get("v", &[0, 3]).unwrap(), Some(3.0));
        assert_eq!(tile.array.get("v", &[7, 7]).unwrap(), Some(7.0));
    }

    #[test]
    fn coarser_levels_average() {
        let p = PyramidBuilder::new().build(&base(), &cfg()).unwrap();
        // Level 0 window = 4: cell (0,0) averages columns 0..4 → 1.5.
        let (root, _) = p.store().fetch_backend(TileId::ROOT).unwrap();
        assert_eq!(root.array.get("v", &[0, 0]).unwrap(), Some(1.5));
        // Column 7 averages columns 28..32 → 29.5.
        assert_eq!(root.array.get("v", &[0, 7]).unwrap(), Some(29.5));
    }

    #[test]
    fn quadtree_alignment_parent_covers_children() {
        let p = PyramidBuilder::new().build(&base(), &cfg()).unwrap();
        let parent = TileId::new(1, 0, 1);
        let (pt, _) = p.store().fetch_backend(parent).unwrap();
        // Parent cell (0,0) aggregates raw cells rows 0..2 × cols 16..18 →
        // avg of columns 16,17 = 16.5.
        assert_eq!(pt.array.get("v", &[0, 0]).unwrap(), Some(16.5));
        for child in parent.children() {
            assert!(p.geometry().contains(child));
            assert!(p.store().fetch_backend(child).is_some());
        }
    }

    #[test]
    fn ragged_dataset_pads_edge_tiles() {
        let schema = Schema::grid2d("R", 20, 28, &["v"]).unwrap();
        let raw = DenseArray::from_vec(schema, vec![1.0; 20 * 28]).unwrap();
        let cfg = PyramidConfig::simple(2, 8, &["v"]);
        let p = PyramidBuilder::new().build(&raw, &cfg).unwrap();
        // level 1: 20x28 cells → 3x4 tiles; edge tile (2,3) covers rows
        // 16..20, cols 24..28 → 16 present cells, padded to 8x8.
        let (edge, _) = p.store().fetch_backend(TileId::new(1, 2, 3)).unwrap();
        assert_eq!(edge.shape(), (8, 8));
        assert_eq!(edge.array.validity().count_ones(), 16);
        // All tiles have the same dimensions (§2.3).
        for id in p.geometry().all_tiles() {
            let (t, _) = p.store().fetch_backend(id).unwrap();
            assert_eq!(t.shape(), (8, 8), "tile {id}");
        }
    }

    #[test]
    fn rejects_unknown_attr_and_bad_dims() {
        let b = base();
        let mut bad = cfg();
        bad.aggs = vec![AttrAgg::new("nope", AggFn::Avg)];
        assert!(PyramidBuilder::new().build(&b, &bad).is_err());
        let mut empty = cfg();
        empty.aggs.clear();
        assert!(PyramidBuilder::new().build(&b, &empty).is_err());
        let one_d = DenseArray::filled(
            Schema::new("T", [("t".to_string(), 8)], ["v".to_string()]).unwrap(),
            0.0,
        );
        assert!(PyramidBuilder::new().build(&one_d, &cfg()).is_err());
    }

    #[test]
    fn lift_1d_then_build() {
        let schema = Schema::new("HR", [("t".to_string(), 32)], ["bpm".to_string()]).unwrap();
        let hr = DenseArray::from_vec(schema, (0..32).map(|i| 60.0 + i as f64).collect()).unwrap();
        let lifted = lift_1d(&hr).unwrap();
        assert_eq!(lifted.shape(), vec![1, 32]);
        let cfg = PyramidConfig {
            levels: 3,
            tile_h: 1,
            tile_w: 8,
            aggs: vec![AttrAgg::new("bpm", AggFn::Max)],
            latency: LatencyModel::free(),
            io_mode: IoMode::Simulated,
        };
        let p = PyramidBuilder::new().build(&lifted, &cfg).unwrap();
        assert_eq!(p.geometry().tiles_at(0), (1, 1));
        assert_eq!(p.geometry().tiles_at(2), (1, 4));
        // Max-aggregation at the root: window 4 over 0..32 values.
        let (root, _) = p.store().fetch_backend(TileId::ROOT).unwrap();
        assert_eq!(root.array.get("bpm", &[0, 0]).unwrap(), Some(63.0 + 0.0));
        assert!(lift_1d(&lifted).is_err());
    }
}
