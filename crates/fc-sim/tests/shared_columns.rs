//! The NDSI pyramid's shared columns, and what sharing must not change.
//!
//! At the raw level the study's max, min and avg NDSI are one value per
//! cell, and `build_ndsi_database` names one buffer three times. That
//! buffer reaches every deepest tile as one block; the coarser levels
//! aggregate each attribute on its own. The simulated disk charges a
//! fetch by logical size, so a pyramid over the shared base must cost
//! exactly what one over an unshared copy costs, tile by tile.

use fc_array::{AggFn, DenseArray, IoMode, LatencyModel};
use fc_sim::terrain::{build_ndsi_database, TerrainConfig};
use fc_tiles::{AttrAgg, Pyramid, PyramidBuilder, PyramidConfig};

/// The study's pyramid shape over a ragged 100² terrain, so the edge
/// tiles carry padding.
fn pyramid(base: &DenseArray) -> Pyramid {
    let cfg = PyramidConfig {
        levels: 3,
        tile_h: 32,
        tile_w: 32,
        aggs: vec![
            AttrAgg::new("ndsi_max", AggFn::Max),
            AttrAgg::new("ndsi_min", AggFn::Min),
            AttrAgg::new("ndsi_avg", AggFn::Avg),
            AttrAgg::new("land", AggFn::Avg),
        ],
        latency: LatencyModel::scidb_like(),
        io_mode: IoMode::Simulated,
    };
    PyramidBuilder::new().build(base, &cfg).expect("pyramid")
}

/// A copy of `a` with one buffer per attribute, written cell by cell.
fn unshared(a: &DenseArray) -> DenseArray {
    let mut out = DenseArray::empty(a.schema().clone());
    let k = a.schema().attrs.len();
    for c in a.cells() {
        let values: Vec<f64> = (0..k).map(|ai| c.attr(ai)).collect();
        out.fill_cell(c.index(), &values).expect("same shape");
    }
    out
}

#[test]
fn deepest_tiles_share_one_ndsi_buffer_and_cost_what_unshared_tiles_cost() {
    let (_db, ndsi) = build_ndsi_database(&TerrainConfig {
        size: 100,
        ..TerrainConfig::default()
    });
    let shared = pyramid(&ndsi);
    let plain = pyramid(&unshared(&ndsi));
    let g = shared.geometry();
    let deepest = g.levels - 1;
    for id in g.all_tiles() {
        let (t, cost) = shared.store().fetch_backend(id).expect("tile");
        let (u, plain_cost) = plain.store().fetch_backend(id).expect("tile");
        assert_eq!(cost, plain_cost, "fetch cost of {id}");
        let ptr = |ai: usize| t.array.attr_col(ai).as_ptr();
        if id.level == deepest {
            assert!(
                ptr(0) == ptr(1) && ptr(1) == ptr(2),
                "{id} copies max/min/avg"
            );
        } else {
            let distinct = ptr(0) != ptr(1) && ptr(1) != ptr(2) && ptr(0) != ptr(2);
            assert!(distinct, "{id} shares aggregated columns");
        }
        assert_ne!(ptr(2), ptr(3), "land shares with ndsi in {id}");
        assert_ne!(
            u.array.attr_col(0).as_ptr(),
            u.array.attr_col(1).as_ptr(),
            "the unshared copy shares in {id}"
        );
        for ai in 0..4 {
            let bits = |a: &DenseArray| {
                a.attr_col(ai)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&t.array), bits(&u.array), "attribute {ai} of {id}");
        }
        assert_eq!(t.array.validity(), u.array.validity(), "mask of {id}");
    }
}
