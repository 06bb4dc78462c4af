//! Property-based tests for fc-array invariants.

use fc_array::{regrid, subarray, AggFn, DenseArray, Schema};
use proptest::prelude::*;

/// Strategy: a small 2-D array with arbitrary values and presence.
fn small_array() -> impl Strategy<Value = DenseArray> {
    (1usize..12, 1usize..12).prop_flat_map(|(ny, nx)| {
        let n = ny * nx;
        (
            proptest::collection::vec(-1000.0f64..1000.0, n),
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(move |(vals, mask)| {
                let schema = Schema::grid2d("P", ny, nx, &["v"]).unwrap();
                let mut a = DenseArray::empty(schema);
                for (i, (&v, &m)) in vals.iter().zip(&mask).enumerate() {
                    if m {
                        let y = i / nx;
                        let x = i % nx;
                        a.set("v", &[y, x], v).unwrap();
                    }
                }
                a
            })
    })
}

proptest! {
    /// Sum is conserved by regrid(Sum): the total over all present output
    /// cells equals the total over all present input cells.
    #[test]
    fn regrid_sum_conserves_total(a in small_array(), wy in 1usize..5, wx in 1usize..5) {
        let input_total: f64 = a.cells().map(|c| c.attr(0)).sum();
        let out = regrid(&a, &[wy, wx], AggFn::Sum).unwrap();
        let output_total: f64 = out.cells().map(|c| c.attr(0)).sum();
        prop_assert!((input_total - output_total).abs() < 1e-6,
            "{input_total} vs {output_total}");
    }

    /// Count is conserved by regrid(Count).
    #[test]
    fn regrid_count_conserves_presence(a in small_array(), wy in 1usize..5, wx in 1usize..5) {
        let out = regrid(&a, &[wy, wx], AggFn::Count).unwrap();
        let counted: f64 = out.cells().map(|c| c.attr(0)).sum();
        prop_assert_eq!(counted as usize, a.validity().count_ones());
    }

    /// Min <= Avg <= Max for every regrid output cell.
    #[test]
    fn regrid_min_avg_max_ordering(a in small_array(), wy in 1usize..5, wx in 1usize..5) {
        let mn = regrid(&a, &[wy, wx], AggFn::Min).unwrap();
        let av = regrid(&a, &[wy, wx], AggFn::Avg).unwrap();
        let mx = regrid(&a, &[wy, wx], AggFn::Max).unwrap();
        for ((cmin, cavg), cmax) in mn.cells().zip(av.cells()).zip(mx.cells()) {
            prop_assert!(cmin.attr(0) <= cavg.attr(0) + 1e-9);
            prop_assert!(cavg.attr(0) <= cmax.attr(0) + 1e-9);
        }
    }

    /// regrid with window (1,1,...) is the identity on values & presence.
    #[test]
    fn regrid_unit_window_is_identity(a in small_array()) {
        let out = regrid(&a, &[1, 1], AggFn::Avg).unwrap();
        prop_assert_eq!(out.shape(), a.shape());
        prop_assert_eq!(out.validity().count_ones(), a.validity().count_ones());
        for (ca, cb) in a.cells().zip(out.cells()) {
            prop_assert_eq!(ca.coords(), cb.coords());
            prop_assert!((ca.attr(0) - cb.attr(0)).abs() < 1e-12);
        }
    }

    /// Stitching all subarray tiles back together covers every present
    /// cell exactly once.
    #[test]
    fn subarray_tiles_partition_cells(a in small_array(), ty in 1usize..5, tx in 1usize..5) {
        let shape = a.shape();
        let mut covered = 0usize;
        let mut y = 0;
        while y < shape[0] {
            let mut x = 0;
            let y_hi = (y + ty).min(shape[0]);
            while x < shape[1] {
                let x_hi = (x + tx).min(shape[1]);
                let t = subarray(&a, &[(y, y_hi), (x, x_hi)]).unwrap();
                covered += t.validity().count_ones();
                // Every tile cell matches its source cell.
                for c in t.cells() {
                    let co = c.coords();
                    let src = a.get("v", &[co[0] + y, co[1] + x]).unwrap().unwrap();
                    prop_assert!((src - c.attr(0)).abs() < 1e-12);
                }
                x = x_hi;
            }
            y = y_hi;
        }
        prop_assert_eq!(covered, a.validity().count_ones());
    }

    /// flat_index/coords_of roundtrip for arbitrary shapes.
    #[test]
    fn index_coords_roundtrip(ny in 1usize..20, nx in 1usize..20, nz in 1usize..6) {
        let schema = Schema::new(
            "R",
            [("z".to_string(), nz), ("y".to_string(), ny), ("x".to_string(), nx)],
            ["v".to_string()],
        ).unwrap();
        for idx in 0..schema.ncells() {
            let coords = schema.coords_of(idx);
            prop_assert_eq!(schema.flat_index(&coords).unwrap(), idx);
        }
    }
}
