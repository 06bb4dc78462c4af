//! Property-based tests for fc-array invariants.

use fc_array::{
    apply, extract_block_2d, join, project, project_as, regrid, subarray, AggFn, DenseArray, Schema,
};
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

/// An array's exact contents: each column's bits, then the mask.
type Contents = (Vec<Vec<u64>>, Vec<bool>);

fn contents(a: &DenseArray) -> Contents {
    let cols = (0..a.schema().attrs.len())
        .map(|ai| a.attr_col(ai).iter().map(|v| v.to_bits()).collect())
        .collect();
    (cols, a.validity().iter().collect())
}

/// What `nbytes` must report whatever the sharing: 8 bytes per cell per
/// attribute plus the mask's words.
fn logical_nbytes(a: &DenseArray) -> usize {
    8 * a.ncells() * a.schema().attrs.len() + 8 * a.ncells().div_ceil(64)
}

/// One write through a public mutator, at a cell index taken modulo the
/// array's size.
#[derive(Debug, Clone)]
enum Write {
    Set {
        attr: usize,
        cell: usize,
        value: f64,
    },
    Fill {
        cell: usize,
        value: f64,
    },
    Clear {
        cell: usize,
    },
}

fn write_strategy() -> impl Strategy<Value = Write> {
    (0usize..3, any::<usize>(), any::<usize>(), -9.0f64..9.0).prop_map(
        |(kind, attr, cell, value)| match kind {
            0 => Write::Set { attr, cell, value },
            1 => Write::Fill { cell, value },
            _ => Write::Clear { cell },
        },
    )
}

/// Applies `w` to `a`, and by hand to `want`, `a`'s contents before it.
fn apply_write(a: &mut DenseArray, want: &mut Contents, w: &Write) {
    let (n, k) = (a.ncells(), a.schema().attrs.len());
    match *w {
        Write::Set { attr, cell, value } => {
            let (attr, cell) = (attr % k, cell % n);
            let name = a.schema().attrs[attr].name.clone();
            let coords = a.schema().coords_of(cell);
            a.set(&name, &coords, value).unwrap();
            want.0[attr][cell] = value.to_bits();
            want.1[cell] = true;
        }
        Write::Fill { cell, value } => {
            let cell = cell % n;
            let values: Vec<f64> = (0..k).map(|i| value + i as f64).collect();
            a.fill_cell(cell, &values).unwrap();
            for (col, v) in want.0.iter_mut().zip(&values) {
                col[cell] = v.to_bits();
            }
            want.1[cell] = true;
        }
        Write::Clear { cell } => {
            let coords = a.schema().coords_of(cell % n);
            a.clear_cell(&coords).unwrap();
            want.1[cell % n] = false;
        }
    }
}

proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

    /// Copy-on-write: an array derived by `clone`, `project`,
    /// `project_as`, `join`, `apply` or `extract_block_2d` may share
    /// buffers with its source, and a write to either side changes
    /// exactly the written cell of that side — not the other side, and
    /// not another attribute naming the same buffer. `nbytes` stays the
    /// logical size throughout.
    #[test]
    fn writes_never_reach_a_sharing_array(
        a in small_array(),
        full in any::<bool>(),
        other in proptest::collection::vec(any::<bool>(), 1..40),
        op in 0usize..6,
        block in (any::<usize>(), any::<usize>(), 1usize..6, 1usize..6),
        write in write_strategy(),
        write_source in any::<bool>(),
    ) {
        let mut a = a;
        if full {
            for cell in 0..a.ncells() {
                if !a.validity().get(cell) {
                    a.fill_cell(cell, &[0.5]).unwrap();
                }
            }
        }
        // `b` shares `a`'s buffer and drops some of its cells, so a join
        // exercises both the shared and the copied side.
        let mut b = project_as(&a, &[("v", "u")]).unwrap().with_name("Q");
        for cell in 0..b.ncells() {
            if other[cell % other.len()] {
                b.clear_cell(&b.schema().coords_of(cell)).unwrap();
            }
        }
        let mut derived = match op {
            0 => a.clone(),
            1 => project(&a, &["v"]).unwrap(),
            2 => project_as(&a, &[("v", "p"), ("v", "q")]).unwrap(),
            3 => join(&a, &b).unwrap(),
            4 => apply(&a, "w", |c| c.attr(0) + 1.0).unwrap(),
            _ => {
                let (shape, (y0, x0, h, w)) = (a.shape(), block);
                extract_block_2d(&a, y0 % shape[0], x0 % shape[1], h, w).unwrap()
            }
        };
        if op == 3 {
            // Each join column holds its side's value where the join keeps
            // the cell, and NaN where it drops one of that side's cells.
            for (ai, side) in [(0, &a), (1, &b)] {
                for cell in 0..a.ncells() {
                    let got = derived.attr_col(ai)[cell];
                    if derived.validity().get(cell) {
                        prop_assert_eq!(got.to_bits(), side.attr_col(0)[cell].to_bits());
                    } else if side.validity().get(cell) {
                        prop_assert!(got.is_nan(), "join kept a dropped cell's value");
                    }
                }
            }
        }
        let (before_a, before_b, before_d) = (contents(&a), contents(&b), contents(&derived));
        if write_source {
            let mut want = before_a;
            apply_write(&mut a, &mut want, &write);
            prop_assert_eq!(contents(&a), want);
            prop_assert_eq!(contents(&derived), before_d);
        } else {
            let mut want = before_d;
            apply_write(&mut derived, &mut want, &write);
            prop_assert_eq!(contents(&derived), want);
            prop_assert_eq!(contents(&a), before_a);
        }
        prop_assert_eq!(contents(&b), before_b);
        for arr in [&a, &b, &derived] {
            prop_assert_eq!(arr.nbytes(), logical_nbytes(arr));
        }
    }
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
