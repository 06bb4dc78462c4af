//! Golden equivalence: the blocked columnar `regrid_with` must be
//! bit-identical to the retained cell-by-cell reference implementation
//! (`regrid_with_reference`) on every shape the pyramid builder can
//! throw at it — ragged edges, sparse and empty validity, NaN/±inf
//! values, and per-attribute aggregates.

use fc_array::{regrid_with, regrid_with_reference, AggFn, DenseArray, Schema};

const ALL_AGGS: [AggFn; 5] = [AggFn::Avg, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count];

/// Deterministic xorshift so cases reproduce without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn f64(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 100.0 - 50.0
    }
}

/// Asserts two arrays are equal down to the bit patterns of their raw
/// attribute storage (NaN-safe, unlike `PartialEq`).
fn assert_bit_identical(blocked: &DenseArray, reference: &DenseArray, label: &str) {
    assert_eq!(blocked.schema(), reference.schema(), "{label}: schema");
    assert_eq!(
        blocked.validity(),
        reference.validity(),
        "{label}: validity"
    );
    for attr in &blocked.schema().attrs {
        let a = blocked.attr_values(&attr.name).unwrap();
        let b = reference.attr_values(&attr.name).unwrap();
        assert_eq!(a.len(), b.len(), "{label}: {} length", attr.name);
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {}[{i}] {x} vs {y}",
                attr.name
            );
        }
    }
}

/// Builds an `ny × nx` array with `nattrs` attributes; `keep(i)` decides
/// cell presence, `value(i, ai)` the stored values.
fn build(
    ny: usize,
    nx: usize,
    nattrs: usize,
    mut keep: impl FnMut(usize) -> bool,
    mut value: impl FnMut(usize, usize) -> f64,
) -> DenseArray {
    let names: Vec<String> = (0..nattrs).map(|i| format!("a{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = Schema::grid2d("G", ny, nx, &name_refs).unwrap();
    let mut arr = DenseArray::empty(schema);
    for y in 0..ny {
        for x in 0..nx {
            let i = y * nx + x;
            if keep(i) {
                for (ai, n) in names.iter().enumerate() {
                    arr.set(n, &[y, x], value(i, ai)).unwrap();
                }
            }
        }
    }
    arr
}

fn check_all_windows(arr: &DenseArray, windows: &[&[usize]], label: &str) {
    for agg in ALL_AGGS {
        let aggs = vec![agg; arr.schema().attrs.len()];
        for w in windows {
            let blocked = regrid_with(arr, w, &aggs).unwrap();
            let reference = regrid_with_reference(arr, w, &aggs).unwrap();
            assert_bit_identical(
                &blocked,
                &reference,
                &format!("{label}, {} {w:?}", agg.name()),
            );
        }
    }
}

#[test]
fn full_grid_every_agg() {
    let mut rng = Rng(0x5EED_0001);
    let arr = build(16, 16, 1, |_| true, |_, _| rng.f64());
    check_all_windows(
        &arr,
        &[&[2, 2], &[4, 4], &[1, 1], &[3, 5], &[16, 16]],
        "full",
    );
}

#[test]
fn ragged_edges_every_agg() {
    let mut rng = Rng(0x5EED_0002);
    let arr = build(37, 53, 1, |_| true, |_, _| rng.f64());
    check_all_windows(
        &arr,
        &[&[4, 3], &[5, 7], &[2, 2], &[64, 64], &[37, 1]],
        "ragged",
    );
}

#[test]
fn sparse_validity_every_agg() {
    let mut keep_rng = Rng(0x5EED_0003);
    let mut val_rng = Rng(0x5EED_0004);
    let arr = build(
        29,
        31,
        1,
        |_| keep_rng.next() % 10 < 7,
        |_, _| val_rng.f64(),
    );
    check_all_windows(&arr, &[&[2, 2], &[4, 3], &[8, 8]], "sparse");
}

#[test]
fn empty_rows_and_columns() {
    let mut rng = Rng(0x5EED_0005);
    // Rows 4..8 and every third column fully empty.
    let arr = build(
        20,
        24,
        1,
        |i| {
            let (y, x) = (i / 24, i % 24);
            !(4..8).contains(&y) && x % 3 != 0
        },
        |_, _| rng.f64(),
    );
    check_all_windows(&arr, &[&[4, 4], &[2, 3], &[5, 24]], "striped");
}

#[test]
fn all_empty_array() {
    let arr = build(12, 9, 2, |_| false, |_, _| 0.0);
    check_all_windows(&arr, &[&[3, 3], &[2, 2]], "all-empty");
}

#[test]
fn nan_and_infinity_values() {
    let mut rng = Rng(0x5EED_0006);
    let arr = build(
        18,
        14,
        1,
        |i| i % 5 != 0,
        |i, _| match i % 7 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => rng.f64(),
        },
    );
    check_all_windows(&arr, &[&[2, 2], &[3, 7], &[6, 6]], "specials");
}

#[test]
fn per_attribute_aggs_mixed() {
    let mut keep_rng = Rng(0x5EED_0007);
    let mut val_rng = Rng(0x5EED_0008);
    let arr = build(
        33,
        26,
        5,
        |_| keep_rng.next() % 8 < 7,
        |_, ai| val_rng.f64() * (ai as f64 + 1.0),
    );
    let aggs = [AggFn::Avg, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Count];
    for w in [&[4usize, 4][..], &[3, 5], &[33, 26], &[1, 2]] {
        let blocked = regrid_with(&arr, w, &aggs).unwrap();
        let reference = regrid_with_reference(&arr, w, &aggs).unwrap();
        assert_bit_identical(&blocked, &reference, &format!("mixed-aggs {w:?}"));
    }
}

#[test]
fn single_cell_and_single_row_arrays() {
    let one = build(1, 1, 1, |_| true, |_, _| 2.5);
    check_all_windows(&one, &[&[1, 1], &[4, 4]], "1x1");
    let mut rng = Rng(0x5EED_0009);
    let row = build(1, 40, 1, |i| i % 4 != 3, |_, _| rng.f64());
    check_all_windows(&row, &[&[1, 4], &[1, 7], &[1, 40]], "1xN");
    let col = build(40, 1, 1, |i| i % 3 != 0, |_, _| rng.f64());
    check_all_windows(&col, &[&[4, 1], &[7, 1]], "Nx1");
}

#[test]
fn blocked_matches_reference_at_half_a_million_cells() {
    // 1024×512 = 2^19 cells, the size of a study-scale level: 256
    // output rows of four-row stripes against the cell-by-cell gather.
    let mut rng = Rng(0x5EED_000A);
    let ny = 1024;
    let nx = 512;
    let names = ["a0"];
    let schema = Schema::grid2d("G", ny, nx, &names).unwrap();
    let data: Vec<f64> = (0..ny * nx).map(|_| rng.f64()).collect();
    let mut arr = DenseArray::from_vec(schema, data).unwrap();
    // Poke some holes so both validity paths run.
    for y in (0..ny).step_by(97) {
        for x in (0..nx).step_by(13) {
            arr.clear_cell(&[y, x]).unwrap();
        }
    }
    for agg in [AggFn::Avg, AggFn::Min, AggFn::Count] {
        let aggs = [agg];
        let blocked = regrid_with(&arr, &[4, 4], &aggs).unwrap();
        let reference = regrid_with_reference(&arr, &[4, 4], &aggs).unwrap();
        assert_bit_identical(&blocked, &reference, &format!("large {}", agg.name()));
    }
}

#[test]
fn one_dimensional_arrays_use_reference_path() {
    let schema = Schema::new("T", [("t".to_string(), 25)], ["v".to_string()]).unwrap();
    let data: Vec<f64> = (0..25).map(|i| i as f64 * 1.5).collect();
    let arr = DenseArray::from_vec(schema, data).unwrap();
    for agg in ALL_AGGS {
        let a = regrid_with(&arr, &[4], &[agg]).unwrap();
        let b = regrid_with_reference(&arr, &[4], &[agg]).unwrap();
        assert_bit_identical(&a, &b, &format!("1-D {}", agg.name()));
    }
}
