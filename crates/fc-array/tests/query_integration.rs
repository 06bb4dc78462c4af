//! Integration tests for the paper's Query 1 and the operators and
//! catalog it runs on, across multi-step pipelines.

use fc_array::{apply, join, regrid, AggFn, Database, DenseArray, Schema};

/// Builds the paper's full Query 1 + zoom-level pipeline end to end:
/// bands → join → NDSI UDF → store → per-level regrids.
#[test]
fn query1_then_zoom_levels() {
    let db = Database::new();
    let n = 32usize;
    let mk = |name: &str, f: &dyn Fn(usize, usize) -> f64| {
        let schema = Schema::grid2d(name, n, n, &["reflectance"]).unwrap();
        let data: Vec<f64> = (0..n * n).map(|i| f(i / n, i % n)).collect();
        DenseArray::from_vec(schema, data).unwrap()
    };
    let vis = db.store(
        "SVIS",
        mk("SVIS", &|y, _| 0.2 + 0.6 * (y as f64 / n as f64)),
    );
    let swir = db.store(
        "SSWIR",
        mk("SSWIR", &|y, _| 0.8 - 0.6 * (y as f64 / n as f64)),
    );

    let ndsi = apply(&join(&vis, &swir).unwrap(), "ndsi", |c| {
        let v = c.attr(0);
        let s = c.attr(1);
        (v - s) / (v + s)
    })
    .unwrap();
    let ndsi = db.store("NDSI", ndsi);

    // Materialize three zoom levels like the tile builder does.
    for (level, window) in [(0usize, 4usize), (1, 2), (2, 1)] {
        let name = format!("NDSI_L{level}");
        db.store(&name, regrid(&ndsi, &[window, window], AggFn::Avg).unwrap());
        let view = db.scan(&name).unwrap();
        assert_eq!(view.shape(), vec![n / window, n / window]);
    }

    // NDSI gradient: top rows negative, bottom rows positive.
    let l0 = db.scan("NDSI_L0").unwrap();
    let ai = l0.schema().attr_index("ndsi").unwrap();
    let top = l0.cells().next().unwrap().attr(ai);
    let bottom = l0.cells().last().unwrap().attr(ai);
    assert!(top < -0.3, "top {top}");
    assert!(bottom > 0.3, "bottom {bottom}");
}

/// Masked (emptied) cells never contribute to aggregation.
#[test]
fn filter_then_regrid_skips_masked_cells() {
    let schema = Schema::grid2d("M", 4, 4, &["v"]).unwrap();
    let mut arr = DenseArray::filled(schema, 10.0);
    for y in 0..4 {
        for x in 2..4 {
            arr.clear_cell(&[y, x]).unwrap();
        }
    }
    let out = regrid(&arr, &[4, 4], AggFn::Count).unwrap();
    assert_eq!(out.get("v", &[0, 0]).unwrap(), Some(8.0));
}

/// Store overwrites allow iterative pipelines.
#[test]
fn store_overwrite_roundtrip() {
    let db = Database::new();
    let schema = Schema::grid2d("A", 2, 2, &["v"]).unwrap();
    let x = db.store("X", DenseArray::filled(schema, 1.0));
    db.store("X", apply(&x, "w", |c| c.attr(0) * 2.0).unwrap());
    let x = db.scan("X").unwrap();
    assert_eq!(x.get("w", &[0, 0]).unwrap(), Some(2.0));
    assert_eq!(x.schema().attrs.len(), 2);
}
