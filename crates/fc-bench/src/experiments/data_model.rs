//! Data-model experiments: the Fig. 3/4 worked example and the Table-2
//! signature demonstration.

use crate::context::ExpContext;
use crate::fmt::{banner, table};
use fc_array::{regrid, subarray, AggFn, DenseArray, Schema};
use fc_core::sb::chi_squared;
use fc_core::signature::SIGNATURE_KINDS;
use fc_tiles::TileId;

/// Fig. 3 + Fig. 4: a 16×16 array aggregated with parameters (2,2) to
/// 8×8, then partitioned with tiling parameters (4,4) into four tiles.
pub(crate) fn fig3_4(_ctx: &ExpContext) -> String {
    let mut out = banner("Figure 3/4 — aggregation & tiling worked example");
    let schema = Schema::grid2d("RAW", 16, 16, &["v"]).expect("schema");
    let raw = DenseArray::from_vec(schema, (0..256).map(f64::from).collect()).expect("raw 16x16");
    out.push_str("raw array: 16x16, cells 0..255 (row-major)\n");

    let agg = regrid(&raw, &[2, 2], AggFn::Avg).expect("regrid (2,2)");
    out.push_str(&format!(
        "regrid with aggregation parameters (2,2), avg → shape {:?}\n",
        agg.shape()
    ));
    for y in 0..8 {
        let row: Vec<String> = (0..8)
            .map(|x| format!("{:>6.1}", agg.get("v", &[y, x]).unwrap().unwrap()))
            .collect();
        out.push_str(&format!("  {}\n", row.join(" ")));
    }

    out.push_str("\npartition with tiling parameters (4,4) → 4 tiles of 4x4:\n");
    for (ty, tx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        let tile =
            subarray(&agg, &[(ty * 4, ty * 4 + 4), (tx * 4, tx * 4 + 4)]).expect("tile slice");
        out.push_str(&format!(
            "  tile ({ty},{tx}): shape {:?}, corner values {:.1} … {:.1}\n",
            tile.shape(),
            tile.get("v", &[0, 0]).unwrap().unwrap(),
            tile.get("v", &[3, 3]).unwrap().unwrap(),
        ));
    }
    out.push_str("\npaper: \"a 16x16 array being aggregated down to an 8x8 array\nwith aggregation parameters (2,2)\" and \"a zoom level being\npartitioned into four tiles, with tiling parameters (4,4)\" — exact match.\n");
    out
}

/// Table 2: the four signatures, demonstrated by comparing a snowy ROI
/// tile against (a) its snowy neighbour and (b) a distant snow-free tile.
pub(crate) fn table2(ctx: &ExpContext) -> String {
    let mut out = banner("Table 2 — tile signatures and what they discriminate");
    let g = ctx.dataset.pyramid.geometry();
    let store = ctx.dataset.pyramid.store();
    let deepest = g.levels - 1;
    let (rows, cols) = g.tiles_at(deepest);

    // ROI archetype: a snowy tile *with texture* (mean × spread), like a
    // mountain ridge shoulder — flat all-snow tiles have no landmarks
    // for SIFT to key on.
    let mut best = (TileId::new(deepest, 0, 0), f64::MIN);
    for y in 0..rows {
        for x in 0..cols {
            let id = TileId::new(deepest, y, x);
            let Some(meta) = store.meta_vec(id, "sig_normal") else {
                continue;
            };
            let (mean, std) = (meta[0], meta[1]);
            let score = mean * (0.05 + std);
            if mean > 0.2 && score > best.1 {
                best = (id, score);
            }
        }
    }
    let roi = best.0;
    // A neighbour (same ridge) and the far corner (ocean/plain).
    let neighbour = TileId::new(
        deepest,
        roi.y,
        if roi.x + 1 < cols {
            roi.x + 1
        } else {
            roi.x - 1
        },
    );
    let distant = TileId::new(deepest, rows - 1, cols - 1);

    out.push_str(&format!(
        "ROI tile {roi} (mean NDSI {:.2}); neighbour {neighbour} (mean {:.2}); distant {distant} (mean {:.2})\n\n",
        best.1,
        ctx.dataset.tile_mean(neighbour, "ndsi_avg").unwrap_or(f64::NAN),
        ctx.dataset.tile_mean(distant, "ndsi_avg").unwrap_or(f64::NAN),
    ));

    let mut rows_out = Vec::new();
    for kind in SIGNATURE_KINDS {
        let name = kind.meta_name();
        let sig_roi = store.meta_vec(roi, name).unwrap_or_default();
        let sig_nb = store.meta_vec(neighbour, name).unwrap_or_default();
        let sig_far = store.meta_vec(distant, name).unwrap_or_default();
        let d_nb = chi_squared(&sig_roi, &sig_nb);
        let d_far = chi_squared(&sig_roi, &sig_far);
        rows_out.push(vec![
            kind.display_name().to_string(),
            sig_roi.len().to_string(),
            format!("{d_nb:.4}"),
            format!("{d_far:.4}"),
            if d_nb < d_far {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    out.push_str(&table(
        &[
            "signature",
            "dim",
            "χ² to neighbour",
            "χ² to distant",
            "neighbour closer?",
        ],
        &rows_out,
    ));
    out.push_str(
        "\npaper Table 2 lists the same four signatures (Normal Distribution,\n1-D histogram, SIFT, DenseSIFT), each compared with the χ² distance.\nA useful signature ranks the same-ridge neighbour closer than the\nsnow-free distant tile.\n",
    );
    out
}
