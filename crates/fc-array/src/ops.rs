//! Array operators: `regrid`, `subarray`, `join`, `apply`.
//!
//! These are the SciDB operators the paper relies on:
//! * `regrid` with aggregation parameters `(j1, …, jd)` builds each
//!   materialized zoom level (§2.3, Fig. 3);
//! * `subarray` cuts a view into fixed-size data tiles (Fig. 4);
//! * `join` + `apply` express Query 1, the NDSI UDF pipeline (§5.1.2).
//!
//! # Columnar regrid layout
//!
//! `regrid`/`regrid_with` on 2-D arrays (every pyramid level build) run
//! as **blocked, per-attribute column passes** instead of a per-output-
//! cell window gather:
//!
//! 1. a presence pass folds the validity mask into per-output-cell
//!    counts, one input row-stripe at a time (rows `oy·wy .. oy·wy+wy`
//!    accumulate into output row `oy`);
//! 2. each attribute column is then swept with an aggregate-specialized
//!    kernel (`Avg`/`Sum` accumulate sums only, `Min`/`Max` fold just
//!    their comparison, `Count` reuses the presence counts) over the
//!    same row stripes, so the inner loop is a contiguous slice walk
//!    with no iterator indirection, no `flat_index` math, and no
//!    per-cell allocation;
//! 3. input rows whose validity words are all-ones (checked via
//!    [`crate::bitvec::BitVec::all_set_in`]) take a branch-free path.
//!
//! Every output cell folds its window in the reference's row-major
//! order, so results are bit-identical to the original cell-by-cell
//! gather, retained as [`regrid_with_reference`] — it serves
//! n-dimensional inputs and anchors the golden equivalence tests
//! (`tests/golden_regrid.rs`).

use std::sync::Arc;

use crate::agg::{AggFn, AggState};
use crate::bitvec::BitVec;
use crate::dense::{CellView, Column, DenseArray};
use crate::error::{ArrayError, Result};
use crate::schema::Schema;

/// Aggregates every `windows[i]`-sized window along each dimension into a
/// single output cell (the paper's Fig. 3: a 16×16 array with parameters
/// `(2,2)` becomes 8×8). Windows need not divide dimension lengths evenly;
/// ragged edge windows aggregate whatever cells exist. Empty input cells
/// are skipped; an all-empty window yields an empty output cell.
///
/// Every attribute is aggregated with the same function `f`, matching how
/// the NDSI pyramid stores avg/min/max per level via separate calls.
///
/// # Errors
/// [`ArrayError::InvalidArgument`] if `windows` has the wrong arity or a
/// zero entry.
pub fn regrid(input: &DenseArray, windows: &[usize], f: AggFn) -> Result<DenseArray> {
    regrid_with(input, windows, &vec![f; input.schema().attrs.len()])
}

/// Like [`regrid`], but each attribute gets its own aggregate function
/// (`aggs[i]` applies to attribute `i`). The MODIS NDSI dataset stores
/// max/min/avg NDSI per cell, which aggregate with Max/Min/Avg
/// respectively when building coarser zoom levels.
///
/// # Errors
/// [`ArrayError::InvalidArgument`] on window arity/zero errors or when
/// `aggs.len()` differs from the attribute count.
pub fn regrid_with(input: &DenseArray, windows: &[usize], aggs: &[AggFn]) -> Result<DenseArray> {
    let mut out = regrid_output(input, windows, aggs)?;
    if input.schema().ndims() == 2 {
        regrid_blocked_2d(input, windows, aggs, &mut out);
    } else {
        regrid_reference_into(input, windows, aggs, &mut out);
    }
    Ok(out)
}

/// The original cell-by-cell `regrid` gather, retained as the reference
/// implementation: it handles any dimensionality and the blocked 2-D
/// path is proven bit-identical to it by the golden tests. Prefer
/// [`regrid_with`], which routes 2-D inputs onto the blocked columnar
/// path.
///
/// # Errors
/// As [`regrid_with`].
// fc-check: allow(unreferenced-pub) -- reference oracle: golden_regrid holds the blocked path to it bit for bit
pub fn regrid_with_reference(
    input: &DenseArray,
    windows: &[usize],
    aggs: &[AggFn],
) -> Result<DenseArray> {
    let mut out = regrid_output(input, windows, aggs)?;
    regrid_reference_into(input, windows, aggs, &mut out);
    Ok(out)
}

/// Validates regrid arguments and allocates the all-empty output array.
fn regrid_output(input: &DenseArray, windows: &[usize], aggs: &[AggFn]) -> Result<DenseArray> {
    let schema = input.schema();
    if aggs.len() != schema.attrs.len() {
        return Err(ArrayError::InvalidArgument(format!(
            "regrid_with expects {} aggregates, got {}",
            schema.attrs.len(),
            aggs.len()
        )));
    }
    if windows.len() != schema.ndims() {
        return Err(ArrayError::InvalidArgument(format!(
            "regrid expects {} window sizes, got {}",
            schema.ndims(),
            windows.len()
        )));
    }
    if windows.contains(&0) {
        return Err(ArrayError::InvalidArgument(
            "regrid window size must be >= 1".into(),
        ));
    }
    let out_dims: Vec<(String, usize)> = schema
        .dims
        .iter()
        .zip(windows)
        .map(|(d, &w)| (d.name.clone(), d.len.div_ceil(w)))
        .collect();
    let out_schema = Schema::new(
        format!("regrid({})", schema.name),
        out_dims,
        schema.attrs.iter().map(|a| a.name.clone()),
    )?;
    Ok(DenseArray::empty(out_schema))
}

/// Reference gather: one window walk per (output cell × attribute), with
/// the window bounds held in scratch buffers reused across cells.
fn regrid_reference_into(
    input: &DenseArray,
    windows: &[usize],
    aggs: &[AggFn],
    out: &mut DenseArray,
) {
    let schema = input.schema();
    let out_shape = out.shape();
    let in_shape = schema.shape();
    let nattrs = schema.attrs.len();
    let in_strides = schema.strides();

    // Iterate output cells; for each, walk its input window. The window
    // bounds and cell values live in scratch reused across iterations.
    let nd = out_shape.len();
    let mut ocoords = vec![0usize; nd];
    let mut lo = vec![0usize; nd];
    let mut hi = vec![0usize; nd];
    let total: usize = out_shape.iter().product();
    let mut values = vec![0.0f64; nattrs];
    for oidx in 0..total {
        // Window bounds in input space.
        for d in 0..nd {
            lo[d] = ocoords[d] * windows[d];
            hi[d] = (lo[d] + windows[d]).min(in_shape[d]);
        }

        // Aggregate each attribute over present cells of the window.
        let mut any_present = false;
        for ai in 0..nattrs {
            let mut acc = AggState::EMPTY;
            for flat in WindowIter::new(&lo, &hi, &in_strides) {
                if input.valid_at(flat) {
                    acc.push(input.cell_view(flat).attr(ai));
                }
            }
            match acc.finish(aggs[ai]) {
                Some(v) => {
                    values[ai] = v;
                    any_present = true;
                }
                None => values[ai] = f64::NAN,
            }
        }
        if any_present {
            out.write_cell(oidx, &values, true);
        }

        // Advance output coordinates (row-major odometer).
        for d in (0..ocoords.len()).rev() {
            ocoords[d] += 1;
            if ocoords[d] < out_shape[d] {
                break;
            }
            ocoords[d] = 0;
        }
    }
}

/// Blocked columnar regrid for 2-D inputs; see the module docs for the
/// pass structure. Bit-identical to [`regrid_reference_into`]: every
/// output cell folds its window values in the same row-major order with
/// the same [`AggState`] operations.
fn regrid_blocked_2d(input: &DenseArray, windows: &[usize], aggs: &[AggFn], out: &mut DenseArray) {
    let in_shape = input.schema().shape();
    let (h, w) = (in_shape[0], in_shape[1]);
    let (wy, wx) = (windows[0], windows[1]);
    let (oh, ow) = (h.div_ceil(wy), w.div_ceil(wx));
    let valid = input.validity();

    // Fully-present input rows take the branch-free accumulation path.
    let row_full: Vec<bool> = (0..h).map(|y| valid.all_set_in(y * w, y * w + w)).collect();

    // Presence pass: per-output-cell count of present input cells.
    let mut counts = vec![0u32; oh * ow];
    for (oy, out_row) in counts.chunks_mut(ow).enumerate() {
        let y0 = oy * wy;
        let y1 = (y0 + wy).min(h);
        for (y, &full) in row_full.iter().enumerate().take(y1).skip(y0) {
            let base = y * w;
            if full {
                for (ox, c) in out_row.iter_mut().enumerate() {
                    let x0 = ox * wx;
                    *c += ((x0 + wx).min(w) - x0) as u32;
                }
            } else {
                for (ox, c) in out_row.iter_mut().enumerate() {
                    let x0 = ox * wx;
                    for x in x0..(x0 + wx).min(w) {
                        *c += u32::from(valid.get(base + x));
                    }
                }
            }
        }
    }

    // Attribute passes: aggregate-specialized stripe sweeps.
    for (ai, &agg) in aggs.iter().enumerate() {
        let col = input.attr_col(ai);
        let out_col = out.attr_col_mut(ai);
        match agg {
            AggFn::Count => {
                for (o, &n) in out_col.iter_mut().zip(&counts) {
                    *o = if n > 0 { f64::from(n) } else { f64::NAN };
                }
            }
            AggFn::Avg | AggFn::Sum => {
                sweep_attr(
                    out_col,
                    col,
                    valid,
                    &row_full,
                    h,
                    w,
                    wy,
                    wx,
                    ow,
                    0.0,
                    |a, v| a + v,
                );
                if agg == AggFn::Avg {
                    for (o, &n) in out_col.iter_mut().zip(&counts) {
                        *o = if n > 0 { *o / f64::from(n) } else { f64::NAN };
                    }
                } else {
                    for (o, &n) in out_col.iter_mut().zip(&counts) {
                        if n == 0 {
                            *o = f64::NAN;
                        }
                    }
                }
            }
            AggFn::Min => {
                sweep_attr(
                    out_col,
                    col,
                    valid,
                    &row_full,
                    h,
                    w,
                    wy,
                    wx,
                    ow,
                    f64::INFINITY,
                    f64::min,
                );
                for (o, &n) in out_col.iter_mut().zip(&counts) {
                    if n == 0 {
                        *o = f64::NAN;
                    }
                }
            }
            AggFn::Max => {
                sweep_attr(
                    out_col,
                    col,
                    valid,
                    &row_full,
                    h,
                    w,
                    wy,
                    wx,
                    ow,
                    f64::NEG_INFINITY,
                    f64::max,
                );
                for (o, &n) in out_col.iter_mut().zip(&counts) {
                    if n == 0 {
                        *o = f64::NAN;
                    }
                }
            }
        }
    }

    // Presence mask: a cell is present iff its window had present cells.
    let validity = out.validity_mut();
    for (oidx, &n) in counts.iter().enumerate() {
        if n > 0 {
            validity.set(oidx, true);
        }
    }
}

/// One attribute's stripe sweep: accumulates `update` over each output
/// cell's window, visiting values in the reference row-major window
/// order (input rows ascending; columns ascending within a row).
#[allow(clippy::too_many_arguments)]
fn sweep_attr<U>(
    out_col: &mut [f64],
    col: &[f64],
    valid: &BitVec,
    row_full: &[bool],
    h: usize,
    w: usize,
    wy: usize,
    wx: usize,
    ow: usize,
    init: f64,
    update: U,
) where
    U: Fn(f64, f64) -> f64,
{
    for (oy, out_row) in out_col.chunks_mut(ow).enumerate() {
        out_row.fill(init);
        let y0 = oy * wy;
        let y1 = (y0 + wy).min(h);
        for y in y0..y1 {
            let row = &col[y * w..y * w + w];
            if row_full[y] {
                let mut x0 = 0usize;
                for acc in out_row.iter_mut() {
                    let x1 = (x0 + wx).min(w);
                    let mut a = *acc;
                    for &v in &row[x0..x1] {
                        a = update(a, v);
                    }
                    *acc = a;
                    x0 = x1;
                }
            } else {
                let base = y * w;
                let mut x0 = 0usize;
                for acc in out_row.iter_mut() {
                    let x1 = (x0 + wx).min(w);
                    let mut a = *acc;
                    for (off, &v) in row[x0..x1].iter().enumerate() {
                        if valid.get(base + x0 + off) {
                            a = update(a, v);
                        }
                    }
                    *acc = a;
                    x0 = x1;
                }
            }
        }
    }
}

/// Row-major iterator over the flat indices of a hyper-rectangular window.
struct WindowIter<'a> {
    lo: &'a [usize],
    hi: &'a [usize],
    strides: &'a [usize],
    cur: Vec<usize>,
    done: bool,
}

impl<'a> WindowIter<'a> {
    fn new(lo: &'a [usize], hi: &'a [usize], strides: &'a [usize]) -> Self {
        let done = lo.iter().zip(hi).any(|(&l, &h)| l >= h);
        Self {
            lo,
            hi,
            strides,
            cur: lo.to_vec(),
            done,
        }
    }
}

impl Iterator for WindowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        let flat: usize = self
            .cur
            .iter()
            .zip(self.strides)
            .map(|(&c, &s)| c * s)
            .sum();
        // Odometer advance.
        let mut d = self.cur.len();
        loop {
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
            self.cur[d] += 1;
            if self.cur[d] < self.hi[d] {
                break;
            }
            self.cur[d] = self.lo[d];
        }
        Some(flat)
    }
}

/// Extracts the half-open hyper-rectangle `ranges` (one `(lo, hi)` per
/// dimension) into a new array, preserving emptiness.
///
/// # Errors
/// [`ArrayError::InvalidArgument`] on arity mismatch, empty or reversed
/// ranges, or ranges exceeding the array bounds.
pub fn subarray(input: &DenseArray, ranges: &[(usize, usize)]) -> Result<DenseArray> {
    let schema = input.schema();
    if ranges.len() != schema.ndims() {
        return Err(ArrayError::InvalidArgument(format!(
            "subarray expects {} ranges, got {}",
            schema.ndims(),
            ranges.len()
        )));
    }
    for ((lo, hi), d) in ranges.iter().zip(&schema.dims) {
        if lo >= hi || *hi > d.len {
            return Err(ArrayError::InvalidArgument(format!(
                "bad range {lo}..{hi} for dimension {} (len {})",
                d.name, d.len
            )));
        }
    }
    let out_schema = Schema::new(
        format!("subarray({})", schema.name),
        ranges
            .iter()
            .zip(&schema.dims)
            .map(|((lo, hi), d)| (d.name.clone(), hi - lo)),
        schema.attrs.iter().map(|a| a.name.clone()),
    )?;
    let mut out = DenseArray::empty(out_schema);
    let in_strides = schema.strides();
    let lo: Vec<usize> = ranges.iter().map(|r| r.0).collect();
    let hi: Vec<usize> = ranges.iter().map(|r| r.1).collect();
    let nattrs = schema.attrs.len();
    let mut values = vec![0.0f64; nattrs];
    for (oidx, flat) in WindowIter::new(&lo, &hi, &in_strides).enumerate() {
        if input.valid_at(flat) {
            let cv = input.cell_view(flat);
            for (ai, v) in values.iter_mut().enumerate() {
                *v = cv.attr(ai);
            }
            out.write_cell(oidx, &values, true);
        }
    }
    Ok(out)
}

/// Cuts the 2-D block with origin `(y0, x0)` and nominal size `h × w`
/// out of `input` in one pass: the in-bounds part is copied row-by-row
/// with contiguous per-attribute slice copies, and anything past the
/// input's edge is left empty — equivalent to `subarray` followed by
/// padding to `h × w`, without the intermediate array or the per-cell
/// coordinate math. This is the tile-cutting fast path for pyramid
/// partitioning (Fig. 4); the output is named `subarray({input})` to
/// match the operator chain it replaces.
///
/// # Errors
/// [`ArrayError::InvalidArgument`] for non-2-D inputs, zero block sizes,
/// or an origin outside the array.
pub fn extract_block_2d(
    input: &DenseArray,
    y0: usize,
    x0: usize,
    h: usize,
    w: usize,
) -> Result<DenseArray> {
    let schema = input.schema();
    if schema.ndims() != 2 {
        return Err(ArrayError::InvalidArgument(format!(
            "extract_block_2d expects a 2-D array, got {} dims",
            schema.ndims()
        )));
    }
    let in_shape = schema.shape();
    if y0 >= in_shape[0] || x0 >= in_shape[1] {
        return Err(ArrayError::InvalidArgument(format!(
            "block origin ({y0}, {x0}) outside array {}x{}",
            in_shape[0], in_shape[1]
        )));
    }
    let out_schema = Schema::new(
        format!("subarray({})", schema.name),
        [
            (schema.dims[0].name.clone(), h),
            (schema.dims[1].name.clone(), w),
        ],
        schema.attrs.iter().map(|a| a.name.clone()),
    )?;
    let copy_h = (in_shape[0] - y0).min(h);
    let copy_w = (in_shape[1] - x0).min(w);
    let iw = in_shape[1];
    let valid = input.validity();

    let cols = map_bufs(input, 0..schema.attrs.len(), |src| {
        let mut dst = vec![f64::NAN; h * w];
        for r in 0..copy_h {
            let sbase = (y0 + r) * iw + x0;
            let drow = &mut dst[r * w..r * w + copy_w];
            drow.copy_from_slice(&src[sbase..sbase + copy_w]);
            if !valid.all_set_in(sbase, sbase + copy_w) {
                // Absent cells keep the empty representation (NaN) so the
                // raw storage matches the per-cell reference path.
                for (k, v) in drow.iter_mut().enumerate() {
                    if !valid.get(sbase + k) {
                        *v = f64::NAN;
                    }
                }
            }
        }
        Arc::new(dst)
    });
    let mut out_valid = BitVec::filled(h * w, false);
    for r in 0..copy_h {
        let sbase = (y0 + r) * iw + x0;
        if valid.all_set_in(sbase, sbase + copy_w) {
            out_valid.set_range(r * w, r * w + copy_w, true);
        } else {
            for k in 0..copy_w {
                if valid.get(sbase + k) {
                    out_valid.set(r * w + k, true);
                }
            }
        }
    }
    Ok(DenseArray::from_parts(out_schema, cols, out_valid))
}

/// Maps the buffers behind `input`'s attributes `ais` through `f`, once
/// per distinct buffer: attributes that share a buffer in `input` share
/// the result.
fn map_bufs(
    input: &DenseArray,
    ais: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(&Column) -> Column,
) -> Vec<Column> {
    let mut done: Vec<(&Column, Column)> = Vec::new();
    for src in ais.into_iter().map(|ai| input.attr_buf(ai)) {
        let out = match done.iter().find(|(s, _)| Arc::ptr_eq(s, src)) {
            Some((_, out)) => Arc::clone(out),
            None => f(src),
        };
        done.push((src, out));
    }
    done.into_iter().map(|(_, out)| out).collect()
}

/// `input`'s columns `ais` under the presence mask `valid`: shared as
/// they are when `share`, otherwise copied once per buffer with NaN at
/// every cell `valid` leaves empty (the canonical empty representation).
fn carry(
    input: &DenseArray,
    ais: impl IntoIterator<Item = usize>,
    valid: &BitVec,
    share: bool,
) -> Vec<Column> {
    map_bufs(input, ais, |src| {
        if share {
            return Arc::clone(src);
        }
        let mut col = src.to_vec();
        for (i, v) in col.iter_mut().enumerate() {
            if !valid.get(i) {
                *v = f64::NAN;
            }
        }
        Arc::new(col)
    })
}

/// Keeps only the named attributes, in the given order (SciDB `project`,
/// §2.3's "SELECT avg(ndsi)" projection step). Cell presence is
/// unchanged by projection. When every cell is present the output shares
/// the input's columns; otherwise they are copied with empty cells
/// scrubbed to the canonical NaN representation.
///
/// # Errors
/// [`ArrayError::UnknownName`] for absent attributes,
/// [`ArrayError::InvalidArgument`] for duplicates or an empty selection.
pub fn project(input: &DenseArray, attrs: &[&str]) -> Result<DenseArray> {
    let pairs: Vec<(&str, &str)> = attrs.iter().map(|&a| (a, a)).collect();
    project_as(input, &pairs)
}

/// [`project`] with renaming: for each `(from, to)` in order, output
/// attribute `to` holds input attribute `from`. One input attribute may
/// appear under several output names, and those then share one buffer.
///
/// # Errors
/// As [`project`]; duplicates are checked among the output names.
pub fn project_as(input: &DenseArray, attrs: &[(&str, &str)]) -> Result<DenseArray> {
    let schema = input.schema();
    let out_schema = Schema::new(
        schema.name.clone(),
        schema.dims.iter().map(|d| (d.name.clone(), d.len)),
        attrs.iter().map(|(_, to)| to.to_string()),
    )?;
    let ais = attrs.iter().map(|(from, _)| schema.attr_index(from));
    let ais = ais.collect::<Result<Vec<_>>>()?;
    let valid = input.validity().clone();
    let cols = carry(input, ais, &valid, valid.all());
    Ok(DenseArray::from_parts(out_schema, cols, valid))
}

/// Cell-wise equi-join on dimensions (SciDB joins on dimensions
/// implicitly — Query 1 line 3). Both inputs must have identical
/// dimensions. Output cells are present where *both* inputs are present.
/// Attribute name conflicts are resolved by qualifying with the source
/// array name (`SVIS.reflectance`), as SciDB does. A side whose present
/// cells all survive the join passes its columns on shared; the other
/// side's columns are copied with NaN at every empty output cell.
///
/// # Errors
/// [`ArrayError::SchemaMismatch`] when dimensions differ.
pub fn join(left: &DenseArray, right: &DenseArray) -> Result<DenseArray> {
    if !left.schema().dims_match(right.schema()) {
        return Err(ArrayError::SchemaMismatch(format!(
            "join dimensions differ: {} vs {}",
            left.schema(),
            right.schema()
        )));
    }
    let lname = &left.schema().name;
    let rname = &right.schema().name;
    let mut attr_names: Vec<String> = Vec::new();
    for a in &left.schema().attrs {
        let conflict = right.schema().attrs.iter().any(|b| b.name == a.name);
        attr_names.push(if conflict {
            format!("{lname}.{}", a.name)
        } else {
            a.name.clone()
        });
    }
    for b in &right.schema().attrs {
        let conflict = left.schema().attrs.iter().any(|a| a.name == b.name);
        attr_names.push(if conflict {
            format!("{rname}.{}", b.name)
        } else {
            b.name.clone()
        });
    }
    let out_schema = Schema::new(
        format!("join({lname},{rname})"),
        left.schema().dims.iter().map(|d| (d.name.clone(), d.len)),
        attr_names,
    )?;
    let valid = left.validity().and(right.validity());
    let kept = valid.count_ones();
    let side = |a: &DenseArray| {
        let share = a.validity().count_ones() == kept;
        carry(a, 0..a.schema().attrs.len(), &valid, share)
    };
    let mut cols = side(left);
    cols.extend(side(right));
    Ok(DenseArray::from_parts(out_schema, cols, valid))
}

/// Adds a computed attribute `name` via the user-defined function `udf`
/// (Query 1 lines 2–6: `apply(join(SVIS, SSWIR), ndsi, ndsi_func(...))`).
/// The UDF sees every *present* cell; empty cells stay empty and their new
/// attribute is NaN.
///
/// # Errors
/// [`ArrayError::InvalidArgument`] for duplicate attribute names.
pub fn apply<F>(input: &DenseArray, name: &str, udf: F) -> Result<DenseArray>
where
    F: Fn(&CellView<'_>) -> f64,
{
    let mut values = vec![f64::NAN; input.ncells()];
    for (idx, value) in values.iter_mut().enumerate() {
        if input.valid_at(idx) {
            let cv = input.cell_view(idx);
            *value = udf(&cv);
        }
    }
    let mut out = input.clone();
    out.push_attr(name, values)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// The paper's Fig. 3: 16×16 aggregated with parameters (2,2) → 8×8.
    #[test]
    fn regrid_fig3_shape_and_avg() {
        let schema = Schema::grid2d("A", 16, 16, &["v"]).unwrap();
        let data: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let a = DenseArray::from_vec(schema, data).unwrap();
        let out = regrid(&a, &[2, 2], AggFn::Avg).unwrap();
        assert_eq!(out.shape(), vec![8, 8]);
        // Window at (0,0) covers cells (0,0),(0,1),(1,0),(1,1) = 0,1,16,17.
        assert_eq!(out.get("v", &[0, 0]).unwrap(), Some(8.5));
        // Window at (7,7) covers 238,239,254,255 → avg 246.5.
        assert_eq!(out.get("v", &[7, 7]).unwrap(), Some(246.5));
    }

    #[test]
    fn regrid_ragged_edges() {
        let schema = Schema::grid2d("A", 3, 5, &["v"]).unwrap();
        let a = DenseArray::from_vec(schema, vec![1.0; 15]).unwrap();
        let out = regrid(&a, &[2, 2], AggFn::Count).unwrap();
        assert_eq!(out.shape(), vec![2, 3]);
        assert_eq!(out.get("v", &[0, 0]).unwrap(), Some(4.0));
        assert_eq!(out.get("v", &[0, 2]).unwrap(), Some(2.0)); // 2 rows × 1 col
        assert_eq!(out.get("v", &[1, 2]).unwrap(), Some(1.0)); // 1 row × 1 col
    }

    #[test]
    fn regrid_skips_empty_cells() {
        let schema = Schema::grid2d("A", 2, 2, &["v"]).unwrap();
        let mut a = DenseArray::empty(schema);
        a.set("v", &[0, 0], 4.0).unwrap();
        let out = regrid(&a, &[2, 2], AggFn::Avg).unwrap();
        assert_eq!(out.get("v", &[0, 0]).unwrap(), Some(4.0));

        let empty = DenseArray::empty(Schema::grid2d("B", 2, 2, &["v"]).unwrap());
        let out = regrid(&empty, &[2, 2], AggFn::Avg).unwrap();
        assert_eq!(out.get("v", &[0, 0]).unwrap(), None);
    }

    #[test]
    fn regrid_validates_windows() {
        let a = DenseArray::filled(Schema::grid2d("A", 4, 4, &["v"]).unwrap(), 0.0);
        assert!(regrid(&a, &[2], AggFn::Avg).is_err());
        assert!(regrid(&a, &[0, 2], AggFn::Avg).is_err());
    }

    #[test]
    fn regrid_1d() {
        let schema = Schema::new("T", [("t".to_string(), 6)], ["hr".to_string()]).unwrap();
        let a = DenseArray::from_vec(schema, vec![60.0, 62.0, 64.0, 66.0, 70.0, 72.0]).unwrap();
        let out = regrid(&a, &[2], AggFn::Max).unwrap();
        assert_eq!(out.shape(), vec![3]);
        assert_eq!(out.get("hr", &[0]).unwrap(), Some(62.0));
        assert_eq!(out.get("hr", &[2]).unwrap(), Some(72.0));
    }

    /// The paper's Fig. 4: an 8×8 view with tiling parameters (4,4) yields
    /// four 4×4 tiles.
    #[test]
    fn subarray_fig4_tiles() {
        let schema = Schema::grid2d("A", 8, 8, &["v"]).unwrap();
        let data: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let a = DenseArray::from_vec(schema, data).unwrap();
        let t00 = subarray(&a, &[(0, 4), (0, 4)]).unwrap();
        let t01 = subarray(&a, &[(0, 4), (4, 8)]).unwrap();
        let t10 = subarray(&a, &[(4, 8), (0, 4)]).unwrap();
        let t11 = subarray(&a, &[(4, 8), (4, 8)]).unwrap();
        for t in [&t00, &t01, &t10, &t11] {
            assert_eq!(t.shape(), vec![4, 4]);
        }
        assert_eq!(t00.get("v", &[0, 0]).unwrap(), Some(0.0));
        assert_eq!(t01.get("v", &[0, 0]).unwrap(), Some(4.0));
        assert_eq!(t10.get("v", &[0, 0]).unwrap(), Some(32.0));
        assert_eq!(t11.get("v", &[3, 3]).unwrap(), Some(63.0));
    }

    #[test]
    fn subarray_validates_ranges() {
        let a = DenseArray::filled(Schema::grid2d("A", 4, 4, &["v"]).unwrap(), 0.0);
        assert!(subarray(&a, &[(0, 4)]).is_err());
        assert!(subarray(&a, &[(0, 5), (0, 4)]).is_err());
        assert!(subarray(&a, &[(2, 2), (0, 4)]).is_err());
        assert!(subarray(&a, &[(3, 2), (0, 4)]).is_err());
    }

    #[test]
    fn subarray_preserves_emptiness() {
        let schema = Schema::grid2d("A", 2, 2, &["v"]).unwrap();
        let mut a = DenseArray::empty(schema);
        a.set("v", &[0, 1], 3.0).unwrap();
        let s = subarray(&a, &[(0, 2), (0, 2)]).unwrap();
        assert_eq!(s.get("v", &[0, 0]).unwrap(), None);
        assert_eq!(s.get("v", &[0, 1]).unwrap(), Some(3.0));
    }

    /// Query 1 end to end: join two band arrays, apply the NDSI UDF.
    #[test]
    fn join_apply_query1_ndsi() {
        let vis = DenseArray::from_vec(
            Schema::grid2d("SVIS", 2, 2, &["reflectance"]).unwrap(),
            vec![0.8, 0.5, 0.2, 0.6],
        )
        .unwrap();
        let swir = DenseArray::from_vec(
            Schema::grid2d("SSWIR", 2, 2, &["reflectance"]).unwrap(),
            vec![0.2, 0.5, 0.8, 0.2],
        )
        .unwrap();
        let joined = join(&vis, &swir).unwrap();
        assert_eq!(joined.schema().attrs[0].name, "SVIS.reflectance");
        assert_eq!(joined.schema().attrs[1].name, "SSWIR.reflectance");
        let ndsi = apply(&joined, "ndsi", |c| {
            let v = c.attr(0);
            let s = c.attr(1);
            (v - s) / (v + s)
        })
        .unwrap()
        .with_name("NDSI");
        let got = ndsi.get("ndsi", &[0, 0]).unwrap().unwrap();
        assert!((got - 0.6).abs() < 1e-12);
        assert_eq!(ndsi.get("ndsi", &[0, 1]).unwrap(), Some(0.0));
        assert!((ndsi.get("ndsi", &[1, 0]).unwrap().unwrap() + 0.6).abs() < 1e-12);
    }

    #[test]
    fn join_requires_matching_dims() {
        let a = DenseArray::filled(Schema::grid2d("A", 2, 2, &["v"]).unwrap(), 0.0);
        let b = DenseArray::filled(Schema::grid2d("B", 2, 3, &["v"]).unwrap(), 0.0);
        assert!(matches!(join(&a, &b), Err(ArrayError::SchemaMismatch(_))));
    }

    #[test]
    fn join_intersects_presence() {
        let mut a = DenseArray::empty(Schema::grid2d("A", 1, 2, &["u"]).unwrap());
        let mut b = DenseArray::empty(Schema::grid2d("B", 1, 2, &["w"]).unwrap());
        a.set("u", &[0, 0], 1.0).unwrap();
        a.set("u", &[0, 1], 2.0).unwrap();
        b.set("w", &[0, 1], 3.0).unwrap();
        let j = join(&a, &b).unwrap();
        assert_eq!(j.validity().count_ones(), 1);
        assert_eq!(j.get("u", &[0, 1]).unwrap(), Some(2.0));
        assert_eq!(j.get("w", &[0, 1]).unwrap(), Some(3.0));
    }

    #[test]
    fn regrid_with_per_attribute_aggs() {
        let schema = Schema::grid2d("A", 2, 2, &["mx", "mn"]).unwrap();
        let mut a = DenseArray::empty(schema);
        for (i, coords) in [[0usize, 0], [0, 1], [1, 0], [1, 1]].iter().enumerate() {
            a.set("mx", coords, i as f64).unwrap();
            a.set("mn", coords, i as f64).unwrap();
        }
        let out = regrid_with(&a, &[2, 2], &[AggFn::Max, AggFn::Min]).unwrap();
        assert_eq!(out.get("mx", &[0, 0]).unwrap(), Some(3.0));
        assert_eq!(out.get("mn", &[0, 0]).unwrap(), Some(0.0));
        assert!(regrid_with(&a, &[2, 2], &[AggFn::Max]).is_err());
    }

    #[test]
    fn apply_rejects_duplicate_attr() {
        let a = DenseArray::filled(Schema::grid2d("A", 1, 1, &["v"]).unwrap(), 1.0);
        assert!(apply(&a, "v", |c| c.attr(0)).is_err());
    }
}
