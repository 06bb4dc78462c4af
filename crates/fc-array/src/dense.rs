//! Dense n-dimensional arrays with named attributes.
//!
//! Attribute columns are copy-on-write: `clone`, `project`, `join`,
//! `apply` and `extract_block_2d` pass a column they do not change on as
//! the input's buffer, and the first write to a shared column copies it.
//! Sharing follows provenance, never content. [`DenseArray::nbytes`]
//! counts logical bytes, not resident ones, so sharing never changes a
//! simulated cost.

use std::sync::Arc;

use crate::bitvec::BitVec;
use crate::error::{ArrayError, Result};
use crate::schema::Schema;

/// A copy-on-write attribute column.
pub(crate) type Column = Arc<Vec<f64>>;

/// A dense n-dimensional array. Cell values are stored row-major per
/// attribute; a shared validity mask marks *empty* cells (SciDB-style).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseArray {
    schema: Schema,
    /// `attrs[attr_index][cell_index]`; copy-on-write, possibly shared.
    attrs: Vec<Column>,
    valid: BitVec,
}

/// A read-only view of one cell used by `apply` UDFs and cell iteration.
#[derive(Debug, Clone, Copy)]
pub struct CellView<'a> {
    array: &'a DenseArray,
    cell: usize,
}

impl<'a> CellView<'a> {
    /// Value of the attribute at index `ai`.
    pub fn attr(&self, ai: usize) -> f64 {
        self.array.attrs[ai][self.cell]
    }

    /// Coordinates of this cell.
    pub fn coords(&self) -> Vec<usize> {
        self.array.schema.coords_of(self.cell)
    }

    /// Flat cell index.
    pub fn index(&self) -> usize {
        self.cell
    }
}

impl DenseArray {
    /// Creates an array with every cell present and all attributes filled
    /// with `fill`.
    pub fn filled(schema: Schema, fill: f64) -> Self {
        let n = schema.ncells();
        // One buffer per column: `vec![Arc::new(..); k]` would alias them.
        let attrs = (0..schema.attrs.len())
            .map(|_| Arc::new(vec![fill; n]))
            .collect();
        Self {
            valid: BitVec::filled(n, true),
            schema,
            attrs,
        }
    }

    /// Creates an array where every cell is *empty* (to be populated with
    /// [`DenseArray::set`]).
    pub fn empty(schema: Schema) -> Self {
        let mut a = Self::filled(schema, f64::NAN);
        a.valid = BitVec::filled(a.ncells(), false);
        a
    }

    /// Builds a single-attribute array from row-major data.
    ///
    /// # Errors
    /// [`ArrayError::InvalidArgument`] when `data.len()` differs from the
    /// schema's cell count or the schema has more than one attribute.
    pub fn from_vec(schema: Schema, data: Vec<f64>) -> Result<Self> {
        if schema.attrs.len() != 1 {
            return Err(ArrayError::InvalidArgument(format!(
                "from_vec needs a single-attribute schema, got {}",
                schema.attrs.len()
            )));
        }
        if data.len() != schema.ncells() {
            return Err(ArrayError::InvalidArgument(format!(
                "data length {} != cell count {}",
                data.len(),
                schema.ncells()
            )));
        }
        let n = schema.ncells();
        Ok(Self {
            schema,
            attrs: vec![Arc::new(data)],
            valid: BitVec::filled(n, true),
        })
    }

    /// Assembles an array from pre-built (possibly shared) attribute
    /// columns and a validity mask: the operators' columnar constructor.
    pub(crate) fn from_parts(schema: Schema, attrs: Vec<Column>, valid: BitVec) -> Self {
        debug_assert_eq!(attrs.len(), schema.attrs.len());
        debug_assert!(attrs.iter().all(|a| a.len() == schema.ncells()));
        debug_assert_eq!(valid.len(), schema.ncells());
        Self {
            schema,
            attrs,
            valid,
        }
    }

    /// The array's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Shape (dimension lengths).
    pub fn shape(&self) -> Vec<usize> {
        self.schema.shape()
    }

    /// Total cell count (present or empty).
    pub fn ncells(&self) -> usize {
        self.schema.ncells()
    }

    /// Reads attribute `attr` at `coords`; `None` when the cell is empty.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] / [`ArrayError::UnknownName`].
    pub fn get(&self, attr: &str, coords: &[usize]) -> Result<Option<f64>> {
        let ai = self.schema.attr_index(attr)?;
        let idx = self.schema.flat_index(coords)?;
        Ok(self.valid.get(idx).then(|| self.attrs[ai][idx]))
    }

    /// Writes attribute `attr` at `coords`, marking the cell present.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] / [`ArrayError::UnknownName`].
    pub fn set(&mut self, attr: &str, coords: &[usize], value: f64) -> Result<()> {
        let ai = self.schema.attr_index(attr)?;
        let idx = self.schema.flat_index(coords)?;
        Arc::make_mut(&mut self.attrs[ai])[idx] = value;
        self.valid.set(idx, true);
        Ok(())
    }

    /// Marks the cell at `coords` empty.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] for bad coordinates.
    pub fn clear_cell(&mut self, coords: &[usize]) -> Result<()> {
        let idx = self.schema.flat_index(coords)?;
        self.valid.set(idx, false);
        Ok(())
    }

    /// Raw row-major values of one attribute (empty cells hold NaN or stale
    /// values; consult [`DenseArray::validity`]).
    ///
    /// # Errors
    /// [`ArrayError::UnknownName`] if absent.
    pub fn attr_values(&self, attr: &str) -> Result<&[f64]> {
        Ok(&self.attrs[self.schema.attr_index(attr)?])
    }

    /// The validity (presence) mask.
    pub fn validity(&self) -> &BitVec {
        &self.valid
    }

    /// Iterates over *present* cells.
    pub fn cells(&self) -> impl Iterator<Item = CellView<'_>> + '_ {
        (0..self.ncells())
            .filter(move |&i| self.valid.get(i))
            .map(move |cell| CellView { array: self, cell })
    }

    /// View of the cell at a flat index (present or not).
    pub(crate) fn cell_view(&self, cell: usize) -> CellView<'_> {
        CellView { array: self, cell }
    }

    /// Whether the flat-indexed cell is present.
    pub(crate) fn valid_at(&self, idx: usize) -> bool {
        self.valid.get(idx)
    }

    /// Raw row-major values of the attribute at schema position `ai`
    /// — [`Self::attr_values`] without the name lookup, for callers
    /// that walk every attribute in order (the blocked operators, the
    /// wire codec). Pair with [`Self::validity`].
    ///
    /// # Panics
    /// Panics when `ai` is not below the schema's attribute count.
    pub fn attr_col(&self, ai: usize) -> &[f64] {
        &self.attrs[ai]
    }

    /// The buffer behind attribute `ai`, for operators that pass it on
    /// shared.
    pub(crate) fn attr_buf(&self, ai: usize) -> &Column {
        &self.attrs[ai]
    }

    /// Mutable raw values of attribute `ai`, un-shared first.
    pub(crate) fn attr_col_mut(&mut self, ai: usize) -> &mut [f64] {
        Arc::make_mut(&mut self.attrs[ai]).as_mut_slice()
    }

    /// Mutable validity mask (for blocked operators that compute presence
    /// in bulk instead of via per-cell writes).
    pub(crate) fn validity_mut(&mut self) -> &mut BitVec {
        &mut self.valid
    }

    /// Writes every attribute of the cell at flat index `idx` and marks it
    /// present. The fast path for bulk array construction (tile padding,
    /// projections, synthetic data generators).
    ///
    /// # Errors
    /// [`ArrayError::InvalidArgument`] when `idx` is out of range or
    /// `values` has the wrong arity.
    pub fn fill_cell(&mut self, idx: usize, values: &[f64]) -> Result<()> {
        if idx >= self.ncells() {
            return Err(ArrayError::InvalidArgument(format!(
                "cell index {idx} out of range {}",
                self.ncells()
            )));
        }
        if values.len() != self.attrs.len() {
            return Err(ArrayError::InvalidArgument(format!(
                "expected {} attribute values, got {}",
                self.attrs.len(),
                values.len()
            )));
        }
        self.write_cell(idx, values, true);
        Ok(())
    }

    /// Internal: push a full cell (all attributes) at a flat index.
    pub(crate) fn write_cell(&mut self, idx: usize, values: &[f64], present: bool) {
        debug_assert_eq!(values.len(), self.attrs.len());
        for (a, &v) in self.attrs.iter_mut().zip(values) {
            Arc::make_mut(a)[idx] = v;
        }
        self.valid.set(idx, present);
    }

    /// Adds a new attribute filled from `values`; used by `apply`.
    ///
    /// # Errors
    /// [`ArrayError::InvalidArgument`] on length mismatch or duplicate name.
    pub(crate) fn push_attr(&mut self, name: &str, values: Vec<f64>) -> Result<()> {
        if values.len() != self.ncells() {
            return Err(ArrayError::InvalidArgument(format!(
                "attribute data length {} != cell count {}",
                values.len(),
                self.ncells()
            )));
        }
        if self.schema.attr_index(name).is_ok() {
            return Err(ArrayError::InvalidArgument(format!(
                "attribute {name} already exists"
            )));
        }
        self.schema.attrs.push(crate::schema::Attribute::new(name));
        self.attrs.push(Arc::new(values));
        Ok(())
    }

    /// Renames the array (the SciDB `store(..., NAME)` step).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.schema.name = name.into();
        self
    }

    /// Logical size in bytes, used by the simulated disk: 8 per cell per
    /// attribute plus the mask. Shared columns count once per attribute,
    /// so this is not the resident footprint.
    pub fn nbytes(&self) -> usize {
        self.attrs.iter().map(|a| a.len() * 8).sum::<usize>() + self.valid.nbytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> DenseArray {
        let schema = Schema::grid2d("A", 2, 3, &["v"]).unwrap();
        DenseArray::from_vec(schema, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn from_vec_roundtrips_values() {
        let a = arr();
        assert_eq!(a.get("v", &[0, 0]).unwrap(), Some(1.0));
        assert_eq!(a.get("v", &[1, 2]).unwrap(), Some(6.0));
        assert_eq!(a.validity().count_ones(), 6);
    }

    #[test]
    fn from_vec_validates_lengths() {
        let schema = Schema::grid2d("A", 2, 3, &["v"]).unwrap();
        assert!(DenseArray::from_vec(schema, vec![0.0; 5]).is_err());
        let two = Schema::grid2d("A", 2, 3, &["v", "w"]).unwrap();
        assert!(DenseArray::from_vec(two, vec![0.0; 6]).is_err());
    }

    #[test]
    fn empty_cells_read_as_none() {
        let schema = Schema::grid2d("A", 2, 2, &["v"]).unwrap();
        let mut a = DenseArray::empty(schema);
        assert_eq!(a.get("v", &[0, 0]).unwrap(), None);
        a.set("v", &[0, 0], 9.0).unwrap();
        assert_eq!(a.get("v", &[0, 0]).unwrap(), Some(9.0));
        assert_eq!(a.validity().count_ones(), 1);
        a.clear_cell(&[0, 0]).unwrap();
        assert_eq!(a.get("v", &[0, 0]).unwrap(), None);
    }

    #[test]
    fn cells_iterator_skips_empty() {
        let schema = Schema::grid2d("A", 2, 2, &["v"]).unwrap();
        let mut a = DenseArray::empty(schema);
        a.set("v", &[0, 1], 5.0).unwrap();
        a.set("v", &[1, 0], 7.0).unwrap();
        let got: Vec<(Vec<usize>, f64)> = a.cells().map(|c| (c.coords(), c.attr(0))).collect();
        assert_eq!(got, vec![(vec![0, 1], 5.0), (vec![1, 0], 7.0)]);
    }

    #[test]
    fn cellview_by_name() {
        let a = arr();
        let c = a.cells().nth(4).unwrap();
        assert_eq!(c.attr(a.schema().attr_index("v").unwrap()), 5.0);
        assert!(a.schema().attr_index("w").is_err());
        assert_eq!(c.index(), 4);
    }

    #[test]
    fn push_attr_checks() {
        let mut a = arr();
        assert!(a.push_attr("v", vec![0.0; 6]).is_err());
        assert!(a.push_attr("w", vec![0.0; 5]).is_err());
        a.push_attr("w", vec![0.5; 6]).unwrap();
        assert_eq!(a.get("w", &[1, 1]).unwrap(), Some(0.5));
    }

    #[test]
    fn nbytes_counts_attrs_and_mask() {
        let a = arr();
        assert!(a.nbytes() >= 6 * 8);
    }

    #[test]
    fn with_name_renames() {
        let a = arr().with_name("B");
        assert_eq!(a.schema().name, "B");
    }
}
