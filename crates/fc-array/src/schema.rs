//! Array schemas: named dimensions and attributes.
//!
//! Mirrors the SciDB schema notation used in the paper (§5.1.2):
//! `S_VIS(reflectance)[latitude, longitude]` — attributes in parentheses,
//! dimensions in brackets.

use crate::error::{ArrayError, Result};
use std::fmt;

/// A named array dimension with a fixed length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dimension {
    /// Dimension name (e.g. `latitude`).
    pub name: String,
    /// Number of cells along this dimension.
    pub len: usize,
}

impl Dimension {
    /// Creates a dimension.
    pub fn new(name: impl Into<String>, len: usize) -> Self {
        Self {
            name: name.into(),
            len,
        }
    }
}

/// A named array attribute. All attributes are `f64`-valued; missing values
/// are represented as NaN, and whole-cell emptiness by the array's validity
/// mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (e.g. `reflectance`, `ndsi`).
    pub name: String,
}

impl Attribute {
    /// Creates an attribute.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }
}

/// The schema of a dense array: ordered dimensions and attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Array name.
    pub name: String,
    /// Ordered dimensions; cell layout is row-major in this order.
    pub dims: Vec<Dimension>,
    /// Ordered attributes.
    pub attrs: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from dimension `(name, len)` pairs and attribute
    /// names.
    ///
    /// # Errors
    /// Returns [`ArrayError::InvalidArgument`] if there are no dimensions,
    /// no attributes, a zero-length dimension, or duplicate names.
    pub fn new<D, A>(name: impl Into<String>, dims: D, attrs: A) -> Result<Self>
    where
        D: IntoIterator<Item = (String, usize)>,
        A: IntoIterator<Item = String>,
    {
        let dims: Vec<Dimension> = dims
            .into_iter()
            .map(|(n, l)| Dimension::new(n, l))
            .collect();
        let attrs: Vec<Attribute> = attrs.into_iter().map(Attribute::new).collect();
        if dims.is_empty() {
            return Err(ArrayError::InvalidArgument(
                "schema needs at least one dimension".into(),
            ));
        }
        if attrs.is_empty() {
            return Err(ArrayError::InvalidArgument(
                "schema needs at least one attribute".into(),
            ));
        }
        if dims.iter().any(|d| d.len == 0) {
            return Err(ArrayError::InvalidArgument("zero-length dimension".into()));
        }
        for (i, d) in dims.iter().enumerate() {
            if dims[..i].iter().any(|p| p.name == d.name) {
                return Err(ArrayError::InvalidArgument(format!(
                    "duplicate dimension name {}",
                    d.name
                )));
            }
        }
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|p| p.name == a.name) {
                return Err(ArrayError::InvalidArgument(format!(
                    "duplicate attribute name {}",
                    a.name
                )));
            }
        }
        Ok(Self {
            name: name.into(),
            dims,
            attrs,
        })
    }

    /// Convenience constructor for 2-D arrays `[y, x]`.
    pub fn grid2d(name: impl Into<String>, ny: usize, nx: usize, attrs: &[&str]) -> Result<Self> {
        Self::new(
            name,
            [("y".to_string(), ny), ("x".to_string(), nx)],
            attrs.iter().map(|s| s.to_string()),
        )
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Shape as a vector of lengths, in dimension order.
    pub fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.len).collect()
    }

    /// Total number of cells.
    pub fn ncells(&self) -> usize {
        self.dims.iter().map(|d| d.len).product()
    }

    /// Row-major strides for each dimension.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.dims[i + 1].len;
        }
        s
    }

    /// Converts coordinates to a flat row-major cell index.
    ///
    /// # Errors
    /// [`ArrayError::OutOfBounds`] when a coordinate exceeds its dimension.
    pub fn flat_index(&self, coords: &[usize]) -> Result<usize> {
        if coords.len() != self.dims.len() {
            return Err(ArrayError::InvalidArgument(format!(
                "expected {} coordinates, got {}",
                self.dims.len(),
                coords.len()
            )));
        }
        let mut idx = 0usize;
        for (i, (&c, d)) in coords.iter().zip(&self.dims).enumerate() {
            if c >= d.len {
                return Err(ArrayError::OutOfBounds {
                    coords: coords.to_vec(),
                    shape: self.shape(),
                });
            }
            idx += c * self.strides()[i];
        }
        Ok(idx)
    }

    /// Converts a flat index back to coordinates.
    pub fn coords_of(&self, mut idx: usize) -> Vec<usize> {
        let strides = self.strides();
        let mut coords = vec![0usize; self.dims.len()];
        for (i, s) in strides.iter().enumerate() {
            coords[i] = idx / s;
            idx %= s;
        }
        coords
    }

    /// Index of the attribute named `name`.
    ///
    /// # Errors
    /// [`ArrayError::UnknownName`] if not present.
    pub fn attr_index(&self, name: &str) -> Result<usize> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| ArrayError::UnknownName(name.to_string()))
    }

    /// True when both schemas have identical dimension names and lengths
    /// (attribute sets may differ) — the precondition for cell-wise `join`.
    pub fn dims_match(&self, other: &Schema) -> bool {
        self.dims == other.dims
    }
}

impl fmt::Display for Schema {
    /// Formats in SciDB notation: `NAME(attr1,attr2)[dim1=0:9,dim2=0:9]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", a.name)?;
        }
        write!(f, ")[")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}=0:{}", d.name, d.len - 1)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema_2d() -> Schema {
        Schema::grid2d("A", 4, 6, &["v"]).unwrap()
    }

    #[test]
    fn strides_are_row_major() {
        let s = schema_2d();
        assert_eq!(s.strides(), vec![6, 1]);
        let s3 = Schema::new(
            "B",
            [
                ("z".to_string(), 2),
                ("y".to_string(), 3),
                ("x".to_string(), 4),
            ],
            ["v".to_string()],
        )
        .unwrap();
        assert_eq!(s3.strides(), vec![12, 4, 1]);
        assert_eq!(s3.ncells(), 24);
    }

    #[test]
    fn flat_index_roundtrip() {
        let s = schema_2d();
        for y in 0..4 {
            for x in 0..6 {
                let idx = s.flat_index(&[y, x]).unwrap();
                assert_eq!(s.coords_of(idx), vec![y, x]);
            }
        }
    }

    #[test]
    fn flat_index_bounds_checked() {
        let s = schema_2d();
        assert!(matches!(
            s.flat_index(&[4, 0]),
            Err(ArrayError::OutOfBounds { .. })
        ));
        assert!(matches!(
            s.flat_index(&[0]),
            Err(ArrayError::InvalidArgument(_))
        ));
    }

    #[test]
    fn rejects_bad_schemas() {
        assert!(Schema::new("A", [], ["v".to_string()]).is_err());
        assert!(Schema::new("A", [("x".to_string(), 3)], []).is_err());
        assert!(Schema::new("A", [("x".to_string(), 0)], ["v".to_string()]).is_err());
        assert!(Schema::new(
            "A",
            [("x".to_string(), 2), ("x".to_string(), 2)],
            ["v".to_string()]
        )
        .is_err());
        assert!(Schema::new(
            "A",
            [("x".to_string(), 2)],
            ["v".to_string(), "v".to_string()]
        )
        .is_err());
    }

    #[test]
    fn lookup_by_name() {
        let s = schema_2d();
        assert_eq!(s.attr_index("v").unwrap(), 0);
        assert!(s.attr_index("nope").is_err());
    }

    #[test]
    fn display_matches_scidb_notation() {
        let s = schema_2d();
        assert_eq!(s.to_string(), "A(v)[y=0:3,x=0:5]");
    }
}
