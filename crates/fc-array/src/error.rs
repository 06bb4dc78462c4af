//! Error types for array operations.

use std::fmt;

/// Convenience alias used throughout `fc-array`.
pub type Result<T> = std::result::Result<T, ArrayError>;

/// Errors raised by array construction, operators, and the query layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrayError {
    /// The requested dimension/attribute name does not exist.
    UnknownName(String),
    /// Two schemas that must match (e.g. for `join`) do not.
    SchemaMismatch(String),
    /// A shape, window, or range argument is invalid for the target array.
    InvalidArgument(String),
    /// Cell coordinates fall outside the array.
    OutOfBounds {
        /// The offending coordinates.
        coords: Vec<usize>,
        /// The array shape that was violated.
        shape: Vec<usize>,
    },
    /// A named array was not found in the [`crate::Database`].
    NoSuchArray(String),
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::UnknownName(n) => write!(f, "unknown dimension or attribute: {n}"),
            ArrayError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            ArrayError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            ArrayError::OutOfBounds { coords, shape } => {
                write!(
                    f,
                    "coordinates {coords:?} out of bounds for shape {shape:?}"
                )
            }
            ArrayError::NoSuchArray(n) => write!(f, "no such array: {n}"),
        }
    }
}

impl std::error::Error for ArrayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ArrayError::OutOfBounds {
            coords: vec![4, 5],
            shape: vec![2, 2],
        };
        let s = e.to_string();
        assert!(s.contains("[4, 5]"));
        assert!(s.contains("[2, 2]"));
        assert!(ArrayError::NoSuchArray("NDSI".into())
            .to_string()
            .contains("NDSI"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            ArrayError::UnknownName("x".into()),
            ArrayError::UnknownName("x".into())
        );
        assert_ne!(
            ArrayError::UnknownName("x".into()),
            ArrayError::UnknownName("y".into())
        );
    }
}
