//! A named-array catalog, the `store(...)`/`scan(...)` surface of the
//! embedded DBMS.

use crate::dense::DenseArray;
use crate::error::{ArrayError, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A catalog of named arrays. Cloning is cheap (shared state), so one
/// `Database` can be handed to the tile builder and the middleware
/// simultaneously.
#[derive(Debug, Clone, Default)]
pub struct Database {
    arrays: Arc<RwLock<HashMap<String, Arc<DenseArray>>>>,
}

impl Database {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `array` under `name` (SciDB `store(..., name)`), replacing
    /// any existing array of that name.
    pub fn store(&self, name: impl Into<String>, array: DenseArray) -> Arc<DenseArray> {
        let name = name.into();
        let arc = Arc::new(array.with_name(name.clone()));
        self.arrays.write().insert(name, arc.clone());
        arc
    }

    /// Fetches the array named `name` (SciDB `scan(name)`).
    ///
    /// # Errors
    /// [`ArrayError::NoSuchArray`] when absent.
    pub fn scan(&self, name: &str) -> Result<Arc<DenseArray>> {
        self.arrays
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ArrayError::NoSuchArray(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn small(name: &str) -> DenseArray {
        DenseArray::filled(Schema::grid2d(name, 2, 2, &["v"]).unwrap(), 1.0)
    }

    #[test]
    fn store_scan_roundtrip() {
        let db = Database::new();
        db.store("A", small("tmp"));
        let a = db.scan("A").unwrap();
        assert_eq!(a.schema().name, "A");
        assert!(db.scan("B").is_err());
    }

    #[test]
    fn clone_shares_state() {
        let db = Database::new();
        let db2 = db.clone();
        db.store("A", small("a"));
        assert!(db2.scan("A").is_ok());
    }
}
