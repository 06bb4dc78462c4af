//! Data tiles: fixed-size blocks of a materialized zoom level.

use crate::id::TileId;
use fc_array::{BlobSize, DenseArray};

/// One data tile: its identifier and its attribute data. All tiles of a
/// pyramid share the same nominal dimensions (§2.3); edge tiles of ragged
/// datasets may carry empty cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// The tile's identity within the pyramid.
    pub id: TileId,
    /// Per-attribute cell data for this tile.
    pub array: DenseArray,
}

impl Tile {
    /// Creates a tile.
    pub fn new(id: TileId, array: DenseArray) -> Self {
        Self { id, array }
    }

    /// Tile height/width in cells.
    pub fn shape(&self) -> (usize, usize) {
        let s = self.array.shape();
        (s[0], s.get(1).copied().unwrap_or(1))
    }

    /// Values of `attr` for *present* cells only.
    ///
    /// # Errors
    /// [`fc_array::ArrayError::UnknownName`] when the attribute is absent.
    pub fn present_values(&self, attr: &str) -> fc_array::Result<Vec<f64>> {
        let mut out = Vec::new();
        self.present_values_into(attr, &mut out)?;
        Ok(out)
    }

    /// Like [`Tile::present_values`], but clears and fills a caller-owned
    /// buffer — lets batch signature computation reuse one allocation
    /// across tiles.
    ///
    /// # Errors
    /// [`fc_array::ArrayError::UnknownName`] when the attribute is absent.
    pub fn present_values_into(&self, attr: &str, out: &mut Vec<f64>) -> fc_array::Result<()> {
        let ai = self.array.schema().attr_index(attr)?;
        out.clear();
        out.extend(self.array.cells().map(|c| c.attr(ai)));
        Ok(())
    }

    /// Renders `attr` as a row-major grayscale raster in `[0, 1]`,
    /// min-max normalized over the given `(lo, hi)` value domain (the
    /// renderer's color scale). Empty cells map to 0, and so do NaN and
    /// ±inf values: a colour scale has no place for them.
    ///
    /// This is the "visualization" that the SB recommender's machine
    /// vision signatures (SIFT/denseSIFT) operate on — the paper computes
    /// them over the rendered heatmap of each tile.
    ///
    /// # Errors
    /// [`fc_array::ArrayError::UnknownName`] when the attribute is absent.
    pub fn render(&self, attr: &str, lo: f64, hi: f64) -> fc_array::Result<Vec<f64>> {
        let values = self.array.attr_values(attr)?;
        let validity = self.array.validity();
        let span = (hi - lo).max(f64::EPSILON);
        Ok(values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if validity.get(i) && v.is_finite() {
                    ((v - lo) / span).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect())
    }
}

impl BlobSize for Tile {
    fn nbytes(&self) -> usize {
        std::mem::size_of::<TileId>() + self.array.nbytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_array::Schema;

    fn tile() -> Tile {
        let schema = Schema::grid2d("T", 2, 2, &["v"]).unwrap();
        let arr = DenseArray::from_vec(schema, vec![0.0, 0.5, 1.0, 2.0]).unwrap();
        Tile::new(TileId::new(1, 0, 0), arr)
    }

    #[test]
    fn shape_and_values() {
        let t = tile();
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.present_values("v").unwrap(), vec![0.0, 0.5, 1.0, 2.0]);
        assert!(t.present_values("w").is_err());
    }

    #[test]
    fn render_normalizes_and_clamps() {
        let t = tile();
        let img = t.render("v", 0.0, 1.0).unwrap();
        assert_eq!(img, vec![0.0, 0.5, 1.0, 1.0]); // 2.0 clamps to 1.0
        let img = t.render("v", 0.0, 2.0).unwrap();
        assert_eq!(img, vec![0.0, 0.25, 0.5, 1.0]);
    }

    #[test]
    fn render_empty_cells_are_black() {
        let schema = Schema::grid2d("T", 1, 2, &["v"]).unwrap();
        let mut arr = DenseArray::empty(schema);
        arr.set("v", &[0, 1], 1.0).unwrap();
        let t = Tile::new(TileId::ROOT, arr);
        assert_eq!(t.render("v", 0.0, 1.0).unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn render_non_finite_values_are_black() {
        let schema = Schema::grid2d("T", 2, 2, &["v"]).unwrap();
        let arr = DenseArray::from_vec(
            schema,
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.5],
        )
        .unwrap();
        let t = Tile::new(TileId::ROOT, arr);
        assert_eq!(t.render("v", 0.0, 1.0).unwrap(), vec![0.0, 0.0, 0.0, 0.5]);
    }

    #[test]
    fn blob_size_positive() {
        assert!(BlobSize::nbytes(&tile()) > 32);
    }

    #[test]
    fn one_dim_tile_shape() {
        let schema = fc_array::Schema::new("T", [("t".to_string(), 4)], ["v".to_string()]).unwrap();
        let t = Tile::new(
            TileId::ROOT,
            DenseArray::from_vec(schema, vec![1.0; 4]).unwrap(),
        );
        assert_eq!(t.shape(), (4, 1));
    }
}
