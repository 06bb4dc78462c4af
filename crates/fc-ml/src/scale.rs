//! Min-max feature scaling to `[-1, 1]` (the svm-scale convention).
//!
//! RBF SVMs are sensitive to feature ranges; the paper's Table-1 features
//! mix tile coordinates (0..255) with binary flags, so scaling is fitted
//! on the training fold and applied to both folds.

/// A fitted per-feature min-max scaler.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    mins: Vec<f64>,
    maxs: Vec<f64>,
}

impl Scaler {
    /// Fits per-feature minima/maxima over `data`.
    ///
    /// # Panics
    /// Panics on empty data or inconsistent arity.
    pub fn fit(data: &[Vec<f64>]) -> Self {
        assert!(!data.is_empty(), "cannot fit a scaler on no data");
        let dim = data[0].len();
        let mut mins = vec![f64::INFINITY; dim];
        let mut maxs = vec![f64::NEG_INFINITY; dim];
        for row in data {
            assert_eq!(row.len(), dim, "inconsistent feature arity");
            for (j, &v) in row.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        Self { mins, maxs }
    }

    /// Scales one row into `[-1, 1]`. Constant features map to 0; values
    /// outside the fitted range extrapolate (and are clamped to ±3 to
    /// bound the effect of outliers in the test fold).
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        row.iter()
            .enumerate()
            .map(|(j, &v)| {
                let span = self.maxs[j] - self.mins[j];
                if span <= f64::EPSILON {
                    0.0
                } else {
                    ((v - self.mins[j]) / span * 2.0 - 1.0).clamp(-3.0, 3.0)
                }
            })
            .collect()
    }

    /// Scales a whole dataset.
    pub fn transform_all(&self, data: &[Vec<f64>]) -> Vec<Vec<f64>> {
        data.iter().map(|r| self.transform(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_range_to_unit_interval() {
        let s = Scaler::fit(&[vec![0.0, 10.0], vec![4.0, 20.0]]);
        assert_eq!(s.transform(&[0.0, 10.0]), vec![-1.0, -1.0]);
        assert_eq!(s.transform(&[4.0, 20.0]), vec![1.0, 1.0]);
        assert_eq!(s.transform(&[2.0, 15.0]), vec![0.0, 0.0]);
        assert_eq!(s.mins.len(), 2);
    }

    #[test]
    fn constant_features_map_to_zero() {
        let s = Scaler::fit(&[vec![5.0], vec![5.0]]);
        assert_eq!(s.transform(&[5.0]), vec![0.0]);
        assert_eq!(s.transform(&[99.0]), vec![0.0]);
    }

    #[test]
    fn out_of_range_values_clamped() {
        let s = Scaler::fit(&[vec![0.0], vec![1.0]]);
        assert_eq!(s.transform(&[100.0]), vec![3.0]);
        assert_eq!(s.transform(&[-100.0]), vec![-3.0]);
    }

    #[test]
    fn transform_all_preserves_shape() {
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let s = Scaler::fit(&data);
        let t = s.transform_all(&data);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|r| r.len() == 2));
    }
}
