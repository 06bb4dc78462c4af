//! Evaluation utilities: confusion matrices, grouped cross-validation,
//! and ordinary least squares (for the paper's Fig. 12 linear fit).

/// A square confusion matrix over `n` classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    n: usize,
    /// `cells[truth * n + pred]`.
    cells: Vec<usize>,
}

impl ConfusionMatrix {
    /// Creates an empty `n × n` matrix.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            cells: vec![0; n * n],
        }
    }

    /// Records one `(truth, predicted)` observation.
    ///
    /// # Panics
    /// Panics when either index is out of range.
    pub fn add(&mut self, truth: usize, pred: usize) {
        assert!(truth < self.n && pred < self.n, "class out of range");
        self.cells[truth * self.n + pred] += 1;
    }

    /// Count in cell `(truth, pred)`.
    ///
    /// # Panics
    /// Panics when either index is out of range.
    pub fn get(&self, truth: usize, pred: usize) -> usize {
        assert!(truth < self.n && pred < self.n, "class out of range");
        self.cells[truth * self.n + pred]
    }

    /// Total observations.
    pub fn total(&self) -> usize {
        self.cells.iter().sum()
    }

    /// Overall accuracy; 0 when empty.
    pub fn accuracy(&self) -> f64 {
        let correct: usize = (0..self.n).map(|i| self.get(i, i)).sum();
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Recall of one class; 0 when the class never occurs.
    pub fn recall(&self, class: usize) -> f64 {
        let row: usize = (0..self.n).map(|p| self.get(class, p)).sum();
        if row == 0 {
            0.0
        } else {
            self.get(class, class) as f64 / row as f64
        }
    }

    /// Merges another matrix into this one (for aggregating CV folds).
    ///
    /// # Panics
    /// Panics on size mismatch.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.n, other.n, "matrix size mismatch");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
    }
}

/// Fraction of positions where `truth[i] == pred[i]`.
///
/// # Panics
/// Panics on length mismatch.
pub fn accuracy(truth: &[usize], pred: &[usize]) -> f64 {
    assert_eq!(truth.len(), pred.len(), "length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = truth.iter().zip(pred).filter(|(t, p)| t == p).count();
    correct as f64 / truth.len() as f64
}

/// Result of an ordinary-least-squares fit `y ≈ intercept + slope·x`.
///
/// The paper reports for Fig. 12: "linear regression: Adj R2=0.99985,
/// Intercept=961.33, Slope=-939.08".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinReg {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// R² adjusted for one predictor.
    pub adj_r2: f64,
}

/// Fits simple linear regression by least squares.
///
/// # Panics
/// Panics when fewer than 3 points or lengths mismatch.
pub fn linreg(xs: &[f64], ys: &[f64]) -> LinReg {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    let n = xs.len();
    assert!(n >= 3, "need at least 3 points for adjusted R²");
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let slope = if sxx.abs() < f64::EPSILON {
        0.0
    } else {
        sxy / sxx
    };
    let intercept = my - slope * mx;
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let e = y - (intercept + slope * x);
            e * e
        })
        .sum();
    let r2 = if syy.abs() < f64::EPSILON {
        1.0
    } else {
        1.0 - ss_res / syy
    };
    let adj_r2 = 1.0 - (1.0 - r2) * (nf - 1.0) / (nf - 2.0);
    LinReg {
        slope,
        intercept,
        r2,
        adj_r2,
    }
}

/// Splits indices into leave-one-group-out folds: for each distinct group
/// id, yields `(train_indices, test_indices)` where the test fold is that
/// group (the paper's per-user leave-one-out CV, §5.4).
pub fn leave_one_group_out(groups: &[usize]) -> Vec<(Vec<usize>, Vec<usize>)> {
    let mut distinct: Vec<usize> = groups.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
        .into_iter()
        .map(|g| {
            let mut train = Vec::new();
            let mut test = Vec::new();
            for (i, &gi) in groups.iter().enumerate() {
                if gi == g {
                    test.push(i);
                } else {
                    train.push(i);
                }
            }
            (train, test)
        })
        .collect()
}

/// Mean of a slice; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation; 0 when fewer than 2 items.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_accuracy_and_per_class() {
        let mut cm = ConfusionMatrix::new(3);
        cm.add(0, 0);
        cm.add(0, 0);
        cm.add(0, 1);
        cm.add(1, 1);
        cm.add(2, 2);
        cm.add(2, 0);
        assert_eq!(cm.total(), 6);
        assert!((cm.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        assert!((cm.recall(0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cm.recall(1), 1.0);
        assert!((cm.recall(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn get_rejects_out_of_range_class() {
        let mut cm = ConfusionMatrix::new(3);
        cm.add(1, 0);
        // Unchecked, `(0, 3)` would alias cell `(1, 0)` and return 1.
        cm.get(0, 3);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix::new(2);
        a.add(0, 0);
        let mut b = ConfusionMatrix::new(2);
        b.add(0, 1);
        b.add(1, 1);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.get(0, 1), 1);
    }

    #[test]
    fn accuracy_of_slices() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 0, 3]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn linreg_recovers_exact_line() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 961.33 - 939.08 * x).collect();
        let fit = linreg(&xs, &ys);
        assert!((fit.slope + 939.08).abs() < 1e-9);
        assert!((fit.intercept - 961.33).abs() < 1e-9);
        assert!(fit.r2 > 0.999999);
        assert!(fit.adj_r2 > 0.999999);
    }

    #[test]
    fn linreg_with_noise_has_lower_r2() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let fit = linreg(&xs, &ys);
        assert!((fit.slope - 2.0).abs() < 0.05);
        assert!(fit.r2 < 1.0);
        assert!(fit.adj_r2 <= fit.r2);
    }

    #[test]
    fn logo_folds_partition_each_group() {
        let groups = vec![0, 0, 1, 2, 1, 2, 2];
        let folds = leave_one_group_out(&groups);
        assert_eq!(folds.len(), 3);
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), groups.len());
            let g = groups[test[0]];
            assert!(test.iter().all(|&i| groups[i] == g));
            assert!(train.iter().all(|&i| groups[i] != g));
        }
    }

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }
}
