//! Property-based tests for the ML substrate.

use fc_ml::{accuracy, leave_one_group_out, linreg, ConfusionMatrix, KMeans, Kernel, Scaler};
use proptest::prelude::*;

fn rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..30, 1usize..5).prop_flat_map(|(n, d)| {
        proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, d), n)
    })
}

proptest! {
    /// Scaling maps every fitted point into [-1, 1].
    #[test]
    fn scaler_bounds_fitted_data(data in rows()) {
        let s = Scaler::fit(&data);
        for row in &data {
            for v in s.transform(row) {
                prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&v), "{v}");
            }
        }
    }

    /// RBF kernel values are in (0, 1] and symmetric.
    #[test]
    fn rbf_kernel_properties(a in proptest::collection::vec(-10.0f64..10.0, 3),
                             b in proptest::collection::vec(-10.0f64..10.0, 3),
                             gamma in 0.01f64..5.0) {
        let k = Kernel::Rbf { gamma };
        let ab = k.eval(&a, &b);
        // exp(-gamma·d²) may underflow to exactly 0 for distant points.
        prop_assert!((0.0..=1.0).contains(&ab));
        prop_assert!((ab - k.eval(&b, &a)).abs() < 1e-15);
        prop_assert!((k.eval(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// k-means assignment returns a valid cluster (the histogram counts
    /// each point at its cluster's index) and the histogram of a bag
    /// over the codebook sums to 1.
    #[test]
    fn kmeans_assignment_valid(data in rows(), k in 1usize..6, seed in 0u64..50) {
        let km = KMeans::fit(&data, k, 15, seed);
        prop_assert!(km.k() >= 1 && km.k() <= k.min(data.len()));
        let h = km.histogram(&data);
        prop_assert_eq!(h.len(), km.k());
        prop_assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// Confusion-matrix accuracy equals slice accuracy for the same data.
    #[test]
    fn confusion_matches_slice_accuracy(pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..60)) {
        let mut cm = ConfusionMatrix::new(4);
        let truth: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let pred: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        for (t, p) in &pairs {
            cm.add(*t, *p);
        }
        prop_assert!((cm.accuracy() - accuracy(&truth, &pred)).abs() < 1e-12);
        prop_assert_eq!(cm.total(), pairs.len());
    }

    /// Leave-one-group-out folds partition the data exactly.
    #[test]
    fn logo_partitions(groups in proptest::collection::vec(0usize..6, 1..50)) {
        let folds = leave_one_group_out(&groups);
        let mut covered = vec![0usize; groups.len()];
        for (train, test) in &folds {
            prop_assert_eq!(train.len() + test.len(), groups.len());
            for &i in test {
                covered[i] += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1), "each index tested once");
    }

    /// linreg on exact lines recovers slope/intercept with R² = 1.
    #[test]
    fn linreg_exact_lines(slope in -50.0f64..50.0, intercept in -50.0f64..50.0,
                          n in 3usize..40) {
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        let fit = linreg(&xs, &ys);
        prop_assert!((fit.slope - slope).abs() < 1e-6, "{} vs {slope}", fit.slope);
        prop_assert!((fit.intercept - intercept).abs() < 1e-6);
        prop_assert!(fit.r2 > 1.0 - 1e-9);
    }
}
