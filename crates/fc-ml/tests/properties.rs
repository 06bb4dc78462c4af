//! Property-based tests for the ML substrate.

use fc_ml::{
    accuracy, leave_one_group_out, linreg, BinarySvm, ConfusionMatrix, KMeans, Kernel, Scaler,
    SvmParams,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rows() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..30, 1usize..5).prop_flat_map(|(n, d)| {
        proptest::collection::vec(proptest::collection::vec(-100.0f64..100.0, d), n)
    })
}

/// A machine trained by [`smo_one_row_at_a_time`].
struct OracleSvm {
    support: Vec<Vec<f64>>,
    coeffs: Vec<f64>,
    bias: f64,
    kernel: Kernel,
    /// Whether `max_iters`, not `max_passes` clean sweeps, ended training.
    capped: bool,
}

impl OracleSvm {
    fn decision(&self, x: &[f64]) -> f64 {
        let mut s = self.bias;
        for (sv, &c) in self.support.iter().zip(&self.coeffs) {
            s += c * self.kernel.eval(sv, x);
        }
        s
    }
}

/// `BinarySvm::train` as it was before its decision values were computed
/// eight rows per pass: `f(i)` is one add chain per row, in term order.
fn smo_one_row_at_a_time(x: &[Vec<f64>], y: &[f64], p: SvmParams) -> OracleSvm {
    let m = x.len();
    let mut k = vec![0.0; m * m];
    for i in 0..m {
        for j in 0..=i {
            let v = p.kernel.eval(&x[i], &x[j]);
            k[i * m + j] = v;
            k[j * m + i] = v;
        }
    }
    let mut oracle = OracleSvm {
        support: Vec::new(),
        coeffs: Vec::new(),
        bias: 0.0,
        kernel: p.kernel,
        capped: false,
    };
    if m == 1 {
        return oracle;
    }
    let mut rng = StdRng::seed_from_u64(p.seed);
    let at = |i: usize, j: usize| k[i * m + j];
    let mut alpha = vec![0.0f64; m];
    let mut terms: Vec<(usize, f64)> = Vec::new();
    fn set_term(terms: &mut Vec<(usize, f64)>, t: usize, alpha_y: f64) {
        match terms.binary_search_by_key(&t, |&(row, _)| row) {
            Ok(pos) if alpha_y == 0.0 => {
                terms.remove(pos);
            }
            Ok(pos) => terms[pos].1 = alpha_y,
            Err(_) if alpha_y == 0.0 => {}
            Err(pos) => terms.insert(pos, (t, alpha_y)),
        }
    }
    let mut b = 0.0f64;
    let f = |terms: &[(usize, f64)], b: f64, i: usize| -> f64 {
        let row = &k[i * m..(i + 1) * m];
        let mut s = b;
        for &(t, alpha_y) in terms {
            s += alpha_y * row[t];
        }
        s
    };
    let (mut passes, mut iters) = (0usize, 0usize);
    while passes < p.max_passes && iters < p.max_iters {
        iters += 1;
        let mut num_changed = 0usize;
        for i in 0..m {
            let ei = f(&terms, b, i) - y[i];
            let r = y[i] * ei;
            if (r < -p.tol && alpha[i] < p.c) || (r > p.tol && alpha[i] > 0.0) {
                let mut j = rng.gen_range(0..m - 1);
                if j >= i {
                    j += 1;
                }
                let ej = f(&terms, b, j) - y[j];
                let (ai_old, aj_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if y[i] != y[j] {
                    ((aj_old - ai_old).max(0.0), (p.c + aj_old - ai_old).min(p.c))
                } else {
                    ((ai_old + aj_old - p.c).max(0.0), (ai_old + aj_old).min(p.c))
                };
                if (hi - lo).abs() < 1e-12 {
                    continue;
                }
                let eta = 2.0 * at(i, j) - at(i, i) - at(j, j);
                if eta >= 0.0 {
                    continue;
                }
                let mut aj = aj_old - y[j] * (ei - ej) / eta;
                aj = aj.clamp(lo, hi);
                if (aj - aj_old).abs() < 1e-7 {
                    continue;
                }
                let ai = ai_old + y[i] * y[j] * (aj_old - aj);
                alpha[i] = ai;
                alpha[j] = aj;
                set_term(&mut terms, i, ai * y[i]);
                set_term(&mut terms, j, aj * y[j]);
                let b1 = b - ei - y[i] * (ai - ai_old) * at(i, i) - y[j] * (aj - aj_old) * at(i, j);
                let b2 = b - ej - y[i] * (ai - ai_old) * at(i, j) - y[j] * (aj - aj_old) * at(j, j);
                b = if ai > 0.0 && ai < p.c {
                    b1
                } else if aj > 0.0 && aj < p.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                num_changed += 1;
            }
        }
        passes = if num_changed == 0 { passes + 1 } else { 0 };
    }
    oracle.capped = passes < p.max_passes;
    for i in 0..m {
        if alpha[i] > 1e-9 {
            oracle.support.push(x[i].clone());
            oracle.coeffs.push(alpha[i] * y[i]);
        }
    }
    oracle.bias = b;
    oracle
}

/// `train` and the oracle keep the same support vectors and give the
/// same decision bits on a grid over the data's box and at every row.
fn assert_same_machine(
    x: &[Vec<f64>],
    y: &[f64],
    p: SvmParams,
) -> Result<OracleSvm, TestCaseError> {
    let svm = BinarySvm::train(x, y, p);
    let oracle = smo_one_row_at_a_time(x, y, p);
    prop_assert_eq!(svm.num_support(), oracle.support.len());
    let grid = (0..81).map(|g| vec![(g / 9) as f64 * 0.5 - 2.0, (g % 9) as f64 * 0.5 - 2.0]);
    for probe in grid.chain(x.iter().cloned()) {
        let (got, want) = (svm.decision(&probe), oracle.decision(&probe));
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "at {probe:?}: {got} vs {want}"
        );
    }
    Ok(oracle)
}

/// 1–40 rows of 2-d points, about a quarter of them copies of an
/// earlier row, with random ±1 labels.
fn training_set() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
    proptest::collection::vec(
        (
            0u8..4,
            -2.0f64..2.0,
            -2.0f64..2.0,
            any::<usize>(),
            any::<bool>(),
        ),
        1..=40,
    )
    .prop_map(|rows| {
        let (mut x, mut y): (Vec<Vec<f64>>, Vec<f64>) = (Vec::new(), Vec::new());
        for (kind, a, b, pick, label) in rows {
            let row = if kind == 0 && !x.is_empty() {
                x[pick % x.len()].clone()
            } else {
                vec![a, b]
            };
            x.push(row);
            y.push(if label { 1.0 } else { -1.0 });
        }
        (x, y)
    })
}

/// Overlapping blobs at `C = 1` and the default sweep cap: 157 rows, so
/// the last block is five wide, and the cap ends training.
#[test]
fn smo_matches_the_one_row_oracle_at_the_sweep_cap() {
    let mut rng = StdRng::seed_from_u64(5);
    let (mut x, mut y) = (Vec::new(), Vec::new());
    for i in 0..157 {
        let side = if i % 2 == 0 { 1.0 } else { -1.0 };
        x.push(vec![
            0.2 * side + rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        ]);
        y.push(side);
    }
    let p = SvmParams {
        c: 1.0,
        kernel: Kernel::Rbf { gamma: 8.0 },
        ..SvmParams::rbf_default(2)
    };
    let oracle = assert_same_machine(&x, &y, p).unwrap();
    assert!(oracle.capped, "the sweep cap did not end training");
}

proptest! {
    /// SMO that computes `f` eight rows per pass over the terms trains
    /// the machine the one-row-at-a-time oracle does, bit for bit: sets
    /// shorter than a block and with a partial last block, duplicated
    /// rows, both kernels, and sweep caps low enough to end training.
    #[test]
    fn smo_matches_the_one_row_oracle(
        (x, y) in training_set(),
        rbf in any::<bool>(),
        gamma in 0.1f64..8.0,
        c in 0usize..4,
        max_iters in 1usize..=60,
        seed in any::<u64>(),
    ) {
        let p = SvmParams {
            c: [0.1, 1.0, 10.0, 100.0][c],
            kernel: if rbf { Kernel::Rbf { gamma } } else { Kernel::Linear },
            max_iters,
            seed,
            ..SvmParams::rbf_default(2)
        };
        assert_same_machine(&x, &y, p)?;
    }

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
