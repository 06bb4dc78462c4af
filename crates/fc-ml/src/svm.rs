//! Soft-margin SVMs trained with SMO, and one-vs-one multi-class voting.

use crate::kernel::Kernel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Soft-margin penalty C.
    pub c: f64,
    /// Kernel.
    pub kernel: Kernel,
    /// KKT violation tolerance.
    pub tol: f64,
    /// Number of full passes without changes before stopping.
    pub max_passes: usize,
    /// Hard cap on optimization sweeps (guards pathological data).
    pub max_iters: usize,
    /// RNG seed for SMO's partner selection (deterministic training).
    pub seed: u64,
}

impl SvmParams {
    /// Reasonable defaults for small feature spaces: C = 10, RBF with
    /// LibSVM's default gamma.
    pub fn rbf_default(num_features: usize) -> Self {
        Self {
            c: 10.0,
            kernel: Kernel::rbf_default(num_features),
            tol: 1e-3,
            max_passes: 5,
            max_iters: 300,
            seed: 0x5EED,
        }
    }
}

/// A trained binary SVM: support vectors, their coefficients, and bias.
#[derive(Debug, Clone)]
pub struct BinarySvm {
    support: Vec<Vec<f64>>,
    /// `alpha_i * y_i` per support vector.
    coeffs: Vec<f64>,
    bias: f64,
    kernel: Kernel,
}

impl BinarySvm {
    /// Trains on `x` with labels `y ∈ {-1, +1}` via simplified SMO. A
    /// single row has no partner to be optimized against and trains to
    /// the machine without support vectors.
    ///
    /// # Panics
    /// Panics when inputs are empty, lengths mismatch, or labels are not
    /// ±1.
    pub fn train(x: &[Vec<f64>], y: &[f64], p: SvmParams) -> Self {
        assert!(!x.is_empty(), "empty training set");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(
            y.iter().all(|&v| v == 1.0 || v == -1.0),
            "labels must be -1 or +1"
        );
        let m = x.len();
        if m == 1 {
            return Self {
                support: Vec::new(),
                coeffs: Vec::new(),
                bias: 0.0,
                kernel: p.kernel,
            };
        }
        let mut rng = StdRng::seed_from_u64(p.seed);

        // Precompute the kernel matrix, dense and symmetric so that
        // `f(i)` reads along a contiguous row, and `f_block` eight rows
        // along one term's; training sets here are small (≈1.4k rows in
        // the paper's study).
        let k = gram(x, p.kernel);
        let at = |i: usize, j: usize| k[i * m + j];
        let mut alpha = vec![0.0f64; m];
        // The terms of `f`: `(t, alpha[t] * y[t])` for every non-zero
        // `alpha[t]`, ascending in `t` — the sum runs in row order.
        let mut terms: Vec<(usize, f64)> = Vec::new();
        let mut b = 0.0f64;

        let f = |terms: &[(usize, f64)], b: f64, i: usize| -> f64 {
            let row = &k[i * m..(i + 1) * m];
            let mut s = b;
            for &(t, alpha_y) in terms {
                s += alpha_y * row[t];
            }
            s
        };

        let mut passes = 0usize;
        let mut iters = 0usize;
        let mut fs = [0.0f64; BLOCK];
        while passes < p.max_passes && iters < p.max_iters {
            iters += 1;
            let mut num_changed = 0usize;
            // The rows whose `f` is in `fs`, from `fresh.start` on, at
            // the current terms and bias.
            let mut fresh = 0..0;
            for i in 0..m {
                if !fresh.contains(&i) {
                    fs = f_block(&k, m, &terms, b, i);
                    fresh = i..(i + BLOCK).min(m);
                }
                let ei = fs[i - fresh.start] - y[i];
                let r = y[i] * ei;
                if (r < -p.tol && alpha[i] < p.c) || (r > p.tol && alpha[i] > 0.0) {
                    // Pick a random partner j != i (Platt's simplification).
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
                    let b1 =
                        b - ei - y[i] * (ai - ai_old) * at(i, i) - y[j] * (aj - aj_old) * at(i, j);
                    let b2 =
                        b - ej - y[i] * (ai - ai_old) * at(i, j) - y[j] * (aj - aj_old) * at(j, j);
                    b = if ai > 0.0 && ai < p.c {
                        b1
                    } else if aj > 0.0 && aj < p.c {
                        b2
                    } else {
                        (b1 + b2) / 2.0
                    };
                    num_changed += 1;
                    fresh = 0..0;
                }
            }
            if num_changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
        }

        // Keep only support vectors.
        let mut support = Vec::new();
        let mut coeffs = Vec::new();
        for i in 0..m {
            if alpha[i] > 1e-9 {
                support.push(x[i].clone());
                coeffs.push(alpha[i] * y[i]);
            }
        }
        Self {
            support,
            coeffs,
            bias: b,
            kernel: p.kernel,
        }
    }

    /// The decision value `f(x)`; the sign is the predicted class.
    pub fn decision(&self, x: &[f64]) -> f64 {
        let mut s = self.bias;
        for (sv, &c) in self.support.iter().zip(&self.coeffs) {
            s += c * self.kernel.eval(sv, x);
        }
        s
    }

    /// Predicted label, +1 or −1 (ties to +1).
    pub fn predict(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Number of support vectors retained.
    // fc-check: allow(unreferenced-pub) -- reference oracle: golden_svm pins every trained machine by its support-vector count
    pub fn num_support(&self) -> usize {
        self.support.len()
    }
}

/// Sets row `t`'s term of `f` to `alpha_y`; a zero multiplier has none.
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

/// How many rows' `f` one pass over the terms computes.
const BLOCK: usize = 8;

/// `f` at rows `i..i + BLOCK`, as eight add chains in one pass over the
/// terms. Row `i + l`'s chain is `f(i + l)`'s: both halves of the Gram
/// matrix hold the same bits, so term `t`'s row at column `i + l` is row
/// `i + l`'s at column `t`. Lanes past the last row read the next row or
/// `gram`'s padding, and are not used.
fn f_block(k: &[f64], m: usize, terms: &[(usize, f64)], b: f64, i: usize) -> [f64; BLOCK] {
    let mut s = [b; BLOCK];
    for &(t, alpha_y) in terms {
        let col: &[f64; BLOCK] = k[t * m + i..][..BLOCK].try_into().expect("BLOCK wide");
        for (s, &kt) in s.iter_mut().zip(col) {
            *s += alpha_y * kt;
        }
    }
    s
}

/// The kernel matrix of `x`, row-major, and `BLOCK - 1` cells of
/// padding for `f_block`'s last rows; each pair is evaluated once.
fn gram(x: &[Vec<f64>], kernel: Kernel) -> Vec<f64> {
    let n = x.len();
    let mut vals = vec![0.0; n * n + BLOCK - 1];
    for i in 0..n {
        for j in 0..=i {
            let v = kernel.eval(&x[i], &x[j]);
            vals[i * n + j] = v;
            vals[j * n + i] = v;
        }
    }
    vals
}

/// A multi-class SVM using one-vs-one voting over all class pairs, as in
/// LibSVM. Ties break toward the smaller class id (LibSVM's behaviour).
#[derive(Debug, Clone)]
pub struct SvmClassifier {
    /// `(class_a, class_b, machine)`; machine outputs +1 for `class_a`.
    machines: Vec<(usize, usize, BinarySvm)>,
    num_classes: usize,
}

impl SvmClassifier {
    /// Trains one binary SVM per class pair.
    ///
    /// # Panics
    /// Panics when inputs are empty or contain fewer than two classes.
    pub fn train(x: &[Vec<f64>], labels: &[usize], p: SvmParams) -> Self {
        assert_eq!(x.len(), labels.len(), "x/labels length mismatch");
        let num_classes = labels.iter().max().map_or(0, |&m| m + 1);
        assert!(num_classes >= 2, "need at least two classes");
        let mut machines = Vec::new();
        for a in 0..num_classes {
            for b in (a + 1)..num_classes {
                let mut xs = Vec::new();
                let mut ys = Vec::new();
                for (xi, &li) in x.iter().zip(labels) {
                    if li == a {
                        xs.push(xi.clone());
                        ys.push(1.0);
                    } else if li == b {
                        xs.push(xi.clone());
                        ys.push(-1.0);
                    }
                }
                // A pair may be absent from a training fold; skip it —
                // voting still works with the remaining machines.
                if ys.contains(&1.0) && ys.iter().any(|&v| v == -1.0) {
                    machines.push((a, b, BinarySvm::train(&xs, &ys, p)));
                }
            }
        }
        Self {
            machines,
            num_classes,
        }
    }

    /// Predicts a class id by pairwise voting.
    pub fn predict(&self, x: &[f64]) -> usize {
        let mut votes = vec![0usize; self.num_classes];
        for (a, b, m) in &self.machines {
            if m.predict(x) > 0.0 {
                votes[*a] += 1;
            } else {
                votes[*b] += 1;
            }
        }
        votes
            .iter()
            .enumerate()
            .max_by(|l, r| l.1.cmp(r.1).then(r.0.cmp(&l.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Number of classes the classifier can emit.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn linearly_separable() -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..60 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            x.push(vec![a + 3.0, b]);
            y.push(1.0);
            x.push(vec![a - 3.0, b]);
            y.push(-1.0);
        }
        (x, y)
    }

    #[test]
    fn binary_svm_separates_linear_data() {
        let (x, y) = linearly_separable();
        let svm = BinarySvm::train(
            &x,
            &y,
            SvmParams {
                kernel: Kernel::Linear,
                ..SvmParams::rbf_default(2)
            },
        );
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(xi, &yi)| svm.predict(xi) == yi)
            .count();
        assert_eq!(correct, x.len(), "linear data should be fully separable");
        assert!(svm.num_support() < x.len(), "most points are not SVs");
    }

    #[test]
    fn rbf_svm_solves_xor() {
        // XOR is not linearly separable; RBF must nail it.
        let x = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let y = vec![-1.0, 1.0, 1.0, -1.0];
        let svm = BinarySvm::train(
            &x,
            &y,
            SvmParams {
                kernel: Kernel::Rbf { gamma: 2.0 },
                c: 100.0,
                ..SvmParams::rbf_default(2)
            },
        );
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(svm.predict(xi), yi, "point {xi:?}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = linearly_separable();
        let p = SvmParams::rbf_default(2);
        let a = BinarySvm::train(&x, &y, p);
        let b = BinarySvm::train(&x, &y, p);
        assert_eq!(a.decision(&[0.5, 0.5]), b.decision(&[0.5, 0.5]));
    }

    #[test]
    fn multiclass_three_blobs() {
        let mut rng = StdRng::seed_from_u64(3);
        let centers = [[0.0, 0.0], [4.0, 4.0], [-4.0, 4.0]];
        let mut x = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..40 {
                x.push(vec![
                    center[0] + rng.gen_range(-1.0..1.0),
                    center[1] + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        let clf = SvmClassifier::train(&x, &labels, SvmParams::rbf_default(2));
        assert_eq!(clf.num_classes(), 3);
        assert_eq!(clf.machines.len(), 3);
        let correct = x
            .iter()
            .zip(&labels)
            .filter(|(xi, &li)| clf.predict(xi) == li)
            .count();
        assert!(
            correct as f64 / x.len() as f64 > 0.95,
            "blob accuracy {correct}/{}",
            x.len()
        );
    }

    #[test]
    fn multiclass_handles_missing_pair() {
        // Class 1 absent: machines for pairs with class 1 are skipped.
        let x = vec![vec![0.0], vec![0.1], vec![5.0], vec![5.1]];
        let labels = vec![0, 0, 2, 2];
        let clf = SvmClassifier::train(
            &x,
            &labels,
            SvmParams {
                kernel: Kernel::Linear,
                ..SvmParams::rbf_default(1)
            },
        );
        assert_eq!(clf.machines.len(), 1);
        assert_eq!(clf.predict(&[0.05]), 0);
        assert_eq!(clf.predict(&[5.05]), 2);
    }

    /// The row violates KKT on the first sweep and there is no second
    /// row to pair it with.
    #[test]
    fn single_row_trains_to_no_support_vectors() {
        for y in [1.0, -1.0] {
            let svm = BinarySvm::train(&[vec![0.0]], &[y], SvmParams::rbf_default(1));
            assert_eq!(svm.num_support(), 0);
            assert_eq!(svm.decision(&[3.0]), 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "labels must be -1 or +1")]
    fn rejects_bad_labels() {
        BinarySvm::train(&[vec![0.0]], &[2.0], SvmParams::rbf_default(1));
    }
}
