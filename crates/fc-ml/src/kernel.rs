//! SVM kernels.

/// A positive-definite kernel over dense feature vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// The dot product `<a, b>`.
    Linear,
    /// The radial basis function `exp(-gamma * ||a - b||^2)` — the kernel
    /// the paper uses for its phase classifier.
    Rbf {
        /// Width parameter; LibSVM's default is `1 / num_features`.
        gamma: f64,
    },
}

impl Kernel {
    /// RBF with LibSVM's default gamma for `num_features` features.
    pub(crate) fn rbf_default(num_features: usize) -> Self {
        Kernel::Rbf {
            gamma: 1.0 / num_features.max(1) as f64,
        }
    }

    /// Evaluates the kernel.
    ///
    /// # Panics
    /// Panics (debug) on length mismatch.
    #[inline]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(a.len(), b.len(), "kernel arity mismatch");
        match *self {
            Kernel::Linear => a.iter().zip(b).map(|(x, y)| x * y).sum(),
            Kernel::Rbf { gamma } => {
                let d2: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
                (-gamma * d2).exp()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert_eq!(k.eval(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[2.0, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn rbf_default_gamma() {
        assert_eq!(Kernel::rbf_default(4), Kernel::Rbf { gamma: 0.25 });
        assert_eq!(Kernel::rbf_default(0), Kernel::Rbf { gamma: 1.0 });
    }

    #[test]
    fn kernels_are_symmetric() {
        for k in [Kernel::Linear, Kernel::Rbf { gamma: 0.3 }] {
            let a = [0.5, -1.0, 2.0];
            let b = [1.5, 0.25, -0.5];
            assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
        }
    }
}
