//! Lloyd's k-means with k-means++ seeding.
//!
//! Used by the SIFT/denseSIFT signatures: descriptors from the tile corpus
//! are clustered into visual words, and each tile's signature is the
//! histogram of its descriptors over those words ("SIFT: histogram built
//! from clustered SIFT descriptors", paper Table 2).
//!
//! The two nearest-centroid hot loops — Lloyd assignment inside
//! [`KMeans::fit`] and the per-point quantization behind
//! [`KMeans::histogram`] — run on [`fc_simd::Codebook::nearest`], which
//! returns exactly the index of the scalar `Σ (x−c)²` scan with its
//! strict first-minimum-wins tie rule (certified from dot products where
//! an error bound allows, the exact kernel everywhere else). Fitted
//! models and assignments are therefore **bit-identical** to the scalar
//! path at every dispatch level. The k-means++ seeding pass stays scalar
//! (it mixes distance updates with RNG draws and runs once).

use fc_simd::Codebook;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fitted k-means model (the visual-word codebook).
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    centroids: Vec<Vec<f64>>,
    /// `centroids` laid out for [`KMeans::histogram`]'s search.
    codebook: Codebook,
}

impl KMeans {
    /// Fits `k` clusters to `data` with at most `max_iters` Lloyd
    /// iterations, deterministic under `seed`. If `data` has fewer than
    /// `k` points, the number of clusters is reduced to `data.len()`.
    ///
    /// # Panics
    /// Panics on empty data, `k == 0`, inconsistent arity, or a point
    /// with a NaN or infinite coordinate (the message names its index).
    pub fn fit(data: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "k-means needs data");
        assert!(k > 0, "k must be positive");
        let dim = data[0].len();
        assert!(
            data.iter().all(|d| d.len() == dim),
            "inconsistent point arity"
        );
        if let Some(i) = data.iter().position(|p| !p.iter().all(|v| v.is_finite())) {
            panic!("k-means point {i} has a non-finite coordinate");
        }
        let k = k.min(data.len());
        let mut rng = StdRng::seed_from_u64(seed);

        // k-means++ seeding.
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(data[rng.gen_range(0..data.len())].clone());
        let mut d2: Vec<f64> = data.iter().map(|p| sq_dist(p, &centroids[0])).collect();
        while centroids.len() < k {
            let total: f64 = d2.iter().sum();
            let next = if total <= f64::EPSILON {
                // All points coincide with some centroid; pick any.
                rng.gen_range(0..data.len())
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut idx = 0;
                for (i, &w) in d2.iter().enumerate() {
                    if target < w {
                        idx = i;
                        break;
                    }
                    target -= w;
                    idx = i;
                }
                idx
            };
            centroids.push(data[next].clone());
            for (i, p) in data.iter().enumerate() {
                d2[i] = d2[i].min(sq_dist(p, centroids.last().expect("just pushed")));
            }
        }

        // Lloyd iterations. Centroids only move between iterations, so
        // each iteration lays them out once and streams every point
        // through the nearest-centroid search, adding it to its
        // cluster's sum in the same pass: each sum still runs in point
        // order, as a separate pass would add them.
        let level = fc_simd::active_level();
        let norms: Vec<f64> = data.iter().map(|p| fc_simd::norm(p)).collect();
        let mut assignment = vec![0usize; data.len()];
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for _ in 0..max_iters {
            let codebook = Codebook::new(&centroids);
            sums.iter_mut().for_each(|s| s.fill(0.0));
            counts.fill(0);
            let mut changed = false;
            for (i, p) in data.iter().enumerate() {
                let best = codebook.nearest(level, p, norms[i]);
                if best != assignment[i] {
                    assignment[i] = best;
                    changed = true;
                }
                counts[best] += 1;
                for (s, &v) in sums[best].iter_mut().zip(p) {
                    *s += v;
                }
            }
            if !changed {
                break;
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    for (cv, &sv) in c.iter_mut().zip(sum) {
                        *cv = sv / count as f64;
                    }
                }
                // Empty clusters keep their previous centroid.
            }
        }
        Self {
            codebook: Codebook::new(&centroids),
            centroids,
        }
    }

    /// The fitted centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Number of clusters actually fitted.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Builds the normalized histogram of cluster assignments for a bag
    /// of points (the BoVW signature). Returns all-zeros for an empty
    /// bag.
    pub fn histogram(&self, points: &[Vec<f64>]) -> Vec<f64> {
        let mut h = vec![0.0f64; self.k()];
        if points.is_empty() {
            return h;
        }
        let level = fc_simd::active_level();
        let dim = self.centroids[0].len();
        for p in points {
            // Arity-mismatched points keep the scalar path so the
            // truncating-zip semantics of `sq_dist` are preserved.
            let best = if p.len() == dim {
                self.codebook.nearest(level, p, fc_simd::norm(p))
            } else {
                nearest(&self.centroids, p).0
            };
            h[best] += 1.0;
        }
        let total: f64 = h.iter().sum();
        if total > 0.0 {
            for v in &mut h {
                *v /= total;
            }
        }
        h
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(centroids: &[Vec<f64>], p: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KMeans {
        /// Index of the nearest centroid.
        fn assign(&self, point: &[f64]) -> usize {
            nearest(&self.centroids, point).0
        }
    }

    fn blobs() -> Vec<Vec<f64>> {
        let mut data = Vec::new();
        for i in 0..30 {
            let jitter = (i % 5) as f64 * 0.01;
            data.push(vec![0.0 + jitter, 0.0]);
            data.push(vec![10.0 + jitter, 10.0]);
            data.push(vec![-10.0 - jitter, 10.0]);
        }
        data
    }

    #[test]
    fn recovers_three_blobs() {
        let km = KMeans::fit(&blobs(), 3, 50, 42);
        assert_eq!(km.k(), 3);
        // All three blob anchors land in distinct clusters.
        let a = km.assign(&[0.0, 0.0]);
        let b = km.assign(&[10.0, 10.0]);
        let c = km.assign(&[-10.0, 10.0]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = KMeans::fit(&blobs(), 3, 50, 1);
        let b = KMeans::fit(&blobs(), 3, 50, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn k_larger_than_data_is_reduced() {
        let data = vec![vec![0.0], vec![1.0]];
        let km = KMeans::fit(&data, 10, 10, 0);
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn histogram_normalized() {
        let km = KMeans::fit(&blobs(), 3, 50, 42);
        let bag = vec![
            vec![0.1, 0.0],
            vec![0.2, 0.1],
            vec![10.0, 10.1],
            vec![9.9, 9.8],
        ];
        let h = km.histogram(&bag);
        assert_eq!(h.len(), 3);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(h.iter().any(|&v| (v - 0.5).abs() < 1e-12));
        // Empty bag → zero histogram.
        assert_eq!(km.histogram(&[]), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn identical_points_dont_crash() {
        let data = vec![vec![1.0, 1.0]; 20];
        let km = KMeans::fit(&data, 4, 10, 9);
        assert_eq!(km.assign(&[1.0, 1.0]), km.assign(&[1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "k-means point 2 has a non-finite coordinate")]
    fn non_finite_point_is_rejected_by_index() {
        let data = vec![vec![0.0, 1.0], vec![1.0, 0.0], vec![f64::NAN, 0.5]];
        KMeans::fit(&data, 2, 10, 3);
    }

    /// The seed's fully-scalar fit, kept verbatim as the bit-identity
    /// oracle for the SIMD Lloyd assignment.
    fn reference_fit(data: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) -> Vec<Vec<f64>> {
        let dim = data[0].len();
        let k = k.min(data.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(data[rng.gen_range(0..data.len())].clone());
        let mut d2: Vec<f64> = data.iter().map(|p| sq_dist(p, &centroids[0])).collect();
        while centroids.len() < k {
            let total: f64 = d2.iter().sum();
            let next = if total <= f64::EPSILON {
                rng.gen_range(0..data.len())
            } else {
                let mut target = rng.gen_range(0.0..total);
                let mut idx = 0;
                for (i, &w) in d2.iter().enumerate() {
                    if target < w {
                        idx = i;
                        break;
                    }
                    target -= w;
                    idx = i;
                }
                idx
            };
            centroids.push(data[next].clone());
            for (i, p) in data.iter().enumerate() {
                d2[i] = d2[i].min(sq_dist(p, centroids.last().unwrap()));
            }
        }
        let mut assignment = vec![0usize; data.len()];
        for _ in 0..max_iters {
            let mut changed = false;
            for (i, p) in data.iter().enumerate() {
                let best = nearest(&centroids, p).0;
                if best != assignment[i] {
                    assignment[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            let mut sums = vec![vec![0.0f64; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (p, &a) in data.iter().zip(&assignment) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
                if count > 0 {
                    for (cv, &sv) in c.iter_mut().zip(sum) {
                        *cv = sv / count as f64;
                    }
                }
            }
        }
        centroids
    }

    #[test]
    fn simd_fit_and_histogram_match_scalar_reference() {
        // Odd dimensionality (not a multiple of the 4-lane groups) and a
        // centroid count with a ragged last group.
        let dim = 7;
        let data: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f64 * 0.61).sin() + (i % 5) as f64)
                    .collect()
            })
            .collect();
        for k in [1, 3, 5] {
            let km = KMeans::fit(&data, k, 30, 11);
            let want = reference_fit(&data, k, 30, 11);
            assert_eq!(km.centroids(), &want[..], "fit differs for k={k}");
            // Histogram quantization agrees with scalar nearest exactly.
            let mut href = vec![0.0f64; km.k()];
            for p in &data {
                href[nearest(&want, p).0] += 1.0;
            }
            let total: f64 = href.iter().sum();
            for v in &mut href {
                *v /= total;
            }
            assert_eq!(km.histogram(&data), href, "histogram differs for k={k}");
        }
        // Arity-mismatched points fall back to the truncating scalar path.
        let km = KMeans::fit(&data, 3, 30, 11);
        let short = vec![vec![0.5; 3]];
        assert_eq!(km.histogram(&short).len(), km.k());
    }
}
