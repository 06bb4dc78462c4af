//! Bag-of-visual-words: cluster descriptors into a codebook, then
//! signature = histogram of a tile's descriptors over the codebook
//! (Table 2: "SIFT: histogram built from clustered SIFT descriptors").

use crate::descriptor::Descriptor;
use fc_ml::KMeans;

/// A visual-word codebook fitted over a descriptor corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    codebook: KMeans,
}

impl Vocabulary {
    /// Fits `k` visual words over the corpus (k-means++, deterministic
    /// under `seed`).
    ///
    /// # Panics
    /// Panics on an empty corpus.
    pub fn train(corpus: &[Descriptor], k: usize, seed: u64) -> Self {
        assert!(
            !corpus.is_empty(),
            "cannot train a vocabulary on no descriptors"
        );
        Self {
            codebook: KMeans::fit(corpus, k, 30, seed),
        }
    }

    /// Number of visual words.
    pub fn size(&self) -> usize {
        self.codebook.k()
    }

    /// The visual words (the fitted k-means centroids).
    pub fn centroids(&self) -> &[Vec<f64>] {
        self.codebook.centroids()
    }

    /// Normalized histogram of `descriptors` over the visual words — the
    /// per-tile SIFT/denseSIFT signature. Empty input → zero histogram
    /// (a featureless tile).
    pub fn histogram(&self, descriptors: &[Descriptor]) -> Vec<f64> {
        self.codebook.histogram(descriptors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::DESCRIPTOR_DIM;

    /// Synthetic descriptor concentrated on one orientation bin.
    fn fake_descriptor(bin: usize) -> Descriptor {
        let mut d = vec![0.0; DESCRIPTOR_DIM];
        for cell in 0..16 {
            d[cell * 8 + bin] = 0.2;
        }
        let n: f64 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
        d.iter_mut().for_each(|v| *v /= n);
        d
    }

    #[test]
    fn vocabulary_separates_descriptor_families() {
        let mut corpus = Vec::new();
        for _ in 0..20 {
            corpus.push(fake_descriptor(0));
            corpus.push(fake_descriptor(4));
        }
        let vocab = Vocabulary::train(&corpus, 2, 7);
        assert_eq!(vocab.size(), 2);
        assert_ne!(
            vocab.histogram(&[fake_descriptor(0)]),
            vocab.histogram(&[fake_descriptor(4)])
        );
    }

    #[test]
    fn histogram_reflects_composition() {
        let mut corpus = Vec::new();
        for _ in 0..20 {
            corpus.push(fake_descriptor(0));
            corpus.push(fake_descriptor(4));
        }
        let vocab = Vocabulary::train(&corpus, 2, 7);
        let bag = vec![
            fake_descriptor(0),
            fake_descriptor(0),
            fake_descriptor(0),
            fake_descriptor(4),
        ];
        let h = vocab.histogram(&bag);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let hi = h.iter().cloned().fold(f64::MIN, f64::max);
        assert!((hi - 0.75).abs() < 1e-12);
        assert_eq!(vocab.histogram(&[]), vec![0.0, 0.0]);
    }
}
