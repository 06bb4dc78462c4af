//! Dense SIFT: descriptors on a regular grid.
//!
//! "denseSIFT … matches entire images, whereas SIFT only matches small
//! regions" (§5.4.2) — instead of detecting keypoints, descriptors are
//! extracted at every grid site, so the signature encodes global layout.

use crate::descriptor::{describe_patch_on, Descriptor, GradientField, WeightTables};
use crate::image::GrayImage;

/// Extracts descriptors on a regular grid with spacing `step` pixels and
/// patch radius `radius`. Grid sites whose patch has no gradient energy
/// (flat regions) are skipped.
pub fn dense_descriptors(img: &GrayImage, step: usize, radius: f64) -> Vec<Descriptor> {
    dense_descriptors_on(&GradientField::new(img), step, radius)
}

/// [`dense_descriptors`] over a prebuilt [`GradientField`], so callers
/// that also describe detected keypoints on the same image share one
/// gradient pass. Grid sites have integer centers and a single radius,
/// so every patch reuses one Gaussian weight table.
pub fn dense_descriptors_on(field: &GradientField, step: usize, radius: f64) -> Vec<Descriptor> {
    assert!(step >= 1, "grid step must be >= 1");
    let mut tables = WeightTables::default();
    let mut out = Vec::new();
    let mut y = step / 2;
    while y < field.height() {
        let mut x = step / 2;
        while x < field.width() {
            if let Some(d) = describe_patch_on(field, x as f64, y as f64, radius, &mut tables) {
                out.push(d);
            }
            x += step;
        }
        y += step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{describe_patch, DESCRIPTOR_DIM};
    use crate::filters::gradients_with;

    #[test]
    fn grid_covers_image() {
        let img = GrayImage::new(
            32,
            32,
            (0..32 * 32)
                .map(|i| ((i % 32) as f64 / 32.0).sin().abs())
                .collect(),
        );
        let descs = dense_descriptors(&img, 8, 6.0);
        // 4x4 grid sites, all with gradient energy.
        assert_eq!(descs.len(), 16);
        assert!(descs.iter().all(|d| d.len() == DESCRIPTOR_DIM));
    }

    #[test]
    fn flat_image_yields_no_descriptors() {
        let img = GrayImage::filled(32, 32, 0.7);
        assert!(dense_descriptors(&img, 8, 6.0).is_empty());
    }

    #[test]
    fn finer_step_yields_more_descriptors() {
        let img = GrayImage::new(
            32,
            32,
            (0..32 * 32)
                .map(|i| (i as f64 * 0.37).sin().abs())
                .collect(),
        );
        let coarse = dense_descriptors(&img, 16, 6.0).len();
        let fine = dense_descriptors(&img, 4, 6.0).len();
        assert!(fine > coarse);
    }

    #[test]
    fn dense_grid_is_bit_identical_to_naive_patches_at_every_level() {
        let img = GrayImage::new(
            33,
            27,
            (0..33 * 27)
                .map(|i| (i as f64 * 0.53).sin().abs())
                .collect(),
        );
        // Naive reference: per-site describe_patch over the gradient
        // images, exactly as the seed implementation did.
        let (dx, dy) = gradients_with(&img, fc_simd::active_level());
        let mut want = Vec::new();
        let mut y = 8 / 2;
        while y < img.height() {
            let mut x = 8 / 2;
            while x < img.width() {
                if let Some(d) = describe_patch(&dx, &dy, x as f64, y as f64, 6.0) {
                    want.push(d);
                }
                x += 8;
            }
            y += 8;
        }
        for level in fc_simd::available_levels() {
            let field = GradientField::with_level(&img, level);
            let got = dense_descriptors_on(&field, 8, 6.0);
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                for (p, q) in a.iter().zip(b) {
                    assert_eq!(
                        p.to_bits(),
                        q.to_bits(),
                        "dense descriptor differs at {level:?}"
                    );
                }
            }
        }
    }
}
