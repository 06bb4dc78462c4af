//! Difference-of-Gaussians keypoint detection (SIFT's detector).
//!
//! A keypoint is a local extremum across space *and* scale in the DoG
//! pyramid — the "distinct landmarks" (clusters of orange snow pixels)
//! the paper's SB recommender keys on.

use crate::filters::gaussian_blur;
use crate::image::GrayImage;

/// Detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorParams {
    /// Number of octaves (each halves resolution). Clamped to what the
    /// image size allows.
    pub octaves: usize,
    /// Blur levels per octave (DoG layers = levels − 1).
    pub scales_per_octave: usize,
    /// Base blur sigma.
    pub sigma: f64,
    /// Minimum absolute DoG response for a keypoint (contrast threshold).
    pub contrast_threshold: f64,
}

impl Default for DetectorParams {
    fn default() -> Self {
        Self {
            octaves: 3,
            scales_per_octave: 4,
            sigma: 1.6,
            contrast_threshold: 0.01,
        }
    }
}

/// A detected keypoint in original-image coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// X in original-image pixels.
    pub x: f64,
    /// Y in original-image pixels.
    pub y: f64,
    /// Characteristic scale (sigma in original-image pixels).
    pub scale: f64,
    /// Signed DoG response (contrast).
    pub response: f64,
}

/// Detects DoG extrema. Returns keypoints sorted by |response| descending
/// so callers can cap the count deterministically.
pub fn detect_keypoints(img: &GrayImage, p: &DetectorParams) -> Vec<Keypoint> {
    let mut keypoints = Vec::new();
    let mut octave_img = img.clone();
    let mut octave_factor = 1.0f64;

    for _octave in 0..p.octaves {
        if octave_img.width() < 8 || octave_img.height() < 8 {
            break;
        }
        // Blur stack for this octave.
        let k = 2f64.powf(1.0 / p.scales_per_octave as f64);
        let mut blurred = Vec::with_capacity(p.scales_per_octave + 1);
        for s in 0..=p.scales_per_octave {
            let sigma = p.sigma * k.powi(s as i32);
            blurred.push(gaussian_blur(&octave_img, sigma));
        }
        // DoG layers.
        let dog: Vec<GrayImage> = blurred.windows(2).map(|w| w[1].diff(&w[0])).collect();

        // 3x3x3 extrema in the interior DoG layers.
        for li in 1..dog.len().saturating_sub(1) {
            let (w, h) = (dog[li].width(), dog[li].height());
            for y in 1..h - 1 {
                for x in 1..w - 1 {
                    let v = dog[li].get(x, y);
                    if v.abs() < p.contrast_threshold {
                        continue;
                    }
                    if is_extremum(&dog[li - 1..=li + 1], x, y, v) {
                        let sigma = p.sigma * k.powi(li as i32) * octave_factor;
                        keypoints.push(Keypoint {
                            x: x as f64 * octave_factor,
                            y: y as f64 * octave_factor,
                            scale: sigma,
                            response: v,
                        });
                    }
                }
            }
        }

        // Next octave: downsample the most-blurred level.
        octave_img = blurred
            .last()
            .expect("at least one blur level")
            .downsample2();
        octave_factor *= 2.0;
    }

    keypoints.sort_by(|a, b| {
        b.response
            .abs()
            .partial_cmp(&a.response.abs())
            .expect("finite responses")
            .then(a.y.partial_cmp(&b.y).expect("finite"))
            .then(a.x.partial_cmp(&b.x).expect("finite"))
    });
    keypoints
}

/// Whether `v` at `(x, y)` of the middle layer is a strict extremum of its
/// 3×3×3 neighbourhood.
fn is_extremum(layers: &[GrayImage], x: usize, y: usize, v: f64) -> bool {
    let mut is_max = true;
    let mut is_min = true;
    for layer in layers {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                let n = layer.get_clamped(x as isize + dx, y as isize + dy);
                // Skip the center sample itself.
                if std::ptr::eq(layer, &layers[1]) && dx == 0 && dy == 0 {
                    continue;
                }
                if n >= v {
                    is_max = false;
                }
                if n <= v {
                    is_min = false;
                }
                if !is_max && !is_min {
                    return false;
                }
            }
        }
    }
    is_max || is_min
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An image with a bright Gaussian blob at a known location.
    fn blob_image(w: usize, h: usize, cx: f64, cy: f64, radius: f64) -> GrayImage {
        let mut px = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                px.push((-d2 / (2.0 * radius * radius)).exp());
            }
        }
        GrayImage::new(w, h, px)
    }

    #[test]
    fn blank_image_has_no_keypoints() {
        let img = GrayImage::new(32, 32, vec![0.5; 1024]);
        assert!(detect_keypoints(&img, &DetectorParams::default()).is_empty());
    }

    #[test]
    fn detects_a_blob_near_its_center() {
        let img = blob_image(48, 48, 24.0, 24.0, 3.0);
        let kps = detect_keypoints(&img, &DetectorParams::default());
        assert!(!kps.is_empty(), "blob should produce keypoints");
        let best = kps[0];
        assert!(
            (best.x - 24.0).abs() <= 4.0 && (best.y - 24.0).abs() <= 4.0,
            "strongest keypoint at ({}, {})",
            best.x,
            best.y
        );
    }

    #[test]
    fn multiple_blobs_yield_multiple_sites() {
        let one = blob_image(64, 64, 16.0, 16.0, 2.5);
        let other = blob_image(64, 64, 48.0, 48.0, 2.5);
        let px = one
            .pixels()
            .iter()
            .zip(other.pixels())
            .map(|(a, b)| a.max(*b))
            .collect();
        let img = GrayImage::new(64, 64, px);
        let kps = detect_keypoints(&img, &DetectorParams::default());
        let near =
            |kp: &Keypoint, cx: f64, cy: f64| (kp.x - cx).abs() <= 5.0 && (kp.y - cy).abs() <= 5.0;
        assert!(kps.iter().any(|k| near(k, 16.0, 16.0)), "first blob found");
        assert!(kps.iter().any(|k| near(k, 48.0, 48.0)), "second blob found");
    }

    #[test]
    fn results_sorted_by_response() {
        let img = blob_image(48, 48, 24.0, 24.0, 3.0);
        let kps = detect_keypoints(&img, &DetectorParams::default());
        for w in kps.windows(2) {
            assert!(w[0].response.abs() >= w[1].response.abs());
        }
    }

    #[test]
    fn contrast_threshold_filters_weak_blobs() {
        let mut weak = blob_image(48, 48, 24.0, 24.0, 3.0);
        // Scale the blob down to 3% contrast.
        let scaled: Vec<f64> = weak.pixels().iter().map(|v| v * 0.03).collect();
        weak = GrayImage::new(48, 48, scaled);
        let strict = DetectorParams {
            contrast_threshold: 0.05,
            ..DetectorParams::default()
        };
        assert!(detect_keypoints(&weak, &strict).is_empty());
        let lenient = DetectorParams {
            contrast_threshold: 0.001,
            ..DetectorParams::default()
        };
        assert!(!detect_keypoints(&weak, &lenient).is_empty());
    }

    #[test]
    fn tiny_images_do_not_crash() {
        let img = GrayImage::new(4, 4, vec![0.1; 16]);
        assert!(detect_keypoints(&img, &DetectorParams::default()).is_empty());
    }
}
