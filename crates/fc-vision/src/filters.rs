//! Separable Gaussian filtering and image gradients.
//!
//! Both hot loops are expressed over the [`fc_simd`] kernel layer
//! (`conv_valid`, `conv_columns`, `halved_diff`): each pass keeps the exact
//! per-element operation order of the original scalar code, so the
//! output is **bit-identical** at every dispatch level — blurring feeds
//! the DoG detector, and a single ULP of drift there would move
//! keypoints and change signatures.

use crate::image::GrayImage;
use fc_simd::SimdLevel;

/// Builds a normalized 1-D Gaussian kernel for `sigma`, truncated at
/// ±3σ (odd length ≥ 1).
pub fn gaussian_kernel(sigma: f64) -> Vec<f64> {
    assert!(sigma > 0.0, "sigma must be positive");
    let radius = (3.0 * sigma).ceil() as usize;
    let mut k = Vec::with_capacity(2 * radius + 1);
    let denom = 2.0 * sigma * sigma;
    for i in 0..=(2 * radius) {
        let d = i as f64 - radius as f64;
        k.push((-d * d / denom).exp());
    }
    let sum: f64 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Gaussian-blurs an image with a separable convolution (clamp-to-edge).
pub fn gaussian_blur(img: &GrayImage, sigma: f64) -> GrayImage {
    gaussian_blur_with(img, sigma, fc_simd::active_level())
}

/// [`gaussian_blur`] at an explicit SIMD dispatch level (bit-identical
/// across levels; exposed for the golden dispatch-equivalence tests).
pub fn gaussian_blur_with(img: &GrayImage, sigma: f64, level: SimdLevel) -> GrayImage {
    let kernel = gaussian_kernel(sigma);
    let radius = kernel.len() / 2;
    let (w, h) = (img.width(), img.height());
    let pix = img.pixels();

    // Horizontal pass: materialize each row with its clamp-to-edge
    // padding once, then run a valid convolution over it. `padded[x+i]`
    // is exactly `get_clamped(x + i - radius, y)`, and `conv_valid`
    // accumulates taps in index order, so every output element repeats
    // the original `acc += k[i] * get_clamped(..)` chain bit-for-bit.
    let mut tmp = vec![0.0f64; w * h];
    let mut padded = vec![0.0f64; w + 2 * radius];
    for y in 0..h {
        let row = &pix[y * w..(y + 1) * w];
        padded[..radius].fill(row[0]);
        padded[radius..radius + w].copy_from_slice(row);
        padded[radius + w..].fill(row[w - 1]);
        fc_simd::conv_valid(level, &padded, &kernel, &mut tmp[y * w..(y + 1) * w]);
    }

    // Vertical pass: one column-kernel call over the whole image. Each
    // output starts at 0.0 and accumulates `k[i] * tmp[clamp(y+i-r)]`
    // in tap order — the same per-element chain as the scalar loop.
    let mut out = vec![0.0f64; w * h];
    fc_simd::conv_columns(level, &tmp, w, &kernel, &mut out);
    GrayImage::new(w, h, out)
}

/// Central-difference gradients at SIMD dispatch level `level`
/// (bit-identical across levels); returns `(dx, dy)` images.
pub fn gradients_with(img: &GrayImage, level: SimdLevel) -> (GrayImage, GrayImage) {
    let (w, h) = (img.width(), img.height());
    let pix = img.pixels();
    let mut dx = vec![0.0f64; w * h];
    let mut dy = vec![0.0f64; w * h];

    // dx: interior columns stream through `halved_diff`; the two border
    // columns keep the clamp-to-edge central difference explicitly.
    for y in 0..h {
        let row = &pix[y * w..(y + 1) * w];
        let drow = &mut dx[y * w..(y + 1) * w];
        if w >= 3 {
            fc_simd::halved_diff(level, &row[2..], &row[..w - 2], &mut drow[1..w - 1]);
        }
        drow[0] = (row[1.min(w - 1)] - row[0]) / 2.0;
        if w >= 2 {
            drow[w - 1] = (row[w - 1] - row[w - 2]) / 2.0;
        }
    }

    // dy: every row is (next - prev) / 2 over clamped row indices, which
    // is the clamp-to-edge central difference for border rows too.
    for y in 0..h {
        let yp = (y + 1).min(h - 1);
        let ym = y.saturating_sub(1);
        fc_simd::halved_diff(
            level,
            &pix[yp * w..yp * w + w],
            &pix[ym * w..ym * w + w],
            &mut dy[y * w..y * w + w],
        );
    }
    (GrayImage::new(w, h, dx), GrayImage::new(w, h, dy))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed's scalar blur, kept verbatim as the bit-identity oracle.
    fn reference_blur(img: &GrayImage, sigma: f64) -> GrayImage {
        let kernel = gaussian_kernel(sigma);
        let radius = kernel.len() / 2;
        let (w, h) = (img.width(), img.height());
        let mut tmp = vec![0.0f64; w * h];
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (i, &kv) in kernel.iter().enumerate() {
                    let xi = x as isize + i as isize - radius as isize;
                    acc += kv * img.get_clamped(xi, y as isize);
                }
                tmp[y * w + x] = acc;
            }
        }
        let tmp_img = GrayImage::new(w, h, tmp);
        let mut out = vec![0.0f64; w * h];
        for y in 0..h {
            for x in 0..w {
                let mut acc = 0.0;
                for (i, &kv) in kernel.iter().enumerate() {
                    let yi = y as isize + i as isize - radius as isize;
                    acc += kv * tmp_img.get_clamped(x as isize, yi);
                }
                out[y * w + x] = acc;
            }
        }
        GrayImage::new(w, h, out)
    }

    /// The seed's scalar gradients, kept verbatim as the oracle.
    fn reference_gradients(img: &GrayImage) -> (GrayImage, GrayImage) {
        let (w, h) = (img.width(), img.height());
        let mut dx = vec![0.0f64; w * h];
        let mut dy = vec![0.0f64; w * h];
        for y in 0..h {
            for x in 0..w {
                let (xi, yi) = (x as isize, y as isize);
                dx[y * w + x] = (img.get_clamped(xi + 1, yi) - img.get_clamped(xi - 1, yi)) / 2.0;
                dy[y * w + x] = (img.get_clamped(xi, yi + 1) - img.get_clamped(xi, yi - 1)) / 2.0;
            }
        }
        (GrayImage::new(w, h, dx), GrayImage::new(w, h, dy))
    }

    fn wavy(w: usize, h: usize) -> GrayImage {
        GrayImage::new(
            w,
            h,
            (0..w * h).map(|i| (i as f64 * 0.37).sin().abs()).collect(),
        )
    }

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        for sigma in [0.5, 1.0, 1.6, 3.0] {
            let k = gaussian_kernel(sigma);
            assert_eq!(k.len() % 2, 1);
            assert!((k.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            for i in 0..k.len() / 2 {
                assert!((k[i] - k[k.len() - 1 - i]).abs() < 1e-12);
            }
            let mid = k.len() / 2;
            assert!(k[mid] >= k[0], "peak at center");
        }
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = GrayImage::filled(8, 8, 0.42);
        let b = gaussian_blur(&img, 1.5);
        assert!(b.pixels().iter().all(|&v| (v - 0.42).abs() < 1e-12));
    }

    #[test]
    fn blur_smooths_an_impulse() {
        let mut img = GrayImage::filled(9, 9, 0.0);
        img.set(4, 4, 1.0);
        let b = gaussian_blur(&img, 1.0);
        // Peak stays at the center but is reduced; energy is conserved
        // away from borders.
        assert!(b.get(4, 4) < 1.0);
        assert!(b.get(4, 4) > b.get(0, 0));
        let total: f64 = b.pixels().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn blur_is_monotone_in_sigma() {
        let mut img = GrayImage::filled(15, 15, 0.0);
        img.set(7, 7, 1.0);
        let s1 = gaussian_blur(&img, 0.8).get(7, 7);
        let s2 = gaussian_blur(&img, 1.6).get(7, 7);
        assert!(s1 > s2, "more blur → flatter peak");
    }

    #[test]
    fn gradients_of_ramp() {
        // Horizontal ramp: dx == slope, dy == 0 (away from edges).
        let img = GrayImage::new(5, 4, (0..20).map(|i| (i % 5) as f64 * 0.1).collect());
        let (dx, dy) = gradients_with(&img, fc_simd::active_level());
        for y in 0..4 {
            for x in 1..4 {
                assert!((dx.get(x, y) - 0.1).abs() < 1e-12);
                assert!(dy.get(x, y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn blur_is_bit_identical_to_reference_at_every_level() {
        for (w, h) in [(1, 1), (2, 3), (7, 5), (16, 16), (33, 9)] {
            let img = wavy(w, h);
            for sigma in [0.6, 1.0, 1.6] {
                let want = reference_blur(&img, sigma);
                for level in fc_simd::available_levels() {
                    let got = gaussian_blur_with(&img, sigma, level);
                    for (a, b) in got.pixels().iter().zip(want.pixels()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "blur {w}x{h} sigma {sigma} differs at {level:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gradients_are_bit_identical_to_reference_at_every_level() {
        for (w, h) in [(1, 1), (1, 4), (4, 1), (2, 2), (7, 5), (32, 17)] {
            let img = wavy(w, h);
            let (wdx, wdy) = reference_gradients(&img);
            for level in fc_simd::available_levels() {
                let (gdx, gdy) = gradients_with(&img, level);
                for (a, b) in gdx.pixels().iter().zip(wdx.pixels()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "dx {w}x{h} differs at {level:?}");
                }
                for (a, b) in gdy.pixels().iter().zip(wdy.pixels()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "dy {w}x{h} differs at {level:?}");
                }
            }
        }
    }
}
