//! SIFT-style 128-d gradient-orientation descriptors.
//!
//! The hot path is [`GradientField`]: gradient magnitudes and
//! orientation bins are computed once per image (gradients through the
//! [`fc_simd`] kernel layer, orientation as the octant of the gradient,
//! which equals the per-patch code's `atan2`/binning formula away from
//! the octant edges and falls back to it near them), and the Gaussian
//! spatial weight is looked up from a per-radius table whenever the
//! patch center has integer coordinates — which covers every detected
//! keypoint and every dense grid site. Both shortcuts are exact, so
//! descriptors stay **bit-identical** to the naive
//! [`describe_patch`] at every SIMD dispatch level.

use std::collections::HashMap;
use std::f64::consts::TAU;

use crate::filters::gradients_with;
use crate::image::GrayImage;
use crate::keypoints::Keypoint;
use fc_simd::SimdLevel;

/// Spatial grid side (4×4 cells).
const GRID: usize = 4;
/// Orientation bins per cell.
const ORI_BINS: usize = 8;
/// Descriptor dimensionality: 4 × 4 × 8 = 128, as in SIFT.
pub const DESCRIPTOR_DIM: usize = GRID * GRID * ORI_BINS;

/// A dense descriptor vector (L2-normalized, SIFT clip at 0.2).
pub(crate) type Descriptor = Vec<f64>;

/// Precomputed gradient magnitudes and orientation bins for one image.
///
/// Every descriptor drawn from the same image shares this field, so the
/// per-pixel `sqrt`/`atan2` work is paid once instead of once per
/// overlapping patch. Magnitudes are `(gx·gx + gy·gy).sqrt()`, the
/// expression of [`describe_patch`];
/// orientation bins equal the binning expression of [`describe_patch`]
/// (see `orientation_bin`) and are only evaluated where the magnitude
/// does not rule the pixel out.
#[derive(Debug, Clone)]
pub struct GradientField {
    width: usize,
    height: usize,
    mag: Vec<f64>,
    bin: Vec<u8>,
}

impl GradientField {
    /// Builds the field at the process-wide SIMD dispatch level.
    pub fn new(img: &GrayImage) -> Self {
        Self::with_level(img, fc_simd::active_level())
    }

    /// Builds the field at an explicit dispatch level (bit-identical
    /// across levels; exposed for the golden dispatch tests).
    pub(crate) fn with_level(img: &GrayImage, level: SimdLevel) -> Self {
        let (dx, dy) = gradients_with(img, level);
        let (gx, gy) = (dx.pixels(), dy.pixels());
        let mag: Vec<f64> = gx
            .iter()
            .zip(gy)
            .map(|(&x, &y)| (x * x + y * y).sqrt())
            .collect();
        let mut bin = vec![0u8; gx.len()];
        for (i, b) in bin.iter_mut().enumerate() {
            // Pixels with mag <= 0.0 are skipped by every descriptor, so
            // their bin is never read; `!(<= 0.0)` (not `> 0.0`) keeps a
            // NaN magnitude on the same path as the per-patch code.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(mag[i] <= 0.0) {
                *b = orientation_bin(gx[i], gy[i]);
            }
        }
        Self {
            width: img.width(),
            height: img.height(),
            mag,
            bin,
        }
    }

    /// Image width in pixels.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// `(magnitude, orientation bin)` with clamp-to-edge semantics,
    /// matching [`GrayImage::get_clamped`] on the gradient images.
    #[inline]
    fn at(&self, x: isize, y: isize) -> (f64, u8) {
        let xi = x.clamp(0, self.width as isize - 1) as usize;
        let yi = y.clamp(0, self.height as isize - 1) as usize;
        let idx = yi * self.width + xi;
        (self.mag[idx], self.bin[idx])
    }
}

/// The orientation bin of [`describe_patch`]: `atan2(gy, gx)` taken into
/// `[0, 2π)` and cut into [`ORI_BINS`] equal sectors.
fn atan2_bin(gx: f64, gy: f64) -> u8 {
    let theta = gy.atan2(gx).rem_euclid(TAU);
    (((theta / TAU) * ORI_BINS as f64).floor() as usize % ORI_BINS) as u8
}

/// [`atan2_bin`] from comparisons. The eight bins are the octants, so
/// the signs of `gx` and `gy` give the quadrant and `|gy| > |gx|` the
/// half of it. That is exact whenever the gradient is more than a
/// relative `1e-9` away from an axis and from a diagonal: `atan2`,
/// `rem_euclid`, `/ 2π` and `· 8` together err by a few ulp (~1e-15),
/// far inside that distance from a bin edge. Everything else — the axes
/// and diagonals themselves, ±0, NaN and ±inf (the tolerance tests are
/// then false) — takes [`atan2_bin`].
#[inline]
fn orientation_bin(gx: f64, gy: f64) -> u8 {
    let (ax, ay) = (gx.abs(), gy.abs());
    let (lo, hi) = if ax < ay { (ax, ay) } else { (ay, ax) };
    let tol = 1e-9 * hi;
    if lo > tol && (ax - ay).abs() > tol {
        let (sx, sy) = (u8::from(gx < 0.0), u8::from(gy < 0.0));
        // Quadrant q = 2·sy + (sx ^ sy) counter-clockwise from +x; the
        // steeper half comes second in quadrants 0 and 2, first in 1
        // and 3.
        let steep = u8::from(ay > ax);
        4 * sy + 2 * (sx ^ sy) + (steep ^ sx ^ sy)
    } else {
        atan2_bin(gx, gy)
    }
}

/// Per-radius Gaussian spatial-weight tables for integer-centred
/// patches.
///
/// For an integer center, `(px - cx)² + (py - cy)²` is an exact small
/// integer `k`, so `exp(-(k / r²))` can be tabulated per distinct
/// radius without changing a single bit of the weight. Reuse one value
/// across the descriptor calls of a batch ([`describe_keypoints_on`],
/// [`crate::dense_descriptors_on`]) to amortize the `exp` calls.
#[derive(Debug, Default)]
pub(crate) struct WeightTables {
    tables: HashMap<u64, Vec<f64>>,
}

impl WeightTables {
    /// The weight table for clamped patch radius `r`, indexed by the
    /// integer squared pixel distance `k`: `table[k] = exp(-(k / r²))`.
    fn get(&mut self, r: f64) -> &[f64] {
        self.tables.entry(r.to_bits()).or_insert_with(|| {
            // |px - cx| <= ceil(r) inside the patch window, so k is at
            // most 2·ceil(r)².
            let reach = r.ceil() as usize + 1;
            let kmax = 2 * reach * reach;
            (0..=kmax)
                .map(|k| (-((k as f64) / (r * r))).exp())
                .collect()
        })
    }
}

/// Computes a descriptor for the square patch of half-width `radius`
/// centred at `(cx, cy)`: gradients are pooled into a 4×4 spatial grid of
/// 8-bin orientation histograms, L2-normalized, clipped at 0.2, and
/// renormalized (SIFT's illumination normalization). Returns `None` for
/// degenerate patches (zero gradient energy).
// fc-check: allow(unreferenced-pub) -- reference oracle: describe_patch_on and the dense grid are checked against it bit for bit
pub fn describe_patch(
    dx: &GrayImage,
    dy: &GrayImage,
    cx: f64,
    cy: f64,
    radius: f64,
) -> Option<Descriptor> {
    let mut hist = vec![0.0f64; DESCRIPTOR_DIM];
    let r = radius.max(2.0);
    let lo_x = (cx - r).floor() as isize;
    let hi_x = (cx + r).ceil() as isize;
    let lo_y = (cy - r).floor() as isize;
    let hi_y = (cy + r).ceil() as isize;
    let cell = 2.0 * r / GRID as f64;

    for py in lo_y..=hi_y {
        for px in lo_x..=hi_x {
            let gx = dx.get_clamped(px, py);
            let gy = dy.get_clamped(px, py);
            let mag = (gx * gx + gy * gy).sqrt();
            if mag <= 0.0 {
                continue;
            }
            // Spatial cell (clamped into the grid).
            let u = ((px as f64 - (cx - r)) / cell).floor();
            let v = ((py as f64 - (cy - r)) / cell).floor();
            if u < 0.0 || v < 0.0 {
                continue;
            }
            let (u, v) = (u as usize, v as usize);
            if u >= GRID || v >= GRID {
                continue;
            }
            // Orientation bin in [0, 2π).
            let bin = atan2_bin(gx, gy) as usize;
            // Gaussian spatial weighting centred on the keypoint.
            let d2 = ((px as f64 - cx).powi(2) + (py as f64 - cy).powi(2)) / (r * r);
            let weight = (-d2).exp();
            hist[(v * GRID + u) * ORI_BINS + bin] += mag * weight;
        }
    }

    normalize_sift(&mut hist).then_some(hist)
}

/// [`describe_patch`] over a shared [`GradientField`], reusing the
/// spatial-weight `tables` across calls. Bit-identical to the naive
/// per-patch path for every center (integer centers hit the weight
/// table; others recompute the weight exactly as [`describe_patch`]
/// does).
pub(crate) fn describe_patch_on(
    field: &GradientField,
    cx: f64,
    cy: f64,
    radius: f64,
    tables: &mut WeightTables,
) -> Option<Descriptor> {
    let mut hist = vec![0.0f64; DESCRIPTOR_DIM];
    let r = radius.max(2.0);
    let lo_x = (cx - r).floor() as isize;
    let hi_x = (cx + r).ceil() as isize;
    let lo_y = (cy - r).floor() as isize;
    let hi_y = (cy + r).ceil() as isize;
    let cell = 2.0 * r / GRID as f64;

    // Integer centers make (px-cx)² + (py-cy)² an exact integer table
    // index; the magnitude guard keeps the cast to isize in range.
    let integer_center = cx.fract() == 0.0 && cy.fract() == 0.0 && cx.abs() < 2e9 && cy.abs() < 2e9;
    let table: Option<(&[f64], isize, isize)> =
        integer_center.then(|| (tables.get(r), cx as isize, cy as isize));

    // Spatial cells, once per window column (u) and row (v); NaN lands in cell 0.
    let grid_cell = |p: isize, lo: f64| {
        let c = ((p as f64 - lo) / cell).floor();
        ((c >= 0.0 || c.is_nan()) && (c as usize) < GRID).then_some(c as usize)
    };
    let us: Vec<Option<usize>> = (lo_x..=hi_x).map(|px| grid_cell(px, cx - r)).collect();
    for py in lo_y..=hi_y {
        let Some(v) = grid_cell(py, cy - r) else {
            continue;
        };
        for (px, &u) in (lo_x..=hi_x).zip(&us) {
            let Some(u) = u else { continue };
            let (mag, bin) = field.at(px, py);
            if mag <= 0.0 {
                continue;
            }
            let weight = match table {
                Some((t, cxi, cyi)) => {
                    let (di, dj) = (px - cxi, py - cyi);
                    t[(di * di + dj * dj) as usize]
                }
                None => {
                    let d2 = ((px as f64 - cx).powi(2) + (py as f64 - cy).powi(2)) / (r * r);
                    (-d2).exp()
                }
            };
            hist[(v * GRID + u) * ORI_BINS + bin as usize] += mag * weight;
        }
    }

    normalize_sift(&mut hist).then_some(hist)
}

/// L2-normalize, clip at 0.2, renormalize. Returns false for zero vectors.
fn normalize_sift(h: &mut [f64]) -> bool {
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let n = norm(h);
    if n <= 1e-12 {
        return false;
    }
    for v in h.iter_mut() {
        *v = (*v / n).min(0.2);
    }
    let n2 = norm(h);
    if n2 <= 1e-12 {
        return false;
    }
    for v in h.iter_mut() {
        *v /= n2;
    }
    true
}

/// Describes a set of detected keypoints over a prebuilt
/// [`GradientField`], so callers that also extract dense descriptors
/// from the same image share one gradient pass. The patch radius is
/// `3 × scale` (descriptor window grows with keypoint scale, as in SIFT).
pub fn describe_keypoints_on(field: &GradientField, keypoints: &[Keypoint]) -> Vec<Descriptor> {
    let mut tables = WeightTables::default();
    keypoints
        .iter()
        .filter_map(|kp| describe_patch_on(field, kp.x, kp.y, 3.0 * kp.scale, &mut tables))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keypoints::{detect_keypoints, DetectorParams};

    fn gradients(img: &GrayImage) -> (GrayImage, GrayImage) {
        crate::filters::gradients_with(img, fc_simd::active_level())
    }

    fn blob(w: usize, h: usize, cx: f64, cy: f64) -> GrayImage {
        let mut px = Vec::with_capacity(w * h);
        for y in 0..h {
            for x in 0..w {
                let d2 = (x as f64 - cx).powi(2) + (y as f64 - cy).powi(2);
                px.push((-d2 / 18.0).exp());
            }
        }
        GrayImage::new(w, h, px)
    }

    #[test]
    fn descriptor_has_unit_norm_and_dim() {
        let img = blob(32, 32, 16.0, 16.0);
        let (dx, dy) = gradients(&img);
        let d = describe_patch(&dx, &dy, 16.0, 16.0, 6.0).unwrap();
        assert_eq!(d.len(), DESCRIPTOR_DIM);
        let norm: f64 = d.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        // After clip-and-renormalize every entry is non-negative and the
        // clipped spread is bounded (0.2 clip / minimal renorm factor).
        assert!(d.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn flat_patch_yields_none() {
        let img = GrayImage::new(32, 32, vec![0.3; 1024]);
        let (dx, dy) = gradients(&img);
        assert!(describe_patch(&dx, &dy, 16.0, 16.0, 6.0).is_none());
        let field = GradientField::new(&img);
        let mut tables = WeightTables::default();
        assert!(describe_patch_on(&field, 16.0, 16.0, 6.0, &mut tables).is_none());
    }

    #[test]
    fn same_structure_matches_translated_copy() {
        // The same blob at two image locations → nearly identical
        // descriptors; a ramp → a different descriptor.
        let a = blob(48, 48, 16.0, 16.0);
        let b = blob(48, 48, 30.0, 28.0);
        let (adx, ady) = gradients(&a);
        let (bdx, bdy) = gradients(&b);
        let da = describe_patch(&adx, &ady, 16.0, 16.0, 8.0).unwrap();
        let db = describe_patch(&bdx, &bdy, 30.0, 28.0, 8.0).unwrap();
        let ramp = GrayImage::new(
            48,
            48,
            (0..48 * 48).map(|i| (i % 48) as f64 / 48.0).collect(),
        );
        let (rdx, rdy) = gradients(&ramp);
        let dr = describe_patch(&rdx, &rdy, 24.0, 24.0, 8.0).unwrap();

        let dist =
            |p: &[f64], q: &[f64]| -> f64 { p.iter().zip(q).map(|(x, y)| (x - y) * (x - y)).sum() };
        assert!(
            dist(&da, &db) < dist(&da, &dr),
            "blob-blob {} vs blob-ramp {}",
            dist(&da, &db),
            dist(&da, &dr)
        );
    }

    #[test]
    fn describe_keypoints_end_to_end() {
        let img = blob(48, 48, 24.0, 24.0);
        let kps = detect_keypoints(&img, &DetectorParams::default());
        let descs = describe_keypoints_on(&GradientField::new(&img), &kps);
        assert!(!descs.is_empty());
        assert!(descs.iter().all(|d| d.len() == DESCRIPTOR_DIM));
    }

    #[test]
    fn field_path_is_bit_identical_to_patch_path_at_every_level() {
        let img = blob(40, 36, 19.0, 17.0);
        let (dx, dy) = gradients(&img);
        // Integer, fractional, off-edge, sub-minimum-radius and NaN centers.
        let cases = [
            (20.0, 18.0, 6.0),
            (20.0, 18.0, 4.5),
            (19.25, 17.75, 6.0),
            (2.0, 2.0, 6.0),
            (38.0, 34.0, 6.0),
            (10.0, 10.0, 1.0),
            (f64::NAN, 18.0, 6.0),
            (20.0, f64::NAN, 6.0),
        ];
        for level in fc_simd::available_levels() {
            let field = GradientField::with_level(&img, level);
            let mut tables = WeightTables::default();
            for &(cx, cy, r) in &cases {
                let want = describe_patch(&dx, &dy, cx, cy, r);
                let got = describe_patch_on(&field, cx, cy, r, &mut tables);
                match (&want, &got) {
                    (Some(a), Some(b)) => {
                        for (x, y) in a.iter().zip(b) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "patch ({cx},{cy},{r}) differs at {level:?}"
                            );
                        }
                    }
                    (None, None) => {}
                    _ => panic!("patch ({cx},{cy},{r}) presence differs at {level:?}"),
                }
            }
        }
    }

    /// Axes, diagonals, ±0, subnormals, huge values, NaN and ±inf, and
    /// values a hair to either side of an axis or a diagonal.
    const EDGE_VALUES: [f64; 16] = [
        0.0,
        -0.0,
        5e-324,
        -1e-310,
        1e-300,
        1.0,
        -1.0,
        1.0 + 1e-12,
        -(1.0 - 1e-9),
        3.5,
        1e300,
        -f64::MAX,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];

    #[test]
    fn octant_bin_equals_atan2_bin_on_every_edge_pair() {
        for &gx in &EDGE_VALUES {
            for &gy in &EDGE_VALUES {
                assert_eq!(
                    orientation_bin(gx, gy),
                    atan2_bin(gx, gy),
                    "({gx:e}, {gy:e})"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4096))]

        /// The octant equals the `atan2` formula: arbitrary bit patterns
        /// (subnormals, huge, NaN, ±inf), gradient-scale values, points
        /// near an axis or a diagonal at every relative distance from
        /// 1e-3 down to 1e-18, and each case in all four quadrants.
        #[test]
        fn prop_octant_bin_equals_atan2_bin(
            bits in proptest::prelude::any::<u64>(),
            other in proptest::prelude::any::<u64>(),
            unit in 0.0f64..1.0,
            kind in 0usize..4,
            rel_exp in 3i32..=18,
            scale_exp in -320i32..=300,
        ) {
            let scale = 10f64.powi(scale_exp);
            let rel = 10f64.powi(-rel_exp);
            let (gx, gy) = match kind {
                // Any two doubles.
                0 => (f64::from_bits(bits), f64::from_bits(other)),
                // The gradients a [0, 1] image produces.
                1 => (unit - 0.5, f64::from_bits(other) % 0.5),
                // Near an axis.
                2 => (scale, scale * rel * unit),
                // Near a diagonal, both sides.
                _ => (scale, scale * (1.0 + rel * (2.0 * unit - 1.0))),
            };
            for (x, y) in [(gx, gy), (-gx, gy), (-gx, -gy), (gx, -gy), (gy, gx)] {
                proptest::prop_assert_eq!(orientation_bin(x, y), atan2_bin(x, y), "({:e}, {:e})", x, y);
            }
        }
    }

    #[test]
    fn describe_keypoints_on_matches_describe_keypoints() {
        let img = blob(48, 48, 24.0, 24.0);
        let kps = detect_keypoints(&img, &DetectorParams::default());
        let want = describe_keypoints_on(&GradientField::new(&img), &kps);
        for level in fc_simd::available_levels() {
            let field = GradientField::with_level(&img, level);
            let got = describe_keypoints_on(&field, &kps);
            assert_eq!(want.len(), got.len());
            for (a, b) in want.iter().zip(&got) {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "keypoint descriptors differ");
                }
            }
        }
    }
}
