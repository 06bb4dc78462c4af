//! The seed commit's implementations of the measured hot paths,
//! reproduced verbatim as the references the refactors are measured
//! and checked against: `benches/micro.rs` times the regrid and codec
//! against them, and `tests/golden_datapath.rs` checks the live
//! pyramid, signatures and codec against them bit for bit.
//!
//! * **regrid** — the seed aggregated one output cell at a time through
//!   a `WindowIter` odometer gather, allocating the `lo`/`hi` window
//!   bounds per cell ([`seed_regrid_with`]); the blocked columnar
//!   passes in `fc_array::regrid_with` replaced it.
//! * **pyramid build** — the seed projected attributes cell-by-cell and
//!   cut tiles with `subarray` + per-cell padding
//!   ([`seed_build_pyramid`]); the rebuilt path cuts padded tiles with
//!   contiguous row copies.
//! * **signature attachment** — the seed ran the vision pipeline twice
//!   per tile ([`seed_attach_signatures`]) over its scalar vision
//!   stack: nested-loop Gaussian blur and gradients, per-patch
//!   `sqrt`/`atan2`/`exp` descriptor pooling recomputed for SIFT and
//!   denseSIFT separately, and a scalar-`nearest` k-means
//!   (`SeedKMeans`). All of it is pinned here verbatim so the baseline
//!   keeps the seed's cost even though the live pipeline now runs on the
//!   `fc-simd` kernel layer with a shared per-tile gradient field.
//! * **tile wire codec** — the seed encoded/decoded every `f64` through
//!   per-value `put_f64_le`/`get_f64_le` calls and framed bodies with
//!   an extra copy ([`seed_encode_server_msg`] /
//!   [`seed_decode_server_msg`]); the zero-copy codec in
//!   `fc_server::protocol` replaced it.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use fc_core::signature::{
    hist_signature, normal_signature, tile_image, SignatureConfig, SignatureKind,
};
use fc_server::{ServerMsg, TilePayload};
use fc_tiles::{Geometry, Tile, TileId, TileStore};
use fc_vision::{DetectorParams, GrayImage, Keypoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;

// ---------------------------------------------------------------------
// Seed regrid: per-output-cell WindowIter gather (fc-array/src/ops.rs at
// the seed commit), with the per-cell `lo`/`hi` Vec allocations intact.
// Reads go through the public columnar accessors instead of the seed's
// crate-private `cell_view`, which costs the same slice index.
// ---------------------------------------------------------------------

use fc_array::{subarray, AggFn, DenseArray, Result as ArrayResult, Schema};

/// The seed's `regrid_with`, verbatim.
///
/// # Errors
/// As `fc_array::regrid_with`.
pub fn seed_regrid_with(
    input: &DenseArray,
    windows: &[usize],
    aggs: &[AggFn],
) -> ArrayResult<DenseArray> {
    let schema = input.schema();
    assert_eq!(aggs.len(), schema.attrs.len(), "seed baseline arity");
    assert_eq!(windows.len(), schema.ndims(), "seed baseline windows");
    assert!(!windows.contains(&0), "seed baseline zero window");
    let out_dims: Vec<(String, usize)> = schema
        .dims
        .iter()
        .zip(windows)
        .map(|(d, &w)| (d.name.clone(), d.len.div_ceil(w)))
        .collect();
    let out_schema = Schema::new(
        format!("regrid({})", schema.name),
        out_dims,
        schema.attrs.iter().map(|a| a.name.clone()),
    )?;

    let mut out = DenseArray::empty(out_schema);
    let out_shape = out.shape();
    let in_shape = schema.shape();
    let nattrs = schema.attrs.len();
    let in_strides = schema.strides();
    let valid = input.validity();
    let cols: Vec<&[f64]> = schema
        .attrs
        .iter()
        .map(|a| input.attr_values(&a.name).expect("attr exists"))
        .collect();

    // Iterate output cells; for each, walk its input window.
    let mut ocoords = vec![0usize; out_shape.len()];
    let total: usize = out_shape.iter().product();
    let mut values = vec![0.0f64; nattrs];
    for oidx in 0..total {
        // Window bounds in input space (fresh Vecs per cell, as seeded).
        let lo: Vec<usize> = ocoords.iter().zip(windows).map(|(&c, &w)| c * w).collect();
        let hi: Vec<usize> = lo
            .iter()
            .zip(windows)
            .zip(&in_shape)
            .map(|((&l, &w), &s)| (l + w).min(s))
            .collect();

        let mut any_present = false;
        for ai in 0..nattrs {
            let vals = SeedWindowIter::new(&lo, &hi, &in_strides)
                .filter(|&flat| valid.get(flat))
                .map(|flat| cols[ai][flat]);
            match aggs[ai].fold(vals) {
                Some(v) => {
                    values[ai] = v;
                    any_present = true;
                }
                None => values[ai] = f64::NAN,
            }
        }
        if any_present {
            out.fill_cell(oidx, &values).expect("in range");
        }

        for d in (0..ocoords.len()).rev() {
            ocoords[d] += 1;
            if ocoords[d] < out_shape[d] {
                break;
            }
            ocoords[d] = 0;
        }
    }
    Ok(out)
}

/// The seed's row-major window odometer, verbatim.
struct SeedWindowIter<'a> {
    lo: &'a [usize],
    hi: &'a [usize],
    strides: &'a [usize],
    cur: Vec<usize>,
    done: bool,
}

impl<'a> SeedWindowIter<'a> {
    fn new(lo: &'a [usize], hi: &'a [usize], strides: &'a [usize]) -> Self {
        let done = lo.iter().zip(hi).any(|(&l, &h)| l >= h);
        Self {
            lo,
            hi,
            strides,
            cur: lo.to_vec(),
            done,
        }
    }
}

impl Iterator for SeedWindowIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        let flat: usize = self
            .cur
            .iter()
            .zip(self.strides)
            .map(|(&c, &s)| c * s)
            .sum();
        let mut d = self.cur.len();
        loop {
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
            self.cur[d] += 1;
            if self.cur[d] < self.hi[d] {
                break;
            }
            self.cur[d] = self.lo[d];
        }
        Some(flat)
    }
}

// ---------------------------------------------------------------------
// Seed pyramid build: cell-by-cell projection, seed regrid per level,
// and subarray + per-cell padding tile cuts (fc-tiles/src/pyramid.rs at
// the seed commit).
// ---------------------------------------------------------------------

use fc_tiles::{AttrAgg, PyramidConfig};

/// The seed's attribute projection (cell-by-cell `fill_cell`), verbatim.
fn seed_project(base: &DenseArray, aggs: &[AttrAgg]) -> ArrayResult<DenseArray> {
    let schema = base.schema();
    let dims: Vec<(String, usize)> = schema
        .dims
        .iter()
        .map(|d| (d.name.clone(), d.len))
        .collect();
    let out_schema = Schema::new(
        schema.name.clone(),
        dims,
        aggs.iter().map(|a| a.attr.clone()),
    )?;
    let mut out = DenseArray::empty(out_schema);
    let idxs: Vec<usize> = aggs
        .iter()
        .map(|a| schema.attr_index(&a.attr))
        .collect::<ArrayResult<_>>()?;
    let mut values = vec![0.0f64; idxs.len()];
    for c in base.cells() {
        for (vi, &ai) in idxs.iter().enumerate() {
            values[vi] = c.attr(ai);
        }
        out.fill_cell(c.index(), &values)?;
    }
    Ok(out)
}

/// The seed's per-cell edge-tile padding, verbatim.
fn seed_pad_to(block: &DenseArray, h: usize, w: usize) -> ArrayResult<DenseArray> {
    let shape = block.shape();
    if shape[0] == h && shape[1] == w {
        return Ok(block.clone());
    }
    let schema = Schema::new(
        block.schema().name.clone(),
        [
            (block.schema().dims[0].name.clone(), h),
            (block.schema().dims[1].name.clone(), w),
        ],
        block.schema().attrs.iter().map(|a| a.name.clone()),
    )?;
    let mut out = DenseArray::empty(schema);
    let nattrs = block.schema().attrs.len();
    let mut values = vec![0.0f64; nattrs];
    for c in block.cells() {
        let co = c.coords();
        for (ai, v) in values.iter_mut().enumerate() {
            *v = c.attr(ai);
        }
        let idx = out.schema().flat_index(&co)?;
        out.fill_cell(idx, &values)?;
    }
    Ok(out)
}

/// The seed's `PyramidBuilder::build` loop, verbatim: project, regrid every level from the base, partition with
/// `subarray` + padding. Returns the geometry and populated store.
///
/// # Errors
/// As `PyramidBuilder::build`.
// fc-check: allow(unreferenced-pub) -- reference oracle: golden_datapath holds the live pyramid build to this seed copy
pub fn seed_build_pyramid(
    base: &DenseArray,
    cfg: &PyramidConfig,
) -> ArrayResult<(Geometry, TileStore)> {
    let projected = seed_project(base, &cfg.aggs)?;
    let shape = projected.shape();
    let geometry = Geometry::new(cfg.levels, shape[0], shape[1], cfg.tile_h, cfg.tile_w);
    let store = TileStore::new(
        geometry,
        cfg.latency,
        cfg.io_mode,
        fc_array::SimClock::new(),
    );
    let aggs: Vec<AggFn> = cfg.aggs.iter().map(|a| a.agg).collect();
    for level in 0..cfg.levels {
        let window = geometry.agg_window(level);
        let view = if window == 1 {
            projected.clone()
        } else {
            seed_regrid_with(&projected, &[window, window], &aggs)?
        };
        let (rows, cols) = geometry.tiles_at(level);
        let vshape = view.shape();
        for ty in 0..rows {
            for tx in 0..cols {
                let y0 = ty as usize * geometry.tile_h;
                let x0 = tx as usize * geometry.tile_w;
                let y1 = (y0 + geometry.tile_h).min(vshape[0]);
                let x1 = (x0 + geometry.tile_w).min(vshape[1]);
                let block = subarray(&view, &[(y0, y1), (x0, x1)])?;
                let block = seed_pad_to(&block, geometry.tile_h, geometry.tile_w)?;
                store.put_tile(Tile::new(TileId::new(level, ty, tx), block));
            }
        }
    }
    Ok((geometry, store))
}

// ---------------------------------------------------------------------
// Seed vision stack (fc-vision at the seed commit), pinned verbatim:
// nested-loop separable blur, per-pixel gradients, and per-patch
// descriptor pooling that recomputes sqrt/atan2/exp for every
// overlapping patch. The live pipeline replaced these with fc-simd
// kernels and a shared per-tile gradient field — bit-identically, which
// is exactly why the baseline must keep its own copies to keep costing
// what the seed cost.
// ---------------------------------------------------------------------

const SEED_GRID: usize = 4;
const SEED_ORI_BINS: usize = 8;
const SEED_DESCRIPTOR_DIM: usize = SEED_GRID * SEED_GRID * SEED_ORI_BINS;

/// The seed's `gaussian_kernel`, verbatim.
fn seed_gaussian_kernel(sigma: f64) -> Vec<f64> {
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

/// The seed's `gaussian_blur`, verbatim (per-pixel clamped taps).
fn seed_gaussian_blur(img: &GrayImage, sigma: f64) -> GrayImage {
    let kernel = seed_gaussian_kernel(sigma);
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

/// The seed's `gradients`, verbatim.
fn seed_gradients(img: &GrayImage) -> (GrayImage, GrayImage) {
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

/// The seed's `detect_keypoints`, verbatim (on the seed's blur).
fn seed_detect_keypoints(img: &GrayImage, p: &DetectorParams) -> Vec<Keypoint> {
    let mut keypoints = Vec::new();
    let mut octave_img = img.clone();
    let mut octave_factor = 1.0f64;

    for _octave in 0..p.octaves {
        if octave_img.width() < 8 || octave_img.height() < 8 {
            break;
        }
        let k = 2f64.powf(1.0 / p.scales_per_octave as f64);
        let mut blurred = Vec::with_capacity(p.scales_per_octave + 1);
        for s in 0..=p.scales_per_octave {
            let sigma = p.sigma * k.powi(s as i32);
            blurred.push(seed_gaussian_blur(&octave_img, sigma));
        }
        let dog: Vec<GrayImage> = blurred.windows(2).map(|w| w[1].diff(&w[0])).collect();

        for li in 1..dog.len().saturating_sub(1) {
            let (w, h) = (dog[li].width(), dog[li].height());
            for y in 1..h - 1 {
                for x in 1..w - 1 {
                    let v = dog[li].get(x, y);
                    if v.abs() < p.contrast_threshold {
                        continue;
                    }
                    if seed_is_extremum(&dog[li - 1..=li + 1], x, y, v) {
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

/// The seed's `is_extremum`, verbatim.
fn seed_is_extremum(layers: &[GrayImage], x: usize, y: usize, v: f64) -> bool {
    let mut is_max = true;
    let mut is_min = true;
    for layer in layers {
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                let n = layer.get_clamped(x as isize + dx, y as isize + dy);
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

/// The seed's `describe_patch`, verbatim (per-pixel sqrt/atan2/exp).
fn seed_describe_patch(
    dx: &GrayImage,
    dy: &GrayImage,
    cx: f64,
    cy: f64,
    radius: f64,
) -> Option<Vec<f64>> {
    let mut hist = vec![0.0f64; SEED_DESCRIPTOR_DIM];
    let r = radius.max(2.0);
    let lo_x = (cx - r).floor() as isize;
    let hi_x = (cx + r).ceil() as isize;
    let lo_y = (cy - r).floor() as isize;
    let hi_y = (cy + r).ceil() as isize;
    let cell = 2.0 * r / SEED_GRID as f64;

    for py in lo_y..=hi_y {
        for px in lo_x..=hi_x {
            let gx = dx.get_clamped(px, py);
            let gy = dy.get_clamped(px, py);
            let mag = (gx * gx + gy * gy).sqrt();
            if mag <= 0.0 {
                continue;
            }
            let u = ((px as f64 - (cx - r)) / cell).floor();
            let v = ((py as f64 - (cy - r)) / cell).floor();
            if u < 0.0 || v < 0.0 {
                continue;
            }
            let (u, v) = (u as usize, v as usize);
            if u >= SEED_GRID || v >= SEED_GRID {
                continue;
            }
            let theta = gy.atan2(gx).rem_euclid(std::f64::consts::TAU);
            let bin = ((theta / std::f64::consts::TAU) * SEED_ORI_BINS as f64).floor() as usize
                % SEED_ORI_BINS;
            let d2 = ((px as f64 - cx).powi(2) + (py as f64 - cy).powi(2)) / (r * r);
            let weight = (-d2).exp();
            hist[(v * SEED_GRID + u) * SEED_ORI_BINS + bin] += mag * weight;
        }
    }

    seed_normalize_sift(&mut hist).then_some(hist)
}

/// The seed's `normalize_sift`, verbatim.
fn seed_normalize_sift(h: &mut [f64]) -> bool {
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

/// The seed's `describe_keypoints`, verbatim (fresh gradient pass).
fn seed_describe_keypoints(img: &GrayImage, keypoints: &[Keypoint]) -> Vec<Vec<f64>> {
    let (dx, dy) = seed_gradients(img);
    keypoints
        .iter()
        .filter_map(|kp| seed_describe_patch(&dx, &dy, kp.x, kp.y, 3.0 * kp.scale))
        .collect()
}

/// The seed's `dense_descriptors`, verbatim (its own gradient pass).
fn seed_dense_descriptors(img: &GrayImage, step: usize, radius: f64) -> Vec<Vec<f64>> {
    assert!(step >= 1, "grid step must be >= 1");
    let (dx, dy) = seed_gradients(img);
    let mut out = Vec::new();
    let mut y = step / 2;
    while y < img.height() {
        let mut x = step / 2;
        while x < img.width() {
            if let Some(d) = seed_describe_patch(&dx, &dy, x as f64, y as f64, radius) {
                out.push(d);
            }
            x += step;
        }
        y += step;
    }
    out
}

/// The seed's `sift_descriptors`, verbatim.
fn seed_sift_descriptors(img: &GrayImage, cfg: &SignatureConfig) -> Vec<Vec<f64>> {
    let mut kps = seed_detect_keypoints(img, &cfg.detector);
    kps.truncate(cfg.max_keypoints);
    seed_describe_keypoints(img, &kps)
}

/// The seed's k-means (fc-ml at the seed commit), verbatim: scalar
/// `nearest` in both the Lloyd assignment and histogram quantization.
pub(crate) struct SeedKMeans {
    centroids: Vec<Vec<f64>>,
}

impl SeedKMeans {
    /// The seed's `KMeans::fit`, verbatim.
    pub(crate) fn fit(data: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "k-means needs data");
        assert!(k > 0, "k must be positive");
        let dim = data[0].len();
        let k = k.min(data.len());
        let mut rng = StdRng::seed_from_u64(seed);

        let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
        centroids.push(data[rng.gen_range(0..data.len())].clone());
        let mut d2: Vec<f64> = data
            .iter()
            .map(|p| seed_sq_dist(p, &centroids[0]))
            .collect();
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
                d2[i] = d2[i].min(seed_sq_dist(p, centroids.last().expect("just pushed")));
            }
        }

        let mut assignment = vec![0usize; data.len()];
        for _ in 0..max_iters {
            let mut changed = false;
            for (i, p) in data.iter().enumerate() {
                let best = seed_nearest(&centroids, p).0;
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
        Self { centroids }
    }

    /// The seed's `KMeans::histogram`, verbatim.
    pub(crate) fn histogram(&self, points: &[Vec<f64>]) -> Vec<f64> {
        let mut h = vec![0.0f64; self.centroids.len()];
        for p in points {
            h[seed_nearest(&self.centroids, p).0] += 1.0;
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

fn seed_sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn seed_nearest(centroids: &[Vec<f64>], p: &[f64]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = seed_sq_dist(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// The seed's `Vocabulary`, verbatim (over `SeedKMeans`).
pub struct SeedVocabulary {
    codebook: SeedKMeans,
}

impl SeedVocabulary {
    /// The seed's `Vocabulary::train`, verbatim.
    pub(crate) fn train(corpus: &[Vec<f64>], k: usize, seed: u64) -> Self {
        assert!(
            !corpus.is_empty(),
            "cannot train a vocabulary on no descriptors"
        );
        Self {
            codebook: SeedKMeans::fit(corpus, k, 30, seed),
        }
    }

    /// The seed's `Vocabulary::histogram`, verbatim.
    pub(crate) fn histogram(&self, descriptors: &[Vec<f64>]) -> Vec<f64> {
        self.codebook.histogram(descriptors)
    }
}

// ---------------------------------------------------------------------
// Seed signature attachment: both offline passes
// (fc-core/src/signature.rs at the seed commit), over the pinned seed
// vision stack above.
// ---------------------------------------------------------------------

/// The seed's `attach_signatures`, verbatim: sequential descriptor
/// harvest, vocabulary training, then sequential per-tile computation —
/// each vision signature re-rendering the tile and re-running the full
/// detector/descriptor pipeline, exactly as the seed's per-signature
/// computer objects did.
// fc-check: allow(unreferenced-pub) -- reference oracle: golden_datapath holds the live signature pass to this seed copy
pub fn seed_attach_signatures(
    geometry: Geometry,
    store: &TileStore,
    cfg: &SignatureConfig,
) -> (SeedVocabulary, SeedVocabulary) {
    let mut sift_corpus = Vec::new();
    let mut dense_corpus = Vec::new();
    for id in geometry.all_tiles() {
        if let Some(tile) = store.fetch_offline(id) {
            let img = tile_image(&tile, &cfg.attr, cfg.domain);
            sift_corpus.extend(seed_sift_descriptors(&img, cfg));
            dense_corpus.extend(seed_dense_descriptors(
                &img,
                cfg.dense_step,
                cfg.dense_radius,
            ));
        }
    }
    if sift_corpus.is_empty() {
        sift_corpus.push(vec![0.0; SEED_DESCRIPTOR_DIM]);
    }
    if dense_corpus.is_empty() {
        dense_corpus.push(vec![0.0; SEED_DESCRIPTOR_DIM]);
    }
    let sift_vocab = SeedVocabulary::train(&sift_corpus, cfg.vocab_size, cfg.seed);
    let dense_vocab = SeedVocabulary::train(&dense_corpus, cfg.vocab_size, cfg.seed ^ 0xD5);

    for id in geometry.all_tiles() {
        if let Some(tile) = store.fetch_offline(id) {
            store.put_meta(
                id,
                SignatureKind::NormalDist.meta_name(),
                normal_signature(&tile, &cfg.attr),
            );
            store.put_meta(
                id,
                SignatureKind::Hist1D.meta_name(),
                hist_signature(&tile, &cfg.attr, cfg.domain, cfg.hist_bins),
            );
            // The seed's vision computers each rendered the tile and ran
            // the whole detector/descriptor pipeline again.
            let img = tile_image(&tile, &cfg.attr, cfg.domain);
            store.put_meta(
                id,
                SignatureKind::Sift.meta_name(),
                sift_vocab.histogram(&seed_sift_descriptors(&img, cfg)),
            );
            let img = tile_image(&tile, &cfg.attr, cfg.domain);
            store.put_meta(
                id,
                SignatureKind::DenseSift.meta_name(),
                dense_vocab.histogram(&seed_dense_descriptors(
                    &img,
                    cfg.dense_step,
                    cfg.dense_radius,
                )),
            );
        }
    }
    store.signature_index();
    (sift_vocab, dense_vocab)
}

// ---------------------------------------------------------------------
// Seed wire codec: per-value f64 writer/reader calls and the extra
// body-to-frame copy (fc-server/src/protocol.rs at the seed commit).
// ---------------------------------------------------------------------

fn seed_put_string(buf: &mut BytesMut, s: &str) {
    let bytes = s.as_bytes();
    buf.put_u16_le(u16::try_from(bytes.len()).expect("string fits u16"));
    buf.put_slice(bytes);
}

fn seed_get_string(buf: &mut Bytes) -> io::Result<String> {
    if buf.remaining() < 2 {
        return Err(seed_bad("truncated string length"));
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(seed_bad("truncated string body"));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| seed_bad("invalid UTF-8"))
}

fn seed_bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn seed_frame(body: BytesMut) -> Bytes {
    let mut out = BytesMut::with_capacity(body.len() + 4);
    out.put_u32_le(u32::try_from(body.len()).expect("frame fits u32"));
    out.extend_from_slice(&body);
    out.freeze()
}

/// The seed's `ServerMsg::encode` style, per-value `put_f64_le` with
/// the body built in one buffer then copied into the frame. The field
/// set tracks the live protocol (e.g. the degraded flag and error
/// code) so the golden byte-equivalence suite keeps comparing encoding
/// *strategies*, not stale formats.
pub fn seed_encode_server_msg(msg: &ServerMsg) -> Bytes {
    let mut body = BytesMut::new();
    match msg {
        ServerMsg::Welcome {
            levels,
            deepest_tiles,
        } => {
            body.put_u8(0);
            body.put_u8(*levels);
            body.put_u32_le(deepest_tiles.0);
            body.put_u32_le(deepest_tiles.1);
        }
        ServerMsg::Tile {
            payload,
            latency_ns,
            cache_hit,
            phase,
            degraded,
        } => {
            body.put_u8(1);
            body.put_u8(payload.tile.level);
            body.put_u32_le(payload.tile.y);
            body.put_u32_le(payload.tile.x);
            body.put_u32_le(payload.h);
            body.put_u32_le(payload.w);
            body.put_u64_le(*latency_ns);
            body.put_u8(u8::from(*cache_hit));
            body.put_u8(*phase);
            body.put_u8(u8::from(*degraded));
            body.put_u16_le(u16::try_from(payload.attrs.len()).expect("attr count"));
            for (name, values) in payload.attrs.iter().zip(&payload.data) {
                seed_put_string(&mut body, name);
                for v in values {
                    body.put_f64_le(*v);
                }
            }
            body.put_slice(&payload.present);
        }
        ServerMsg::Stats {
            requests,
            hits,
            avg_latency_ns,
            prefetch_issued,
            prefetch_used,
        } => {
            body.put_u8(2);
            body.put_u64_le(*requests);
            body.put_u64_le(*hits);
            body.put_u64_le(*avg_latency_ns);
            body.put_u64_le(*prefetch_issued);
            body.put_u64_le(*prefetch_used);
        }
        ServerMsg::Error { code, reason } => {
            body.put_u8(3);
            body.put_u8(*code as u8);
            seed_put_string(&mut body, reason);
        }
        ServerMsg::Push { payload } => {
            body.put_u8(4);
            body.put_u8(payload.tile.level);
            body.put_u32_le(payload.tile.y);
            body.put_u32_le(payload.tile.x);
            body.put_u32_le(payload.h);
            body.put_u32_le(payload.w);
            body.put_u16_le(u16::try_from(payload.attrs.len()).expect("attr count"));
            for (name, values) in payload.attrs.iter().zip(&payload.data) {
                seed_put_string(&mut body, name);
                for v in values {
                    body.put_f64_le(*v);
                }
            }
            body.put_slice(&payload.present);
        }
    }
    seed_frame(body)
}

/// The seed's `ServerMsg::decode`, verbatim (per-value `get_f64_le`).
///
/// # Errors
/// `InvalidData` on malformed bodies.
pub fn seed_decode_server_msg(mut body: Bytes) -> io::Result<ServerMsg> {
    if body.is_empty() {
        return Err(seed_bad("empty message"));
    }
    match body.get_u8() {
        0 => {
            if body.remaining() < 9 {
                return Err(seed_bad("truncated Welcome"));
            }
            Ok(ServerMsg::Welcome {
                levels: body.get_u8(),
                deepest_tiles: (body.get_u32_le(), body.get_u32_le()),
            })
        }
        1 => {
            if body.remaining() < 9 {
                return Err(seed_bad("truncated tile id"));
            }
            let tile = TileId::new(body.get_u8(), body.get_u32_le(), body.get_u32_le());
            if body.remaining() < 4 + 4 + 8 + 1 + 1 + 1 + 2 {
                return Err(seed_bad("truncated Tile header"));
            }
            let h = body.get_u32_le();
            let w = body.get_u32_le();
            let latency_ns = body.get_u64_le();
            let cache_hit = body.get_u8() != 0;
            let phase = body.get_u8();
            let degraded = body.get_u8() != 0;
            let nattrs = body.get_u16_le() as usize;
            let ncells = (h as usize) * (w as usize);
            let mut attrs = Vec::with_capacity(nattrs);
            let mut data = Vec::with_capacity(nattrs);
            for _ in 0..nattrs {
                let name = seed_get_string(&mut body)?;
                if body.remaining() < ncells * 8 {
                    return Err(seed_bad("truncated attribute data"));
                }
                let mut values = Vec::with_capacity(ncells);
                for _ in 0..ncells {
                    values.push(body.get_f64_le());
                }
                attrs.push(name);
                data.push(values);
            }
            if body.remaining() < ncells {
                return Err(seed_bad("truncated presence mask"));
            }
            let present = body.copy_to_bytes(ncells).to_vec();
            Ok(ServerMsg::Tile {
                payload: TilePayload {
                    tile,
                    h,
                    w,
                    attrs,
                    data,
                    present,
                },
                latency_ns,
                cache_hit,
                phase,
                degraded,
            })
        }
        2 => {
            if body.remaining() < 40 {
                return Err(seed_bad("truncated Stats"));
            }
            Ok(ServerMsg::Stats {
                requests: body.get_u64_le(),
                hits: body.get_u64_le(),
                avg_latency_ns: body.get_u64_le(),
                prefetch_issued: body.get_u64_le(),
                prefetch_used: body.get_u64_le(),
            })
        }
        3 => {
            if body.remaining() < 1 {
                return Err(seed_bad("truncated Error"));
            }
            let code = fc_server::ErrorCode::from_u8(body.get_u8());
            Ok(ServerMsg::Error {
                code,
                reason: seed_get_string(&mut body)?,
            })
        }
        4 => {
            if body.remaining() < 9 {
                return Err(seed_bad("truncated tile id"));
            }
            let tile = TileId::new(body.get_u8(), body.get_u32_le(), body.get_u32_le());
            if body.remaining() < 4 + 4 + 2 {
                return Err(seed_bad("truncated Push header"));
            }
            let h = body.get_u32_le();
            let w = body.get_u32_le();
            let nattrs = body.get_u16_le() as usize;
            let ncells = (h as usize) * (w as usize);
            let mut attrs = Vec::with_capacity(nattrs);
            let mut data = Vec::with_capacity(nattrs);
            for _ in 0..nattrs {
                let name = seed_get_string(&mut body)?;
                if body.remaining() < ncells * 8 {
                    return Err(seed_bad("truncated attribute data"));
                }
                let mut values = Vec::with_capacity(ncells);
                for _ in 0..ncells {
                    values.push(body.get_f64_le());
                }
                attrs.push(name);
                data.push(values);
            }
            if body.remaining() < ncells {
                return Err(seed_bad("truncated presence mask"));
            }
            let present = body.copy_to_bytes(ncells).to_vec();
            Ok(ServerMsg::Push {
                payload: TilePayload {
                    tile,
                    h,
                    w,
                    attrs,
                    data,
                    present,
                },
            })
        }
        t => Err(seed_bad(&format!("unknown server tag {t}"))),
    }
}
