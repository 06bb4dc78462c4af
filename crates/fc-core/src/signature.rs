//! Tile signatures (paper Table 2): compact numerical representations of
//! a data tile used to compare visual similarity.
//!
//! | signature | measures | captures |
//! |---|---|---|
//! | NormalDist | mean, std of cell values | average position/color/size |
//! | Hist1D | histogram of cell values | value distribution |
//! | Sift | BoVW histogram of DoG keypoint descriptors | distinct landmarks |
//! | DenseSift | BoVW histogram of dense-grid descriptors | landmarks **and** their layout |
//!
//! All signatures are computed over a single array attribute and stored
//! as `f64` vectors in the tile store's shared metadata map. The SIFT
//! variants need a visual-word vocabulary trained over the pyramid's tile
//! corpus first — [`attach_signatures`] performs the whole offline
//! pipeline (§2.3, "Computing Metadata").

use fc_tiles::{Pyramid, Tile};
use fc_vision::{
    dense_descriptors_on, describe_keypoints_on, detect_keypoints, DetectorParams, GradientField,
    GrayImage, Vocabulary,
};
use std::sync::Arc;

/// The four signature families of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureKind {
    /// Mean and standard deviation of the attribute values.
    NormalDist,
    /// Fixed-bin histogram of the attribute values.
    Hist1D,
    /// Bag-of-visual-words over sparse SIFT keypoint descriptors.
    Sift,
    /// Bag-of-visual-words over dense-grid descriptors.
    DenseSift,
}

/// All four kinds, in Table-2 order.
pub const SIGNATURE_KINDS: [SignatureKind; 4] = [
    SignatureKind::NormalDist,
    SignatureKind::Hist1D,
    SignatureKind::Sift,
    SignatureKind::DenseSift,
];

impl SignatureKind {
    /// The metadata key under which this signature is stored.
    pub fn meta_name(self) -> &'static str {
        match self {
            SignatureKind::NormalDist => "sig_normal",
            SignatureKind::Hist1D => "sig_hist",
            SignatureKind::Sift => "sig_sift",
            SignatureKind::DenseSift => "sig_densesift",
        }
    }

    /// Display name matching the paper.
    pub fn display_name(self) -> &'static str {
        match self {
            SignatureKind::NormalDist => "Normal Distribution",
            SignatureKind::Hist1D => "1-D histogram",
            SignatureKind::Sift => "SIFT",
            SignatureKind::DenseSift => "DenseSIFT",
        }
    }
}

/// Configuration for the signature pipeline.
#[derive(Debug, Clone)]
pub struct SignatureConfig {
    /// The attribute the signatures are computed over (§4.3.3: "All of
    /// our signatures are calculated over a single SciDB array
    /// attribute").
    pub attr: String,
    /// Renderer value domain `(lo, hi)` for the grayscale heatmap.
    pub domain: (f64, f64),
    /// Histogram bin count for [`SignatureKind::Hist1D`].
    pub hist_bins: usize,
    /// Visual-word vocabulary size for the SIFT signatures.
    pub vocab_size: usize,
    /// Cap on keypoints described per tile (strongest first).
    pub max_keypoints: usize,
    /// Dense grid step in pixels.
    pub dense_step: usize,
    /// Dense patch radius in pixels.
    pub dense_radius: f64,
    /// DoG detector parameters.
    pub detector: DetectorParams,
    /// RNG seed for vocabulary training.
    pub seed: u64,
}

impl SignatureConfig {
    /// Defaults tuned for NDSI-style heatmaps in `[-1, 1]`.
    pub fn ndsi(attr: impl Into<String>) -> Self {
        Self {
            attr: attr.into(),
            domain: (-1.0, 1.0),
            hist_bins: 16,
            vocab_size: 16,
            max_keypoints: 60,
            dense_step: 8,
            dense_radius: 6.0,
            detector: DetectorParams {
                // Snow-cover heatmaps are smoother than photographs;
                // a lower contrast threshold keeps ridge-edge keypoints.
                contrast_threshold: 0.004,
                ..DetectorParams::default()
            },
            seed: 0xF0CE,
        }
    }
}

/// Ceiling for the χ² pair cache ([`crate::paircache::PairCache`]):
/// the most slots a table for `nsig` signatures over an `ntiles`-tile
/// index may grow to. Nothing is allocated at this size up front.
///
/// An interactive request touches `|C| × |R|` pairs (≤ 64 × 16 = 1024
/// at the acceptance shape) and a pan/zoom neighbourhood revisits a few
/// multiples of that, so the working set scales with how much of the
/// pyramid a session explores — not with the full pair count `ntiles²`.
/// One slot covers **all** of a pair's signatures, so `nsig` barely
/// matters; `32 × nsig × ntiles` keeps the load factor of a table that
/// has reached it low enough (≲ 0.1 for serpentine exploration of a
/// whole level) that the additive slot mapping's runs-of-`|R|` rarely
/// overlap another candidate's probe window — overlaps turn into
/// evict-and-recompute churn. The result is clamped to `[2¹², 2¹⁸]`
/// slots (256 KiB – 16 MiB at 64-byte slots).
///
/// A table starts at the floor and doubles when half of it holds
/// pairs of the current generation, so what a session or a dataset
/// pays follows the pairs it has met (a median study session ends
/// with a few hundred, a dataset-shared table with a few thousand to
/// tens of thousands): the ceiling only says where doubling stops and
/// eviction takes over. An engine has no table at all until its first
/// predict ranks through one, and sessions ranking through a scheduler
/// share one table.
pub fn pair_cache_capacity_hint(nsig: usize, ntiles: usize) -> usize {
    nsig.max(1)
        .saturating_mul(ntiles.max(1))
        .saturating_mul(32)
        .next_power_of_two()
        .clamp(1 << 12, 1 << 18)
}

/// Renders a tile to the grayscale image the vision signatures consume.
pub fn tile_image(tile: &Tile, attr: &str, domain: (f64, f64)) -> GrayImage {
    let (h, w) = tile.shape();
    let raster = tile
        .render(attr, domain.0, domain.1)
        .unwrap_or_else(|_| vec![0.0; w * h]);
    GrayImage::new(w, h, raster)
}

/// Fills `out` with the tile's finite values of `attr`: a NaN or ±inf
/// counts as a missing cell in every signature, as it does in
/// [`tile_image`]. An unknown attribute leaves `out` empty.
fn signature_values(tile: &Tile, attr: &str, out: &mut Vec<f64>) {
    if tile.present_values_into(attr, out).is_err() {
        out.clear();
    }
    out.retain(|v| v.is_finite());
}

/// Computes the [`SignatureKind::NormalDist`] vector: `[mean, std]`.
pub fn normal_signature(tile: &Tile, attr: &str) -> Vec<f64> {
    let mut vals = Vec::new();
    signature_values(tile, attr, &mut vals);
    normal_signature_from(&vals)
}

/// [`normal_signature`] over an already-collected value slice.
fn normal_signature_from(vals: &[f64]) -> Vec<f64> {
    vec![fc_ml::mean(vals), fc_ml::std_dev(vals)]
}

/// Computes the [`SignatureKind::Hist1D`] vector: a normalized
/// `bins`-bucket histogram of attribute values over `domain`.
pub fn hist_signature(tile: &Tile, attr: &str, domain: (f64, f64), bins: usize) -> Vec<f64> {
    let mut vals = Vec::new();
    signature_values(tile, attr, &mut vals);
    hist_signature_from(&vals, domain, bins)
}

/// [`hist_signature`] over an already-collected value slice.
fn hist_signature_from(vals: &[f64], domain: (f64, f64), bins: usize) -> Vec<f64> {
    let mut h = vec![0.0f64; bins];
    let span = (domain.1 - domain.0).max(f64::EPSILON);
    for v in vals {
        let t = ((v - domain.0) / span).clamp(0.0, 1.0);
        let b = ((t * bins as f64) as usize).min(bins - 1);
        h[b] += 1.0;
    }
    let total: f64 = h.iter().sum();
    if total > 0.0 {
        for v in &mut h {
            *v /= total;
        }
    }
    h
}

/// SIFT keypoint descriptors of a tile image (strongest
/// `max_keypoints`) over a prebuilt [`GradientField`] for `img`, so the
/// SIFT and denseSIFT harvests of one tile share a single gradient pass
/// (detection still runs on the image — the DoG pyramid needs the raw
/// pixels, not gradients).
fn sift_descriptors_on(
    img: &GrayImage,
    field: &GradientField,
    cfg: &SignatureConfig,
) -> Vec<Vec<f64>> {
    let mut kps = detect_keypoints(img, &cfg.detector);
    kps.truncate(cfg.max_keypoints);
    describe_keypoints_on(field, &kps)
}

/// Per-tile output of the harvest pass: the two cheap stats signatures
/// and where the tile's SIFT / denseSIFT descriptors sit in the corpora
/// (so the histogram pass never re-runs the vision pipeline).
struct TileHarvest {
    id: fc_tiles::TileId,
    normal: Vec<f64>,
    hist: Vec<f64>,
    sift: std::ops::Range<usize>,
    dense: std::ops::Range<usize>,
}

/// Runs the full offline metadata pipeline over a built pyramid:
/// 1. harvests per-tile descriptors and stats signatures,
/// 2. trains SIFT and denseSIFT vocabularies over the descriptor corpus,
/// 3. quantizes each tile's harvested descriptors into BoVW histograms
///    and stores all four signatures in the shared metadata map.
///
/// Returns the trained vocabularies `(sift, dense_sift)` so callers can
/// attach signatures to future tiles.
///
/// The harvest walks the tiles once, in tile order, with one value
/// scratch: each tile's descriptors are computed **once**, appended to
/// the training corpora, and quantized from there for its own
/// histograms (the seed ran the whole vision pipeline twice per tile).
pub fn attach_signatures(
    pyramid: &Pyramid,
    cfg: &SignatureConfig,
) -> (Arc<Vocabulary>, Arc<Vocabulary>) {
    let store = pyramid.store();
    let mut vals: Vec<f64> = Vec::new();
    let mut sift_corpus: Vec<Vec<f64>> = Vec::new();
    let mut dense_corpus: Vec<Vec<f64>> = Vec::new();
    let mut harvested: Vec<TileHarvest> = Vec::new();
    for id in pyramid.geometry().all_tiles() {
        let Some(tile) = store.fetch_offline(id) else {
            continue;
        };
        signature_values(&tile, &cfg.attr, &mut vals);
        let img = tile_image(&tile, &cfg.attr, cfg.domain);
        // One gradient field per tile, shared by both vision
        // signatures (the seed ran the gradient pass — and the
        // per-pixel sqrt/atan2 behind it — twice per tile).
        let field = GradientField::new(&img);
        let (s0, d0) = (sift_corpus.len(), dense_corpus.len());
        sift_corpus.extend(sift_descriptors_on(&img, &field, cfg));
        dense_corpus.extend(dense_descriptors_on(
            &field,
            cfg.dense_step,
            cfg.dense_radius,
        ));
        harvested.push(TileHarvest {
            id,
            normal: normal_signature_from(&vals),
            hist: hist_signature_from(&vals, cfg.domain, cfg.hist_bins),
            sift: s0..sift_corpus.len(),
            dense: d0..dense_corpus.len(),
        });
    }
    // Degenerate datasets (entirely flat) still need a non-empty corpus.
    if sift_corpus.is_empty() {
        sift_corpus.push(vec![0.0; fc_vision::DESCRIPTOR_DIM]);
    }
    if dense_corpus.is_empty() {
        dense_corpus.push(vec![0.0; fc_vision::DESCRIPTOR_DIM]);
    }
    let sift_vocab = Arc::new(Vocabulary::train(&sift_corpus, cfg.vocab_size, cfg.seed));
    let dense_vocab = Arc::new(Vocabulary::train(
        &dense_corpus,
        cfg.vocab_size,
        cfg.seed ^ 0xD5,
    ));

    // Quantize the harvested descriptors and store in tile order.
    for t in harvested {
        store.put_meta(t.id, SignatureKind::NormalDist.meta_name(), t.normal);
        store.put_meta(t.id, SignatureKind::Hist1D.meta_name(), t.hist);
        store.put_meta(
            t.id,
            SignatureKind::Sift.meta_name(),
            sift_vocab.histogram(&sift_corpus[t.sift]),
        );
        store.put_meta(
            t.id,
            SignatureKind::DenseSift.meta_name(),
            dense_vocab.histogram(&dense_corpus[t.dense]),
        );
    }
    // Freeze the signature index now that the metadata map is complete,
    // so the first user request doesn't pay the build.
    store.signature_index();
    (sift_vocab, dense_vocab)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_array::{DenseArray, Schema};
    use fc_tiles::{PyramidBuilder, PyramidConfig, TileId};

    fn tile_with(values: Vec<f64>, side: usize) -> Tile {
        let schema = Schema::grid2d("T", side, side, &["v"]).unwrap();
        Tile::new(
            TileId::new(1, 0, 0),
            DenseArray::from_vec(schema, values).unwrap(),
        )
    }

    #[test]
    fn normal_signature_mean_std() {
        let t = tile_with(vec![1.0, 1.0, 3.0, 3.0], 2);
        let s = normal_signature(&t, "v");
        assert_eq!(s.len(), 2);
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hist_signature_buckets_and_normalizes() {
        let t = tile_with(vec![-1.0, -0.9, 0.95, 1.0], 2);
        let h = hist_signature(&t, "v", (-1.0, 1.0), 4);
        assert_eq!(h.len(), 4);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h[0] - 0.5).abs() < 1e-12);
        assert!((h[3] - 0.5).abs() < 1e-12);
        assert_eq!(h[1], 0.0);
    }

    #[test]
    fn hist_of_empty_tile_is_zero() {
        let schema = Schema::grid2d("T", 2, 2, &["v"]).unwrap();
        let t = Tile::new(TileId::ROOT, DenseArray::empty(schema));
        let h = hist_signature(&t, "v", (-1.0, 1.0), 4);
        assert_eq!(h, vec![0.0; 4]);
        let n = normal_signature(&t, "v");
        assert_eq!(n, vec![0.0, 0.0]);
    }

    /// Terrain with a bright blob in one corner; pyramid 2 levels.
    fn blobby_base(side: usize) -> DenseArray {
        let schema = Schema::grid2d("B", side, side, &["v"]).unwrap();
        let mut data = vec![0.0f64; side * side];
        for y in 0..side {
            for x in 0..side {
                let d2 =
                    (x as f64 - side as f64 / 4.0).powi(2) + (y as f64 - side as f64 / 4.0).powi(2);
                data[y * side + x] = (-d2 / 16.0).exp() * 2.0 - 1.0;
            }
        }
        DenseArray::from_vec(schema, data).unwrap()
    }

    #[test]
    fn attach_signatures_populates_all_tiles() {
        let base = blobby_base(64);
        let cfg = PyramidConfig::simple(2, 32, &["v"]);
        let pyramid = PyramidBuilder::new().build(&base, &cfg).unwrap();
        let sig_cfg = SignatureConfig::ndsi("v");
        let (sv, dv) = attach_signatures(&pyramid, &sig_cfg);
        assert!(sv.size() >= 1);
        assert!(dv.size() >= 1);
        for id in pyramid.geometry().all_tiles() {
            let meta = pyramid.store().meta(id).unwrap();
            for kind in SIGNATURE_KINDS {
                let v = meta.get(kind.meta_name()).unwrap();
                assert!(!v.is_empty(), "{} on {id}", kind.meta_name());
                assert!(v.iter().all(|x| x.is_finite()));
            }
        }
        // I/O stats untouched: signature work is offline.
        assert_eq!(pyramid.store().io_stats().reads, 0);
    }

    #[test]
    fn one_nan_cell_is_a_missing_cell_to_the_signature_pass() {
        // The textured base of `golden_datapath`, one present cell NaN;
        // every coarser level's average over it is NaN too.
        let schema = Schema::grid2d("B", 64, 64, &["v"]).unwrap();
        let mut data: Vec<f64> = (0..64 * 64)
            .map(|i| ((i as f64 * 0.37).sin().abs() + (i % 64) as f64 / 64.0) / 2.0)
            .collect();
        data[21 * 64 + 37] = f64::NAN;
        let base = DenseArray::from_vec(schema, data).unwrap();
        let pyramid = PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(3, 16, &["v"]))
            .unwrap();
        let mut cfg = SignatureConfig::ndsi("v");
        cfg.domain = (0.0, 1.0);
        attach_signatures(&pyramid, &cfg);
        for id in pyramid.geometry().all_tiles() {
            for kind in SIGNATURE_KINDS {
                let v = pyramid.store().meta_vec(id, kind.meta_name()).unwrap();
                assert!(
                    v.iter().all(|x| x.is_finite()),
                    "{} on {id}: {v:?}",
                    kind.meta_name()
                );
            }
        }
    }

    #[test]
    fn meta_names_are_distinct() {
        let names: Vec<&str> = SIGNATURE_KINDS.iter().map(|k| k.meta_name()).collect();
        let mut d = names.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), names.len());
        assert_eq!(SignatureKind::Sift.display_name(), "SIFT");
    }
}
