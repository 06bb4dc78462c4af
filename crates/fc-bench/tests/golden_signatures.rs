//! Golden pins for the offline signature pass (`attach_signatures`).
//!
//! Every SB ranking the engine serves and every SB row of the paper
//! report is a function of the four per-tile signatures and the two
//! visual-word vocabularies they are quantized against, so those are
//! pinned by bit pattern, not by tolerance: each fingerprint folds
//! `f64::to_bits` of every value, FNV-1a style. The SIFT and denseSIFT
//! vocabularies are folded centroid by centroid; the signatures tile by
//! tile in `Geometry::all_tiles` order, the four kinds of each tile in
//! Table-2 order, each vector's length before its values.
//!
//! A fourth fold pins the served bytes themselves, tile by tile in the
//! same order: each attribute's name and column bits, the presence
//! mask, and `BlobSize::nbytes` — the size the simulated disk charges
//! a fetch for.
//!
//! The `small` report's shape (512² terrain, 5 levels of 32² tiles) and
//! the same terrain at 4 levels of 64² tiles run in every build. The
//! benchmark's two contexts (1024² terrain; `ctx32` 6 levels of 32²,
//! `ctx64` 5 levels of 64²) take too long unoptimized and run in
//! release only.
//!
//! Two synthetic pyramids pin what the terrain shapes do not reach: a
//! ragged 100×70 base with a hole, whose edge tiles are padded and some
//! of whose windows aggregate over empty cells (its served bytes), and
//! a 64² base of 16² tiles (its signatures).

use fc_array::{BlobSize, DenseArray, Schema};
use fc_core::signature::{attach_signatures, SignatureConfig, SIGNATURE_KINDS};
use fc_sim::terrain::TerrainConfig;
use fc_sim::{DatasetConfig, StudyDataset};
use fc_tiles::{Geometry, PyramidBuilder, PyramidConfig, TileStore};

/// FNV-1a 64-bit fold; stable across platforms and runs.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        for &b in v {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    fn vec(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(x.to_bits());
        }
    }
}

/// `[SIFT vocabulary, denseSIFT vocabulary, every tile's signatures,
/// every tile's served bytes]` for the default terrain at `size`²
/// cells, `levels` levels of `tile`² tiles.
fn fingerprints(size: usize, levels: u8, tile: usize) -> [u64; 4] {
    let ds = StudyDataset::build(DatasetConfig {
        terrain: TerrainConfig {
            size,
            ..TerrainConfig::default()
        },
        levels,
        tile,
        ..DatasetConfig::default()
    });
    let vocab = |centroids: &[Vec<f64>]| {
        let mut f = Fold::new();
        f.u64(centroids.len() as u64);
        for c in centroids {
            f.vec(c);
        }
        f.0
    };
    let (geometry, store) = (ds.pyramid.geometry(), ds.pyramid.store());
    [
        vocab(ds.sift_vocab.centroids()),
        vocab(ds.dense_vocab.centroids()),
        signature_fold(geometry, store),
        tile_fold(geometry, store),
    ]
}

/// Every tile's four signatures in `Geometry::all_tiles` order, the
/// kinds of each tile in Table-2 order.
fn signature_fold(geometry: Geometry, store: &TileStore) -> u64 {
    let mut f = Fold::new();
    for id in geometry.all_tiles() {
        for kind in SIGNATURE_KINDS {
            f.vec(&store.meta_vec(id, kind.meta_name()).expect("signature"));
        }
    }
    f.0
}

/// Every tile's served bytes in `Geometry::all_tiles` order: each
/// attribute's name and column bits, the presence mask and `nbytes`.
fn tile_fold(geometry: Geometry, store: &TileStore) -> u64 {
    let mut f = Fold::new();
    let mut mask = Vec::new();
    for id in geometry.all_tiles() {
        let t = store.fetch_offline(id).expect("tile");
        for (ai, attr) in t.array.schema().attrs.iter().enumerate() {
            f.bytes(attr.name.as_bytes());
            f.vec(t.array.attr_col(ai));
        }
        mask.clear();
        t.array.validity().expand_into(&mut mask);
        f.bytes(&mask);
        f.u64(t.nbytes() as u64);
    }
    f.0
}

fn check(size: usize, levels: u8, tile: usize, want: [u64; 4]) {
    let got = fingerprints(size, levels, tile);
    assert!(
        got == want,
        "signature or tile bits moved at {size}², {levels} levels of {tile}²; actual: [{}]",
        got.map(|h| format!("{h:#018x}")).join(", ")
    );
}

#[test]
fn small_report_shape_is_pinned() {
    check(
        512,
        5,
        32,
        [
            0x4498aa9a9d4945fa,
            0x3e744163ca3bdf58,
            0x5d6c69e5cdb5628b,
            0xa728b1831ad3f825,
        ],
    );
}

#[test]
fn small_terrain_64_tiles_is_pinned() {
    check(
        512,
        4,
        64,
        [
            0x92483e51e4f64a2a,
            0x5a6da4a89f38efc1,
            0x7aee44b1f7fc08f5,
            0x032d0f4aeaaf0200,
        ],
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "1024² contexts run in the release suite")]
fn benchmark_ctx32_is_pinned() {
    check(
        1024,
        6,
        32,
        [
            0xb09a951c4d30f521,
            0xdc4dc477c994690f,
            0xcb066842e04b3ee4,
            0xc176adaa8d93af67,
        ],
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "1024² contexts run in the release suite")]
fn benchmark_ctx64_is_pinned() {
    check(
        1024,
        5,
        64,
        [
            0xdc83d72f128bf4a4,
            0xbee20a31b54d69d8,
            0xda28bc0bb2c0b0ed,
            0xd9535933f51c0c50,
        ],
    );
}

fn check_fold(what: &str, got: u64, want: u64) {
    assert!(got == want, "{what} moved; actual: {got:#018x}");
}

#[test]
fn ragged_pyramid_is_pinned() {
    let schema = Schema::grid2d("R", 100, 70, &["v"]).unwrap();
    let data: Vec<f64> = (0..100 * 70)
        .map(|i| ((i as f64) * 0.031).sin() * 4.0)
        .collect();
    let mut base = DenseArray::from_vec(schema, data).unwrap();
    for y in 20..28 {
        for x in 30..55 {
            base.clear_cell(&[y, x]).unwrap();
        }
    }
    let cfg = PyramidConfig::simple(3, 16, &["v"]);
    let built = PyramidBuilder::new().build(&base, &cfg).unwrap();
    assert_eq!(built.geometry().all_tiles().count(), 51);
    let got = tile_fold(built.geometry(), built.store());
    check_fold("ragged tiles", got, 0x8a3ba582db28f2b3);
}

#[test]
fn signature_pass_64_is_pinned() {
    let schema = Schema::grid2d("B", 64, 64, &["v"]).unwrap();
    let data: Vec<f64> = (0..64 * 64)
        .map(|i| ((i as f64 * 0.37).sin().abs() + (i % 64) as f64 / 64.0) / 2.0)
        .collect();
    let base = DenseArray::from_vec(schema, data).unwrap();
    let cfg = PyramidConfig::simple(3, 16, &["v"]);
    let mut sig_cfg = SignatureConfig::ndsi("v");
    sig_cfg.domain = (0.0, 1.0);
    let pyramid = PyramidBuilder::new().build(&base, &cfg).unwrap();
    attach_signatures(&pyramid, &sig_cfg);
    let got = signature_fold(pyramid.geometry(), pyramid.store());
    check_fold("64² signatures", got, 0x81aa3c23f877dbc0);
}
