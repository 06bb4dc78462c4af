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

use fc_array::BlobSize;
use fc_core::signature::SIGNATURE_KINDS;
use fc_sim::terrain::TerrainConfig;
use fc_sim::{DatasetConfig, StudyDataset};

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
    let (mut sigs, mut tiles) = (Fold::new(), Fold::new());
    let mut mask = Vec::new();
    let store = ds.pyramid.store();
    for id in ds.pyramid.geometry().all_tiles() {
        for kind in SIGNATURE_KINDS {
            sigs.vec(&store.meta_vec(id, kind.meta_name()).expect("signature"));
        }
        let t = store.fetch_offline(id).expect("tile");
        for (ai, attr) in t.array.schema().attrs.iter().enumerate() {
            tiles.bytes(attr.name.as_bytes());
            tiles.vec(t.array.attr_col(ai));
        }
        mask.clear();
        t.array.validity().expand_into(&mut mask);
        tiles.bytes(&mask);
        tiles.u64(t.nbytes() as u64);
    }
    [
        vocab(ds.sift_vocab.centroids()),
        vocab(ds.dense_vocab.centroids()),
        sigs.0,
        tiles.0,
    ]
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
