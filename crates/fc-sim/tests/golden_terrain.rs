//! Golden pins for the terrain generator and the NDSI pipeline.
//!
//! Every dataset the repo builds — the study's tiles, their signatures,
//! the simulated users' traces and so every paper number downstream —
//! is a function of these fields, so they are pinned by bit pattern,
//! not by tolerance: each fingerprint folds `f64::to_bits` of every
//! cell of one field, row-major. The sizes cover the unit tests' 64
//! and 128, one side that is not a power of two (the lattice cell
//! boundaries then fall between raster cells at irregular strides) and
//! the default 512; the seeds are the default one, which every
//! benchmark and experiment uses, and one other. The benchmark's own
//! 1024² field at the default seed is pinned too, in the release suite.

use fc_array::DenseArray;
use fc_sim::terrain::{build_ndsi_database, generate, TerrainConfig};

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
}

/// Folds the cell count, the present-cell count and every attribute
/// column of `arr`, in schema order.
fn fingerprint(arr: &DenseArray) -> u64 {
    let mut f = Fold::new();
    f.u64(arr.ncells() as u64);
    f.u64(arr.validity().count_ones() as u64);
    for ai in 0..arr.schema().attrs.len() {
        for &v in arr.attr_col(ai) {
            f.u64(v.to_bits());
        }
    }
    f.0
}

/// `[elevation, vis, swir, mask, NDSI]` for one configuration: the four
/// fields of `generate` and the four-attribute array Query 1 stores.
fn fingerprints(size: usize, seed: u64) -> [u64; 5] {
    let cfg = TerrainConfig {
        size,
        seed,
        ..TerrainConfig::default()
    };
    let t = generate(&cfg);
    let (db, ndsi) = build_ndsi_database(&cfg);
    assert_eq!(
        *db.scan("NDSI").expect("NDSI stored"),
        *ndsi,
        "the returned array is the stored one"
    );
    assert_eq!(
        ndsi.schema()
            .attrs
            .iter()
            .map(|a| a.name.as_str())
            .collect::<Vec<_>>(),
        ["ndsi_max", "ndsi_min", "ndsi_avg", "land"]
    );
    assert_eq!(ndsi.attr_col(3), t.mask.attr_col(0), "land is the mask");
    [
        fingerprint(&t.elevation),
        fingerprint(&t.vis),
        fingerprint(&t.swir),
        fingerprint(&t.mask),
        fingerprint(&ndsi),
    ]
}

const DEFAULT_SEED: u64 = 0x7E44A1;

/// `(size, seed, [elevation, vis, swir, mask, NDSI])`.
const GOLDEN: [(usize, u64, [u64; 5]); 8] = [
    (
        64,
        DEFAULT_SEED,
        [
            0x3c12eb811733ac55,
            0x66f186c48e469741,
            0x647592103ad604df,
            0x655988444e1700f8,
            0xdd378bdd84d227c8,
        ],
    ),
    (
        64,
        42,
        [
            0x9bb2a463d0176829,
            0x6f5cf0348517fb78,
            0xcaaa81259c44b4be,
            0xd2791c75ac7e9d85,
            0xf6c8d71e0609bf44,
        ],
    ),
    (
        96,
        DEFAULT_SEED,
        [
            0x44771154ebc23a89,
            0x6c8f0c471cad4287,
            0xfc4e7cb6d125d8d6,
            0xfd6c0120e2c90f18,
            0x3ccd008e2330d586,
        ],
    ),
    (
        96,
        42,
        [
            0x8c861aa4ec44bdee,
            0x7f4f2214edd7961a,
            0x1cf19e4188ca521f,
            0xd34ba05a91b621d8,
            0x6a466b1cff5487ca,
        ],
    ),
    (
        128,
        DEFAULT_SEED,
        [
            0xeea535c7c13156bf,
            0xa2fa1933afe8d04c,
            0xc2f1aaa74fe4ab73,
            0x6e5e19f16945c685,
            0xc7af889b3726fbd9,
        ],
    ),
    (
        128,
        42,
        [
            0x79e842d0308722e0,
            0x2056878e7d891a27,
            0xf6cdbfbd35f1f01a,
            0x78e0093f4b6cc4b8,
            0x8ec32a240e312f01,
        ],
    ),
    (
        512,
        DEFAULT_SEED,
        [
            0x7f663c277b6111af,
            0x1d7cae5c52da8cba,
            0xe39880582bdf8d46,
            0xc5452ebc92acfab8,
            0x301b038e74c78717,
        ],
    ),
    (
        512,
        42,
        [
            0xce7d23dbf0993d2c,
            0x684df1827eb0368c,
            0x1ada8769329a03a1,
            0x94eafdb43501a3e5,
            0x95aefa9bd1fb9a11,
        ],
    ),
];

/// The benchmark's dataset: 1024² at the default seed.
const BENCHMARK: (usize, u64, [u64; 5]) = (
    1024,
    DEFAULT_SEED,
    [
        0x93b173fa50e54e40,
        0x740e8853a3c2d450,
        0x127f6a090d66ef87,
        0xee2d2e02c4e175f8,
        0x12c1de0277d5e3e8,
    ],
);

fn show(table: &[(usize, u64, [u64; 5])]) -> String {
    table
        .iter()
        .map(|(size, seed, f)| {
            let f = f.map(|h| format!("{h:#018x}")).join(", ");
            format!("    ({size}, {seed:#x}, [{f}]),\n")
        })
        .collect()
}

#[test]
fn default_seed_is_the_pinned_one() {
    assert_eq!(TerrainConfig::default().seed, DEFAULT_SEED);
}

#[test]
fn terrain_and_ndsi_bits_are_pinned() {
    let actual: Vec<(usize, u64, [u64; 5])> = GOLDEN
        .iter()
        .map(|&(size, seed, _)| (size, seed, fingerprints(size, seed)))
        .collect();
    assert!(
        actual == GOLDEN,
        "terrain bits moved; actual table:\n{}",
        show(&actual)
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the 1024² field runs in the release suite")]
fn benchmark_terrain_bits_are_pinned() {
    let (size, seed, _) = BENCHMARK;
    let actual = (size, seed, fingerprints(size, seed));
    assert!(
        actual == BENCHMARK,
        "benchmark terrain bits moved; actual:\n{}",
        show(&[actual])
    );
}
