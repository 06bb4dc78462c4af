//! Golden SIMD-dispatch suite: the SB fill must produce
//! **bit-identical** distances at every available dispatch level.
//!
//! The fc-simd kernels (χ² accumulation, penalty-max fold,
//! normalize/combine) promise exact IEEE semantics per lane — no FMA
//! contraction, no reassociation beyond the documented 4-way split
//! that the scalar fallback replays verbatim. This suite pins that
//! contract where it matters: [`SbRecommender`]s pinned to each
//! [`SimdLevel`] the host offers are run over the same stores and
//! compared bit-for-bit against the `Scalar` pin *and* the locked
//! reference path [`SbRecommender::distances`], across
//!
//! * one job and several jobs per fill, through a disabled cache
//!   (`PairCache::new(0)`, every pair computed) and a live one in its
//!   miss and hit states;
//! * nsig 1, 2, 4 and 5 configurations (5 exceeds what a cache slot
//!   holds, so the cache rejects the domain), with and without the
//!   Manhattan / physical-distance terms;
//! * degenerate shapes: empty candidates, empty ROI, single pairs,
//!   odd-sized sets;
//! * hostile metadata: NaN and ±inf bins, odd vector widths, tiles
//!   with no signatures at all (NaN rows are compared by bit pattern —
//!   the sorting helpers are deliberately avoided here);
//! * random pan/zoom walks (proptest) with long-lived per-level pair
//!   caches.

use fc_array::{IoMode, LatencyModel, SimClock};
use fc_core::paircache::PairCache;
use fc_core::sb::{PredictScratch, SbConfig, SbRecommender};
use fc_core::signature::{SignatureKind, SIGNATURE_KINDS};
use fc_core::SimdLevel;
use fc_tiles::{Geometry, TileId, TileStore};
use proptest::prelude::*;

/// Deterministic non-negative value stream (xorshift64*).
fn sig_values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        })
        .collect()
}

/// Odd per-kind widths on purpose: 1-, 3-, 7- and 17-wide vectors leave
/// lane remainders at every SIMD width.
fn kind_dim(kind: SignatureKind) -> usize {
    match kind {
        SignatureKind::NormalDist => 1,
        SignatureKind::Hist1D => 3,
        SignatureKind::Sift => 7,
        SignatureKind::DenseSift => 17,
    }
}

/// A store over `g` with synthetic signatures. Every 7th tile is left
/// bare (missing-metadata pairs). With `hostile`, bins are sprinkled
/// with NaN and ±inf so the max scan, χ² and combine kernels all see
/// specials in arbitrary lanes.
fn synthetic_store(g: Geometry, salt: u64, hostile: bool) -> TileStore {
    let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
    for (i, id) in g.all_tiles().enumerate() {
        if i % 7 == 6 {
            continue;
        }
        for (k, kind) in SIGNATURE_KINDS.iter().enumerate() {
            let seed = salt
                ^ (u64::from(id.level) << 40)
                ^ (u64::from(id.y) << 20)
                ^ u64::from(id.x)
                ^ ((k as u64) << 56);
            let mut v = sig_values(seed, kind_dim(*kind));
            if hostile {
                for (j, x) in v.iter_mut().enumerate() {
                    match (i * 31 + k * 7 + j) % 23 {
                        0 => *x = f64::NAN,
                        7 => *x = f64::INFINITY,
                        14 => *x = f64::NEG_INFINITY,
                        _ => {}
                    }
                }
            }
            s.put_meta(id, kind.meta_name(), v);
        }
    }
    s
}

/// A 3-level geometry whose raw extent does not divide the tile size
/// (odd tile grids at every level).
fn odd_geometry() -> Geometry {
    Geometry::new(3, 100, 92, 24, 24)
}

/// The configurations under test: nsig 4, 2, 1 and 5 (one kind twice —
/// more weighted signatures than a cache slot holds, so every cache
/// rejects the domain), plus the ablation with both distance terms off.
fn configs() -> Vec<SbConfig> {
    let mut five = SbConfig::all_equal();
    five.weights.push((SignatureKind::Sift, 0.5));
    assert!(five.weights.len() > fc_core::paircache::MAX_CACHED_SIGS);
    vec![
        SbConfig::all_equal(),
        five,
        SbConfig {
            weights: vec![
                (SignatureKind::Hist1D, 0.75),
                (SignatureKind::DenseSift, 0.25),
            ],
            ..SbConfig::all_equal()
        },
        SbConfig::single(SignatureKind::Sift),
        SbConfig {
            manhattan_penalty: false,
            physical_distance: false,
            ..SbConfig::all_equal()
        },
    ]
}

/// Candidate/ROI shape matrix: degenerate first, then odd-sized sets
/// crossing levels and missing-metadata tiles.
fn shape_cases(g: Geometry) -> Vec<(Vec<TileId>, Vec<TileId>)> {
    let at = |level: u8, y: u32, x: u32| {
        let (rows, cols) = g.tiles_at(level);
        TileId::new(level, y.min(rows - 1), x.min(cols - 1))
    };
    let level2: Vec<TileId> = g.all_tiles().filter(|t| t.level == 2).collect();
    vec![
        (vec![], vec![at(1, 0, 0)]),
        (vec![at(2, 0, 0)], vec![]),
        (vec![], vec![]),
        (vec![at(2, 1, 1)], vec![at(2, 1, 1)]),
        (level2.iter().copied().take(5).collect(), vec![at(1, 1, 1)]),
        (
            level2.iter().copied().take(9).collect(),
            vec![at(2, 0, 3), at(1, 1, 0), at(0, 0, 0)],
        ),
        (
            // Everything at the deepest level against a 7-tile ROI —
            // includes bare tiles on both sides.
            level2.clone(),
            level2.iter().copied().step_by(3).take(7).collect(),
        ),
    ]
}

/// Asserts `got` matches `want` pairwise with bit-exact distances.
fn assert_bits(ctx: &str, want: &[(TileId, f64)], got: &[(TileId, f64)]) {
    assert_eq!(want.len(), got.len(), "{ctx}: length");
    for (w, g) in want.iter().zip(got) {
        assert_eq!(w.0, g.0, "{ctx}: candidate order");
        assert_eq!(
            w.1.to_bits(),
            g.1.to_bits(),
            "{ctx}: distance bits for {} ({} vs {})",
            w.0,
            w.1,
            g.1
        );
    }
}

/// Scores one job through `cache` on fresh-or-warm `scratch`.
fn score(
    sb: &SbRecommender,
    index: &fc_tiles::SignatureIndex,
    candidates: &[TileId],
    roi: &[TileId],
    cache: &mut PairCache,
    scratch: &mut PredictScratch,
) -> Vec<(TileId, f64)> {
    let mut out = Vec::new();
    sb.distances_into(index, candidates, roi, cache, scratch, &mut out);
    out
}

/// Runs the fill of `sb` on one (candidates, roi) case in every cache
/// state, alone and after a sibling job on the same cache and scratch,
/// and checks it against the scalar pin and the reference path.
#[allow(clippy::too_many_arguments)]
fn check_case(
    ctx: &str,
    sb: &SbRecommender,
    scalar: &SbRecommender,
    store: &TileStore,
    index: &fc_tiles::SignatureIndex,
    candidates: &[TileId],
    roi: &[TileId],
    cache: &mut PairCache,
) {
    let mut scratch = PredictScratch::default();
    let mut disabled = PairCache::new(0);
    let want = score(scalar, index, candidates, roi, &mut disabled, &mut scratch);

    // The locked reference path is scalar by construction; the frozen
    // index at *any* level must reproduce it bit-for-bit.
    let reference = scalar.distances(store, candidates, roi);
    assert_bits(&format!("{ctx}/reference-vs-scalar"), &reference, &want);

    let got = score(sb, index, candidates, roi, &mut disabled, &mut scratch);
    assert_bits(&format!("{ctx}/disabled-cache"), &want, &got);
    assert_eq!(disabled.stats().hits + disabled.stats().misses, 0);

    // Cached: first call exercises the miss frontier, second the pure
    // hit path; both must match the uncached scalar result.
    for lap in ["miss", "hit"] {
        let got = score(sb, index, candidates, roi, cache, &mut scratch);
        assert_bits(&format!("{ctx}/cached-{lap}"), &want, &got);
    }

    // A second session on the same cache and scratch: a shrunk sibling
    // job runs in between, and the case must come out bit-identical
    // after it.
    let sibling_c: Vec<TileId> = candidates.iter().copied().step_by(2).collect();
    for (what, c) in [("disabled", &mut disabled), ("cached", cache)] {
        score(sb, index, &sibling_c, roi, c, &mut scratch);
        let got = score(sb, index, candidates, roi, c, &mut scratch);
        assert_bits(&format!("{ctx}/after-sibling-{what}"), &want, &got);
    }
}

/// The main grid: {clean, hostile} stores × configs × available levels
/// × shape cases, every entry point, bit-exact.
#[test]
fn sb_entry_points_bit_identical_at_every_level() {
    let g = odd_geometry();
    for (hostile, salt) in [(false, 0x5eed_0001u64), (true, 0x5eed_0002)] {
        let store = synthetic_store(g, salt, hostile);
        let index = store.signature_index().expect("synthetic signatures");
        for (ci, cfg) in configs().into_iter().enumerate() {
            let scalar = SbRecommender::with_simd_level(cfg.clone(), SimdLevel::Scalar);
            for level in fc_simd::available_levels() {
                let sb = SbRecommender::with_simd_level(cfg.clone(), level);
                assert_eq!(sb.simd_level(), level);
                let mut cache = PairCache::for_index(&index);
                for (si, (candidates, roi)) in shape_cases(g).iter().enumerate() {
                    let ctx = format!(
                        "hostile={hostile} cfg#{ci} level={} shape#{si}",
                        level.name()
                    );
                    check_case(
                        &ctx, &sb, &scalar, &store, &index, candidates, roi, &mut cache,
                    );
                }
            }
        }
    }
}

/// `with_simd_level` clamps requests the host cannot serve, so a
/// recommender never dispatches above what is actually available.
#[test]
fn requested_levels_are_clamped_to_host_support() {
    let best = *fc_simd::available_levels().last().expect("scalar exists");
    for want in [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2] {
        let sb = SbRecommender::with_simd_level(SbConfig::all_equal(), want);
        assert!(sb.simd_level() <= best, "never above host support");
        assert!(sb.simd_level() <= want, "never above the request");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pan/zoom walks over a hostile store: at every step the
    /// cached path at each available level must be bit-identical to
    /// the scalar pin, with one long-lived cache per level carrying
    /// hit/miss state across the whole walk.
    #[test]
    fn random_walks_stay_bit_identical(
        salt in any::<u64>(),
        steps in proptest::collection::vec((0usize..6, 0u8..3), 1..14),
    ) {
        let g = odd_geometry();
        let store = synthetic_store(g, salt, true);
        let index = store.signature_index().expect("synthetic signatures");
        let cfg = SbConfig::all_equal();
        let scalar = SbRecommender::with_simd_level(cfg.clone(), SimdLevel::Scalar);
        let levels = fc_simd::available_levels();
        let sbs: Vec<SbRecommender> = levels
            .iter()
            .map(|&l| SbRecommender::with_simd_level(cfg.clone(), l))
            .collect();
        let mut caches: Vec<PairCache> =
            levels.iter().map(|_| PairCache::for_index(&index)).collect();
        let mut scratch = PredictScratch::default();
        let mut disabled = PairCache::new(0);

        let mut anchor = TileId::new(2, 0, 0);
        for (mv, roi_code) in steps {
            let (rows, cols) = g.tiles_at(anchor.level);
            anchor = match mv {
                0 => TileId::new(anchor.level, anchor.y, (anchor.x + 1).min(cols - 1)),
                1 => TileId::new(anchor.level, anchor.y, anchor.x.saturating_sub(1)),
                2 => TileId::new(anchor.level, (anchor.y + 1).min(rows - 1), anchor.x),
                3 => TileId::new(anchor.level, anchor.y.saturating_sub(1), anchor.x),
                4 if anchor.level + 1 < g.levels => {
                    TileId::new(anchor.level + 1, anchor.y * 2, anchor.x * 2)
                }
                _ if anchor.level > 0 => {
                    TileId::new(anchor.level - 1, anchor.y / 2, anchor.x / 2)
                }
                _ => anchor,
            };
            let candidates = g.candidates(anchor, 1);
            let roi: Vec<TileId> = match roi_code {
                0 => vec![],
                1 => vec![anchor],
                _ => g.candidates(anchor, 2).into_iter().step_by(4).collect(),
            };
            let want = score(&scalar, &index, &candidates, &roi, &mut disabled, &mut scratch);
            for (i, sb) in sbs.iter().enumerate() {
                let got = score(sb, &index, &candidates, &roi, &mut caches[i], &mut scratch);
                prop_assert_eq!(want.len(), got.len());
                for (w, o) in want.iter().zip(&got) {
                    prop_assert_eq!(w.0, o.0);
                    prop_assert_eq!(
                        w.1.to_bits(), o.1.to_bits(),
                        "level {} at {}", levels[i].name(), anchor
                    );
                }
            }
        }
    }
}
