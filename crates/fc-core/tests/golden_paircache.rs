//! Golden regression tests for the epoch-stamped χ² pair cache: the
//! cached steady-state path must be indistinguishable from the locked
//! reference path — bit-identical distances, not just the same ranking
//! — across cache **hits**, **misses**, and **epoch invalidations**,
//! on a real pyramid with all four signatures attached. A disabled
//! cache (`PairCache::new(0)`) and a cache-rejected domain (five
//! weighted signatures) run the same fill and are held to the same
//! bits.

use fc_array::{DenseArray, Schema};
use fc_core::paircache::PairCache;
use fc_core::sb::{PredictScratch, SbConfig, SbRecommender};
use fc_core::signature::{attach_signatures, SignatureConfig, SignatureKind};
use fc_core::{BatchConfig, PredictScheduler};
use fc_tiles::{Pyramid, PyramidBuilder, PyramidConfig, TileId};
use std::sync::Arc;

/// A deterministic 128×128 terrain with enough structure that the four
/// signatures disagree between tiles (same seed as `golden_sb.rs`).
fn seeded_pyramid() -> Arc<Pyramid> {
    terrain_pyramid(128, 3, 32)
}

/// [`seeded_pyramid`]'s terrain at any size: `levels` levels of
/// `tile`-cell tiles over a `side`×`side` array, signatures attached.
fn terrain_pyramid(side: usize, levels: u8, tile: usize) -> Arc<Pyramid> {
    let schema = Schema::grid2d("G", side, side, &["v"]).unwrap();
    let data: Vec<f64> = (0..side * side)
        .map(|i| {
            let y = (i / side) as f64;
            let x = (i % side) as f64;
            ((x * 0.17).sin() * (y * 0.11).cos()).abs() * 0.8 + (x + y) / (4.0 * side as f64)
        })
        .collect();
    let base = DenseArray::from_vec(schema, data).unwrap();
    let pyramid = Arc::new(
        PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(levels, tile, &["v"]))
            .unwrap(),
    );
    let mut cfg = SignatureConfig::ndsi("v");
    cfg.domain = (0.0, 1.0);
    attach_signatures(&pyramid, &cfg);
    pyramid
}

fn level2(cols: std::ops::Range<u32>) -> Vec<TileId> {
    (0..4u32)
        .flat_map(|y| cols.clone().map(move |x| TileId::new(2, y, x)))
        .collect()
}

fn assert_bits(reference: &[(TileId, f64)], got: &[(TileId, f64)], what: &str) {
    assert_eq!(reference.len(), got.len(), "{what}: length");
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(r.0, g.0, "{what}: candidate order");
        assert_eq!(
            r.1.to_bits(),
            g.1.to_bits(),
            "{what}: {:?} {} vs {}",
            r.0,
            r.1,
            g.1
        );
    }
}

/// Scores one job through `cache`.
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

#[test]
fn cached_path_bit_identical_across_hits_misses_and_epochs() {
    let pyramid = seeded_pyramid();
    let store = pyramid.store();
    let sb = SbRecommender::new(SbConfig::all_equal());
    let index = store.signature_index().expect("signatures attached");
    let mut cache = PairCache::for_index(&index);
    let mut scratch = PredictScratch::default();

    // Cold request: every pair misses; bits must match the reference.
    let cands = level2(0..3);
    let roi = [
        TileId::new(2, 0, 0),
        TileId::new(2, 3, 3),
        TileId::new(1, 1, 1),
    ];
    let reference = sb.distances(store, &cands, &roi);
    let out = score(&sb, &index, &cands, &roi, &mut cache, &mut scratch);
    assert_bits(&reference, &out, "cold fill");
    let s0 = cache.stats();
    assert_eq!(s0.hits, 0, "cold cache cannot hit");
    assert_eq!(s0.misses, (cands.len() * roi.len()) as u64);

    // Warm repeat: pure hits, identical bits.
    let out = score(&sb, &index, &cands, &roi, &mut cache, &mut scratch);
    assert_bits(&reference, &out, "warm repeat");
    let s1 = cache.stats();
    assert_eq!(s1.misses, s0.misses, "repeat adds no misses");
    assert_eq!(s1.hits, s0.misses, "repeat hits every pair");

    // Pan step: partial overlap — mixed hits and misses, identical bits.
    let panned = level2(1..4);
    let reference_pan = sb.distances(store, &panned, &roi);
    let out = score(&sb, &index, &panned, &roi, &mut cache, &mut scratch);
    assert_bits(&reference_pan, &out, "pan step");
    let s2 = cache.stats();
    assert!(s2.hits > s1.hits, "pan overlap must hit");
    assert!(s2.misses > s1.misses, "pan frontier must miss");

    // Epoch bump: rewrite one tile's histogram; the rebuilt index must
    // invalidate the cache (generation stamp) and the next fill must
    // match the *new* reference bit-for-bit.
    store.put_meta(
        TileId::new(2, 0, 0),
        SignatureKind::Hist1D.meta_name(),
        vec![0.5; 16],
    );
    let index2 = store.signature_index().expect("rebuilt");
    let reference_new = sb.distances(store, &cands, &roi);
    let out = score(&sb, &index2, &cands, &roi, &mut cache, &mut scratch);
    assert_bits(&reference_new, &out, "post-epoch fill");
    let s3 = cache.stats();
    assert_eq!(s3.invalidations, 1, "index rebuild bumps the generation");
    assert_eq!(
        s3.misses - s2.misses,
        (cands.len() * roi.len()) as u64,
        "everything misses after invalidation"
    );

    // And the generation survives: repeating under the new epoch hits.
    let out = score(&sb, &index2, &cands, &roi, &mut cache, &mut scratch);
    assert_bits(&reference_new, &out, "post-epoch repeat");
    let s4 = cache.stats();
    assert!(s4.hits > s3.hits);

    // A different key set on the same cache is a different domain: it
    // invalidates instead of reading the four-signature slots.
    let sift = SbRecommender::new(SbConfig::single(SignatureKind::Sift));
    let reference_sift = sift.distances(store, &cands, &roi);
    let out = score(&sift, &index2, &cands, &roi, &mut cache, &mut scratch);
    assert_bits(&reference_sift, &out, "key-set switch");
    assert_eq!(cache.stats().invalidations, 2);
    assert_eq!(cache.stats().hits, s4.hits, "nothing carries over");

    // A disabled cache never hits and never counts, on the same bits.
    let mut disabled = PairCache::new(0);
    for lap in ["first", "repeat"] {
        let out = score(&sb, &index2, &cands, &roi, &mut disabled, &mut scratch);
        assert_bits(&reference_new, &out, &format!("disabled cache, {lap}"));
    }
    assert_eq!(disabled.stats(), Default::default());

    // Five weighted signatures exceed what a slot holds: a live cache
    // rejects the domain and the fill computes every pair, each time.
    let mut cfg = SbConfig::all_equal();
    cfg.weights.push((SignatureKind::Hist1D, 0.25));
    let five = SbRecommender::new(cfg);
    let reference_five = five.distances(store, &cands, &roi);
    let before = cache.stats();
    for lap in ["first", "repeat"] {
        let out = score(&five, &index2, &cands, &roi, &mut cache, &mut scratch);
        assert_bits(&reference_five, &out, &format!("five signatures, {lap}"));
    }
    let after = cache.stats();
    assert_eq!((after.hits, after.misses), (before.hits, before.misses));
}

#[test]
fn batched_cached_jobs_match_solo_reference() {
    let pyramid = seeded_pyramid();
    let store = pyramid.store();
    let sb = SbRecommender::new(SbConfig::all_equal());
    let index = store.signature_index().unwrap();
    let mut cache = PairCache::for_index(&index);
    let mut scratch = PredictScratch::default();

    let c1 = level2(0..2);
    let c2 = level2(1..4);
    let c3 = vec![TileId::new(1, 0, 0), TileId::new(1, 1, 1)];
    let r1 = [TileId::new(2, 1, 1)];
    let r2 = [TileId::new(2, 1, 1), TileId::new(2, 2, 2)];
    let r3 = [TileId::new(1, 0, 1)];
    let jobs: [(&[TileId], &[TileId]); 3] = [(&c1, &r1), (&c2, &r2), (&c3, &r3)];
    // Three "sessions" take turns on one cache and one scratch, twice:
    // the first lap fills (jobs overlap, so a later job may already
    // hit pairs an earlier one wrote), the second is all-hit. Both must
    // be bit-identical to the solo reference.
    for lap in 0..2 {
        for (j, &(candidates, roi)) in jobs.iter().enumerate() {
            let out = score(&sb, &index, candidates, roi, &mut cache, &mut scratch);
            let reference = sb.distances(store, candidates, roi);
            assert_bits(&reference, &out, &format!("lap {lap} job {j}"));
        }
    }
    assert!(cache.stats().hits > 0);
}

#[test]
fn scheduler_shares_pairs_across_sessions() {
    let pyramid = seeded_pyramid();
    let sched = PredictScheduler::new(
        SbRecommender::new(SbConfig::all_equal()),
        pyramid.clone(),
        BatchConfig::default(),
    );
    let cands = level2(0..4);
    let refs = [TileId::new(2, 2, 2)];
    // "Session A" computes the pairs…
    let a = sched.rank(&cands, &refs);
    let after_a = sched.pair_cache_stats();
    assert_eq!(after_a.hits, 0);
    assert!(after_a.misses > 0);
    // …and "session B" (a later tick over the same neighbourhood)
    // rides them: all hits, same ranking as the solo fast path.
    let b = sched.rank(&cands, &refs);
    let after_b = sched.pair_cache_stats();
    assert_eq!(after_b.misses, after_a.misses);
    assert_eq!(after_b.hits, after_a.misses);
    assert_eq!(a, b);
    // Cross-check against the fill with a disabled cache.
    let sb = SbRecommender::new(SbConfig::all_equal());
    let ix = pyramid.store().signature_index().unwrap();
    let mut out = score(
        &sb,
        &ix,
        &cands,
        &refs,
        &mut PairCache::new(0),
        &mut PredictScratch::default(),
    );
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    let solo: Vec<TileId> = out.into_iter().map(|(t, _)| t).collect();
    assert_eq!(a, solo);
}

/// Growth is invisible: a level-wide serpentine with ROI re-commits
/// fills far more pairs than a table starts with, and every step's
/// distances are the disabled cache's, bit for bit. The table only
/// ever gets larger, never past the size it was asked for, and a
/// mid-walk epoch bump invalidates it without resizing it.
#[test]
fn growth_walk_is_bit_identical_to_the_disabled_fill() {
    const CEILING: usize = 1 << 16;
    // 1 + 4 + 16 + 64 + 256 tiles; the walk covers the deepest level.
    let pyramid = terrain_pyramid(256, 5, 16);
    let (store, g) = (pyramid.store(), pyramid.geometry());
    let sb = SbRecommender::new(SbConfig::all_equal());
    let mut index = store.signature_index().expect("signatures attached");
    let mut cache = PairCache::new(CEILING);
    let mut disabled = PairCache::new(0);
    let mut scratch = PredictScratch::default();

    let (rows, cols) = g.tiles_at(4);
    let walk: Vec<TileId> = (0..rows)
        .flat_map(|y| {
            (0..cols).map(move |i| TileId::new(4, y, if y % 2 == 0 { i } else { cols - 1 - i }))
        })
        .collect();
    let bump_at = walk.len() * 3 / 4;
    let mut roi = Vec::new();
    let (mut capacity, mut doublings) = (cache.capacity(), 0);
    for (step, &at) in walk.iter().enumerate() {
        // Re-commit the ROI every sixth step: the 4×4 block around the
        // current tile, clamped to the level.
        if step % 6 == 0 {
            let (y0, x0) = (at.y.min(rows - 4), at.x.min(cols - 4));
            roi = (y0..y0 + 4)
                .flat_map(|y| (x0..x0 + 4).map(move |x| TileId::new(4, y, x)))
                .collect();
        }
        if step == bump_at {
            let before = (cache.capacity(), cache.stats());
            store.put_meta(at, SignatureKind::Hist1D.meta_name(), vec![0.5; 16]);
            index = store.signature_index().expect("rebuilt");
            let cands = g.candidates(at, 2);
            let reference = score(&sb, &index, &cands, &roi, &mut disabled, &mut scratch);
            let out = score(&sb, &index, &cands, &roi, &mut cache, &mut scratch);
            assert_bits(&reference, &out, "epoch bump");
            // Nothing carries over: each unordered pair of the fill
            // misses once (a candidate that is also an ROI tile meets
            // its mirror pair later in the same fill, and hits).
            let mut pairs: Vec<(TileId, TileId)> = cands
                .iter()
                .flat_map(|&c| roi.iter().map(move |&r| (c.min(r), c.max(r))))
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let after = cache.stats().since(before.1);
            assert_eq!(after.invalidations, 1);
            assert_eq!(after.misses, pairs.len() as u64, "every pair recomputed");
            assert_eq!(cache.capacity(), before.0, "a bump keeps the table");
        }
        let cands = g.candidates(at, 2);
        let reference = score(&sb, &index, &cands, &roi, &mut disabled, &mut scratch);
        let out = score(&sb, &index, &cands, &roi, &mut cache, &mut scratch);
        assert_bits(&reference, &out, &format!("step {step} at {at:?}"));
        assert!(
            cache.capacity() >= capacity,
            "step {step}: a table never shrinks"
        );
        assert!(cache.capacity() <= CEILING, "step {step}: past its ceiling");
        doublings += usize::from(cache.capacity() > capacity);
        capacity = cache.capacity();
    }
    let stats = cache.stats();
    assert!(stats.hits > stats.misses, "a serpentine revisits its pairs");
    assert!(stats.misses > 8192, "enough distinct pairs to outgrow 2^13");
    assert!(doublings >= 3, "the table doubled {doublings} times");
}
