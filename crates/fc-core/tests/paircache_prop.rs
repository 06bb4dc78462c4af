//! Property test for the χ² pair cache: replay random pan/zoom
//! sequences — with metadata-epoch bumps mid-sequence and a second
//! session's jobs interleaved — against one long-lived cache, and
//! assert that every result is bit-identical to the locked reference
//! path [`SbRecommender::distances`] — through a live cache of fixed
//! size, one that grows, a disabled one, and one whose domain (five
//! weighted signatures) it rejects.

use fc_array::{IoMode, LatencyModel, SimClock};
use fc_core::paircache::PairCache;
use fc_core::sb::{PredictScratch, SbConfig, SbRecommender};
use fc_core::signature::{SignatureKind, SIGNATURE_KINDS};
use fc_tiles::{Geometry, TileId, TileStore};
use proptest::prelude::*;

/// Small deterministic value stream (xorshift64*), non-negative like
/// real histogram signatures.
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

/// Per-kind signature widths — mixed on purpose (NormalDist is 2-wide).
fn kind_dim(kind: SignatureKind) -> usize {
    match kind {
        SignatureKind::NormalDist => 2,
        _ => 8,
    }
}

/// A 4-level store with synthetic signatures on *most* tiles (every
/// 11th tile is left bare, so "missing metadata" pairs stay covered).
fn synthetic_store(g: Geometry, salt: u64) -> TileStore {
    let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
    for (i, id) in g.all_tiles().enumerate() {
        if i % 11 == 10 {
            continue;
        }
        for (k, kind) in SIGNATURE_KINDS.iter().enumerate() {
            let seed = salt
                ^ (u64::from(id.level) << 40)
                ^ (u64::from(id.y) << 20)
                ^ u64::from(id.x)
                ^ ((k as u64) << 56);
            s.put_meta(id, kind.meta_name(), sig_values(seed, kind_dim(*kind)));
        }
    }
    s
}

/// Applies one walk step to an anchor, clamped to the geometry.
fn step_anchor(g: Geometry, t: TileId, code: usize) -> TileId {
    let (rows, cols) = g.tiles_at(t.level);
    match code {
        0 => TileId::new(t.level, t.y, (t.x + 1).min(cols - 1)),
        1 => TileId::new(t.level, t.y, t.x.saturating_sub(1)),
        2 => TileId::new(t.level, (t.y + 1).min(rows - 1), t.x),
        3 => TileId::new(t.level, t.y.saturating_sub(1), t.x),
        // Zoom in (deeper level, child coordinates) / zoom out.
        4 if t.level + 1 < g.levels => TileId::new(t.level + 1, t.y * 2, t.x * 2),
        _ if t.level > 0 => TileId::new(t.level - 1, t.y / 2, t.x / 2),
        _ => t,
    }
}

/// The reference set for a step: varies between empty-ish (the anchor
/// itself), a same-level block, and a cross-level mix.
fn roi_for(g: Geometry, t: TileId, code: u8) -> Vec<TileId> {
    match code {
        0 => vec![t],
        1 => {
            let (rows, cols) = g.tiles_at(t.level);
            vec![
                t,
                TileId::new(t.level, t.y, (t.x + 1).min(cols - 1)),
                TileId::new(t.level, (t.y + 1).min(rows - 1), t.x),
            ]
        }
        2 => vec![TileId::new(t.level.saturating_sub(1), t.y / 2, t.x / 2), t],
        // Includes an out-of-geometry tile: must rank as missing
        // everywhere, cached or not.
        _ => vec![t, TileId::new(7, 0, 0)],
    }
}

fn assert_bits(reference: &[(TileId, f64)], got: &[(TileId, f64)], what: &str) {
    assert_eq!(reference.len(), got.len(), "{what}");
    for (r, g) in reference.iter().zip(got) {
        assert_eq!(r.0, g.0, "{what}");
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

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Every step of a random pan/zoom replay — including epoch bumps
    /// and a second session's turns — is bit-identical to the reference
    /// path, in every (recommender, long-lived cache) column.
    #[test]
    fn random_walk_exact_is_bit_identical(
        steps in proptest::collection::vec((0usize..6, 0u8..4), 1..20),
        salt in any::<u64>(),
    ) {
        let g = Geometry::new(4, 128, 128, 16, 16);
        let store = synthetic_store(g, salt);
        let mut five = SbConfig::all_equal();
        five.weights.push((SignatureKind::Hist1D, 0.5));
        // Live cache at its full size from the start; disabled cache;
        // live cache that rejects the domain (more signatures than a
        // slot holds); live cache with room to grow.
        let mut columns = [
            (SbRecommender::new(SbConfig::all_equal()), PairCache::new(1 << 12)),
            (SbRecommender::new(SbConfig::all_equal()), PairCache::new(0)),
            (SbRecommender::new(five), PairCache::new(1 << 12)),
            (SbRecommender::new(SbConfig::all_equal()), PairCache::new(1 << 16)),
        ];
        let mut scratch = PredictScratch::default();
        let mut out = Vec::new();
        // A survey before the walk — every tile against the deepest
        // level, some 3,400 distinct pairs — so the walk runs on tables that
        // have evicted (the fixed one) and grown (the last one).
        let everything: Vec<TileId> = g.all_tiles().collect();
        let deepest = &everything[everything.len() - 64..];
        let index = store.signature_index().expect("synthetic metadata");
        for (c, (sb, cache)) in columns.iter_mut().enumerate() {
            sb.distances_into(&index, &everything, deepest, cache, &mut scratch, &mut out);
            let reference = sb.distances(&store, &everything, deepest);
            assert_bits(&reference, &out, &format!("column {c} survey"));
        }
        prop_assert!(columns[3].1.capacity() > 1 << 12, "the survey outgrew the first table");
        let mut anchor = TileId::new(2, 1, 1);
        for (i, &(mv, roi_code)) in steps.iter().enumerate() {
            anchor = step_anchor(g, anchor, mv);
            // Mid-sequence epoch bump: rewrite one tile's histogram,
            // forcing an index rebuild the cache must track.
            if i % 5 == 4 {
                let vals = sig_values(salt ^ (i as u64) << 32, 8);
                store.put_meta(anchor, SignatureKind::Hist1D.meta_name(), vals);
            }
            let index = store.signature_index().expect("synthetic metadata");
            let cands = g.candidates(anchor, 1);
            let roi = roi_for(g, anchor, roi_code);
            // Every 7th step a second, shifted session takes its turn
            // on the same cache and scratch.
            let other = step_anchor(g, anchor, (mv + 1) % 4);
            let cands2 = g.candidates(other, 1);
            let roi2 = roi_for(g, other, (roi_code + 1) % 4);
            let jobs: [(&[TileId], &[TileId]); 2] = [(&cands, &roi), (&cands2, &roi2)];
            let jobs = if i % 7 == 3 { &jobs[..] } else { &jobs[..1] };
            for (c, (sb, cache)) in columns.iter_mut().enumerate() {
                for (j, &(candidates, roi)) in jobs.iter().enumerate() {
                    sb.distances_into(&index, candidates, roi, cache, &mut scratch, &mut out);
                    let reference = sb.distances(&store, candidates, roi);
                    assert_bits(&reference, &out, &format!("column {c} step {i} job {j}"));
                }
            }
        }
        let probes = |c: &PairCache| c.stats().hits + c.stats().misses;
        prop_assert!(probes(&columns[0].1) > 0, "walk exercised the cache");
        prop_assert_eq!(probes(&columns[1].1), 0, "a disabled cache serves no probes");
        prop_assert_eq!(probes(&columns[2].1), 0, "a rejected domain serves no probes");
        prop_assert!(probes(&columns[3].1) > 0, "walk exercised the growing cache");
    }
}
