//! Steady-state SB prediction: the pair-cache experiment.
//!
//! `exp_perf_baseline` measures one isolated SB distance computation;
//! this experiment measures what interactive sessions actually do —
//! **sequences** of requests whose (candidate, ROI) pairs overlap
//! heavily (pan by one tile ⇒ 56 of 64 candidates carry over). It
//! replays a serpentine pan walk with periodic zoom excursions at the
//! acceptance shape (4 signatures × 64 candidates × 16 ROI) and
//! compares:
//!
//! * `sb_steady_uncached_ns` — the frozen-index fill
//!   ([`SbRecommender::distances_into`]) with a *disabled* pair cache
//!   (`PairCache::new(0)`): every probe misses, so every χ² division
//!   re-runs each request;
//! * `sb_steady_cached_ns` — the same fill through a live pair cache
//!   after one warm-up lap: probes for hits, χ² only over the miss
//!   frontier;
//! * `sb_cold_uncached_ns` / `sb_cold_cached_ns` — a single
//!   first-ever request (fresh scratch, allocated-but-empty cache):
//!   the cache's worst case — it pays the χ² sweep *plus* populating
//!   one table line per pair. This happens once per session (and
//!   after offline metadata rewrites, which §2.3 puts outside user
//!   traffic); every later request amortizes it. Compare against
//!   `sb_cold_uncached_ns` (same single-shot measurement style), not
//!   the warm-loop `sb_distances_indexed_ns`;
//! * `sb_steady_cached_scalar_ns` — the exact cached path pinned to
//!   [`SimdLevel::Scalar`] dispatch (own cache, own warm lap), so the
//!   JSON records what the SIMD kernels buy on this host.
//!
//! Results merge into `BENCH_predict.json` next to the baseline
//! fields. `--smoke` runs one short iteration of everything and skips
//! the JSON write (CI wiring check).
//!
//! [`SimdLevel::Scalar`]: fc_core::SimdLevel

use fc_array::{IoMode, LatencyModel, SimClock};
use fc_bench::benchjson::{merge_bench_json, summary_line};
use fc_core::paircache::PairCache;
use fc_core::sb::{PredictScratch, SbConfig, SbRecommender};
use fc_core::signature::SignatureKind;
use fc_core::SimdLevel;
use fc_tiles::{Geometry, SignatureIndex, TileId, TileStore};
use std::time::Instant;

/// Candidate block side (8×8 = 64 candidates, the acceptance shape).
const CAND_SIDE: u32 = 8;
/// ROI block side (4×4 = 16 reference tiles).
const ROI_SIDE: u32 = 4;

/// A deterministic non-negative signature vector (xorshift64*).
fn sig_values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        })
        .collect();
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        for x in &mut v {
            *x /= total;
        }
    }
    v
}

/// 5-level pyramid-shaped store with synthetic signatures mirroring the
/// ndsi config's widths (NormalDist 2, Hist1D/SIFT/denseSIFT 16). The
/// χ² cost per pair — the quantity under test — depends on these
/// widths, not on how the vectors were produced, so the offline vision
/// pipeline is skipped.
fn steady_store() -> TileStore {
    let g = Geometry::new(5, 512, 512, 32, 32);
    let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
    for id in g.all_tiles() {
        for (k, kind) in fc_core::signature::SIGNATURE_KINDS.iter().enumerate() {
            let dim = match kind {
                SignatureKind::NormalDist => 2,
                _ => 16,
            };
            let seed = (u64::from(id.level) << 48)
                ^ (u64::from(id.y) << 28)
                ^ (u64::from(id.x) << 8)
                ^ k as u64;
            s.put_meta(id, kind.meta_name(), sig_values(seed, dim));
        }
    }
    s
}

/// One request of the replay: 64 candidates scored against 16 ROI.
struct Step {
    candidates: Vec<TileId>,
    roi: Vec<TileId>,
}

fn block(level: u8, y0: u32, x0: u32, side: u32) -> Vec<TileId> {
    (0..side)
        .flat_map(|dy| (0..side).map(move |dx| TileId::new(level, y0 + dy, x0 + dx)))
        .collect()
}

/// The pan/zoom replay: a serpentine walk of the candidate block over
/// level 4 (one-tile steps ⇒ 87.5 % candidate overlap), with a zoom
/// excursion to level 3 every 24th step (a cold-ish request mid-walk,
/// as a real zoom-out is). The ROI block is a committed region at
/// level 3 and moves every 12th step — users re-commit regions far
/// less often than they pan. Mean pair overlap between consecutive
/// steps lands just under 80 % (reported in the JSON).
fn build_walk(g: Geometry, steps: usize) -> Vec<Step> {
    let (rows4, cols4) = g.tiles_at(4);
    let span_y = rows4 - CAND_SIDE; // inclusive anchor range
    let span_x = cols4 - CAND_SIDE;
    let mut walk = Vec::with_capacity(steps);
    let (mut y, mut x) = (0u32, 0u32);
    let mut right = true;
    let mut roi_x = 0u32;
    for i in 0..steps {
        if i > 0 {
            if right && x < span_x {
                x += 1;
            } else if !right && x > 0 {
                x -= 1;
            } else if y < span_y {
                y += 1;
                right = !right;
            } else {
                y = 0;
            }
        }
        if i % 12 == 11 {
            roi_x = (roi_x + 1) % (g.tiles_at(3).1 - ROI_SIDE + 1);
        }
        let roi = block(3, 2, roi_x, ROI_SIDE);
        let candidates = if i % 24 == 23 {
            // Zoom excursion: the whole coarser level (also 8×8).
            block(3, 0, 0, CAND_SIDE)
        } else {
            block(4, y, x, CAND_SIDE)
        };
        walk.push(Step { candidates, roi });
    }
    walk
}

/// Mean (candidate, ROI)-pair overlap between consecutive steps.
fn mean_pair_overlap(walk: &[Step]) -> f64 {
    let mut total = 0.0;
    for w in walk.windows(2) {
        let cand_shared = w[1]
            .candidates
            .iter()
            .filter(|c| w[0].candidates.contains(c))
            .count();
        let roi_shared = w[1].roi.iter().filter(|r| w[0].roi.contains(r)).count();
        let pairs = w[1].candidates.len() * w[1].roi.len();
        total += (cand_shared * roi_shared) as f64 / pairs as f64;
    }
    total / (walk.len() - 1) as f64
}

/// Median of raw samples.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// One request through the fill.
fn score(
    sb: &SbRecommender,
    index: &SignatureIndex,
    step: &Step,
    cache: &mut PairCache,
    scratch: &mut PredictScratch,
    out: &mut Vec<(TileId, f64)>,
) {
    sb.distances_into(index, &step.candidates, &step.roi, cache, scratch, out);
    std::hint::black_box(&out);
}

/// Per-step ns for one full lap over `cache` (a disabled cache makes
/// it the uncached lap).
fn lap(
    sb: &SbRecommender,
    index: &SignatureIndex,
    walk: &[Step],
    cache: &mut PairCache,
    scratch: &mut PredictScratch,
    out: &mut Vec<(TileId, f64)>,
) -> f64 {
    let t = Instant::now();
    for step in walk {
        score(sb, index, step, cache, scratch, out);
    }
    t.elapsed().as_nanos() as f64 / walk.len() as f64
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (walk_len, rounds) = if smoke { (24, 1) } else { (96, 9) };

    let store = steady_store();
    let g = store.geometry();
    let index = store.signature_index().expect("synthetic signatures");
    let walk = build_walk(g, walk_len);
    let overlap = mean_pair_overlap(&walk);

    let simd = fc_simd::active_level();
    let exact = SbRecommender::new(SbConfig::all_equal());
    // Scalar-pinned twin of `exact`: same walk, own cache, so the
    // steady-state delta is exactly what the SIMD dispatch buys.
    let scalar = SbRecommender::with_simd_level(SbConfig::all_equal(), SimdLevel::Scalar);

    let mut scratch = PredictScratch::default();
    let mut out = Vec::new();
    let mut no_cache = PairCache::new(0);
    let mut cache = PairCache::for_index(&index);
    let mut cache_scalar = PairCache::for_index(&index);

    // Interleaved rounds (uncached vs cached vs scalar per round,
    // per-path median across rounds) so slow container neighbours
    // shift every path together. Warm the cached paths once before
    // the measured laps.
    lap(&exact, &index, &walk, &mut cache, &mut scratch, &mut out);
    lap(
        &scalar,
        &index,
        &walk,
        &mut cache_scalar,
        &mut scratch,
        &mut out,
    );
    let mut uncached_ns = Vec::new();
    let mut cached_ns = Vec::new();
    let mut cached_scalar_ns = Vec::new();
    let mut repeat_ns = Vec::new();
    let mut hit_rates = Vec::new();
    let dwell = std::slice::from_ref(&walk[walk.len() / 2]);
    for _ in 0..rounds {
        uncached_ns.push(lap(
            &exact,
            &index,
            &walk,
            &mut no_cache,
            &mut scratch,
            &mut out,
        ));
        let before = cache.stats();
        cached_ns.push(lap(
            &exact,
            &index,
            &walk,
            &mut cache,
            &mut scratch,
            &mut out,
        ));
        hit_rates.push(cache.stats().since(before).hit_rate());
        // Dwell: the same request re-predicted 32× (pure hits, hot
        // table lines) — the pan-pause steady state.
        let t = Instant::now();
        for _ in 0..32 {
            lap(&exact, &index, dwell, &mut cache, &mut scratch, &mut out);
        }
        repeat_ns.push(t.elapsed().as_nanos() as f64 / 32.0);
        cached_scalar_ns.push(lap(
            &scalar,
            &index,
            &walk,
            &mut cache_scalar,
            &mut scratch,
            &mut out,
        ));
    }

    // Cold first request: fresh scratch, single call, median across
    // rounds — once with the disabled cache, once with a fresh one.
    let first = &walk[0];
    let mut cold_uncached = Vec::new();
    let mut cold_cached = Vec::new();
    for _ in 0..rounds.max(3) {
        let mut s = PredictScratch::default();
        let t = Instant::now();
        score(&exact, &index, first, &mut no_cache, &mut s, &mut out);
        cold_uncached.push(t.elapsed().as_nanos() as f64);

        // Allocation happens once per session (engine construction /
        // index refresh), outside the request path; "cold" is the
        // first *fill* of an allocated-but-empty cache — the state
        // every epoch invalidation also returns to (generation bumps
        // never reallocate or clear).
        let mut c = PairCache::for_index(&index);
        let mut s = PredictScratch::default();
        let t = Instant::now();
        score(&exact, &index, first, &mut c, &mut s, &mut out);
        cold_cached.push(t.elapsed().as_nanos() as f64);
    }

    let uncached = median(uncached_ns);
    let cached = median(cached_ns);
    let cached_scalar = median(cached_scalar_ns);
    let repeat = median(repeat_ns);
    let hit_rate = median(hit_rates);
    let (cu, cc) = (median(cold_uncached), median(cold_cached));

    println!(
        "# exp_predict_steady — pair-cached SB prediction (pan/zoom replay, simd: {})",
        simd.name()
    );
    println!();
    println!(
        "shape: 4 sigs x 64 cand x 16 roi, walk {} steps, pair overlap {:.1}%",
        walk.len(),
        overlap * 100.0
    );
    println!("steady-state per request:");
    println!(
        "{}  (hit rate {:.1}%)",
        summary_line("  uncached -> cache", uncached, cached),
        hit_rate * 100.0
    );
    println!(
        "{}",
        summary_line("  scalar -> simd", cached_scalar, cached)
    );
    println!("{}", summary_line("  uncached -> dwell", uncached, repeat));
    println!("cold first request:");
    println!("  uncached                : {cu:>10.0} ns");
    println!(
        "  pair cache              : {cc:>10.0} ns  ({:.2}x of uncached)",
        cc / cu
    );

    if smoke {
        println!();
        println!("--smoke: skipping BENCH_predict.json");
        return;
    }
    merge_bench_json(
        "BENCH_predict.json",
        "predict_hot_path",
        &[
            (
                "steady_shape",
                format!(
                    "{{\"signatures\": 4, \"candidates\": 64, \"roi\": 16, \"walk_steps\": {}, \"pair_overlap\": {:.3}}}",
                    walk.len(),
                    overlap
                ),
            ),
            ("simd_level", format!("\"{}\"", simd.name())),
            ("sb_steady_uncached_ns", format!("{uncached:.1}")),
            ("sb_steady_cached_ns", format!("{cached:.1}")),
            ("sb_steady_speedup", format!("{:.2}", uncached / cached)),
            ("sb_steady_hit_rate", format!("{hit_rate:.4}")),
            ("sb_steady_cached_scalar_ns", format!("{cached_scalar:.1}")),
            (
                "sb_steady_simd_speedup",
                format!("{:.2}", cached_scalar / cached),
            ),
            ("sb_cold_uncached_ns", format!("{cu:.1}")),
            ("sb_cold_cached_ns", format!("{cc:.1}")),
        ],
    );
    println!();
    println!("merged steady-state fields into BENCH_predict.json");
}
