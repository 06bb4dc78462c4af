//! Performance baseline: the numbers future perf PRs must beat.
//!
//! Measures the prediction hot path at three layers and writes
//! `BENCH_predict.json`, then the tile-serving data path (regrid,
//! pyramid build, signature attachment, tile wire codec, end-to-end
//! middleware requests) against the seed implementations and writes
//! `BENCH_datapath.json`.
//!
//! Prediction measurements:
//!
//! * `sb_distances_*_ns` — Algorithm 3 at the acceptance shape
//!   (4 signatures × 64 candidates × 16 ROI tiles): the seed
//!   implementation (string-keyed clone-per-pair store, reproduced
//!   verbatim), the retained `meta_vec` reference path, and the frozen
//!   [`fc_tiles::SignatureIndex`] fill with a disabled pair cache
//!   (every pair computed);
//! * `engine_predict_per_s` — steady-state two-level
//!   `PredictionEngine::predict` throughput (k = 5);
//! * `middleware_requests_per_s` — full `Middleware::request` cycles
//!   (cache + predict + prefetch) over a scripted pan walk.
//!
//! Measurements interleave the compared paths round-robin and keep the
//! per-round median, so slow container neighbours shift all paths
//! together instead of skewing one ratio.
//!
//! `--smoke` runs a single short iteration of every measured path and
//! skips the JSON writes — a CI wiring check that fails the build when
//! hot-path plumbing breaks, without overwriting recorded numbers.

use fc_array::{regrid_with, AggFn, DenseArray, Schema};
use fc_bench::benchjson::{merge_bench_json, summary_line};
use fc_bench::seed_baseline::{
    sb_distances_seed, seed_attach_signatures, seed_build_pyramid, seed_decode_server_msg,
    seed_encode_server_msg, seed_regrid_with, SeedMetaStore,
};
use fc_core::engine::PhaseSource;
use fc_core::paircache::PairCache;
use fc_core::sb::{PredictScratch, SbConfig, SbRecommender};
use fc_core::signature::{attach_signatures, SignatureConfig};
use fc_core::{
    AbRecommender, AllocationStrategy, EngineConfig, LatencyProfile, Middleware, PredictionEngine,
    Request,
};
use fc_tiles::{Move, Pyramid, PyramidBuilder, PyramidConfig, TileId};
use std::time::Instant;

/// Median ns/iter over `rounds` timed batches of `iters` calls.
fn measure<F: FnMut()>(rounds: usize, iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| b.total_cmp(a));
    samples[samples.len() / 2]
}

fn signature_pyramid() -> std::sync::Arc<Pyramid> {
    let side = 256;
    let schema = Schema::grid2d("B", side, side, &["v"]).expect("schema");
    let data: Vec<f64> = (0..side * side)
        .map(|i| ((i as f64 * 0.37).sin().abs() + (i % side) as f64 / side as f64) / 2.0)
        .collect();
    let base = DenseArray::from_vec(schema, data).expect("base");
    let pyramid = std::sync::Arc::new(
        PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(4, 32, &["v"]))
            .expect("pyramid"),
    );
    let mut cfg = SignatureConfig::ndsi("v");
    cfg.domain = (0.0, 1.0);
    attach_signatures(&pyramid, &cfg);
    pyramid
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke mode: one round, a handful of iterations per path.
    let scale = |iters: usize| if smoke { (iters / 16).max(1) } else { iters };
    let pyramid = signature_pyramid();
    let store = pyramid.store();
    let g = pyramid.geometry();

    // ---- SB distances at 4 sigs × 64 candidates × 16 ROI ----
    let candidates: Vec<TileId> = (0..8u32)
        .flat_map(|y| (0..8u32).map(move |x| TileId::new(3, y, x)))
        .collect();
    let roi: Vec<TileId> = (0..4u32)
        .flat_map(|y| (0..4u32).map(move |x| TileId::new(2, y, x)))
        .collect();
    let sb = SbRecommender::new(SbConfig::all_equal());
    let seed_store = SeedMetaStore::mirror(store, g);
    let index = store.signature_index().expect("signatures attached");
    let mut scratch = PredictScratch::default();
    let mut no_cache = PairCache::new(0);
    let mut out = Vec::new();

    // Interleaved rounds: per round measure each path once; report the
    // per-path median across rounds.
    let rounds = if smoke { 1 } else { 9 };
    let mut seed_ns = Vec::new();
    let mut reference_ns = Vec::new();
    let mut indexed_ns = Vec::new();
    for _ in 0..rounds {
        seed_ns.push(measure(1, scale(48), || {
            std::hint::black_box(sb_distances_seed(
                &SbConfig::all_equal(),
                &seed_store,
                &candidates,
                &roi,
            ));
        }));
        reference_ns.push(measure(1, scale(48), || {
            std::hint::black_box(sb.distances(store, &candidates, &roi));
        }));
        indexed_ns.push(measure(1, scale(256), || {
            sb.distances_into(
                &index,
                &candidates,
                &roi,
                &mut no_cache,
                &mut scratch,
                &mut out,
            );
            std::hint::black_box(&out);
        }));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    let (seed, reference, indexed) = (
        median(&mut seed_ns),
        median(&mut reference_ns),
        median(&mut indexed_ns),
    );

    // ---- Engine predict throughput (steady state, k = 5) ----
    let right = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![right; 50]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    let mut engine = PredictionEngine::new(
        g,
        AbRecommender::train(refs.clone(), 3),
        SbRecommender::new(SbConfig::all_equal()),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::Updated,
            ..EngineConfig::default()
        },
    );
    engine.observe(Request::new(TileId::new(2, 2, 2), Some(Move::PanRight)));
    let predict_ns = measure(if smoke { 1 } else { 7 }, scale(4096), || {
        std::hint::black_box(engine.predict(store, 5));
    });

    // ---- Middleware request throughput (pan walk, k = 4) ----
    let mw_engine = PredictionEngine::new(
        g,
        AbRecommender::train(refs, 3),
        SbRecommender::new(SbConfig::all_equal()),
        PhaseSource::Heuristic,
        EngineConfig {
            strategy: AllocationStrategy::Updated,
            ..EngineConfig::default()
        },
    );
    let mut mw = Middleware::new(mw_engine, pyramid.clone(), LatencyProfile::paper(), 4, 4);
    let (rows, cols) = g.tiles_at(3);
    let walk: Vec<(TileId, Option<Move>)> = {
        let mut w = vec![(TileId::new(3, 0, 0), None)];
        let mut y = 0u32;
        let mut x = 0u32;
        let mut dir_right = true;
        for _ in 0..63 {
            if dir_right && x + 1 < cols {
                x += 1;
                w.push((TileId::new(3, y, x), Some(Move::PanRight)));
            } else if !dir_right && x > 0 {
                x -= 1;
                w.push((TileId::new(3, y, x), Some(Move::PanLeft)));
            } else if y + 1 < rows {
                y += 1;
                dir_right = !dir_right;
                w.push((TileId::new(3, y, x), Some(Move::PanDown)));
            }
        }
        w
    };
    let request_ns = measure(if smoke { 1 } else { 7 }, scale(8), || {
        mw.reset_session();
        for &(t, m) in &walk {
            std::hint::black_box(mw.request(t, m));
        }
    }) / walk.len() as f64;

    // ---- Data path: regrid / pyramid / signatures / codec ----
    // Interleaved seed-vs-current rounds, per-path median, as above.
    let base = {
        let side = 256;
        let schema = Schema::grid2d("B", side, side, &["v"]).expect("schema");
        let data: Vec<f64> = (0..side * side)
            .map(|i| ((i as f64 * 0.37).sin().abs() + (i % side) as f64 / side as f64) / 2.0)
            .collect();
        DenseArray::from_vec(schema, data).expect("base")
    };
    let avg = [AggFn::Avg];
    let mut regrid_seed_ns = Vec::new();
    let mut regrid_ns = Vec::new();
    let mut pyr_seed_ns = Vec::new();
    let mut pyr_ns = Vec::new();
    let pyr_cfg = PyramidConfig::simple(4, 32, &["v"]);
    for _ in 0..rounds {
        regrid_seed_ns.push(measure(1, scale(8), || {
            std::hint::black_box(seed_regrid_with(&base, &[4, 4], &avg).expect("seed regrid"));
        }));
        regrid_ns.push(measure(1, scale(32), || {
            std::hint::black_box(regrid_with(&base, &[4, 4], &avg).expect("regrid"));
        }));
        pyr_seed_ns.push(measure(1, scale(2), || {
            std::hint::black_box(seed_build_pyramid(&base, &pyr_cfg).expect("seed pyramid"));
        }));
        pyr_ns.push(measure(1, scale(8), || {
            std::hint::black_box(
                PyramidBuilder::new()
                    .build(&base, &pyr_cfg)
                    .expect("pyramid"),
            );
        }));
    }

    // Signature attachment over freshly built pyramids (the offline
    // metadata pipeline; dominated by per-tile vision work).
    let mut sig_cfg = fc_core::signature::SignatureConfig::ndsi("v");
    sig_cfg.domain = (0.0, 1.0);
    let seed_target = PyramidBuilder::new()
        .build(&base, &pyr_cfg)
        .expect("pyramid");
    let new_target = PyramidBuilder::new()
        .build(&base, &pyr_cfg)
        .expect("pyramid");
    let mut attach_seed_ns = Vec::new();
    let mut attach_ns = Vec::new();
    for _ in 0..if smoke { 1 } else { 5 } {
        attach_seed_ns.push(measure(1, 1, || {
            std::hint::black_box(seed_attach_signatures(
                seed_target.geometry(),
                seed_target.store(),
                &sig_cfg,
            ));
        }));
        attach_ns.push(measure(1, 1, || {
            std::hint::black_box(attach_signatures(&new_target, &sig_cfg));
        }));
    }

    // Tile wire codec at the 32×32 single-attribute tile shape.
    let wire_tile = pyramid
        .store()
        .fetch_offline(TileId::new(3, 4, 4))
        .expect("tile");
    let wire_msg = fc_server::ServerMsg::Tile {
        payload: fc_server::server::tile_payload(&wire_tile),
        latency_ns: 19_500_000,
        cache_hit: true,
        phase: 1,
        degraded: false,
    };
    let encoded = wire_msg.encode();
    let mut frame = fc_server::FrameBuf::new();
    let mut enc_seed_ns = Vec::new();
    let mut enc_ns = Vec::new();
    let mut dec_seed_ns = Vec::new();
    let mut dec_ns = Vec::new();
    for _ in 0..rounds {
        enc_seed_ns.push(measure(1, scale(2048), || {
            std::hint::black_box(seed_encode_server_msg(&wire_msg));
        }));
        enc_ns.push(measure(1, scale(8192), || {
            std::hint::black_box(wire_msg.encode_into(&mut frame));
        }));
        dec_seed_ns.push(measure(1, scale(512), || {
            std::hint::black_box(
                seed_decode_server_msg(fc_server::protocol::unframe(&encoded)).expect("decode"),
            );
        }));
        dec_ns.push(measure(1, scale(8192), || {
            std::hint::black_box(
                fc_server::ServerMsg::decode(fc_server::protocol::unframe(&encoded))
                    .expect("decode"),
            );
        }));
    }

    let simd = fc_simd::active_level();
    if !smoke {
        merge_bench_json(
            "BENCH_predict.json",
            "predict_hot_path",
            &[
                (
                    "shape",
                    "{\"signatures\": 4, \"candidates\": 64, \"roi\": 16}".to_string(),
                ),
                ("simd_level", format!("\"{}\"", simd.name())),
                ("sb_distances_seed_ns", format!("{seed:.1}")),
                ("sb_distances_reference_ns", format!("{reference:.1}")),
                ("sb_distances_indexed_ns", format!("{indexed:.1}")),
                ("sb_speedup_vs_seed", format!("{:.2}", seed / indexed)),
                ("engine_predict_ns", format!("{predict_ns:.1}")),
                ("engine_predict_per_s", format!("{:.0}", 1e9 / predict_ns)),
                ("middleware_request_ns", format!("{request_ns:.1}")),
                (
                    "middleware_requests_per_s",
                    format!("{:.0}", 1e9 / request_ns),
                ),
            ],
        );
    }
    println!(
        "# exp_perf_baseline — prediction hot path (simd: {})",
        simd.name()
    );
    println!();
    println!("SB distances (4 sigs x 64 cand x 16 roi):");
    println!("{}", summary_line("  seed -> reference", seed, reference));
    println!("{}", summary_line("  seed -> frozen index", seed, indexed));
    println!();
    println!(
        "engine predict k=5    : {:>10.0} ns  ({:.0}/s)",
        predict_ns,
        1e9 / predict_ns
    );
    println!(
        "middleware request    : {:>10.0} ns  ({:.0}/s)",
        request_ns,
        1e9 / request_ns
    );

    let (regrid_seed, regrid_now) = (median(&mut regrid_seed_ns), median(&mut regrid_ns));
    let (pyr_seed, pyr_now) = (median(&mut pyr_seed_ns), median(&mut pyr_ns));
    let (attach_seed, attach_now) = (median(&mut attach_seed_ns), median(&mut attach_ns));
    let (enc_seed, enc_now) = (median(&mut enc_seed_ns), median(&mut enc_ns));
    let (dec_seed, dec_now) = (median(&mut dec_seed_ns), median(&mut dec_ns));
    if !smoke {
        merge_bench_json(
            "BENCH_datapath.json",
            "datapath",
            &[
                (
                    "shapes",
                    concat!(
                        "{\"regrid\": \"256x256 window 4 avg\", ",
                        "\"pyramid\": \"256x256, 4 levels, 32x32 tiles\", ",
                        "\"attach_signatures\": \"85-tile pyramid, 4 signatures\", ",
                        "\"tile_codec\": \"32x32 tile, 1 attribute\"}"
                    )
                    .to_string(),
                ),
                ("simd_level", format!("\"{}\"", simd.name())),
                ("regrid_seed_ns", format!("{regrid_seed:.1}")),
                ("regrid_blocked_ns", format!("{regrid_now:.1}")),
                (
                    "regrid_speedup_vs_seed",
                    format!("{:.2}", regrid_seed / regrid_now),
                ),
                ("pyramid_build_seed_ns", format!("{pyr_seed:.1}")),
                ("pyramid_build_ns", format!("{pyr_now:.1}")),
                (
                    "pyramid_build_speedup_vs_seed",
                    format!("{:.2}", pyr_seed / pyr_now),
                ),
                ("attach_signatures_seed_ns", format!("{attach_seed:.1}")),
                ("attach_signatures_ns", format!("{attach_now:.1}")),
                (
                    "attach_signatures_speedup_vs_seed",
                    format!("{:.2}", attach_seed / attach_now),
                ),
                ("tile_encode_seed_ns", format!("{enc_seed:.1}")),
                ("tile_encode_ns", format!("{enc_now:.1}")),
                (
                    "tile_encode_speedup_vs_seed",
                    format!("{:.2}", enc_seed / enc_now),
                ),
                ("tile_decode_seed_ns", format!("{dec_seed:.1}")),
                ("tile_decode_ns", format!("{dec_now:.1}")),
                (
                    "tile_decode_speedup_vs_seed",
                    format!("{:.2}", dec_seed / dec_now),
                ),
                ("middleware_request_ns", format!("{request_ns:.1}")),
                (
                    "middleware_requests_per_s",
                    format!("{:.0}", 1e9 / request_ns),
                ),
            ],
        );
    }
    println!();
    println!("# data path vs seed implementations");
    println!();
    println!(
        "{}",
        summary_line("regrid 256^2 w4 avg", regrid_seed, regrid_now)
    );
    println!("{}", summary_line("pyramid build 4 lvl", pyr_seed, pyr_now));
    println!(
        "{}",
        summary_line("attach_signatures", attach_seed, attach_now)
    );
    println!("{}", summary_line("tile encode 32x32", enc_seed, enc_now));
    println!("{}", summary_line("tile decode 32x32", dec_seed, dec_now));
    println!();
    if smoke {
        println!("--smoke: skipped BENCH_predict.json / BENCH_datapath.json writes");
    } else {
        println!("wrote BENCH_predict.json, BENCH_datapath.json");
    }
}
