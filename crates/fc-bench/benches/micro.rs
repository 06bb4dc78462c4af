//! Criterion micro-benchmarks for the hot paths of every subsystem:
//! array aggregation, pyramid building, signatures, model prediction
//! steps, cache operations, and protocol encoding. Run under
//! `FC_FORCE_SCALAR=1` for the scalar dispatch level. The speedups of
//! the data path over the seed implementations are recorded in
//! docs/BENCHMARKS.md's frozen table.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fc_array::{regrid, AggFn, DenseArray, IoMode, LatencyModel, Schema, SimClock};
use fc_bench::context::ExpContext;
use fc_core::ab::MoveTree;
use fc_core::engine::PhaseSource;
use fc_core::paircache::PairCache;
use fc_core::sb::{chi_squared, PredictScratch};
use fc_core::signature::{attach_signatures, SignatureConfig, SignatureKind};
use fc_core::{
    phase_features, AbRecommender, AllocationStrategy, CacheManager, EngineConfig,
    MomentumRecommender, PredictionContext, PredictionEngine, Recommender, Request, SbConfig,
    SbRecommender, SessionHistory,
};
use fc_ml::{BinarySvm, KMeans, SvmParams};
use fc_ngram::KneserNey;
use fc_sim::terrain::{build_ndsi_database, generate, TerrainConfig};
use fc_tiles::{Geometry, Move, Pyramid, PyramidBuilder, PyramidConfig, Tile, TileId, TileStore};
use fc_vision::{
    dense_descriptors, detect_keypoints, DetectorParams, GradientField, GrayImage, DESCRIPTOR_DIM,
};
use std::sync::Arc;

fn base_array(side: usize) -> DenseArray {
    let schema = Schema::grid2d("B", side, side, &["v"]).expect("schema");
    let data: Vec<f64> = (0..side * side)
        .map(|i| ((i as f64 * 0.37).sin().abs() + (i % side) as f64 / side as f64) / 2.0)
        .collect();
    DenseArray::from_vec(schema, data).expect("base")
}

fn built_pyramid() -> Arc<Pyramid> {
    let base = base_array(256);
    let pyramid = Arc::new(
        PyramidBuilder::new()
            .build(&base, &PyramidConfig::simple(4, 32, &["v"]))
            .expect("pyramid"),
    );
    let mut cfg = SignatureConfig::ndsi("v");
    cfg.domain = (0.0, 1.0);
    attach_signatures(&pyramid, &cfg);
    pyramid
}

fn bench_array_ops(c: &mut Criterion) {
    let a = base_array(256);
    c.bench_function("regrid 256x256 window 4 avg", |b| {
        b.iter(|| regrid(black_box(&a), &[4, 4], AggFn::Avg).expect("regrid"))
    });
    c.bench_function("pyramid build 256x256 / 4 levels", |b| {
        b.iter(|| {
            PyramidBuilder::new()
                .build(black_box(&a), &PyramidConfig::simple(4, 32, &["v"]))
                .expect("pyramid")
        })
    });
}

fn bench_vision(c: &mut Criterion) {
    let img = GrayImage::new(
        64,
        64,
        (0..64 * 64)
            .map(|i| (i as f64 * 0.11).sin().abs())
            .collect(),
    );
    c.bench_function("sift detect 64x64", |b| {
        b.iter(|| detect_keypoints(black_box(&img), &DetectorParams::default()))
    });
    c.bench_function("dense descriptors 64x64 step 8", |b| {
        b.iter(|| dense_descriptors(black_box(&img), 8, 6.0))
    });
    // The benchmark's tiles are 32²: per tile, `attach_signatures` runs
    // one detection (15 blurs) and one gradient field.
    let tile = GrayImage::new(
        32,
        32,
        (0..32 * 32)
            .map(|i| (i as f64 * 0.11).sin().abs())
            .collect(),
    );
    c.bench_function("sift detect 32x32", |b| {
        b.iter(|| detect_keypoints(black_box(&tile), &DetectorParams::default()))
    });
    c.bench_function("gradient field 32x32", |b| {
        b.iter(|| GradientField::new(black_box(&tile)))
    });
}

/// The vocabulary fit at the benchmark's shape (16 words of 128-d
/// descriptors, 30 Lloyd iterations) on 4,096 synthetic unit-norm
/// descriptors. Under `FC_FORCE_SCALAR=1` every assignment runs the
/// exact kernel; at `avx2` with FMA the certified filter decides.
fn bench_kmeans(c: &mut Criterion) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let data: Vec<Vec<f64>> = (0..4096)
        .map(|_| {
            let mut d: Vec<f64> = (0..DESCRIPTOR_DIM)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as f64 / 1000.0
                })
                .collect();
            let n = d.iter().map(|v| v * v).sum::<f64>().sqrt();
            d.iter_mut().for_each(|v| *v /= n);
            d
        })
        .collect();
    c.bench_function("k-means fit 4096 × 128-d, 16 words", |b| {
        b.iter(|| KMeans::fit(black_box(&data), 16, 30, 7))
    });
}

/// Set-up's two serial loops below the benchmark's size: the terrain
/// generator (alone, and inside Query 1's NDSI database), and one SMO
/// machine on rows shaped like the phase
/// features (three coordinates in [-1, 1], three ±1 move flags) under
/// labels that overlap.
fn bench_setup(c: &mut Criterion) {
    let cfg = TerrainConfig {
        size: 256,
        ..TerrainConfig::default()
    };
    c.bench_function("terrain generate 256²", |b| {
        b.iter(|| generate(black_box(&cfg)))
    });
    // Query 1 end to end: terrain, the band join, the NDSI UDF and the
    // flatten to the study schema, whose raw max/min/avg share a buffer.
    c.bench_function("NDSI database 256²", |b| {
        b.iter(|| build_ndsi_database(black_box(&cfg)))
    });

    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2001) as f64 / 1000.0 - 1.0
    };
    let flag = |v: f64| if v > 0.0 { 1.0 } else { -1.0 };
    let x: Vec<Vec<f64>> = (0..400)
        .map(|_| {
            let coords = [unit(), unit(), unit()];
            let flags = [flag(unit()), flag(unit()), flag(unit())];
            coords.into_iter().chain(flags).collect()
        })
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| flag(r[0] + 0.5 * r[2] + 0.5 * unit()))
        .collect();
    c.bench_function("SMO train 400 × 6 RBF", |b| {
        b.iter(|| BinarySvm::train(black_box(&x), &y, SvmParams::rbf_default(6)))
    });
}

fn bench_models(c: &mut Criterion) {
    let pyramid = built_pyramid();
    let g = pyramid.geometry();
    let right = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![right; 50]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    let ab = AbRecommender::train(refs.clone(), 3);
    let sb = SbRecommender::new(SbConfig::all_equal());
    let momentum = MomentumRecommender;

    let mut history = SessionHistory::new(3);
    let cur = Request::new(TileId::new(2, 2, 2), Some(Move::PanRight));
    history.push(Request::new(TileId::new(2, 2, 1), Some(Move::PanRight)));
    history.push(cur);
    let candidates = g.candidates(cur.tile, 1);
    let roi = [TileId::new(3, 4, 4), TileId::new(3, 4, 5)];
    let ctx = PredictionContext {
        request: cur,
        history: &history,
        candidates: &candidates,
        geometry: g,
        store: pyramid.store(),
        roi: &roi,
    };

    c.bench_function("kneser-ney distribution (order 3)", |b| {
        let m = KneserNey::train(refs.clone(), 3, 9);
        let h = [right, right, right];
        let mut row = [0.0; 9];
        b.iter(|| {
            m.distribution_into(black_box(&h), &mut row);
            black_box(row[0])
        })
    });
    c.bench_function("AB rank 9 candidates", |b| {
        b.iter(|| ab.rank(black_box(&ctx)))
    });
    c.bench_function("geometry candidates d = 2", |b| {
        b.iter(|| g.candidates(black_box(cur.tile), 2))
    });
    // The engine binds the AB model's move trees; the first call builds
    // this tile's, and every later one reads it into the engine's buffer.
    let mut engine = PredictionEngine::new(
        g,
        ab.clone(),
        sb.clone(),
        PhaseSource::Heuristic,
        EngineConfig::default(),
    );
    engine.candidates(cur.tile, 2);
    c.bench_function("engine candidates d = 2 (move tree)", |b| {
        b.iter(|| engine.candidates(black_box(cur.tile), 2).len())
    });
    c.bench_function("SB rank 9 candidates (4 signatures)", |b| {
        b.iter(|| sb.rank(black_box(&ctx)))
    });
    c.bench_function("Momentum rank 9 candidates", |b| {
        b.iter(|| momentum.rank(black_box(&ctx)))
    });
}

/// The acceptance-criterion shape over the real signature pyramid:
/// 4 signatures × 64 candidates (all of level 3) × 16 ROI (all of
/// level 2 — a committed coarse-level region of interest).
fn sb_bench_shape(g: Geometry) -> (Vec<TileId>, Vec<TileId>) {
    let candidates: Vec<TileId> = (0..8u32)
        .flat_map(|y| (0..8u32).map(move |x| TileId::new(3, y, x)))
        .collect();
    let roi: Vec<TileId> = (0..4u32)
        .flat_map(|y| (0..4u32).map(move |x| TileId::new(2, y, x)))
        .collect();
    assert_eq!(candidates.len(), 64);
    assert_eq!(roi.len(), 16);
    assert!(candidates.iter().chain(&roi).all(|&t| g.contains(t)));
    (candidates, roi)
}

fn bench_sb_distances(c: &mut Criterion) {
    let h1: Vec<f64> = (0..16).map(|i| (i as f64 + 1.0) / 136.0).collect();
    let h2: Vec<f64> = (0..16).map(|i| (16.0 - i as f64) / 136.0).collect();
    c.bench_function("chi_squared 16 bins", |b| {
        b.iter(|| chi_squared(black_box(&h1), black_box(&h2)))
    });

    let pyramid = built_pyramid();
    let store = pyramid.store();
    let g = pyramid.geometry();
    let (candidates, roi) = sb_bench_shape(g);
    let sb = SbRecommender::new(SbConfig::all_equal());
    c.bench_function("SB distances 4sig x 64cand x 16roi (meta_vec ref)", |b| {
        b.iter(|| sb.distances(black_box(store), &candidates, &roi))
    });
    let index = store.signature_index().expect("synthetic signatures");
    let mut scratch = PredictScratch::default();
    // Disabled cache: every pair runs the χ² kernel each iteration.
    let mut no_cache = PairCache::new(0);
    let mut out = Vec::new();
    c.bench_function("SB distances 4sig x 64cand x 16roi (frozen index)", |b| {
        b.iter(|| {
            sb.distances_into(
                black_box(&index),
                &candidates,
                &roi,
                &mut no_cache,
                &mut scratch,
                &mut out,
            )
        })
    });
}

/// A 5-level, 512² store (1365 tiles) with deterministic synthetic
/// signatures of the ndsi widths (NormalDist 2, the others 16): the χ²
/// cost per pair depends on the widths, not on how the vectors were
/// made, so the vision pipeline is skipped.
fn steady_store() -> TileStore {
    let g = Geometry::new(5, 512, 512, 32, 32);
    let s = TileStore::new(g, LatencyModel::free(), IoMode::Simulated, SimClock::new());
    for id in g.all_tiles() {
        for (k, kind) in fc_core::signature::SIGNATURE_KINDS.iter().enumerate() {
            let dim = match kind {
                SignatureKind::NormalDist => 2,
                _ => 16,
            };
            // xorshift64* over a per-(tile, kind) seed, normalized.
            let mut state = ((u64::from(id.level) << 48)
                ^ (u64::from(id.y) << 28)
                ^ (u64::from(id.x) << 8)
                ^ k as u64)
                | 1;
            let mut v: Vec<f64> = (0..dim)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as f64 / 1000.0
                })
                .collect();
            let total: f64 = v.iter().sum();
            if total > 0.0 {
                v.iter_mut().for_each(|x| *x /= total);
            }
            s.put_meta(id, kind.meta_name(), v);
        }
    }
    s
}

fn tile_block(level: u8, y0: u32, x0: u32, side: u32) -> Vec<TileId> {
    (0..side)
        .flat_map(|dy| (0..side).map(move |dx| TileId::new(level, y0 + dy, x0 + dx)))
        .collect()
}

/// The 96-request pan/zoom walk, as `(candidates, roi)` pairs: an 8×8
/// candidate block walks a serpentine over level 4 one tile at a time
/// (87.5 % candidate overlap), every 24th request zooms out to all of
/// level 3, and the 4×4 level-3 ROI moves one tile every 12th request.
/// Consecutive requests share 78.5 % of their (candidate, ROI) pairs.
fn steady_walk(g: Geometry) -> Vec<(Vec<TileId>, Vec<TileId>)> {
    let (rows4, cols4) = g.tiles_at(4);
    let (span_y, span_x) = (rows4 - 8, cols4 - 8);
    let roi_span = g.tiles_at(3).1 - 4 + 1;
    let (mut y, mut x, mut right, mut roi_x) = (0u32, 0u32, true, 0u32);
    (0..96)
        .map(|i| {
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
                roi_x = (roi_x + 1) % roi_span;
            }
            let candidates = if i % 24 == 23 {
                tile_block(3, 0, 0, 8)
            } else {
                tile_block(4, y, x, 8)
            };
            (candidates, tile_block(3, 2, roi_x, 4))
        })
        .collect()
}

/// What an interactive session's SB ranking costs once its pair cache
/// is warm: one iteration is the whole 96-request walk through a live
/// [`PairCache`], after one untimed warm lap.
fn bench_sb_steady_walk(c: &mut Criterion) {
    let store = steady_store();
    let index = store.signature_index().expect("synthetic signatures");
    let walk = steady_walk(store.geometry());
    let sb = SbRecommender::new(SbConfig::all_equal());
    let mut cache = PairCache::for_index(&index);
    let mut scratch = PredictScratch::default();
    let mut out = Vec::new();
    let mut lap = || {
        for (candidates, roi) in &walk {
            sb.distances_into(&index, candidates, roi, &mut cache, &mut scratch, &mut out);
            black_box(&out);
        }
    };
    lap();
    c.bench_function("SB steady walk 96 req, warm pair cache (per lap)", |b| {
        b.iter(&mut lap)
    });
}

fn bench_engine_and_cache(c: &mut Criterion) {
    let pyramid = built_pyramid();
    let right = Move::PanRight.index() as u16;
    let traces: Vec<Vec<u16>> = vec![vec![right; 50]];
    let refs: Vec<&[u16]> = traces.iter().map(|t| t.as_slice()).collect();
    c.bench_function("engine predict k=5 (two-level merge)", |b| {
        let mut engine = PredictionEngine::new(
            pyramid.geometry(),
            AbRecommender::train(refs.clone(), 3),
            SbRecommender::new(SbConfig::single(SignatureKind::Sift)),
            PhaseSource::Heuristic,
            EngineConfig {
                strategy: AllocationStrategy::Updated,
                ..EngineConfig::default()
            },
        );
        engine.observe(Request::new(TileId::new(2, 2, 2), Some(Move::PanRight)));
        b.iter(|| engine.predict(pyramid.store(), black_box(5)))
    });

    c.bench_function("cache lookup+note+prefetch cycle", |b| {
        let mut cache = CacheManager::new(4);
        let tile = pyramid
            .store()
            .fetch_offline(TileId::new(2, 2, 2))
            .expect("tile");
        let prefetch: Vec<Arc<Tile>> = pyramid
            .geometry()
            .candidates(TileId::new(2, 2, 2), 1)
            .into_iter()
            .filter_map(|t| pyramid.store().fetch_offline(t))
            .collect();
        b.iter(|| {
            cache.lookup(black_box(TileId::new(2, 2, 2)));
            cache.note_request(tile.clone());
            cache.install_prefetch(prefetch.clone());
        })
    });
}

/// Over the benchmark's `ctx32` dataset and its trained models: the
/// phase classifier's two paths — the SVM, which each (tile, move kind)
/// meets once per process, and the memo hit every later request takes
/// — and AB's at the dwell-request shape (`DWELL_DISTANCE = 2`, also
/// `predict-deep`'s): one Kneser–Ney row, one tile's move tree, which a
/// process builds once, and a ranking that walks a warm tree; then what
/// a Hello costs before the first byte is served: an engine built from
/// the models, then its first prediction at the `predict-deep` shape
/// (1365 tiles, four signatures, candidates two moves out), which is
/// when the engine's pair cache gets its table: after the first
/// iteration, the one the previous iteration's engine released.
fn bench_trained_models(c: &mut Criterion) {
    let ctx = ExpContext::build(1024, 6, 32, 18);
    let train: Vec<_> = ctx.study.traces.iter().collect();
    let (ab, classifier) = (ctx.ab_model(&train, 3), ctx.classifier_for(&train));
    let pyramid = &ctx.dataset.pyramid;
    let g = pyramid.geometry();

    let open = || {
        PredictionEngine::new(
            pyramid.geometry(),
            ab.clone(),
            SbRecommender::new(SbConfig::all_equal()),
            PhaseSource::Classifier(Box::new(classifier.clone())),
            EngineConfig {
                distance: 2,
                ..EngineConfig::default()
            },
        )
    };

    let deep_pan = Request::new(TileId::new(5, 17, 9), Some(Move::PanRight));
    c.bench_function("phase classify (SVM)", |b| {
        b.iter(|| classifier.predict_features(&phase_features(black_box(&deep_pan), None)))
    });
    // An engine binds the memo that every clone shares; one predict
    // fills the cell.
    open();
    classifier.predict(&deep_pan, None);
    c.bench_function("phase classify (memo hit)", |b| {
        b.iter(|| classifier.predict(black_box(&deep_pan), None))
    });

    // Three pans right onto `deep_pan`'s tile.
    let right = Move::PanRight.index() as u16;
    let seqs: Vec<Vec<u16>> = train.iter().map(|t| t.move_sequence()).collect();
    let chain = KneserNey::train(seqs.iter().map(Vec::as_slice), 3, 9);
    let mut row = [0.0; 9];
    c.bench_function("kneser-ney distribution (study model)", |b| {
        b.iter(|| {
            chain.distribution_into(black_box(&[right; 3]), &mut row);
            black_box(row[0])
        })
    });
    c.bench_function("AB move tree build (one tile)", |b| {
        b.iter(|| MoveTree::new(g, black_box(deep_pan.tile)))
    });
    let mut history = SessionHistory::new(3);
    for x in 7..=9 {
        history.push(Request::new(TileId::new(5, 17, x), Some(Move::PanRight)));
    }
    let candidates = g.candidates(deep_pan.tile, 2);
    let deep = PredictionContext {
        request: deep_pan,
        history: &history,
        candidates: &candidates,
        geometry: g,
        store: pyramid.store(),
        roi: &[],
    };
    // The engine binds the trees every clone shares; one ranking builds
    // this tile's.
    open();
    ab.rank(&deep);
    c.bench_function(
        "AB rank d = 2, study-trained Markov-3, ctx32 geometry (warm trees)",
        |b| b.iter(|| ab.rank(black_box(&deep))),
    );

    c.bench_function("session open: engine from trained models", |b| b.iter(open));
    c.bench_function("session open + first predict (4 signatures, d = 2)", |b| {
        b.iter(|| {
            let mut engine = open();
            engine.observe(Request::initial(TileId::new(4, 8, 8)));
            engine.predict(pyramid.store(), black_box(8))
        })
    });
}

fn bench_protocol(c: &mut Criterion) {
    let pyramid = built_pyramid();
    let tile = pyramid
        .store()
        .fetch_offline(TileId::new(3, 4, 4))
        .expect("tile");
    let payload = fc_server::server::tile_payload(&tile);
    let msg = fc_server::ServerMsg::Tile {
        payload,
        latency_ns: 19_500_000,
        cache_hit: true,
        phase: 1,
        degraded: false,
    };
    c.bench_function("protocol encode 32x32 tile", |b| b.iter(|| msg.encode()));
    let mut frame = fc_server::FrameBuf::new();
    c.bench_function("protocol encode 32x32 tile (reused FrameBuf)", |b| {
        b.iter(|| {
            black_box(msg.encode_into(&mut frame));
        })
    });
    // What the server does per reply since replies leave by reference
    // (the encode cases above are the reference encoder): build the
    // owned part of the frame; `to_vec` adds the copy of the columns
    // that serving leaves to the kernel.
    let schema = Schema::grid2d("T", 64, 64, &["a", "b", "c", "d"]).expect("schema");
    let mut array = DenseArray::filled(schema, 0.5);
    array.clear_cell(&[3, 5]).expect("cell");
    let wide = Arc::new(Tile::new(TileId::new(4, 1, 2), array));
    c.bench_function("reply frame 64x64x4: build", |b| {
        b.iter(|| fc_server::Frame::tile(black_box(&wide).clone(), 19_500_000, true, 1, false))
    });
    c.bench_function("reply frame 64x64x4: build + to_vec", |b| {
        b.iter(|| {
            fc_server::Frame::tile(black_box(&wide).clone(), 19_500_000, true, 1, false).to_vec()
        })
    });
    let encoded = msg.encode();
    c.bench_function("protocol decode 32x32 tile", |b| {
        b.iter(|| {
            fc_server::ServerMsg::decode(fc_server::protocol::unframe(black_box(&encoded)))
                .expect("decode")
        })
    });
}

criterion_group!(
    benches,
    bench_array_ops,
    bench_vision,
    bench_kmeans,
    bench_setup,
    bench_models,
    bench_sb_distances,
    bench_sb_steady_walk,
    bench_engine_and_cache,
    bench_trained_models,
    bench_protocol
);
criterion_main!(benches);
