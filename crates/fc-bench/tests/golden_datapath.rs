//! Golden equivalence for the rebuilt data path against the seed
//! implementations reproduced in `fc_bench::seed_baseline`:
//!
//! * the zero-copy tile wire codec must produce byte-identical frames
//!   to the seed's per-value codec and decode the seed's frames to the
//!   same messages (bit-level, NaN-safe);
//! * the blocked pyramid build must materialize bit-identical tiles to
//!   the seed's `subarray` + per-cell-padding build, ragged edges and
//!   empty cells included.

use fc_array::{DenseArray, Schema};
use fc_bench::seed_baseline::{seed_build_pyramid, seed_decode_server_msg, seed_encode_server_msg};
use fc_server::protocol::unframe;
use fc_server::{ServerMsg, TilePayload};
use fc_tiles::{PyramidBuilder, PyramidConfig, TileId};

/// NaN-safe bit-level equality for server messages.
fn assert_msg_bits_equal(a: &ServerMsg, b: &ServerMsg) {
    match (a, b) {
        (
            ServerMsg::Tile {
                payload: pa,
                latency_ns: la,
                cache_hit: ca,
                phase: ha,
                degraded: da,
            },
            ServerMsg::Tile {
                payload: pb,
                latency_ns: lb,
                cache_hit: cb,
                phase: hb,
                degraded: db,
            },
        ) => {
            assert_eq!((la, ca, ha, da), (lb, cb, hb, db));
            assert_eq!(pa.tile, pb.tile);
            assert_eq!((pa.h, pa.w), (pb.h, pb.w));
            assert_eq!(pa.attrs, pb.attrs);
            assert_eq!(pa.present, pb.present);
            assert_eq!(pa.data.len(), pb.data.len());
            for (ca, cb) in pa.data.iter().zip(&pb.data) {
                assert_eq!(ca.len(), cb.len());
                for (x, y) in ca.iter().zip(cb) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
                }
            }
        }
        (ServerMsg::Push { payload: pa }, ServerMsg::Push { payload: pb }) => {
            assert_eq!(pa.tile, pb.tile);
            assert_eq!((pa.h, pa.w), (pb.h, pb.w));
            assert_eq!(pa.attrs, pb.attrs);
            assert_eq!(pa.present, pb.present);
            assert_eq!(pa.data.len(), pb.data.len());
            for (ca, cb) in pa.data.iter().zip(&pb.data) {
                assert_eq!(ca.len(), cb.len());
                for (x, y) in ca.iter().zip(cb) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
                }
            }
        }
        _ => assert_eq!(a, b),
    }
}

fn sample_messages() -> Vec<ServerMsg> {
    let payload = TilePayload {
        tile: TileId::new(3, 7, 11),
        h: 4,
        w: 3,
        attrs: vec!["ndsi_avg".into(), "land".into()],
        data: vec![
            vec![
                0.25,
                -1.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                1e300,
                -1e-300,
                3.25,
                0.0,
                42.0,
                -7.0,
            ],
            vec![1.0; 12],
        ],
        present: vec![1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1],
    };
    let empty_attr_payload = TilePayload {
        tile: TileId::ROOT,
        h: 2,
        w: 2,
        attrs: vec![],
        data: vec![],
        present: vec![0, 0, 0, 0],
    };
    vec![
        ServerMsg::Welcome {
            levels: 6,
            deepest_tiles: (32, 48),
        },
        ServerMsg::Tile {
            payload,
            latency_ns: 19_500_000,
            cache_hit: true,
            phase: 2,
            degraded: false,
        },
        ServerMsg::Tile {
            payload: empty_attr_payload,
            latency_ns: 1,
            cache_hit: false,
            phase: 0,
            degraded: true,
        },
        ServerMsg::Stats {
            requests: u64::MAX,
            hits: 0,
            avg_latency_ns: 123,
            prefetch_issued: 17,
            prefetch_used: 9,
        },
        ServerMsg::Error {
            code: fc_server::ErrorCode::NoSuchTile,
            reason: "no such tile: L9 (1, 2)".into(),
        },
        ServerMsg::Push {
            payload: TilePayload {
                tile: TileId::new(2, 1, 3),
                h: 2,
                w: 2,
                attrs: vec!["ndsi_avg".into()],
                data: vec![vec![0.125, f64::NAN, -0.0, 9.5]],
                present: vec![1, 0, 1, 1],
            },
        },
    ]
}

#[test]
fn zero_copy_encode_matches_seed_bytes() {
    let mut frame = fc_server::FrameBuf::new();
    for msg in sample_messages() {
        let seed = seed_encode_server_msg(&msg);
        let new = msg.encode();
        assert_eq!(&seed[..], &new[..], "encode() frame bytes");
        let reused = msg.encode_into(&mut frame);
        assert_eq!(&seed[..], reused, "encode_into() frame bytes");
    }
}

#[test]
fn zero_copy_decode_matches_seed_decode() {
    for msg in sample_messages() {
        let framed = seed_encode_server_msg(&msg);
        let seed_dec = seed_decode_server_msg(unframe(&framed)).unwrap();
        let new_dec = ServerMsg::decode(unframe(&framed)).unwrap();
        assert_msg_bits_equal(&seed_dec, &new_dec);
        assert_msg_bits_equal(&new_dec, &msg);
    }
}

/// NaN-safe bit-level equality for dense arrays.
fn assert_array_bits_equal(a: &DenseArray, b: &DenseArray, label: &str) {
    assert_eq!(a.schema(), b.schema(), "{label}: schema");
    assert_eq!(a.validity(), b.validity(), "{label}: validity");
    for attr in &a.schema().attrs {
        let av = a.attr_values(&attr.name).unwrap();
        let bv = b.attr_values(&attr.name).unwrap();
        for (i, (x, y)) in av.iter().zip(bv).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: {}[{i}] {x} vs {y}",
                attr.name
            );
        }
    }
}

#[test]
fn attach_signatures_matches_seed_attach() {
    use fc_bench::seed_baseline::seed_attach_signatures;
    use fc_core::signature::{SignatureConfig, SIGNATURE_KINDS};

    let schema = Schema::grid2d("B", 64, 64, &["v"]).unwrap();
    let data: Vec<f64> = (0..64 * 64)
        .map(|i| ((i as f64 * 0.37).sin().abs() + (i % 64) as f64 / 64.0) / 2.0)
        .collect();
    let base = DenseArray::from_vec(schema, data).unwrap();
    let cfg = PyramidConfig::simple(3, 16, &["v"]);
    let seed_pyr = PyramidBuilder::new().build(&base, &cfg).unwrap();
    let new_pyr = PyramidBuilder::new().build(&base, &cfg).unwrap();
    let mut sig_cfg = SignatureConfig::ndsi("v");
    sig_cfg.domain = (0.0, 1.0);
    seed_attach_signatures(seed_pyr.geometry(), seed_pyr.store(), &sig_cfg);
    fc_core::signature::attach_signatures(&new_pyr, &sig_cfg);
    for id in new_pyr.geometry().all_tiles() {
        let seed_meta = seed_pyr.store().meta(id).expect("seed meta");
        let new_meta = new_pyr.store().meta(id).expect("new meta");
        for kind in SIGNATURE_KINDS {
            let a = seed_meta.get(kind.meta_name()).expect("seed sig");
            let b = new_meta.get(kind.meta_name()).expect("new sig");
            assert_eq!(a.len(), b.len(), "{id} {}", kind.meta_name());
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{id} {}[{i}]: {x} vs {y}",
                    kind.meta_name()
                );
            }
        }
    }
}

#[test]
fn blocked_pyramid_build_matches_seed_build() {
    // Ragged 100×70 base with a hole, 3 levels of 16×16 tiles: edge
    // tiles need padding and some windows aggregate over empty cells.
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
    let (seed_g, seed_store) = seed_build_pyramid(&base, &cfg).unwrap();
    let built = PyramidBuilder::new().build(&base, &cfg).unwrap();
    assert_eq!(seed_g, built.geometry());
    for id in built.geometry().all_tiles() {
        let seed_tile = seed_store.fetch_offline(id).expect("seed tile");
        let new_tile = built.store().fetch_offline(id).expect("built tile");
        assert_array_bits_equal(&seed_tile.array, &new_tile.array, &format!("{id}"));
    }
}
