//! Golden pins for the tile wire codec. `sample_messages()` covers
//! every `ServerMsg` variant, a column holding NaN, ±inf, −0.0 and
//! extreme magnitudes, and a tile with no attributes. Each
//! message's frame is pinned byte for byte, one literal per message so
//! that a wire change names the message it broke, and each pinned
//! frame must decode back to its message bit for bit.

use bytes::Bytes;
use fc_server::protocol::unframe;
use fc_server::{FrameBuf, ServerMsg, TilePayload};
use fc_tiles::TileId;

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
    ]
}

/// `Welcome`: level count and deepest-level tile grid. 14 bytes.
const WELCOME: &str = "0a00000000062000000030000000";

/// `Tile` hit: two columns, NaN, ±inf, −0.0, 1e300, −1e-300 and two empty cells. 255 bytes.
const TILE: &str = "\
    fb0000000103070000000b0000000400000003000000e08b2901000000000102\
    00020008006e6473695f617667000000000000d03f000000000000f8bf000000\
    000000f87f000000000000f07f000000000000f0ff00000000000000809c7500\
    883ce4377e59f3f8c21f6ea5810000000000000a400000000000000000000000\
    00000045400000000000001cc004006c616e64000000000000f03f0000000000\
    00f03f000000000000f03f000000000000f03f000000000000f03f0000000000\
    00f03f000000000000f03f000000000000f03f000000000000f03f0000000000\
    00f03f000000000000f03f000000000000f03f010100010101000101010101";

/// Degraded `Tile` miss with no attributes and every cell empty. 39 bytes.
const EMPTY_TILE: &str = "\
    2300000001000000000000000000020000000200000001000000000000000000\
    01000000000000";

/// `Stats` with `u64::MAX` requests. 45 bytes.
const STATS: &str = "\
    2900000002ffffffffffffffff00000000000000007b00000000000000110000\
    00000000000900000000000000";

/// `Error` with its code and reason text. 31 bytes.
const ERROR: &str = "1b000000030317006e6f20737563682074696c653a204c392028312c203229";

/// `sample_messages()`' frames in order, each with the name a failure
/// reports: 384 bytes in all.
const FRAMES: [(&str, &str); 5] = [
    ("WELCOME", WELCOME),
    ("TILE", TILE),
    ("EMPTY_TILE", EMPTY_TILE),
    ("STATS", STATS),
    ("ERROR", ERROR),
];

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// NaN-safe bit-level equality for tile payloads.
fn assert_payload_bits_equal(a: &TilePayload, b: &TilePayload) {
    assert_eq!(a.tile, b.tile);
    assert_eq!((a.h, a.w), (b.h, b.w));
    assert_eq!(a.attrs, b.attrs);
    assert_eq!(a.present, b.present);
    assert_eq!(a.data.len(), b.data.len());
    for (ca, cb) in a.data.iter().zip(&b.data) {
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(cb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }
}

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
            assert_payload_bits_equal(pa, pb);
        }
        _ => assert_eq!(a, b),
    }
}

#[test]
fn encoded_frames_are_pinned() {
    let mut frame = FrameBuf::new();
    for ((name, hex), msg) in FRAMES.into_iter().zip(sample_messages()) {
        let want = unhex(hex);
        assert_eq!(&msg.encode()[..], &want[..], "{name}: encode() frame bytes");
        assert_eq!(
            msg.encode_into(&mut frame),
            &want[..],
            "{name}: encode_into() frame bytes"
        );
    }
}

#[test]
fn pinned_frames_decode_to_their_messages() {
    for ((name, hex), msg) in FRAMES.into_iter().zip(sample_messages()) {
        let framed = Bytes::from(unhex(hex));
        let decoded = ServerMsg::decode(unframe(&framed))
            .unwrap_or_else(|e| panic!("{name}: pinned frame does not decode: {e}"));
        assert_msg_bits_equal(&decoded, &msg);
    }
}
