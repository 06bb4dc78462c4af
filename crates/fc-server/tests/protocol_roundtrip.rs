//! Property-based roundtrips for every `ClientMsg`/`ServerMsg` variant:
//! encode → decode must reproduce the message exactly (bit-level for
//! f64 payloads, NaN and ±∞ included), empty-attribute tiles must
//! survive, and truncating any frame must be rejected, never panic or
//! mis-decode. And for the frames the server actually sends: a
//! [`Frame`] with its columns spliced in by reference is, byte for
//! byte, the reference encoder's frame, however its write is cut up —
//! and `read_frame` re-assembles it however the read is cut up.

use bytes::Bytes;
use fc_array::{Attribute, DenseArray, Dimension, Schema};
use fc_server::protocol::{read_frame, unframe};
use fc_server::server::tile_payload;
use fc_server::{ClientMsg, ErrorCode, Frame, FrameBuf, ServerMsg, TilePayload};
use fc_tiles::{Move, Tile, TileId, MOVES};
use proptest::prelude::*;
use std::io::{self, IoSlice, Read, Write};
use std::sync::Arc;

/// All assigned error codes plus the catch-all, for exhaustive cycling.
const CODES: [ErrorCode; 7] = [
    ErrorCode::General,
    ErrorCode::Malformed,
    ErrorCode::UnknownDataset,
    ErrorCode::NoSuchTile,
    ErrorCode::Overloaded,
    ErrorCode::Unavailable,
    ErrorCode::Internal,
];

/// Deterministic value stream mixing finite values with NaN, ±∞ and -0.
fn payload_values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match i % 6 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => (state % 100_000) as f64 / 7.0 - 5_000.0,
            }
        })
        .collect()
}

fn tile_msg(level: u8, y: u32, x: u32, h: u32, w: u32, nattrs: usize, seed: u64) -> ServerMsg {
    let ncells = (h * w) as usize;
    ServerMsg::Tile {
        payload: TilePayload {
            tile: TileId::new(level, y, x),
            h,
            w,
            attrs: (0..nattrs).map(|i| format!("attr_{i}")).collect(),
            data: (0..nattrs)
                .map(|i| payload_values(seed ^ (i as u64).wrapping_mul(0x9E37), ncells))
                .collect(),
            present: (0..ncells).map(|i| u8::from(i % 3 != 1)).collect(),
        },
        latency_ns: seed,
        cache_hit: seed.is_multiple_of(2),
        phase: (seed % 4) as u8,
        degraded: seed & 4 != 0,
    }
}

/// The tile whose wire payload is `p`. The schema is built literally:
/// `Schema::new` refuses zero attributes and zero-length dimensions,
/// the wire format carries both.
fn tile_of(p: &TilePayload) -> Arc<Tile> {
    let (h, w) = (p.h as usize, p.w as usize);
    let schema = Schema {
        name: "T".into(),
        dims: vec![Dimension::new("y", h), Dimension::new("x", w)],
        attrs: p.attrs.iter().map(Attribute::new).collect(),
    };
    let mut array = DenseArray::filled(schema, 0.0);
    let mut cell_values = vec![0.0; p.data.len()];
    for cell in 0..h * w {
        for (v, column) in cell_values.iter_mut().zip(&p.data) {
            *v = column[cell];
        }
        array.fill_cell(cell, &cell_values).expect("cell in range");
    }
    for (cell, _) in p.present.iter().enumerate().filter(|(_, &b)| b == 0) {
        array
            .clear_cell(&[cell / w, cell % w])
            .expect("cell in range");
    }
    Arc::new(Tile::new(p.tile, array))
}

/// A writer that takes what its script says, call by call (the script
/// repeats): `0` refuses with `WouldBlock`, `k` accepts up to `k`
/// bytes of the call — across the boundaries of its slices.
struct Scripted {
    script: Vec<usize>,
    calls: usize,
    out: Vec<u8>,
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut room = self.script[self.calls % self.script.len()];
        self.calls += 1;
        if room == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let before = self.out.len();
        for buf in bufs {
            let n = room.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            room -= n;
        }
        Ok(self.out.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A reader that hands out its bytes in the sizes its script says, call
/// by call (the script repeats): `0` fails with `Interrupted`, `k`
/// gives up to `k` bytes. Past its last byte it reads 0: end of stream.
struct ScriptedRead {
    bytes: Vec<u8>,
    pos: usize,
    script: Vec<usize>,
    calls: usize,
}

impl Read for ScriptedRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let room = self.script[self.calls % self.script.len()];
        self.calls += 1;
        if room == 0 {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = room.min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Bit-level (NaN-safe) equality: re-encoding the decoded message must
/// reproduce the original frame exactly.
fn assert_reencode_identical(framed: &Bytes, decoded: &ServerMsg) {
    let again = decoded.encode();
    assert_eq!(&framed[..], &again[..], "re-encoded frame differs");
}

proptest! {
    /// Every ClientMsg variant roundtrips; RequestTile covers all move
    /// ids and the no-move case.
    #[test]
    fn client_variants_roundtrip(
        k in any::<u32>(),
        level in 0u8..12,
        y in any::<u32>(),
        x in any::<u32>(),
        mv in 0usize..10,
        dataset_len in 0usize..24,
    ) {
        let mv = if mv >= MOVES.len() { None } else { Some(Move::from_index(mv)) };
        let msgs = [
            ClientMsg::Hello { prefetch_k: k, dataset: "d".repeat(dataset_len) },
            ClientMsg::RequestTile { tile: TileId::new(level, y, x), mv },
            ClientMsg::GetStats,
            ClientMsg::Bye,
        ];
        for m in msgs {
            let dec = ClientMsg::decode(unframe(&m.encode()))
                .expect("valid frame decodes");
            prop_assert_eq!(dec, m);
        }
    }

    /// Welcome / Stats / Error roundtrip across their whole domains.
    #[test]
    fn simple_server_variants_roundtrip(
        levels in any::<u8>(),
        ty in any::<u32>(),
        tx in any::<u32>(),
        requests in any::<u64>(),
        hits in any::<u64>(),
        avg in any::<u64>(),
        reason_len in 0usize..64,
        code_ix in 0usize..CODES.len(),
    ) {
        let msgs = [
            ServerMsg::Welcome { levels, deepest_tiles: (ty, tx) },
            ServerMsg::Stats { requests, hits, avg_latency_ns: avg, prefetch_issued: requests / 2, prefetch_used: hits / 2 },
            ServerMsg::Error { code: CODES[code_ix], reason: "e".repeat(reason_len) },
        ];
        for m in msgs {
            let dec = ServerMsg::decode(unframe(&m.encode()))
                .expect("valid frame decodes");
            prop_assert_eq!(dec, m);
        }
    }

    /// An Error reason beyond the u16 wire limit — e.g. a backend
    /// message echoed verbatim — truncates on a char boundary instead
    /// of panicking the encoder, and the frame stays self-consistent.
    #[test]
    fn oversized_reasons_truncate_not_panic(
        extra in 0usize..200,
        code_ix in 0usize..CODES.len(),
        wide in any::<bool>(),
    ) {
        let unit = if wide { "é" } else { "e" };
        let n = (u16::MAX as usize + extra) / unit.len();
        let msg = ServerMsg::Error { code: CODES[code_ix], reason: unit.repeat(n) };
        let framed = msg.encode();
        let prefix = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
        prop_assert_eq!(prefix, framed.len() - 4, "prefix matches body");
        match ServerMsg::decode(unframe(&framed)).expect("valid frame decodes") {
            ServerMsg::Error { code, reason } => {
                prop_assert_eq!(code, CODES[code_ix]);
                prop_assert!(reason.len() <= u16::MAX as usize);
                prop_assert!(reason.chars().all(|c| c == unit.chars().next().unwrap()));
            }
            other => prop_assert!(false, "decoded to {:?}", other),
        }
    }

    /// Tile payloads — NaN, ±∞, -0.0, multi-attribute, empty-attribute,
    /// and zero-cell tiles — roundtrip bit-exactly through both the
    /// allocating and the FrameBuf-reusing encoder.
    #[test]
    fn tile_payloads_roundtrip_bit_exact(
        level in 0u8..10,
        y in 0u32..1000,
        x in 0u32..1000,
        h in 0u32..6,
        w in 0u32..6,
        nattrs in 0usize..4,
        seed in any::<u64>(),
    ) {
        let msg = tile_msg(level, y, x, h, w, nattrs, seed);
        let framed = msg.encode();
        let mut buf = FrameBuf::new();
        let reused = msg.encode_into(&mut buf);
        prop_assert_eq!(&framed[..], reused, "encode vs encode_into");
        let dec = ServerMsg::decode(unframe(&framed)).expect("valid frame decodes");
        assert_reencode_identical(&framed, &dec);
        if let (ServerMsg::Tile { payload: a, .. }, ServerMsg::Tile { payload: b, .. }) =
            (&msg, &dec)
        {
            prop_assert_eq!(&a.attrs, &b.attrs);
            prop_assert_eq!(&a.present, &b.present);
        } else {
            panic!("decoded to a different variant");
        }
    }

    /// The frame the server sends — columns spliced in by reference
    /// from the tile — is the reference encoder's frame over
    /// `tile_payload` of the same tile, byte for byte, `Tile` and
    /// `Push` alike, and knows its own length.
    #[test]
    fn frame_is_the_reference_encoding_byte_for_byte(
        level in 0u8..10,
        y in 0u32..1000,
        x in 0u32..1000,
        h in 0u32..6,
        w in 0u32..6,
        nattrs in 0usize..4,
        seed in any::<u64>(),
    ) {
        let ServerMsg::Tile { payload, latency_ns, cache_hit, phase, degraded } =
            tile_msg(level, y, x, h, w, nattrs, seed)
        else {
            unreachable!("tile_msg builds a Tile");
        };
        let tile = tile_of(&payload);
        let tile_ref = ServerMsg::Tile {
            payload: tile_payload(&tile),
            latency_ns,
            cache_hit,
            phase,
            degraded,
        }
        .encode();
        let generated = ServerMsg::Tile { payload, latency_ns, cache_hit, phase, degraded };
        prop_assert_eq!(&tile_ref[..], &generated.encode()[..], "tile_of is faithful");
        let frame = Frame::tile(tile.clone(), latency_ns, cache_hit, phase, degraded);
        prop_assert_eq!(frame.len(), tile_ref.len());
        prop_assert_eq!(&frame.to_vec()[..], &tile_ref[..]);

        let push_ref = ServerMsg::Push { payload: tile_payload(&tile) }.encode();
        let frame = Frame::push(tile);
        prop_assert_eq!(frame.len(), push_ref.len());
        prop_assert_eq!(&frame.to_vec()[..], &push_ref[..]);
    }

    /// `write_to` through a writer that accepts arbitrary amounts and
    /// refuses at arbitrary calls: what came out is the frame, and
    /// `pos` tracked every byte — so a resume lands right wherever the
    /// previous write stopped (mid-header, mid-column, mid-mask).
    #[test]
    fn write_to_resumes_at_any_byte(
        h in 0u32..6,
        w in 0u32..6,
        nattrs in 0usize..4,
        seed in any::<u64>(),
        script in proptest::collection::vec(0usize..300, 1..24),
        last in 1usize..1200,
    ) {
        let ServerMsg::Tile { payload, .. } = tile_msg(3, 1, 2, h, w, nattrs, seed) else {
            unreachable!("tile_msg builds a Tile");
        };
        let owned = ServerMsg::Error { code: ErrorCode::Internal, reason: "e".repeat(h as usize) };
        for frame in [Frame::push(tile_of(&payload)), Frame::msg(&owned)] {
            // The script ends on a call that accepts, so it cannot
            // refuse forever.
            let script = script.iter().copied().chain([last]).collect();
            let mut writer = Scripted { script, calls: 0, out: Vec::new() };
            let mut pos = 0;
            loop {
                match frame.write_to(&mut writer, &mut pos) {
                    Ok(()) => break,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        prop_assert_eq!(pos, writer.out.len(), "pos at a refusal");
                    }
                    Err(e) => prop_assert!(false, "unexpected error {}", e),
                }
            }
            prop_assert_eq!(pos, frame.len());
            prop_assert_eq!(&writer.out[..], &frame.to_vec()[..]);
        }
    }

    /// The read side of `write_to_resumes_at_any_byte`: a request frame
    /// and a tile frame back to back, handed out in arbitrary chunks
    /// with `Interrupted` between them. `read_frame` returns each body
    /// whole — so it decodes as the unsplit body does — without taking
    /// a byte of the next frame, and a stream cut anywhere inside
    /// either frame (or between them) ends in `UnexpectedEof`.
    #[test]
    fn read_frame_reassembles_any_split(
        h in 0u32..6,
        w in 0u32..6,
        nattrs in 0usize..4,
        seed in any::<u64>(),
        script in proptest::collection::vec(0usize..300, 1..24),
        last in 1usize..1200,
        cut in any::<u64>(),
    ) {
        let request = ClientMsg::RequestTile {
            tile: TileId::new(3, 1, 2),
            mv: Some(Move::from_index((seed % MOVES.len() as u64) as usize)),
        };
        let frames = [request.encode(), tile_msg(3, 1, 2, h, w, nattrs, seed).encode()];
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        // The script ends on a call that reads, so it cannot interrupt
        // forever.
        let script: Vec<usize> = script.iter().copied().chain([last]).collect();
        let mut r = ScriptedRead { bytes: stream.clone(), pos: 0, script: script.clone(), calls: 0 };

        let body = read_frame(&mut r).expect("request frame");
        prop_assert_eq!(r.pos, frames[0].len(), "read past the request frame");
        prop_assert_eq!(&body[..], &unframe(&frames[0])[..]);
        prop_assert_eq!(ClientMsg::decode(body).expect("decodes"), request);

        let body = read_frame(&mut r).expect("tile frame");
        prop_assert_eq!(r.pos, stream.len());
        prop_assert_eq!(&body[..], &unframe(&frames[1])[..]);
        assert_reencode_identical(&frames[1], &ServerMsg::decode(body).expect("decodes"));
        let eof = read_frame(&mut r).expect_err("the stream has ended");
        prop_assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);

        // Cut the stream short of its end: every whole frame before the
        // cut still reads, then the cut frame fails.
        let cut = (cut % (stream.len() as u64 - 1)) as usize + 1;
        let mut r = ScriptedRead { bytes: stream[..cut].to_vec(), pos: 0, script, calls: 0 };
        let whole = usize::from(cut >= frames[0].len());
        for _ in 0..whole {
            read_frame(&mut r).expect("a whole frame before the cut");
        }
        let eof = read_frame(&mut r).expect_err("the cut frame");
        prop_assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Truncating any valid frame of any variant at any byte yields a
    /// decode error — never a panic, never a bogus success.
    #[test]
    fn truncated_frames_rejected(
        cut in 1usize..200,
        seed in any::<u64>(),
    ) {
        let client_msgs = [
            ClientMsg::Hello { prefetch_k: 7, dataset: "ndsi".into() },
            ClientMsg::RequestTile {
                tile: TileId::new(2, 1, 3),
                mv: Some(Move::from_index((seed % MOVES.len() as u64) as usize)),
            },
            ClientMsg::GetStats,
            ClientMsg::Bye,
        ];
        for m in client_msgs {
            let body = unframe(&m.encode());
            if cut < body.len() {
                prop_assert!(ClientMsg::decode(body.slice(..body.len() - cut)).is_err());
            }
        }
        let server_msgs = [
            ServerMsg::Welcome { levels: 4, deepest_tiles: (8, 8) },
            tile_msg(3, 1, 2, 3, 3, 2, seed),
            ServerMsg::Stats { requests: 10, hits: 8, avg_latency_ns: 5, prefetch_issued: 6, prefetch_used: 4 },
            ServerMsg::Error { code: ErrorCode::Internal, reason: "broken pipe".into() },
        ];
        for m in server_msgs {
            let body = unframe(&m.encode());
            if cut < body.len() {
                prop_assert!(ServerMsg::decode(body.slice(..body.len() - cut)).is_err());
            }
        }
    }
}
