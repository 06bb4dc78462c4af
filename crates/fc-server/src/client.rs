//! A blocking ForeCache client.

use crate::protocol::{
    read_prefix, read_server_msg, read_tile_of, write_frame, ClientMsg, ErrorCode, FrameBuf,
    ServerMsg, TilePayload, MAX_FRAME,
};
use fc_tiles::{Move, TileId};
use std::io::{self, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected client session.
///
/// Requests go out through the socket itself ([`BufReader::get_mut`]);
/// replies come in through a [`ReplyReader`], which puts a steady-state
/// tile reply straight into the payload it returns.
#[derive(Debug)]
pub struct Client {
    rx: ReplyReader<TcpStream>,
    levels: u8,
    /// Every request is encoded here: after the Hello, sending
    /// allocates nothing.
    frame: FrameBuf,
}

/// The read-ahead the length prefix is read through. Small on purpose:
/// one read brings in a prefix with the head of its body (a whole
/// small reply), and [`BufReader`] hands any read at least this long
/// that finds it empty straight to the socket, so all but the first
/// few hundred bytes of a tile reply reach their `Vec`s with one copy,
/// the kernel's. A larger read-ahead copies more of every reply through
/// itself: with the decoder alone, 8 KiB took `payload-wire`'s
/// `lat_p50_us` 5.7 % below the previous client where 512 B took it
/// 12.9 % below (docs/BENCHMARKS.md, "Where a wire reply's client time
/// goes").
const READ_AHEAD: usize = 512;

/// The receive half of a session: reads one [`ServerMsg`] per call.
///
/// In the steady state a `Tile` reply costs two reads and no copy of
/// its own: the length prefix through the read-ahead buffer, then one
/// vectored read that places the columns and the mask in the `Vec`s
/// the payload returns (the protocol's `read_tile_of`, which predicts
/// the layout from the attribute names of the last `Tile` received).
/// Everything else — a session's first reply, `Stats`,
/// `Error`, the `Welcome` — goes through the one server-message
/// decoder straight off the read-ahead buffer. Either way the answer
/// is [`ServerMsg::decode`]'s over the frame's body, and exactly the
/// frame is consumed. No reply is ever put in a frame-sized buffer.
#[derive(Debug)]
pub struct ReplyReader<R> {
    reader: BufReader<R>,
    /// The attribute names of the last `Tile` received.
    names: Option<Vec<String>>,
}

impl<R: Read> ReplyReader<R> {
    /// Reads the messages of `inner`, a stream of server frames.
    pub fn new(inner: R) -> Self {
        Self {
            reader: BufReader::with_capacity(READ_AHEAD, inner),
            names: None,
        }
    }

    /// Reads the next message, exactly its frame.
    ///
    /// # Errors
    /// What [`crate::protocol::read_frame`] then [`ServerMsg::decode`]
    /// return on the same bytes.
    pub fn next_msg(&mut self) -> io::Result<ServerMsg> {
        let len = read_prefix(&mut self.reader, MAX_FRAME)?;
        let predicted = self
            .names
            .as_deref()
            .and_then(|names| read_tile_of(&mut self.reader, len, names));
        let msg = match predicted {
            Some(msg) => msg?,
            None => read_server_msg(&mut self.reader, len)?,
        };
        if let ServerMsg::Tile { payload, .. } = &msg {
            if self.names.as_ref() != Some(&payload.attrs) {
                self.names = Some(payload.attrs.clone());
            }
        }
        Ok(msg)
    }
}

/// A structured server-side error reply, carried as the source of the
/// `io::Error` the client methods return. `Display` prints the bare
/// reason (so existing message-matching callers are unaffected);
/// callers that branch on the category downcast:
///
/// ```ignore
/// match err.get_ref().and_then(|e| e.downcast_ref::<ServerError>()) {
///     Some(e) if e.code == ErrorCode::Overloaded => retry_elsewhere(),
///     _ => fail(err),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for ServerError {}

fn server_err(code: ErrorCode, reason: String) -> io::Error {
    io::Error::other(ServerError { code, reason })
}

/// A tile answer as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct TileAnswer {
    /// The tile payload.
    pub payload: TilePayload,
    /// Server-reported latency.
    pub latency: Duration,
    /// Whether the middleware cache answered.
    pub cache_hit: bool,
    /// The engine's phase estimate (`Phase::index`).
    pub phase: u8,
    /// Whether this is a degraded reply: the requested tile was
    /// unavailable within its deadline and `payload.tile` names the
    /// resident ancestor served in its place.
    pub degraded: bool,
}

/// Session statistics as seen by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests served.
    pub requests: u64,
    /// Cache hits.
    pub hits: u64,
    /// Average latency.
    pub avg_latency: Duration,
    /// Speculative tiles fetched on this session's behalf.
    pub prefetch_issued: u64,
    /// Speculative tiles later served as cache hits.
    pub prefetch_used: u64,
}

impl Client {
    /// Connects and opens a session with prefetch budget `k` (0 = server
    /// default) on the server's default dataset.
    ///
    /// # Errors
    /// Socket errors, protocol violations, or a server-side error reply.
    pub fn connect<A: ToSocketAddrs>(addr: A, k: u32) -> io::Result<Client> {
        Self::connect_dataset(addr, k, "")
    }

    /// Connects and opens a session on a named dataset — a server can
    /// serve several pyramids, each under its own cache namespace
    /// (empty name = the server's default dataset).
    ///
    /// # Errors
    /// As [`Client::connect`]; additionally `InvalidInput` when the
    /// name exceeds [`crate::protocol::MAX_DATASET_NAME`] bytes, or an
    /// error reply when the server does not serve `dataset`.
    pub fn connect_dataset<A: ToSocketAddrs>(addr: A, k: u32, dataset: &str) -> io::Result<Client> {
        if dataset.len() > crate::protocol::MAX_DATASET_NAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "dataset name too long: {} bytes (max {})",
                    dataset.len(),
                    crate::protocol::MAX_DATASET_NAME
                ),
            ));
        }
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut frame = FrameBuf::new();
        let hello = ClientMsg::Hello {
            prefetch_k: k,
            dataset: dataset.to_string(),
        };
        write_frame(&mut stream, hello.encode_into(&mut frame))?;
        let mut rx = ReplyReader::new(stream);
        match rx.next_msg()? {
            ServerMsg::Welcome { levels, .. } => Ok(Client { rx, levels, frame }),
            ServerMsg::Error { code, reason } => Err(server_err(code, reason)),
            other => Err(io::Error::other(format!(
                "unexpected reply to Hello: {other:?}"
            ))),
        }
    }

    /// Number of zoom levels in the served dataset.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Requests a tile.
    ///
    /// # Errors
    /// Socket errors or a server-side error reply (e.g. nonexistent
    /// tile).
    pub fn request_tile(&mut self, tile: TileId, mv: Option<Move>) -> io::Result<TileAnswer> {
        self.send(&ClientMsg::RequestTile { tile, mv })?;
        match self.rx.next_msg()? {
            ServerMsg::Tile {
                payload,
                latency_ns,
                cache_hit,
                phase,
                degraded,
            } => Ok(TileAnswer {
                payload,
                latency: Duration::from_nanos(latency_ns),
                cache_hit,
                phase,
                degraded,
            }),
            ServerMsg::Error { code, reason } => Err(server_err(code, reason)),
            other => Err(io::Error::other(format!(
                "unexpected reply to RequestTile: {other:?}"
            ))),
        }
    }

    /// Fetches session statistics.
    ///
    /// # Errors
    /// Socket or protocol errors.
    pub fn stats(&mut self) -> io::Result<SessionStats> {
        self.send(&ClientMsg::GetStats)?;
        match self.rx.next_msg()? {
            ServerMsg::Stats {
                requests,
                hits,
                avg_latency_ns,
                prefetch_issued,
                prefetch_used,
            } => Ok(SessionStats {
                requests,
                hits,
                avg_latency: Duration::from_nanos(avg_latency_ns),
                prefetch_issued,
                prefetch_used,
            }),
            ServerMsg::Error { code, reason } => Err(server_err(code, reason)),
            other => Err(io::Error::other(format!(
                "unexpected reply to GetStats: {other:?}"
            ))),
        }
    }

    fn send(&mut self, msg: &ClientMsg) -> io::Result<()> {
        write_frame(self.rx.reader.get_mut(), msg.encode_into(&mut self.frame))
    }

    /// Closes the session politely.
    ///
    /// # Errors
    /// Socket errors.
    pub fn bye(mut self) -> io::Result<()> {
        self.send(&ClientMsg::Bye)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use bytes::Bytes;
    use proptest::prelude::*;
    use std::io::IoSliceMut;

    /// A reader that hands out its bytes in the sizes its script says,
    /// call by call (the script repeats): `0` fails with `Interrupted`,
    /// `k` gives up to `k` bytes, spread over a vectored read's buffers
    /// as a socket's `readv` spreads them. Past its last byte it reads
    /// 0: end of stream.
    struct ScriptedRead {
        bytes: Vec<u8>,
        pos: usize,
        script: Vec<usize>,
        calls: usize,
    }

    impl ScriptedRead {
        fn new(bytes: &[u8], script: &[usize]) -> Self {
            Self {
                bytes: bytes.to_vec(),
                pos: 0,
                script: script.to_vec(),
                calls: 0,
            }
        }
    }

    impl Read for ScriptedRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            let room = self.script[self.calls % self.script.len()];
            self.calls += 1;
            if room == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut room = room.min(self.bytes.len() - self.pos);
            let start = self.pos;
            for buf in bufs {
                let n = room.min(buf.len());
                buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                self.pos += n;
                room -= n;
            }
            Ok(self.pos - start)
        }
    }

    /// A message as compared: its re-encoded bytes (bit-level, so NaN
    /// columns compare too), or its error's kind and message.
    type Outcome = Result<Bytes, (io::ErrorKind, String)>;

    fn outcome(r: io::Result<ServerMsg>) -> Outcome {
        r.map(|m| m.encode()).map_err(|e| (e.kind(), e.to_string()))
    }

    /// Reads `stream` to its first framing error twice — through
    /// `read_frame` + `ServerMsg::decode`, and through a [`ReplyReader`] —
    /// and requires the same outcome per frame, each read ending at the
    /// same byte. Returns how many frames decoded.
    fn same_as_reference(stream: &[u8], script: &[usize]) -> Result<usize, TestCaseError> {
        let mut reference = ScriptedRead::new(stream, script);
        let mut rx = ReplyReader::new(ScriptedRead::new(stream, script));
        let mut decoded = 0;
        loop {
            let (want, framed) = match read_frame(&mut reference) {
                Ok(body) => (outcome(ServerMsg::decode(body)), true),
                Err(e) => (outcome(Err(e)), false),
            };
            let got = outcome(rx.next_msg());
            prop_assert_eq!(&got, &want);
            let at = rx.reader.get_ref().pos - rx.reader.buffer().len();
            prop_assert_eq!(at, reference.pos, "the receiver read past the frame");
            if !framed {
                return Ok(decoded);
            }
            decoded += usize::from(want.is_ok());
        }
    }

    /// A tile of `names` whose values are arbitrary bit patterns.
    fn payload(names: &[&str], (h, w): (u32, u32), seed: u64) -> TilePayload {
        let n = (h * w) as usize;
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 29)
        };
        TilePayload {
            tile: TileId::new(3, h, w),
            h,
            w,
            attrs: names.iter().map(|s| s.to_string()).collect(),
            data: names
                .iter()
                .map(|_| (0..n).map(|_| f64::from_bits(next())).collect())
                .collect(),
            present: (0..n).map(|_| (next() & 1) as u8).collect(),
        }
    }

    fn reply(payload: TilePayload, latency_ns: u64) -> ServerMsg {
        ServerMsg::Tile {
            payload,
            latency_ns,
            cache_hit: latency_ns.is_multiple_of(2),
            phase: (latency_ns % 3) as u8,
            degraded: latency_ns.is_multiple_of(5),
        }
    }

    /// One session's replies, as the reference encoder frames them:
    /// tiles of one schema in `shapes` (ragged, possibly empty), a
    /// renamed schema whose names keep their lengths, a wider one,
    /// tiles whose `h·w` is not the cell count their length predicts,
    /// `Stats` and `Error`.
    fn session(shapes: &[(u32, u32)], seed: u64) -> Vec<Bytes> {
        const A: &[&str] = &["ndsi", "land", "v"];
        const RENAMED: &[&str] = &["ndsj", "land", "v"];
        const WIDE: &[&str] = &["ndsi", "land", "v", "snow"];
        let shape = |i: usize| shapes[i % shapes.len()];
        // Columns of 3 values under h·w = 4: the length predicts 3
        // cells, and the columns are short of 4.
        let mut short = payload(A, (1, 3), seed);
        (short.h, short.w) = (2, 2);
        // One cell and a mask 25 bytes too long: the length predicts 2
        // cells, and the body decodes with trailing bytes.
        let mut long = payload(A, (1, 1), seed);
        long.present.resize(26, 1);
        let mut msgs = vec![
            ServerMsg::Welcome {
                levels: 6,
                deepest_tiles: (32, 32),
            },
            reply(payload(A, shape(0), seed), 1),
            reply(payload(A, shape(1), seed + 1), 2),
            reply(payload(A, shape(3), seed + 3), 3),
            reply(payload(RENAMED, shape(4), seed + 4), 4),
            reply(payload(RENAMED, shape(5), seed + 5), 5),
            reply(payload(A, shape(6), seed + 6), 6),
            reply(short, 7),
            reply(long, 8),
            ServerMsg::Stats {
                requests: 9,
                hits: 7,
                avg_latency_ns: 123,
                prefetch_issued: 4,
                prefetch_used: 3,
            },
            reply(payload(A, shape(7), seed + 7), 10),
            ServerMsg::Error {
                code: ErrorCode::NoSuchTile,
                reason: "no such tile".into(),
            },
            reply(payload(WIDE, shape(8), seed + 8), 11),
            reply(payload(WIDE, shape(9), seed + 9), 12),
        ];
        msgs.push(reply(payload(A, shape(10), seed + 10), 13));
        msgs.iter().map(ServerMsg::encode).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The receive path is the reference decoder: on a session's
        /// replies, on each reply with one byte flipped, and on the
        /// stream cut at every byte, a `ReplyReader` returns what
        /// `read_frame` + `ServerMsg::decode` return, frame by frame,
        /// and consumes exactly the frames they do.
        #[test]
        fn the_receiver_is_the_reference_decoder(
            shapes in proptest::collection::vec((0u32..4, 0u32..4), 1..12),
            seed in any::<u64>(),
            flip in any::<u64>(),
            script in proptest::collection::vec(0usize..48, 1..6),
        ) {
            prop_assume!(script.iter().any(|&k| k > 0));
            let frames = session(&shapes, seed);
            let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
            prop_assert_eq!(same_as_reference(&stream, &script)?, frames.len() - 1);

            // One byte of each frame flipped: anywhere, and in the tag.
            let mut start = 0;
            for frame in &frames {
                for at in [(flip % frame.len() as u64) as usize, 4] {
                    let mut flipped = stream.clone();
                    flipped[start + at] ^= 1 << (flip >> 61);
                    same_as_reference(&flipped, &script)?;
                }
                start += frame.len();
            }
            for cut in 0..stream.len() {
                same_as_reference(&stream[..cut], &script)?;
            }
        }
    }

    /// A steady-state tile reply is two reads: the prefix with the head
    /// of the body through the read-ahead, then one vectored read into
    /// the payload.
    #[test]
    fn a_steady_tile_reply_is_two_reads() {
        let names = ["ndsi_avg", "ndsi_min", "ndsi_max", "land"];
        let frames: Vec<Bytes> = (0..3)
            .map(|i| reply(payload(&names, (32, 32), i), i).encode())
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        let mut rx = ReplyReader::new(ScriptedRead::new(&stream, &[usize::MAX]));
        for (i, frame) in frames.iter().enumerate() {
            let calls = rx.reader.get_ref().calls;
            assert_eq!(rx.next_msg().unwrap().encode(), *frame);
            let reads = rx.reader.get_ref().calls - calls;
            if i == 0 {
                assert!(reads > 2, "a first reply is decoded off the read-ahead");
            } else {
                assert_eq!(reads, 2, "reply {i}");
            }
        }
    }
}
