//! The wire protocol: length-prefixed frames, hand-rolled binary codec.
//!
//! Frame layout: `u32 LE payload length | u8 message tag | payload`.
//! All integers little-endian; strings are `u16 LE length + UTF-8`.
//!
//! # Replies leave by reference: [`Frame`]
//!
//! A tile message carries `attrs × h·w` f64 columns and a byte-per-cell
//! presence mask. The protocol is little-endian, so on a little-endian
//! host a tile's `Vec<f64>` columns **are** their wire bytes, and the
//! server sends them from where they lie:
//!
//! * **send** — a [`Frame`] owns only the small bytes of a message
//!   (length prefix, tag, header, attribute names, presence mask) and
//!   holds the `Arc<Tile>` whose columns are spliced between them by
//!   reference. [`Frame::write_to`] hands all pieces to one vectored
//!   write and resumes at any byte, so a reply is never copied into a
//!   payload, an encode buffer or a write queue; a queued tile frame
//!   is an `Arc` and a few KiB. The server sends `Frame`s and nothing
//!   else. (On a big-endian host [`Frame::tile`] falls
//!   back to an owned, byte-swapped frame from the reference encoder.)
//! * **reference encode** — [`TilePayload`] (from
//!   `server::tile_payload`) through [`ServerMsg::encode`] /
//!   [`ServerMsg::encode_into`] builds the same bytes as one owned
//!   buffer, staging `f64::to_le_bytes` through a fixed 512-byte chunk.
//!   It is what the tests compare [`Frame`] against byte for byte, what
//!   benchmarks time, and the big-endian fallback. Both encoders write
//!   a tile body through one layout function, so the format is written
//!   down once.
//! * **decode** — one decoder reads a server message from any
//!   [`Read`] through a byte count of the body it may take, so every
//!   check is one piece of code: the tile-dimension bound before any
//!   size arithmetic, the truncation checks before anything is sized,
//!   UTF-8, unknown tags. Each f64 column arrives with one read into
//!   its own zeroed `Vec<f64>`, seen as bytes (swapped after the read on
//!   a big-endian host), and the whole body is read, trailing bytes
//!   included, so a stream stays in step after a rejected message.
//!   [`ServerMsg::decode`] runs it over a body in memory; the
//!   [`Client`]'s [`ReplyReader`] runs it straight off the socket's
//!   read-ahead, and in the steady state receives a tile reply with one
//!   vectored read into its payload, checked afterwards against the
//!   layout it predicted (`read_tile_of`). [`read_frame`] reads a whole
//!   body into reserved capacity without zero-filling it first; the
//!   server reads requests with it, and the tests hold the client to
//!   it followed by [`ServerMsg::decode`].
//!
//! Frames are pre-sized to their exact encoded length (each message's
//! `encoded_body_len`); the length prefix is patched afterwards from
//! the bytes actually written, so it can never disagree with the body.
//!
//! ## The [`FrameBuf`] reuse contract
//!
//! [`ClientMsg::encode`]/[`ServerMsg::encode`] allocate a fresh buffer
//! per call. Steady-state senders of owned frames (the [`Client`]'s
//! requests, bulk benchmarks) hold one [`FrameBuf`] and call
//! `encode_into(&mut buf)` instead: the returned `&[u8]` is the framed
//! message, valid until the next `encode_into` on the same buffer, and
//! after warm-up encoding allocates nothing — the buffer retains the
//! high-water capacity of the largest frame it has carried. A
//! `FrameBuf` is plain reusable memory: it may be moved across
//! messages, sessions, and threads freely.
//!
//! [`Client`]: crate::client::Client
//! [`ReplyReader`]: crate::client::ReplyReader

use bytes::{Buf, Bytes};
use fc_tiles::{Move, Tile, TileId};
use std::io::{self, IoSlice, IoSliceMut, Read, Write};
use std::sync::Arc;

/// Maximum accepted frame size (guards against corrupt length prefixes).
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Maximum dataset-name length accepted in a Hello. Wire strings carry
/// a u16 length, so an unbounded name echoed into an Error reason
/// (`"unknown dataset: …"`) could overflow the reply's own string
/// field; both ends enforce this far smaller bound instead.
pub const MAX_DATASET_NAME: usize = 256;

/// The largest client message body: a Hello (tag, prefetch budget,
/// string length) naming a dataset of [`MAX_DATASET_NAME`] bytes. A
/// server ends a session, without a reply, at a frame prefix that
/// claims more; replies keep `MAX_FRAME`.
pub const MAX_CLIENT_FRAME: usize = 1 + 4 + 2 + MAX_DATASET_NAME;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Open a session (returns `ServerMsg::Welcome`).
    Hello {
        /// Prefetch budget k requested for this session.
        prefetch_k: u32,
        /// Dataset to browse: a server can serve several pyramids,
        /// each under its own cache namespace. Empty selects the
        /// server's default (first) dataset.
        dataset: String,
    },
    /// Request a tile; `mv` is the interface move that produced the
    /// request (`None` for the first request).
    RequestTile {
        /// The tile.
        tile: TileId,
        /// The move, if any.
        mv: Option<Move>,
    },
    /// Ask for session statistics.
    GetStats,
    /// Close the session.
    Bye,
}

/// The tile payload of a [`ServerMsg::Tile`].
#[derive(Debug, Clone, PartialEq)]
pub struct TilePayload {
    /// Which tile this is.
    pub tile: TileId,
    /// Tile height in cells.
    pub h: u32,
    /// Tile width in cells.
    pub w: u32,
    /// Attribute names, in storage order.
    pub attrs: Vec<String>,
    /// Row-major values per attribute (`attrs.len() × h·w`).
    pub data: Vec<Vec<f64>>,
    /// Cell presence mask, row-major (1 = present).
    pub present: Vec<u8>,
}

/// Structured category carried by [`ServerMsg::Error`]. The u8 wire
/// value is stable; unknown values decode as [`ErrorCode::General`], so
/// an older client keeps working when the server grows new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Unclassified failure.
    General = 0,
    /// The client's message could not be decoded.
    Malformed = 1,
    /// The Hello named a dataset this server does not serve.
    UnknownDataset = 2,
    /// The requested tile is outside the dataset's geometry.
    NoSuchTile = 3,
    /// Admission control shed the session; retry against another
    /// server (or later) rather than immediately.
    Overloaded = 4,
    /// The backend could not produce the tile within the retry and
    /// deadline budget, and nothing was resident to degrade to.
    Unavailable = 5,
    /// An internal failure (e.g. a panic) was contained; the server
    /// closes the session after sending this.
    Internal = 6,
}

impl ErrorCode {
    /// Decodes a wire byte (total: unknown values map to `General`).
    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownDataset,
            3 => ErrorCode::NoSuchTile,
            4 => ErrorCode::Overloaded,
            5 => ErrorCode::Unavailable,
            6 => ErrorCode::Internal,
            _ => ErrorCode::General,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::General => "general",
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownDataset => "unknown-dataset",
            ErrorCode::NoSuchTile => "no-such-tile",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Session accepted.
    Welcome {
        /// Zoom levels in the dataset.
        levels: u8,
        /// Tile grid rows/cols at the deepest level.
        deepest_tiles: (u32, u32),
    },
    /// A requested tile.
    Tile {
        /// The payload.
        payload: TilePayload,
        /// Server-side latency for this request, nanoseconds.
        latency_ns: u64,
        /// Whether the middleware cache answered.
        cache_hit: bool,
        /// The engine's phase estimate (by `Phase::index`).
        phase: u8,
        /// Whether this is a degraded reply: the requested tile's fetch
        /// exhausted its retry/deadline budget and a resident ancestor
        /// answered in its place (`payload.tile` names the ancestor).
        degraded: bool,
    },
    /// Session statistics.
    Stats {
        /// Requests served.
        requests: u64,
        /// Cache hits among them.
        hits: u64,
        /// Average latency, nanoseconds.
        avg_latency_ns: u64,
        /// Speculative tiles fetched on this session's behalf.
        prefetch_issued: u64,
        /// Speculative tiles later served as cache hits.
        prefetch_used: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable category (drives client retry/shed logic).
        code: ErrorCode,
        /// Human-readable reason.
        reason: String,
    },
}

/// A reusable frame-encoding buffer; see the module docs for the reuse
/// contract. `encode_into` clears it, writes one exact-length frame, and
/// returns the framed bytes; the allocation is retained across calls.
#[derive(Debug, Default, Clone)]
pub struct FrameBuf {
    buf: Vec<u8>,
}

impl FrameBuf {
    /// An empty buffer (first encode sizes it exactly).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and reserves for one frame of exactly `body_len` payload
    /// bytes, writes a placeholder length prefix, and hands out the Vec.
    fn start_frame(&mut self, body_len: usize) -> &mut Vec<u8> {
        self.buf.clear();
        self.buf.reserve(4 + body_len);
        self.buf.extend_from_slice(&[0u8; 4]);
        &mut self.buf
    }

    /// Patches the length prefix from the bytes actually encoded —
    /// plus `spliced`, the column bytes a [`Frame`] sends by reference
    /// between them — and returns the frame. Deriving the prefix from
    /// reality (rather than the predicted size) means an inconsistent
    /// payload — say `data` columns shorter than `h·w` — still yields a
    /// self-consistent frame the receiver rejects cleanly, never a
    /// desynced stream.
    fn finish_frame(&mut self, spliced: usize) -> &[u8] {
        // fc-check: allow(handler-unwrap) -- encoder-built frame; length is capped far below u32::MAX by MAX_FRAME
        let body_len = u32::try_from(self.buf.len() - 4 + spliced).expect("frame fits u32");
        self.buf[..4].copy_from_slice(&body_len.to_le_bytes());
        &self.buf
    }

    /// Consumes the buffer into an immutable [`Bytes`] (used by the
    /// allocating `encode` wrappers; no copy).
    fn into_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Clamps a string to the u16 wire-length limit on a char boundary.
/// Error reasons can embed backend messages of arbitrary length; an
/// oversized one must truncate on the wire, not panic the encoder
/// mid-session (used by both `put_string` and the exact-size
/// `encoded_body_len` computations so the two always agree).
fn wire_str(s: &str) -> &str {
    const MAX: usize = u16::MAX as usize;
    if s.len() <= MAX {
        return s;
    }
    let mut end = MAX;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// What `put_string` writes for `s`: its length prefix and bytes.
fn wire_name_len(s: &str) -> usize {
    2 + wire_str(s).len()
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    let bytes = wire_str(s).as_bytes();
    let len = bytes.len() as u16;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(bytes);
}

fn get_string(buf: &mut Bytes) -> io::Result<String> {
    if buf.remaining() < 2 {
        return Err(bad("truncated string length"));
    }
    let len = buf.get_u16_le() as usize;
    if buf.remaining() < len {
        return Err(bad("truncated string body"));
    }
    // `copy_to_bytes` is a shared sub-view; decode the UTF-8 straight
    // from it so the only copy is into the returned String.
    let raw = buf.copy_to_bytes(len);
    std::str::from_utf8(&raw)
        .map(str::to_owned)
        .map_err(|_| bad("invalid UTF-8"))
}

fn put_tile_id(buf: &mut Vec<u8>, t: TileId) {
    buf.push(t.level);
    buf.extend_from_slice(&t.y.to_le_bytes());
    buf.extend_from_slice(&t.x.to_le_bytes());
}

/// Bulk-appends a f64 column as little-endian bytes, staging
/// `to_le_bytes` conversions through a fixed 64-value chunk so the copy
/// into `out` is one `extend_from_slice` per 512 bytes instead of one
/// writer call per value.
fn put_f64_column(out: &mut Vec<u8>, values: &[f64]) {
    let mut stage = [0u8; 512];
    for chunk in values.chunks(64) {
        for (slot, v) in stage.chunks_exact_mut(8).zip(chunk) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&stage[..chunk.len() * 8]);
    }
}

fn get_tile_id(buf: &mut Bytes) -> io::Result<TileId> {
    if buf.remaining() < 9 {
        return Err(bad("truncated tile id"));
    }
    Ok(TileId::new(
        buf.get_u8(),
        buf.get_u32_le(),
        buf.get_u32_le(),
    ))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn mid_frame() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended mid-frame")
}

/// Fills `bufs` in order from `r`, with vectored reads; the stream
/// ending first is [`read_frame`]'s `UnexpectedEof`. `Interrupted` is
/// retried.
fn read_full(r: &mut impl Read, mut bufs: &mut [IoSliceMut<'_>]) -> io::Result<()> {
    IoSliceMut::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match r.read_vectored(bufs) {
            Ok(0) => return Err(mid_frame()),
            Ok(n) => IoSliceMut::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One server-message body being read from any [`Read`]: at most
/// `left` more bytes of `inner`. The server-message decoder reads
/// through it, so one decoder serves a body in memory
/// ([`ServerMsg::decode`]) and one still in the socket (the
/// [`Client`](crate::client::Client)'s receive path). A read the body
/// is too short for fails with the decoder's truncation message before
/// anything is allocated or read; the stream ending first fails as
/// [`read_frame`] does.
struct Body<R> {
    inner: R,
    left: usize,
}

impl<R: Read> Body<R> {
    /// Fills `buf`, or fails with `what` when the body holds fewer
    /// bytes.
    fn fill(&mut self, buf: &mut [u8], what: &str) -> io::Result<()> {
        if buf.len() > self.left {
            return Err(bad(what));
        }
        self.left -= buf.len();
        read_full(&mut self.inner, &mut [IoSliceMut::new(buf)])
    }

    fn take<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let mut a = [0; N];
        self.fill(&mut a, what)?;
        Ok(a)
    }

    fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take::<1>(what)?[0])
    }

    /// `n` bytes into a `Vec` sized only once the body is known to hold
    /// them.
    fn bytes(&mut self, n: usize, what: &str) -> io::Result<Vec<u8>> {
        if n > self.left {
            return Err(bad(what));
        }
        let mut v = vec![0; n];
        self.fill(&mut v, what)?;
        Ok(v)
    }

    /// `n` f64 values, received with one read into their own `Vec`.
    fn column(&mut self, n: usize) -> io::Result<Vec<f64>> {
        const WHAT: &str = "truncated attribute data";
        if n * 8 > self.left {
            return Err(bad(WHAT));
        }
        let mut values = vec![0.0; n];
        self.fill(column_bytes_mut(&mut values), WHAT)?;
        column_from_le(&mut values);
        Ok(values)
    }

    fn string(&mut self) -> io::Result<String> {
        let len = u16::from_le_bytes(self.take("truncated string length")?) as usize;
        String::from_utf8(self.bytes(len, "truncated string body")?)
            .map_err(|_| bad("invalid UTF-8"))
    }

    fn tile_id(&mut self) -> io::Result<TileId> {
        const WHAT: &str = "truncated tile id";
        Ok(TileId::new(
            self.u8(WHAT)?,
            u32::from_le_bytes(self.take(WHAT)?),
            u32::from_le_bytes(self.take(WHAT)?),
        ))
    }

    /// Reads what the decoder left — trailing bytes, or the rest of a
    /// body it rejected — so the stream stays in step with the frames.
    fn finish(mut self) -> io::Result<()> {
        let left = self.left as u64;
        if io::copy(&mut self.inner.by_ref().take(left), &mut io::sink())? < left {
            return Err(mid_frame());
        }
        Ok(())
    }
}

/// Decodes one server message of `len` body bytes from `r`, reading
/// exactly those bytes whatever the outcome (unless the stream fails):
/// the one decoder of [`ServerMsg`]s. The stream ending inside the body
/// wins over any decode error, as with [`read_frame`] then
/// [`ServerMsg::decode`].
pub(crate) fn read_server_msg(r: impl Read, len: usize) -> io::Result<ServerMsg> {
    let mut body = Body {
        inner: r,
        left: len,
    };
    let msg = get_server_msg(&mut body);
    body.finish()?;
    msg
}

/// What a `Tile` body holds ahead of its attributes: identity, shape
/// and the reply scalars.
#[derive(Debug, Clone, Copy)]
struct TileHeader {
    tile: TileId,
    h: u32,
    w: u32,
    latency_ns: u64,
    cache_hit: bool,
    phase: u8,
    degraded: bool,
}

const TAG_TILE: u8 = 1;

impl TileHeader {
    /// Encoded size, tag through attribute count.
    const LEN: usize = 1 + 9 + 4 + 4 + 8 + 1 + 1 + 1 + 2;

    fn put(&self, out: &mut Vec<u8>, nattrs: usize) {
        out.push(TAG_TILE);
        put_tile_id(out, self.tile);
        out.extend_from_slice(&self.h.to_le_bytes());
        out.extend_from_slice(&self.w.to_le_bytes());
        out.extend_from_slice(&self.latency_ns.to_le_bytes());
        out.push(u8::from(self.cache_hit));
        out.push(self.phase);
        out.push(u8::from(self.degraded));
        // fc-check: allow(handler-unwrap) -- attr count comes from the served dataset schema, far below u16::MAX
        let nattrs = u16::try_from(nattrs).expect("attr count");
        out.extend_from_slice(&nattrs.to_le_bytes());
    }

    /// Reads the header behind a `TAG_TILE` tag, and the attribute
    /// count that closes it.
    fn get(body: &mut Body<impl Read>) -> io::Result<(Self, usize)> {
        const WHAT: &str = "truncated Tile header";
        let header = Self {
            tile: body.tile_id()?,
            h: u32::from_le_bytes(body.take(WHAT)?),
            w: u32::from_le_bytes(body.take(WHAT)?),
            latency_ns: u64::from_le_bytes(body.take(WHAT)?),
            cache_hit: body.u8(WHAT)? != 0,
            phase: body.u8(WHAT)?,
            degraded: body.u8(WHAT)? != 0,
        };
        let nattrs = u16::from_le_bytes(body.take(WHAT)?) as usize;
        Ok((header, nattrs))
    }
}

/// Exact size of a `Tile` body whose columns take `column_len`
/// bytes each (0 for the bytes a [`Frame`] owns: its columns are not
/// in the buffer).
fn tile_body_len<'a>(
    names: impl Iterator<Item = &'a str>,
    column_len: usize,
    mask_len: usize,
) -> usize {
    let attrs: usize = names.map(|n| wire_name_len(n) + column_len).sum();
    TileHeader::LEN + attrs + mask_len
}

/// Writes a `Tile` body — the one place the layout is written down:
/// the header, then per attribute its name and its column, then the
/// presence mask. `column(out, i)` puts
/// attribute `i`'s values (the reference encoder) or only notes where
/// they belong (a [`Frame`]).
fn put_tile_body<'a>(
    out: &mut Vec<u8>,
    header: &TileHeader,
    names: impl ExactSizeIterator<Item = &'a str>,
    mut column: impl FnMut(&mut Vec<u8>, usize),
    mask: impl FnOnce(&mut Vec<u8>),
) {
    header.put(out, names.len());
    for (i, name) in names.enumerate() {
        put_string(out, name);
        column(out, i);
    }
    mask(out);
}

/// The reference encoder's two halves of the above, over an owned
/// [`TilePayload`].
fn payload_body_len(p: &TilePayload) -> usize {
    let column_len = p.h as usize * p.w as usize * 8;
    let names = p.attrs.iter().map(String::as_str);
    tile_body_len(names, column_len, p.present.len())
}

fn put_payload(out: &mut Vec<u8>, p: &TilePayload, header: &TileHeader) {
    put_tile_body(
        out,
        header,
        p.attrs.iter().map(String::as_str),
        |out, i| put_f64_column(out, p.data.get(i).map_or(&[], Vec::as_slice)),
        |out| out.extend_from_slice(&p.present),
    );
}

/// Reads a `Tile` body behind its tag back into a message.
fn get_tile_msg(body: &mut Body<impl Read>) -> io::Result<ServerMsg> {
    let (header, nattrs) = TileHeader::get(body)?;
    // Bound the cell count before any size arithmetic: a crafted h×w
    // near usize::MAX would wrap `ncells * 8` below and slip past the
    // truncation checks. No valid frame can carry more than MAX_FRAME
    // bytes anyway.
    let ncells = (header.h as usize)
        .checked_mul(header.w as usize)
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| bad("tile dimensions too large"))?;
    let mut attrs = Vec::with_capacity(nattrs);
    let mut data = Vec::with_capacity(nattrs);
    for _ in 0..nattrs {
        attrs.push(body.string()?);
        data.push(body.column(ncells)?);
    }
    let payload = TilePayload {
        tile: header.tile,
        h: header.h,
        w: header.w,
        attrs,
        data,
        present: body.bytes(ncells, "truncated presence mask")?,
    };
    Ok(tile_msg(payload, &header))
}

/// Receives a [`ServerMsg::Tile`] of `len` body bytes whose attributes
/// are `names` straight into its payload, or `None`, having read
/// nothing, when no such tile is `len` bytes long.
///
/// A tile of these attributes and `n` cells is `fixed + n·(8·attrs + 1)`
/// bytes, so `len` names `n`, and every piece of the body has its
/// place before a byte arrives: one vectored read fills the header and
/// first name, each column in its `Vec<f64>`, each further name, and
/// the mask in its `Vec<u8>`. The bytes are then checked to be what
/// was predicted — the `Tile` tag, `h·w = n`, the attribute count,
/// every name — and where any differs (a schema change) the pieces,
/// in wire order, go through the decoder, so the answer is always
/// [`ServerMsg::decode`]'s on the same bytes.
pub(crate) fn read_tile_of(
    r: &mut impl Read,
    len: usize,
    names: &[String],
) -> Option<io::Result<ServerMsg>> {
    let fixed = TileHeader::LEN + names.iter().map(|s| wire_name_len(s)).sum::<usize>();
    let per_cell = 8 * names.len() + 1;
    let cells = len
        .checked_sub(fixed)
        .filter(|&c| c > 0 && c % per_cell == 0)?;
    Some(read_tile_cells(r, len, names, fixed, cells / per_cell))
}

fn read_tile_cells(
    r: &mut impl Read,
    len: usize,
    names: &[String],
    fixed: usize,
    n: usize,
) -> io::Result<ServerMsg> {
    const HEAD: usize = TileHeader::LEN;
    // The header and every name with its length prefix, in wire order.
    let mut small = vec![0; fixed];
    let mut data: Vec<Vec<f64>> = names.iter().map(|_| vec![0.0; n]).collect();
    let mut present = vec![0; n];
    let mut pieces: Vec<&mut [u8]> = Vec::with_capacity(2 * names.len() + 1);
    let (head, mut rest) = small.split_at_mut(HEAD + names.first().map_or(0, |s| wire_name_len(s)));
    pieces.push(head);
    for (i, values) in data.iter_mut().enumerate() {
        if i > 0 {
            let (name, tail) = std::mem::take(&mut rest).split_at_mut(wire_name_len(&names[i]));
            pieces.push(name);
            rest = tail;
        }
        pieces.push(column_bytes_mut(values));
    }
    pieces.push(&mut present);
    let mut iov: Vec<IoSliceMut<'_>> = pieces.iter_mut().map(|p| IoSliceMut::new(p)).collect();
    read_full(r, &mut iov)?;

    let tag = pieces[0][0];
    let mut header_body = Body {
        inner: &pieces[0][1..HEAD],
        left: HEAD - 1,
    };
    let (header, nattrs) = TileHeader::get(&mut header_body)?;
    let wire_names = (0..names.len()).map(|i| match i {
        0 => &pieces[0][HEAD..],
        i => &*pieces[2 * i],
    });
    let predicted = tag == TAG_TILE
        && u64::from(header.h) * u64::from(header.w) == n as u64
        && nattrs == names.len()
        && names.iter().zip(wire_names).all(|(name, wire)| {
            let name = wire_str(name).as_bytes();
            usize::from(u16::from_le_bytes([wire[0], wire[1]])) == name.len() && wire[2..] == *name
        });
    if !predicted {
        let pieces = pieces.iter().map(|p| &**p);
        return read_server_msg(Concat(pieces, &[]), len);
    }
    for values in &mut data {
        column_from_le(values);
    }
    let payload = TilePayload {
        tile: header.tile,
        h: header.h,
        w: header.w,
        attrs: names.to_vec(),
        data,
        present,
    };
    Ok(tile_msg(payload, &header))
}

/// Byte slices read one after another as one stream.
struct Concat<'a, I>(I, &'a [u8]);

impl<'a, I: Iterator<Item = &'a [u8]>> Read for Concat<'a, I> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.1.is_empty() {
            match self.0.next() {
                Some(piece) => self.1 = piece,
                None => return Ok(0),
            }
        }
        self.1.read(buf)
    }
}

/// The `Tile` of `header`'s reply scalars around `payload`.
fn tile_msg(payload: TilePayload, header: &TileHeader) -> ServerMsg {
    ServerMsg::Tile {
        payload,
        latency_ns: header.latency_ns,
        cache_hit: header.cache_hit,
        phase: header.phase,
        degraded: header.degraded,
    }
}

/// A tile's shape as the wire carries it.
pub(crate) fn wire_shape(tile: &Tile) -> (u32, u32) {
    let (h, w) = tile.shape();
    (
        // fc-check: allow(handler-unwrap) -- tile dimensions are server-configured and far below u32::MAX
        u32::try_from(h).expect("tile height"),
        // fc-check: allow(handler-unwrap) -- tile dimensions are server-configured and far below u32::MAX
        u32::try_from(w).expect("tile width"),
    )
}

impl ClientMsg {
    /// Encodes into a framed byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = FrameBuf::new();
        self.encode_into(&mut buf);
        buf.into_bytes()
    }

    /// Exact encoded payload size (without the 4-byte length prefix).
    fn encoded_body_len(&self) -> usize {
        match self {
            ClientMsg::Hello { dataset, .. } => 1 + 4 + 2 + wire_str(dataset).len(),
            ClientMsg::RequestTile { .. } => 1 + 9 + 1,
            ClientMsg::GetStats | ClientMsg::Bye => 1,
        }
    }

    /// Encodes into a reusable [`FrameBuf`], returning the framed bytes
    /// (valid until the next encode on the same buffer). Allocation-free
    /// once the buffer has warmed to the largest frame it carries.
    pub(crate) fn encode_into<'a>(&self, frame: &'a mut FrameBuf) -> &'a [u8] {
        let body = frame.start_frame(self.encoded_body_len());
        match self {
            ClientMsg::Hello {
                prefetch_k,
                dataset,
            } => {
                body.push(0);
                body.extend_from_slice(&prefetch_k.to_le_bytes());
                put_string(body, dataset);
            }
            ClientMsg::RequestTile { tile, mv } => {
                body.push(1);
                put_tile_id(body, *tile);
                match mv {
                    // fc-check: allow(handler-unwrap) -- Move::index() is 0..8 by construction, always fits u8
                    Some(m) => body.push(u8::try_from(m.index() + 1).expect("move id fits")),
                    None => body.push(0),
                }
            }
            ClientMsg::GetStats => body.push(2),
            ClientMsg::Bye => body.push(3),
        }
        frame.finish_frame(0)
    }

    /// Decodes one unframed message body.
    ///
    /// # Errors
    /// `InvalidData` on malformed bodies.
    pub fn decode(mut body: Bytes) -> io::Result<Self> {
        if body.is_empty() {
            return Err(bad("empty message"));
        }
        match body.get_u8() {
            0 => {
                if body.remaining() < 4 {
                    return Err(bad("truncated Hello"));
                }
                let prefetch_k = body.get_u32_le();
                let dataset = get_string(&mut body)?;
                Ok(ClientMsg::Hello {
                    prefetch_k,
                    dataset,
                })
            }
            1 => {
                let tile = get_tile_id(&mut body)?;
                if body.remaining() < 1 {
                    return Err(bad("truncated RequestTile"));
                }
                let raw = body.get_u8();
                let mv = match raw {
                    0 => None,
                    n if (n as usize) <= fc_tiles::MOVES.len() => {
                        Some(Move::from_index(n as usize - 1))
                    }
                    _ => return Err(bad("bad move id")),
                };
                Ok(ClientMsg::RequestTile { tile, mv })
            }
            2 => Ok(ClientMsg::GetStats),
            3 => Ok(ClientMsg::Bye),
            t => Err(bad(&format!("unknown client tag {t}"))),
        }
    }
}

impl ServerMsg {
    /// Encodes into a framed byte buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = FrameBuf::new();
        self.encode_into(&mut buf);
        buf.into_bytes()
    }

    /// Exact encoded payload size (without the 4-byte length prefix).
    fn encoded_body_len(&self) -> usize {
        match self {
            ServerMsg::Welcome { .. } => 1 + 1 + 4 + 4,
            ServerMsg::Tile { payload, .. } => payload_body_len(payload),
            ServerMsg::Stats { .. } => 1 + 8 + 8 + 8 + 8 + 8,
            ServerMsg::Error { reason, .. } => 1 + 1 + 2 + wire_str(reason).len(),
        }
    }

    /// Encodes into a reusable [`FrameBuf`], returning the framed bytes
    /// (valid until the next encode on the same buffer). The frame is
    /// pre-sized to its exact length and f64 columns are appended with
    /// bulk chunk copies, so steady-state encoding allocates nothing.
    pub fn encode_into<'a>(&self, frame: &'a mut FrameBuf) -> &'a [u8] {
        let body = frame.start_frame(self.encoded_body_len());
        match self {
            ServerMsg::Welcome {
                levels,
                deepest_tiles,
            } => {
                body.push(0);
                body.push(*levels);
                body.extend_from_slice(&deepest_tiles.0.to_le_bytes());
                body.extend_from_slice(&deepest_tiles.1.to_le_bytes());
            }
            ServerMsg::Tile {
                payload,
                latency_ns,
                cache_hit,
                phase,
                degraded,
            } => put_payload(
                body,
                payload,
                &TileHeader {
                    tile: payload.tile,
                    h: payload.h,
                    w: payload.w,
                    latency_ns: *latency_ns,
                    cache_hit: *cache_hit,
                    phase: *phase,
                    degraded: *degraded,
                },
            ),
            ServerMsg::Stats {
                requests,
                hits,
                avg_latency_ns,
                prefetch_issued,
                prefetch_used,
            } => {
                body.push(2);
                body.extend_from_slice(&requests.to_le_bytes());
                body.extend_from_slice(&hits.to_le_bytes());
                body.extend_from_slice(&avg_latency_ns.to_le_bytes());
                body.extend_from_slice(&prefetch_issued.to_le_bytes());
                body.extend_from_slice(&prefetch_used.to_le_bytes());
            }
            ServerMsg::Error { code, reason } => {
                body.push(3);
                body.push(*code as u8);
                put_string(body, reason);
            }
        }
        frame.finish_frame(0)
    }

    /// Decodes one unframed message body.
    ///
    /// # Errors
    /// `InvalidData` on malformed bodies.
    pub fn decode(body: Bytes) -> io::Result<Self> {
        read_server_msg(&body[..], body.len())
    }
}

/// The server-message decoder, over a body in memory or in a stream.
fn get_server_msg(body: &mut Body<impl Read>) -> io::Result<ServerMsg> {
    match body.u8("empty message")? {
        0 => {
            const WHAT: &str = "truncated Welcome";
            Ok(ServerMsg::Welcome {
                levels: body.u8(WHAT)?,
                deepest_tiles: (
                    u32::from_le_bytes(body.take(WHAT)?),
                    u32::from_le_bytes(body.take(WHAT)?),
                ),
            })
        }
        TAG_TILE => get_tile_msg(body),
        2 => {
            const WHAT: &str = "truncated Stats";
            let mut next = || body.take(WHAT).map(u64::from_le_bytes);
            Ok(ServerMsg::Stats {
                requests: next()?,
                hits: next()?,
                avg_latency_ns: next()?,
                prefetch_issued: next()?,
                prefetch_used: next()?,
            })
        }
        3 => Ok(ServerMsg::Error {
            code: ErrorCode::from_u8(body.u8("truncated Error")?),
            reason: body.string()?,
        }),
        t => Err(bad(&format!("unknown server tag {t}"))),
    }
}

/// One server → client message ready to leave: the bytes it owns and,
/// for a tile, the columns it sends **by reference**.
///
/// `owned` is the whole frame for the small messages ([`Frame::msg`]).
/// For a tile ([`Frame::tile`]) it is everything but
/// the f64 columns — length prefix, tag, header, `u16`-prefixed
/// attribute names, presence mask — and `spliced` holds the tile with
/// the cuts: `cuts[i]` is the offset in `owned` where attribute `i`'s
/// column belongs. The columns themselves stay in the `Arc<Tile>`,
/// which the frame keeps alive until it is dropped (so a queued reply
/// survives the tile's eviction). On the wire the frame is its
/// `2·attrs + 1` pieces in order, byte for byte what
/// [`ServerMsg::encode`] builds from `server::tile_payload`.
#[derive(Debug)]
pub struct Frame {
    owned: Vec<u8>,
    spliced: Option<(Arc<Tile>, Vec<usize>)>,
}

/// Pieces one [`Frame::write_to`] call hands the writer: a tile of up
/// to seven attributes goes out in one vectored write, a wider one in
/// several.
const MAX_IOV: usize = 16;

/// A column's wire bytes. The protocol is little-endian, so on a
/// little-endian host (the only kind that builds a spliced [`Frame`])
/// they are the values as they lie in memory.
#[allow(unsafe_code)]
fn column_bytes(values: &[f64]) -> &[u8] {
    // SAFETY: `values` is a live, initialised `[f64]`, so the
    // `size_of_val(values)` bytes behind its pointer are readable and
    // initialised for the lifetime of the borrow the result keeps;
    // `u8` has alignment 1 and no invalid bit patterns, and nothing
    // writes through a shared borrow.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// The bytes of a column to receive into: [`column_bytes`] for the
/// reader. After a read they hold the wire's bytes, which
/// [`column_from_le`] turns into the values.
#[allow(unsafe_code)]
fn column_bytes_mut(values: &mut [f64]) -> &mut [u8] {
    // SAFETY: `values` is a live, initialised `[f64]` borrowed
    // exclusively, so the `size_of_val(values)` bytes behind its pointer
    // are readable, writable and initialised, and nothing else reaches
    // them for the lifetime of the borrow the result keeps; `u8` has
    // alignment 1, and every bit pattern written through it leaves a
    // valid `f64`.
    unsafe {
        std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), std::mem::size_of_val(values))
    }
}

/// Turns a column received through [`column_bytes_mut`] from its wire
/// bytes into its values: nothing to do on a little-endian host; a
/// big-endian one swaps each value, as [`Frame::tile`] swaps there.
fn column_from_le(values: &mut [f64]) {
    if cfg!(target_endian = "big") {
        for v in values {
            *v = f64::from_bits(u64::from_le(v.to_bits()));
        }
    }
}

// A frame always has its prefix and tag: there is no empty one to ask about.
#[allow(clippy::len_without_is_empty)]
impl Frame {
    /// An owned frame: `msg` through [`ServerMsg::encode_into`].
    pub fn msg(msg: &ServerMsg) -> Frame {
        let mut buf = FrameBuf::new();
        msg.encode_into(&mut buf);
        Frame {
            owned: buf.buf,
            spliced: None,
        }
    }

    /// The [`ServerMsg::Tile`] reply carrying `tile`, its columns by
    /// reference.
    pub fn tile(
        tile: Arc<Tile>,
        latency_ns: u64,
        cache_hit: bool,
        phase: u8,
        degraded: bool,
    ) -> Frame {
        let (h, w) = wire_shape(&tile);
        let header = TileHeader {
            tile: tile.id,
            h,
            w,
            latency_ns,
            cache_hit,
            phase,
            degraded,
        };
        if cfg!(target_endian = "big") {
            // The columns in memory are not their wire bytes here:
            // send an owned, byte-swapped frame.
            return Frame::msg(&tile_msg(crate::server::tile_payload(&tile), &header));
        }
        let array = &tile.array;
        let attrs = &array.schema().attrs;
        let names = || attrs.iter().map(|a| a.name.as_str());
        let mut buf = FrameBuf::new();
        let owned = buf.start_frame(tile_body_len(names(), 0, array.ncells()));
        let mut cuts = Vec::with_capacity(attrs.len());
        put_tile_body(
            owned,
            &header,
            names(),
            |out, _| cuts.push(out.len()),
            |out| array.validity().expand_into(out),
        );
        buf.finish_frame(cuts.len() * array.ncells() * 8);
        Frame {
            owned: buf.buf,
            spliced: Some((tile, cuts)),
        }
    }

    /// Calls `f` on each piece of the frame in wire order: the owned
    /// bytes up to each cut, then the column that belongs there, and
    /// last the owned tail.
    fn for_each_piece<'a>(&'a self, mut f: impl FnMut(&'a [u8])) {
        let mut at = 0;
        if let Some((tile, cuts)) = &self.spliced {
            for (i, &cut) in cuts.iter().enumerate() {
                f(&self.owned[at..cut]);
                f(column_bytes(tile.array.attr_col(i)));
                at = cut;
            }
        }
        f(&self.owned[at..]);
    }

    /// Total bytes on the wire, length prefix included.
    pub fn len(&self) -> usize {
        let columns = match &self.spliced {
            Some((tile, cuts)) => cuts.len() * tile.array.ncells() * 8,
            None => 0,
        };
        self.owned.len() + columns
    }

    /// The frame as one owned buffer (what the tests compare against
    /// the reference encoder; serving never concatenates).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_piece(|piece| out.extend_from_slice(piece));
        out
    }

    /// Writes the frame from byte `*pos` on — any byte: mid-header,
    /// mid-column, mid-mask — with vectored writes over the pieces
    /// that remain, advancing `*pos` by what the writer took, until
    /// the frame is out.
    ///
    /// # Errors
    /// Whatever the writer refuses with, `*pos` left at the first
    /// unwritten byte — including `WouldBlock`, after which the caller
    /// resumes with the same `pos` once the writer has room.
    /// `Interrupted` is retried; a writer that takes nothing is
    /// `WriteZero`.
    pub fn write_to(&self, w: &mut impl Write, pos: &mut usize) -> io::Result<()> {
        let len = self.len();
        while *pos < len {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            let (mut n, mut skip) = (0, *pos);
            self.for_each_piece(|piece| {
                if skip >= piece.len() {
                    skip -= piece.len();
                } else if n < MAX_IOV {
                    iov[n] = IoSlice::new(&piece[skip..]);
                    n += 1;
                    skip = 0;
                }
            });
            match w.write_vectored(&iov[..n]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(written) => *pos += written,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Writes one framed message (as produced by `encode`/`encode_into`) to
/// a stream.
///
/// # Errors
/// Propagates I/O errors.
pub fn write_frame<W: Write>(w: &mut W, framed: &[u8]) -> io::Result<()> {
    w.write_all(framed)?;
    w.flush()
}

/// Reads one frame body from a stream (without the length prefix).
///
/// # Errors
/// Propagates I/O errors; `InvalidData` for frames over `MAX_FRAME`;
/// `UnexpectedEof` when the stream ends, between frames or inside one.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Bytes> {
    // A prefix claiming too much fails before anything is reserved or
    // read past it.
    let len = read_prefix(r, MAX_FRAME)?;
    // `read_to_end` fills the reserved capacity as it stands — no
    // zero-fill of bytes the read is about to overwrite — and `take`
    // stops it at this frame's end.
    let mut body = Vec::with_capacity(len);
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(mid_frame());
    }
    Ok(Bytes::from(body))
}

/// Reads a frame's length prefix: the length of the body that follows,
/// or `InvalidData` when it claims more than `max` bytes.
pub(crate) fn read_prefix(r: &mut impl Read, max: usize) -> io::Result<usize> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max {
        return Err(bad("frame too large"));
    }
    Ok(len)
}

/// Strips the 4-byte length prefix from an encoded message (test helper
/// and internal plumbing for decode-after-encode).
pub fn unframe(framed: &Bytes) -> Bytes {
    framed.slice(4..)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use fc_tiles::Quadrant;

    #[test]
    fn client_msgs_roundtrip() {
        let msgs = vec![
            ClientMsg::Hello {
                prefetch_k: 5,
                dataset: String::new(),
            },
            ClientMsg::Hello {
                prefetch_k: 3,
                dataset: "ndsi_west".into(),
            },
            ClientMsg::RequestTile {
                tile: TileId::new(3, 7, 9),
                mv: Some(Move::ZoomIn(Quadrant::Se)),
            },
            ClientMsg::RequestTile {
                tile: TileId::ROOT,
                mv: None,
            },
            ClientMsg::GetStats,
            ClientMsg::Bye,
        ];
        for m in msgs {
            let enc = m.encode();
            let dec = ClientMsg::decode(unframe(&enc)).unwrap();
            assert_eq!(dec, m);
        }
    }

    #[test]
    fn server_msgs_roundtrip() {
        let payload = TilePayload {
            tile: TileId::new(2, 1, 3),
            h: 2,
            w: 2,
            attrs: vec!["ndsi_avg".into(), "land".into()],
            data: vec![vec![0.1, 0.2, 0.3, 0.4], vec![1.0, 1.0, 0.0, 1.0]],
            present: vec![1, 1, 0, 1],
        };
        let msgs = vec![
            ServerMsg::Welcome {
                levels: 6,
                deepest_tiles: (32, 32),
            },
            ServerMsg::Tile {
                payload: payload.clone(),
                latency_ns: 19_500_000,
                cache_hit: true,
                phase: 2,
                degraded: false,
            },
            ServerMsg::Tile {
                payload,
                latency_ns: 984_000_000,
                cache_hit: false,
                phase: 0,
                degraded: true,
            },
            ServerMsg::Stats {
                requests: 10,
                hits: 8,
                avg_latency_ns: 123,
                prefetch_issued: 6,
                prefetch_used: 4,
            },
            ServerMsg::Error {
                code: ErrorCode::NoSuchTile,
                reason: "no such tile".into(),
            },
            ServerMsg::Error {
                code: ErrorCode::Overloaded,
                reason: String::new(),
            },
        ];
        for m in msgs {
            let enc = m.encode();
            let dec = ServerMsg::decode(unframe(&enc)).unwrap();
            assert_eq!(dec, m);
        }
    }

    #[test]
    fn unknown_error_code_decodes_as_general() {
        let mut b = BytesMut::new();
        b.put_u8(3); // Error tag
        b.put_u8(200); // unassigned code
        b.put_u16_le(2);
        b.put_slice(b"hm");
        let dec = ServerMsg::decode(b.freeze()).unwrap();
        assert_eq!(
            dec,
            ServerMsg::Error {
                code: ErrorCode::General,
                reason: "hm".into()
            }
        );
    }

    #[test]
    fn oversized_reason_truncates_on_a_char_boundary() {
        // 'é' is two bytes; an odd cap would split it. The encoder must
        // clamp to the u16 limit without panicking or emitting invalid
        // UTF-8, and the frame prefix must match the truncated body.
        let reason = "é".repeat(40_000); // 80 000 bytes
        let msg = ServerMsg::Error {
            code: ErrorCode::Internal,
            reason,
        };
        let framed = msg.encode();
        let prefix = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
        assert_eq!(prefix, framed.len() - 4);
        match ServerMsg::decode(unframe(&framed)).unwrap() {
            ServerMsg::Error { code, reason } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(reason.len(), u16::MAX as usize - 1, "65534 = 32767 'é'");
                assert!(reason.chars().all(|c| c == 'é'));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ClientMsg::decode(Bytes::from_static(&[])).is_err());
        assert!(ClientMsg::decode(Bytes::from_static(&[9])).is_err());
        assert!(ServerMsg::decode(Bytes::from_static(&[9])).is_err());
        assert!(ClientMsg::decode(Bytes::from_static(&[1, 0])).is_err());
        // Bad move id.
        let mut b = BytesMut::new();
        b.put_u8(1);
        b.put_u8(0);
        b.put_u32_le(0);
        b.put_u32_le(0);
        b.put_u8(200);
        assert!(ClientMsg::decode(b.freeze()).is_err());
    }

    #[test]
    fn oversized_tile_dimensions_rejected_without_allocating() {
        // h=2^31, w=2^30 makes ncells*8 wrap on 64-bit; the decoder
        // must return InvalidData, not attempt a huge allocation.
        let mut b = BytesMut::new();
        b.put_u8(1); // Tile tag
        b.put_u8(0); // tile id
        b.put_u32_le(0);
        b.put_u32_le(0);
        b.put_u32_le(0x8000_0000); // h
        b.put_u32_le(0x4000_0000); // w
        b.put_u64_le(0); // latency
        b.put_u8(0); // cache_hit
        b.put_u8(0); // phase
        b.put_u8(0); // degraded
        b.put_u16_le(1); // nattrs
        b.put_u16_le(1); // attr name len
        b.put_u8(b'v');
        assert!(ServerMsg::decode(b.freeze()).is_err());
    }

    #[test]
    fn inconsistent_payload_still_frames_consistently() {
        // A payload whose data column is shorter than h·w is a caller
        // bug, but the frame must still be self-consistent (prefix ==
        // actual body) so the receiver rejects one message instead of
        // desyncing the stream.
        let msg = ServerMsg::Tile {
            payload: TilePayload {
                tile: TileId::ROOT,
                h: 4,
                w: 4,
                attrs: vec!["v".into()],
                data: vec![vec![1.0, 2.0]], // 2 values, not 16
                present: vec![1; 16],
            },
            latency_ns: 1,
            cache_hit: false,
            phase: 0,
            degraded: false,
        };
        let framed = msg.encode();
        let prefix = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]) as usize;
        assert_eq!(prefix, framed.len() - 4, "prefix matches actual body");
        assert!(ServerMsg::decode(unframe(&framed)).is_err(), "rejected");
    }

    #[test]
    fn frame_stream_roundtrip() {
        let m = ClientMsg::Hello {
            prefetch_k: 3,
            dataset: "d".into(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &m.encode()).unwrap();
        write_frame(&mut buf, &ClientMsg::Bye.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let f1 = read_frame(&mut cursor).unwrap();
        assert_eq!(ClientMsg::decode(f1).unwrap(), m);
        let f2 = read_frame(&mut cursor).unwrap();
        assert_eq!(ClientMsg::decode(f2).unwrap(), ClientMsg::Bye);
        assert!(read_frame(&mut cursor).is_err(), "EOF");
    }

    #[test]
    fn stream_ending_mid_body_is_unexpected_eof() {
        // A prefix promising 100 bytes, 10 delivered, then the end.
        let mut buf = 100u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[7u8; 10]);
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Likewise inside the prefix, and at a clean end.
        for prefix in [&[1u8, 0][..], &[]] {
            let err = read_frame(&mut std::io::Cursor::new(prefix)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// The client-frame bound is the longest message a client can send:
    /// a Hello naming a dataset of the longest accepted name, which
    /// reads back; a prefix one byte longer is refused under the bound.
    #[test]
    fn the_client_frame_bound_is_the_longest_hello() {
        let longest = ClientMsg::Hello {
            prefetch_k: u32::MAX,
            dataset: "x".repeat(MAX_DATASET_NAME),
        };
        let tile = ClientMsg::RequestTile {
            tile: TileId::new(u8::MAX, u32::MAX, u32::MAX),
            mv: Some(Move::ZoomIn(Quadrant::Se)),
        };
        for (m, len) in [(&longest, MAX_CLIENT_FRAME), (&tile, 11)] {
            let framed = m.encode();
            assert_eq!(framed.len(), 4 + len, "{m:?}");
            assert_eq!(
                read_prefix(&mut &framed[..], MAX_CLIENT_FRAME).unwrap(),
                len
            );
            let body = read_frame(&mut &framed[..]).unwrap();
            assert_eq!(&ClientMsg::decode(body).unwrap(), m);
        }
        let mut over = ((MAX_CLIENT_FRAME + 1) as u32).to_le_bytes().to_vec();
        over.resize(4 + MAX_CLIENT_FRAME + 1, 0);
        let err = read_prefix(&mut &over[..], MAX_CLIENT_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
