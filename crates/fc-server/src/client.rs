//! A blocking ForeCache client.

use crate::protocol::{
    read_frame, write_frame, ClientMsg, ErrorCode, FrameBuf, ServerMsg, TilePayload,
};
use fc_tiles::{Move, TileId};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected client session.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    levels: u8,
    /// Every request is encoded here: after the Hello, sending
    /// allocates nothing.
    frame: FrameBuf,
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
        match ServerMsg::decode(read_frame(&mut stream)?)? {
            ServerMsg::Welcome { levels, .. } => Ok(Client {
                stream,
                levels,
                frame,
            }),
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
        match self.read_reply()? {
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
        match self.read_reply()? {
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
        write_frame(&mut self.stream, msg.encode_into(&mut self.frame))
    }

    /// Reads the next *reply*, skipping any unsolicited
    /// [`ServerMsg::Push`] frames that arrive first — a push is never
    /// the answer to a request, so the request/reply rhythm is
    /// preserved no matter how many pushes interleave.
    fn read_reply(&mut self) -> io::Result<ServerMsg> {
        loop {
            match ServerMsg::decode(read_frame(&mut self.stream)?)? {
                ServerMsg::Push { .. } => {}
                reply => return Ok(reply),
            }
        }
    }

    /// Closes the session politely.
    ///
    /// # Errors
    /// Socket errors.
    pub fn bye(mut self) -> io::Result<()> {
        self.send(&ClientMsg::Bye)
    }
}
