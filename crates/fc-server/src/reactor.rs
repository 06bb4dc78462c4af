//! The session reactor: every connection on one thread, multiplexed
//! over [`crate::epoll`] readiness.
//!
//! At ForeCache's think-time-dominated workloads almost every session
//! is idle almost all of the time. Here a session at rest is one entry
//! in the kernel's epoll interest list rather than a blocked thread's
//! stack and scheduler slot, and a wakeup costs O(ready events),
//! independent of fleet size (a `poll(2)` table would re-scan every
//! descriptor per wakeup — O(sessions × request rate), the very tail
//! the reactor exists to flatten; see [`crate::epoll`]). Each message
//! runs through `handle_msg` under a per-message `catch_unwind`, so a
//! middleware panic costs only its own session. A Hello opens its
//! session through [`crate::ServerConfig::open_session`], the one
//! session recipe the server and `fc_sim::run` share.
//!
//! The loop reads the wall clock once per turn, after each wait: every
//! timeout, tick and inter-request gap of that turn is measured from
//! the same `now`.
//!
//! What the event loop owns per session:
//!
//! * a **read accumulator** re-assembling length-prefixed frames from
//!   whatever byte granularity the socket delivers, one read chunk
//!   per readiness event (a mid-frame disconnect is detected as EOF
//!   with bytes pending);
//! * a **bounded write queue** of [`Frame`]s
//!   ([`crate::server::SessionLimits::max_write_queue`]): a reply is
//!   flushed opportunistically with one vectored write straight from
//!   the tile's columns, waits in the queue only past a full socket
//!   buffer — as an `Arc` to its tile and the few KiB it owns, resumed
//!   later at whatever byte the socket stopped — and a slow reader
//!   whose backlog hits the bound is shed with
//!   [`ErrorCode::Overloaded`]: backpressure is explicit and bounded,
//!   never an unbounded heap;
//! * **liveness clocks**: `read_timeout` doubles as the idle-session
//!   timeout, `write_timeout` as the write-stall timeout (measured
//!   from the moment a write first refuses to make progress).
//!
//! The server writes nothing unsolicited: every frame a session is
//! sent answers one of its messages, or is the `Overloaded` notice
//! that sheds it.

use crate::epoll::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use crate::protocol::{read_prefix, ClientMsg, ErrorCode, Frame, ServerMsg, MAX_CLIENT_FRAME};
use crate::server::{ServedDatasets, ServerConfig};
use fc_core::{Middleware, MultiUserCache};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wait tick: the upper bound on shutdown/timeout latency when no
/// socket event arrives earlier.
const TICK: Duration = Duration::from_millis(25);

/// The most a session reads per readiness event: a pipelining peer's
/// backlog waits in its socket, not in the accumulator, and the
/// level-triggered wait surfaces the rest on the next turn.
const READ_CHUNK: usize = 64 * 1024;

/// The listener's registration token (session ids count up from 0, so
/// the top of the space is free).
const LISTENER: u64 = u64::MAX;

/// Wait-buffer capacity: more ready descriptors than this simply
/// surface on the next (immediate) wait.
const EVENT_BATCH: usize = 1024;

/// One session's reactor state.
struct Session {
    stream: TcpStream,
    sid: u64,
    middleware: Option<Middleware>,
    /// Unparsed inbound bytes (at most one partial frame plus one
    /// [`READ_CHUNK`]).
    rbuf: Vec<u8>,
    /// Wall-clock arrival of the previous tile request — the real
    /// inter-request gap that drives the session's burst timeline
    /// (see `serve_msg`).
    last_request: Option<Instant>,
    /// Frames awaiting socket room; `wpos` is the progress into the
    /// front frame.
    wq: VecDeque<Frame>,
    wpos: usize,
    last_read: Instant,
    /// When the socket first refused write progress with output
    /// pending (cleared by any successful write).
    write_blocked: Option<Instant>,
    /// Whether the epoll registration currently includes `EPOLLOUT`
    /// (mirrors "write queue non-empty"; cached to skip `epoll_ctl`
    /// when nothing changed).
    write_interest: bool,
    /// Flush what is queued, then tear down.
    closing: bool,
    /// Tear down now (queue abandoned).
    dead: bool,
}

impl Session {
    fn new(stream: TcpStream, sid: u64, now: Instant) -> Self {
        Self {
            stream,
            sid,
            middleware: None,
            rbuf: Vec::new(),
            last_request: None,
            wq: VecDeque::new(),
            wpos: 0,
            last_read: now,
            write_blocked: None,
            write_interest: false,
            closing: false,
            dead: false,
        }
    }
}

/// Re-syncs a session's epoll interest with its write-queue state:
/// `EPOLLOUT` is requested exactly while frames are pending. A failed
/// `epoll_ctl` on a live socket is unrecoverable for the session.
fn sync_interest(ep: &Epoll, s: &mut Session) {
    let want = !s.wq.is_empty();
    if s.dead || want == s.write_interest {
        return;
    }
    let events = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
    if ep.modify(s.stream.as_raw_fd(), events, s.sid).is_ok() {
        s.write_interest = want;
    } else {
        s.dead = true;
    }
}

/// The accept-and-serve loop (runs on the server's background thread
/// until `shutdown` is set; the sessions still open then are dropped
/// with it).
pub(crate) fn reactor_loop(
    listener: TcpListener,
    served: Arc<ServedDatasets>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    sessions_gauge: Arc<AtomicUsize>,
) {
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut next_sid: u64 = 0;
    let mut scratch = vec![0u8; READ_CHUNK];
    let Ok(ep) = Epoll::new() else {
        // No readiness primitive, no reactor: unbind by returning (the
        // listener drops, connects fail fast rather than hang).
        return;
    };
    if ep.add(listener.as_raw_fd(), EPOLLIN, LISTENER).is_err() {
        return;
    }
    let mut events = vec![EpollEvent::zeroed(); EVENT_BATCH];
    // fc-check: allow(wall-clock) -- the reactor's start-up read: the first tick's reference
    let mut last_housekeeping = Instant::now();

    loop {
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let Ok(n) = ep.wait(&mut events, Some(TICK)) else {
            break;
        };
        // fc-check: allow(wall-clock) -- the turn's one read: every clock of this turn measures from it
        let now = Instant::now();
        let mut reap = false;
        for ev in &events[..n] {
            if ev.token() == LISTENER {
                accept_ready(
                    &listener,
                    &ep,
                    &mut sessions,
                    &mut next_sid,
                    &config,
                    &sessions_gauge,
                    now,
                );
                continue;
            }
            // A session reaped earlier this batch can still have a
            // queued event; its token no longer resolves.
            let Some(s) = sessions.get_mut(&ev.token()) else {
                continue;
            };
            // Contain anything a session event path panics on
            // (middleware bugs beyond handle_msg's own catch_unwind,
            // codec edge cases): the session dies, the loop survives.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if ev.failed() {
                    s.dead = true;
                    return;
                }
                if ev.writable() {
                    flush_writes(s, now);
                }
                if ev.readable() && !s.closing && !s.dead {
                    handle_readable(s, &served, &config, &mut scratch, now);
                    flush_writes(s, now);
                }
            }));
            if outcome.is_err() {
                s.dead = true;
            }
            sync_interest(&ep, s);
            if s.dead || (s.closing && s.wq.is_empty()) {
                reap = true;
            }
        }

        // Liveness clocks tick at TICK granularity, not per wakeup: a
        // busy fleet wakes the loop on every reply, and an O(sessions)
        // sweep per wakeup would be O(sessions × request rate) — the
        // exact overhead the reactor exists to avoid. (The reap sweep
        // below is gated the same way.)
        if now.duration_since(last_housekeeping) >= TICK {
            last_housekeeping = now;
            reap = true;
            for s in sessions.values_mut() {
                enforce_timeouts(s, &config, now);
            }
        }

        // Reap: closing sessions with a drained queue, and the dead.
        // Dropping a session closes its socket, which also removes it
        // from the epoll interest list.
        if reap {
            sessions.retain(|_, s| {
                let done = s.dead || (s.closing && s.wq.is_empty());
                if done {
                    sessions_gauge.fetch_sub(1, Ordering::Relaxed);
                }
                !done
            });
        }
    }
    // Shutdown: dropping the sessions closes their sockets and drops
    // their middlewares, so shared holds release and namespace budgets
    // repartition.
    sessions_gauge.fetch_sub(sessions.len(), Ordering::Relaxed);
}

/// Accepts every connection the listener has ready, shedding those
/// past `max_sessions` with `Overloaded`.
fn accept_ready(
    listener: &TcpListener,
    ep: &Epoll,
    sessions: &mut HashMap<u64, Session>,
    next_sid: &mut u64,
    config: &ServerConfig,
    gauge: &AtomicUsize,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let max = config.limits.max_sessions;
                if max > 0 && sessions.len() >= max {
                    let reply = ServerMsg::Error {
                        code: ErrorCode::Overloaded,
                        reason: format!("server at capacity ({max} sessions)"),
                    };
                    // Best-effort courtesy note: a kernel send buffer
                    // swallows a small frame even from a nonblocking
                    // socket, and a peer that already hung up just
                    // loses it.
                    let _ = stream.set_nodelay(true);
                    let _ = Frame::msg(&reply).write_to(&mut stream, &mut 0);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let sid = *next_sid;
                *next_sid += 1;
                if ep.add(stream.as_raw_fd(), EPOLLIN, sid).is_err() {
                    continue;
                }
                sessions.insert(sid, Session::new(stream, sid, now));
                gauge.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        }
    }
}

/// Reads one chunk into the read accumulator and serves every complete
/// frame in it.
fn handle_readable(
    s: &mut Session,
    served: &ServedDatasets,
    config: &ServerConfig,
    scratch: &mut [u8],
    now: Instant,
) {
    let saw_eof = loop {
        match s.stream.read(scratch) {
            Ok(0) => break true,
            Ok(n) => {
                s.last_read = now;
                s.rbuf.extend_from_slice(&scratch[..n]);
                break false;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                s.dead = true;
                return;
            }
        }
    };
    // Serve what arrived *before* acting on the close: a client that
    // pipelines a request and immediately half-closes still gets its
    // reply.
    serve_buffered(s, served, config, now);
    if saw_eof && !s.dead {
        // Whatever is left in the accumulator is a mid-frame
        // disconnect; either way the peer sends no more — flush any
        // queued replies, then tear down.
        s.closing = true;
        if s.wq.is_empty() {
            s.dead = true;
        }
    }
}

/// Parses and serves complete frames from the accumulator.
fn serve_buffered(s: &mut Session, served: &ServedDatasets, config: &ServerConfig, now: Instant) {
    let mut consumed = 0;
    while !s.closing && !s.dead {
        let rest = &s.rbuf[consumed..];
        if rest.len() < 4 {
            break;
        }
        let Ok(len) = read_prefix(&mut &rest[..4], MAX_CLIENT_FRAME) else {
            // Longer than any client message: end the session at the
            // prefix, without a reply and without waiting on the
            // claimed body.
            s.dead = true;
            break;
        };
        if rest.len() < 4 + len {
            break;
        }
        let body = bytes::Bytes::from(rest[4..4 + len].to_vec());
        consumed += 4 + len;
        serve_msg(s, body, served, config, now);
    }
    s.rbuf.drain(..consumed);
}

/// Decodes and serves one client message read in the turn at `now`.
fn serve_msg(
    s: &mut Session,
    body: bytes::Bytes,
    served: &ServedDatasets,
    config: &ServerConfig,
    now: Instant,
) {
    let msg = match ClientMsg::decode(body) {
        Ok(m) => m,
        Err(e) => {
            let reply = ServerMsg::Error {
                code: ErrorCode::Malformed,
                reason: format!("malformed message: {e}"),
            };
            enqueue(s, Frame::msg(&reply), config);
            s.closing = true;
            return;
        }
    };
    if matches!(msg, ClientMsg::RequestTile { .. }) {
        // Live serving drives the session's burst timeline with the
        // real inter-request gap (the analyst's think time) — the
        // replay harnesses charge simulated think time through the
        // same `note_idle`. Requests read in one turn share its `now`,
        // so the second one's gap is 0.
        if let (Some(mw), Some(prev)) = (s.middleware.as_mut(), s.last_request) {
            mw.note_idle(now.duration_since(prev));
        }
        s.last_request = Some(now);
    }
    let flow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_msg(s, msg, served, config)
    }))
    .unwrap_or_else(|_panic| {
        s.middleware = None;
        Flow::ReplyClose(ServerMsg::Error {
            code: ErrorCode::Internal,
            reason: "internal error; closing session".into(),
        })
    });
    match flow {
        Flow::Reply(frame) => enqueue(s, frame, config),
        Flow::ReplyClose(reply) => {
            enqueue(s, Frame::msg(&reply), config);
            s.closing = true;
        }
        Flow::Close => s.closing = true,
    }
}

/// What the reactor does with a session after [`handle_msg`] handled
/// one message.
enum Flow {
    /// Send the frame, keep serving. A tile reply's frame holds the
    /// tile as the middleware handed it over — the `Arc`, never a
    /// [`crate::TilePayload`] copy of its columns.
    Reply(Frame),
    /// Send the reply (best-effort), then tear the session down.
    ReplyClose(ServerMsg),
    /// Tear the session down silently (client said Bye).
    Close,
}

/// Handles one decoded client message. Runs under the per-message
/// `catch_unwind`; must not write to the socket (the caller owns it).
fn handle_msg(
    s: &mut Session,
    msg: ClientMsg,
    served: &ServedDatasets,
    config: &ServerConfig,
) -> Flow {
    let error = |code, reason| Flow::Reply(Frame::msg(&ServerMsg::Error { code, reason }));
    match msg {
        ClientMsg::Hello {
            prefetch_k,
            dataset,
        } => {
            // The name is at most `MAX_DATASET_NAME` bytes: a longer
            // Hello exceeds `MAX_CLIENT_FRAME`, and the reactor ends
            // the session at its prefix. So echoing it keeps the reply
            // small.
            let Some(d) = served.resolve(&dataset) else {
                let reason = format!("unknown dataset: {dataset:?}");
                return error(ErrorCode::UnknownDataset, reason);
            };
            // Overload watermark: admitting another session into this
            // namespace must not starve everyone's fair tile budget
            // below the configured floor.
            let floor = config.limits.min_session_budget;
            if let (true, Some(ns)) = (floor > 0, &d.namespace) {
                let cache = ns.cache();
                let budget_after = cache.capacity() / (cache.session_count() + 1);
                if budget_after < floor {
                    return Flow::ReplyClose(ServerMsg::Error {
                        code: ErrorCode::Overloaded,
                        reason: format!(
                            "namespace under pressure: per-session budget \
                             {budget_after} would fall below {floor}"
                        ),
                    });
                }
            }
            let pyramid = &d.spec.pyramid;
            let engine = (d.spec.engines)();
            let namespace = d.namespace.as_deref();
            let mw = config.open_session(engine, pyramid.clone(), namespace, prefetch_k as usize);
            s.middleware = Some(mw);
            let g = pyramid.geometry();
            Flow::Reply(Frame::msg(&ServerMsg::Welcome {
                levels: g.levels,
                deepest_tiles: g.tiles_at(g.levels - 1),
            }))
        }
        ClientMsg::RequestTile { tile, mv } => match s.middleware.as_mut() {
            None => error(
                ErrorCode::General,
                "session not opened: send Hello first".into(),
            ),
            Some(mw) => match mw.try_request(tile, mv) {
                Ok(Some(resp)) => Flow::Reply(Frame::tile(
                    resp.tile,
                    u64::try_from(resp.latency.as_nanos()).unwrap_or(u64::MAX),
                    resp.cache_hit,
                    // fc-check: allow(handler-unwrap) -- phase index is 0..3 by construction, always fits u8
                    u8::try_from(resp.phase.index()).expect("phase id"),
                    resp.degraded,
                )),
                Ok(None) => error(ErrorCode::NoSuchTile, format!("no such tile: {tile}")),
                // The fetch exhausted its retry/deadline budget with
                // nothing resident to degrade to. The session stays
                // up: the fault may be transient and the client
                // decides whether to retry or re-navigate.
                Err(e) => error(
                    ErrorCode::Unavailable,
                    format!("tile {tile} unavailable: {e}"),
                ),
            },
        },
        ClientMsg::GetStats => match s.middleware.as_ref() {
            None => error(ErrorCode::General, "session not opened".into()),
            Some(mw) => {
                let st = mw.stats();
                Flow::Reply(Frame::msg(&ServerMsg::Stats {
                    requests: st.requests as u64,
                    hits: st.hits as u64,
                    avg_latency_ns: u64::try_from(st.avg_latency().as_nanos()).unwrap_or(u64::MAX),
                    prefetch_issued: st.prefetch_issued as u64,
                    prefetch_used: st.prefetch_used as u64,
                }))
            }
        },
        ClientMsg::Bye => Flow::Close,
    }
}

/// Queues one reply, enforcing the write-queue bound: a session past
/// it is shed with `Overloaded` (the shed notice itself rides outside
/// the bound — it is the last frame the session sees).
fn enqueue(s: &mut Session, reply: Frame, config: &ServerConfig) {
    let bound = config.limits.max_write_queue;
    if bound > 0 && !s.closing && s.wq.len() >= bound {
        let shed = ServerMsg::Error {
            code: ErrorCode::Overloaded,
            reason: format!("write backlog exceeded {bound} frames; shedding session"),
        };
        s.wq.push_back(Frame::msg(&shed));
        s.closing = true;
        return;
    }
    s.wq.push_back(reply);
}

/// Writes as much of the queue as the socket accepts right now.
fn flush_writes(s: &mut Session, now: Instant) {
    while let Some(front) = s.wq.front() {
        let before = s.wpos;
        let outcome = front.write_to(&mut s.stream, &mut s.wpos);
        if s.wpos > before {
            s.write_blocked = None;
        }
        match outcome {
            Ok(()) => {
                s.wq.pop_front();
                s.wpos = 0;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                s.write_blocked.get_or_insert(now);
                return;
            }
            Err(_) => {
                s.dead = true;
                return;
            }
        }
    }
    s.write_blocked = None;
}

/// Applies the idle and write-stall timeouts on the reactor clock.
fn enforce_timeouts(s: &mut Session, config: &ServerConfig, now: Instant) {
    if let Some(rt) = config.limits.read_timeout {
        if !s.closing && now.duration_since(s.last_read) > rt {
            // Idle client: silent teardown.
            s.dead = true;
        }
    }
    if let Some(wt) = config.limits.write_timeout {
        if let Some(since) = s.write_blocked {
            if now.duration_since(since) > wt {
                s.dead = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fc_tiles::TileId;
    use proptest::prelude::*;

    /// A fresh session on one end of a loopback connection, and the
    /// peer end, which keeps the socket open.
    fn session() -> (Session, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        (Session::new(stream, 0, Instant::now()), peer)
    }

    /// Hands `piece` to the read accumulator and serves what completes,
    /// as `handle_readable` does with one read.
    fn feed(s: &mut Session, piece: &[u8]) {
        let no_datasets = ServedDatasets {
            datasets: Vec::new(),
        };
        s.rbuf.extend_from_slice(piece);
        serve_buffered(s, &no_datasets, &ServerConfig::default(), Instant::now());
    }

    /// The queued frames' bytes and the `closing` state after `stream`
    /// arrives in the pieces `cuts` splits it into.
    fn served(stream: &[u8], cuts: &[usize]) -> (Vec<Vec<u8>>, bool) {
        let (mut s, _peer) = session();
        let mut cuts = cuts.to_vec();
        cuts.sort_unstable();
        let mut at = 0;
        for cut in cuts.into_iter().chain([stream.len()]) {
            feed(&mut s, &stream[at..cut]);
            at = cut;
        }
        assert!(!s.dead);
        (s.wq.iter().map(Frame::to_vec).collect(), s.closing)
    }

    /// `GetStats` and `RequestTile` before any `Hello`, a `Hello` for a
    /// dataset the server does not serve, then `Bye`.
    fn client_stream() -> Vec<u8> {
        let msgs = [
            ClientMsg::GetStats,
            ClientMsg::RequestTile {
                tile: TileId::ROOT,
                mv: None,
            },
            ClientMsg::Hello {
                prefetch_k: 2,
                dataset: "nope".into(),
            },
            ClientMsg::Bye,
        ];
        msgs.iter().flat_map(|m| m.encode().to_vec()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// However the socket splits a client's bytes, the session
        /// queues the same replies and ends in the same state.
        #[test]
        fn a_split_stream_is_served_as_the_whole(
            cuts in proptest::collection::vec(0usize..1000, 0..8),
        ) {
            let stream = client_stream();
            let whole = served(&stream, &[]);
            // Three errors (two before the Hello, one for its dataset),
            // then the Bye closes.
            prop_assert_eq!((whole.0.len(), whole.1), (3, true));
            let cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
            prop_assert_eq!(served(&stream, &cuts), whole);
        }
    }

    /// A prefix longer than any client message ends the session once
    /// its fourth byte arrives, whatever read brings it, and earns no
    /// reply.
    #[test]
    fn an_oversized_prefix_split_across_reads_kills_the_session() {
        let prefix = u32::try_from(MAX_CLIENT_FRAME + 1)
            .expect("fits")
            .to_le_bytes();
        for k in 1..4 {
            let (mut s, _peer) = session();
            let mut first = ClientMsg::GetStats.encode().to_vec();
            first.extend_from_slice(&prefix[..k]);
            feed(&mut s, &first);
            assert!(!s.dead, "split at {k}: alive until the prefix is whole");
            assert_eq!(s.wq.len(), 1, "split at {k}: the GetStats is answered");
            feed(&mut s, &prefix[k..]);
            assert!(s.dead, "split at {k}: the prefix ends the session");
            assert_eq!(s.wq.len(), 1, "split at {k}: no reply to the prefix");
        }
    }
}
