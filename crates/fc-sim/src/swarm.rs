//! The swarm driver: hundreds-to-thousands of concurrent simulated
//! sessions against a live ForeCache server, over real sockets, from
//! **one** driver thread.
//!
//! The multi-user replay harness ([`crate::multiuser`]) measures the
//! serving core in-process; this driver measures the *wire path* — the
//! reactor behind real TCP, real framing, real readiness. It is the
//! load generator for the `exp_multiuser` reactor section: does tail
//! latency stay flat when the session count multiplies by 16?
//!
//! Design choices that make thousands of sessions honest on one box:
//!
//! * **one thread, nonblocking sockets, the same [`fc_server::epoll`]
//!   shim the reactor uses** — a thread per simulated client would
//!   perturb the very scheduler the measurement runs on, and a
//!   `poll(2)` table would make the *driver* the O(sessions)
//!   bottleneck the reactor just eliminated;
//! * **paced, open-loop requests**: each session fires on its own
//!   cadence ([`SwarmConfig::pace`]) from a deterministic serpentine
//!   walk, with per-session start stagger so the fleet never phase-
//!   locks into synchronized request storms;
//! * **latency is measured enqueue→reply** per request, so a driver-
//!   side backlog counts against the tail instead of hiding in it.
//!
//! Unsolicited [`ServerMsg::Push`] frames are counted (and their tiles
//! remembered per session) but never replied to — exactly a thin
//! client's behaviour.

use fc_server::epoll::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use fc_server::protocol::read_frame;
use fc_server::{ClientMsg, ServerMsg};
use fc_tiles::{Move, TileId};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Swarm shape and cadence.
#[derive(Debug, Clone, Copy)]
pub struct SwarmConfig {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Tile requests per session (after the Hello).
    pub requests_per_session: usize,
    /// Prefetch budget each Hello requests (0 = server default).
    pub k: u32,
    /// Per-session request cadence — the simulated think time between
    /// a reply and the next request's due time.
    pub pace: Duration,
    /// Per-session start offset: session `i` begins at `i × stagger`,
    /// spreading the fleet across the pace window.
    pub stagger: Duration,
    /// Walk randomization seed (start rows/cols).
    pub seed: u64,
    /// Hard wall-clock budget for the whole run; a stall past it
    /// panics (a hung swarm must fail loudly, not wedge a benchmark).
    pub deadline: Duration,
    /// When non-zero, every n-th session (index divisible by n) is a
    /// **burst explorer**: it paces at [`explorer_pace`], walks
    /// [`explorer_requests`] steps, and moves in pseudo-random
    /// directions instead of the serpentine sweep — rapid,
    /// unpredictable navigation that a trained model cannot
    /// anticipate, and the traffic a phase-aware push scheduler is
    /// meant to steer around. 0 (default) disables.
    ///
    /// [`explorer_pace`]: SwarmConfig::explorer_pace
    /// [`explorer_requests`]: SwarmConfig::explorer_requests
    pub explorer_every: usize,
    /// Explorer think time between requests.
    pub explorer_pace: Duration,
    /// Explorer walk length (0 = [`SwarmConfig::requests_per_session`]).
    pub explorer_requests: usize,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        Self {
            sessions: 64,
            requests_per_session: 16,
            k: 2,
            pace: Duration::from_millis(40),
            stagger: Duration::from_micros(500),
            seed: 7,
            deadline: Duration::from_secs(120),
            explorer_every: 0,
            explorer_pace: Duration::from_millis(5),
            explorer_requests: 0,
        }
    }
}

/// What the swarm observed.
#[derive(Debug, Clone)]
pub struct SwarmReport {
    /// Sessions that completed their walk.
    pub sessions: usize,
    /// Tile requests answered (success or structured error).
    pub requests: u64,
    /// Error replies among them.
    pub errors: u64,
    /// Unsolicited push frames received across the fleet.
    pub pushes: u64,
    /// Pushes whose tile the session itself requested afterwards, each
    /// counted once — the client-side view of push usefulness.
    pub pushes_used: u64,
    /// Server-reported totals summed over the fleet's final stats.
    pub served_requests: u64,
    /// Server-reported cache hits.
    pub served_hits: u64,
    /// Server-reported speculative fetches issued.
    pub prefetch_issued: u64,
    /// Server-reported speculative fetches later used.
    pub prefetch_used: u64,
    /// Enqueue→reply request latencies, sorted ascending.
    pub latencies: Vec<Duration>,
}

impl SwarmReport {
    /// The `q`-quantile (0.0–1.0) of request latency.
    pub fn latency_quantile(&self, q: f64) -> Duration {
        if self.latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        self.latencies[idx.min(self.latencies.len() - 1)]
    }

    /// Fleet-wide hit rate as the server accounted it.
    pub fn hit_rate(&self) -> f64 {
        if self.served_requests == 0 {
            0.0
        } else {
            self.served_hits as f64 / self.served_requests as f64
        }
    }
}

/// Where a session is in its scripted life.
#[derive(Debug, PartialEq, Eq)]
enum Phase {
    /// Between requests, waiting for the next due time.
    Think,
    /// A RequestTile is in flight.
    AwaitTile,
    /// The final GetStats is in flight.
    AwaitStats,
    /// Bye sent; the session is finished.
    Done,
}

/// One simulated analyst.
struct Sim {
    stream: TcpStream,
    phase: Phase,
    /// Serpentine walk state at the deepest level.
    row: u32,
    col: u32,
    rightward: bool,
    first: bool,
    steps_left: usize,
    /// This session's think time (explorers pace faster).
    pace: Duration,
    /// Burst explorer: random-direction walk instead of serpentine.
    explorer: bool,
    /// Private walk-randomization state (explorers only).
    rng: u64,
    next_due: Instant,
    sent_at: Instant,
    rbuf: Vec<u8>,
    wq: VecDeque<Vec<u8>>,
    wpos: usize,
    /// Tiles pushed to this session and not requested since, for
    /// client-side use accounting.
    pushed_tiles: Vec<TileId>,
    /// Whether the epoll registration currently includes `EPOLLOUT`.
    write_interest: bool,
    /// Still on the epoll interest list (finished sessions drop off
    /// once their queue drains, so a closing server can't busy-wake
    /// the driver with their EOF).
    registered: bool,
}

/// Re-syncs one session's epoll registration with its state: write
/// interest tracks "queue non-empty", and a finished session with a
/// drained queue leaves the interest list entirely.
fn sync_interest(ep: &Epoll, s: &mut Sim, token: u64) {
    if !s.registered {
        return;
    }
    if s.phase == Phase::Done && s.wq.is_empty() {
        ep.delete(s.stream.as_raw_fd()).expect("epoll delete");
        s.registered = false;
        return;
    }
    let want = !s.wq.is_empty();
    if want != s.write_interest {
        let events = if want { EPOLLIN | EPOLLOUT } else { EPOLLIN };
        ep.modify(s.stream.as_raw_fd(), events, token)
            .expect("epoll modify");
        s.write_interest = want;
    }
}

/// A tiny deterministic generator (SplitMix64) — enough to scatter
/// start positions without dragging a full RNG into the hot loop.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs the swarm against `addr` (a bound ForeCache server serving a
/// dataset whose deepest level is `deepest_tiles` = (rows, cols) at
/// level `deepest`). Returns when every session finished its walk.
///
/// # Panics
/// On connection/handshake failures and when
/// [`SwarmConfig::deadline`] elapses with sessions still unfinished —
/// a swarm that cannot finish is a failed measurement, not a report.
pub fn run_swarm(addr: SocketAddr, cfg: &SwarmConfig) -> SwarmReport {
    let start = Instant::now();
    let mut rng = cfg.seed;
    let mut sims: Vec<Sim> = Vec::with_capacity(cfg.sessions);
    let mut deepest = 0u8;
    let mut grid = (1u32, 1u32);
    // Connect and handshake each session up front (blocking, cheap on
    // localhost), then flip to nonblocking for the paced phase.
    for i in 0..cfg.sessions {
        let mut stream = TcpStream::connect(addr).expect("swarm connect");
        stream.set_nodelay(true).expect("nodelay");
        // `encode` returns the already-framed bytes (length prefix
        // included) — write them verbatim.
        let hello = ClientMsg::Hello {
            prefetch_k: cfg.k,
            dataset: String::new(),
        }
        .encode();
        stream.write_all(&hello).expect("hello frame");
        // Still blocking: read the whole reply, bounded like the client's.
        let reply = read_frame(&mut stream)
            .and_then(ServerMsg::decode)
            .expect("welcome frame");
        match reply {
            ServerMsg::Welcome {
                levels,
                deepest_tiles,
            } => {
                deepest = levels - 1;
                grid = deepest_tiles;
            }
            other => panic!("session {i}: unexpected Hello reply: {other:?}"),
        }
        stream.set_nonblocking(true).expect("nonblocking");
        let row = (mix(&mut rng) % u64::from(grid.0)) as u32;
        let col = (mix(&mut rng) % u64::from(grid.1)) as u32;
        let explorer = cfg.explorer_every > 0 && i % cfg.explorer_every == 0;
        sims.push(Sim {
            stream,
            phase: Phase::Think,
            row,
            col,
            rightward: mix(&mut rng).is_multiple_of(2),
            first: true,
            steps_left: if explorer && cfg.explorer_requests > 0 {
                cfg.explorer_requests
            } else {
                cfg.requests_per_session
            },
            pace: if explorer {
                cfg.explorer_pace
            } else {
                cfg.pace
            },
            explorer,
            rng: mix(&mut rng),
            next_due: start + cfg.stagger * (i as u32),
            sent_at: start,
            rbuf: Vec::new(),
            wq: VecDeque::new(),
            wpos: 0,
            pushed_tiles: Vec::new(),
            write_interest: false,
            registered: false,
        });
    }
    // Rebase the pacing origin to the end of the connect phase: the
    // serial handshakes above can outlast the first stagger offsets,
    // and sessions born overdue would fire as one convoy on the first
    // pass — and stay phase-locked, because a batch of replies shares
    // one arrival instant and therefore one next_due.
    let t0 = Instant::now();
    for (i, s) in sims.iter_mut().enumerate() {
        s.next_due = t0 + cfg.stagger * (i as u32);
    }

    let mut report = SwarmReport {
        sessions: cfg.sessions,
        requests: 0,
        errors: 0,
        pushes: 0,
        pushes_used: 0,
        served_requests: 0,
        served_hits: 0,
        prefetch_issued: 0,
        prefetch_used: 0,
        latencies: Vec::with_capacity(cfg.sessions * cfg.requests_per_session),
    };
    let mut scratch = vec![0u8; 64 * 1024];
    let ep = Epoll::new().expect("epoll instance");
    for (i, s) in sims.iter_mut().enumerate() {
        ep.add(s.stream.as_raw_fd(), EPOLLIN, i as u64)
            .expect("epoll add");
        s.registered = true;
    }
    let mut events = vec![EpollEvent::zeroed(); cfg.sessions.clamp(64, 1024)];
    let mut done = 0usize;

    while done < sims.len() {
        assert!(
            start.elapsed() < cfg.deadline,
            "swarm deadline exceeded with {} of {} sessions unfinished",
            sims.len() - done,
            sims.len()
        );
        let now = Instant::now();
        // Fire due requests.
        for (i, s) in sims.iter_mut().enumerate() {
            if s.phase == Phase::Think && now >= s.next_due {
                let (tile, mv) = next_step(s, deepest, grid);
                s.wq.push_back(ClientMsg::RequestTile { tile, mv }.encode().to_vec());
                s.sent_at = now;
                s.phase = Phase::AwaitTile;
                flush(s);
                sync_interest(&ep, s, i as u64);
            }
        }
        let timeout = next_wakeup(&sims, now);
        let n = ep.wait(&mut events, Some(timeout)).expect("epoll wait");
        let now = Instant::now();
        for ev in events.iter().take(n) {
            let idx = ev.token() as usize;
            let s = &mut sims[idx];
            if !s.registered {
                continue;
            }
            if ev.writable() {
                flush(s);
            }
            if ev.readable() && s.phase != Phase::Done {
                drain_reads(s, &mut scratch, now, &mut report, &mut done);
            }
            sync_interest(&ep, s, ev.token());
        }
    }
    report.latencies.sort_unstable();
    report
}

/// The per-session poll timeout: sleep until the soonest due request
/// (bounded so push frames and stragglers are still picked up).
fn next_wakeup(sims: &[Sim], now: Instant) -> Duration {
    let mut t = Duration::from_millis(50);
    for s in sims {
        if s.phase == Phase::Think {
            let until = s.next_due.saturating_duration_since(now);
            if until < t {
                t = until;
            }
        }
    }
    t.max(Duration::from_millis(1))
}

/// Advances the walk one step and returns the request: a serpentine
/// sweep for ordinary sessions, a pseudo-random pan for explorers.
fn next_step(s: &mut Sim, deepest: u8, grid: (u32, u32)) -> (TileId, Option<Move>) {
    if s.first {
        s.first = false;
        return (TileId::new(deepest, s.row, s.col), None);
    }
    let (rows, cols) = grid;
    if s.explorer {
        let mv = match mix(&mut s.rng) % 4 {
            0 if s.col + 1 < cols => {
                s.col += 1;
                Move::PanRight
            }
            1 if s.col > 0 => {
                s.col -= 1;
                Move::PanLeft
            }
            2 if s.row + 1 < rows => {
                s.row += 1;
                Move::PanDown
            }
            3 if s.row > 0 => {
                s.row -= 1;
                Move::PanUp
            }
            // Edge clamp: wrap downward, the always-legal direction.
            _ => {
                s.row = (s.row + 1) % rows;
                Move::PanDown
            }
        };
        return (TileId::new(deepest, s.row, s.col), Some(mv));
    }
    let mv = if s.rightward {
        if s.col + 1 < cols {
            s.col += 1;
            Move::PanRight
        } else {
            s.rightward = false;
            s.row = (s.row + 1) % rows;
            Move::PanDown
        }
    } else if s.col > 0 {
        s.col -= 1;
        Move::PanLeft
    } else {
        s.rightward = true;
        s.row = (s.row + 1) % rows;
        Move::PanDown
    };
    (TileId::new(deepest, s.row, s.col), Some(mv))
}

/// Nonblocking read + frame parse; dispatches every complete message.
/// Frames are split by [`read_frame`] over the buffered bytes, so a
/// prefix over its bound fails here, at once; `UnexpectedEof` is a
/// frame still arriving.
fn drain_reads(
    s: &mut Sim,
    scratch: &mut [u8],
    now: Instant,
    report: &mut SwarmReport,
    done: &mut usize,
) {
    loop {
        match s.stream.read(scratch) {
            Ok(0) => panic!("server closed a swarm session mid-walk"),
            Ok(n) => {
                s.rbuf.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("swarm read error: {e}"),
        }
    }
    let mut consumed = 0;
    while s.phase != Phase::Done {
        let mut rest = &s.rbuf[consumed..];
        let body = match read_frame(&mut rest) {
            Ok(body) => body,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => panic!("swarm frame error: {e}"),
        };
        consumed = s.rbuf.len() - rest.len();
        let msg = ServerMsg::decode(body).expect("well-formed server frame");
        dispatch(s, msg, now, report, done);
    }
    s.rbuf.drain(..consumed);
}

/// Applies one server message to the session's script.
fn dispatch(s: &mut Sim, msg: ServerMsg, now: Instant, report: &mut SwarmReport, done: &mut usize) {
    match msg {
        ServerMsg::Push { payload } => {
            report.pushes += 1;
            s.pushed_tiles.push(payload.tile);
        }
        ServerMsg::Tile { payload, .. } if s.phase == Phase::AwaitTile => {
            report.requests += 1;
            report.latencies.push(now - s.sent_at);
            // A push is used once, by the first later request of its
            // tile — the server's `PushPlanner::note_request` settles
            // it the same way, so the two books agree.
            if let Some(at) = s.pushed_tiles.iter().position(|&t| t == payload.tile) {
                s.pushed_tiles.swap_remove(at);
                report.pushes_used += 1;
            }
            advance(s, now);
        }
        ServerMsg::Error { .. } if s.phase == Phase::AwaitTile => {
            report.requests += 1;
            report.errors += 1;
            report.latencies.push(now - s.sent_at);
            advance(s, now);
        }
        ServerMsg::Stats {
            requests,
            hits,
            prefetch_issued,
            prefetch_used,
            ..
        } if s.phase == Phase::AwaitStats => {
            report.served_requests += requests;
            report.served_hits += hits;
            report.prefetch_issued += prefetch_issued;
            report.prefetch_used += prefetch_used;
            s.wq.push_back(ClientMsg::Bye.encode().to_vec());
            flush(s);
            s.phase = Phase::Done;
            *done += 1;
        }
        other => panic!("unexpected message in phase {:?}: {other:?}", s.phase),
    }
}

/// Books a finished request and schedules (or finishes) the walk.
fn advance(s: &mut Sim, now: Instant) {
    s.steps_left -= 1;
    if s.steps_left == 0 {
        s.wq.push_back(ClientMsg::GetStats.encode().to_vec());
        flush(s);
        s.phase = Phase::AwaitStats;
    } else {
        // Advance the due time from the previous due, not the reply
        // instant: replies that happen to batch in one wakeup would
        // otherwise share a `now` and march in lock-step forever. A
        // session that fell a full period behind re-bases to `now`
        // instead of burst-firing the backlog.
        s.next_due += s.pace;
        if s.next_due < now {
            s.next_due = now + s.pace;
        }
        s.phase = Phase::Think;
    }
}

/// Writes as much queued output as the socket accepts.
fn flush(s: &mut Sim) {
    while let Some(front) = s.wq.front() {
        match s.stream.write(&front[s.wpos..]) {
            Ok(0) => panic!("swarm write returned 0"),
            Ok(n) => {
                s.wpos += n;
                if s.wpos == front.len() {
                    s.wq.pop_front();
                    s.wpos = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("swarm write error: {e}"),
        }
    }
}
