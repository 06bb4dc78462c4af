//! Value pins for server sessions: every reply a test session gets,
//! folded into one `u64`, so a suite asserts what the server answered
//! by value rather than by shape.

// Each suite folds the kinds of reply it sees; not every suite sees
// every kind.
#![allow(dead_code)]

use fc_server::{ServerError, TilePayload};
use std::io;
use std::time::Duration;

/// Nanoseconds of a simulated duration, as the wire carries them.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Folds a `Client::request_tile` answer into a [`Pin`]: payload, then
/// simulated latency, hit flag, phase and degraded flag. (The answer's
/// type is not exported, so its fields are read at the call site.)
macro_rules! fold_tile {
    ($pin:expr, $answer:expr) => {{
        let a = &$answer;
        $pin.payload(&a.payload);
        $pin.scalars([
            common::nanos(a.latency),
            u64::from(a.cache_hit),
            u64::from(a.phase),
            u64::from(a.degraded),
        ]);
    }};
}

/// Folds a `Client::stats` reply into a [`Pin`].
macro_rules! fold_stats {
    ($pin:expr, $stats:expr) => {{
        let s = &$stats;
        $pin.scalars([
            s.requests,
            s.hits,
            common::nanos(s.avg_latency),
            s.prefetch_issued,
            s.prefetch_used,
        ]);
    }};
}

/// FNV-1a 64-bit fold over a session's replies; stable across
/// platforms and runs.
pub struct Pin(u64);

impl Default for Pin {
    fn default() -> Self {
        Pin(0xcbf2_9ce4_8422_2325)
    }
}

impl Pin {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        for &b in v {
            self.u64(u64::from(b));
        }
    }

    /// A tile reply's payload: its tile, shape, attribute names,
    /// column bits and presence mask.
    pub fn payload(&mut self, p: &TilePayload) {
        self.u64(u64::from(p.tile.level));
        self.u64(u64::from(p.tile.y));
        self.u64(u64::from(p.tile.x));
        self.u64(u64::from(p.h));
        self.u64(u64::from(p.w));
        for name in &p.attrs {
            self.bytes(name.as_bytes());
        }
        for col in &p.data {
            self.u64(col.len() as u64);
            for v in col {
                self.u64(v.to_bits());
            }
        }
        self.bytes(&p.present);
    }

    /// Scalar reply fields: flags, counters, simulated durations.
    pub fn scalars(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            self.u64(v);
        }
    }

    /// An error reply's structured code (`u64::MAX` for a transport
    /// error that carries none).
    pub fn error(&mut self, e: &io::Error) {
        let code = e
            .get_ref()
            .and_then(|inner| inner.downcast_ref::<ServerError>())
            .map_or(u64::MAX, |s| s.code as u64);
        self.u64(code);
    }

    /// Asserts the fold equals `pinned`, naming the session.
    pub fn check(&self, pinned: u64, session: &str) {
        assert!(
            self.0 == pinned,
            "{session}: replies fold to {:#018x}, pinned {pinned:#018x}",
            self.0
        );
    }
}
