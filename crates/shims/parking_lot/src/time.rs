//! Monotonic time for concurrency code: `time::now()` instead of
//! `Instant::now()`.
//!
//! A zero-cost passthrough in every build. It stays a separate seam
//! because the `fc-check lint` `wall-clock` rule points at it:
//! `fc-core`, `fc-tiles`, and `fc-array` use this (or `SimClock`)
//! rather than reading ambient time directly.

use std::time::Instant;

/// The current monotonic instant.
#[inline(always)]
pub fn now() -> Instant {
    Instant::now()
}
