//! Monotonic time for concurrency code: `time::now()` instead of
//! `Instant::now()`.
//!
//! In release builds this is a zero-cost passthrough. In debug builds,
//! threads inside a model-checker run (see [`crate::model`]) get a
//! *virtual* clock that advances only when a timed condvar wait fires
//! — so timeout-based loops (deadline checks) terminate under
//! exhaustive schedule exploration instead of livelocking on a frozen
//! wall clock.
//!
//! The `fc-check lint` `wall-clock` rule enforces that `fc-core`,
//! `fc-tiles`, and `fc-array` use this (or `SimClock`) rather than
//! reading ambient time directly.

use std::time::Instant;

/// The current monotonic instant (virtualized inside model runs).
#[cfg(debug_assertions)]
pub fn now() -> Instant {
    crate::model::virtual_now().unwrap_or_else(Instant::now)
}

/// The current monotonic instant.
#[cfg(not(debug_assertions))]
#[inline(always)]
pub fn now() -> Instant {
    Instant::now()
}
