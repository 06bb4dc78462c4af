//! Chaos invariants: what every run of the multi-session driver must
//! preserve, no matter how hostile its fault schedule.
//!
//! A chaos run is a [`crate::multiuser::run`] whose serving config
//! sets `faults` (`fc_server::FaultSetup`): every session replays its trace
//! through the *fallible* fetch path
//! ([`fc_core::Middleware::try_request`]), so a backend brownout or
//! error burst produces the full degradation ladder — retried fetches,
//! degraded ancestor replies, and clean [`fc_core::FetchError`]s. The
//! report buckets every attempt before/during/after the fault window by
//! the per-session request index the plan keys on, so a test can assert
//! that the hit rate recovers once the fault clears. [`assert_invariants`]
//! checks:
//!
//! - **no panic escapes a session** — each step runs under
//!   `catch_unwind`; a panicking session is counted and stopped;
//! - **no namespace exceeds its capacity** — each dataset's resident
//!   count, sampled after every lockstep step, stays within that
//!   namespace's slice of the global budget;
//! - **accounting balances** — every attempt is served (possibly
//!   degraded) or failed, and lands in exactly one phase bucket;
//! - **the pair counts add up** — each dataset's replies report the χ²
//!   pair probes its shared pair table counted.

use crate::multiuser::RunReport;

/// Asserts the schedule-independent invariants of a run. Panics (with
/// the offending counters) when one is violated.
pub fn assert_invariants(r: &RunReport) {
    assert_eq!(r.panics, 0, "a panic escaped a session body: {r:?}");
    for n in &r.namespaces {
        assert!(
            n.max_resident <= n.capacity,
            "namespace '{}' exceeded its capacity: {} resident > {} capacity",
            n.dataset,
            n.max_resident,
            n.capacity
        );
    }
    assert_eq!(
        r.served + r.failures,
        r.attempts,
        "every attempt is served or failed: {r:?}"
    );
    assert!(
        r.degraded <= r.served,
        "degraded replies are a subset of served: {r:?}"
    );
    for (name, p) in [
        ("before", &r.before),
        ("during", &r.during),
        ("after", &r.after),
    ] {
        assert_eq!(
            p.served + p.failures,
            p.attempts,
            "{name} bucket balances: {p:?}"
        );
        assert!(p.hits <= p.served, "{name}: hits within served: {p:?}");
        assert!(
            p.degraded <= p.served,
            "{name}: degraded within served: {p:?}"
        );
    }
    assert!(
        r.prefetch_used <= r.prefetch_issued,
        "a prefetch cannot be used more often than issued: {r:?}"
    );
    if r.burst_active {
        assert_eq!(
            r.per_traffic.iter().sum::<usize>(),
            r.served,
            "every served request lands in exactly one traffic phase: {r:?}"
        );
    } else {
        assert_eq!(
            r.per_traffic,
            [0, 0, 0],
            "traffic buckets must stay empty with burst scheduling off: {r:?}"
        );
    }
    for n in &r.namespaces {
        // Each reply's pair counts are read under the table's lock, so
        // a dataset's replies add up to what its table counted.
        let table = n.pair_table.hits + n.pair_table.misses;
        assert_eq!(
            table, n.pair_probes,
            "{}: the replies' χ² pair probes must add up to the table's: {n:?}",
            n.dataset
        );
    }
}
