//! The lock-order witness end to end: a seeded ordering inversion
//! recorded through the instrumented `parking_lot` shim must surface
//! as a cycle in `fc-check`'s graph, and a consistent ordering must
//! not. Uses `lockgraph::capture` so the deliberately inverted
//! acquisitions never reach the suite-wide graph that CI checks.
//!
//! Debug-only: the witness is compiled out of release builds.
#![cfg(debug_assertions)]

use fc_check::LockGraph;
use parking_lot::{lockgraph, Mutex};

/// The cycle `fc-check`'s graph finds over witness edges, keyed by
/// lock instance id.
fn find_cycle(edges: &[lockgraph::Edge]) -> Option<Vec<String>> {
    let mut g = LockGraph::new();
    for e in edges {
        g.add_edge(&format!("#{}", e.from_id), &format!("#{}", e.to_id));
    }
    g.find_cycle()
}

#[test]
fn seeded_inversion_is_flagged_as_cycle() {
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    let ((), edges) = lockgraph::capture(|| {
        {
            let _ga = a.lock();
            let _gb = b.lock(); // a -> b
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // b -> a: the inversion
        }
    });
    assert_eq!(edges.len(), 2, "one edge per nested acquisition");
    let cycle = find_cycle(&edges).expect("inversion must be a cycle");
    assert_eq!(cycle.first(), cycle.last());
}

#[test]
fn consistent_order_is_clean() {
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    let c = Mutex::new(0u32);
    let ((), edges) = lockgraph::capture(|| {
        {
            let _ga = a.lock();
            let _gb = b.lock();
            let _gc = c.lock(); // a -> b, a -> c, b -> c
        }
        {
            let _ga = a.lock();
            let _gc = c.lock(); // same order, no new cycle
        }
    });
    assert!(edges.len() >= 3);
    assert!(find_cycle(&edges).is_none());
}

/// The striped-lock mistake that motivated instance-id keying: one
/// code site acquiring two stripes in index order on one path and in
/// reverse order on another. Site-keyed graphs cannot see this (every
/// acquisition shares a single `file:line`); instance keying makes it
/// a two-node cycle.
#[test]
fn striped_lock_inversion_at_a_single_site_is_caught() {
    let stripes = [Mutex::new(0u32), Mutex::new(0u32)];
    let lock_pair = |i: usize, j: usize| {
        let _gi = stripes[i].lock();
        let _gj = stripes[j].lock();
    };
    let ((), edges) = lockgraph::capture(|| {
        lock_pair(0, 1);
        lock_pair(1, 0);
    });
    assert_eq!(edges.len(), 2);
    // Both acquisitions happened at the same call site…
    assert_eq!(edges[0].to_site, edges[1].to_site);
    // …yet the instance-level graph still shows the inversion.
    assert!(find_cycle(&edges).is_some());
}

/// Re-acquiring the same mutex on one thread is a guaranteed
/// self-deadlock with std primitives; the witness panics at the
/// second acquisition instead of hanging.
#[test]
fn relock_panics_instead_of_deadlocking() {
    let m = Mutex::new(0u32);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _g1 = m.lock();
        let _g2 = m.lock();
    }))
    .expect_err("relock must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("re-acquires"), "unexpected panic: {msg}");
}
