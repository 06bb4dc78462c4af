//! Lock-order witness: records the global lock-acquisition graph.
//!
//! Every acquisition through the shim pushes onto a thread-local
//! held-locks stack; acquiring lock *B* while holding lock *A* records
//! the edge `A → B`, keyed by the **lock instance id** (a cheap
//! process-wide counter), with the acquisition **call sites**
//! (`file:line`) carried as labels for reporting. A cycle in the union
//! of these edges across the whole test suite is a potential deadlock
//! even if no single run deadlocks — two threads interleaving the two
//! acquisition orders can each end up holding the lock the other
//! wants. That check lives in `fc-check lockgraph`, which merges the
//! TSV dumps written here (namespacing ids by pid so dumps from
//! different processes can never alias into false cycles).
//!
//! Instance-id keying (rather than site keying) is what makes the
//! classic striped-lock mistake visible: `stripes[i].lock()` then
//! `stripes[j].lock()` from one code site, executed with `i`/`j` in
//! opposite orders on two paths, is a cycle between the two stripe
//! instances even though every acquisition shares a single site. The
//! trade-off is scope: the witness proves ordering violations observed
//! on concrete lock instances within one process; it does not
//! aggregate logically-equivalent locks across processes.
//!
//! Two layers, with different costs:
//!
//! - **Relock detection** is always on in debug builds: re-acquiring
//!   the *same* mutex instance (or overlapping a write lock) on one
//!   thread is a guaranteed self-deadlock with std primitives, so it
//!   panics immediately at the second acquisition site.
//! - **Edge recording** is opt-in via `FC_LOCKGRAPH=1`; with
//!   `FC_LOCKGRAPH_DIR` set, each *new* (deduplicated) edge is
//!   appended to `<dir>/lockgraph-<pid>.tsv` as `from\tto`.
//!
//! [`capture`] diverts edges to a thread-local buffer instead of the
//! global graph — used by tests that deliberately acquire locks in
//! inverted order without poisoning the suite-wide check.
//!
//! Only compiled under `debug_assertions`.

use std::cell::RefCell;
use std::collections::HashSet;
use std::io::Write as _;
use std::panic::Location;
use std::sync::{Mutex as StdMutex, OnceLock};

/// How a lock is held — read-read overlap on one instance is
/// tolerated; anything involving a write side is a relock error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LockKind {
    Mutex,
    Read,
    Write,
}

/// One entry of the thread-local held-locks stack.
struct Held {
    id: u32,
    site: &'static Location<'static>,
    kind: LockKind,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    static CAPTURE: RefCell<Option<Vec<Edge>>> = const { RefCell::new(None) };
}

fn enabled() -> bool {
    static E: OnceLock<bool> = OnceLock::new();
    *E.get_or_init(|| std::env::var("FC_LOCKGRAPH").is_ok_and(|v| v == "1"))
}

fn dump_dir() -> Option<&'static str> {
    static D: OnceLock<Option<String>> = OnceLock::new();
    D.get_or_init(|| std::env::var("FC_LOCKGRAPH_DIR").ok())
        .as_deref()
}

/// One recorded acquisition-order edge: the held lock → the lock being
/// acquired, as instance ids plus the `file:line` of each acquisition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Instance id of the lock already held.
    pub from_id: u32,
    /// Acquisition site of the held lock.
    pub from_site: String,
    /// Instance id of the lock being acquired.
    pub to_id: u32,
    /// Acquisition site of the new lock.
    pub to_site: String,
}

fn global_edges() -> &'static StdMutex<HashSet<Edge>> {
    static G: OnceLock<StdMutex<HashSet<Edge>>> = OnceLock::new();
    G.get_or_init(|| StdMutex::new(HashSet::new()))
}

fn site_key(site: &Location<'_>) -> String {
    format!("{}:{}", site.file(), site.line())
}

fn append_edge_line(e: &Edge) {
    let Some(dir) = dump_dir() else { return };
    let path = format!("{dir}/lockgraph-{}.tsv", std::process::id());
    let _ = std::fs::create_dir_all(dir);
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(
            f,
            "#{}\t{}\t#{}\t{}",
            e.from_id, e.from_site, e.to_id, e.to_site
        );
    }
}

/// Panics if acquiring (`id`, `kind`) would self-deadlock against a
/// lock this thread already holds. Must run *before* the real lock
/// call — afterwards it would be too late to report.
pub(crate) fn check_relock(id: u32, kind: LockKind, site: &Location<'_>) {
    HELD.with(|h| {
        for held in h.borrow().iter() {
            if held.id == id && (kind != LockKind::Read || held.kind != LockKind::Read) {
                panic!(
                    "lock-order witness: thread re-acquires lock #{id} ({kind:?}) at {} \
                     while already holding it ({:?}, acquired at {}) — guaranteed \
                     self-deadlock with std primitives",
                    site_key(site),
                    held.kind,
                    site_key(held.site),
                );
            }
        }
    });
}

/// Records a successful acquisition: emits held→new edges (when
/// enabled or capturing) and pushes the held-stack entry.
pub(crate) fn acquired(id: u32, kind: LockKind, site: &'static Location<'static>) {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        let capturing = CAPTURE.with(|c| c.borrow().is_some());
        if capturing || enabled() {
            for held in h.iter() {
                if held.id == id {
                    continue; // read-read overlap on one instance is not an ordering edge
                }
                let edge = Edge {
                    from_id: held.id,
                    from_site: site_key(held.site),
                    to_id: id,
                    to_site: site_key(site),
                };
                if capturing {
                    CAPTURE.with(|c| {
                        if let Some(buf) = c.borrow_mut().as_mut() {
                            buf.push(edge.clone());
                        }
                    });
                } else {
                    let mut g = global_edges().lock().unwrap_or_else(|e| e.into_inner());
                    if g.insert(edge.clone()) {
                        append_edge_line(&edge);
                    }
                }
            }
        }
        h.push(Held { id, site, kind });
    });
}

/// Pops the most recent held-stack entry for (`id`, `kind`).
pub(crate) fn released(id: u32, kind: LockKind) {
    HELD.with(|h| {
        let mut h = h.borrow_mut();
        if let Some(pos) = h.iter().rposition(|e| e.id == id && e.kind == kind) {
            h.remove(pos);
        }
    });
}

/// Runs `f` with edge recording diverted to a local buffer; returns
/// `f`'s result and the edges recorded on this thread.
///
/// The suite-wide graph is untouched, so tests can exercise
/// deliberately inverted lock orders without tripping CI's cycle
/// check.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Edge>) {
    CAPTURE.with(|c| {
        let prev = c.borrow_mut().replace(Vec::new());
        assert!(prev.is_none(), "nested lockgraph::capture");
    });
    let r = f();
    let edges = CAPTURE.with(|c| c.borrow_mut().take().unwrap_or_default());
    (r, edges)
}

/// Snapshot of the deduplicated global edge set (for in-process
/// assertions; the cross-process check reads the TSV dumps).
pub fn edges_snapshot() -> Vec<Edge> {
    let g = global_edges().lock().unwrap_or_else(|e| e.into_inner());
    g.iter().cloned().collect()
}
