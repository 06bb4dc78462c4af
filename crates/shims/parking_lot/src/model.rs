//! Loom-lite deterministic concurrency model checker.
//!
//! Runs a small multi-threaded model under *cooperative scheduling*:
//! real OS threads, but exactly one runnable at a time, with a
//! scheduling decision at every synchronization operation (lock,
//! try-lock, rwlock, atomic access, spawn, join, explicit yield). The set of decisions made during one run is a
//! *schedule*; the checker explores schedules systematically — DFS
//! with an optional preemption bound (CHESS-style), a seeded-random
//! fallback for larger models, and deterministic replay of a failing
//! schedule.
//!
//! What a clean exhaustive pass proves: under sequential consistency
//! at sync-op granularity, no explored interleaving deadlocks or
//! violates a model invariant (`assert!` in the model body). What it does **not** prove: weak-memory effects (the model
//! serializes every atomic), data races on non-atomic shared state
//! without lock protection, or anything about interleavings beyond
//! the preemption bound / schedule cap.
//!
//! Model bodies must reach a shim sync operation in every loop
//! iteration — a busy-wait on a plain variable never yields and hangs
//! the run (CI's timeout catches it; see `docs/CHECKS.md`).
//!
//! Only compiled under `debug_assertions`; release builds contain
//! none of this machinery.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, OnceLock};
use std::thread::JoinHandle as OsJoinHandle;

// ---------------------------------------------------------------------------
// Thread identity
// ---------------------------------------------------------------------------

thread_local! {
    static MODEL_TID: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The model thread id of the calling thread, if it is part of an
/// active model run.
pub fn current_tid() -> Option<usize> {
    MODEL_TID.with(|c| c.get())
}

/// Whether the calling thread belongs to an active model run.
pub fn is_model_thread() -> bool {
    current_tid().is_some()
}

/// Panic payload used to unwind parked model threads when a run
/// aborts (failure found or deadlock detected). Swallowed by the
/// per-thread wrapper; never escapes to the test harness.
struct ModelAbort;

// ---------------------------------------------------------------------------
// Operations and runtime state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
pub(crate) enum Op {
    /// First scheduling of a freshly spawned thread.
    Begin,
    AcqMutex(u32),
    TryMutex(u32),
    AcqRead(u32),
    AcqWrite(u32),
    Atomic,
    Yield,
    Spawn,
    Join(usize),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Begin => write!(f, "begin"),
            Op::AcqMutex(l) => write!(f, "lock(m{l})"),
            Op::TryMutex(l) => write!(f, "try_lock(m{l})"),
            Op::AcqRead(l) => write!(f, "read(rw{l})"),
            Op::AcqWrite(l) => write!(f, "write(rw{l})"),
            Op::Atomic => write!(f, "atomic"),
            Op::Yield => write!(f, "yield"),
            Op::Spawn => write!(f, "spawn"),
            Op::Join(t) => write!(f, "join(t{t})"),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThStatus {
    /// Has a pending op, waiting to be scheduled.
    Ready,
    /// Currently the single running thread.
    Running,
    Finished,
}

struct Th {
    status: ThStatus,
    pending: Option<(Op, &'static Location<'static>)>,
}

impl Th {
    fn ready(op: Op, site: &'static Location<'static>) -> Self {
        Th {
            status: ThStatus::Ready,
            pending: Some((op, site)),
        }
    }
}

#[derive(Default)]
struct LockState {
    writer: Option<usize>,
    readers: Vec<usize>,
}

/// One scheduling decision point, recorded for DFS backtracking.
struct Frame {
    /// Runnable tids in canonical order (previously active first).
    runnable: Vec<usize>,
    chosen_idx: usize,
    prev_active: Option<usize>,
    /// Preemptions consumed before this decision.
    preempt_before: usize,
}

enum Policy {
    /// Follow the script, then default (continue previous, else
    /// lowest tid) — cost-0 choices, used by the DFS driver.
    Scripted,
    /// Seeded uniform choice among bound-respecting candidates.
    Random(XorShift64),
}

struct RtState {
    threads: Vec<Th>,
    locks: HashMap<u32, LockState>,
    active: Option<usize>,
    policy: Policy,
    script: Vec<usize>,
    decisions: Vec<usize>,
    frames: Vec<Frame>,
    preemptions: usize,
    preemption_bound: Option<usize>,
    steps: usize,
    max_steps: usize,
    trace: Vec<String>,
    abort: bool,
    failure: Option<Failure>,
    live_os: usize,
    os_handles: Vec<OsJoinHandle<()>>,
}

struct Rt {
    m: StdMutex<Option<RtState>>,
    /// Wakes parked model threads on every scheduling change.
    cv: StdCondvar,
    /// Wakes the controller when `live_os` reaches zero.
    ctl: StdCondvar,
}

fn rt() -> &'static Rt {
    static RT: OnceLock<Rt> = OnceLock::new();
    RT.get_or_init(|| Rt {
        m: StdMutex::new(None),
        cv: StdCondvar::new(),
        ctl: StdCondvar::new(),
    })
}

/// Serializes model runs process-wide: the runtime state is global.
fn run_lock() -> &'static StdMutex<()> {
    static L: OnceLock<StdMutex<()>> = OnceLock::new();
    L.get_or_init(|| StdMutex::new(()))
}

struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

// ---------------------------------------------------------------------------
// Scheduling core
// ---------------------------------------------------------------------------

fn lock_free_for_write(st: &RtState, l: u32) -> bool {
    st.locks
        .get(&l)
        .is_none_or(|s| s.writer.is_none() && s.readers.is_empty())
}

fn lock_has_no_writer(st: &RtState, l: u32) -> bool {
    st.locks.get(&l).is_none_or(|s| s.writer.is_none())
}

fn can_run(st: &RtState, tid: usize) -> bool {
    let th = &st.threads[tid];
    if th.status != ThStatus::Ready {
        return false;
    }
    match th.pending.map(|(op, _)| op) {
        Some(Op::AcqMutex(l) | Op::AcqWrite(l)) => lock_free_for_write(st, l),
        Some(Op::AcqRead(l)) => lock_has_no_writer(st, l),
        Some(Op::Join(t)) => st.threads[t].status == ThStatus::Finished,
        Some(_) => true,
        None => false,
    }
}

fn preempt_cost(prev: Option<usize>, runnable: &[usize], choice: usize) -> usize {
    match prev {
        Some(p) if runnable.contains(&p) && choice != p => 1,
        _ => 0,
    }
}

fn fail(st: &mut RtState, message: String) {
    if st.failure.is_none() {
        st.failure = Some(Failure {
            message,
            schedule: st.decisions.clone(),
            trace: st.trace.clone(),
        });
    }
    st.abort = true;
}

fn thread_dump(st: &RtState) -> String {
    let mut s = String::new();
    for (i, th) in st.threads.iter().enumerate() {
        let what = match &th.pending {
            Some((op, site)) => format!(
                "{:?} at `{op}` ({}:{})",
                th.status,
                site.file(),
                site.line()
            ),
            None => format!("{:?}", th.status),
        };
        s.push_str(&format!("  t{i}: {what}\n"));
    }
    s
}

/// Picks the next thread to run. Called with the runtime lock held, by
/// the thread that is currently active (it has just parked itself or
/// finished). Notifies all model threads afterwards.
fn schedule(st: &mut RtState) {
    if st.abort {
        return;
    }
    let mut runnable: Vec<usize> = (0..st.threads.len()).filter(|&t| can_run(st, t)).collect();
    if runnable.is_empty() {
        if st.threads.iter().all(|t| t.status == ThStatus::Finished) {
            st.active = None; // run complete
        } else {
            fail(
                st,
                format!(
                    "deadlock: no runnable thread (lock cycle)\n{}",
                    thread_dump(st)
                ),
            );
        }
        return;
    }
    st.steps += 1;
    if st.steps > st.max_steps {
        fail(
            st,
            format!(
                "step limit {} exceeded — livelock or model too large",
                st.max_steps
            ),
        );
        return;
    }
    // Canonical order: previously active thread first (the cost-0
    // "keep running" choice), then ascending tid.
    let prev = st.active;
    if let Some(p) = prev {
        if let Some(pos) = runnable.iter().position(|&t| t == p) {
            runnable.remove(pos);
            runnable.insert(0, p);
        }
    }
    let j = st.decisions.len();
    let chosen_idx = if j < st.script.len() {
        let want = st.script[j];
        match runnable.iter().position(|&t| t == want) {
            Some(i) => i,
            None => {
                fail(
                    st,
                    format!(
                        "schedule replay diverged at decision {j}: scripted t{want} not \
                         runnable (runnable: {runnable:?}) — model is nondeterministic \
                         outside the scheduler (check HashMap iteration, ambient time, \
                         or cross-run shared state)"
                    ),
                );
                return;
            }
        }
    } else {
        match &mut st.policy {
            Policy::Scripted => 0,
            Policy::Random(rng) => {
                let bound = st.preemption_bound;
                let allowed: Vec<usize> = (0..runnable.len())
                    .filter(|&c| {
                        bound.is_none_or(|b| {
                            st.preemptions + preempt_cost(prev, &runnable, runnable[c]) <= b
                        })
                    })
                    .collect();
                allowed[rng.below(allowed.len())]
            }
        }
    };
    let tid = runnable[chosen_idx];
    let cost = preempt_cost(prev, &runnable, tid);
    st.frames.push(Frame {
        runnable: runnable.clone(),
        chosen_idx,
        prev_active: prev,
        preempt_before: st.preemptions,
    });
    st.preemptions += cost;
    st.decisions.push(tid);
    if let Some((op, site)) = st.threads[tid].pending {
        st.trace.push(format!(
            "{:>3}. t{tid} {op}  [{}:{}]",
            st.decisions.len(),
            site.file(),
            site.line()
        ));
    }
    st.active = Some(tid);
}

enum Applied {
    Unit,
    Try(bool),
}

/// Applies the granted operation's effect. Called by the chosen thread
/// itself, with the runtime lock held.
fn apply(st: &mut RtState, tid: usize) -> Applied {
    let (op, _) = st.threads[tid]
        .pending
        .take()
        .expect("granted without pending op");
    match op {
        Op::Begin | Op::Atomic | Op::Yield | Op::Spawn | Op::Join(_) => Applied::Unit,
        Op::AcqMutex(l) | Op::AcqWrite(l) => {
            st.locks.entry(l).or_default().writer = Some(tid);
            Applied::Unit
        }
        Op::TryMutex(l) => {
            let free = lock_free_for_write(st, l);
            if free {
                st.locks.entry(l).or_default().writer = Some(tid);
            }
            Applied::Try(free)
        }
        Op::AcqRead(l) => {
            st.locks.entry(l).or_default().readers.push(tid);
            Applied::Unit
        }
    }
}

/// The yield-point protocol: park with a pending op, hand the cpu to
/// the next scheduled thread, and resume once granted.
fn reach(op: Op, site: &'static Location<'static>) -> Applied {
    let tid = current_tid().expect("reach() outside a model thread");
    let rtx = rt();
    let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
    {
        let st = g.as_mut().expect("model state missing");
        if st.abort {
            drop(g);
            panic::panic_any(ModelAbort);
        }
        st.threads[tid].status = ThStatus::Ready;
        st.threads[tid].pending = Some((op, site));
        schedule(st);
    }
    rtx.cv.notify_all();
    loop {
        {
            let st = g.as_mut().expect("model state missing");
            if st.abort {
                drop(g);
                rtx.cv.notify_all();
                panic::panic_any(ModelAbort);
            }
            if st.active == Some(tid) && st.threads[tid].status == ThStatus::Ready {
                let r = apply(st, tid);
                st.threads[tid].status = ThStatus::Running;
                return r;
            }
        }
        g = rtx.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
}

/// Marks the calling thread finished and hands off the cpu. Unlike
/// `reach` this never panics — it runs on the unwind path too.
fn finish(tid: usize) {
    let rtx = rt();
    let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(st) = g.as_mut() {
        st.threads[tid].status = ThStatus::Finished;
        st.threads[tid].pending = None;
        if st.active == Some(tid) {
            schedule(st);
        }
    }
    drop(g);
    rtx.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Instrumentation hooks (called from the shim primitives)
// ---------------------------------------------------------------------------

pub(crate) fn mutex_acquire(lock: u32, site: &'static Location<'static>) {
    reach(Op::AcqMutex(lock), site);
}

pub(crate) fn mutex_try(lock: u32, site: &'static Location<'static>) -> bool {
    matches!(reach(Op::TryMutex(lock), site), Applied::Try(true))
}

/// Clears virtual ownership. Not a scheduling point: between a release
/// and the releasing thread's next yield no other thread can observe
/// the lock anyway (only one thread runs at a time).
pub(crate) fn mutex_release(lock: u32) {
    let rtx = rt();
    let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(st) = g.as_mut() {
        if let Some(ls) = st.locks.get_mut(&lock) {
            ls.writer = None;
        }
    }
}

pub(crate) fn rw_read(lock: u32, site: &'static Location<'static>) {
    reach(Op::AcqRead(lock), site);
}

pub(crate) fn rw_write(lock: u32, site: &'static Location<'static>) {
    reach(Op::AcqWrite(lock), site);
}

pub(crate) fn rw_read_release(lock: u32) {
    let tid = current_tid().expect("model hook outside model thread");
    let rtx = rt();
    let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(st) = g.as_mut() {
        if let Some(ls) = st.locks.get_mut(&lock) {
            if let Some(pos) = ls.readers.iter().position(|&t| t == tid) {
                ls.readers.remove(pos);
            }
        }
    }
}

pub(crate) fn rw_write_release(lock: u32) {
    mutex_release(lock);
}

/// Scheduling point before an atomic access.
pub(crate) fn atomic_point(site: &'static Location<'static>) {
    reach(Op::Atomic, site);
}

/// An explicit scheduling point, for model bodies that want to expose
/// an interleaving window without a sync op.
#[track_caller]
pub fn yield_now() {
    if is_model_thread() {
        reach(Op::Yield, Location::caller());
    }
}

// ---------------------------------------------------------------------------
// Spawn / join
// ---------------------------------------------------------------------------

/// Handle to a model thread; `join` is a scheduling point that only
/// becomes runnable once the child finished.
pub struct JoinHandle<T> {
    tid: usize,
    slot: Arc<StdMutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Waits for the child thread and returns its result.
    #[track_caller]
    pub fn join(self) -> T {
        reach(Op::Join(self.tid), Location::caller());
        let v = self.slot.lock().unwrap_or_else(|e| e.into_inner()).take();
        v.expect("joined model thread left no result (it panicked)")
    }
}

/// Spawns a new model thread. Must be called from within a model run.
#[track_caller]
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    assert!(is_model_thread(), "model::spawn outside a model run");
    let site = Location::caller();
    reach(Op::Spawn, site);
    let rtx = rt();
    let tid = {
        let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
        let st = g.as_mut().expect("model state missing");
        st.threads.push(Th::ready(Op::Begin, site));
        st.live_os += 1;
        st.threads.len() - 1
    };
    let slot = Arc::new(StdMutex::new(None));
    let slot2 = Arc::clone(&slot);
    let h = std::thread::Builder::new()
        .name(format!("fc-model-{tid}"))
        .spawn(move || {
            runner(tid, move || {
                let v = f();
                *slot2.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
            });
        })
        .expect("spawn model thread");
    {
        let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(st) = g.as_mut() {
            st.os_handles.push(h);
        }
    }
    JoinHandle { tid, slot }
}

/// Waits (parked) until this thread is scheduled for the first time.
fn first_park(tid: usize) {
    let rtx = rt();
    let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        {
            let st = g.as_mut().expect("model state missing");
            if st.abort {
                drop(g);
                panic::panic_any(ModelAbort);
            }
            if st.active == Some(tid) && st.threads[tid].status == ThStatus::Ready {
                let _ = apply(st, tid); // Begin: no effect
                st.threads[tid].status = ThStatus::Running;
                return;
            }
        }
        g = rtx.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
}

fn payload_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked (non-string payload)".to_string()
    }
}

fn runner(tid: usize, body: impl FnOnce()) {
    MODEL_TID.with(|c| c.set(Some(tid)));
    let r = panic::catch_unwind(AssertUnwindSafe(|| {
        first_park(tid);
        body();
    }));
    if let Err(p) = &r {
        if !p.is::<ModelAbort>() {
            let rtx = rt();
            let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(st) = g.as_mut() {
                fail(
                    st,
                    format!("t{tid} panicked: {}", payload_message(p.as_ref())),
                );
            }
            drop(g);
            rtx.cv.notify_all();
        }
    }
    finish(tid);
    MODEL_TID.with(|c| c.set(None));
    // Last thread out wakes the controller.
    let rtx = rt();
    let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(st) = g.as_mut() {
        st.live_os -= 1;
        if st.live_os == 0 {
            rtx.ctl.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Public checking API
// ---------------------------------------------------------------------------

/// Exploration strategy.
pub enum Mode {
    /// Systematic DFS over schedules (exhaustive under the preemption
    /// bound, up to `max_schedules`).
    Dfs,
    /// `runs` schedules driven by a seeded RNG — the fallback for
    /// models too large to exhaust.
    Random {
        /// RNG seed; run `i` uses `seed + i`.
        seed: u64,
        /// Number of schedules to run.
        runs: usize,
    },
    /// Replay one exact schedule (from [`Failure::schedule`]).
    Replay(Vec<usize>),
}

/// Model-checking options.
pub struct Options {
    /// Maximum context switches away from a runnable thread (CHESS
    /// bound); `None` explores everything.
    pub preemption_bound: Option<usize>,
    /// Per-run scheduling-decision cap; exceeding it fails the run
    /// (livelock guard).
    pub max_steps: usize,
    /// DFS schedule cap; hitting it reports `exhausted: false`.
    pub max_schedules: usize,
    /// Exploration strategy.
    pub mode: Mode,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            preemption_bound: None,
            max_steps: 20_000,
            max_schedules: 200_000,
            mode: Mode::Dfs,
        }
    }
}

/// Exploration summary for a passing check.
#[derive(Debug)]
pub struct Stats {
    /// Schedules actually run.
    pub schedules: usize,
    /// Whether the schedule space was exhausted (DFS only).
    pub exhausted: bool,
}

/// A failing schedule: what went wrong, the decision sequence to
/// replay it, and the per-step trace.
pub struct Failure {
    /// Panic message, deadlock report, or divergence diagnosis.
    pub message: String,
    /// Thread ids in scheduling order — feed to [`Mode::Replay`].
    pub schedule: Vec<usize>,
    /// Human-readable step-by-step trace of the failing run.
    pub trace: Vec<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.message)?;
        writeln!(
            f,
            "schedule (replay with Mode::Replay): {:?}",
            self.schedule
        )?;
        writeln!(f, "trace:")?;
        for line in &self.trace {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

struct RunOutcome {
    frames: Vec<Frame>,
    failure: Option<Failure>,
}

fn run_once(
    script: Vec<usize>,
    policy: Policy,
    opts: &Options,
    body: &Arc<dyn Fn() + Send + Sync>,
) -> RunOutcome {
    let rtx = rt();
    {
        let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
        *g = Some(RtState {
            threads: vec![Th::ready(Op::Begin, Location::caller())],
            locks: HashMap::new(),
            active: None,
            policy,
            script,
            decisions: Vec::new(),
            frames: Vec::new(),
            preemptions: 0,
            preemption_bound: opts.preemption_bound,
            steps: 0,
            max_steps: opts.max_steps,
            trace: Vec::new(),
            abort: false,
            failure: None,
            live_os: 1,
            os_handles: Vec::new(),
        });
    }
    let body = Arc::clone(body);
    let h0 = std::thread::Builder::new()
        .name("fc-model-0".into())
        .spawn(move || runner(0, move || body()))
        .expect("spawn model root thread");
    // Kick: schedule the first thread.
    {
        let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
        let st = g.as_mut().expect("model state missing");
        schedule(st);
    }
    rtx.cv.notify_all();
    // Wait for every OS thread of the run to exit its instrumented part.
    let mut handles;
    let outcome;
    {
        let mut g = rtx.m.lock().unwrap_or_else(|e| e.into_inner());
        while g.as_ref().is_some_and(|st| st.live_os > 0) {
            g = rtx.ctl.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let st = g.take().expect("model state missing at teardown");
        handles = st.os_handles;
        outcome = RunOutcome {
            frames: st.frames,
            failure: st.failure,
        };
    }
    handles.push(h0);
    for h in handles {
        let _ = h.join();
    }
    outcome
}

/// Installs (once) a panic hook that silences panics on model threads:
/// the checker reports them itself, and abort unwinding uses panics as
/// control flow. Panics on ordinary threads keep the default hook.
fn install_quiet_hook() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let prev = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if !is_model_thread() {
            prev(info);
        }
    }));
}

/// Explores schedules of `body`; returns stats on success or the first
/// failing schedule.
///
/// # Errors
/// The first [`Failure`] found (invariant panic, deadlock, step-limit
/// livelock, or replay divergence).
pub fn try_check<F>(opts: Options, body: F) -> Result<Stats, Box<Failure>>
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(!is_model_thread(), "nested model runs are not supported");
    install_quiet_hook();
    let _serial = run_lock().lock().unwrap_or_else(|e| e.into_inner());
    let body: Arc<dyn Fn() + Send + Sync> = Arc::new(body);
    match &opts.mode {
        Mode::Replay(schedule) => {
            let out = run_once(schedule.clone(), Policy::Scripted, &opts, &body);
            match out.failure {
                Some(f) => Err(Box::new(f)),
                None => Ok(Stats {
                    schedules: 1,
                    exhausted: false,
                }),
            }
        }
        Mode::Random { seed, runs } => {
            let (seed, runs) = (*seed, *runs);
            for i in 0..runs {
                let rng = XorShift64(
                    seed.wrapping_add(i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        | 1,
                );
                let out = run_once(Vec::new(), Policy::Random(rng), &opts, &body);
                if let Some(f) = out.failure {
                    return Err(Box::new(f));
                }
            }
            Ok(Stats {
                schedules: runs,
                exhausted: false,
            })
        }
        Mode::Dfs => {
            let bound = opts.preemption_bound;
            let mut script: Vec<usize> = Vec::new();
            let mut schedules = 0usize;
            loop {
                let out = run_once(script.clone(), Policy::Scripted, &opts, &body);
                if let Some(f) = out.failure {
                    return Err(Box::new(f));
                }
                schedules += 1;
                if schedules >= opts.max_schedules {
                    return Ok(Stats {
                        schedules,
                        exhausted: false,
                    });
                }
                // Backtrack: deepest frame with an unexplored,
                // bound-respecting alternative.
                let mut frames = out.frames;
                loop {
                    let Some(f) = frames.pop() else {
                        return Ok(Stats {
                            schedules,
                            exhausted: true,
                        });
                    };
                    let mut c = f.chosen_idx + 1;
                    while c < f.runnable.len() {
                        let cost = preempt_cost(f.prev_active, &f.runnable, f.runnable[c]);
                        if bound.is_none_or(|b| f.preempt_before + cost <= b) {
                            break;
                        }
                        c += 1;
                    }
                    if c < f.runnable.len() {
                        script = frames.iter().map(|fr| fr.runnable[fr.chosen_idx]).collect();
                        script.push(f.runnable[c]);
                        break;
                    }
                }
            }
        }
    }
}

/// Like [`try_check`] but panics with the pretty-printed failure.
pub fn check<F>(opts: Options, body: F) -> Stats
where
    F: Fn() + Send + Sync + 'static,
{
    match try_check(opts, body) {
        Ok(stats) => stats,
        Err(f) => panic!("model check failed:\n{f}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mutex;

    #[test]
    fn exhausts_a_two_thread_counter_model() {
        let stats = check(Options::default(), || {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let h = spawn(move || {
                *m2.lock() += 1;
            });
            *m.lock() += 10;
            h.join();
            assert_eq!(*m.lock(), 11);
        });
        assert!(stats.exhausted, "small model must exhaust");
        assert!(stats.schedules >= 2, "lock order must branch: {stats:?}");
    }

    #[test]
    fn finds_an_atomicity_violation() {
        let err = try_check(Options::default(), || {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let h = spawn(move || {
                // Non-atomic read-modify-write: lost update.
                let v = *m2.lock();
                *m2.lock() = v + 1;
            });
            let v = *m.lock();
            *m.lock() = v + 1;
            h.join();
            assert_eq!(*m.lock(), 2, "lost update");
        })
        .expect_err("checker must find the lost update");
        assert!(err.message.contains("lost update"), "got: {}", err.message);
        // The failing schedule replays to the same failure.
        let replay = try_check(
            Options {
                mode: Mode::Replay(err.schedule.clone()),
                ..Options::default()
            },
            || {
                let m = Arc::new(Mutex::new(0u32));
                let m2 = Arc::clone(&m);
                let h = spawn(move || {
                    let v = *m2.lock();
                    *m2.lock() = v + 1;
                });
                let v = *m.lock();
                *m.lock() = v + 1;
                h.join();
                assert_eq!(*m.lock(), 2, "lost update");
            },
        )
        .expect_err("replay must reproduce");
        assert!(replay.message.contains("lost update"));
    }

    #[test]
    fn random_mode_finds_the_same_lost_update() {
        let err = try_check(
            Options {
                mode: Mode::Random { seed: 7, runs: 64 },
                ..Options::default()
            },
            || {
                let m = Arc::new(Mutex::new(0u32));
                let m2 = Arc::clone(&m);
                let h = spawn(move || {
                    let v = *m2.lock();
                    *m2.lock() = v + 1;
                });
                let v = *m.lock();
                *m.lock() = v + 1;
                h.join();
                assert_eq!(*m.lock(), 2, "lost update");
            },
        )
        .expect_err("random exploration must trip the race");
        assert!(err.message.contains("lost update"));
    }

    #[test]
    fn preemption_bound_zero_still_runs_every_thread() {
        // With bound 0 the scheduler may only switch when the running
        // thread blocks — both threads still execute to completion.
        let stats = check(
            Options {
                preemption_bound: Some(0),
                ..Options::default()
            },
            || {
                let m = Arc::new(Mutex::new(0u32));
                let m2 = Arc::clone(&m);
                let h = spawn(move || {
                    *m2.lock() += 1;
                });
                *m.lock() += 1;
                h.join();
                assert_eq!(*m.lock(), 2);
            },
        );
        assert!(stats.exhausted);
    }

    #[test]
    fn rwlock_readers_share_writers_exclude() {
        let stats = check(Options::default(), || {
            let l = Arc::new(crate::RwLock::new(7u32));
            let l2 = Arc::clone(&l);
            let h = spawn(move || *l2.read());
            let w = {
                let mut g = l.write();
                *g += 1;
                *g
            };
            let r = h.join();
            assert!(r == 7 || r == 8, "reader sees before or after: {r}");
            assert_eq!(w, 8);
        });
        assert!(stats.exhausted);
    }
}
