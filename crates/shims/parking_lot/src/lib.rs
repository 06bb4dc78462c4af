//! Offline shim for the `parking_lot` crate — with correctness
//! instrumentation.
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s non-poisoning
//! API (`lock()` / `read()` / `write()` return guards directly; a
//! poisoned std lock is recovered by taking the inner guard: the
//! workspace holds no lock across panic-relevant invariants).
//!
//! Beyond the plain shim, debug builds add two opt-in layers that
//! compile away entirely in release (`cargo build --release` contains
//! no trace of them — CI asserts this on the shipped binaries):
//!
//! - a **lock-order witness** ([`lockgraph`]): every acquisition
//!   through the shim maintains a thread-local held-locks stack,
//!   panics on same-instance relocks, and (under `FC_LOCKGRAPH=1`)
//!   records the global site→site acquisition graph for the
//!   suite-wide cycle check in `fc-check lockgraph`;
//! - a **cooperative-scheduling model checker** ([`model`]): threads
//!   spawned through [`model::spawn`] run one-at-a-time with a
//!   scheduling decision at every shim sync operation, letting
//!   `fc-check`'s model suites explore thread interleavings
//!   systematically (DFS with a preemption bound) and replay failing
//!   schedules deterministically.
//!
//! The [`atomic`] wrappers are the matching seam for code that must
//! stay model-checkable: atomics whose accesses are scheduling points.
//! [`time::now`] is the one sanctioned read of monotonic time.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};
#[cfg(debug_assertions)]
use std::panic::Location;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU32, Ordering};

pub mod atomic;
#[cfg(debug_assertions)]
pub mod lockgraph;
#[cfg(debug_assertions)]
pub mod model;
pub mod time;

#[cfg(debug_assertions)]
use lockgraph::LockKind;

/// Process-global lock-id allocator; 0 means "not yet assigned".
#[cfg(debug_assertions)]
static NEXT_LOCK_ID: AtomicU32 = AtomicU32::new(1);

/// Lazily assigns a stable nonzero id to a lock instance.
#[cfg(debug_assertions)]
fn assign_id(cell: &AtomicU32) -> u32 {
    let v = cell.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let n = NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed);
    match cell.compare_exchange(0, n, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => n,
        Err(won) => won,
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock with `parking_lot`'s panic-free API.
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: AtomicU32,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(debug_assertions)]
            id: AtomicU32::new(0),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg(debug_assertions)]
    fn iid(&self) -> u32 {
        assign_id(&self.id)
    }

    /// Acquires the lock, blocking until available.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let site = Location::caller();
            let id = self.iid();
            lockgraph::check_relock(id, LockKind::Mutex, site);
            if model::is_model_thread() {
                model::mutex_acquire(id, site);
            }
            let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            lockgraph::acquired(id, LockKind::Mutex, site);
            MutexGuard {
                lock: self,
                inner: Some(g),
            }
        }
        #[cfg(not(debug_assertions))]
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Attempts to acquire the lock without blocking; `None` when it is
    /// held elsewhere (mirrors `parking_lot::Mutex::try_lock`). Used by
    /// `Debug` impls that must never block behind a lock holder.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        {
            let site = Location::caller();
            let id = self.iid();
            if model::is_model_thread() && !model::mutex_try(id, site) {
                return None;
            }
            match self.inner.try_lock() {
                Ok(g) => {
                    lockgraph::acquired(id, LockKind::Mutex, site);
                    Some(MutexGuard {
                        lock: self,
                        inner: Some(g),
                    })
                }
                Err(std::sync::TryLockError::Poisoned(e)) => {
                    lockgraph::acquired(id, LockKind::Mutex, site);
                    Some(MutexGuard {
                        lock: self,
                        inner: Some(e.into_inner()),
                    })
                }
                Err(std::sync::TryLockError::WouldBlock) => {
                    if model::is_model_thread() {
                        // Virtual grant said free but the real lock is
                        // contended — only possible against a non-model
                        // thread sharing a global lock; fall back to a
                        // real blocking acquire to stay consistent.
                        let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                        lockgraph::acquired(id, LockKind::Mutex, site);
                        return Some(MutexGuard {
                            lock: self,
                            inner: Some(g),
                        });
                    }
                    None
                }
            }
        }
        #[cfg(not(debug_assertions))]
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII guard for [`Mutex`]; unlocks on drop.
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock: &'a Mutex<T>,
    /// `None` only inside `drop`, which releases the real lock before
    /// the witness and model bookkeeping run.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("mutex guard is never emptied before drop"),
        }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("mutex guard is never emptied before drop"),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None; // release the real lock first
        #[cfg(debug_assertions)]
        {
            let id = self.lock.iid();
            lockgraph::released(id, LockKind::Mutex);
            if model::is_model_thread() {
                model::mutex_release(id);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock with `parking_lot`'s panic-free API.
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    id: AtomicU32,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self {
            #[cfg(debug_assertions)]
            id: AtomicU32::new(0),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg(debug_assertions)]
    fn iid(&self) -> u32 {
        assign_id(&self.id)
    }

    /// Acquires shared read access.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let site = Location::caller();
            let id = self.iid();
            lockgraph::check_relock(id, LockKind::Read, site);
            if model::is_model_thread() {
                model::rw_read(id, site);
            }
            let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
            lockgraph::acquired(id, LockKind::Read, site);
            RwLockReadGuard {
                lock: self,
                inner: Some(g),
            }
        }
        #[cfg(not(debug_assertions))]
        RwLockReadGuard {
            inner: Some(self.inner.read().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Acquires exclusive write access.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let site = Location::caller();
            let id = self.iid();
            lockgraph::check_relock(id, LockKind::Write, site);
            if model::is_model_thread() {
                model::rw_write(id, site);
            }
            let g = self.inner.write().unwrap_or_else(|e| e.into_inner());
            lockgraph::acquired(id, LockKind::Write, site);
            RwLockWriteGuard {
                lock: self,
                inner: Some(g),
            }
        }
        #[cfg(not(debug_assertions))]
        RwLockWriteGuard {
            inner: Some(self.inner.write().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("read guard is never emptied before drop"),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        #[cfg(debug_assertions)]
        {
            let id = self.lock.iid();
            lockgraph::released(id, LockKind::Read);
            if model::is_model_thread() {
                model::rw_read_release(id);
            }
        }
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match &self.inner {
            Some(g) => g,
            None => unreachable!("write guard is never emptied before drop"),
        }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match &mut self.inner {
            Some(g) => g,
            None => unreachable!("write guard is never emptied before drop"),
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        #[cfg(debug_assertions)]
        {
            let id = self.lock.iid();
            lockgraph::released(id, LockKind::Write);
            if model::is_model_thread() {
                model::rw_write_release(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_fails_while_held_elsewhere() {
        let m = std::sync::Arc::new(Mutex::new(5));
        let m2 = std::sync::Arc::clone(&m);
        let g = m.lock();
        let h = std::thread::spawn(move || m2.try_lock().is_none());
        assert!(
            h.join().expect("probe thread"),
            "held lock must not try_lock"
        );
        drop(g);
        assert_eq!(*m.try_lock().expect("free lock"), 5);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order witness")]
    fn same_instance_relock_panics() {
        let m = Mutex::new(0u32);
        let _a = m.lock();
        let _b = m.lock();
    }
}
