//! A counting wrapper round the system allocator: the bytes the
//! program holds, and the most it has held since the last reset.
//!
//! Resident-set figures from `/proc` depend on which freed pages the
//! allocator happens to touch again (the same run read 77 to 126 MiB
//! of `VmHWM`, README "Noise"); the bytes asked for do not, so the
//! memory metric is counted here instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The process's global allocator (installed in `main.rs`).
pub struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(by: usize) {
    LIVE.fetch_sub(by, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are only
// read and written through atomics and never influence an allocation.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
    // is `System.alloc`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, valid by that contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, valid by that contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // SAFETY: the caller guarantees `ptr` came from this allocator with
    // `layout`, and this allocator only ever hands out `System` blocks.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are a `System` block's, as above.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    // SAFETY: as `dealloc` for `ptr` and `layout`; `new_size` is the
    // caller's, valid by `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the arguments are passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Forgets the high-water mark: the peak is the live size from here.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Most bytes held at once since the last reset, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_the_largest_live_size() {
        // Other tests allocate concurrently, so only lower bounds hold.
        reset_peak();
        let before = peak_mib();
        let block = vec![1u8; 8 << 20];
        assert!(peak_mib() >= before + 8.0);
        drop(block);
        assert!(peak_mib() >= before + 8.0, "the peak outlives the block");
    }
}
