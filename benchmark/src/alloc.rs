//! Counting global allocator: every `alloc`/`alloc_zeroed`/`realloc`
//! bumps a call counter and a requested-bytes counter, keeps the number
//! of live bytes and its high-water mark, then defers to [`System`]. The
//! harness snapshots the counters and restarts the high-water mark
//! around each measured op, so calibration ops and correctness checks
//! are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Relaxed: the counters publish no other data; product code that spawns
// a scoped worker joins it before the harness reads them.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed. Wrapping arithmetic: every
/// subtraction matches an earlier addition.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Highest `LIVE` since the last [`restart_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    grow(bytes);
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        count(new_size);
        // SAFETY: `ptr`/`layout` come from a previous call into this
        // allocator, i.e. from `System`, and are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        AllocCount {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, base: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - base.calls,
            bytes: self.bytes - base.bytes,
        }
    }

    pub fn add(&mut self, other: AllocCount) {
        self.calls += other.calls;
        self.bytes += other.bytes;
    }
}

/// Start a new high-water mark at the bytes live right now.
pub fn restart_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Most bytes live at once since the last [`restart_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
