//! A counting global allocator for tests that bound what code
//! allocates: [`CountingAlloc`] forwards every call to the system
//! allocator and counts allocations made, bytes live on the heap, and
//! their high-water mark since the last [`reset_peak`]. A test binary
//! installs it with `#[global_allocator]`. The counters see every thread
//! of the process, the test harness's included, so a binary that
//! measures with them holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counted. A reallocation counts as one
/// allocation, and its new size goes live before its old size is
/// released, so the peak sees both for that instant.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns its result, so `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's `layout` contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as `dealloc`, and `new_size` meets the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and reallocations made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes allocated and not yet released.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark at the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
