//! A cache costs what it holds, not what its capacity says.
//!
//! `GhostedLru::new` and `LruCache::new` are called with very large
//! capacities on purpose: the ghost caches are each sized to the whole
//! DRAM budget (Fig. 7), and the index holds millions of entries at a
//! 256 MiB budget. A table
//! sized from the capacity up front makes each of those a
//! multi-megabyte allocation that the run then faults in page by page;
//! the grow-on-demand table must keep them cheap. A byte-counting
//! global allocator holds them to that.
//!
//! The file holds a single test on purpose — the counter is
//! process-global (see `pod-dedup/tests/sparse.rs`), so the two phases
//! run in sequence inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pod_cache::{GhostedLru, LruCache};
use pod_icache::{ICache, ICacheConfig};
use pod_types::Fingerprint;

/// Sums the bytes requested from the global allocator (frees are not
/// subtracted: the bound is on everything ever asked for).
struct ByteCountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

/// Bytes requested while `f` runs.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

#[test]
fn caches_cost_what_they_hold_not_their_capacity() {
    // An unbounded LRU: the limit of a ghost sized to the whole budget.
    let (lru, bytes) = bytes_allocated(|| LruCache::<Fingerprint, ()>::new(usize::MAX));
    assert!(lru.is_empty());
    assert!(
        bytes < 1 << 10,
        "LruCache::new(usize::MAX) asked for {bytes} bytes before holding anything"
    );

    // A cache and its ghost in one list, both unbounded: the index and
    // the ghost index behind it.
    let (lists, bytes) =
        bytes_allocated(|| GhostedLru::<Fingerprint, u64>::new(usize::MAX, usize::MAX));
    assert!(lists.is_empty() && lists.ghost_len() == 0);
    assert!(
        bytes < 1 << 10,
        "GhostedLru::new(usize::MAX, usize::MAX) asked for {bytes} bytes before holding anything"
    );

    // The iCache at the `readmix-fiu` budget: a 32,768-block read cache
    // and its 65,536-block ghost, both empty.
    let (icache, bytes) = bytes_allocated(|| ICache::new(ICacheConfig::adaptive(256 << 20)));
    assert_eq!(icache.index_bytes(), 128 << 20);
    assert!(
        bytes < 64 << 10,
        "an empty 256 MiB ICache asked for {bytes} bytes"
    );
}
