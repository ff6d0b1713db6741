//! A cache costs what it holds, not what its capacity says.
//!
//! `LruCache::new` is called with very large capacities on purpose: the
//! ghost caches are each as large as the whole DRAM budget (Fig. 7), the
//! index holds millions of entries at a 256 MiB budget, and every
//! `LfuCache` frequency bucket is an `LruCache::new(usize::MAX)` that
//! is created and dropped as entries change frequency. A table sized
//! from the capacity up front makes each of those a multi-megabyte
//! allocation that the run then faults in page by page; the
//! grow-on-demand table must make all three cheap. A byte-counting
//! global allocator holds them to that.
//!
//! The file holds a single test on purpose — the counter is
//! process-global (see `pod-dedup/tests/sparse.rs`), so the three
//! phases run in sequence inside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pod_cache::{LfuCache, LruCache};
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
    // An unbounded LRU — what every LFU frequency bucket is.
    let (lru, bytes) = bytes_allocated(|| LruCache::<Fingerprint, ()>::new(usize::MAX));
    assert!(lru.is_empty());
    assert!(
        bytes < 1 << 10,
        "LruCache::new(usize::MAX) asked for {bytes} bytes before holding anything"
    );

    // Mixed traffic on a small LFU: frequency buckets come and go on
    // every touch, so a capacity-sized table per bucket shows here as
    // tens of megabytes per bucket created.
    let (lfu, bytes) = bytes_allocated(|| {
        let mut lfu = LfuCache::<u64, u64>::new(1_024);
        for i in 0..20_000u64 {
            // A hot set that climbs the frequencies, over a cold stream
            // that keeps the cache full and evicting.
            let key = if i % 3 == 0 { i } else { i % 257 };
            if lfu.get(&key).is_none() {
                lfu.insert(key, i);
            }
        }
        lfu
    });
    assert_eq!(lfu.len(), 1_024);
    assert!(
        bytes < 16 << 20,
        "20,000 ops on a 1,024-entry LfuCache asked for {bytes} bytes"
    );

    // The iCache at the `readmix-fiu` budget: a 65,536-block ghost read
    // cache and a 4 M-entry ghost index, both empty.
    let (icache, bytes) = bytes_allocated(|| ICache::new(ICacheConfig::adaptive(256 << 20)));
    assert_eq!(icache.index_bytes(), 128 << 20);
    assert!(
        bytes < 64 << 10,
        "an empty 256 MiB ICache asked for {bytes} bytes"
    );
}
