//! A cache costs what it holds, not what its capacity says.
//!
//! `GhostedLru::new` is called with very large capacities on purpose:
//! the ghost caches are each sized to the whole DRAM budget (Fig. 7),
//! and the index holds millions of entries at a 256 MiB budget. A table
//! sized from the capacity up front makes each of those a
//! multi-megabyte allocation that the run then faults in page by page;
//! the grow-on-demand table must keep them cheap. A counting global
//! allocator holds their peak heap to that.
//!
//! The file holds a single test on purpose — the counter is
//! process-global (see `pod-dedup/tests/sparse.rs`), so the two phases
//! run in sequence inside it.

use counting_alloc::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use pod_cache::GhostedLru;
use pod_icache::{ICache, ICacheConfig};
use pod_types::Fingerprint;

/// Tracks live heap bytes and their peak: the bound is on the most
/// bytes held at once.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak heap bytes above the starting level while `f` runs.
fn bytes_allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = live_bytes();
    reset_peak();
    let out = f();
    (out, peak_bytes() - before)
}

#[test]
fn caches_cost_what_they_hold_not_their_capacity() {
    // Unbounded lists: a plain LRU with no ghost, and a cache and its
    // ghost, both unbounded (the index and the ghost index behind it).
    for ghost in [0, usize::MAX] {
        let (lists, bytes) =
            bytes_allocated(|| GhostedLru::<Fingerprint, u64>::new(usize::MAX, ghost));
        assert!(lists.is_empty() && lists.ghost_len() == 0);
        assert!(
            bytes < 1 << 10,
            "GhostedLru::new(usize::MAX, {ghost}) asked for {bytes} bytes before holding anything"
        );
    }

    // The iCache at the `readmix-fiu` budget: a 32,768-block read cache
    // and its 65,536-block ghost, both empty.
    let (icache, bytes) = bytes_allocated(|| ICache::new(ICacheConfig::adaptive(256 << 20)));
    assert_eq!(icache.index_bytes(), 128 << 20);
    assert!(
        bytes < 64 << 10,
        "an empty 256 MiB ICache asked for {bytes} bytes"
    );
}
