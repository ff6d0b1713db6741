//! A store over the whole array stays small when the trace is sparse.
//!
//! The chunk store's block records are indexed by block address, and
//! the address space is the array: up to 3 data disks × 160 GB = 125.8 M
//! blocks plus overflow. A real FIU trace touches a few regions of it.
//! A flat table there would be a multi-gigabyte allocation before the
//! first request; the paged table must cost a directory plus the
//! 4,096-block pages actually written. A byte-counting global allocator
//! holds the store to that.
//!
//! The file holds a single test on purpose — the counter is
//! process-global (see `tests/alloc.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pod_dedup::ChunkStore;
use pod_types::{Fingerprint, Lba, Pba};

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

#[test]
fn sparse_writes_over_the_whole_array_stay_small() {
    const LOGICAL: u64 = 125_000_000;
    const OVERFLOW: u64 = LOGICAL / 2 + 4_096;
    let fp = Fingerprint::from_content_id;

    let before = BYTES.load(Ordering::Relaxed);
    let mut store = ChunkStore::new(LOGICAL, OVERFLOW).expect("the paper array fits");
    for (i, lba) in [0, 40_000_000, 80_000_000].into_iter().enumerate() {
        let pba = store
            .write_unique(Lba::new(lba), fp(i as u64), None)
            .expect("in range");
        assert_eq!(pba, Pba::new(lba), "first write goes home");
    }
    // Share block 0 from far away, then overwrite its owner: the write
    // is redirected to the first overflow block, past the logical space.
    store
        .dedup_to(Lba::new(40_000_001), Pba::new(0))
        .expect("block 0 is live");
    let redirected = store
        .write_unique(Lba::new(0), fp(9), None)
        .expect("overflow has room");
    assert_eq!(redirected, Pba::new(LOGICAL));
    assert_eq!(
        store.content_at(Pba::new(0)),
        Some(fp(0)),
        "old copy intact"
    );
    assert_eq!(store.used_blocks(), 4);
    store.check_invariants().expect("invariants");
    store.verify_journal_recovery().expect("journal");
    let allocated = BYTES.load(Ordering::Relaxed) - before;

    // ~0.4 MB of page directory (one pointer per 4,096 blocks) + ~0.4
    // MB of 96 KiB pages (four touched regions).
    assert!(
        allocated < 8 << 20,
        "a store over {LOGICAL} + {OVERFLOW} blocks holding 4 live blocks \
         allocated {allocated} bytes"
    );
}
