//! A store over the whole array stays small when the trace is sparse.
//!
//! The chunk store's block records are indexed by block address, and
//! the address space is the array: up to 3 data disks × 160 GB = 125.8 M
//! blocks plus overflow. A real FIU trace touches a few regions of it.
//! A flat table there would be a multi-gigabyte allocation before the
//! first request; the paged table must cost a directory plus the
//! 4,096-block pages actually written. A counting global allocator holds
//! the store's peak heap to that.
//!
//! The file holds a single test on purpose — the counter is
//! process-global (see `tests/alloc.rs`).

use counting_alloc::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use pod_dedup::ChunkStore;
use pod_types::{Fingerprint, Lba, Pba};

/// Tracks live heap bytes and their peak: the bound is on the most
/// bytes held at once.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn sparse_writes_over_the_whole_array_stay_small() {
    const LOGICAL: u64 = 125_000_000;
    const OVERFLOW: u64 = LOGICAL / 2 + 4_096;
    let fp = Fingerprint::from_content_id;

    let before = live_bytes();
    reset_peak();
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
    let allocated = peak_bytes() - before;

    // ~0.4 MB of page directory (one pointer per 4,096 blocks) + ~0.4
    // MB of 96 KiB pages (four touched regions).
    assert!(
        allocated < 8 << 20,
        "a store over {LOGICAL} + {OVERFLOW} blocks holding 4 live blocks \
         peaked at {allocated} bytes"
    );
}
