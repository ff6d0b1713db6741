//! Steady-state allocation discipline of the write hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warmup pass populates the store, the on-disk index and the reusable
//! [`WriteScratch`], repeating the same working set through
//! `process_write_into` must perform **zero** heap allocations. This is
//! the contract the replay loop relies on: every per-request buffer
//! lives in the scratch and every table is pre-sized or already warm.
//!
//! The file holds a single test on purpose — the counter is
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use counting_alloc::{allocations, CountingAlloc};
use pod_dedup::{DedupConfig, DedupEngine, DedupPolicy, WriteScratch};
use pod_types::{Fingerprint, IoRequest, Lba, SimTime};

/// Counts every allocation and reallocation. Deallocations are not
/// counted: freeing is also forbidden on the hot path, but a free
/// without a matching alloc cannot happen, so counting acquisitions
/// covers both directions.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A small repeating working set: four 8-block writes at distinct
/// offsets, content keyed off the block address so replays are
/// self-redundant (every revisit dedupes against the first pass).
fn working_set() -> Vec<IoRequest> {
    (0..4u64)
        .map(|i| {
            let lba = i * 64;
            let chunks = (0..8)
                .map(|b| Fingerprint::from_content_id(1_000 + lba + b))
                .collect();
            IoRequest::write(SimTime::from_micros(i), Lba::new(lba), chunks)
        })
        .collect()
}

fn run_set(engine: &mut DedupEngine, scratch: &mut WriteScratch, set: &[IoRequest]) {
    for req in set {
        engine
            .process_write_into(req, scratch)
            .expect("write path stays in bounds");
    }
}

#[test]
fn steady_state_write_path_is_allocation_free() {
    for policy in [DedupPolicy::SelectDedupe, DedupPolicy::Native] {
        let cfg = DedupConfig {
            logical_blocks: 4 * 1024,
            overflow_blocks: 4 * 1024,
            expected_unique_blocks: 64,
            ..DedupConfig::default()
        };
        let mut engine = DedupEngine::new(policy, cfg);
        let mut scratch = WriteScratch::with_chunk_capacity(8);
        let set = working_set();

        // Warmup: first pass writes unique data and grows every table;
        // a second pass settles LRU order and scratch capacities.
        run_set(&mut engine, &mut scratch, &set);
        run_set(&mut engine, &mut scratch, &set);

        // The counter is process-global, so harness threads can leak the
        // odd allocation into a window. A hot-path allocation repeats in
        // every window; noise does not — so require one clean window out
        // of several rather than exactly one clean run.
        let mut best = u64::MAX;
        for _ in 0..8 {
            let before = allocations();
            for _ in 0..64 {
                run_set(&mut engine, &mut scratch, &set);
            }
            let after = allocations();
            best = best.min(after - before);
            if best == 0 {
                break;
            }
        }

        assert_eq!(
            best, 0,
            "{policy:?}: steady-state process_write_into allocated at least \
             {best} times in every one of 8 windows of 64 replays of a warm \
             working set"
        );
    }
}
