//! Allocation discipline of the FIU load path.
//!
//! A counting global allocator wraps the system allocator (the same
//! arrangement as `pod-dedup/tests/alloc.rs`). Loading a trace body
//! through [`trace_from_fiu`] may allocate for its output only: the
//! request vector as it grows, and one exactly-sized chunk vector per
//! *write request*. Streaming it through [`FiuLoader`] in blocks on two
//! threads, as `pod-cli --trace` does, adds a bound per block. Nothing
//! per line: no field vector, no process-name `String`, no
//! `BlockRecord`.
//!
//! The file holds a single test on purpose — the counter is
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use pod_trace::reconstruct::{trace_from_fiu, FiuLoader};
use pod_types::Fingerprint;

/// Counts every allocation and reallocation made through the global
/// allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const LINES: u64 = 20_000;
const BLOCKS_PER_REQUEST: u64 = 8;
const REQUESTS: u64 = LINES / BLOCKS_PER_REQUEST;

/// `LINES` per-block rows forming `REQUESTS` requests of eight
/// contiguous blocks each, all reads or all writes.
fn body(write: bool) -> String {
    let mut s = String::new();
    for line in 0..LINES {
        let ts = 10 * (line / BLOCKS_PER_REQUEST);
        if write {
            let hash = Fingerprint::from_content_id(line % 977).to_hex();
            writeln!(s, "{ts} 42 httpd {line} 1 W 8 0 {hash}").expect("write to String");
        } else {
            writeln!(s, "{ts} 42 httpd {line} 1 R 8 0 *").expect("write to String");
        }
    }
    s
}

/// Allocator calls made while loading `body`, and the request count.
fn load(body: &str) -> (u64, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let trace = trace_from_fiu("alloc", body, 0).expect("well-formed body");
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (during, trace.len() as u64)
}

/// Blocks the streamed load cuts a body into, and the allocations one
/// block may cost whatever its length: two threads' scope, spawn and
/// join, the piece list, and the worker's request vector growing.
const BLOCKS: usize = 8;
const PER_BLOCK: u64 = 32;

/// [`load`] as `pod-cli --trace` streams it: `BLOCKS` blocks of whole
/// lines, each parsed in two pieces.
fn load_streamed(body: &str) -> (u64, u64) {
    let cuts: Vec<usize> = (1..BLOCKS)
        .map(|k| {
            body[..k * body.len() / BLOCKS]
                .rfind('\n')
                .expect("a newline")
                + 1
        })
        .chain([body.len()])
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut loader = FiuLoader::new(2);
    let mut start = 0;
    for end in cuts {
        loader.feed(&body[start..end]).expect("well-formed body");
        start = end;
    }
    let requests = loader.finish();
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
    for r in requests.iter().filter(|r| r.op.is_write()) {
        assert_eq!(r.chunks.capacity(), r.chunks.len(), "sized exactly");
    }
    (during, requests.len() as u64)
}

#[test]
fn fiu_load_allocates_for_its_output_only() {
    let (reads, writes) = (body(false), body(true));

    // Reads carry no chunk vector: only the request vector grows, by
    // doubling, plus the trace name.
    let (allocations, requests) = load(&reads);
    assert_eq!(requests, REQUESTS);
    assert!(
        allocations < 64,
        "{allocations} allocations loading {LINES} read lines"
    );

    // Writes add one chunk vector per request — far fewer allocations
    // than there are lines.
    let (allocations, requests) = load(&writes);
    assert_eq!(requests, REQUESTS);
    assert!(
        allocations < 2 * REQUESTS,
        "{allocations} allocations loading {REQUESTS} write requests ({LINES} lines)"
    );

    // Streamed in blocks on two threads: a bound per block, plus one
    // chunk vector per write request — still nothing per line.
    let (allocations, requests) = load_streamed(&reads);
    assert_eq!(requests, REQUESTS);
    assert!(
        allocations <= BLOCKS as u64 * PER_BLOCK,
        "{allocations} allocations streaming {LINES} read lines in {BLOCKS} blocks"
    );
    let (allocations, requests) = load_streamed(&writes);
    assert_eq!(requests, REQUESTS);
    assert!(
        allocations <= BLOCKS as u64 * PER_BLOCK + REQUESTS,
        "{allocations} allocations streaming {REQUESTS} write requests in {BLOCKS} blocks"
    );
}
