//! Allocation discipline of the FIU load path.
//!
//! A counting global allocator wraps the system allocator (the same
//! arrangement as `pod-dedup/tests/alloc.rs`). Loading a trace body
//! through [`trace_from_fiu`] may allocate for its output only: the
//! request vector as it grows, and one chunk slice per *write
//! request*. Streaming it through [`FiuLoader`] in blocks on two
//! threads, as `pod-cli --trace` does, adds a bound per block. Nothing
//! per line: no field vector, no process-name `String`, no
//! `BlockRecord`. The allocator also sums the bytes requested and given
//! back, which pins the footprint of what the load keeps: its chunk
//! slices hold exactly one 16-byte fingerprint per written block, so no
//! slice was built from a vector with spare capacity left in it.
//!
//! The file holds a single test on purpose — the counters are
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use pod_trace::reconstruct::{trace_from_fiu, FiuLoader};
use pod_types::{Fingerprint, IoRequest};

/// Counts every allocation and reallocation made through the global
/// allocator, and the bytes they request and release.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static REQUESTED: AtomicU64 = AtomicU64::new(0);
static RELEASED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        RELEASED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        RELEASED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested and not yet released.
fn held() -> u64 {
    REQUESTED.load(Ordering::Relaxed) - RELEASED.load(Ordering::Relaxed)
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

/// What one load cost: allocator calls, requests made, and the bytes it
/// still holds beyond the request vector itself — its chunk vectors.
struct Load {
    allocations: u64,
    requests: u64,
    chunk_bytes: u64,
}

impl Load {
    /// The counters now, against `before` (theirs when the load began),
    /// for a load whose `requests` are still alive and that keeps
    /// `other` bytes besides them (the trace name).
    fn since(before: (u64, u64), requests: &Vec<IoRequest>, other: usize) -> Self {
        let kept = (requests.capacity() * size_of::<IoRequest>() + other) as u64;
        Self {
            allocations: ALLOCATIONS.load(Ordering::Relaxed) - before.0,
            requests: requests.len() as u64,
            chunk_bytes: held() - before.1 - kept,
        }
    }
}

/// The counters [`Load::since`] measures from.
fn counters() -> (u64, u64) {
    (ALLOCATIONS.load(Ordering::Relaxed), held())
}

/// [`Load`] of `body` through [`trace_from_fiu`].
fn load(body: &str) -> Load {
    let before = counters();
    let trace = trace_from_fiu("alloc", body, 0).expect("well-formed body");
    Load::since(before, &trace.requests, trace.name.capacity())
}

/// Blocks the streamed load cuts a body into, and the allocations one
/// block may cost whatever its length: two threads' scope, spawn and
/// join, the piece list, and the worker's request vector growing.
const BLOCKS: usize = 8;
const PER_BLOCK: u64 = 32;

/// [`load`] as `pod-cli --trace` streams it: `BLOCKS` blocks of whole
/// lines, each parsed in two pieces.
fn load_streamed(body: &str) -> Load {
    let cuts: Vec<usize> = (1..BLOCKS)
        .map(|k| {
            body[..k * body.len() / BLOCKS]
                .rfind('\n')
                .expect("a newline")
                + 1
        })
        .chain([body.len()])
        .collect();
    let before = counters();
    let mut loader = FiuLoader::new(2);
    let mut start = 0;
    for &end in &cuts {
        loader.feed(&body[start..end]).expect("well-formed body");
        start = end;
    }
    let requests = loader.finish();
    Load::since(before, &requests, 0)
}

#[test]
fn fiu_load_allocates_for_its_output_only() {
    let (reads, writes) = (body(false), body(true));

    // Reads carry no chunk vector: only the request vector grows, by
    // doubling, plus the trace name.
    let Load {
        allocations,
        requests,
        chunk_bytes,
    } = load(&reads);
    assert_eq!(requests, REQUESTS);
    assert_eq!(chunk_bytes, 0);
    assert!(
        allocations < 64,
        "{allocations} allocations loading {LINES} read lines"
    );

    // Writes add one chunk vector per request — far fewer allocations
    // than there are lines — holding one 16-byte fingerprint per block.
    let Load {
        allocations,
        requests,
        chunk_bytes,
    } = load(&writes);
    assert_eq!(requests, REQUESTS);
    assert!(
        allocations < 2 * REQUESTS,
        "{allocations} allocations loading {REQUESTS} write requests ({LINES} lines)"
    );
    assert_eq!(
        chunk_bytes,
        16 * LINES,
        "chunk bytes for {LINES} written blocks"
    );

    // Streamed in blocks on two threads: a bound per block, plus one
    // chunk vector per write request — still nothing per line, and the
    // same bytes kept.
    let Load {
        allocations,
        requests,
        chunk_bytes,
    } = load_streamed(&reads);
    assert_eq!(requests, REQUESTS);
    assert_eq!(chunk_bytes, 0);
    assert!(
        allocations <= BLOCKS as u64 * PER_BLOCK,
        "{allocations} allocations streaming {LINES} read lines in {BLOCKS} blocks"
    );
    let Load {
        allocations,
        requests,
        chunk_bytes,
    } = load_streamed(&writes);
    assert_eq!(requests, REQUESTS);
    assert!(
        allocations <= BLOCKS as u64 * PER_BLOCK + REQUESTS,
        "{allocations} allocations streaming {REQUESTS} write requests in {BLOCKS} blocks"
    );
    assert_eq!(
        chunk_bytes,
        16 * LINES,
        "chunk bytes for {LINES} written blocks"
    );
}
