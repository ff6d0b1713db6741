//! Peak heap of a replay, per request, at the replay state's packed
//! size.
//!
//! A counting global allocator tracks the bytes live on the heap and
//! their high-water mark. A Native replay of a generated web-vm trace —
//! every write reaches the array, so every request parks a pending job
//! and the chunk store takes every written block at home — may peak at
//! most [`BOUND_BYTES_PER_REQUEST`] above the trace's fingerprints (16
//! bytes per written block, the content itself) per request. That
//! covers the request records (40 bytes each), the response slots (8),
//! the pending jobs (12), the store's 24-byte block records over the
//! pages the trace writes, and the stack's fixed tables: 139.9 bytes a
//! request on this trace. Storing a request's chunks as a `Vec`
//! (48-byte requests, 147.9), a pending job as `(usize, SimTime, JobId)`
//! (24 bytes, 151.9) or the store as three tables (28 bytes a home
//! block, 150.6) each passes the bound.
//!
//! The replay runs at an executor width of 1, so the array is inline
//! and no worker thread's buffers enter the count.
//!
//! The file holds a single test on purpose — the counters are
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pod_core::{Scheme, SystemConfig};
use pod_trace::TraceProfile;

/// Tracks live heap bytes and their peak.
struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Most heap bytes per request a replay may peak at above its trace's
/// fingerprints.
const BOUND_BYTES_PER_REQUEST: u64 = 144;

#[test]
fn replay_peak_heap_per_request_stays_packed() {
    pod_core::pool::set_default_width(1);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let trace = TraceProfile::web_vm().scaled(0.1).generate(42);
    let requests = trace.requests.len() as u64;
    let written_blocks: u64 = trace
        .requests
        .iter()
        .filter(|r| r.op.is_write())
        .map(|r| u64::from(r.nblocks))
        .sum();
    let report = Scheme::Native
        .builder()
        .config(SystemConfig::paper_default())
        .trace(&trace)
        .run()
        .expect("replay");
    assert!(report.overall.count() > 1_000, "a measured window");
    let fingerprints = 16 * written_blocks;
    let peak = PEAK.load(Ordering::Relaxed) - base - fingerprints;
    let per_request = peak as f64 / requests as f64;
    eprintln!(
        "{requests} requests, {written_blocks} written blocks: peak {peak} B above the \
         fingerprints, {per_request:.2} B per request"
    );
    assert!(
        per_request <= BOUND_BYTES_PER_REQUEST as f64,
        "peak {per_request:.2} B per request, more than {BOUND_BYTES_PER_REQUEST}"
    );
}
