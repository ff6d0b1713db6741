//! Allocation discipline of the trace generator.
//!
//! A counting global allocator wraps the system allocator (the same
//! arrangement as `alloc.rs` beside this file). [`TraceProfile::generate`]
//! may allocate three kinds of thing: the request vector, one
//! exactly-sized chunk vector per write request, and a fixed set-up
//! (the profile copy, the samplers' tables, the run-history ring) that
//! does not grow with the trace. Nothing per read, and nothing else per
//! write: the run history points into the requests already generated
//! instead of keeping copies of their content. When `generate` returns,
//! the bytes still held are exactly the trace's.
//!
//! The file holds a single test on purpose — the counters are
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pod_trace::{Trace, TraceProfile};
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

/// What one `generate` call cost beyond its output.
struct Generated {
    trace: Trace,
    /// Allocations that are neither the request vector nor a write's
    /// chunk vector.
    setup: u64,
}

fn generate(profile: &TraceProfile) -> Generated {
    let (allocations, bytes) = (ALLOCATIONS.load(Ordering::Relaxed), held());
    let trace = profile.generate(42);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let writes = trace.write_count() as u64;
    let blocks: u64 = trace
        .requests
        .iter()
        .filter(|r| r.op.is_write())
        .map(|r| u64::from(r.nblocks))
        .sum();
    // What the trace holds, and nothing else: the request vector, the
    // name and one fingerprint per written block.
    let kept = trace.requests.capacity() * size_of::<IoRequest>()
        + trace.name.capacity()
        + blocks as usize * size_of::<Fingerprint>();
    assert_eq!(held() - bytes, kept as u64, "{}: bytes kept", trace.name);
    for r in &trace.requests {
        assert_eq!(r.chunks.capacity(), r.chunks.len(), "sized exactly");
    }
    Generated {
        setup: allocations - 1 - writes,
        trace,
    }
}

#[test]
fn generate_allocates_the_trace_and_a_fixed_setup() {
    // The larger trace has more writes than the 8,192-run history
    // window, so it wraps and evicts.
    let small = generate(&TraceProfile::mail().scaled(0.01));
    let large = generate(&TraceProfile::mail().scaled(0.05));
    assert!(large.trace.write_count() > 8_192, "window wraps");
    assert!(large.trace.len() > 4 * small.trace.len());
    assert_eq!(
        small.setup,
        large.setup,
        "set-up allocations at {} and {} requests",
        small.trace.len(),
        large.trace.len()
    );
    assert!(small.setup < 16, "{} set-up allocations", small.setup);
}
