//! Allocation discipline of the trace generator.
//!
//! A counting global allocator (`counting_alloc`) wraps the system
//! allocator. [`TraceProfile::generate`] may allocate three kinds of
//! thing: the request vector, one chunk slice per write request, and a
//! fixed set-up (the profile copy, the samplers' tables, the run-history
//! ring) that does not grow with the trace. Nothing per read, and nothing else per
//! write: the run history points into the requests already generated
//! instead of keeping copies of their content. When `generate` returns,
//! the bytes still held are exactly the trace's — so every chunk slice
//! holds one fingerprint per block and no spare capacity.
//!
//! The file holds a single test on purpose — the counters are
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use counting_alloc::{allocations, live_bytes, CountingAlloc};
use pod_trace::{Trace, TraceProfile};
use pod_types::{Fingerprint, IoRequest};

/// Counts every allocation and reallocation, and the bytes they hold.
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
    let (before, bytes) = (allocations(), live_bytes());
    let trace = profile.generate(42);
    let allocations = allocations() - before;
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
    assert_eq!(
        live_bytes() - bytes,
        kept as u64,
        "{}: bytes kept",
        trace.name
    );
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
