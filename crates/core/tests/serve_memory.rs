//! Peak heap of a generated serve fleet follows its shards, not its
//! tenants.
//!
//! A counting global allocator tracks the bytes live on the heap and
//! their high-water mark. Serving 16 tenants through
//! `ServeBuilder::tenants_with` on two shards and two workers may peak
//! at most a quarter above serving 4 tenants of the same size: each
//! shard worker generates a tenant's trace just before serving it and
//! drops it after, so no more than two traces and two stacks are ever
//! live. What does grow with the fleet is the reports, about 16 bytes
//! per request. Building the traces up front and passing them to
//! `.tenants(..)` keeps all of them live, and fails the bound.
//!
//! The file holds a single test on purpose — the counters are
//! process-global, and a lone test keeps the measurement window free of
//! harness or sibling-test traffic.

use counting_alloc::{live_bytes, peak_bytes, reset_peak, CountingAlloc};
use pod_core::{Scheme, ServeBuilder, SystemConfig};
use pod_trace::{tenant_trace, TraceProfile};

/// Tracks live heap bytes and their peak.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live heap bytes above the starting level while `tenants` mail
/// tenants are served on two shards and two workers, the report kept.
fn serve_peak(tenants: usize) -> u64 {
    let profile = TraceProfile::mail().scaled(0.005);
    let base = live_bytes();
    reset_peak();
    let report = ServeBuilder::new(Scheme::Pod)
        .config(SystemConfig::test_default())
        .tenants_with(tenants, |i| tenant_trace(&profile, 42, i))
        .shards(2)
        .jobs(2)
        .run()
        .expect("serve");
    assert_eq!(report.tenants.len(), tenants);
    peak_bytes() - base
}

#[test]
fn peak_heap_follows_shards_not_tenants() {
    let four = serve_peak(4);
    let sixteen = serve_peak(16);
    eprintln!("peak live heap: 4 tenants {four} B, 16 tenants {sixteen} B");
    assert!(
        sixteen as f64 <= 1.25 * four as f64,
        "16 tenants peaked at {sixteen} B, more than 1.25 x the {four} B of 4"
    );
}
