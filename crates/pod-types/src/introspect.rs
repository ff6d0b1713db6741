//! State introspection helpers.
//!
//! Every stateful component of the stack (caches, tables, allocators,
//! the iCache) has an inherent `introspect()` method returning a
//! plain-old-data `State` struct of gauges — lengths, capacities,
//! cumulative counters, fixed-size histograms. The replay runner
//! samples these at epoch boundaries and forwards them through the
//! observer chain, so the paper's internal mechanisms (ghost hits,
//! cost-benefit values, Count heat, map fan-in) become observable
//! without touching hot-path code.
//!
//! The contract mirrors the observer substrate's zero-allocation
//! guarantee: a `State` is `Copy` (no owned buffers) and
//! `introspect()` does not allocate. Fractions are reported in
//! per-mille (`u64`), never `f64`, so snapshots stay `Eq` and
//! byte-comparable in golden tests.

/// Bucket a value into one of 8 log2-spaced bins: 0–1, 2–3, 4–7, …,
/// ≥128. Shared by the Count-heat and map fan-in histograms.
#[inline]
pub fn log2_bucket8(v: u64) -> usize {
    (63 - v.max(1).leading_zeros() as usize).min(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_cover_the_expected_ranges() {
        assert_eq!(log2_bucket8(0), 0);
        assert_eq!(log2_bucket8(1), 0);
        assert_eq!(log2_bucket8(2), 1);
        assert_eq!(log2_bucket8(3), 1);
        assert_eq!(log2_bucket8(4), 2);
        assert_eq!(log2_bucket8(7), 2);
        assert_eq!(log2_bucket8(8), 3);
        assert_eq!(log2_bucket8(127), 6);
        assert_eq!(log2_bucket8(128), 7);
        assert_eq!(log2_bucket8(u64::MAX), 7);
    }
}
