//! Log₂ bucketing for the fixed-size histograms the stack reports.
//!
//! Components' `introspect()` gauges (Count heat, map fan-in), the
//! latency histograms and the host-phase histograms all bucket their
//! values with [`log2_bucket`], so bin *i* of any of them holds the same
//! `[2^i, 2^(i+1))` range.

/// Bucket `v` into one of `N` log₂-spaced bins: ⌊log₂ max(v, 1)⌋
/// clamped to `N − 1`, so bin 0 holds 0–1, bin *i* holds
/// `[2^i, 2^(i+1))` and the last bin everything above. The Count-heat
/// and map fan-in histograms use 8 bins, latency histograms 28 and
/// host-phase histograms 40.
#[inline]
pub fn log2_bucket<const N: usize>(v: u64) -> usize {
    (v.max(1).ilog2() as usize).min(N - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every bin edge: 0 and 1 in bin 0, `2^k − 1` and `2^k` either
    /// side of edge *k*, all clamped to the last bin.
    fn check_edges<const N: usize>() {
        assert_eq!(log2_bucket::<N>(0), 0);
        assert_eq!(log2_bucket::<N>(1), 0);
        assert_eq!(log2_bucket::<N>(2), 1);
        assert_eq!(log2_bucket::<N>(3), 1);
        for k in 1..64 {
            assert_eq!(
                log2_bucket::<N>((1 << k) - 1),
                (k - 1).min(N - 1),
                "N={N} 2^{k}-1"
            );
            assert_eq!(log2_bucket::<N>(1 << k), k.min(N - 1), "N={N} 2^{k}");
        }
        assert_eq!(log2_bucket::<N>(u64::MAX), N - 1);
    }

    #[test]
    fn log2_buckets_cover_the_expected_ranges() {
        assert_eq!(log2_bucket::<8>(0), 0);
        assert_eq!(log2_bucket::<8>(1), 0);
        assert_eq!(log2_bucket::<8>(2), 1);
        assert_eq!(log2_bucket::<8>(3), 1);
        assert_eq!(log2_bucket::<8>(4), 2);
        assert_eq!(log2_bucket::<8>(7), 2);
        assert_eq!(log2_bucket::<8>(8), 3);
        assert_eq!(log2_bucket::<8>(127), 6);
        assert_eq!(log2_bucket::<8>(128), 7);
        assert_eq!(log2_bucket::<8>(u64::MAX), 7);
        check_edges::<8>();
        check_edges::<28>();
        check_edges::<40>();
    }
}
