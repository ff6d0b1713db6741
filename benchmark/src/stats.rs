//! Order statistics over small timing samples.

/// Linear-interpolated quantile of an ascending-sorted sample,
/// `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// First quartile, median, third quartile.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// The highest of the usual reporting percentiles that a sample of `n`
/// supports: a percentile is reported only when at least ten samples
/// lie beyond it. `None` below 20 samples (not even the median has ten
/// beyond it).
pub fn highest_supported_percentile(n: u64) -> Option<f64> {
    // (percentile, samples beyond it per 10,000) — integer arithmetic,
    // so the rule does not hinge on how 1 - 0.9999 rounds.
    [
        (99.99, 1u64),
        (99.9, 10),
        (99.0, 100),
        (95.0, 500),
        (90.0, 1_000),
        (50.0, 5_000),
    ]
    .into_iter()
    .find(|&(_, beyond)| n.saturating_mul(beyond) >= 10 * 10_000)
    .map(|(p, _)| p)
}

/// `wanted` when a sample of `n` supports it, otherwise the highest
/// percentile it does support (the median for tiny samples).
pub fn supported_percentile(n: u64, wanted: f64) -> f64 {
    match highest_supported_percentile(n) {
        Some(p) if p >= wanted => wanted,
        Some(p) => p,
        None => 50.0,
    }
}

/// `(b - a) / a`, the relative change from `a` to `b`; 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        let (q1, _, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q1, q3), (1.75, 3.25));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // Seven process repetitions support nothing above the median,
        // and strictly not even that.
        assert_eq!(highest_supported_percentile(7), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(99_999), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn unsupported_percentile_falls_back() {
        assert_eq!(supported_percentile(82_036, 99.9), 99.9);
        assert_eq!(supported_percentile(5_000, 99.9), 99.0);
        assert_eq!(supported_percentile(7, 99.9), 50.0);
    }

    #[test]
    fn rel_diff_is_signed_and_zero_safe() {
        assert_eq!(rel_diff(2.0, 2.2), 0.10000000000000009);
        assert!(rel_diff(2.0, 1.8) < 0.0);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
