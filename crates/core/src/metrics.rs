//! Response-time metrics.
//!
//! The paper reports average user response times, separated into read and
//! write components (§IV-A). We additionally keep percentiles, which the
//! extended analyses and benches use.

/// An accumulator of per-request response times (µs).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    samples: Vec<u64>,
    sum: u64,
    max: u64,
}

impl Metrics {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one response time in µs.
    pub fn record(&mut self, us: u64) {
        self.samples.push(us);
        self.sum += us;
        self.max = self.max.max(us);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples in recording order (µs). Exposed so snapshot
    /// tests can fingerprint the full distribution, not just the
    /// derived statistics.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean response time, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.sum as f64 / self.samples.len() as f64
    }

    /// Mean response time, ms.
    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1_000.0
    }

    /// Maximum observed response time, µs.
    pub fn max_us(&self) -> u64 {
        self.max
    }

    /// Percentile (0 < p ≤ 100) via nearest-rank: the rank-th smallest
    /// sample, selected in linear time on a copy (no full sort).
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        debug_assert!((0.0..=100.0).contains(&p));
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let mut copy = self.samples.clone();
        *copy.select_nth_unstable(rank.clamp(1, n) - 1).1
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.samples.extend_from_slice(&other.samples);
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Log2-bucketed latency histogram of the samples.
    pub fn histogram(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        for &s in &self.samples {
            h.record(s);
        }
        h
    }
}

/// A log2-bucketed latency histogram: bucket *i* counts samples in
/// `[2^i, 2^(i+1))` µs, so the full range 1 µs – ~134 s fits in 28
/// buckets. Used for tail-latency reporting beyond the paper's means.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; 28],
}

impl LatencyHistogram {
    /// Rebuild a histogram from previously exported bucket counts (the
    /// inverse of [`buckets`](Self::buckets); used by `pod stats` to
    /// re-render histograms from a JSONL trace).
    pub fn from_buckets(buckets: [u64; 28]) -> Self {
        Self { buckets }
    }

    /// Record one response time in µs.
    pub fn record(&mut self, us: u64) {
        self.buckets[pod_types::log2_bucket::<28>(us)] += 1;
    }

    /// Bucket counts, index i covering `[2^i, 2^(i+1))` µs.
    pub fn buckets(&self) -> &[u64; 28] {
        &self.buckets
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Approximate percentile (0 ≤ p ≤ 100) by nearest rank over the
    /// buckets, reported as the containing bucket's lower bound `2^i`
    /// µs. An empty histogram (all buckets zero) returns 0 — not the
    /// top bucket's bound, which a naive rank walk would fall through
    /// to.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        debug_assert!((0.0..=100.0).contains(&p));
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return 1u64 << i;
            }
        }
        1u64 << (self.buckets.len() - 1)
    }

    /// Render as text rows `lower_bound_ms count bar`, skipping empty
    /// leading/trailing buckets.
    pub fn render(&self, width: usize) -> String {
        let total = self.total();
        if total == 0 {
            return "  (no samples)\n".to_string();
        }
        let first = self.buckets.iter().position(|&c| c > 0).unwrap_or(0);
        let last = self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
        let max = *self.buckets.iter().max().expect("non-empty");
        let mut out = String::new();
        for i in first..=last {
            let lo_ms = (1u64 << i) as f64 / 1_000.0;
            let bar_len = (self.buckets[i] as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "  {:>9.3} ms | {:<width$} {}\n",
                lo_ms,
                "#".repeat(bar_len),
                self.buckets[i],
                width = width
            ));
        }
        out
    }
}

/// Response times bucketed by arrival-time window — the shape of the
/// latency curve over the replayed day (bursts show as spikes).
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Window length in µs.
    pub window_us: u64,
    /// `(window start µs, mean response µs, samples)` per non-empty
    /// window, in time order.
    pub points: Vec<(u64, f64, usize)>,
}

impl Timeline {
    /// Build from `(arrival µs, response µs)` pairs (any order) with
    /// `windows` equal-width windows across the observed span.
    pub fn build(samples: &[(u64, u64)], windows: usize) -> Timeline {
        if samples.is_empty() || windows == 0 {
            return Timeline::default();
        }
        let last = samples.iter().map(|&(a, _)| a).max().expect("non-empty");
        let window_us = (last / windows as u64).max(1);
        let mut sums: Vec<(u64, usize)> = vec![(0, 0); windows + 1];
        for &(arrival, response) in samples {
            let w = (arrival / window_us).min(windows as u64) as usize;
            sums[w].0 += response;
            sums[w].1 += 1;
        }
        let points = sums
            .into_iter()
            .enumerate()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(i, (sum, n))| (i as u64 * window_us, sum as f64 / n as f64, n))
            .collect();
        Timeline { window_us, points }
    }

    /// Peak window mean, µs.
    pub fn peak_us(&self) -> f64 {
        self.points.iter().map(|&(_, m, _)| m).fold(0.0, f64::max)
    }

    /// Compact sparkline of the per-window means.
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let peak = self.peak_us().max(1e-9);
        self.points
            .iter()
            .map(|&(_, m, _)| {
                let lvl = ((m / peak) * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[lvl.min(LEVELS.len() - 1)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_max() {
        let mut m = Metrics::new();
        for v in [10, 20, 30] {
            m.record(v);
        }
        assert_eq!(m.count(), 3);
        assert!((m.mean_us() - 20.0).abs() < 1e-12);
        assert!((m.mean_ms() - 0.02).abs() < 1e-12);
        assert_eq!(m.max_us(), 30);
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::new();
        assert!(m.is_empty());
        assert_eq!(m.mean_us(), 0.0);
        assert_eq!(m.percentile_us(99.0), 0);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut m = Metrics::new();
        for v in 1..=100u64 {
            m.record(v);
        }
        assert_eq!(m.percentile_us(50.0), 50);
        assert_eq!(m.percentile_us(95.0), 95);
        assert_eq!(m.percentile_us(100.0), 100);
        assert_eq!(m.percentile_us(1.0), 1);
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.record(10);
        let mut b = Metrics::new();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_us() - 20.0).abs() < 1e-12);
        assert_eq!(a.max_us(), 30);
    }

    #[test]
    fn histogram_buckets_log2() {
        let mut h = LatencyHistogram::default();
        h.record(0); // clamps to bucket 0
        h.record(1);
        h.record(3);
        h.record(4);
        h.record(1_000_000);
        assert_eq!(h.buckets()[0], 2, "0 and 1 land in [1,2)");
        assert_eq!(h.buckets()[1], 1, "3 lands in [2,4)");
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[19], 1, "1s lands in [2^19, 2^20) us");
        assert_eq!(h.total(), 5);
        let rendered = h.render(20);
        assert!(rendered.contains("ms |"));
    }

    #[test]
    fn histogram_from_metrics() {
        let mut m = Metrics::new();
        m.record(100);
        m.record(200);
        assert_eq!(m.histogram().total(), 2);
    }

    #[test]
    fn empty_histogram_renders_placeholder() {
        assert!(LatencyHistogram::default()
            .render(10)
            .contains("no samples"));
    }

    #[test]
    fn timeline_windows_and_sparkline() {
        // Two bursts: slow early, fast late.
        let mut samples = Vec::new();
        for i in 0..100u64 {
            samples.push((i * 10, 1_000));
        }
        for i in 0..100u64 {
            samples.push((10_000 + i * 10, 100));
        }
        let t = Timeline::build(&samples, 10);
        assert!(!t.points.is_empty());
        assert!((t.peak_us() - 1_000.0).abs() < 1.0);
        let spark = t.sparkline();
        assert_eq!(spark.chars().count(), t.points.len());
        // Early windows are the peak, late windows near the bottom.
        let first = t.points.first().expect("points").1;
        let last = t.points.last().expect("points").1;
        assert!(first > last);
    }

    #[test]
    fn timeline_empty_inputs() {
        assert!(Timeline::build(&[], 10).points.is_empty());
        assert!(Timeline::build(&[(1, 1)], 0).points.is_empty());
    }

    #[test]
    fn single_sample_percentile() {
        let mut m = Metrics::new();
        m.record(42);
        assert_eq!(m.percentile_us(1.0), 42);
        assert_eq!(m.percentile_us(99.0), 42);
    }

    #[test]
    fn all_equal_samples_have_flat_percentiles() {
        let mut m = Metrics::new();
        for _ in 0..1_000 {
            m.record(7);
        }
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(m.percentile_us(p), 7, "p={p}");
        }
    }

    #[test]
    fn percentile_zero_is_the_minimum() {
        let mut m = Metrics::new();
        for v in [30, 10, 20] {
            m.record(v);
        }
        assert_eq!(m.percentile_us(0.0), 10);
    }

    #[test]
    fn histogram_round_trips_through_buckets() {
        let mut h = LatencyHistogram::default();
        for us in [1, 5, 5, 300, 1_000_000] {
            h.record(us);
        }
        let rebuilt = LatencyHistogram::from_buckets(*h.buckets());
        assert_eq!(rebuilt, h);
        assert_eq!(rebuilt.total(), 5);
    }

    #[test]
    fn histogram_percentile_nearest_rank() {
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(100); // bucket 6: [64, 128)
        }
        for _ in 0..10 {
            h.record(10_000); // bucket 13: [8192, 16384)
        }
        assert_eq!(h.percentile_us(50.0), 64);
        assert_eq!(h.percentile_us(90.0), 64);
        assert_eq!(h.percentile_us(95.0), 8_192);
        assert_eq!(h.percentile_us(100.0), 8_192);
        assert_eq!(h.percentile_us(0.0), 64, "p0 is the minimum bucket");
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        // Regression: an all-zero histogram must report 0, not fall
        // through to the top bucket's bound (2^27 µs ≈ 134 s).
        let h = LatencyHistogram::default();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile_us(p), 0, "p={p}");
        }
        assert_eq!(
            LatencyHistogram::from_buckets([0; 28]).percentile_us(99.0),
            0
        );
    }

    #[test]
    fn histogram_clamps_huge_samples_to_last_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.buckets()[27], 1);
    }
}
