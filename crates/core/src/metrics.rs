//! Response-time metrics.
//!
//! The paper reports average user response times, separated into read and
//! write components (§IV-A). We additionally keep percentiles, which the
//! extended analyses and benches use.

/// An accumulator of per-request response times (µs).
///
/// A replay's `overall` accumulator owns the stack's response array
/// itself, its warm-up prefix drained: one `u64` per measured request,
/// not copied to build the report (see
/// [`crate::runner::ReplayReport::overall`]). A renderer that prints
/// several percentiles reads them all from one copy with
/// [`percentiles`](Self::percentiles).
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

    /// Empty accumulator with room for `n` samples.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// The accumulator of `samples`, which `a` and `b` split between
    /// them: the total and maximum come from the halves, so `samples`
    /// is taken as it is and not walked again.
    pub(crate) fn joined(samples: Vec<u64>, a: &Metrics, b: &Metrics) -> Self {
        debug_assert_eq!(samples.len(), a.count() + b.count());
        Self {
            samples,
            sum: a.sum + b.sum,
            max: a.max.max(b.max),
        }
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
        self.percentiles(&[p])[0]
    }

    /// [`percentile_us`](Self::percentile_us) at each of `ps`, all read
    /// from one copy of the samples: the ranks are selected in
    /// ascending order, each within the part of the copy the previous
    /// selection left above it.
    pub fn percentiles<const N: usize>(&self, ps: &[f64; N]) -> [u64; N] {
        let n = self.samples.len();
        let mut out = [0; N];
        if n == 0 {
            return out;
        }
        let index = |p: f64| {
            debug_assert!((0.0..=100.0).contains(&p));
            (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
        };
        let mut order: [usize; N] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| index(ps[i]));
        let mut copy = self.samples.clone();
        // Every sample below `lo` is at most every sample from `lo` on.
        let mut lo = 0;
        for i in order {
            let k = index(ps[i]);
            out[i] = *copy[lo..].select_nth_unstable(k - lo).1;
            lo = k;
        }
        out
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
    /// Windows across the replayed span.
    pub const WINDOWS: usize = 60;

    /// Peak window mean, µs.
    pub fn peak_us(&self) -> f64 {
        self.points.iter().map(|&(_, m, _)| m).fold(0.0, f64::max)
    }

    /// Compact sparkline of the per-window means.
    pub fn sparkline(&self) -> String {
        sparkline(self.points.iter().map(|&(_, m, _)| m))
    }
}

/// Eight-level sparkline of `values`, scaled to their maximum (an
/// all-zero series draws the bottom level throughout).
pub fn sparkline<I>(values: I) -> String
where
    I: IntoIterator<Item = f64>,
    I::IntoIter: Clone,
{
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let values = values.into_iter();
    let peak = values.clone().fold(0.0, f64::max).max(1e-9);
    values
        .map(|v| {
            let lvl = ((v / peak) * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[lvl.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// A [`Timeline`] filled in one pass over `(arrival, response)`
/// samples in any order. The span's last arrival must be known up
/// front: it sets the window width.
#[derive(Debug)]
pub(crate) struct TimelineFold {
    window_us: u64,
    /// `(response sum, samples)` per window, plus one past the equal
    /// windows for the arrivals from `WINDOWS × window_us` to the
    /// span's end (the width is rounded down).
    sums: Vec<(u64, usize)>,
}

impl TimelineFold {
    /// [`Timeline::WINDOWS`] equal windows across `0..=last_arrival_us`,
    /// each at least 1 µs wide.
    pub(crate) fn new(last_arrival_us: u64) -> Self {
        Self {
            window_us: (last_arrival_us / Timeline::WINDOWS as u64).max(1),
            sums: vec![(0, 0); Timeline::WINDOWS + 1],
        }
    }

    /// Add one sample; an arrival past the span joins the last window.
    #[inline]
    pub(crate) fn record(&mut self, arrival_us: u64, response_us: u64) {
        let w = (arrival_us / self.window_us).min(Timeline::WINDOWS as u64) as usize;
        let (sum, n) = &mut self.sums[w];
        *sum += response_us;
        *n += 1;
    }

    /// The non-empty windows in time order; with no sample at all, the
    /// empty default timeline.
    pub(crate) fn finish(self) -> Timeline {
        if self.sums.iter().all(|&(_, n)| n == 0) {
            return Timeline::default();
        }
        let window_us = self.window_us;
        let points = self
            .sums
            .into_iter()
            .enumerate()
            .filter(|(_, (_, n))| *n > 0)
            .map(|(i, (sum, n))| (i as u64 * window_us, sum as f64 / n as f64, n))
            .collect();
        Timeline { window_us, points }
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

    fn fold(samples: impl IntoIterator<Item = (u64, u64)> + Clone) -> Timeline {
        let last = samples.clone().into_iter().map(|(a, _)| a).max();
        let mut fold = TimelineFold::new(last.unwrap_or(0));
        for (arrival, response) in samples {
            fold.record(arrival, response);
        }
        fold.finish()
    }

    #[test]
    fn timeline_windows_and_sparkline() {
        // Two bursts: slow early, fast late.
        let early = (0..100u64).map(|i| (i * 10, 1_000));
        let late = (0..100u64).map(|i| (10_000 + i * 10, 100));
        let t = fold(early.chain(late));
        assert_eq!(t.window_us, 10_990 / 60);
        assert!(!t.points.is_empty());
        assert!((t.peak_us() - 1_000.0).abs() < 1.0);
        let spark = t.sparkline();
        assert_eq!(spark.chars().count(), t.points.len());
        // Early windows are the peak, late windows near the bottom.
        let first = t.points.first().expect("points").1;
        let last = t.points.last().expect("points").1;
        assert!(first > last);
        let samples: usize = t.points.iter().map(|&(_, _, n)| n).sum();
        assert_eq!(samples, 200);
    }

    #[test]
    fn timeline_empty_inputs() {
        let empty = fold([]);
        assert!(empty.points.is_empty());
        assert_eq!(empty.window_us, 0, "the default timeline");
        // One sample at time 0: a 1 µs window, one point.
        let one = fold([(0, 7)]);
        assert_eq!((one.window_us, one.points.clone()), (1, vec![(0, 7.0, 1)]));
    }

    #[test]
    fn timeline_last_arrival_closes_its_own_window() {
        // The span's end lands in window 60, past the 60 equal ones.
        let t = fold([(0, 10), (599, 20), (600, 30)]);
        assert_eq!(t.window_us, 10);
        assert_eq!(t.points, [(0, 10.0, 1), (590, 20.0, 1), (600, 30.0, 1)]);
    }

    #[test]
    fn percentiles_match_percentile_us_at_every_p() {
        let mut m = Metrics::new();
        let ps: [f64; 21] = std::array::from_fn(|i| i as f64 * 5.0);
        assert_eq!(m.percentiles(&ps), [0; 21], "empty");
        m.record(42);
        assert_eq!(m.percentiles(&ps), [42; 21], "single sample");
        let mut x = 7u64;
        for _ in 0..1_000 {
            x = pod_types::rng::splitmix64(x);
            m.record(x % 5_000);
        }
        let mut every: Vec<f64> = (0..=1_000).map(|i| i as f64 / 10.0).collect();
        // Unordered and repeated ps are each answered in place.
        every.extend([99.0, 50.0, 0.0, 100.0, 99.9, 0.1]);
        for w in every.windows(3) {
            let want = [w[0], w[1], w[2]].map(|p| m.percentile_us(p));
            assert_eq!(m.percentiles(&[w[0], w[1], w[2]]), want, "{w:?}");
        }
        // The selected ranks are the sorted samples' nearest ranks.
        let mut sorted = m.samples().to_vec();
        sorted.sort_unstable();
        let n = sorted.len() as f64;
        for p in every {
            let rank = ((p / 100.0 * n).ceil() as usize).clamp(1, sorted.len());
            assert_eq!(m.percentile_us(p), sorted[rank - 1], "p={p}");
        }
    }

    #[test]
    fn joined_takes_its_totals_from_the_halves() {
        let (mut a, mut b) = (Metrics::new(), Metrics::new());
        for v in [5, 1] {
            a.record(v);
        }
        b.record(9);
        let j = Metrics::joined(vec![5, 9, 1], &a, &b);
        assert_eq!((j.count(), j.max_us(), j.samples()), (3, 9, &[5, 9, 1][..]));
        assert!((j.mean_us() - 5.0).abs() < 1e-12);
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
