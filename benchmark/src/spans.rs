//! In-memory span and count recording for the traced pass.
//!
//! Spans are taken from the harness's side of each layer boundary
//! (around calls *into* a layer's public functions), kept in memory and
//! written out once at the end. Per-request timings never become spans:
//! they are folded into a fixed-size [`Hist`].

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it
/// (`None` for a root); ids are positions in [`Spans::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span, count and histogram store for one workload's traced pass.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
    pub counts: Vec<(&'static str, f64)>,
    pub hists: Vec<(&'static str, Hist)>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
            hists: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` caused by `parent`; returns
    /// the span id and `f`'s result.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        (self.push(name, parent, start_ns, end_ns), out)
    }

    /// Record a span of `ns` nanoseconds that was timed elsewhere (for
    /// example the sum of a drive's per-call intervals), ending now.
    pub fn record_ns(&mut self, name: &'static str, parent: Option<usize>, ns: u64) -> usize {
        let end_ns = self.now_ns();
        self.push(name, parent, end_ns.saturating_sub(ns), end_ns)
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }

    pub fn hist(&mut self, name: &'static str, hist: Hist) {
        self.hists.push((name, hist));
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e9
    }

    /// Self time of span `id` in seconds: its duration minus the
    /// durations of the spans it caused. Signed, so a parent shorter
    /// than its children (separate executions, noise) shows as a
    /// negative residual instead of being hidden.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        (self.spans[id].duration_ns() as f64 - children as f64) / 1e9
    }

    /// One JSON object per line: spans, then counts, then histograms.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )
            .expect("write to string");
        }
        for (name, value) in &self.counts {
            writeln!(
                out,
                "{{\"count\":\"{name}\",\"workload\":\"{workload}\",\"value\":{value}}}"
            )
            .expect("write to string");
        }
        for (name, h) in &self.hists {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .map(|(lower, n)| format!("[{lower},{n}]"))
                .collect();
            writeln!(
                out,
                "{{\"hist\":\"{name}\",\"workload\":\"{workload}\",\"n\":{},\"sum_ns\":{},\
                 \"buckets\":[{}]}}",
                h.count(),
                h.sum_ns(),
                buckets.join(",")
            )
            .expect("write to string");
        }
        out
    }
}

/// Sub-buckets per power of two: 8 linear steps, so a bucket is at most
/// 12.5 % wide.
const SUB: usize = 8;
const OCTAVES: usize = 64;

/// Fixed-size log₂ histogram of nanosecond samples (64 octaves × 8
/// linear sub-buckets), with an exact count and sum beside it.
#[derive(Clone)]
pub struct Hist {
    buckets: [u64; OCTAVES * SUB],
    count: u64,
    sum_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: [0; OCTAVES * SUB],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl Hist {
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB as u64 {
            // Octaves 0..3 hold the values 0..7 exactly, one per bucket.
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() as usize;
        let sub = ((ns >> (octave - 3)) & (SUB as u64 - 1)) as usize;
        octave * SUB + sub
    }

    /// Smallest value that lands in bucket `idx`.
    fn lower_bound(idx: usize) -> u64 {
        if idx < SUB {
            return idx as u64;
        }
        let (octave, sub) = (idx / SUB, idx % SUB);
        (1u64 << octave) + ((sub as u64) << (octave - 3))
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Lower bound of the bucket holding the `p`-th percentile sample
    /// (`p` in `(0, 100]`); 0 for an empty histogram.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::lower_bound(idx);
            }
        }
        unreachable!("rank never exceeds the sample count")
    }

    fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (Self::lower_bound(idx), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::new();
        s.spans = vec![
            span(0, None, 0, 10_000_000_000),
            span(1, Some(0), 0, 3_000_000_000),
            span(2, Some(0), 3_000_000_000, 7_000_000_000),
            // A grandchild must not be subtracted from the root twice.
            span(3, Some(2), 3_000_000_000, 4_000_000_000),
        ];
        assert_eq!(s.self_secs(0), 3.0);
        assert_eq!(s.self_secs(2), 3.0);
        assert_eq!(s.self_secs(3), 1.0);
    }

    #[test]
    fn self_time_goes_negative_when_children_outlast_the_parent() {
        let mut s = Spans::new();
        s.spans = vec![
            span(0, None, 0, 1_000_000_000),
            span(1, Some(0), 0, 1_500_000_000),
        ];
        assert_eq!(s.self_secs(0), -0.5);
    }

    #[test]
    fn record_nests_by_parent_id() {
        let mut s = Spans::new();
        let (root, _) = s.record("root", None, || ());
        let (child, v) = s.record("child", Some(root), || 7);
        assert_eq!(v, 7);
        assert_eq!(s.spans[child].parent, Some(root));
        assert!(s.spans[child].end_ns >= s.spans[child].start_ns);
        let id = s.record_ns("timed-elsewhere", Some(root), 1_000);
        assert!(s.spans[id].duration_ns() <= 1_000);
    }

    #[test]
    fn histogram_folds_into_log2_buckets_with_linear_substeps() {
        // Values below 8 are exact.
        for v in 0..8 {
            assert_eq!(Hist::lower_bound(Hist::bucket_of(v)), v);
        }
        // 1000 = 0b1111101000: octave 9 (512), sub-bucket 7 (960..1023).
        assert_eq!(Hist::lower_bound(Hist::bucket_of(1_000)), 960);
        assert_eq!(Hist::bucket_of(960), Hist::bucket_of(1_023));
        assert_ne!(Hist::bucket_of(1_023), Hist::bucket_of(1_024));
        // From 8 ns up (buckets below octave 3 stay empty), every
        // bucket's lower bound maps back to that bucket, and no bucket
        // is wider than 12.5 % of its lower bound.
        for idx in 3 * SUB..OCTAVES * SUB - 1 {
            let lo = Hist::lower_bound(idx);
            assert_eq!(Hist::bucket_of(lo), idx);
            let hi = Hist::lower_bound(idx + 1);
            assert!((hi - lo) * 8 <= lo, "bucket {idx}: {lo}..{hi}");
        }
        assert_eq!(Hist::bucket_of(u64::MAX), OCTAVES * SUB - 1);
    }

    #[test]
    fn histogram_percentiles_and_sum() {
        let mut h = Hist::default();
        assert_eq!(h.percentile_ns(50.0), 0);
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        assert_eq!(h.count(), 1_000);
        assert_eq!(h.sum_ns(), 500_500_000);
        let within = |got: u64, want: u64| got <= want && want - got <= want / 8;
        assert!(within(h.percentile_ns(50.0), 500_000));
        assert!(within(h.percentile_ns(99.0), 990_000));
        assert!(within(h.percentile_ns(100.0), 1_000_000));
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_line() {
        let mut s = Spans::new();
        let (root, _) = s.record("cli.process", None, || ());
        s.record("trace.load", Some(root), || ());
        s.count("trace.requests", 42.0);
        let mut h = Hist::default();
        h.record(1_000);
        s.hist("stack.request", h);
        let text = s.to_jsonl("mail-pod");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let v = pod_core::obs::json::parse(line).expect("valid JSON");
            assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("mail-pod"));
        }
        let first = pod_core::obs::json::parse(lines[0]).expect("span");
        assert_eq!(first.get("parent"), Some(&pod_core::obs::json::Json::Null));
        let second = pod_core::obs::json::parse(lines[1]).expect("span");
        assert_eq!(second.get("parent").and_then(|p| p.as_u64()), Some(0));
    }
}
