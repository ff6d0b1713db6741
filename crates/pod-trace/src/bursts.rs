//! Burst detection: recover the read/write phase structure of a trace.
//!
//! §II-B's motivating observation is that primary-storage I/O arrives in
//! interleaved read-intensive and write-intensive bursts. This module
//! detects those phases from *any* trace (synthetic or real FIU input)
//! by splitting the request stream at large idle gaps and classifying
//! each burst by its write fraction — the analysis side of the
//! generator's phase model, and the signal iCache's epochs chase.

use crate::synth::Trace;
use pod_types::SimDuration;

/// Classification of one detected burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// ≥ 75 % writes.
    WriteBurst,
    /// ≤ 50 % writes.
    ReadBurst,
    /// In between.
    Mixed,
}

/// One detected burst of consecutive requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstPhase {
    /// Index of the first request of the burst.
    pub start_idx: usize,
    /// Requests in the burst.
    pub len: usize,
    /// Fraction of the burst's requests that are writes.
    pub write_fraction: f64,
    /// Wall-clock span of the burst.
    pub duration: SimDuration,
    /// Classification.
    pub kind: PhaseKind,
}

/// Summary over all detected bursts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BurstReport {
    /// All bursts in time order.
    pub phases: Vec<BurstPhase>,
    /// Idle-gap threshold used to split bursts, µs.
    pub gap_threshold_us: u64,
}

impl BurstReport {
    /// Number of write-intensive bursts.
    pub fn write_bursts(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.kind == PhaseKind::WriteBurst)
            .count()
    }

    /// Number of read-intensive bursts.
    pub fn read_bursts(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.kind == PhaseKind::ReadBurst)
            .count()
    }

    /// Mean burst length in requests.
    pub fn mean_phase_len(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases.iter().map(|p| p.len as f64).sum::<f64>() / self.phases.len() as f64
    }

    /// Fraction of phase transitions that alternate between write- and
    /// read-intensive (1.0 = strictly interleaved, the §II-B picture).
    pub fn interleaving(&self) -> f64 {
        let strong: Vec<PhaseKind> = self
            .phases
            .iter()
            .map(|p| p.kind)
            .filter(|k| *k != PhaseKind::Mixed)
            .collect();
        if strong.len() < 2 {
            return 0.0;
        }
        let alternations = strong.windows(2).filter(|w| w[0] != w[1]).count();
        alternations as f64 / (strong.len() - 1) as f64
    }
}

/// Detect bursts by idle-gap segmentation.
///
/// The threshold is `gap_multiplier ×` the median inter-arrival gap
/// (a robust scale estimate: bursts have dense arrivals, idle periods
/// are orders of magnitude longer). Bursts shorter than `min_len`
/// requests are merged forward. An arrival earlier than the one before
/// it (an unsorted FIU file) counts as a zero gap.
pub fn detect_bursts(trace: &Trace, gap_multiplier: u64, min_len: usize) -> BurstReport {
    let n = trace.len();
    if n < 2 {
        return BurstReport::default();
    }
    let mut gaps: Vec<u64> = trace
        .requests
        .windows(2)
        .map(|w| w[1].arrival.since(w[0].arrival).as_micros())
        .collect();
    gaps.sort_unstable();
    let median = gaps[gaps.len() / 2].max(1);
    let threshold = median.saturating_mul(gap_multiplier);

    // Split points where the gap exceeds the threshold.
    let mut boundaries: Vec<usize> = vec![0];
    for (i, w) in trace.requests.windows(2).enumerate() {
        if w[1].arrival.since(w[0].arrival).as_micros() > threshold {
            boundaries.push(i + 1);
        }
    }
    boundaries.push(n);

    let mut phases: Vec<BurstPhase> = Vec::new();
    let mut start = boundaries[0];
    for &end in &boundaries[1..] {
        if end - start < min_len && end != n {
            // Too short: extend into the next segment.
            continue;
        }
        if end > start {
            phases.push(classify(trace, start, end));
        }
        start = end;
    }
    if start < n {
        phases.push(classify(trace, start, n));
    }
    BurstReport {
        phases,
        gap_threshold_us: threshold,
    }
}

fn classify(trace: &Trace, start: usize, end: usize) -> BurstPhase {
    let slice = &trace.requests[start..end];
    let writes = slice.iter().filter(|r| r.op.is_write()).count();
    let wf = writes as f64 / slice.len() as f64;
    let kind = if wf >= 0.75 {
        PhaseKind::WriteBurst
    } else if wf <= 0.5 {
        PhaseKind::ReadBurst
    } else {
        PhaseKind::Mixed
    };
    let duration = slice
        .last()
        .expect("non-empty slice")
        .arrival
        .since(slice[0].arrival);
    BurstPhase {
        start_idx: start,
        len: slice.len(),
        write_fraction: wf,
        duration,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;
    use pod_types::{Fingerprint, IoRequest, Lba, SimTime};

    fn req(id: u64, at_us: u64, write: bool) -> IoRequest {
        if write {
            IoRequest::write(
                SimTime::from_micros(at_us),
                Lba::new(id % 64),
                vec![Fingerprint::from_content_id(id)],
            )
        } else {
            IoRequest::read(SimTime::from_micros(at_us), Lba::new(id % 64), 1)
        }
    }

    fn hand_trace() -> Trace {
        // Write burst (20 reqs, 1ms apart), 10s idle, read burst (20 reqs).
        let mut requests = Vec::new();
        for i in 0..20u64 {
            requests.push(req(i, i * 1_000, true));
        }
        for i in 0..20u64 {
            requests.push(req(20 + i, 10_000_000 + i * 1_000, false));
        }
        Trace {
            name: "hand".into(),
            requests,
            memory_budget_bytes: 1 << 20,
        }
    }

    #[test]
    fn detects_two_phases() {
        let report = detect_bursts(&hand_trace(), 50, 4);
        assert_eq!(report.phases.len(), 2, "{report:?}");
        assert_eq!(report.phases[0].kind, PhaseKind::WriteBurst);
        assert_eq!(report.phases[1].kind, PhaseKind::ReadBurst);
        assert_eq!(report.phases[0].len, 20);
        assert_eq!(report.write_bursts(), 1);
        assert_eq!(report.read_bursts(), 1);
        assert!((report.interleaving() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn phase_metrics() {
        let report = detect_bursts(&hand_trace(), 50, 4);
        assert!((report.mean_phase_len() - 20.0).abs() < 1e-9);
        assert_eq!(report.phases[0].duration.as_micros(), 19_000);
        assert!((report.phases[0].write_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tiny_traces_are_safe() {
        let empty = Trace {
            name: "e".into(),
            requests: vec![],
            memory_budget_bytes: 0,
        };
        assert!(detect_bursts(&empty, 50, 4).phases.is_empty());
        let one = Trace {
            name: "o".into(),
            requests: vec![req(0, 0, true)],
            memory_budget_bytes: 0,
        };
        assert!(detect_bursts(&one, 50, 4).phases.is_empty());
    }

    #[test]
    fn synthetic_traces_show_interleaved_bursts() {
        // The generator's phase model must be recoverable by the
        // analyzer: plenty of both burst kinds, strongly interleaved.
        for p in TraceProfile::paper_traces() {
            let t = p.scaled(0.02).generate(42);
            let report = detect_bursts(&t, 50, 8);
            assert!(
                report.write_bursts() >= 3,
                "{}: write bursts {}",
                t.name,
                report.write_bursts()
            );
            assert!(
                report.read_bursts() >= 2,
                "{}: read bursts {}",
                t.name,
                report.read_bursts()
            );
            assert!(
                report.interleaving() > 0.4,
                "{}: interleaving {:.2}",
                t.name,
                report.interleaving()
            );
        }
    }

    #[test]
    fn min_len_merges_fragments() {
        // With a huge min_len everything merges into one phase.
        let report = detect_bursts(&hand_trace(), 50, 1_000);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].len, 40);
    }
}
