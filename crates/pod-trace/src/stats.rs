//! Trace analyzers: recompute every workload statistic the paper reports.
//!
//! * [`TraceStats`] — Table II (request count, write ratio, mean size).
//! * [`size_redundancy`] — Fig. 1: per-size-bucket total vs redundant
//!   write-request counts.
//! * [`redundancy_breakdown`] — Fig. 2: write data split into
//!   same-location redundancy, different-location redundancy (capacity
//!   redundancy), and unique; I/O redundancy is the sum of the first two.
//!
//! Redundancy here is *I/O-path* redundancy, judged at the instant each
//! write occurs (§II-A): a chunk is redundant if its content was written
//! before — at the same LBA (a same-content rewrite) or anywhere else.

use crate::synth::Trace;
use pod_types::hash::FnvBuildHasher;
use pod_types::Fingerprint;
use std::collections::{HashMap, HashSet};

/// Table II row, computed from a trace. Burstiness is
/// [`detect_bursts`](crate::bursts::detect_bursts)'s.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Total I/O requests.
    pub n_requests: usize,
    /// Write fraction of requests.
    pub write_ratio: f64,
    /// Mean request size in KiB.
    pub mean_request_kib: f64,
    /// Total blocks written.
    pub write_blocks: u64,
    /// Total blocks read.
    pub read_blocks: u64,
}

impl TraceStats {
    /// Compute the Table II statistics for `trace`.
    pub fn compute(trace: &Trace) -> Self {
        let n = trace.len();
        let mut write_blocks = 0u64;
        let mut read_blocks = 0u64;
        for r in &trace.requests {
            if r.op.is_write() {
                write_blocks += r.nblocks as u64;
            } else {
                read_blocks += r.nblocks as u64;
            }
        }
        Self {
            name: trace.name.clone(),
            n_requests: n,
            write_ratio: trace.write_ratio(),
            mean_request_kib: trace.mean_request_kib(),
            write_blocks,
            read_blocks,
        }
    }
}

/// One bar pair of Fig. 1: write requests of a given size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeBucket {
    /// Request size bucket in KiB (4, 8, 16, 32, 64, 128 = "≥128").
    pub kib: u64,
    /// Total write requests of this size.
    pub total: u64,
    /// Fully redundant write requests of this size (every chunk's
    /// content already written).
    pub redundant: u64,
}

/// Fig. 1: distribution of I/O redundancy among write requests of
/// different sizes. Buckets: ≤4, 8, 16, 32, 64, ≥128 KiB.
pub fn size_redundancy(trace: &Trace) -> Vec<SizeBucket> {
    let bucket_kibs = [4u64, 8, 16, 32, 64, 128];
    let mut totals = [0u64; 6];
    let mut redundants = [0u64; 6];

    let mut content_seen: HashSet<Fingerprint, FnvBuildHasher> = HashSet::default();
    let mut lba_content: HashMap<u64, Fingerprint, FnvBuildHasher> = HashMap::default();

    for r in &trace.requests {
        if !r.op.is_write() {
            continue;
        }
        let kib = r.kib();
        let bi = match kib {
            0..=4 => 0,
            5..=8 => 1,
            9..=16 => 2,
            17..=32 => 3,
            33..=64 => 4,
            _ => 5,
        };
        totals[bi] += 1;
        let all_redundant = r.write_chunks().all(|(lba, fp)| {
            lba_content.get(&lba.raw()) == Some(&fp) || content_seen.contains(&fp)
        });
        if all_redundant {
            redundants[bi] += 1;
        }
        for (lba, fp) in r.write_chunks() {
            content_seen.insert(fp);
            lba_content.insert(lba.raw(), fp);
        }
    }

    bucket_kibs
        .iter()
        .enumerate()
        .map(|(i, &kib)| SizeBucket {
            kib,
            total: totals[i],
            redundant: redundants[i],
        })
        .collect()
}

/// Fig. 2: block-level write-data redundancy decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedundancyBreakdown {
    /// Blocks rewriting the same LBA with identical content
    /// (I/O redundancy only — no capacity savings possible).
    pub same_location_blocks: u64,
    /// Blocks whose content already exists (at a different LBA):
    /// capacity redundancy.
    pub diff_location_blocks: u64,
    /// Blocks with never-before-seen content.
    pub unique_blocks: u64,
}

impl RedundancyBreakdown {
    /// Total write blocks.
    pub fn total(&self) -> u64 {
        self.same_location_blocks + self.diff_location_blocks + self.unique_blocks
    }

    /// I/O redundancy (% of write data): same-location + different-
    /// location redundant.
    pub fn io_redundancy_pct(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.same_location_blocks + self.diff_location_blocks) as f64 * 100.0 / self.total() as f64
    }

    /// Capacity redundancy (% of write data): different-location only.
    pub fn capacity_redundancy_pct(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.diff_location_blocks as f64 * 100.0 / self.total() as f64
    }

    /// The Fig. 2 gap: I/O minus capacity redundancy (percentage
    /// points). The paper measures an average gap of 21.9 %.
    pub fn gap_pct(&self) -> f64 {
        self.io_redundancy_pct() - self.capacity_redundancy_pct()
    }
}

/// Compute the Fig. 2 decomposition for `trace`.
pub fn redundancy_breakdown(trace: &Trace) -> RedundancyBreakdown {
    let mut out = RedundancyBreakdown::default();
    let mut content_seen: HashSet<Fingerprint, FnvBuildHasher> = HashSet::default();
    let mut lba_content: HashMap<u64, Fingerprint, FnvBuildHasher> = HashMap::default();

    for r in &trace.requests {
        if !r.op.is_write() {
            continue;
        }
        for (lba, fp) in r.write_chunks() {
            if lba_content.get(&lba.raw()) == Some(&fp) {
                out.same_location_blocks += 1;
            } else if content_seen.contains(&fp) {
                out.diff_location_blocks += 1;
            } else {
                out.unique_blocks += 1;
            }
            content_seen.insert(fp);
            lba_content.insert(lba.raw(), fp);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;
    use pod_types::{IoRequest, Lba, SimTime};

    fn fp(id: u64) -> Fingerprint {
        Fingerprint::from_content_id(id)
    }

    fn write(id: u64, lba: u64, contents: &[u64]) -> IoRequest {
        IoRequest::write(
            SimTime::from_micros(id * 10),
            Lba::new(lba),
            contents.iter().copied().map(fp).collect(),
        )
    }

    fn trace_of(requests: Vec<IoRequest>) -> Trace {
        Trace {
            name: "test".into(),
            requests,
            memory_budget_bytes: 1 << 20,
        }
    }

    #[test]
    fn breakdown_classifies_same_location_rewrite() {
        // Write A at lba0, then rewrite lba0 with A again.
        let t = trace_of(vec![write(0, 0, &[1]), write(1, 0, &[1])]);
        let b = redundancy_breakdown(&t);
        assert_eq!(b.unique_blocks, 1);
        assert_eq!(b.same_location_blocks, 1);
        assert_eq!(b.diff_location_blocks, 0);
        assert_eq!(b.io_redundancy_pct(), 50.0);
        assert_eq!(b.capacity_redundancy_pct(), 0.0);
        assert_eq!(b.gap_pct(), 50.0);
    }

    #[test]
    fn breakdown_classifies_capacity_redundancy() {
        // Write A at lba0, then A at lba10.
        let t = trace_of(vec![write(0, 0, &[1]), write(1, 10, &[1])]);
        let b = redundancy_breakdown(&t);
        assert_eq!(b.same_location_blocks, 0);
        assert_eq!(b.diff_location_blocks, 1);
        assert_eq!(b.capacity_redundancy_pct(), 50.0);
    }

    #[test]
    fn breakdown_overwrite_with_new_content_is_unique() {
        let t = trace_of(vec![write(0, 0, &[1]), write(1, 0, &[2])]);
        let b = redundancy_breakdown(&t);
        assert_eq!(b.unique_blocks, 2);
        assert_eq!(b.io_redundancy_pct(), 0.0);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let t = trace_of(vec![]);
        let b = redundancy_breakdown(&t);
        assert_eq!(b.total(), 0);
        assert_eq!(b.io_redundancy_pct(), 0.0);
        assert_eq!(b.capacity_redundancy_pct(), 0.0);
    }

    #[test]
    fn size_buckets_count_totals() {
        let t = trace_of(vec![
            write(0, 0, &[1]),           // 4K
            write(1, 10, &[2, 3]),       // 8K
            write(2, 20, &[4, 5, 6, 7]), // 16K
            write(3, 0, &[1]),           // 4K, fully redundant (same loc)
        ]);
        let buckets = size_redundancy(&t);
        assert_eq!(buckets[0].kib, 4);
        assert_eq!(buckets[0].total, 2);
        assert_eq!(buckets[0].redundant, 1);
        assert_eq!(buckets[1].total, 1);
        assert_eq!(buckets[2].total, 1);
        assert_eq!(buckets[2].redundant, 0);
    }

    #[test]
    fn partially_redundant_request_is_not_counted_redundant() {
        let t = trace_of(vec![
            write(0, 0, &[1, 2]),
            write(1, 10, &[1, 99]), // chunk 1 redundant, 99 fresh
        ]);
        let buckets = size_redundancy(&t);
        assert_eq!(buckets[1].total, 2);
        assert_eq!(buckets[1].redundant, 0);
    }

    #[test]
    fn reads_do_not_affect_redundancy() {
        let t = trace_of(vec![
            write(0, 0, &[1]),
            IoRequest::read(SimTime::from_micros(10), Lba::new(0), 1),
            write(2, 0, &[1]),
        ]);
        let b = redundancy_breakdown(&t);
        assert_eq!(b.total(), 2);
        assert_eq!(b.same_location_blocks, 1);
    }

    #[test]
    fn table2_stats_on_synthetic_traces() {
        // End-to-end calibration: small versions of the three paper
        // profiles must land near their Table II rows.
        for (p, want_wr, want_kib) in [
            (TraceProfile::web_vm(), 0.698, 14.8),
            (TraceProfile::homes(), 0.805, 13.1),
            (TraceProfile::mail(), 0.785, 40.8),
        ] {
            let t = p.scaled(0.05).generate(3);
            let s = TraceStats::compute(&t);
            assert!(
                (s.write_ratio - want_wr).abs() < 0.06,
                "{}: write ratio {}",
                s.name,
                s.write_ratio
            );
            assert!(
                (s.mean_request_kib - want_kib).abs() / want_kib < 0.25,
                "{}: mean size {}",
                s.name,
                s.mean_request_kib
            );
        }
    }

    #[test]
    fn fig1_shape_small_writes_dominate_and_are_redundant() {
        // On the mail profile, 4-8 KiB buckets must dominate counts and
        // have high redundancy ratio (the Fig. 1 headline).
        let t = TraceProfile::mail().scaled(0.05).generate(11);
        let buckets = size_redundancy(&t);
        let small: u64 = buckets[..2].iter().map(|b| b.total).sum();
        let large: u64 = buckets[2..].iter().map(|b| b.total).sum();
        assert!(small > large, "small writes dominate: {buckets:?}");
        let small_ratio = buckets[0].redundant as f64 / buckets[0].total.max(1) as f64;
        assert!(
            small_ratio > 0.5,
            "small writes highly redundant: {small_ratio:.3}"
        );
    }

    #[test]
    fn fig2_gap_io_exceeds_capacity_redundancy() {
        for p in TraceProfile::paper_traces() {
            let t = p.scaled(0.03).generate(5);
            let b = redundancy_breakdown(&t);
            assert!(
                b.gap_pct() > 3.0,
                "{}: I/O redundancy should exceed capacity redundancy, gap {:.1}",
                t.name,
                b.gap_pct()
            );
        }
    }
}
