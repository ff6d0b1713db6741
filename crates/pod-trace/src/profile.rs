//! Per-trace workload profiles.
//!
//! Each profile encodes the published characteristics of one FIU trace
//! (Table II) plus the redundancy structure and burstiness the paper
//! measures from day 15 of the three-week collection (Fig. 1, Fig. 2,
//! §II-A/§II-B). The `stats` module recomputes every one of these numbers
//! from a generated trace; the calibration integration tests assert they
//! land near the targets.

/// How write-request redundancy is structured, as probabilities over the
/// request types that map onto Select-Dedupe's three categories
/// (paper Fig. 5).
#[derive(Clone, Debug, PartialEq)]
pub struct WriteMix {
    /// Entire request duplicates a previously written *sequential* run
    /// (→ category 1: dedup the whole request).
    pub full_redundant: f64,
    /// A contiguous run of ≥ threshold duplicate chunks plus unique rest
    /// (→ category 3: dedup the run).
    pub partial_contiguous: f64,
    /// A few scattered duplicate chunks below the threshold
    /// (→ category 2: do not dedup).
    pub partial_scattered: f64,
    /// All chunks fresh. (Implied: `1 - sum of the others`.)
    pub unique: f64,
}

impl WriteMix {
    /// Validate that probabilities are sane and sum to ~1.
    pub fn validate(&self) -> Result<(), String> {
        let parts = [
            self.full_redundant,
            self.partial_contiguous,
            self.partial_scattered,
            self.unique,
        ];
        if parts.iter().any(|p| !(0.0..=1.0).contains(p)) {
            return Err("write-mix probabilities must be in [0,1]".into());
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("write-mix probabilities sum to {sum}, expected 1"));
        }
        Ok(())
    }
}

/// Two-state (read-burst / write-burst) Markov phase model for I/O
/// burstiness: "read-intensive periods are interleaved with
/// write-intensive periods" (§II-B).
#[derive(Clone, Debug, PartialEq)]
pub struct BurstModel {
    /// Mean number of requests per phase.
    pub mean_phase_len: f64,
    /// P(write) while in a write-intensive phase.
    pub write_phase_write_prob: f64,
    /// P(write) while in a read-intensive phase.
    pub read_phase_write_prob: f64,
    /// Fraction of time spent in write-intensive phases.
    pub write_phase_fraction: f64,
}

impl BurstModel {
    /// Overall expected write ratio implied by the phase mix.
    pub fn implied_write_ratio(&self) -> f64 {
        self.write_phase_fraction * self.write_phase_write_prob
            + (1.0 - self.write_phase_fraction) * self.read_phase_write_prob
    }
}

/// Complete generator configuration for one synthetic trace.
///
/// ```
/// use pod_trace::TraceProfile;
///
/// // A 1%-size mail-server day, deterministic in the seed.
/// let trace = TraceProfile::mail().scaled(0.01).generate(42);
/// assert_eq!(trace.len(), 3_281);
/// assert!(trace.write_ratio() > 0.6);
/// assert_eq!(trace.requests, TraceProfile::mail().scaled(0.01).generate(42).requests);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct TraceProfile {
    /// Trace name ("web-vm", "homes", "mail", ...).
    pub name: String,
    /// Number of I/O requests to generate (Table II: I/Os).
    pub n_requests: usize,
    /// Request size distribution in 4 KiB blocks: `(blocks, weight)`.
    /// Small sizes dominating is the §II-A headline finding.
    pub size_weights: Vec<(u32, f64)>,
    /// Logical address space of the workload, in blocks.
    pub working_set_blocks: u64,
    /// Redundancy structure of writes.
    pub write_mix: WriteMix,
    /// Extra full-redundancy probability applied to 1–2 block writes
    /// (small writes "have the highest redundancy", Fig. 1); taken from
    /// the unique share.
    pub small_write_redundancy_boost: f64,
    /// Of redundant writes, the fraction that re-target the LBA already
    /// holding that content (same-location redundancy: counts toward I/O
    /// redundancy but *not* capacity redundancy — the Fig. 2 gap).
    pub same_location_fraction: f64,
    /// Zipf exponent for choosing which prior run a redundant write
    /// duplicates (popularity skew of hot content).
    pub content_zipf_theta: f64,
    /// Fraction of redundant writes that reference a *uniformly random*
    /// run from the history window instead of a Zipf-recent one —
    /// periodic jobs (mail redelivery, log rotation, backups) re-write
    /// old content. Deep references are what make the hash-index *size*
    /// matter (Fig. 3's write-side sensitivity and iCache's index-growth
    /// benefit).
    pub deep_reference_fraction: f64,
    /// Zipf exponent for read target popularity.
    pub read_zipf_theta: f64,
    /// Mean inter-arrival time *within* a burst phase, µs. Calibrated so
    /// that write bursts transiently stress the 4-disk array (the disk
    /// queue pressure Select-Dedupe relieves, §IV-B) without diverging.
    pub burst_gap_us: f64,
    /// Mean idle gap inserted at each phase transition, µs. Together
    /// with the burst gaps this stretches the trace to roughly the one
    /// day the paper replays (Table II: day 15).
    pub idle_gap_us: f64,
    /// Burstiness model.
    pub burst: BurstModel,
    /// Paper's DRAM budget for this trace, bytes (§IV-A: 100/500/500 MB).
    pub memory_budget_bytes: u64,
}

const MB: u64 = 1024 * 1024;

impl TraceProfile {
    /// The **web-vm** trace: two web servers in a VM. Table II: 154,105
    /// I/Os, 69.8 % writes, mean request 14.8 KB; 100 MB memory budget.
    pub fn web_vm() -> Self {
        Self {
            name: "web-vm".into(),
            n_requests: 154_105,
            size_weights: vec![(1, 0.34), (2, 0.24), (4, 0.22), (8, 0.12), (16, 0.08)],
            working_set_blocks: 512 * 1024, // 2 GiB logical footprint
            write_mix: WriteMix {
                full_redundant: 0.40,
                partial_contiguous: 0.13,
                partial_scattered: 0.15,
                unique: 0.32,
            },
            small_write_redundancy_boost: 0.18,
            same_location_fraction: 0.33,
            content_zipf_theta: 0.95,
            deep_reference_fraction: 0.25,
            read_zipf_theta: 0.70,
            burst_gap_us: 8_000.0,
            idle_gap_us: 120_000_000.0,
            burst: BurstModel {
                mean_phase_len: 220.0,
                write_phase_write_prob: 0.93,
                read_phase_write_prob: 0.28,
                write_phase_fraction: 0.64,
            },
            memory_budget_bytes: 100 * MB,
        }
    }

    /// The **homes** trace: a file server. Table II: 64,819 I/Os, 80.5 %
    /// writes, mean request 13.1 KB; 500 MB budget. Distinctive feature:
    /// a heavy share of *scattered* partial redundancy, which is what
    /// makes Full-Dedupe counterproductive on this trace (§IV-B).
    pub fn homes() -> Self {
        Self {
            name: "homes".into(),
            size_weights: vec![(1, 0.38), (2, 0.26), (4, 0.21), (8, 0.10), (16, 0.05)],
            n_requests: 64_819,
            working_set_blocks: 1024 * 1024, // 4 GiB
            write_mix: WriteMix {
                full_redundant: 0.17,
                partial_contiguous: 0.08,
                partial_scattered: 0.42,
                unique: 0.33,
            },
            small_write_redundancy_boost: 0.22,
            same_location_fraction: 0.38,
            content_zipf_theta: 0.85,
            deep_reference_fraction: 0.25,
            read_zipf_theta: 0.60,
            burst_gap_us: 14_000.0,
            idle_gap_us: 340_000_000.0,
            burst: BurstModel {
                mean_phase_len: 150.0,
                write_phase_write_prob: 0.95,
                read_phase_write_prob: 0.35,
                write_phase_fraction: 0.76,
            },
            memory_budget_bytes: 500 * MB,
        }
    }

    /// The **mail** trace: an email server. Table II: 328,145 I/Os,
    /// 78.5 % writes, mean request 40.8 KB; 500 MB budget. Distinctive
    /// feature: a dominant share of *fully redundant sequential* writes
    /// (mailbox rewrites), which is why Select-Dedupe removes 70.7 % of
    /// its writes and wins biggest here (§IV-B).
    pub fn mail() -> Self {
        Self {
            name: "mail".into(),
            n_requests: 328_145,
            size_weights: vec![
                (1, 0.45),
                (2, 0.12),
                (4, 0.11),
                (8, 0.08),
                (16, 0.08),
                (32, 0.09),
                (64, 0.07),
            ],
            working_set_blocks: 2 * 1024 * 1024, // 8 GiB
            write_mix: WriteMix {
                full_redundant: 0.66,
                partial_contiguous: 0.12,
                partial_scattered: 0.07,
                unique: 0.15,
            },
            small_write_redundancy_boost: 0.10,
            same_location_fraction: 0.26,
            content_zipf_theta: 1.05,
            deep_reference_fraction: 0.30,
            read_zipf_theta: 0.95,
            burst_gap_us: 6_000.0,
            idle_gap_us: 60_000_000.0,
            burst: BurstModel {
                mean_phase_len: 300.0,
                write_phase_write_prob: 0.94,
                read_phase_write_prob: 0.30,
                write_phase_fraction: 0.75,
            },
            memory_budget_bytes: 500 * MB,
        }
    }

    /// All three paper profiles in evaluation order.
    pub fn paper_traces() -> Vec<TraceProfile> {
        vec![Self::web_vm(), Self::homes(), Self::mail()]
    }

    /// Scale the request count (and proportionally the working set and
    /// memory budget) by `factor` — used by tests and examples to run
    /// the same *shape* of workload at a fraction of the size.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.n_requests = ((self.n_requests as f64 * factor).round() as usize).max(100);
        self.working_set_blocks =
            ((self.working_set_blocks as f64 * factor).round() as u64).max(1_024);
        self.memory_budget_bytes =
            ((self.memory_budget_bytes as f64 * factor).round() as u64).max(MB);
        self
    }

    /// Expected request size in KiB implied by `size_weights`.
    pub fn expected_request_kib(&self) -> f64 {
        let total: f64 = self.size_weights.iter().map(|(_, w)| w).sum();
        self.size_weights
            .iter()
            .map(|(b, w)| *b as f64 * 4.0 * w / total)
            .sum()
    }

    /// Expected write ratio implied by the burst model.
    pub fn expected_write_ratio(&self) -> f64 {
        self.burst.implied_write_ratio()
    }

    /// Validate all invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_requests == 0 {
            return Err("n_requests must be positive".into());
        }
        if self.size_weights.is_empty() {
            return Err("size_weights must be non-empty".into());
        }
        if self.size_weights.iter().any(|(b, _)| *b == 0) {
            return Err("request sizes must be at least 1 block".into());
        }
        self.write_mix.validate()?;
        if !(0.0..=1.0).contains(&self.same_location_fraction) {
            return Err("same_location_fraction must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.small_write_redundancy_boost) {
            return Err("small_write_redundancy_boost must be in [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.deep_reference_fraction) {
            return Err("deep_reference_fraction must be in [0,1]".into());
        }
        if self.working_set_blocks < 1_024 {
            return Err("working set unrealistically small".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profiles_validate() {
        for p in TraceProfile::paper_traces() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn table2_request_counts() {
        assert_eq!(TraceProfile::web_vm().n_requests, 154_105);
        assert_eq!(TraceProfile::homes().n_requests, 64_819);
        assert_eq!(TraceProfile::mail().n_requests, 328_145);
    }

    #[test]
    fn table2_write_ratios_are_calibrated() {
        // Burst model must imply the Table II write ratios (±3 %).
        let cases = [
            (TraceProfile::web_vm(), 0.698),
            (TraceProfile::homes(), 0.805),
            (TraceProfile::mail(), 0.785),
        ];
        for (p, want) in cases {
            let got = p.expected_write_ratio();
            assert!(
                (got - want).abs() < 0.03,
                "{}: implied write ratio {got:.3}, want {want}",
                p.name
            );
        }
    }

    #[test]
    fn table2_request_sizes_are_calibrated() {
        // Mean request sizes within ±20 % of Table II.
        let cases = [
            (TraceProfile::web_vm(), 14.8),
            (TraceProfile::homes(), 13.1),
            (TraceProfile::mail(), 40.8),
        ];
        for (p, want) in cases {
            let got = p.expected_request_kib();
            assert!(
                (got - want).abs() / want < 0.20,
                "{}: mean size {got:.1} KiB, want ~{want}",
                p.name
            );
        }
    }

    #[test]
    fn scaled_shrinks_proportionally() {
        let p = TraceProfile::mail().scaled(0.01);
        assert_eq!(p.n_requests, 3_281);
        assert!(p.working_set_blocks < TraceProfile::mail().working_set_blocks);
        p.validate().expect("scaled profile still valid");
    }

    #[test]
    fn scaled_floors_protect_tiny_factors() {
        let p = TraceProfile::homes().scaled(1e-9);
        assert!(p.n_requests >= 100);
        assert!(p.working_set_blocks >= 1_024);
        assert!(p.memory_budget_bytes >= MB);
    }

    #[test]
    fn write_mix_validation_rejects_bad_sums() {
        let mut m = TraceProfile::mail().write_mix;
        m.unique += 0.5;
        assert!(m.validate().is_err());
        let bad = WriteMix {
            full_redundant: -0.1,
            partial_contiguous: 0.4,
            partial_scattered: 0.4,
            unique: 0.3,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn memory_budgets_match_paper() {
        assert_eq!(TraceProfile::web_vm().memory_budget_bytes, 100 * MB);
        assert_eq!(TraceProfile::homes().memory_budget_bytes, 500 * MB);
        assert_eq!(TraceProfile::mail().memory_budget_bytes, 500 * MB);
    }
}
