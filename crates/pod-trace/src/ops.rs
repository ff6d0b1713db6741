//! Trace transformation utilities: time scaling and multi-tenant
//! merging.
//!
//! The paper's motivation is *consolidated primary storage in the Cloud*
//! — many VMs sharing one storage node. [`merge_tenants`] composes
//! several traces into one such consolidated stream: each tenant's
//! address space is relocated to a private region and the request
//! streams are interleaved by arrival time, preserving each tenant's
//! internal redundancy (the cross-tenant redundancy of co-located VM
//! images would only *add* dedup opportunity).

use crate::synth::Trace;
use pod_types::{IoRequest, Lba, SimTime};

impl Trace {
    /// Compress (`factor < 1`) or stretch (`factor > 1`) inter-arrival
    /// times — load-intensity scaling for sensitivity studies.
    ///
    /// # Panics
    /// Panics if `factor` is not positive and finite.
    pub fn scale_time(&self, factor: f64) -> Trace {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "time scale factor must be positive"
        );
        let requests = self
            .requests
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.arrival =
                    SimTime::from_micros((r.arrival.as_micros() as f64 * factor).round() as u64);
                r
            })
            .collect();
        Trace {
            name: format!("{}@x{factor}", self.name),
            requests,
            memory_budget_bytes: self.memory_budget_bytes,
        }
    }

    /// Largest LBA one past the end of any request (the trace's address
    /// footprint).
    pub fn address_span_blocks(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.end_lba().raw())
            .max()
            .unwrap_or(0)
    }
}

/// Consolidate several tenants onto one storage node: relocate each
/// tenant's address space to a disjoint region (preserving intra-tenant
/// locality and redundancy) and interleave by arrival time. The merged
/// memory budget is the sum of the tenants' budgets.
///
/// ```
/// use pod_trace::{merge_tenants, TraceProfile};
///
/// let a = TraceProfile::web_vm().scaled(0.002).generate(1);
/// let b = TraceProfile::mail().scaled(0.002).generate(2);
/// let cloud = merge_tenants(&[a.clone(), b.clone()]);
/// assert_eq!(cloud.len(), a.len() + b.len());
/// ```
pub fn merge_tenants(tenants: &[Trace]) -> Trace {
    // Region layout is shared with the serving engine's LBA router:
    // tenant i's blocks land at `relocation_bases(tenants)[i]`.
    let bases = crate::tenants::relocation_bases(tenants);
    let mut merged: Vec<IoRequest> = Vec::new();
    let mut budget = 0u64;
    let mut names: Vec<&str> = Vec::new();
    for (t, base) in tenants.iter().zip(&bases) {
        names.push(&t.name);
        budget += t.memory_budget_bytes;
        for r in &t.requests {
            let mut r = r.clone();
            r.lba = Lba::new(r.lba.raw() + base);
            merged.push(r);
        }
    }
    merged.sort_by_key(|r| r.arrival);
    Trace {
        name: format!("consolidated({})", names.join("+")),
        requests: merged,
        memory_budget_bytes: budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;
    use pod_types::Fingerprint;

    fn small(seed: u64) -> Trace {
        TraceProfile::web_vm().scaled(0.003).generate(seed)
    }

    #[test]
    fn scale_time_compresses() {
        let t = small(3);
        let fast = t.scale_time(0.5);
        assert_eq!(fast.len(), t.len());
        assert_eq!(
            fast.duration().as_micros(),
            (t.duration().as_micros() as f64 * 0.5).round() as u64
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scale_time_rejects_zero() {
        let _ = small(3).scale_time(0.0);
    }

    #[test]
    fn merge_interleaves_and_relocates() {
        let a = small(4);
        let b = small(5);
        let merged = merge_tenants(&[a.clone(), b.clone()]);
        assert_eq!(merged.len(), a.len() + b.len());
        // Arrival order is globally sorted.
        for w in merged.requests.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // Tenant regions are disjoint: b's minimum lba clears a's span.
        let a_span = a.address_span_blocks();
        let b_min_in_merged = merged
            .requests
            .iter()
            .filter(|r| r.lba.raw() >= a_span)
            .map(|r| r.lba.raw())
            .min()
            .expect("tenant b present");
        assert!(b_min_in_merged >= a_span);
        // Budgets add.
        assert_eq!(
            merged.memory_budget_bytes,
            a.memory_budget_bytes + b.memory_budget_bytes
        );
        assert!(merged.name.contains("consolidated"));
    }

    #[test]
    fn merge_preserves_content_fingerprints() {
        let a = small(6);
        let merged = merge_tenants(std::slice::from_ref(&a));
        let fps: Vec<&Fingerprint> = merged
            .requests
            .iter()
            .flat_map(|r| r.chunks.iter())
            .collect();
        let orig: Vec<&Fingerprint> = a.requests.iter().flat_map(|r| r.chunks.iter()).collect();
        assert_eq!(fps.len(), orig.len());
    }

    #[test]
    fn merge_of_empty_list_is_empty() {
        let m = merge_tenants(&[]);
        assert!(m.is_empty());
        assert_eq!(m.memory_budget_bytes, 0);
    }
}
