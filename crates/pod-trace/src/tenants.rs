//! Multi-tenant stream substrate for the sharded serving engine.
//!
//! [`merge_tenants`](crate::merge_tenants) consolidates tenants into
//! *one* trace and loses tenant identity in the process. The serving
//! engine (`pod_core::serve`) needs the opposite: K per-tenant streams
//! kept separate, interleaved **by timestamp at replay time** so the
//! engine sees the consolidated arrival order while every request still
//! knows which tenant issued it. This module provides:
//!
//! * [`tenant_trace`] — one seeded per-tenant trace of a profile
//!   (tenant 0 reproduces the single-tenant trace bit for bit, so a
//!   1-tenant serve run is comparable to a plain replay), and
//!   [`derive_tenants`], the first K of them in order;
//! * [`MergedStream`] — a deterministic k-way merge over tenant
//!   request streams, yielding `(tenant, index-within-tenant, request)`
//!   in global arrival order with a fixed `(arrival, tenant)`
//!   tie-break.
//!
//! It also holds `relocation_bases`, the 1 MiB-aligned region layout
//! [`merge_tenants`](crate::merge_tenants) relocates each tenant into;
//! that is its only caller, so it is crate-private.

use crate::profile::TraceProfile;
use crate::synth::Trace;
use pod_types::IoRequest;

/// Tenant `tenant`'s trace derived from one (already scaled) profile:
/// the profile generated at `seed + tenant`. Same workload *shape*,
/// independent content and arrival sample — the consolidated-VM
/// picture of the paper's §I. Tenant 0 is exactly
/// `profile.generate(seed)`, so single-tenant serving matches plain
/// replay byte for byte; tenants `i > 0` get `#i` name suffixes so
/// recorded sections stay distinguishable. Each tenant depends on its
/// index alone, so a fleet can be generated in any order, in parallel.
pub fn tenant_trace(profile: &TraceProfile, seed: u64, tenant: usize) -> Trace {
    let mut t = profile.generate(seed + tenant as u64);
    if tenant > 0 {
        t.name = format!("{}#{tenant}", t.name);
    }
    t
}

/// The first `tenants` [`tenant_trace`]s of `profile` at `seed`, in
/// tenant order, generated one after another.
pub fn derive_tenants(profile: &TraceProfile, tenants: usize, seed: u64) -> Vec<Trace> {
    (0..tenants)
        .map(|i| tenant_trace(profile, seed, i))
        .collect()
}

/// Consolidated-address-space region base of each tenant: region `i`
/// starts where region `i-1`'s span ends, rounded up to 256 blocks
/// (1 MiB) — the layout rule [`merge_tenants`](crate::merge_tenants)
/// applies when it physically relocates requests. Returns one extra trailing element: the end of
/// the last region (the consolidated footprint).
pub(crate) fn relocation_bases(tenants: &[Trace]) -> Vec<u64> {
    let mut bases = Vec::with_capacity(tenants.len() + 1);
    let mut offset = 0u64;
    for t in tenants {
        bases.push(offset);
        offset += t.address_span_blocks().next_multiple_of(256).max(256);
    }
    bases.push(offset);
    bases
}

/// One element of the merged multi-tenant stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedItem<'a> {
    /// Index of the issuing tenant in the slice passed to
    /// [`MergedStream::new`].
    pub tenant: usize,
    /// Position of the request within that tenant's own trace.
    pub index: usize,
    /// The request, untouched (tenant-local LBA space).
    pub request: &'a IoRequest,
}

/// Deterministic k-way merge of per-tenant request streams by arrival
/// time.
///
/// Per-tenant order is preserved (each stream is consumed front to
/// back); across tenants the earliest head wins, and equal arrivals
/// break toward the lower tenant index. The result is therefore a pure
/// function of the input traces — the serving engine replays it
/// identically at any worker width.
///
/// ```
/// use pod_trace::{derive_tenants, MergedStream, TraceProfile};
///
/// let tenants = derive_tenants(&TraceProfile::web_vm().scaled(0.002), 3, 42);
/// let merged: Vec<_> = MergedStream::new(&tenants).collect();
/// assert_eq!(merged.len(), tenants.iter().map(|t| t.len()).sum::<usize>());
/// for w in merged.windows(2) {
///     assert!(w[0].request.arrival <= w[1].request.arrival);
/// }
/// ```
pub struct MergedStream<'a> {
    streams: Vec<&'a [IoRequest]>,
    cursors: Vec<usize>,
}

impl<'a> MergedStream<'a> {
    /// Merge the request streams of `tenants` (tenant id = slice index).
    pub fn new(tenants: &'a [Trace]) -> Self {
        Self {
            streams: tenants.iter().map(|t| t.requests.as_slice()).collect(),
            cursors: vec![0; tenants.len()],
        }
    }

    /// Total number of requests across all tenants.
    pub fn total(&self) -> usize {
        self.streams.iter().map(|s| s.len()).sum()
    }
}

impl<'a> Iterator for MergedStream<'a> {
    type Item = MergedItem<'a>;

    fn next(&mut self) -> Option<MergedItem<'a>> {
        // Tenant counts are small (a handful to a few dozen); a linear
        // scan over the heads beats heap bookkeeping and keeps the
        // tie-break rule explicit.
        let mut best: Option<usize> = None;
        for (t, (s, &c)) in self.streams.iter().zip(&self.cursors).enumerate() {
            let Some(head) = s.get(c) else { continue };
            match best {
                Some(b) if self.streams[b][self.cursors[b]].arrival <= head.arrival => {}
                _ => best = Some(t),
            }
        }
        let tenant = best?;
        let index = self.cursors[tenant];
        self.cursors[tenant] += 1;
        Some(MergedItem {
            tenant,
            index,
            request: &self.streams[tenant][index],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge_tenants;
    use pod_types::SimTime;

    fn fleet(n: usize) -> Vec<Trace> {
        derive_tenants(&TraceProfile::web_vm().scaled(0.003), n, 11)
    }

    #[test]
    fn tenant_zero_reproduces_the_single_tenant_trace() {
        let profile = TraceProfile::mail().scaled(0.004);
        let solo = profile.generate(7);
        let fleet = derive_tenants(&profile, 3, 7);
        assert_eq!(fleet[0].name, solo.name);
        assert_eq!(fleet[0].requests, solo.requests);
        assert_eq!(fleet[0].memory_budget_bytes, solo.memory_budget_bytes);
        assert!(fleet[1].name.ends_with("#1"));
        assert_ne!(fleet[1].requests, solo.requests, "distinct seed");
    }

    #[test]
    fn merge_is_sorted_total_and_order_preserving() {
        let tenants = fleet(4);
        let stream = MergedStream::new(&tenants);
        assert_eq!(stream.total(), tenants.iter().map(|t| t.len()).sum());
        let items: Vec<_> = MergedStream::new(&tenants).collect();
        assert_eq!(items.len(), tenants.iter().map(|t| t.len()).sum::<usize>());
        for w in items.windows(2) {
            assert!(w[0].request.arrival <= w[1].request.arrival, "sorted");
        }
        // Per-tenant order preserved: indices are 0..len in order.
        for (t, trace) in tenants.iter().enumerate() {
            let idx: Vec<usize> = items
                .iter()
                .filter(|i| i.tenant == t)
                .map(|i| i.index)
                .collect();
            assert_eq!(idx, (0..trace.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn equal_arrivals_break_toward_the_lower_tenant() {
        let mk = |name: &str, at: &[u64]| Trace {
            name: name.into(),
            requests: at
                .iter()
                .enumerate()
                .map(|(i, &us)| {
                    IoRequest::read(
                        i as u64,
                        SimTime::from_micros(us),
                        pod_types::Lba::new(0),
                        1,
                    )
                })
                .collect(),
            memory_budget_bytes: 1,
        };
        let tenants = vec![mk("a", &[5, 10]), mk("b", &[5, 10])];
        let order: Vec<(usize, usize)> = MergedStream::new(&tenants)
            .map(|i| (i.tenant, i.index))
            .collect();
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn relocation_bases_match_merge_tenants_layout() {
        let tenants = fleet(3);
        let bases = relocation_bases(&tenants);
        assert_eq!(bases.len(), 4);
        assert_eq!(bases[0], 0);
        for w in bases.windows(2) {
            assert!(w[0] < w[1], "regions are non-empty and ordered");
        }
        // The physical merge puts tenant i's blocks exactly at base i.
        let merged = merge_tenants(&tenants);
        for (t, trace) in tenants.iter().enumerate() {
            let lo = trace
                .requests
                .iter()
                .map(|r| r.lba.raw())
                .min()
                .expect("non-empty");
            assert!(merged.requests.iter().any(|r| r.lba.raw() == lo + bases[t]));
        }
        // And every region end clears the next base.
        for (t, trace) in tenants.iter().enumerate() {
            assert!(bases[t] + trace.address_span_blocks() <= bases[t + 1]);
        }
    }
}
