//! Synthetic trace generator.
//!
//! Generates block-level request streams whose *measured* statistics
//! match what the paper publishes about the FIU traces (see
//! [`crate::profile`]). The generator is fully deterministic given a
//! seed, so every figure regenerated from these traces is reproducible
//! bit-for-bit.
//!
//! ## Mechanics
//!
//! * **Burstiness** — a two-state Markov phase process (write-intensive /
//!   read-intensive) with geometric phase lengths drives the read/write
//!   mix, reproducing the interleaved bursts iCache exploits.
//! * **Redundancy structure** — every write request is labelled
//!   fully-redundant / partially-contiguous / partially-scattered /
//!   unique per the profile's [`WriteMix`](crate::profile::WriteMix).
//!   Redundant content is drawn from previously generated *runs* (the
//!   content sequence of an earlier write) under a Zipf popularity skew,
//!   so hot content is re-written often — exactly the temporal locality
//!   §II-A measures. The history is a ring of the last 8,192 writes,
//!   each entry an LBA, a length and the index of the request in the
//!   trace being generated; ranks index it from the newest end, and
//!   evicting the oldest is O(1). The ring owns no content: a redundant
//!   write copies its fingerprints from the earlier request's chunks,
//!   so each write request allocates once, its own chunk vector.
//! * **Same-location rewrites** — a configured fraction of redundant
//!   writes re-target the LBA that already holds the content. These are
//!   I/O redundancy but not capacity redundancy: the Fig. 2 gap.
//! * **Reads** — Zipf-popular over previously written extents, with a
//!   sequential-follow component, giving the read cache realistic
//!   locality.

use crate::dist::{Discrete, Exponential, Zipf};
use crate::profile::TraceProfile;
use pod_types::rng::Rng;
use pod_types::{Fingerprint, IoRequest, Lba, SimTime};
use std::collections::VecDeque;

/// A named sequence of I/O requests in arrival order.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Trace name (profile name it was generated from, or file name).
    pub name: String,
    /// Requests sorted by arrival time.
    pub requests: Vec<IoRequest>,
    /// DRAM budget the paper pairs with this trace (bytes).
    pub memory_budget_bytes: u64,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Count of write requests.
    pub fn write_count(&self) -> usize {
        self.requests.iter().filter(|r| r.op.is_write()).count()
    }

    /// Fraction of requests that are writes.
    pub fn write_ratio(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.write_count() as f64 / self.len() as f64
    }

    /// Mean request size in KiB.
    pub fn mean_request_kib(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        let blocks: u64 = self.requests.iter().map(|r| r.nblocks as u64).sum();
        blocks as f64 * 4.0 / self.len() as f64
    }

    /// Wall-clock span of the trace.
    pub fn duration(&self) -> SimTime {
        self.requests
            .last()
            .map(|r| r.arrival)
            .unwrap_or(SimTime::ZERO)
    }
}

/// One previously generated write: where it was addressed, and which
/// request of the trace being generated holds its `len` fingerprints.
/// Redundant writes copy slices of those.
#[derive(Clone, Copy, Debug)]
struct Run {
    lba: u64,
    request: usize,
    len: usize,
}

/// Cap on the run/extent history windows: redundancy references recent
/// history (temporal locality), and the caps bound generator memory.
const RUN_WINDOW: usize = 8_192;

struct Generator {
    profile: TraceProfile,
    rng: Rng,
    clock_us: f64,
    burst_gap: Exponential,
    idle_gap: Exponential,
    size_dist: Discrete<u32>,
    run_zipf: Zipf,
    read_zipf: Zipf,
    in_write_phase: bool,
    phase_left: u32,
    next_content: u64,
    /// Ring of the last [`RUN_WINDOW`] runs, newest at the back. Eviction
    /// is O(1): it runs once per write request.
    runs: VecDeque<Run>,
    /// The trace so far; the runs point into it.
    requests: Vec<IoRequest>,
    /// Sequential-allocation cursor for fresh data placement.
    alloc_cursor: u64,
    /// Last read end (for sequential-follow reads).
    last_read_end: u64,
}

impl TraceProfile {
    /// Generate a synthetic trace with this profile and `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        self.validate()
            .unwrap_or_else(|e| panic!("invalid profile {}: {e}", self.name));
        let mut g = Generator::new(self.clone(), seed);
        for _ in 0..self.n_requests {
            g.push_request();
        }
        Trace {
            name: self.name.clone(),
            requests: g.requests,
            memory_budget_bytes: self.memory_budget_bytes,
        }
    }
}

impl Generator {
    fn new(profile: TraceProfile, seed: u64) -> Self {
        let size_dist = Discrete::new(&profile.size_weights);
        let burst_gap = Exponential::new(profile.burst_gap_us);
        let idle_gap = Exponential::new(profile.idle_gap_us);
        let run_zipf = Zipf::new(RUN_WINDOW, profile.content_zipf_theta);
        let read_zipf = Zipf::new(RUN_WINDOW, profile.read_zipf_theta);
        let mut rng = Rng::seed_from_u64(seed);
        let in_write_phase = rng.bool(profile.burst.write_phase_fraction);
        Self {
            rng,
            clock_us: 0.0,
            burst_gap,
            idle_gap,
            size_dist,
            run_zipf,
            read_zipf,
            in_write_phase,
            phase_left: 0,
            next_content: 1,
            runs: VecDeque::with_capacity(RUN_WINDOW),
            requests: Vec::with_capacity(profile.n_requests),
            alloc_cursor: 0,
            last_read_end: 0,
            profile,
        }
    }

    fn push_request(&mut self) {
        // Phase transitions insert a long idle gap; within a phase,
        // requests arrive densely (the burst). The 1 µs floor keeps
        // timestamps strictly increasing, which the FIU round-trip
        // (reconstruction merges on equal timestamps) relies on.
        if self.advance_phase() {
            self.clock_us += self.idle_gap.sample(&mut self.rng);
        }
        self.clock_us += self.burst_gap.sample(&mut self.rng).max(1.0);
        let arrival = SimTime::from_micros(self.clock_us as u64);

        let write_prob = if self.in_write_phase {
            self.profile.burst.write_phase_write_prob
        } else {
            self.profile.burst.read_phase_write_prob
        };
        let is_write = self.rng.bool(write_prob);
        let nblocks = self.size_dist.sample(&mut self.rng);

        let request = if is_write {
            self.gen_write(arrival, nblocks)
        } else {
            self.gen_read(arrival, nblocks)
        };
        self.requests.push(request);
    }

    /// Returns `true` when a new phase just started.
    fn advance_phase(&mut self) -> bool {
        let transition = self.phase_left == 0;
        if transition {
            // Phases strictly alternate; durations are geometric with
            // means proportioned so the expected *time* split matches
            // `write_phase_fraction`. Alternation (vs. i.i.d. phase
            // choice) keeps the realised write ratio close to the
            // Table II target even in short traces.
            self.in_write_phase = !self.in_write_phase;
            let wf = self.profile.burst.write_phase_fraction.clamp(0.01, 0.99);
            let base = self.profile.burst.mean_phase_len.max(1.0);
            let mean = if self.in_write_phase {
                2.0 * base * wf
            } else {
                2.0 * base * (1.0 - wf)
            };
            let u = self.rng.f64();
            self.phase_left = (-mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()).ceil() as u32;
            self.phase_left = self.phase_left.max(1);
        }
        self.phase_left -= 1;
        transition
    }

    /// Pick a previously generated run with at least `min_len` blocks.
    /// Returns it, or `None` when history is too shallow.
    fn pick_run(&mut self, min_len: usize) -> Option<Run> {
        if self.runs.is_empty() {
            return None;
        }
        // Deep references: periodic jobs re-write old content; rank is
        // uniform over the whole history window. Otherwise Zipf with
        // rank 0 = most recent run (temporal locality).
        let deep = self.rng.bool(self.profile.deep_reference_fraction);
        for _ in 0..8 {
            let rank = if deep {
                self.rng.below(self.runs.len() as u64) as usize
            } else {
                self.run_zipf.sample(&mut self.rng) % self.runs.len()
            };
            let run = self.runs[self.runs.len() - 1 - rank];
            if run.len >= min_len {
                return Some(run);
            }
        }
        // Fall back to a linear scan from the newest.
        self.runs.iter().rev().find(|r| r.len >= min_len).copied()
    }

    /// The first `len` fingerprints `run` wrote.
    fn run_chunks(&self, run: Run, len: usize) -> &[Fingerprint] {
        &self.requests[run.request].chunks[..len]
    }

    fn fresh_content(&mut self) -> Fingerprint {
        let id = self.next_content;
        self.next_content += 1;
        Fingerprint::from_content_id(id)
    }

    /// Allocate a fresh logical extent for new data, wrapping within the
    /// working set.
    fn fresh_lba(&mut self, nblocks: u32) -> u64 {
        let ws = self.profile.working_set_blocks;
        if self.alloc_cursor + nblocks as u64 > ws {
            self.alloc_cursor = 0;
        }
        let lba = self.alloc_cursor;
        self.alloc_cursor += nblocks as u64;
        lba
    }

    /// Record the write about to be pushed as the newest run.
    fn remember_run(&mut self, lba: u64, len: usize) {
        if self.runs.len() == RUN_WINDOW {
            self.runs.pop_front();
        }
        let request = self.requests.len();
        self.runs.push_back(Run { lba, request, len });
    }

    fn gen_write(&mut self, arrival: SimTime, nblocks: u32) -> IoRequest {
        let mix = &self.profile.write_mix;
        let boost = if nblocks <= 2 {
            self.profile.small_write_redundancy_boost
        } else {
            0.0
        };
        let p_full = mix.full_redundant + boost;
        let p_contig = mix.partial_contiguous;
        let p_scatter = mix.partial_scattered;
        let u = self.rng.f64();

        let (lba, chunks) = if u < p_full {
            self.compose_full_redundant(nblocks)
        } else if u < p_full + p_contig && nblocks >= 4 {
            self.compose_partial_contiguous(nblocks)
        } else if u < p_full + p_contig + p_scatter && nblocks >= 2 {
            self.compose_partial_scattered(nblocks)
        } else {
            self.compose_unique(nblocks)
        };

        self.remember_run(lba, chunks.len());
        IoRequest::write(arrival, Lba::new(lba), chunks)
    }

    // The compose functions build the request's chunk vector, exactly
    // sized, as its only allocation. A redundant slice is copied from
    // the earlier request's fingerprints: those are what
    // `Fingerprint::from_content_id` gave for the same content ids.

    fn compose_unique(&mut self, nblocks: u32) -> (u64, Vec<Fingerprint>) {
        let chunks: Vec<Fingerprint> = (0..nblocks).map(|_| self.fresh_content()).collect();
        let lba = self.fresh_lba(nblocks);
        (lba, chunks)
    }

    fn compose_full_redundant(&mut self, nblocks: u32) -> (u64, Vec<Fingerprint>) {
        let Some(run) = self.pick_run(nblocks as usize) else {
            return self.compose_unique(nblocks);
        };
        let chunks = self.run_chunks(run, nblocks as usize).to_vec();
        let same_loc = self.rng.bool(self.profile.same_location_fraction);
        let lba = if same_loc {
            // Rewrite the original location with identical content.
            run.lba
        } else {
            self.fresh_lba(nblocks)
        };
        (lba, chunks)
    }

    fn compose_partial_contiguous(&mut self, nblocks: u32) -> (u64, Vec<Fingerprint>) {
        // Redundant prefix of at least 3 chunks (the Select-Dedupe
        // threshold), at least half the request.
        let run_len = ((nblocks / 2).max(3)).min(nblocks);
        let Some(run) = self.pick_run(run_len as usize) else {
            return self.compose_unique(nblocks);
        };
        let mut chunks = Vec::with_capacity(nblocks as usize);
        chunks.extend_from_slice(self.run_chunks(run, run_len as usize));
        for _ in run_len..nblocks {
            let c = self.fresh_content();
            chunks.push(c);
        }
        let lba = self.fresh_lba(nblocks);
        (lba, chunks)
    }

    fn compose_partial_scattered(&mut self, nblocks: u32) -> (u64, Vec<Fingerprint>) {
        // 1-2 duplicate chunks at scattered positions (below the
        // threshold of 3), drawn from *different* runs so they are not
        // stored contiguously.
        let mut chunks: Vec<Fingerprint> = (0..nblocks).map(|_| self.fresh_content()).collect();
        let dup_count = if nblocks >= 3 { 2 } else { 1 };
        for d in 0..dup_count {
            if let Some(run) = self.pick_run(1) {
                let pick = self.rng.below(run.len as u64) as usize;
                let pos = if d == 0 { 0 } else { (nblocks / 2) as usize };
                chunks[pos] = self.run_chunks(run, run.len)[pick];
            }
        }
        let lba = self.fresh_lba(nblocks);
        (lba, chunks)
    }

    fn gen_read(&mut self, arrival: SimTime, nblocks: u32) -> IoRequest {
        let ws = self.profile.working_set_blocks;
        let style = self.rng.f64();
        let (lba, len) = if style < 0.15 {
            // Sequential follow-on from the previous read.
            let lba = self.last_read_end % ws;
            (lba, nblocks)
        } else if style < 0.90 {
            // Popular previously written extent.
            if self.runs.is_empty() {
                (self.rng.below(ws), nblocks)
            } else {
                let rank = self.read_zipf.sample(&mut self.rng) % self.runs.len();
                let run = self.runs[self.runs.len() - 1 - rank];
                let len = nblocks.min(run.len as u32);
                (run.lba, len.max(1))
            }
        } else {
            // Cold random read.
            (self.rng.below(ws), nblocks)
        };
        let lba = lba.min(ws.saturating_sub(len as u64));
        self.last_read_end = lba + len as u64;
        IoRequest::read(arrival, Lba::new(lba), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Trace {
        let p = match name {
            "web-vm" => TraceProfile::web_vm(),
            "homes" => TraceProfile::homes(),
            "mail" => TraceProfile::mail(),
            _ => unreachable!(),
        };
        p.scaled(0.05).generate(42)
    }

    #[test]
    fn generates_requested_count() {
        let t = small("web-vm");
        assert_eq!(t.len(), TraceProfile::web_vm().scaled(0.05).n_requests);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let t = small("mail");
        for w in t.requests.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn write_ratio_near_profile_target() {
        for name in ["web-vm", "homes", "mail"] {
            let t = small(name);
            let want = match name {
                "web-vm" => 0.698,
                "homes" => 0.805,
                "mail" => 0.785,
                _ => unreachable!(),
            };
            let got = t.write_ratio();
            assert!(
                (got - want).abs() < 0.06,
                "{name}: write ratio {got:.3} vs target {want}"
            );
        }
    }

    #[test]
    fn mean_size_near_table2() {
        for (name, want) in [("web-vm", 14.8), ("homes", 13.1), ("mail", 40.8)] {
            let t = small(name);
            let got = t.mean_request_kib();
            assert!(
                (got - want).abs() / want < 0.25,
                "{name}: mean size {got:.1} KiB vs target {want}"
            );
        }
    }

    #[test]
    fn writes_carry_fingerprints_reads_do_not() {
        let t = small("web-vm");
        for r in &t.requests {
            if r.op.is_write() {
                assert_eq!(r.chunks.len(), r.nblocks as usize);
            } else {
                assert!(r.chunks.is_empty());
            }
        }
    }

    #[test]
    fn lbas_stay_in_working_set() {
        let p = TraceProfile::homes().scaled(0.05);
        let ws = p.working_set_blocks;
        let t = p.generate(1);
        for r in &t.requests {
            assert!(
                r.end_lba().raw() <= ws,
                "request beyond working set: {:?} (ws={ws})",
                r
            );
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let p = TraceProfile::mail().scaled(0.01);
        let a = p.generate(7);
        let b = p.generate(7);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn different_seeds_differ() {
        let p = TraceProfile::mail().scaled(0.01);
        let a = p.generate(7);
        let b = p.generate(8);
        assert_ne!(a.requests, b.requests);
    }

    #[test]
    fn redundancy_exists_in_generated_writes() {
        // A mail-profile trace must contain many repeated fingerprints.
        let t = small("mail");
        let mut seen = std::collections::HashSet::new();
        let mut dup_chunks = 0u64;
        let mut total = 0u64;
        for r in t.requests.iter().filter(|r| r.op.is_write()) {
            for fp in &r.chunks {
                total += 1;
                if !seen.insert(*fp) {
                    dup_chunks += 1;
                }
            }
        }
        let ratio = dup_chunks as f64 / total as f64;
        assert!(ratio > 0.4, "mail should be heavily redundant: {ratio:.3}");
    }

    /// The 32-byte form fingerprints had before they became 16 bytes:
    /// the raw id and three SplitMix64 lanes. The pins below were taken
    /// over it, so they hash it to show the trace itself did not move.
    fn wide_fingerprint(fp: &pod_types::Fingerprint) -> [u8; 32] {
        use pod_types::rng::splitmix64;
        let id = fp.content_id();
        let lanes = [
            id,
            splitmix64(id ^ 0xA5A5_A5A5_A5A5_A5A5),
            splitmix64(id.rotate_left(17)),
            splitmix64(!id),
        ];
        let mut out = [0u8; 32];
        for (dst, lane) in out.chunks_exact_mut(8).zip(lanes) {
            dst.copy_from_slice(&lane.to_le_bytes());
        }
        assert_eq!(out[..16], fp.as_bytes()[..], "a generated fingerprint");
        out
    }

    /// FNV-1a over every request's position and fields, little-endian,
    /// with each fingerprint in its former 32-byte form. The position
    /// stands where requests once carried a sequential id: the same
    /// 8 bytes, so the pins below did not move.
    fn trace_digest(t: &Trace) -> u64 {
        use std::hash::Hasher;
        let mut h = pod_types::hash::FnvHasher::default();
        for (i, r) in t.requests.iter().enumerate() {
            h.write(&(i as u64).to_le_bytes());
            h.write(&r.arrival.as_micros().to_le_bytes());
            h.write(&[u8::from(r.op.is_write())]);
            h.write(&r.lba.raw().to_le_bytes());
            h.write(&r.nblocks.to_le_bytes());
            for fp in &r.chunks {
                h.write(&wide_fingerprint(fp));
            }
        }
        h.finish()
    }

    #[test]
    fn generated_traces_are_bit_stable() {
        // Constants computed at commit 15f2705, before the run history
        // became a ring. Every trace here has more than RUN_WINDOW
        // writes, so the window wraps and the eviction path runs. A
        // changed digest means every golden report and every stored
        // benchmark figure changed with it.
        type Case = (fn() -> TraceProfile, f64, [(u64, u64); 2]);
        let cases: [Case; 3] = [
            (
                TraceProfile::web_vm,
                0.1,
                [(42, 0xc970_7981_f854_b4fe), (7, 0x13fb_f831_a74a_e25e)],
            ),
            (
                TraceProfile::mail,
                0.1,
                [(42, 0x6a05_723c_b9cd_9a6a), (7, 0xd029_7e06_cc21_7da5)],
            ),
            (
                TraceProfile::homes,
                0.25,
                [(42, 0x9753_486b_965f_6f58), (7, 0x596f_ca2c_a307_da47)],
            ),
        ];
        for (profile, scale, pinned) in cases {
            for (seed, want) in pinned {
                let t = profile().scaled(scale).generate(seed);
                assert!(t.write_count() > RUN_WINDOW, "{}: window must wrap", t.name);
                let got = trace_digest(&t);
                assert_eq!(
                    got, want,
                    "{} seed {seed}: digest {got:#018x}, pinned {want:#018x}",
                    t.name
                );
            }
        }
    }

    #[test]
    fn benchmark_inputs_are_bit_stable() {
        // The generated inputs of the benchmark's workloads at seed 42:
        // `webvm-native` (web-vm, scale 1), `mail-pod` (mail, 0.25) and
        // every tenant of `fleet-serve` (mail, 0.0625, eight tenants).
        // Pinned at commit 99a6000, before the run history stopped
        // owning its content.
        let mut traces = vec![
            TraceProfile::web_vm().generate(42),
            TraceProfile::mail().scaled(0.25).generate(42),
        ];
        traces.extend(crate::derive_tenants(
            &TraceProfile::mail().scaled(0.0625),
            8,
            42,
        ));
        let got: Vec<(&str, String)> = traces
            .iter()
            .map(|t| (t.name.as_str(), format!("{:#018x}", trace_digest(t))))
            .collect();
        let want = [
            ("web-vm", "0xdaf2c449b0bb30b5"),
            ("mail", "0xcfd624f10910c97e"),
            ("mail", "0xf8f105a7a8e86610"),
            ("mail#1", "0x9c7a86ed189c2fbd"),
            ("mail#2", "0x2ab8cc750bc858d7"),
            ("mail#3", "0x9d44324fda9f50af"),
            ("mail#4", "0x0236ff0d9a783e63"),
            ("mail#5", "0x901685cdaa3452ab"),
            ("mail#6", "0xe148083618728b0e"),
            ("mail#7", "0x23afc77dd32ee971"),
        ]
        .map(|(name, digest)| (name, digest.to_string()));
        assert_eq!(got, want);
    }

    #[test]
    fn format_records_is_byte_stable() {
        // The FIU text the benchmark harness and `pod-cli gen --out`
        // write: pinned at the same commit, before the writer changed,
        // when it wrote 64-digit hashes. Widening each 32-digit hash
        // back to its former 64 digits must give that text again.
        let t = TraceProfile::web_vm().scaled(0.1).generate(42);
        let text = crate::fiu::format_records(&crate::reconstruct::split_into_records(&t));
        let mut wide = String::with_capacity(text.len() * 5 / 4);
        for line in text.lines() {
            let (head, hash) = line.rsplit_once(' ').expect("nine fields");
            wide.push_str(head);
            wide.push(' ');
            match pod_types::Fingerprint::from_hex(hash) {
                Some(fp) => wide.extend(wide_fingerprint(&fp).iter().map(|b| format!("{b:02x}"))),
                None => wide.push_str(hash),
            }
            wide.push('\n');
        }
        let got = pod_types::hash::fnv1a_64(wide.as_bytes());
        assert_eq!(
            got,
            0x5000_a221_996c_f4c7,
            "widened FIU text digest {got:#018x} over {} bytes",
            wide.len()
        );
        let got = pod_types::hash::fnv1a_64(text.as_bytes());
        assert_eq!(
            got,
            0xb34a_f548_dc53_8465,
            "FIU text digest {got:#018x} over {} bytes",
            text.len()
        );
    }

    #[test]
    fn bursts_alternate() {
        // There should be both read-dominant and write-dominant windows.
        let t = small("mail");
        let window = 200;
        let mut write_heavy = 0;
        let mut read_heavy = 0;
        for chunk in t.requests.chunks(window) {
            let w = chunk.iter().filter(|r| r.op.is_write()).count() as f64 / chunk.len() as f64;
            if w > 0.85 {
                write_heavy += 1;
            }
            if w < 0.5 {
                read_heavy += 1;
            }
        }
        assert!(write_heavy > 0, "no write bursts found");
        assert!(read_heavy > 0, "no read bursts found");
    }
}
