//! The disk layer: phase planning and submission behind a trait.
//!
//! [`DiskBackend`] is the seam the ROADMAP's multi-backend direction
//! plugs into: the replay driver and background tasks speak extents and
//! jobs, never RAID geometry. [`ArrayBackend`] is the paper's HDD
//! RAID-5 array ([`ArraySim`]) plus the replay's reserved-region layout
//! (on-disk index probes, iCache swap area).

use crate::config::FaultPlan;
use crate::obs::FaultKind;
use crate::runner::ReplaySizing;
use pod_disk::engine::DiskStats;
use pod_disk::{ArraySim, JobId};
use pod_types::{Pba, SimDuration, SimTime};

/// One injected fault, queued by a fault-aware backend for the stack
/// to drain after each submission and surface as
/// [`StackEvent`](crate::obs::StackEvent)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// What was injected.
    pub kind: FaultKind,
    /// Service delay the fault added, µs.
    pub delay_us: u64,
    /// The backend already recovered transparently (retry); the stack
    /// only has to report it. Crashes are `false`: the stack must run
    /// a recovery pass.
    pub auto_recovered: bool,
}

/// Physical storage behind the stack. Object-safe so stacks can carry
/// any backend; all submissions are deterministic given the call order.
pub trait DiskBackend {
    /// Advance simulated time to `t`, completing due work.
    fn run_until(&mut self, t: SimTime);

    /// Drain every outstanding job.
    fn run_to_idle(&mut self);

    /// Submit one write request's disk work: `index_lookups` random
    /// reads in the reserved index region, then the extents' RMW
    /// pre-reads, then the data+parity writes (dependent phases).
    fn submit_write(&mut self, at: SimTime, extents: &[(Pba, u32)], index_lookups: u32) -> JobId;

    /// Submit one read request's extents as a single parallel phase.
    fn submit_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) -> JobId;

    /// Submit background scan reads (not tied to a request's latency).
    fn submit_scan_read(&mut self, at: SimTime, extents: &[(Pba, u32)]);

    /// Charge `blocks` of iCache swap traffic as sequential writes in
    /// the reserved swap region.
    fn submit_swap(&mut self, at: SimTime, blocks: u64);

    /// Completion time of `job`, if it has finished.
    fn completion(&self, job: JobId) -> Option<SimTime>;

    /// Final per-disk statistics.
    fn stats(&self) -> Vec<DiskStats>;

    /// Move any queued [`FaultRecord`]s into `out`. Fault-free
    /// backends never queue anything, so the default is a no-op — the
    /// hot path pays a virtual call only when a fault plan is active.
    fn drain_faults(&mut self, out: &mut Vec<FaultRecord>) {
        let _ = out;
    }
}

/// The default backend: the paper's simulated RAID array.
pub struct ArrayBackend {
    sim: ArraySim,
    index_region_base: u64,
    swap_region_base: u64,
    region_blocks: u64,
    /// Deterministic spreader for index-probe placement.
    lookup_counter: u64,
    /// Rolling write position in the swap region.
    swap_cursor: u64,
}

impl ArrayBackend {
    /// Wrap a simulator with the replay's region layout.
    pub fn new(sim: ArraySim, sizing: &ReplaySizing) -> Self {
        Self {
            sim,
            index_region_base: sizing.index_region_base,
            swap_region_base: sizing.swap_region_base,
            region_blocks: sizing.region_blocks,
            lookup_counter: 0,
            swap_cursor: 0,
        }
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &ArraySim {
        &self.sim
    }
}

impl DiskBackend for ArrayBackend {
    fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    fn run_to_idle(&mut self) {
        self.sim.run_to_idle();
    }

    fn submit_write(&mut self, at: SimTime, extents: &[(Pba, u32)], index_lookups: u32) -> JobId {
        self.sim.submit_job(at, |plan| {
            // On-disk index lookups precede the data: hash-index probes
            // are random reads, spread pseudo-randomly (deterministically)
            // across the index region.
            for _ in 0..index_lookups {
                let offset = self.lookup_counter.wrapping_mul(7_919) % self.region_blocks;
                self.lookup_counter += 1;
                plan.read(Pba::new(self.index_region_base + offset), 1);
            }
            plan.end_phase();
            // Every extent's pre-reads form one phase and its writes the
            // next: the extents proceed in parallel.
            for &(pba, len) in extents {
                plan.write(pba, len);
            }
        })
    }

    fn submit_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) -> JobId {
        self.sim.submit_job(at, |plan| {
            for &(pba, len) in extents {
                plan.read(pba, len);
            }
        })
    }

    fn submit_scan_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) {
        self.submit_read(at, extents);
    }

    fn submit_swap(&mut self, at: SimTime, blocks: u64) {
        self.sim.submit_job(at, |plan| {
            let mut remaining = blocks;
            while remaining > 0 {
                let chunk = remaining.min(256);
                let start = self.swap_region_base + (self.swap_cursor % self.region_blocks);
                // Clamp runs that would spill past the region.
                let len =
                    chunk.min(self.region_blocks - (self.swap_cursor % self.region_blocks)) as u32;
                plan.stream_write(Pba::new(start), len);
                self.swap_cursor += len as u64;
                remaining -= len as u64;
            }
        });
    }

    fn completion(&self, job: JobId) -> Option<SimTime> {
        self.sim.job_completion(job)
    }

    fn stats(&self) -> Vec<DiskStats> {
        self.sim.disk_stats()
    }
}

/// A fault-injecting decorator over any [`DiskBackend`].
///
/// Faults are drawn from a `splitmix64` stream keyed by the plan's
/// seed and consumed in strict submission order, so a given trace +
/// config + plan replays the identical fault sequence. Only foreground
/// submissions (request reads and writes) are faulted; background scan
/// reads and swap traffic pass through untouched — they carry no
/// request latency and the crash point already covers their loss mode.
///
/// Per submission the checks run in a fixed order:
///
/// 1. **Crash** (counter-based, not random): right before the plan's
///    Nth foreground job, every not-yet-idle job is dropped — its
///    completion is forced to the crash point — and the crashing
///    submission itself is pushed past the recovery downtime. The
///    stack drains the record and runs the dedup layer's
///    crash-recovery pass.
/// 2. **Transient error**: the submission fails once and is retried
///    after `retry_us` (transparent to the caller).
/// 3. **Torn write** (multi-extent writes only): a prefix of the
///    extents lands first as an orphan job, then the full write is
///    replayed after `retry_us` — modeling the partial landing plus
///    the recovery rewrite.
/// 4. **Latency spike**: the submission is delayed by
///    `latency_spike_us`.
pub struct FaultyBackend {
    inner: Box<dyn DiskBackend>,
    plan: FaultPlan,
    /// splitmix64 state.
    rng: u64,
    /// Foreground jobs submitted so far (crash trigger).
    jobs_submitted: u64,
    crashed: bool,
    /// Foreground jobs in flight: (job, submit time), pruned on crash.
    outstanding: Vec<(JobId, SimTime)>,
    /// Completion overrides for jobs dropped by a crash.
    overrides: Vec<(JobId, SimTime)>,
    /// Queued fault records, drained by the stack after each request.
    records: Vec<FaultRecord>,
}

impl FaultyBackend {
    /// Wrap `inner` with the fault plan.
    pub fn new(inner: Box<dyn DiskBackend>, plan: FaultPlan) -> Self {
        Self {
            inner,
            // splitmix64 of seed 0 starts weak; mix the seed once.
            rng: plan.seed ^ 0x9E37_79B9_7F4A_7C15,
            plan,
            jobs_submitted: 0,
            crashed: false,
            outstanding: Vec::new(),
            overrides: Vec::new(),
            records: Vec::new(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// One 1-in-`rate` decision (0 = never). Consumes the stream only
    /// for enabled classes, which is still deterministic: enabledness
    /// is fixed for the whole replay.
    fn roll(&mut self, rate: u64) -> bool {
        rate > 0 && self.next_u64().is_multiple_of(rate)
    }

    /// Crash check, shared by the read and write paths. Returns the
    /// extra delay (downtime) charged to the crashing submission.
    fn maybe_crash(&mut self, at: SimTime) -> u64 {
        self.jobs_submitted += 1;
        if self.crashed || self.plan.crash_after_jobs != Some(self.jobs_submitted) {
            return 0;
        }
        self.crashed = true;
        // Complete everything due by the crash point, then drop the
        // rest: a dropped job "completes" at the crash (never earlier
        // than its own submission, so durations stay non-negative).
        self.inner.run_until(at);
        for &(job, submit) in &self.outstanding {
            if self.inner.completion(job).is_none() {
                self.overrides.push((job, at.max(submit)));
            }
        }
        self.outstanding.clear();
        self.records.push(FaultRecord {
            kind: FaultKind::Crash,
            delay_us: self.plan.crash_recovery_us,
            auto_recovered: false,
        });
        self.plan.crash_recovery_us
    }
}

impl DiskBackend for FaultyBackend {
    fn run_until(&mut self, t: SimTime) {
        self.inner.run_until(t);
    }

    fn run_to_idle(&mut self) {
        self.inner.run_to_idle();
    }

    fn submit_write(&mut self, at: SimTime, extents: &[(Pba, u32)], index_lookups: u32) -> JobId {
        let mut delay_us = self.maybe_crash(at);
        if self.roll(self.plan.write_error_rate) {
            delay_us += self.plan.retry_us;
            self.records.push(FaultRecord {
                kind: FaultKind::WriteError,
                delay_us: self.plan.retry_us,
                auto_recovered: true,
            });
        }
        let torn = extents.len() > 1 && self.roll(self.plan.torn_write_rate);
        if self.roll(self.plan.latency_spike_rate) {
            delay_us += self.plan.latency_spike_us;
            self.records.push(FaultRecord {
                kind: FaultKind::LatencySpike,
                delay_us: self.plan.latency_spike_us,
                auto_recovered: false,
            });
        }
        let eff = at + SimDuration::from_micros(delay_us);
        if torn {
            // The prefix lands as an orphan job; the full write is
            // then replayed after one retry interval.
            let half = extents.len() / 2;
            self.inner.submit_write(eff, &extents[..half], 0);
            self.records.push(FaultRecord {
                kind: FaultKind::TornWrite,
                delay_us: self.plan.retry_us,
                auto_recovered: true,
            });
            let replay_at = eff + SimDuration::from_micros(self.plan.retry_us);
            let job = self.inner.submit_write(replay_at, extents, index_lookups);
            self.outstanding.push((job, replay_at));
            return job;
        }
        let job = self.inner.submit_write(eff, extents, index_lookups);
        self.outstanding.push((job, eff));
        job
    }

    fn submit_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) -> JobId {
        let mut delay_us = self.maybe_crash(at);
        if self.roll(self.plan.read_error_rate) {
            delay_us += self.plan.retry_us;
            self.records.push(FaultRecord {
                kind: FaultKind::ReadError,
                delay_us: self.plan.retry_us,
                auto_recovered: true,
            });
        }
        if self.roll(self.plan.latency_spike_rate) {
            delay_us += self.plan.latency_spike_us;
            self.records.push(FaultRecord {
                kind: FaultKind::LatencySpike,
                delay_us: self.plan.latency_spike_us,
                auto_recovered: false,
            });
        }
        let eff = at + SimDuration::from_micros(delay_us);
        let job = self.inner.submit_read(eff, extents);
        self.outstanding.push((job, eff));
        job
    }

    fn submit_scan_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) {
        self.inner.submit_scan_read(at, extents);
    }

    fn submit_swap(&mut self, at: SimTime, blocks: u64) {
        self.inner.submit_swap(at, blocks);
    }

    fn completion(&self, job: JobId) -> Option<SimTime> {
        if let Some(&(_, t)) = self.overrides.iter().find(|&&(j, _)| j == job) {
            return Some(t);
        }
        self.inner.completion(job)
    }

    fn stats(&self) -> Vec<DiskStats> {
        self.inner.stats()
    }

    fn drain_faults(&mut self, out: &mut Vec<FaultRecord>) {
        out.append(&mut self.records);
    }
}
