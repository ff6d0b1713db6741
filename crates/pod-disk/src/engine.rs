//! The discrete-event array simulator.
//!
//! [`ArraySim`] services multi-phase jobs over a set of simulated disks.
//! A *job* is an ordered list of phases; each phase is a set of
//! [`PhysOp`]s that may proceed in parallel across disks, and a phase
//! only starts once the previous one fully completes. This models
//! RAID-5 read-modify-write (read old data + parity → write new data +
//! parity) as well as dedup metadata I/O that must precede data I/O.
//!
//! Each disk owns a pending queue drained by the configured
//! [`SchedulerKind`]; service times come from
//! [`DiskSpec::service_time`]. Events are ordered by time, ties in the
//! order they were scheduled, so simulations are fully deterministic.
//! The array is the paper's: every member healthy and every op a media
//! access, so a write is counted when it reaches the platter.
//!
//! A job in flight lives in a reusable slot that keeps its ops back to
//! back with the phase boundaries beside them ([`ArraySim::submit_job`]
//! plans straight into it), so a steady-state replay submits and runs
//! jobs without allocating (`crates/core/tests/alloc.rs` pins that).

use crate::raid::{PhysOp, RaidGeometry};
use crate::sched::SchedulerKind;
use crate::spec::DiskSpec;
use pod_types::{Pba, SimDuration, SimTime};

/// Handle to a submitted job: its submission index. The `n`th job an
/// [`ArraySim`] accepts (counting from 0, pure-metadata jobs included)
/// is `JobId::from_index(n)`, so a caller that logs submissions for a
/// simulator running elsewhere can name each job before it is applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobId(usize);

impl JobId {
    /// The id of the `index`th submitted job.
    pub const fn from_index(index: usize) -> Self {
        Self(index)
    }

    /// The job's submission index.
    pub const fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
enum EventKind {
    /// The job in `slot` sends its current phase to the disk queues.
    PhaseArrive { slot: usize },
    /// An in-flight op of the job in `slot` finishes on `disk`.
    OpComplete { disk: usize, slot: usize },
}

#[derive(Debug)]
struct Event {
    at_us: u64,
    kind: EventKind,
}

#[derive(Debug, Clone, Copy)]
struct QueuedOp {
    op: PhysOp,
    arrival_us: u64,
    slot: usize,
}

/// Per-disk utilisation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct DiskStats {
    /// Ops serviced.
    pub ops: u64,
    /// Blocks read from media.
    pub blocks_read: u64,
    /// Blocks written to media.
    pub blocks_written: u64,
    /// Time the head was busy, µs.
    pub busy_us: u64,
    /// Total time ops waited in queue before dispatch, µs.
    pub queue_wait_us: u64,
    /// Largest pending-queue depth observed.
    pub max_queue_depth: usize,
}

#[derive(Debug)]
struct DiskState {
    head: u64,
    busy: bool,
    direction_up: bool,
    pending: Vec<QueuedOp>,
    stats: DiskStats,
}

impl DiskState {
    fn new() -> Self {
        Self {
            head: 0,
            busy: false,
            direction_up: true,
            pending: Vec::new(),
            stats: DiskStats::default(),
        }
    }
}

/// Sentinel in [`ArraySim::finish`] for a job that has not completed.
const UNFINISHED: u64 = u64::MAX;

/// A job with phases still to run. The slot goes back to the free list
/// when the job completes, keeping its buffers' capacity for the next
/// job; the long-lived per-job record is a single `u64` finish time,
/// which keeps replay memory flat over millions of jobs.
#[derive(Debug, Default)]
struct Job {
    /// Index into [`ArraySim::finish`].
    id: usize,
    /// Every phase's ops, back to back.
    ops: Vec<PhysOp>,
    /// End of each phase in `ops` (exclusive); never an empty phase.
    ends: Vec<usize>,
    /// Phase now in the disk queues.
    phase: usize,
    /// Ops of that phase not yet complete.
    outstanding: usize,
}

/// Discrete-event simulator for one disk array.
pub struct ArraySim {
    geometry: RaidGeometry,
    spec: DiskSpec,
    sched: SchedulerKind,
    clock: SimTime,
    /// Pending events, latest first: the next event is the last element.
    /// A caller that advances the clock before submitting (the stack
    /// does) keeps it to a completion per busy disk plus the phase
    /// arrivals due next, a handful, so a sorted vector beats a heap.
    events: Vec<Event>,
    disks: Vec<DiskState>,
    /// Finish time per job id, µs ([`UNFINISHED`] until completion).
    finish: Vec<u64>,
    /// Job slots, in flight or free.
    jobs: Vec<Job>,
    /// Slots of `jobs` not in flight.
    free: Vec<usize>,
    /// Writes [`JobPlan::write`] holds back for the phase after the
    /// current one.
    held_writes: Vec<PhysOp>,
}

/// The job [`ArraySim::submit_job`] is planning: ops join the current
/// phase, and [`JobPlan::end_phase`] starts the next one. A phase left
/// empty is never built.
pub struct JobPlan<'a> {
    geometry: &'a RaidGeometry,
    ops: &'a mut Vec<PhysOp>,
    ends: &'a mut Vec<usize>,
    held_writes: &'a mut Vec<PhysOp>,
}

impl JobPlan<'_> {
    /// Add a read of `[pba, pba+nblocks)` to the current phase.
    pub fn read(&mut self, pba: Pba, nblocks: u32) {
        self.geometry.plan_read_into(pba, nblocks, self.ops);
    }

    /// Add a write of `[pba, pba+nblocks)` including parity work: its
    /// pre-reads join the current phase, its data and parity writes the
    /// phase after it.
    pub fn write(&mut self, pba: Pba, nblocks: u32) {
        self.geometry
            .plan_write_into(pba, nblocks, self.ops, self.held_writes);
    }

    /// Add a parity-less streaming write of `[pba, pba+nblocks)` to the
    /// current phase.
    pub fn stream_write(&mut self, pba: Pba, nblocks: u32) {
        self.geometry.plan_stream_write_into(pba, nblocks, self.ops);
    }

    /// Close the current phase (a no-op when it is empty); writes held
    /// back by [`JobPlan::write`] open the next one.
    pub fn end_phase(&mut self) {
        if self.ops.len() > self.ends.last().copied().unwrap_or(0) {
            self.ends.push(self.ops.len());
        }
        self.ops.append(self.held_writes);
    }
}

impl ArraySim {
    /// Build a simulator for `geometry` over identical `spec` disks.
    pub fn new(geometry: RaidGeometry, spec: DiskSpec, sched: SchedulerKind) -> Self {
        let ndisks = geometry.ndisks();
        Self {
            geometry,
            spec,
            sched,
            clock: SimTime::ZERO,
            events: Vec::new(),
            disks: (0..ndisks).map(|_| DiskState::new()).collect(),
            finish: Vec::new(),
            jobs: Vec::new(),
            free: Vec::new(),
            held_writes: Vec::new(),
        }
    }

    /// The array's address arithmetic.
    pub fn geometry(&self) -> &RaidGeometry {
        &self.geometry
    }

    /// The per-disk mechanical model.
    pub fn spec(&self) -> &DiskSpec {
        &self.spec
    }

    /// Total data capacity in blocks (excludes parity).
    pub fn data_capacity_blocks(&self) -> u64 {
        self.geometry.config().data_disks() as u64 * self.spec.capacity_blocks
    }

    /// Current simulation clock (advances as events are processed).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Submit a job of dependent phases starting at `at`, which must not
    /// be earlier than the array's clock ([`now`](Self::now)): the
    /// array has already handled every event up to the clock, so a job
    /// starting before it would be served in the past, and the clock
    /// would run backwards. A replay keeps this by advancing the clock
    /// to each request's arrival, in time order, before submitting the
    /// request's job at or after it; a trace whose arrivals step back
    /// is refused where it is read. `plan` adds the ops through a
    /// [`JobPlan`]; a job with no ops completes at `at`.
    ///
    /// # Panics
    ///
    /// In a debug build, when `at` is earlier than the clock.
    pub fn submit_job(&mut self, at: SimTime, plan: impl FnOnce(&mut JobPlan<'_>)) -> JobId {
        debug_assert!(
            at >= self.clock,
            "a job submitted at {at:?}, before the array's clock {:?}",
            self.clock
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.jobs.push(Job::default());
            self.jobs.len() - 1
        });
        let job = &mut self.jobs[slot];
        job.ops.clear();
        job.ends.clear();
        let mut p = JobPlan {
            geometry: &self.geometry,
            ops: &mut job.ops,
            ends: &mut job.ends,
            held_writes: &mut self.held_writes,
        };
        plan(&mut p);
        // Close the last phase, then the writes it held back, if any.
        p.end_phase();
        p.end_phase();

        let id = self.finish.len();
        let job = &mut self.jobs[slot];
        if job.ends.is_empty() {
            // Pure-metadata job: completes instantly at submission.
            self.finish.push(at.as_micros());
            self.free.push(slot);
            return JobId(id);
        }
        job.id = id;
        job.phase = 0;
        self.finish.push(UNFINISHED);
        self.push_event(at.as_micros(), EventKind::PhaseArrive { slot });
        JobId(id)
    }

    /// Submit a read of `[pba, pba+nblocks)` through the RAID mapping.
    pub fn submit_read(&mut self, at: SimTime, pba: Pba, nblocks: u32) -> JobId {
        self.submit_job(at, |plan| plan.read(pba, nblocks))
    }

    /// Submit a write of `[pba, pba+nblocks)` including parity work.
    pub fn submit_write(&mut self, at: SimTime, pba: Pba, nblocks: u32) -> JobId {
        self.submit_job(at, |plan| plan.write(pba, nblocks))
    }

    /// Process events up to and including `t`.
    pub fn run_until(&mut self, t: SimTime) {
        let t_us = t.as_micros();
        while self.events.last().is_some_and(|ev| ev.at_us <= t_us) {
            let ev = self.events.pop().expect("checked non-empty");
            self.clock = SimTime::from_micros(ev.at_us);
            self.handle(ev.kind);
        }
        self.clock = self.clock.max_of(t);
    }

    /// Drain every event; afterwards all submitted jobs are complete.
    pub fn run_to_idle(&mut self) {
        while let Some(ev) = self.events.pop() {
            self.clock = SimTime::from_micros(ev.at_us);
            self.handle(ev.kind);
        }
    }

    /// Completion time of `job`, if it has finished.
    pub fn job_completion(&self, job: JobId) -> Option<SimTime> {
        match self.finish.get(job.0) {
            Some(&f) if f != UNFINISHED => Some(SimTime::from_micros(f)),
            _ => None,
        }
    }

    /// Per-disk statistics.
    pub fn disk_stats(&self) -> Vec<DiskStats> {
        self.disks.iter().map(|d| d.stats).collect()
    }

    /// Mean queue wait per op across all disks, µs. 0.0 (not NaN) when
    /// no op has completed yet.
    pub fn mean_queue_wait_us(&self) -> f64 {
        let ops: u64 = self.disks.iter().map(|d| d.stats.ops).sum();
        if ops == 0 {
            return 0.0;
        }
        let wait: u64 = self.disks.iter().map(|d| d.stats.queue_wait_us).sum();
        wait as f64 / ops as f64
    }

    /// Schedule an event at `at_us`, after every event already due then.
    fn push_event(&mut self, at_us: u64, kind: EventKind) {
        // Latest first, so the new event moves in front of every event due
        // at or before it: equal times keep scheduling order, as a
        // sequence number would. The queue is a handful long.
        self.events.push(Event { at_us, kind });
        let mut i = self.events.len() - 1;
        while i > 0 && self.events[i - 1].at_us <= at_us {
            self.events.swap(i - 1, i);
            i -= 1;
        }
    }

    fn handle(&mut self, kind: EventKind) {
        let now_us = self.clock.as_micros();
        match kind {
            EventKind::PhaseArrive { slot } => {
                let job = &mut self.jobs[slot];
                let start = job.phase.checked_sub(1).map_or(0, |p| job.ends[p]);
                let end = job.ends[job.phase];
                job.outstanding = end - start;
                for &op in &self.jobs[slot].ops[start..end] {
                    debug_assert!(op.disk < self.disks.len(), "op addressed to missing disk");
                    let d = &mut self.disks[op.disk];
                    d.pending.push(QueuedOp {
                        op,
                        arrival_us: now_us,
                        slot,
                    });
                    d.stats.max_queue_depth = d.stats.max_queue_depth.max(d.pending.len());
                }
                // Every touched disk dispatches once, in first-touch order,
                // after the whole phase is queued: a disk's first call
                // leaves it busy, so its later calls return at once.
                for i in start..end {
                    self.try_dispatch(self.jobs[slot].ops[i].disk);
                }
            }
            EventKind::OpComplete { disk, slot } => {
                self.disks[disk].busy = false;
                let job = &mut self.jobs[slot];
                debug_assert!(job.outstanding > 0, "completion for idle job");
                job.outstanding -= 1;
                if job.outstanding == 0 {
                    job.phase += 1;
                    if job.phase < job.ends.len() {
                        self.push_event(now_us, EventKind::PhaseArrive { slot });
                    } else {
                        self.finish[job.id] = now_us;
                        self.free.push(slot);
                    }
                }
                self.try_dispatch(disk);
            }
        }
    }

    fn try_dispatch(&mut self, disk: usize) {
        let now_us = self.clock.as_micros();
        let d = &mut self.disks[disk];
        if d.busy || d.pending.is_empty() {
            return;
        }
        let (idx, dir) = self.sched.pick(
            &d.pending,
            |q| (q.op.lba, q.arrival_us),
            d.head,
            d.direction_up,
        );
        d.direction_up = dir;
        // `swap_remove` moves the last op into the hole, which is what
        // FIFO's index tie-break sees next (see `SchedulerKind::Fifo`).
        let q = d.pending.swap_remove(idx);
        let distance = d.head.abs_diff(q.op.lba);
        let service = self.spec.service_time(distance, q.op.nblocks).as_micros();
        d.head = q.op.lba + q.op.nblocks as u64;
        d.busy = true;
        d.stats.ops += 1;
        d.stats.busy_us += service;
        d.stats.queue_wait_us += now_us.saturating_sub(q.arrival_us);
        if q.op.write {
            d.stats.blocks_written += q.op.nblocks as u64;
        } else {
            d.stats.blocks_read += q.op.nblocks as u64;
        }
        self.push_event(
            now_us + service,
            EventKind::OpComplete { disk, slot: q.slot },
        );
    }
}

/// Convenience: service a single isolated request on an idle array and
/// return its latency. Used heavily in unit tests and microbenches.
pub fn isolated_latency(
    sim: &mut ArraySim,
    at: SimTime,
    pba: Pba,
    nblocks: u32,
    write: bool,
) -> SimDuration {
    let job = if write {
        sim.submit_write(at, pba, nblocks)
    } else {
        sim.submit_read(at, pba, nblocks)
    };
    sim.run_to_idle();
    sim.job_completion(job).expect("job ran to completion") - at
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RaidConfig;

    /// The paper array over test disks (10,000 blocks, seek 100 µs +
    /// 900 µs × √(distance / 10,000), half a revolution 5,000 µs, 10 µs
    /// per block), FIFO.
    fn raid5_sim() -> ArraySim {
        ArraySim::new(
            RaidGeometry::new(RaidConfig::paper_raid5()),
            DiskSpec::test_disk(),
            SchedulerKind::Fifo,
        )
    }

    /// The data block stored at `local` on member `disk` of the paper
    /// array. Panics on a parity block: member `d` holds parity at
    /// locals `16s..16s+16` of the stripes `s ≡ d (mod 4)`.
    fn member_pba(disk: usize, local: u64) -> Pba {
        let g = RaidGeometry::new(RaidConfig::paper_raid5());
        (0..3 * DiskSpec::test_disk().capacity_blocks)
            .map(Pba::new)
            .find(|&pba| g.map_block(pba) == (disk, local))
            .expect("a data block, not parity")
    }

    #[test]
    fn single_read_latency_matches_model() {
        let mut sim = raid5_sim();
        // Head at 0; read 1 block at local 2500 of disk 1: seek(2500) =
        // 100 + 900 × √0.25 = 550, + rot 5000 + xfer 10 = 5560 µs.
        let lat = isolated_latency(&mut sim, SimTime::ZERO, member_pba(1, 2_500), 1, false);
        assert_eq!(lat.as_micros(), 5_560);
    }

    #[test]
    fn sequential_read_after_read_is_transfer_only() {
        let mut sim = raid5_sim();
        let j1 = sim.submit_read(SimTime::ZERO, member_pba(1, 100), 4);
        sim.run_to_idle();
        let t1 = sim.job_completion(j1).expect("j1 done");
        // Disk 1's head now at local 104; the read continues there.
        let j2 = sim.submit_read(t1, member_pba(1, 104), 4);
        sim.run_to_idle();
        let t2 = sim.job_completion(j2).expect("j2 done");
        assert_eq!((t2 - t1).as_micros(), 40, "4 blocks * 10us, no seek");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the array's clock")]
    fn a_job_before_the_clock_is_refused_in_a_debug_build() {
        let mut sim = raid5_sim();
        sim.run_until(SimTime::from_micros(1_000));
        // At the clock is in time; one microsecond before it is not.
        sim.submit_read(SimTime::from_micros(1_000), member_pba(1, 0), 1);
        sim.submit_read(SimTime::from_micros(999), member_pba(1, 0), 1);
    }

    #[test]
    fn queueing_delays_second_job() {
        let mut sim = raid5_sim();
        let pba = member_pba(1, 5_000);
        let j1 = sim.submit_read(SimTime::ZERO, pba, 1);
        let j2 = sim.submit_read(SimTime::ZERO, pba, 1);
        sim.run_to_idle();
        let t1 = sim.job_completion(j1).expect("j1");
        let t2 = sim.job_completion(j2).expect("j2");
        assert!(t2 > t1, "second job waits for the first");
        // Second job: head already at local 5001, seek distance 1.
        assert!(t2.as_micros() > t1.as_micros());
    }

    #[test]
    fn rmw_write_takes_two_phases() {
        let mut sim = raid5_sim();
        // Small 1-block write: phase1 reads (data + parity), phase2 writes.
        // Use a non-zero PBA so the pre-reads pay a real seek.
        let w = isolated_latency(&mut sim, SimTime::ZERO, Pba::new(1_000), 1, true);
        // Phase 1: parallel reads on two disks (~5.3ms with seek+rotation);
        // phase 2: dependent writes (~5.1ms). Two dependent random
        // accesses ≈ 10.4ms; well under 4 serial accesses.
        let single_read = {
            let mut fresh = raid5_sim();
            isolated_latency(&mut fresh, SimTime::ZERO, Pba::new(1_000), 1, false)
        };
        assert!(
            w.as_micros() > single_read.as_micros() + 4_000,
            "has a dependent second phase: write {w:?} vs read {single_read:?}"
        );
        assert!(w.as_micros() < 4 * single_read.as_micros());
        let stats = sim.disk_stats();
        let total_ops: u64 = stats.iter().map(|s| s.ops).sum();
        assert_eq!(total_ops, 4, "RMW = 2 reads + 2 writes");
    }

    #[test]
    fn full_stripe_write_single_phase() {
        let mut sim = raid5_sim();
        let _ = isolated_latency(&mut sim, SimTime::ZERO, Pba::new(0), 48, true);
        let stats = sim.disk_stats();
        let reads: u64 = stats.iter().map(|s| s.blocks_read).sum();
        let writes: u64 = stats.iter().map(|s| s.blocks_written).sum();
        assert_eq!(reads, 0, "full stripe needs no pre-reads");
        assert_eq!(writes, 64, "48 data + 16 parity");
    }

    #[test]
    fn reads_fan_out_across_disks() {
        let mut sim = raid5_sim();
        // 32-block read spans units on two disks; they run concurrently,
        // so latency is far less than 2x a single-disk access.
        let lat = isolated_latency(&mut sim, SimTime::ZERO, Pba::new(0), 32, false);
        let serial_estimate = 2 * (100 + 5_000 + 160);
        assert!(
            lat.as_micros() < serial_estimate,
            "parallel fan-out expected: {lat:?}"
        );
        let stats = sim.disk_stats();
        assert!(stats.iter().filter(|s| s.ops > 0).count() >= 2);
    }

    #[test]
    fn job_ids_are_dense_submission_indices() {
        let mut sim = raid5_sim();
        let mut ids = Vec::new();
        let mut at = SimTime::ZERO;
        for _ in 0..3 {
            for i in 0..8u64 {
                at += SimDuration::from_micros(50_000);
                sim.run_until(at);
                // A pure-metadata job, a swap-style streaming write, an
                // RMW write and a read: each takes the next index.
                ids.push(sim.submit_job(at, |plan| plan.end_phase()));
                ids.push(
                    sim.submit_job(at, |plan| plan.stream_write(Pba::new(4_096 + i * 64), 64)),
                );
                ids.push(sim.submit_write(at, Pba::new(i * 37), 4));
                ids.push(sim.submit_read(at, Pba::new(i * 101), 8));
            }
        }
        sim.run_to_idle();
        // Completed jobs handed their slots back, so slots were reused
        // while ids kept counting.
        assert!(sim.jobs.len() < ids.len() / 4, "slots reused");
        for (n, &id) in ids.iter().enumerate() {
            assert_eq!(id, JobId::from_index(n));
            assert_eq!(id.index(), n);
            assert!(sim.job_completion(id).is_some(), "job {n} completed");
        }
    }

    #[test]
    fn empty_job_completes_at_submit_time() {
        let mut sim = raid5_sim();
        let at = SimTime::from_micros(123);
        let j = sim.submit_job(at, |plan| plan.end_phase());
        assert_eq!(sim.job_completion(j), Some(at));
    }

    #[test]
    fn empty_phases_are_skipped() {
        let mut sim = raid5_sim();
        let j = sim.submit_job(SimTime::ZERO, |plan| {
            plan.end_phase();
            plan.read(Pba::new(0), 1);
            plan.end_phase();
            plan.end_phase();
        });
        sim.run_to_idle();
        // One phase: a single 1-block read at the head (pba 0 is local 0
        // of disk 1), transfer only.
        assert_eq!(sim.job_completion(j), Some(SimTime::from_micros(10)));
    }

    #[test]
    fn fifo_ties_follow_the_queue_not_submission_order() {
        // All four reads go to disk 1. J0 keeps it busy while J1
        // (t = 1 µs) and then J2 and J3 (both t = 2 µs) queue.
        // Dispatching J1 swap-removes it, moving J3 into index 0, so
        // FIFO's lowest-index tie-break serves J3 before J2. Pinned:
        // changing it would move simulated latencies. By local LBA:
        //   J0: 16 blocks at 0, head at 0: 160 → done 160, head 16.
        //   J1: at 8116, distance 8100: 100 + 900 × √0.81 = 910,
        //       + 5000 + 10 → 5920, done 6080, head 8117.
        //   J3: at 4517, distance 3600: 100 + 900 × √0.36 = 640,
        //       + 5010 → 5650, done 11730, head 4518.
        //   J2: at 2018, distance 2500: 550 + 5010 → 5560, done 17290.
        let mut sim = raid5_sim();
        sim.submit_read(SimTime::ZERO, member_pba(1, 0), 16);
        let j1 = sim.submit_read(SimTime::from_micros(1), member_pba(1, 8_116), 1);
        let j2 = sim.submit_read(SimTime::from_micros(2), member_pba(1, 2_018), 1);
        let j3 = sim.submit_read(SimTime::from_micros(2), member_pba(1, 4_517), 1);
        sim.run_to_idle();
        let at = |j| sim.job_completion(j).expect("done").as_micros();
        assert_eq!((at(j1), at(j3), at(j2)), (6_080, 11_730, 17_290));
    }

    #[test]
    fn finished_jobs_give_their_slot_back() {
        // Jobs that complete before the next submission reuse one slot.
        let mut sim = raid5_sim();
        for i in 0..100u64 {
            let at = SimTime::from_micros(i * 100_000);
            sim.run_until(at);
            sim.submit_write(at, Pba::new(i * 37), 4);
        }
        sim.run_to_idle();
        assert_eq!(sim.jobs.len(), 1);
        assert_eq!(sim.free, [0]);
    }

    #[test]
    fn run_until_is_incremental() {
        let mut sim = raid5_sim();
        let j = sim.submit_read(SimTime::ZERO, Pba::new(5_000), 1);
        sim.run_until(SimTime::from_micros(10));
        assert!(sim.job_completion(j).is_none(), "op still in flight");
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.job_completion(j).is_some());
    }

    #[test]
    fn run_until_exact_boundary_completes_the_event() {
        // Regression for the heap-drain rewrite: an event scheduled at
        // exactly `t` must be processed by `run_until(t)` (the bound is
        // inclusive), and the job must not complete one call late.
        let mut sim = raid5_sim();
        let j = sim.submit_read(SimTime::ZERO, Pba::new(10_000), 1);
        let done = {
            let mut probe = raid5_sim();
            let p = probe.submit_read(SimTime::ZERO, Pba::new(10_000), 1);
            probe.run_to_idle();
            probe.job_completion(p).expect("probe completes")
        };
        sim.run_until(SimTime::from_micros(done.as_micros() - 1));
        assert!(sim.job_completion(j).is_none(), "one µs early: in flight");
        sim.run_until(done);
        assert_eq!(sim.job_completion(j), Some(done), "exact bound completes");
    }

    #[test]
    fn fine_grained_run_until_matches_run_to_idle() {
        // Advancing in 1ms slices must land every completion on the same
        // timestamp as a single drain — the peek-then-pop fix's contract.
        let drive = |slice_us: u64| {
            let mut sim = raid5_sim();
            let mut jobs = Vec::new();
            for i in 0..40u64 {
                let at = SimTime::from_micros(i * 700);
                jobs.push(sim.submit_read(at, Pba::new(i * 997 % 3_000), 2));
            }
            if slice_us == 0 {
                sim.run_to_idle();
            } else {
                for step in 1..=200u64 {
                    sim.run_until(SimTime::from_micros(step * slice_us));
                }
                sim.run_to_idle();
            }
            jobs.iter()
                .map(|j| sim.job_completion(*j).expect("done").as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(drive(0), drive(1_000));
    }

    #[test]
    fn mean_queue_wait_is_zero_not_nan_before_any_op() {
        let sim = raid5_sim();
        let w = sim.mean_queue_wait_us();
        assert_eq!(w, 0.0, "no completed ops must read as 0.0, not NaN");
        assert!(!w.is_nan());
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = raid5_sim();
            let mut jobs = Vec::new();
            for i in 0..50u64 {
                let at = SimTime::from_micros(i * 100);
                if i % 3 == 0 {
                    jobs.push(sim.submit_write(at, Pba::new(i * 7 % 2_000), 4));
                } else {
                    jobs.push(sim.submit_read(at, Pba::new(i * 13 % 2_000), 8));
                }
            }
            sim.run_to_idle();
            jobs.iter()
                .map(|j| sim.job_completion(*j).expect("done").as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = raid5_sim();
        // A 4-block RMW write at local 328 of data disk 3, parity at
        // local 328 of disk 0. Each of the two pre-reads, from head 0:
        // seek(328) = 100 + 900 × √0.0328 ≈ 263, + 5000 + 40 = 5303,
        // head at 332; each write back at distance 4: 100 + 900 × √0.0004
        // = 118, + 5040 = 5158.
        let _ = isolated_latency(&mut sim, SimTime::ZERO, member_pba(3, 328), 4, true);
        let rmw = DiskStats {
            ops: 2,
            blocks_read: 4,
            blocks_written: 4,
            busy_us: 5_303 + 5_158,
            queue_wait_us: 0,
            max_queue_depth: 1,
        };
        let idle = DiskStats::default();
        assert_eq!(sim.disk_stats(), [rmw, idle, idle, rmw]);
    }

    #[test]
    fn sstf_reorders_queue() {
        // Two ops queued while disk busy: SSTF services the nearer one
        // first even though it arrived later.
        let mk = |sched| {
            let mut sim = ArraySim::new(
                RaidGeometry::new(RaidConfig::paper_raid5()),
                DiskSpec::test_disk(),
                sched,
            );
            // Occupy disk 1 with a long op at local 0.
            let _busy = sim.submit_read(SimTime::ZERO, member_pba(1, 0), 16);
            // Queue on disk 1: far op arrives first, near op second.
            let far = sim.submit_read(SimTime::from_micros(1), member_pba(1, 9_000), 1);
            let near = sim.submit_read(SimTime::from_micros(2), member_pba(1, 170), 1);
            sim.run_to_idle();
            (
                sim.job_completion(far).expect("far"),
                sim.job_completion(near).expect("near"),
            )
        };
        let (far_fifo, near_fifo) = mk(SchedulerKind::Fifo);
        assert!(far_fifo < near_fifo, "FIFO services in arrival order");
        let (far_sstf, near_sstf) = mk(SchedulerKind::Sstf);
        assert!(near_sstf < far_sstf, "SSTF jumps to the near op");
    }

    #[test]
    fn full_stripe_read_parallelizes() {
        let mut sim = raid5_sim();
        // Stripe 0 = one 16-block unit on each data disk (1, 2, 3), each
        // at local 0 under the head: 160 µs apiece, all at once.
        let lat = isolated_latency(&mut sim, SimTime::ZERO, Pba::new(0), 48, false);
        assert_eq!(lat.as_micros(), 160, "one unit's transfer, not three");
        let ops: Vec<u64> = sim.disk_stats().iter().map(|s| s.ops).collect();
        assert_eq!(ops, [0, 1, 1, 1], "every data disk busy, parity idle");
    }

    #[test]
    fn utilization_and_queue_wait_probes() {
        let mut sim = raid5_sim();
        // Two back-to-back ops on disk 1: the second waits for the first.
        sim.submit_read(SimTime::ZERO, member_pba(1, 5_000), 1);
        sim.submit_read(SimTime::ZERO, member_pba(1, 100), 1);
        sim.run_to_idle();
        let u = sim.disk_stats()[1].busy_us as f64 / sim.now().as_micros() as f64;
        assert!(u > 0.9, "serial ops keep the member busy: {u}");
        assert!(sim.mean_queue_wait_us() > 0.0, "second op queued");
    }

    #[test]
    fn data_capacity_excludes_parity() {
        let sim = raid5_sim();
        assert_eq!(
            sim.data_capacity_blocks(),
            3 * DiskSpec::test_disk().capacity_blocks
        );
    }
}
