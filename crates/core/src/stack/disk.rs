//! The disk layer: phase planning and submission behind a trait.
//!
//! [`DiskBackend`] is the seam the ROADMAP's multi-backend direction
//! plugs into: the replay driver and its background steps speak extents and
//! jobs, never RAID geometry. [`ArrayBackend`] is the paper's HDD
//! RAID-5 array ([`ArraySim`]) plus the replay's reserved-region layout
//! (on-disk index probes, iCache swap area).
//!
//! Two decorators wrap it. [`FaultyBackend`] injects faults.
//! `ThreadedBackend` runs the array on a worker thread: the replay's
//! calls become a command log the worker applies in order, and the
//! replay reads completions once, after [`DiskBackend::run_to_idle`].
//! [`disk_on_own_thread`] is the rule that picks it.

use crate::config::FaultPlan;
use crate::obs::FaultKind;
use crate::pool;
use crate::runner::ReplaySizing;
use pod_disk::engine::DiskStats;
use pod_disk::{ArraySim, JobId};
use pod_types::rng::SplitMix64;
use pod_types::{Pba, SimDuration, SimTime};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

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
///
/// Submissions and clock advances may be applied later, elsewhere:
/// a submission returns its [`JobId`] at once, but
/// [`completion`](Self::completion) and [`stats`](Self::stats) may only
/// be queried after [`run_to_idle`](Self::run_to_idle).
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

    /// Submit background scan reads (not tied to a request's latency):
    /// a read whose job nobody waits on.
    fn submit_scan_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) {
        self.submit_read(at, extents);
    }

    /// Charge `blocks` of iCache swap traffic as sequential writes in
    /// the reserved swap region.
    fn submit_swap(&mut self, at: SimTime, blocks: u64);

    /// Completion time of `job`, if it has finished. Only valid after
    /// [`run_to_idle`](Self::run_to_idle).
    fn completion(&self, job: JobId) -> Option<SimTime>;

    /// Final per-disk statistics. Only valid after
    /// [`run_to_idle`](Self::run_to_idle).
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

    /// [`DiskBackend::submit_swap`], returning the job it submitted.
    fn swap(&mut self, at: SimTime, blocks: u64) -> JobId {
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
        })
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

    fn submit_swap(&mut self, at: SimTime, blocks: u64) {
        self.swap(at, blocks);
    }

    fn completion(&self, job: JobId) -> Option<SimTime> {
        self.sim.job_completion(job)
    }

    fn stats(&self) -> Vec<DiskStats> {
        self.sim.disk_stats()
    }
}

/// Whether a stack built now runs its simulated array on a thread of
/// its own: when [`pool::default_width`] (`--jobs`, or the machine's
/// available parallelism) is 2 or more, for a solo replay, a serve
/// shard's tenants and an experiment grid's stacks alike, profiled or
/// not. Results never depend on the answer.
pub fn disk_on_own_thread() -> bool {
    pool::default_width() >= 2
}

/// Commands a batch of the disk log holds before it is handed over.
const BATCH_COMMANDS: usize = 1_024;
/// Extents a batch holds before it is handed over; a batch grows past
/// this only for a single command that carries more.
const BATCH_EXTENTS: usize = 4_096;
/// Batches in circulation between the two threads. The front end fills
/// one while the worker applies another; the rest let either side run
/// ahead. Recycling a fixed set keeps the steady state allocation-free.
const BATCHES: usize = 4;

/// One call of the disk log. Extents live in the batch's flat
/// `extents` vector, named by `start..end`; every submission carries
/// the id the front end handed out for it.
#[derive(Clone, Copy, Debug)]
enum Command {
    RunUntil(SimTime),
    Write {
        at: SimTime,
        start: u32,
        end: u32,
        lookups: u32,
        job: JobId,
    },
    /// A request read or a background scan read (the same job).
    Read {
        at: SimTime,
        start: u32,
        end: u32,
        job: JobId,
    },
    Swap {
        at: SimTime,
        blocks: u64,
        job: JobId,
    },
}

/// A run of the disk log, with its extents stored flat.
struct Batch {
    commands: Vec<Command>,
    extents: Vec<(Pba, u32)>,
}

impl Batch {
    fn new() -> Self {
        Self {
            commands: Vec::with_capacity(BATCH_COMMANDS),
            extents: Vec::with_capacity(BATCH_EXTENTS),
        }
    }

    /// Apply every command in order to `array`, then empty the batch.
    fn apply(&mut self, array: &mut ArrayBackend) {
        for &cmd in &self.commands {
            let (job, got) = match cmd {
                Command::RunUntil(t) => {
                    array.run_until(t);
                    continue;
                }
                Command::Write {
                    at,
                    start,
                    end,
                    lookups,
                    job,
                } => (
                    job,
                    array.submit_write(at, &self.extents[start as usize..end as usize], lookups),
                ),
                Command::Read {
                    at,
                    start,
                    end,
                    job,
                } => (
                    job,
                    array.submit_read(at, &self.extents[start as usize..end as usize]),
                ),
                Command::Swap { at, blocks, job } => (job, array.swap(at, blocks)),
            };
            debug_assert_eq!(got, job, "a job id is its submission index");
        }
        self.commands.clear();
        self.extents.clear();
    }
}

/// The front end's end of a running disk worker.
struct Worker {
    /// The batch being filled.
    batch: Batch,
    /// Filled batches, to the worker.
    full: SyncSender<Batch>,
    /// Applied (emptied) batches, back from the worker.
    empty: Receiver<Batch>,
    thread: JoinHandle<ArrayBackend>,
    /// Jobs submitted so far: the next job's id.
    jobs: usize,
}

impl Worker {
    fn spawn(array: ArrayBackend) -> Self {
        let (full, to_apply) = sync_channel::<Batch>(BATCHES);
        let (applied, empty) = sync_channel::<Batch>(BATCHES);
        for _ in 1..BATCHES {
            applied
                .send(Batch::new())
                .expect("the channel holds every batch");
        }
        let thread = std::thread::Builder::new()
            .name("pod-disk".into())
            .spawn(move || {
                let mut array = array;
                for mut batch in to_apply {
                    batch.apply(&mut array);
                    // Fails only once the front end stopped taking
                    // batches back, i.e. it is joining.
                    let _ = applied.send(batch);
                }
                array
            })
            .expect("spawn the disk worker thread");
        Self {
            batch: Batch::new(),
            full,
            empty,
            thread,
            jobs: 0,
        }
    }

    fn next_job(&mut self) -> JobId {
        self.jobs += 1;
        JobId::from_index(self.jobs - 1)
    }

    /// Log a command whose extents are `extents`. `false` if the worker
    /// is gone.
    fn push(&mut self, extents: &[(Pba, u32)], cmd: impl FnOnce(u32, u32) -> Command) -> bool {
        let fits = self.batch.extents.len() + extents.len() <= BATCH_EXTENTS;
        if !fits && !self.batch.commands.is_empty() && !self.hand_over() {
            return false;
        }
        let start = self.batch.extents.len() as u32;
        self.batch.extents.extend_from_slice(extents);
        let end = self.batch.extents.len() as u32;
        self.batch.commands.push(cmd(start, end));
        self.batch.commands.len() < BATCH_COMMANDS || self.hand_over()
    }

    /// Send the filled batch and take an empty one back, waiting for
    /// the worker if it holds them all. `false` if the worker is gone.
    fn hand_over(&mut self) -> bool {
        let Ok(next) = self.empty.recv() else {
            return false;
        };
        let filled = std::mem::replace(&mut self.batch, next);
        self.full.send(filled).is_ok()
    }

    /// Hand over the rest of the log, wait for the worker to apply
    /// everything it holds, and take the array back — or the worker's
    /// panic.
    fn join(self) -> std::thread::Result<ArrayBackend> {
        let Worker {
            batch,
            full,
            thread,
            ..
        } = self;
        if !batch.commands.is_empty() {
            // A failed send means the worker died; the join reports how.
            let _ = full.send(batch);
        }
        drop(full);
        thread.join()
    }
}

/// A decorator that runs an [`ArrayBackend`] on a worker thread.
///
/// Every call becomes a command in a log. A submission's [`JobId`] is
/// its submission index, so it is returned at once; consecutive
/// `run_until` calls coalesce by `max`, because the array's clock is
/// `max(clock, t)`. Full batches of about a thousand commands cross a
/// bounded channel, and the worker applies them in order to the real
/// array, so every simulated result is the one an inline array gives.
/// [`run_to_idle`](DiskBackend::run_to_idle) hands over the last
/// batch, joins the worker and takes the array back; the queries that
/// follow are inline. Feeding the log after that join breaks the
/// [`DiskBackend`] contract and panics, as a query before it does. A
/// panic on the worker resurfaces as a panic of the caller at the next
/// hand-over or the join. Dropping the backend joins the worker too.
pub(crate) struct ThreadedBackend {
    /// The worker, until it is joined.
    worker: Option<Worker>,
    /// The array, once it is back on this thread.
    array: Option<ArrayBackend>,
}

impl ThreadedBackend {
    /// Move `array` onto a new worker thread.
    pub(crate) fn spawn(array: ArrayBackend) -> Self {
        Self {
            worker: Some(Worker::spawn(array)),
            array: None,
        }
    }

    fn worker(&mut self) -> &mut Worker {
        self.worker
            .as_mut()
            .expect("disk fed after run_to_idle joined its worker")
    }

    /// Log a submission with `extents`, returning its id.
    fn log(
        &mut self,
        extents: &[(Pba, u32)],
        cmd: impl FnOnce(u32, u32, JobId) -> Command,
    ) -> JobId {
        let worker = self.worker();
        let job = worker.next_job();
        if !worker.push(extents, |start, end| cmd(start, end, job)) {
            self.resurface_worker_panic();
        }
        job
    }

    /// The worker stopped taking commands, which only a panic does:
    /// join it and continue its panic here.
    fn resurface_worker_panic(&mut self) -> ! {
        let worker = self.worker.take().expect("a worker to join");
        match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("the disk worker stopped while its log was open"),
        }
    }

    fn array(&self) -> &ArrayBackend {
        self.array
            .as_ref()
            .expect("disk queried before run_to_idle joined its worker")
    }
}

impl DiskBackend for ThreadedBackend {
    fn run_until(&mut self, t: SimTime) {
        let worker = self.worker();
        if let Some(Command::RunUntil(last)) = worker.batch.commands.last_mut() {
            *last = (*last).max(t);
        } else if !worker.push(&[], |_, _| Command::RunUntil(t)) {
            self.resurface_worker_panic();
        }
    }

    fn run_to_idle(&mut self) {
        if let Some(worker) = self.worker.take() {
            match worker.join() {
                Ok(array) => self.array = Some(array),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        self.array
            .as_mut()
            .expect("the array is back once the worker is joined")
            .run_to_idle();
    }

    fn submit_write(&mut self, at: SimTime, extents: &[(Pba, u32)], index_lookups: u32) -> JobId {
        self.log(extents, |start, end, job| Command::Write {
            at,
            start,
            end,
            lookups: index_lookups,
            job,
        })
    }

    fn submit_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) -> JobId {
        self.log(extents, |start, end, job| Command::Read {
            at,
            start,
            end,
            job,
        })
    }

    fn submit_swap(&mut self, at: SimTime, blocks: u64) {
        self.log(&[], |_, _, job| Command::Swap { at, blocks, job });
    }

    fn completion(&self, job: JobId) -> Option<SimTime> {
        self.array().completion(job)
    }

    fn stats(&self) -> Vec<DiskStats> {
        self.array().stats()
    }
}

impl Drop for ThreadedBackend {
    /// A stack dropped mid-replay: the worker finishes the batches it
    /// was handed and exits; wait for it, so no thread outlives the
    /// stack. A drop must not panic, so a worker panic is left to the
    /// message its thread already printed.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Added service delay of one transparent retry, µs.
const RETRY_US: u64 = 500;
/// Extra latency of a latency spike, µs.
const LATENCY_SPIKE_US: u64 = 8_000;
/// Recovery downtime a crash charges its crashing submission, µs.
const CRASH_RECOVERY_US: u64 = 50_000;

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
///    crash-recovery pass. The inner backend is not queried at the
///    crash: a job in flight then is one whose final finish lies past
///    the crash point, which [`completion`](DiskBackend::completion)
///    resolves after the replay.
/// 2. **Transient error**: the submission fails once and is retried
///    after `RETRY_US` (500 µs; transparent to the caller).
/// 3. **Torn write** (multi-extent writes only): a prefix of the
///    extents lands first as an orphan job, then the full write is
///    replayed after `RETRY_US` — modeling the partial landing plus
///    the recovery rewrite.
/// 4. **Latency spike**: the submission is delayed by
///    `LATENCY_SPIKE_US` (8 ms).
pub struct FaultyBackend {
    inner: Box<dyn DiskBackend>,
    plan: FaultPlan,
    /// Fault decision stream.
    rng: SplitMix64,
    /// Foreground jobs submitted so far (crash trigger).
    jobs_submitted: u64,
    /// Foreground jobs submitted before the crash: (job, submit time),
    /// in submission order.
    outstanding: Vec<(JobId, SimTime)>,
    /// The crash point, once crashed; `outstanding` then lists the
    /// jobs submitted before it.
    crashed_at: Option<SimTime>,
    /// Queued fault records, drained by the stack after each request.
    records: Vec<FaultRecord>,
}

impl FaultyBackend {
    /// Wrap `inner` with the fault plan.
    pub fn new(inner: Box<dyn DiskBackend>, plan: FaultPlan) -> Self {
        Self {
            inner,
            // splitmix64 of seed 0 starts weak; mix the seed once.
            rng: SplitMix64::new(plan.seed ^ 0x9E37_79B9_7F4A_7C15),
            plan,
            jobs_submitted: 0,
            outstanding: Vec::new(),
            crashed_at: None,
            records: Vec::new(),
        }
    }

    /// One 1-in-`rate` decision (0 = never). Consumes the stream only
    /// for enabled classes, which is still deterministic: enabledness
    /// is fixed for the whole replay.
    fn roll(&mut self, rate: u64) -> bool {
        rate > 0 && self.rng.next_u64().is_multiple_of(rate)
    }

    /// Record a foreground job for the crash to drop; after the crash
    /// none is needed.
    fn note_outstanding(&mut self, job: JobId, submit: SimTime) {
        if self.crashed_at.is_none() {
            self.outstanding.push((job, submit));
        }
    }

    /// Crash check, shared by the read and write paths. Returns the
    /// extra delay (downtime) charged to the crashing submission.
    fn maybe_crash(&mut self, at: SimTime) -> u64 {
        self.jobs_submitted += 1;
        if self.crashed_at.is_some() || self.plan.crash_after_jobs != Some(self.jobs_submitted) {
            return 0;
        }
        // Everything due by the crash point completes; the rest is
        // dropped, which `completion` resolves once the replay is done.
        // The array's clock stays where the replay put it: a request
        // arriving before the crash point still submits at or after the
        // clock (`ArraySim::submit_job`).
        self.crashed_at = Some(at);
        self.records.push(FaultRecord {
            kind: FaultKind::Crash,
            delay_us: CRASH_RECOVERY_US,
            auto_recovered: false,
        });
        CRASH_RECOVERY_US
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
        if self.roll(self.plan.error_rate) {
            delay_us += RETRY_US;
            self.records.push(FaultRecord {
                kind: FaultKind::WriteError,
                delay_us: RETRY_US,
                auto_recovered: true,
            });
        }
        let torn = extents.len() > 1 && self.roll(self.plan.torn_write_rate);
        if self.roll(self.plan.latency_spike_rate) {
            delay_us += LATENCY_SPIKE_US;
            self.records.push(FaultRecord {
                kind: FaultKind::LatencySpike,
                delay_us: LATENCY_SPIKE_US,
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
                delay_us: RETRY_US,
                auto_recovered: true,
            });
            let replay_at = eff + SimDuration::from_micros(RETRY_US);
            let job = self.inner.submit_write(replay_at, extents, index_lookups);
            self.note_outstanding(job, replay_at);
            return job;
        }
        let job = self.inner.submit_write(eff, extents, index_lookups);
        self.note_outstanding(job, eff);
        job
    }

    fn submit_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) -> JobId {
        let mut delay_us = self.maybe_crash(at);
        if self.roll(self.plan.error_rate) {
            delay_us += RETRY_US;
            self.records.push(FaultRecord {
                kind: FaultKind::ReadError,
                delay_us: RETRY_US,
                auto_recovered: true,
            });
        }
        if self.roll(self.plan.latency_spike_rate) {
            delay_us += LATENCY_SPIKE_US;
            self.records.push(FaultRecord {
                kind: FaultKind::LatencySpike,
                delay_us: LATENCY_SPIKE_US,
                auto_recovered: false,
            });
        }
        let eff = at + SimDuration::from_micros(delay_us);
        let job = self.inner.submit_read(eff, extents);
        self.note_outstanding(job, eff);
        job
    }

    /// Background reads pass through unfaulted.
    fn submit_scan_read(&mut self, at: SimTime, extents: &[(Pba, u32)]) {
        self.inner.submit_scan_read(at, extents);
    }

    fn submit_swap(&mut self, at: SimTime, blocks: u64) {
        self.inner.submit_swap(at, blocks);
    }

    /// A foreground job the crash caught in flight — one submitted
    /// before it that finishes after it — "completes" at the crash
    /// point, never earlier than its own submission, so durations
    /// stay non-negative.
    fn completion(&self, job: JobId) -> Option<SimTime> {
        let done = self.inner.completion(job)?;
        let Some(crash) = self.crashed_at.filter(|&crash| done > crash) else {
            return Some(done);
        };
        match self
            .outstanding
            .binary_search_by_key(&job.index(), |(j, _)| j.index())
        {
            Ok(i) => Some(crash.max(self.outstanding[i].1)),
            Err(_) => Some(done),
        }
    }

    fn stats(&self) -> Vec<DiskStats> {
        self.inner.stats()
    }

    fn drain_faults(&mut self, out: &mut Vec<FaultRecord>) {
        out.append(&mut self.records);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_disk::{DiskSpec, RaidConfig, RaidGeometry, SchedulerKind};
    use std::panic::AssertUnwindSafe;

    /// The paper's RAID-5 on test disks, with `region_blocks`-block
    /// index and swap regions past a 4,096-block data area.
    fn array(region_blocks: u64) -> ArrayBackend {
        let sim = ArraySim::new(
            RaidGeometry::new(RaidConfig::paper_raid5()),
            DiskSpec::test_disk(),
            SchedulerKind::Fifo,
        );
        let sizing = ReplaySizing {
            logical_blocks: 4_096,
            overflow_blocks: 4_096,
            region_blocks,
            index_region_base: 8_192,
            swap_region_base: 8_192 + region_blocks,
            needed_blocks: 8_192 + 2 * region_blocks,
            expected_unique_blocks: 4_096,
            max_request_blocks: 8,
        };
        ArrayBackend::new(sim, &sizing)
    }

    /// Fault decisions draw SplitMix64 from the plan seed mixed once;
    /// `pod-types`' known-answer test pins that stream's values.
    #[test]
    fn fault_stream_is_splitmix64_from_the_mixed_seed() {
        for seed in [0, 7] {
            let mut faulty = FaultyBackend::new(Box::new(array(1_024)), FaultPlan::transient(seed));
            let mut want = SplitMix64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
            for _ in 0..6 {
                assert_eq!(faulty.rng.next_u64(), want.next_u64(), "seed {seed}");
            }
        }
    }

    /// Every kind of call, over enough commands to cycle every batch
    /// several times, with clock advances that repeat and go backwards
    /// (both coalesce) and one read wider than a batch's extents.
    fn drive(disk: &mut dyn DiskBackend) -> Vec<JobId> {
        let wide: Vec<(Pba, u32)> = (0..BATCH_EXTENTS as u64 + 10)
            .map(|i| (Pba::new(i * 4 % 4_096), 1))
            .collect();
        let mut jobs = Vec::new();
        for i in 0..3_000u64 {
            let at = SimTime::from_micros(i * 700);
            disk.run_until(at);
            disk.run_until(SimTime::from_micros((i * 700).saturating_sub(300)));
            let extents = [
                (Pba::new(i * 13 % 4_000), 1 + (i % 8) as u32),
                (Pba::new(i * 7 % 4_000), 2),
            ];
            match i % 5 {
                0 => jobs.push(disk.submit_write(at, &extents, (i % 3) as u32)),
                1 => jobs.push(disk.submit_read(at, &extents[..1 + i as usize % 2])),
                2 => disk.submit_scan_read(at, &extents),
                3 => disk.submit_swap(at, 1 + i % 300),
                // A pure-metadata job: no lookups, no extents.
                _ => jobs.push(disk.submit_write(at, &[], 0)),
            }
            if i == 1_500 {
                jobs.push(disk.submit_read(at, &wide));
            }
        }
        disk.run_to_idle();
        jobs
    }

    #[test]
    fn the_worker_applies_the_log_exactly_as_the_array_inline() {
        let mut inline = array(1_024);
        let mut threaded = ThreadedBackend::spawn(array(1_024));
        let jobs = drive(&mut inline);
        assert_eq!(
            drive(&mut threaded),
            jobs,
            "predicted ids are the real ones"
        );
        for &job in &jobs {
            assert_eq!(threaded.completion(job), inline.completion(job));
        }
        assert_eq!(threaded.stats(), inline.stats());
        let fed_after_join = std::panic::catch_unwind(AssertUnwindSafe(|| {
            threaded.submit_write(SimTime::from_secs(10), &[(Pba::new(0), 4)], 1)
        }));
        assert!(fed_after_join.is_err(), "the log is closed once joined");
    }

    #[test]
    fn a_worker_panic_resurfaces_in_the_caller() {
        // An empty index region makes the worker's index-probe spreader
        // divide by zero on the first write with a lookup.
        for many in [false, true] {
            let n = if many {
                2 * BATCHES * BATCH_COMMANDS
            } else {
                1
            };
            let mut submitted = 0;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let mut disk = ThreadedBackend::spawn(array(0));
                for i in 0..n {
                    disk.submit_write(SimTime::from_micros(i as u64), &[], 1);
                    submitted += 1;
                }
                disk.run_to_idle();
            }));
            let panic = result.expect_err("the worker's panic reached the caller");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("remainder"), "{message}");
            if many {
                assert!(submitted < n, "a hand-over surfaced it, not the join");
            }
        }
    }

    #[test]
    fn a_crash_pins_the_jobs_in_flight_at_it_as_a_query_at_the_crash_did() {
        // Writes every 2 ms on test disks queue up, so the crash before
        // the 40th catches some jobs in flight and finds others done.
        const CRASH_BEFORE: usize = 39;
        let plan = FaultPlan::parse("crash:40").expect("crash plan");
        let at = |i: usize| SimTime::from_micros(i as u64 * 2_000);
        let extents = |i: usize| [(Pba::new(i as u64 * 97 % 4_000), 4)];

        // The reference: the array inline, asked at the crash point
        // which earlier jobs had not completed.
        let mut reference = array(1_024);
        let mut in_flight = Vec::new();
        let mut submits = Vec::new();
        for i in 0..80 {
            reference.run_until(at(i));
            let mut submit = at(i);
            if i == CRASH_BEFORE {
                in_flight = (0..i)
                    .map(|j| reference.completion(JobId::from_index(j)).is_none())
                    .collect();
                submit += SimDuration::from_micros(CRASH_RECOVERY_US);
            }
            submits.push(submit);
            reference.submit_write(submit, &extents(i), 0);
        }
        reference.run_to_idle();
        let dropped = in_flight.iter().filter(|&&f| f).count();
        assert!(dropped > 0 && dropped < CRASH_BEFORE, "{dropped} in flight");

        let crash = at(CRASH_BEFORE);
        let inner: [Box<dyn DiskBackend>; 2] = [
            Box::new(array(1_024)),
            Box::new(ThreadedBackend::spawn(array(1_024))),
        ];
        for inner in inner {
            let mut faulty = FaultyBackend::new(inner, plan.clone());
            for i in 0..80 {
                faulty.run_until(at(i));
                faulty.submit_write(at(i), &extents(i), 0);
            }
            faulty.run_to_idle();
            for (j, &submit) in submits.iter().enumerate() {
                let job = JobId::from_index(j);
                let want = if in_flight.get(j) == Some(&true) {
                    crash.max(submit)
                } else {
                    reference.completion(job).expect("done")
                };
                assert_eq!(faulty.completion(job), Some(want), "job {j}");
            }
        }
    }
}
