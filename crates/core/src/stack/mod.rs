//! The layered storage stack.
//!
//! A replay is a [`StorageStack`] driven by a thin loop: the stack is
//! composed once from a declarative [`StackSpec`] and then processes
//! requests with **zero scheme branching** — every scheme difference is
//! a layer parameter or one of three fixed background steps that run
//! after each request, in this order: the Post-Process scan (only when
//! `spec.policy` is `PostProcess`), the iCache epoch and repartition
//! (every stack), and the tenant's shared tier (only when the serving
//! engine installed one).
//!
//! ```text
//!             IoRequest stream (trace order)
//!                        │
//!            ┌───────────▼───────────┐
//!            │      StorageStack     │  derives cache keys, plans
//!            │  (process_request)    │  reads, collects per-request
//!            └──┬────────┬────────┬──┘  response times
//!               │        │        │ after every request
//!         reads │ writes │        ▼
//!   ┌───────────▼──┐  ┌──▼───────────┐  ┌─────────────────────┐
//!   │    ICache    │  │ DedupEngine  │  │  background steps   │
//!   │ read cache + │  │ index + its  │  │ 1 post-process scan │
//!   │ its ghost,   │  │ ghost, Map,  │  │ 2 iCache repartition│
//!   │ index budget │  │ chunk store  │  │ 3 shared tier       │
//!   └───────┬──────┘  └──────┬───────┘  └──────────┬──────────┘
//!           │ misses         │ extents             │ scans / swaps
//!           └─────────┬──────┴────────────┬────────┘
//!                     ▼                   ▼
//!            ┌────────────────────────────────┐
//!            │       dyn DiskBackend          │  phase planning +
//!            │  (ArrayBackend → ArraySim)     │  simulated time
//!            └────────────────────────────────┘
//!                        │
//!                 ObserverChain  ◄── every step emits StackEvents here
//! ```
//!
//! The stack holds the paper's two controller modules itself — the
//! [`ICache`] (read cache and index budget, §III-C) and the
//! [`DedupEngine`] (Select-Dedupe and the tables behind it, §III-B) —
//! and calls them directly; [`StorageStack::icache`] and
//! [`StorageStack::engine`] expose them read-only after a replay.
//!
//! Layer contracts are the traits in this module and [`crate::obs`]:
//! [`DiskBackend`] (extents in, jobs out) and [`StackObserver`] (typed
//! [`StackEvent`]s, fanned out by the stack's [`ObserverChain`]).

mod disk;
mod spec;

pub use disk::{disk_on_own_thread, ArrayBackend, DiskBackend, FaultRecord, FaultyBackend};
pub use spec::{CacheKeying, StackSpec};

// Re-exported from `obs` where they now live, so `pod_core::stack::*`
// call sites keep compiling.
pub use crate::obs::{StackCounters, StackObserver};

use crate::config::{LatencyModel, SystemConfig};
use crate::obs::{FaultKind, Layer, ObserverChain, StackEvent, StateSnapshot};
use crate::prof::{ProfPhase, ProfSink, ProfTimer};
use crate::runner::ReplaySizing;
use crate::serve::SharedTierTask;
use pod_dedup::{DedupConfig, DedupEngine, DedupPolicy, WriteScratch};
use pod_disk::{ArraySim, JobId, RaidGeometry};
use pod_icache::{ICache, ICacheConfig};
use pod_trace::Trace;
use pod_types::{IoOp, IoRequest, Lba, Pba, PodError, PodResult, SimDuration, SimTime};

/// Requests between two in-replay Post-Process scans.
const POST_PROCESS_INTERVAL: u64 = 2_000;
/// Most queued chunks one Post-Process scan examines.
const POST_PROCESS_BATCH: usize = 16_384;
/// Service time of a read served whole from the DRAM cache, µs.
const CACHE_HIT_US: u64 = 20;

/// A disk-bound request waiting for its job: its position, its job's
/// index and the low 32 bits of its disk submit instant, µs. The
/// arrival waits in the request's response slot, and the submit instant
/// is the arrival plus `submit_low − arrival` modulo 2^32 — the exact
/// submit delay, because [`check_pending`] refuses one of 2^32 µs or
/// more before the entry is queued.
#[derive(Clone, Copy)]
struct PendingJob {
    position: u32,
    /// The job's index, or [`PendingJob::NO_JOB`].
    job: u32,
    submit_low: u32,
}

// The stack queues one per disk-bound request: keep it at three words.
const _: () = assert!(size_of::<PendingJob>() == 12);

impl PendingJob {
    /// The job field of an entry whose job index does not fit it: no
    /// job the array knows, so it has no completion.
    /// [`check_pending`] refuses such a job before it is queued.
    const NO_JOB: u32 = u32::MAX;

    /// The request's disk job, unless it is [`Self::NO_JOB`].
    fn job(self) -> Option<JobId> {
        (self.job != Self::NO_JOB).then(|| JobId::from_index(self.job as usize))
    }

    /// The submit instant of a job whose request arrived at
    /// `arrival_us`, µs.
    fn submit_us(self, arrival_us: u64) -> u64 {
        arrival_us + u64::from(self.submit_low.wrapping_sub(arrival_us as u32))
    }
}

/// The disk-bound requests still waiting for their jobs, in submission
/// order, packed as [`PendingJob`]s.
struct PendingJobs(Vec<PendingJob>);

impl PendingJobs {
    /// Queue request `position`, submitted to the disks at `submit` as
    /// `job`, after [`check_pending`] passed the three. Of the submit
    /// instant only the low 32 bits are kept, by design (see
    /// [`PendingJob`]); a job index past the field is kept as
    /// [`PendingJob::NO_JOB`], never cut to another job's.
    fn push(&mut self, (position, submit, job): (usize, SimTime, JobId)) {
        debug_assert!(
            u32::try_from(position).is_ok(),
            "position {position} passed the check"
        );
        self.0.push(PendingJob {
            position: position as u32,
            job: u32::try_from(job.index()).unwrap_or(PendingJob::NO_JOB),
            submit_low: submit.as_micros() as u32,
        });
    }
}

/// Refuse a disk-bound request whose [`PendingJob`] fields would not
/// fit: its position and its submit delay after arrival, µs, below
/// 2^32 (a large hash cost per chunk times a long write can reach 2^32
/// µs), and its job's index below [`PendingJob::NO_JOB`]. The error is
/// [`PodError::OutOfRange`] naming the request.
fn check_pending(position: usize, job: JobId, delay_us: u64) -> PodResult<()> {
    let limit = 1u64 << 32;
    let refuse =
        |what: String, value: u64, limit: u64| Err(PodError::OutOfRange { what, value, limit });
    if position as u64 >= limit {
        return refuse("request position".into(), position as u64, limit);
    }
    let job_limit = u64::from(PendingJob::NO_JOB);
    if job.index() as u64 >= job_limit {
        let what = format!("request {position}'s disk job index");
        return refuse(what, job.index() as u64, job_limit);
    }
    if delay_us >= limit {
        let what = format!("request {position}'s submit delay (µs)");
        return refuse(what, delay_us, limit);
    }
    Ok(())
}

/// A composed storage stack: the iCache and the dedup engine over the
/// disk backend, plus the background steps and the observer chain
/// threaded through all of them.
///
/// Build one per replay with [`StorageStack::with_observer`], which
/// also decides whether the simulated array runs on a thread of its
/// own ([`disk_on_own_thread`]), then:
///
/// 1. [`run_until`](Self::run_until) each request's arrival,
/// 2. [`process_request`](Self::process_request) it,
/// 3. [`finish`](Self::finish) once, and
/// 4. [`take_responses`](Self::take_responses) and read the accessors
///    ([`icache`](Self::icache), [`engine`](Self::engine),
///    [`disk`](Self::disk), [`observer`](Self::observer)).
///
/// Per-request state is one dense array of response times, 8 bytes a
/// request, indexed by request position and sized from the build
/// trace, plus a 12-byte pending job per disk-bound request. A
/// request with no disk work writes its slot when it is processed; a
/// disk-bound one parks its arrival in the slot, and `finish`, which
/// walks the pending jobs once for their disk-latency events and their
/// slots together, overwrites it with done − arrival. A caller that
/// drives positions past the build trace grows the array, amortized.
pub struct StorageStack {
    icache: ICache,
    keying: CacheKeying,
    /// Whether the dedup module exists in this stack. A stack without
    /// it (Native) still answers lookups — against an empty budget —
    /// but never write-allocates and feeds no index traffic.
    dedups: bool,
    engine: DedupEngine,
    /// The last write's surviving extents and ghost-probe feed,
    /// reused so the write path allocates nothing in steady state.
    scratch: WriteScratch,
    /// The last planned read's physical extents, reused likewise.
    read_extents: Vec<(Pba, u32)>,
    /// Fingerprinting is charged on the write's critical path.
    inline_hashing: bool,
    /// Hash cost, hashing lanes and per-request metadata time.
    latency: LatencyModel,
    disk: Box<dyn DiskBackend>,
    /// The spec's policy is [`DedupPolicy::PostProcess`]: scan every
    /// [`POST_PROCESS_INTERVAL`] requests and drain at the end.
    post_process: bool,
    /// The tenant's shared tier, installed by the serving engine under
    /// a [`ServePolicy`](crate::config::ServePolicy).
    tier: Option<SharedTierTask>,
    observer: ObserverChain,
    /// The disk-bound requests, in submission order.
    pending: PendingJobs,
    /// Response time per request position, µs; [`Self::UNRESOLVED`]
    /// until the request is processed. A disk-bound request's slot
    /// holds its arrival, µs, until [`finish`](Self::finish) resolves
    /// it.
    responses: Vec<u64>,
    /// Requests completed so far (reads + writes, incl. warm-up).
    requests_done: u64,
    /// Snapshots emitted so far; becomes [`StateSnapshot::seq`].
    snap_seq: u64,
    /// A [`FaultyBackend`] is installed; drain its records after each
    /// request. `false` keeps the hot path on the zero-overhead route.
    faults_enabled: bool,
    /// Reusable drain buffer for fault records. Starts empty and never
    /// allocates while no fault fires.
    fault_scratch: Vec<FaultRecord>,
    /// End-of-replay silent corruption target (oracle fail fixture).
    corrupt_lba: Option<u64>,
    /// Host profiling is on (the chain holds a [`ProfSink`]): each
    /// profiled phase is wrapped in a [`ProfTimer`] and its elapsed
    /// host nanoseconds emitted as [`StackEvent::HostPhase`]. Off (the
    /// default), every timer is inert and no event is emitted — the
    /// hot path pays one predictable branch per scope.
    prof: bool,
}

impl StorageStack {
    /// The response slot of a request never processed. (Until
    /// [`finish`](Self::finish) runs, a disk-bound request's slot holds
    /// its arrival instead.)
    pub const UNRESOLVED: u64 = u64::MAX;

    /// Compose the stack described by `spec` for one replay of `trace`,
    /// fanning layer events out to `observer` (an empty chain keeps the
    /// built-in counters only). A [`ProfSink`] on the chain turns the
    /// host profiler on.
    pub fn with_observer(
        spec: &StackSpec,
        cfg: &SystemConfig,
        trace: &Trace,
        observer: ObserverChain,
    ) -> PodResult<Self> {
        let sizing = ReplaySizing::try_from_trace(trace)?;

        let geometry = RaidGeometry::new(cfg.raid.clone());
        let data_capacity = cfg.raid.data_disks() as u64 * cfg.disk.capacity_blocks;
        if sizing.needed_blocks > data_capacity {
            return Err(PodError::OutOfRange {
                what: "working set (blocks)".into(),
                value: sizing.needed_blocks,
                limit: data_capacity,
            });
        }

        // The DRAM budget belongs to the dedup module (index cache +
        // read cache, Fig. 7). A stack without the module is the stock
        // array without a storage-node cache at all — the upstream
        // buffer-cache effects are already captured in the traces
        // (§IV-A).
        let memory = if spec.dedups {
            cfg.memory_bytes
                .unwrap_or(((trace.memory_budget_bytes as f64) * cfg.memory_scale) as u64)
                .max(1 << 20)
        } else {
            0
        };
        let index_fraction = if spec.dedups { cfg.index_fraction } else { 0.0 };

        let icache = ICache::new(ICacheConfig {
            total_bytes: memory,
            initial_index_fraction: index_fraction,
            epoch_requests: cfg.icache.epoch_requests,
            swap_step_fraction: cfg.icache.swap_step,
            min_fraction: cfg.icache.min_fraction,
            hysteresis: 2.0,
            read_miss_penalty_us: cfg.icache.read_penalty_us,
            // Default: an eliminated write saves a RAID-5 small-write
            // RMW (2 reads + 2 writes of disk work) plus its queueing
            // amplification; a read miss saves one access.
            write_miss_penalty_us: cfg.icache.write_penalty_us,
            adaptive: spec.adaptive_icache,
            read_policy: cfg.read_policy,
        });

        let mut engine = DedupEngine::try_new(
            spec.policy,
            DedupConfig {
                select_threshold: cfg.select_threshold,
                idedup_threshold: cfg.idedup_threshold,
                index_page_fault_rate: cfg.index_page_fault_rate.max(1),
                index_policy: cfg.index_policy,
                index_budget_bytes: icache.index_bytes(),
                logical_blocks: sizing.logical_blocks,
                overflow_blocks: sizing.overflow_blocks,
                expected_unique_blocks: sizing.expected_unique_blocks,
            },
        )?;
        // The ghost index lives behind the index table; its capacity is
        // iCache's rule.
        engine
            .index_mut()
            .set_ghost_capacity(icache.ghost_index_entries());
        let max_request_blocks = sizing.max_request_blocks.max(1);

        let sim = ArraySim::new(geometry, cfg.disk.clone(), cfg.scheduler);
        let array = ArrayBackend::new(sim, &sizing);
        let backend: Box<dyn DiskBackend> = if disk_on_own_thread() {
            Box::new(disk::ThreadedBackend::spawn(array))
        } else {
            Box::new(array)
        };
        let disk: Box<dyn DiskBackend> = match &cfg.faults {
            Some(plan) => Box::new(FaultyBackend::new(backend, plan.clone())),
            None => backend,
        };

        let prof = observer.sink::<ProfSink>().is_some();
        if prof {
            // Pay the one-time scope-clock calibration here, not inside
            // the first profiled phase.
            crate::prof::calibrate();
        }
        Ok(Self {
            icache,
            keying: spec.keying,
            dedups: spec.dedups,
            engine,
            scratch: WriteScratch::with_chunk_capacity(max_request_blocks),
            read_extents: Vec::with_capacity(max_request_blocks),
            inline_hashing: spec.inline_hashing,
            latency: cfg.latency,
            disk,
            post_process: spec.policy == DedupPolicy::PostProcess,
            tier: None,
            observer,
            pending: PendingJobs(Vec::with_capacity(trace.requests.len())),
            responses: vec![Self::UNRESOLVED; trace.requests.len()],
            requests_done: 0,
            snap_seq: 0,
            faults_enabled: cfg.faults.is_some(),
            fault_scratch: Vec::new(),
            corrupt_lba: cfg.faults.as_ref().and_then(|p| p.corrupt_lba),
            prof,
        })
    }

    /// Emit the elapsed host time of one profiled scope. No-op when the
    /// timer never started (profiling off).
    #[inline]
    fn prof_emit(&mut self, phase: ProfPhase, timer: ProfTimer) {
        if let Some(ns) = timer.elapsed_ns() {
            self.observer.emit(&StackEvent::HostPhase { phase, ns });
        }
    }

    /// Emit the host time since the timer's start (or its previous
    /// lap) and restart it, all on one clock read. The hot paths chain
    /// their back-to-back phases through this so a request costs about
    /// one read per phase boundary instead of two per phase — the
    /// difference between ~3% and ~10% profiler overhead.
    #[inline]
    fn prof_lap(&mut self, timer: &mut ProfTimer, phase: ProfPhase) {
        if let Some(ns) = timer.lap_ns() {
            self.observer.emit(&StackEvent::HostPhase { phase, ns });
        }
    }

    /// Install the tenant's shared tier, the last background step. The
    /// serving engine sets it under a policy; a plain replay has none.
    pub(crate) fn set_tier(&mut self, tier: Option<SharedTierTask>) {
        self.tier = tier;
    }

    /// Emit a [`StackEvent::ThrottleWait`] of `us` microseconds for
    /// this stack's tenant. Called by the serving engine's token-bucket
    /// admission before a delayed request is processed.
    pub(crate) fn note_throttle_wait(&mut self, us: u64) {
        self.observer.emit(&StackEvent::ThrottleWait { us });
    }

    /// Advance the disk backend to `t`, completing due work.
    pub fn run_until(&mut self, t: SimTime) {
        let timer = ProfTimer::start(self.prof);
        self.disk.run_until(t);
        self.prof_emit(ProfPhase::DiskRun, timer);
    }

    /// Process one request through the layers at its arrival, then run
    /// the background steps. `measured` is `false` during warm-up.
    pub fn process_request(
        &mut self,
        idx: usize,
        req: &IoRequest,
        measured: bool,
    ) -> PodResult<()> {
        self.process_at(idx, req, req.arrival, measured)
    }

    /// [`process_request`](Self::process_request) with the request
    /// entering the stack at `at` rather than its trace arrival: a
    /// throttled request enters at its admission instant, and its
    /// response counts from there. The stack reads no other instant of
    /// the request.
    pub(crate) fn process_at(
        &mut self,
        idx: usize,
        req: &IoRequest,
        at: SimTime,
        measured: bool,
    ) -> PodResult<()> {
        match req.op {
            IoOp::Write => self.on_write(idx, req, at, measured)?,
            IoOp::Read => self.on_read(idx, req, at, measured)?,
        }
        if self.faults_enabled {
            self.drain_fault_events()?;
        }
        let mut timer = ProfTimer::start(self.prof);
        self.observer.emit(&StackEvent::RequestDone {
            write: req.op.is_write(),
            measured,
        });
        self.prof_lap(&mut timer, ProfPhase::Observe);
        if self.post_process && ((idx + 1) as u64).is_multiple_of(POST_PROCESS_INTERVAL) {
            self.post_process_scan(Some(at))?;
        }
        self.repartition(req.op.is_write(), at);
        let epoch_closed = self.icache.at_epoch_boundary();
        self.shared_tier(epoch_closed);
        self.prof_lap(&mut timer, ProfPhase::Background);
        // Sample at each iCache epoch boundary, after the background
        // steps so the snapshot sees the epoch's repartition (if any)
        // already applied.
        self.requests_done += 1;
        if epoch_closed {
            self.sample_snapshot();
        }
        Ok(())
    }

    /// Sample every component's `introspect()` gauges and emit them as
    /// one [`StackEvent::Snapshot`]. Allocation-free: the state structs
    /// are `Copy` and built from counters and fixed-size histograms.
    fn sample_snapshot(&mut self) {
        let timer = ProfTimer::start(self.prof);
        let tier_target_bytes = self.tier.as_ref().map_or(0, SharedTierTask::applied_bytes);
        let snap = StateSnapshot {
            seq: self.snap_seq,
            requests: self.requests_done,
            icache: self.icache.introspect(self.engine.index().ghost()),
            dedup: self.engine.introspect(),
            tier_target_bytes,
        };
        self.snap_seq += 1;
        self.observer.emit(&StackEvent::Snapshot { snap });
        self.prof_emit(ProfPhase::Snapshot, timer);
    }

    /// Pull queued [`FaultRecord`]s out of the fault layer, surface
    /// them as events, and run recovery where the fault demands it: a
    /// crash rebuilds the dedup engine's volatile state from the NVRAM
    /// Map; transparent retries only report their `Recovered` event.
    fn drain_fault_events(&mut self) -> PodResult<()> {
        let mut records = std::mem::take(&mut self.fault_scratch);
        self.disk.drain_faults(&mut records);
        for rec in records.drain(..) {
            self.observer.emit(&StackEvent::FaultInjected {
                kind: rec.kind,
                delay_us: rec.delay_us,
            });
            if rec.kind == FaultKind::Crash {
                let outcome = self.engine.recover_after_crash()?;
                self.observer.emit(&StackEvent::Recovered {
                    kind: FaultKind::Crash,
                    repaired_entries: outcome.index_entries_rebuilt,
                });
            } else if rec.auto_recovered {
                self.observer.emit(&StackEvent::Recovered {
                    kind: rec.kind,
                    repaired_entries: 0,
                });
            }
        }
        self.fault_scratch = records;
        Ok(())
    }

    /// The write path: hash latency → dedup decision → ghost-index
    /// traffic → write-allocate → disk submission (or a direct
    /// completion when the request was fully deduplicated).
    fn on_write(
        &mut self,
        idx: usize,
        req: &IoRequest,
        at: SimTime,
        measured: bool,
    ) -> PodResult<()> {
        let mut timer = ProfTimer::start(self.prof);
        let hash_lat = self.hash_latency(req.nblocks);
        let summary = self.engine.process_write_into(req, &mut self.scratch)?;
        self.prof_lap(&mut timer, ProfPhase::DedupClassify);
        // A stack without the dedup module has no storage-node cache to
        // fill and no index traffic to account.
        if self.dedups {
            // The request's index victims are already in the ghost index.
            let misses = &self.scratch.index_miss_fps;
            let hits = self.engine.index_mut().probe_ghosts(misses);
            self.icache.on_ghost_index_hits(hits);
            self.write_allocate(req);
        }
        self.prof_lap(&mut timer, ProfPhase::CacheLookup);
        self.observer.emit(&StackEvent::WriteClassified {
            category: summary.kind,
            deduped_blocks: summary.deduped_blocks,
            written_blocks: summary.written_blocks,
            removed: summary.removed,
            disk_index_lookups: summary.disk_index_lookups,
            measured,
        });
        self.observer.emit(&StackEvent::LayerLatency {
            layer: Layer::Dedup,
            us: hash_lat.as_micros() + self.latency.metadata_us,
        });
        self.prof_lap(&mut timer, ProfPhase::Observe);

        let submit = at + hash_lat + SimDuration::from_micros(self.latency.metadata_us);
        if summary.disk_index_lookups == 0 && self.scratch.write_extents.is_empty() {
            // Fully deduplicated: no disk I/O at all.
            self.resolve(idx, (submit - at).as_micros());
        } else {
            let job = self.disk.submit_write(
                submit,
                &self.scratch.write_extents,
                summary.disk_index_lookups,
            );
            self.park(idx, at, submit, job)?;
            self.prof_lap(&mut timer, ProfPhase::DiskSubmit);
        }
        Ok(())
    }

    /// Park disk-bound request `idx`, arrived at `at` and submitted at
    /// `submit` as `job`: its arrival waits in its response slot and its
    /// [`PendingJob`] in the queue [`finish`](Self::finish) walks.
    fn park(&mut self, idx: usize, at: SimTime, submit: SimTime, job: JobId) -> PodResult<()> {
        check_pending(idx, job, (submit - at).as_micros())?;
        self.resolve(idx, at.as_micros());
        self.pending.push((idx, submit, job));
        Ok(())
    }

    /// Record request `idx`'s response time, growing the array when
    /// `idx` lies past the build trace.
    #[inline]
    fn resolve(&mut self, idx: usize, us: u64) {
        if idx >= self.responses.len() {
            self.responses.resize(idx + 1, Self::UNRESOLVED);
        }
        self.responses[idx] = us;
    }

    /// Fingerprinting latency charged on the write's critical path for
    /// `nblocks` chunks (span, not work: parallel lanes hash
    /// concurrently). Zero for stacks that hash out-of-band or not at
    /// all.
    fn hash_latency(&self, nblocks: u32) -> SimDuration {
        if !self.inline_hashing {
            return SimDuration::ZERO;
        }
        let rounds = (nblocks as u64).div_ceil(self.latency.hash_workers as u64);
        SimDuration::from_micros(rounds * self.latency.hash_us_per_chunk)
    }

    /// Write-allocate: retain freshly written blocks, which
    /// primary-storage reads target heavily (temporal locality, §II-A).
    /// Content-keyed stacks key by the fingerprint already in hand so
    /// duplicates share one slot.
    fn write_allocate(&mut self, req: &IoRequest) {
        match self.keying {
            CacheKeying::Content => {
                for (_, fp) in req.write_chunks() {
                    self.icache.read_fill_key(fp.prefix_u64());
                }
            }
            CacheKeying::Lba => {
                for lba in req.lbas() {
                    self.icache.read_fill(lba);
                }
            }
        }
    }

    /// The read-cache key for `lba`. Content keying resolves the
    /// block's current fingerprint (a hit if *any* copy of the content
    /// is cached) and falls back to the LBA for never-written blocks.
    fn cache_key(&self, lba: Lba) -> u64 {
        match self.keying {
            CacheKeying::Lba => lba.raw(),
            CacheKeying::Content => self
                .engine
                .content_of(lba)
                .map_or(lba.raw(), |fp| fp.prefix_u64()),
        }
    }

    /// The read path: cache lookup → direct completion on a full hit,
    /// else fetch the (possibly fragmented) physical extents and fill
    /// the cache.
    fn on_read(
        &mut self,
        idx: usize,
        req: &IoRequest,
        at: SimTime,
        measured: bool,
    ) -> PodResult<()> {
        let mut timer = ProfTimer::start(self.prof);
        let mut all_hit = true;
        for lba in req.lbas() {
            let key = self.cache_key(lba);
            if !self.icache.read_lookup_key(key) {
                all_hit = false;
            }
        }
        self.prof_lap(&mut timer, ProfPhase::CacheLookup);
        self.observer.emit(&StackEvent::ReadLookup {
            hit: all_hit,
            measured,
        });
        if all_hit {
            self.observer.emit(&StackEvent::LayerLatency {
                layer: Layer::Cache,
                us: CACHE_HIT_US,
            });
            self.prof_lap(&mut timer, ProfPhase::Observe);
            self.resolve(idx, CACHE_HIT_US);
        } else {
            self.prof_lap(&mut timer, ProfPhase::Observe);
            self.engine
                .store()
                .read_extents_into(req.lba, req.nblocks, &mut self.read_extents);
            let fragments = self.read_extents.len() as u64;
            self.prof_lap(&mut timer, ProfPhase::PlanRead);
            self.observer.emit(&StackEvent::ReadFragments {
                fragments,
                measured,
            });
            self.observer.emit(&StackEvent::LayerLatency {
                layer: Layer::Dedup,
                us: self.latency.metadata_us,
            });
            self.prof_lap(&mut timer, ProfPhase::Observe);
            let submit = at + SimDuration::from_micros(self.latency.metadata_us);
            let job = self.disk.submit_read(submit, &self.read_extents);
            self.park(idx, at, submit, job)?;
            self.prof_lap(&mut timer, ProfPhase::DiskSubmit);
            for lba in req.lbas() {
                let key = self.cache_key(lba);
                self.icache.read_fill_key(key);
            }
            self.prof_lap(&mut timer, ProfPhase::CacheLookup);
        }
        Ok(())
    }

    /// One Post-Process pass: scan up to [`POST_PROCESS_BATCH`] queued
    /// chunks and, unless the replay is draining (`at` is `None`),
    /// charge the re-reads as a background disk job at `at` (the
    /// fingerprinting itself is off the critical path). Returns the
    /// chunks scanned.
    fn post_process_scan(&mut self, at: Option<SimTime>) -> PodResult<u64> {
        let scan = self.engine.post_process_scan(POST_PROCESS_BATCH)?;
        self.observer.emit(&StackEvent::BackgroundScan {
            scanned_chunks: scan.scanned_chunks,
            deduped_chunks: scan.deduped_chunks,
        });
        if let Some(at) = at {
            if !scan.read_extents.is_empty() {
                self.disk.submit_scan_read(at, &scan.read_extents);
            }
        }
        Ok(scan.scanned_chunks)
    }

    /// iCache adaptation: note the request on the iCache's epoch clock
    /// and, when the cost-benefit accounting decides to repartition,
    /// resize the index table (its victims join the ghost index)
    /// and charge the swap traffic to the disks at `at`.
    fn repartition(&mut self, write: bool, at: SimTime) {
        let Some(rp) = self.icache.note_request(write) else {
            return;
        };
        self.engine.index_mut().resize_bytes(rp.index_bytes);
        self.observer.emit(&StackEvent::Repartition {
            index_bytes: rp.index_bytes,
            read_bytes: rp.read_bytes,
            swap_blocks: rp.swap_blocks,
            index_grew: rp.index_grew,
        });
        if rp.swap_blocks > 0 {
            self.disk.submit_swap(at, rp.swap_blocks);
        }
    }

    /// The shared tier, if the serving engine installed one: apply the
    /// index target it decides for this request, attributing any
    /// evictions to the tenant.
    fn shared_tier(&mut self, epoch_closed: bool) {
        let Some(tier) = &mut self.tier else {
            return;
        };
        let Some(index_bytes) = tier.after_request(epoch_closed, self.icache.index_bytes()) else {
            return;
        };
        let victims = self.engine.index_mut().resize_bytes(index_bytes);
        if victims > 0 {
            self.observer.emit(&StackEvent::QuotaEviction {
                victims,
                index_bytes,
            });
        }
    }

    /// End of trace: drain the Post-Process backlog, run the disks to
    /// idle so all pending jobs have completion times, attribute each
    /// disk-bound request's service time to the disk layer and write
    /// its response slot, and emit the final [`StackEvent::Finished`].
    ///
    /// A pending job the backend has no completion for after running to
    /// idle is a [`PodError::Inconsistency`] naming its request.
    pub fn finish(&mut self) -> PodResult<()> {
        let timer = ProfTimer::start(self.prof);
        if self.post_process {
            // Drain the backlog so the capacity numbers reflect a
            // completed background pass (no further disk charges: the
            // replay clock has stopped advancing).
            while self.engine.scan_backlog() > 0 && self.post_process_scan(None)? > 0 {}
        }
        self.prof_emit(ProfPhase::Background, timer);
        let timer = ProfTimer::start(self.prof);
        self.disk.run_to_idle();
        self.prof_emit(ProfPhase::DiskRun, timer);
        if self.faults_enabled {
            self.drain_fault_events()?;
            // Silent end-of-replay corruption: flip one stored block's
            // content with no Recovered event — only the integrity
            // oracle can catch it.
            if let Some(lba) = self.corrupt_lba.take() {
                if self.engine.corrupt_lba(Lba::new(lba)).is_some() {
                    self.observer.emit(&StackEvent::FaultInjected {
                        kind: FaultKind::Corruption,
                        delay_us: 0,
                    });
                }
            }
        }
        // Disk time is only known at completion: charge (done − submit)
        // per pending job now, in submission order, and resolve the
        // request at (done − arrival), its arrival read from its slot —
        // only once the job is known complete, so a job the array never
        // finished is named before its slot is touched. Drained in
        // place: the buffer is freed with the stack, after the report
        // is built, which keeps glibc from trimming the heap after
        // every one of repeated in-process replays (DESIGN §8).
        let timer = ProfTimer::start(self.prof);
        for pending in self.pending.0.drain(..) {
            let idx = pending.position as usize;
            let Some(done) = pending.job().and_then(|job| self.disk.completion(job)) else {
                return Err(PodError::Inconsistency(format!(
                    "request {idx}: its disk job has no completion after the array ran to idle"
                )));
            };
            let done = done.as_micros();
            let arrival = self.responses[idx];
            self.observer.emit(&StackEvent::LayerLatency {
                layer: Layer::Disk,
                us: done.saturating_sub(pending.submit_us(arrival)),
            });
            self.responses[idx] = done.saturating_sub(arrival);
        }
        self.prof_emit(ProfPhase::DiskCommit, timer);
        // Final snapshot: the end-of-replay state, after drains, unless
        // the last request closed an epoch and its sample covered it.
        if self.snap_seq == 0 || !self.icache.at_epoch_boundary() {
            self.sample_snapshot();
        }
        self.observer.emit(&StackEvent::Finished);
        Ok(())
    }

    /// Per-request response times (µs), indexed by request position,
    /// taken out of the stack (an empty array is left behind). Call
    /// after [`finish`](Self::finish): a slot still holding
    /// [`Self::UNRESOLVED`] belongs to a request never processed.
    pub fn take_responses(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.responses)
    }

    /// The iCache: read cache, index budget, ghosts and epoch clock.
    pub fn icache(&self) -> &ICache {
        &self.icache
    }

    /// The dedup engine: its index, Map and chunk store.
    pub fn engine(&self) -> &DedupEngine {
        &self.engine
    }

    /// The disk backend. Its queries ([`DiskBackend::completion`],
    /// [`DiskBackend::stats`]) are valid only after
    /// [`finish`](Self::finish) has run it to idle: until then the
    /// array may still be applying the replay's calls on its own
    /// thread (see [`disk_on_own_thread`]).
    pub fn disk(&self) -> &dyn DiskBackend {
        self.disk.as_ref()
    }

    /// The observer chain, for reading accumulated state mid-flight.
    pub fn observer(&self) -> &ObserverChain {
        &self.observer
    }

    /// Consume the stack and return its observer chain, so attached
    /// sinks can be extracted by type after the replay.
    pub fn into_observer(self) -> ObserverChain {
        self.observer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Scheme;

    #[test]
    fn a_job_with_no_completion_is_an_error_naming_its_request() {
        let req = IoRequest::read(SimTime::ZERO, Lba::new(0), 1);
        let trace = Trace {
            name: "one read".into(),
            requests: vec![req.clone()],
            memory_budget_bytes: 1 << 20,
        };
        let spec = Scheme::Pod.stack_spec();
        let cfg = SystemConfig::test_default();
        let mut stack =
            StorageStack::with_observer(&spec, &cfg, &trace, ObserverChain::new()).expect("stack");
        stack.process_request(0, &req, true).expect("processed");
        // A job the array was never handed.
        let never = JobId::from_index(1 << 40);
        stack.pending.push((7, SimTime::ZERO, never));
        assert_eq!(
            stack.finish(),
            Err(PodError::Inconsistency(
                "request 7: its disk job has no completion after the array ran to idle".into()
            ))
        );
    }

    #[test]
    fn pending_fields_are_checked_at_their_32_bit_bounds() {
        let max = u64::from(u32::MAX);
        let job = |i: u64| JobId::from_index(i as usize);
        // The job field keeps its top value for "no job".
        check_pending(max as usize, job(max - 1), max).expect("every field fits");
        let refused = |what: &str, value: u64, limit: u64| {
            Err(PodError::OutOfRange {
                what: what.into(),
                value,
                limit,
            })
        };
        assert_eq!(
            check_pending(max as usize + 1, job(0), 0),
            refused("request position", max + 1, max + 1)
        );
        assert_eq!(
            check_pending(9, job(max), 0),
            refused("request 9's disk job index", max, max)
        );
        assert_eq!(
            check_pending(9, job(0), max + 1),
            refused("request 9's submit delay (µs)", max + 1, max + 1)
        );
        // The low 32 bits of the submit instant give back the delay
        // across a wrap of the 32-bit clock.
        let arrival = (7 << 32) - 3;
        let entry = |submit: u64| PendingJob {
            position: 0,
            job: PendingJob::NO_JOB,
            submit_low: submit as u32,
        };
        for delay in [0, 1, 3, 4, max] {
            assert_eq!(entry(arrival + delay).submit_us(arrival), arrival + delay);
        }
    }

    #[test]
    fn a_submit_delay_past_32_bits_is_refused_naming_its_request() {
        let fp = pod_types::Fingerprint::from_content_id;
        let write = |at: u64, n: u64| {
            IoRequest::write(
                SimTime::from_micros(at),
                Lba::new(0),
                (0..n).map(fp).collect(),
            )
        };
        let trace = Trace {
            name: "slow hash".into(),
            requests: vec![write(0, 1), write(10, 2)],
            memory_budget_bytes: 1 << 20,
        };
        let spec = Scheme::Pod.stack_spec();
        let mut cfg = SystemConfig::test_default();
        cfg.latency.hash_workers = 1;
        cfg.latency.metadata_us = 0;
        // One chunk's hash fits below 2^32 µs; two do not.
        cfg.latency.hash_us_per_chunk = 1 << 31;
        let mut stack =
            StorageStack::with_observer(&spec, &cfg, &trace, ObserverChain::new()).expect("stack");
        stack
            .process_request(0, &trace.requests[0], true)
            .expect("one chunk");
        assert_eq!(
            stack.process_request(1, &trace.requests[1], true),
            Err(PodError::OutOfRange {
                what: "request 1's submit delay (µs)".into(),
                value: 1 << 32,
                limit: 1 << 32,
            })
        );
    }

    #[test]
    fn slots_past_the_build_trace_grow_the_array() {
        let trace = Trace {
            name: "empty".into(),
            requests: Vec::new(),
            memory_budget_bytes: 1 << 20,
        };
        let spec = Scheme::Pod.stack_spec();
        let cfg = SystemConfig::test_default();
        let mut stack =
            StorageStack::with_observer(&spec, &cfg, &trace, ObserverChain::new()).expect("stack");
        let write = |id: u64| {
            let fp = pod_types::Fingerprint::from_content_id(1);
            IoRequest::write(SimTime::from_micros(id), Lba::new(0), vec![fp])
        };
        for idx in [3, 5] {
            let req = write(idx as u64);
            stack.run_until(req.arrival);
            stack.process_request(idx, &req, true).expect("processed");
        }
        stack.finish().expect("finished");
        let responses = stack.take_responses();
        assert_eq!(responses.len(), 6);
        let unresolved = StorageStack::UNRESOLVED;
        assert_eq!(responses[..3], [unresolved; 3]);
        assert_eq!(responses[4], unresolved);
        assert!(responses[3] != unresolved && responses[5] != unresolved);
        assert!(stack.take_responses().is_empty(), "taken once");
    }
}
