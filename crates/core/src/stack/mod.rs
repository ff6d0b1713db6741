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
//!            │      StorageStack     │  drives the layers, collects
//!            │  (process_request)    │  per-request response times
//!            └──┬────────┬────────┬──┘
//!               │        │        │ after every request
//!         reads │ writes │        ▼
//!   ┌───────────▼──┐  ┌──▼───────────┐  ┌─────────────────────┐
//!   │  CacheLayer  │  │  DedupLayer  │  │  background steps   │
//!   │ iCache: keys,│  │ engine + the │  │ 1 post-process scan │
//!   │ fills, ghost │  │ write scratch│  │ 2 iCache repartition│
//!   │              │  │              │  │ 3 shared tier       │
//!   └───────┬──────┘  └──────┬───────┘  └──────────┬──────────┘
//!           │ misses         │ extents             │ scans / swaps
//!           └─────────┬──────┴────────────┬────────┘
//!                     ▼                   ▼
//!            ┌────────────────────────────────┐
//!            │       dyn DiskBackend          │  phase planning +
//!            │  (ArrayBackend → ArraySim)     │  simulated time
//!            └────────────────────────────────┘
//!                        │
//!                 ObserverChain  ◄── every layer emits StackEvents here
//! ```
//!
//! Layer contracts are the traits in this module and [`crate::obs`]:
//! [`DiskBackend`] (extents in, jobs out) and [`StackObserver`] (typed
//! [`StackEvent`]s, fanned out by the stack's [`ObserverChain`]).

mod cache;
mod dedup;
mod disk;
mod spec;

pub use cache::CacheLayer;
pub use dedup::DedupLayer;
pub use disk::{disk_on_own_thread, ArrayBackend, DiskBackend, FaultRecord, FaultyBackend};
pub use spec::{CacheKeying, StackSpec};

// Re-exported from `obs` where they now live, so `pod_core::stack::*`
// call sites keep compiling.
pub use crate::obs::{StackCounters, StackObserver};

use crate::config::SystemConfig;
use crate::obs::{FaultKind, Layer, ObserverChain, StackEvent, StateSnapshot};
use crate::prof::{ProfPhase, ProfSink, ProfTimer};
use crate::runner::ReplaySizing;
use crate::serve::SharedTierTask;
use pod_dedup::{DedupConfig, DedupPolicy};
use pod_disk::{ArraySim, JobId, RaidGeometry};
use pod_icache::{ICache, ICacheConfig};
use pod_trace::Trace;
use pod_types::{IoOp, IoRequest, PodError, PodResult, SimDuration, SimTime};

/// Requests between two in-replay Post-Process scans.
const POST_PROCESS_INTERVAL: u64 = 2_000;
/// Most queued chunks one Post-Process scan examines.
const POST_PROCESS_BATCH: usize = 16_384;
/// Service time of a read served whole from the DRAM cache, µs.
const CACHE_HIT_US: u64 = 20;

/// A composed storage stack: cache over dedup over disk, plus the
/// background steps and the observer chain threaded through all of
/// them.
///
/// Build one per replay with [`StorageStack::with_observer`], which
/// also decides whether the simulated array runs on a thread of its
/// own ([`disk_on_own_thread`]), then:
///
/// 1. [`run_until`](Self::run_until) each request's arrival,
/// 2. [`process_request`](Self::process_request) it,
/// 3. [`finish`](Self::finish) once, and
/// 4. read [`responses`](Self::responses) and the layer accessors.
pub struct StorageStack {
    cache: CacheLayer,
    dedup: DedupLayer,
    disk: Box<dyn DiskBackend>,
    /// The spec's policy is [`DedupPolicy::PostProcess`]: scan every
    /// [`POST_PROCESS_INTERVAL`] requests and drain at the end.
    post_process: bool,
    /// The tenant's shared tier, installed by the serving engine under
    /// a [`ServePolicy`](crate::config::ServePolicy).
    tier: Option<SharedTierTask>,
    observer: ObserverChain,
    /// (request index, arrival, disk submit time, job) for disk-bound
    /// requests.
    pending: Vec<(usize, SimTime, SimTime, JobId)>,
    /// Direct completions for requests with no disk work.
    direct: Vec<(usize, SimDuration)>,
    metadata_us: u64,
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
    /// Tenant id stamped on every per-request event this stack emits.
    /// 0 (the default) is the single-tenant identity and stays off the
    /// serialized wire; the serving engine assigns real ids via
    /// [`set_tenant`](Self::set_tenant).
    tenant: u16,
    /// Host profiling is on (the chain holds a [`ProfSink`]): each
    /// profiled phase is wrapped in a [`ProfTimer`] and its elapsed
    /// host nanoseconds emitted as [`StackEvent::HostPhase`]. Off (the
    /// default), every timer is inert and no event is emitted — the
    /// hot path pays one predictable branch per scope.
    prof: bool,
}

impl StorageStack {
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
        let sizing = ReplaySizing::from_trace(trace);

        let geometry = RaidGeometry::new(cfg.raid.clone());
        let data_capacity = cfg.raid.data_disks() as u64 * cfg.disk.capacity_blocks;
        if sizing.needed_blocks > data_capacity {
            return Err(PodError::OutOfRange {
                what: "working set (blocks)",
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

        let dedup = DedupLayer::new(
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
            spec.inline_hashing,
            cfg.latency.hash_us_per_chunk,
            cfg.latency.hash_workers,
            sizing.max_request_blocks,
        );

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
            cache: CacheLayer::new(icache, spec.keying, spec.dedups),
            dedup,
            disk,
            post_process: spec.policy == DedupPolicy::PostProcess,
            tier: None,
            observer,
            pending: Vec::with_capacity(trace.requests.len()),
            direct: Vec::new(),
            metadata_us: cfg.latency.metadata_us,
            requests_done: 0,
            snap_seq: 0,
            faults_enabled: cfg.faults.is_some(),
            fault_scratch: Vec::new(),
            corrupt_lba: cfg.faults.as_ref().and_then(|p| p.corrupt_lba),
            tenant: 0,
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

    /// Attribute every subsequent per-request event to `tenant`. The
    /// serving engine sets each tenant stack's id; plain replays keep
    /// the default of 0 (untagged on the wire).
    pub fn set_tenant(&mut self, tenant: u16) {
        self.tenant = tenant;
    }

    /// The tenant this stack's events are attributed to.
    pub fn tenant(&self) -> u16 {
        self.tenant
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
        self.observer.emit(&StackEvent::ThrottleWait {
            tenant: self.tenant,
            us,
        });
    }

    /// Advance the disk backend to `t`, completing due work.
    pub fn run_until(&mut self, t: SimTime) {
        let timer = ProfTimer::start(self.prof);
        self.disk.run_until(t);
        self.prof_emit(ProfPhase::DiskRun, timer);
    }

    /// Process one request through the layers, then run the background
    /// steps. `measured` is `false` during warm-up.
    pub fn process_request(
        &mut self,
        idx: usize,
        req: &IoRequest,
        measured: bool,
    ) -> PodResult<()> {
        match req.op {
            IoOp::Write => self.on_write(idx, req, measured)?,
            IoOp::Read => self.on_read(idx, req, measured),
        }
        if self.faults_enabled {
            self.drain_fault_events()?;
        }
        let mut timer = ProfTimer::start(self.prof);
        self.observer.emit(&StackEvent::RequestDone {
            write: req.op.is_write(),
            measured,
            tenant: self.tenant,
        });
        self.prof_lap(&mut timer, ProfPhase::Observe);
        if self.post_process && ((idx + 1) as u64).is_multiple_of(POST_PROCESS_INTERVAL) {
            self.post_process_scan(Some(req.arrival))?;
        }
        self.repartition(req);
        let epoch_closed = self.cache.icache().at_epoch_boundary();
        if let Some(tier) = &mut self.tier {
            tier.after_request(
                epoch_closed,
                &mut self.cache,
                &mut self.dedup,
                &mut self.observer,
            );
        }
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
            icache: self.cache.icache().introspect(),
            dedup: self.dedup.engine().introspect(),
            tier_target_bytes,
        };
        self.snap_seq += 1;
        self.observer.emit(&StackEvent::Snapshot { snap });
        self.prof_emit(ProfPhase::Snapshot, timer);
    }

    /// Pull queued [`FaultRecord`]s out of the fault layer, surface
    /// them as events, and run recovery where the fault demands it: a
    /// crash rebuilds the dedup layer's volatile state from the NVRAM
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
                let outcome = self.dedup.recover_after_crash()?;
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
    fn on_write(&mut self, idx: usize, req: &IoRequest, measured: bool) -> PodResult<()> {
        let mut timer = ProfTimer::start(self.prof);
        let hash_lat = self.dedup.hash_latency(req.nblocks);
        let summary = self.dedup.process_write(req)?;
        self.prof_lap(&mut timer, ProfPhase::DedupClassify);
        self.cache.observe_index_traffic(self.dedup.scratch());
        self.cache.write_allocate(req);
        self.prof_lap(&mut timer, ProfPhase::CacheLookup);
        self.observer.emit(&StackEvent::WriteClassified {
            category: summary.kind,
            deduped_blocks: summary.deduped_blocks,
            written_blocks: summary.written_blocks,
            removed: summary.removed,
            disk_index_lookups: summary.disk_index_lookups,
            measured,
            tenant: self.tenant,
        });
        self.observer.emit(&StackEvent::LayerLatency {
            layer: Layer::Dedup,
            us: hash_lat.as_micros() + self.metadata_us,
        });
        self.prof_lap(&mut timer, ProfPhase::Observe);

        let submit = req.arrival + hash_lat + SimDuration::from_micros(self.metadata_us);
        if summary.disk_index_lookups == 0 && self.dedup.scratch().write_extents.is_empty() {
            // Fully deduplicated: no disk I/O at all.
            self.direct.push((idx, submit - req.arrival));
        } else {
            let job = self.disk.submit_write(
                submit,
                &self.dedup.scratch().write_extents,
                summary.disk_index_lookups,
            );
            self.pending.push((idx, req.arrival, submit, job));
            self.prof_lap(&mut timer, ProfPhase::DiskSubmit);
        }
        Ok(())
    }

    /// The read path: cache lookup → direct completion on a full hit,
    /// else fetch the (possibly fragmented) physical extents and fill
    /// the cache.
    fn on_read(&mut self, idx: usize, req: &IoRequest, measured: bool) {
        let mut timer = ProfTimer::start(self.prof);
        let all_hit = self.cache.lookup_request(&self.dedup, req);
        self.prof_lap(&mut timer, ProfPhase::CacheLookup);
        self.observer.emit(&StackEvent::ReadLookup {
            hit: all_hit,
            measured,
            tenant: self.tenant,
        });
        if all_hit {
            self.observer.emit(&StackEvent::LayerLatency {
                layer: Layer::Cache,
                us: CACHE_HIT_US,
            });
            self.prof_lap(&mut timer, ProfPhase::Observe);
            self.direct
                .push((idx, SimDuration::from_micros(CACHE_HIT_US)));
        } else {
            self.prof_lap(&mut timer, ProfPhase::Observe);
            let fragments = self.dedup.plan_read(req) as u64;
            self.prof_lap(&mut timer, ProfPhase::PlanRead);
            self.observer.emit(&StackEvent::ReadFragments {
                fragments,
                measured,
                tenant: self.tenant,
            });
            self.observer.emit(&StackEvent::LayerLatency {
                layer: Layer::Dedup,
                us: self.metadata_us,
            });
            self.prof_lap(&mut timer, ProfPhase::Observe);
            let submit = req.arrival + SimDuration::from_micros(self.metadata_us);
            let job = self.disk.submit_read(submit, self.dedup.read_extents());
            self.pending.push((idx, req.arrival, submit, job));
            self.prof_lap(&mut timer, ProfPhase::DiskSubmit);
            self.cache.fill_request(&self.dedup, req);
            self.prof_lap(&mut timer, ProfPhase::CacheLookup);
        }
    }

    /// One Post-Process pass: scan up to [`POST_PROCESS_BATCH`] queued
    /// chunks and, unless the replay is draining (`at` is `None`),
    /// charge the re-reads as a background disk job at `at` (the
    /// fingerprinting itself is off the critical path). Returns the
    /// chunks scanned.
    fn post_process_scan(&mut self, at: Option<SimTime>) -> PodResult<u64> {
        let scan = self.dedup.scan(POST_PROCESS_BATCH)?;
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
    /// resize the index table (feeding its victims to the ghost index)
    /// and charge the swap traffic to the disks.
    fn repartition(&mut self, req: &IoRequest) {
        let Some(rp) = self.cache.note_request(req.op.is_write()) else {
            return;
        };
        let victims = self.dedup.resize_index(rp.index_bytes);
        self.cache.on_index_victims(&victims);
        self.observer.emit(&StackEvent::Repartition {
            index_bytes: rp.index_bytes,
            read_bytes: rp.read_bytes,
            swap_blocks: rp.swap_blocks,
            index_grew: rp.index_grew,
        });
        if rp.swap_blocks > 0 {
            self.disk.submit_swap(req.arrival, rp.swap_blocks);
        }
    }

    /// End of trace: drain the Post-Process backlog, run the disks to
    /// idle so all pending jobs have completion times, attribute each
    /// disk-bound request's service time to the disk layer, and emit
    /// the final [`StackEvent::Finished`].
    pub fn finish(&mut self) -> PodResult<()> {
        let timer = ProfTimer::start(self.prof);
        if self.post_process {
            // Drain the backlog so the capacity numbers reflect a
            // completed background pass (no further disk charges: the
            // replay clock has stopped advancing).
            while self.dedup.scan_backlog() > 0 && self.post_process_scan(None)? > 0 {}
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
                if self.dedup.corrupt_lba(lba).is_some() {
                    self.observer.emit(&StackEvent::FaultInjected {
                        kind: FaultKind::Corruption,
                        delay_us: 0,
                    });
                }
            }
        }
        // Disk time is only known at completion: charge (done − submit)
        // per pending job now, in submission order.
        let timer = ProfTimer::start(self.prof);
        for i in 0..self.pending.len() {
            let (_, _, submit, job) = self.pending[i];
            let done = self
                .disk
                .completion(job)
                .expect("all jobs complete after run_to_idle");
            self.observer.emit(&StackEvent::LayerLatency {
                layer: Layer::Disk,
                us: (done - submit).as_micros(),
            });
        }
        self.prof_emit(ProfPhase::DiskCommit, timer);
        // Final snapshot: the end-of-replay state, after drains, unless
        // the last request closed an epoch and its sample covered it.
        if self.snap_seq == 0 || !self.cache.icache().at_epoch_boundary() {
            self.sample_snapshot();
        }
        self.observer.emit(&StackEvent::Finished);
        Ok(())
    }

    /// Per-request response times (µs), indexed by request position.
    /// `None` only for requests never processed. Call after
    /// [`finish`](Self::finish).
    ///
    /// # Panics
    /// Panics if a submitted job has not completed (i.e.
    /// [`finish`](Self::finish) was not called).
    pub fn responses(&self, n: usize) -> Vec<Option<u64>> {
        let mut responses: Vec<Option<u64>> = vec![None; n];
        for &(idx, dur) in &self.direct {
            responses[idx] = Some(dur.as_micros());
        }
        for &(idx, arrival, _, job) in &self.pending {
            let done = self
                .disk
                .completion(job)
                .expect("all jobs complete after finish()");
            responses[idx] = Some((done - arrival).as_micros());
        }
        responses
    }

    /// The cache layer.
    pub fn cache(&self) -> &CacheLayer {
        &self.cache
    }

    /// The dedup layer.
    pub fn dedup(&self) -> &DedupLayer {
        &self.dedup
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
