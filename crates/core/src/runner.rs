//! Trace replay: one scheme, one trace, one report.
//!
//! The replay follows the paper's methodology (§IV-A): requests are
//! issued at their trace timestamps (open loop), writes are charged the
//! 32 µs/4 KiB fingerprinting delay, and the user response time of every
//! request — arrival to completion of all its disk work — is recorded,
//! with reads and writes also aggregated separately. Determinism is
//! end-to-end: same trace, same config → identical report.
//!
//! Per write request: hash → dedup engine decision → (optional on-disk
//! index lookups) → surviving extents written through the RAID planner,
//! with RMW pre-reads as dependent phases. A fully deduplicated request
//! performs no disk I/O at all — that is POD's headline effect.
//!
//! Per read request: read-cache lookup per block; on any miss, the
//! mapped physical extents (possibly fragmented by past dedup — read
//! amplification) are fetched in one parallel phase.

use crate::config::SystemConfig;
use crate::metrics::{Metrics, Timeline, TimelineFold};
use crate::obs::{ObserverChain, StackCounters, StackObserver, TraceRecorder};
use crate::oracle::{self, IntegrityReport};
use crate::prof::{HostProfile, ProfSink};
use crate::scheme::Scheme;
use crate::serve::{SharedTierTask, TokenBucket};
use crate::stack::{StackSpec, StorageStack};
use pod_dedup::engine::EngineCounters;
use pod_disk::engine::DiskStats;
use pod_trace::Trace;
use pod_types::{PodError, PodResult, SimDuration};
use std::any::Any;

/// Result of replaying one trace through one scheme.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Scheme name.
    pub scheme: String,
    /// Trace name.
    pub trace: String,
    /// All measured requests, in request order. Its samples are the
    /// stack's response array itself
    /// ([`StorageStack::take_responses`]) with the warm-up prefix
    /// drained in place: the report holds each measured response once
    /// here and once more in `reads` or `writes`.
    pub overall: Metrics,
    /// Read requests only.
    pub reads: Metrics,
    /// Write requests only.
    pub writes: Metrics,
    /// Dedup-engine counters (write elimination, dedup volume, ...).
    pub counters: EngineCounters,
    /// Unique physical blocks holding data at the end (Fig. 10 metric).
    pub capacity_used_blocks: u64,
    /// Peak NVRAM consumed by the Map table (§IV-D2 metric).
    pub nvram_peak_bytes: u64,
    /// Read-cache hit rate over the measured region.
    pub read_cache_hit_rate: f64,
    /// Mean number of physical fragments per missed read (1.0 = never
    /// fragmented; larger = read amplification).
    pub read_fragmentation: f64,
    /// Final per-disk statistics.
    pub disk: Vec<DiskStats>,
    /// iCache epochs closed during replay.
    pub icache_epochs: u64,
    /// iCache repartitions performed.
    pub icache_repartitions: u64,
    /// Final index-cache share of the memory budget.
    pub final_index_fraction: f64,
    /// The replay's event stream folded once: the whole-replay row a
    /// [`TraceRecorder`] would sum to, plus the measured-window reads
    /// the read-cache rates above come from.
    pub stack: StackCounters,
    /// Mean response time per arrival-time window (60 windows across the
    /// replayed span) — the latency curve over the day.
    pub timeline: Timeline,
    /// The integrity oracle's verdict, present only when the replay ran
    /// with [`ReplayBuilder::verify`] enabled.
    pub integrity: Option<IntegrityReport>,
    /// Host wall-clock time per stack phase (real nanoseconds, not
    /// simulated), present only when the replay ran with
    /// [`ReplayBuilder::profile`] enabled.
    pub profile: Option<HostProfile>,
}

impl ReplayReport {
    /// Percentage of write requests removed from the disk I/O stream
    /// (Fig. 11 y-axis).
    pub fn writes_removed_pct(&self) -> f64 {
        self.counters.removed_pct()
    }

    /// Capacity used in MiB.
    pub fn capacity_used_mib(&self) -> f64 {
        self.capacity_used_blocks as f64 * 4096.0 / (1024.0 * 1024.0)
    }
}

/// Size of the reserved on-disk index / swap regions, proportional to
/// the working set but bounded (blocks).
fn region_blocks(logical_blocks: u64) -> u64 {
    (logical_blocks / 4).clamp(1_024, 1 << 18)
}

/// Per-replay sizing derived from trace statistics: the simulated
/// array's region layout (which also bounds the chunk store's address
/// space) plus pre-sizing hints for the structures that can use one
/// (the on-disk fingerprint index, the write scratch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySizing {
    /// Logical address space in blocks (trace max end LBA, floored at
    /// 1024 so tiny traces still get a sane layout).
    pub logical_blocks: u64,
    /// Overflow region for redirected writes, blocks.
    pub overflow_blocks: u64,
    /// Reserved on-disk index / swap region size, blocks.
    pub region_blocks: u64,
    /// First block of the on-disk index region.
    pub index_region_base: u64,
    /// First block of the iCache swap region.
    pub swap_region_base: u64,
    /// Total array capacity the replay needs, blocks.
    pub needed_blocks: u64,
    /// Upper bound on distinct physical blocks the replay populates —
    /// pre-sizes the engine's on-disk fingerprint index (the chunk store
    /// is indexed by block address and needs no hint).
    pub expected_unique_blocks: u64,
    /// Largest request in blocks — pre-sizes the write scratch.
    pub max_request_blocks: usize,
}

impl ReplaySizing {
    /// Exclusive bound on a trace's end LBA: below it, the layout (the
    /// span, an overflow region of half the span and two regions of at
    /// most 2^18 blocks) stays below 2^64 blocks.
    pub const MAX_END_LBA: u64 = 1 << 63;

    /// The sizing for `trace`, or [`PodError::OutOfRange`] when the
    /// trace ends at or past [`Self::MAX_END_LBA`]. A trace file may name
    /// any LBA, so a replay sizes its trace this way.
    pub fn try_from_trace(trace: &Trace) -> PodResult<Self> {
        let logical_blocks = trace
            .requests
            .iter()
            .map(|r| r.end_lba().raw())
            .max()
            .unwrap_or(0)
            .max(1_024);
        if logical_blocks >= Self::MAX_END_LBA {
            return Err(PodError::OutOfRange {
                what: "trace end lba".into(),
                value: logical_blocks,
                limit: Self::MAX_END_LBA,
            });
        }
        let overflow_blocks = logical_blocks / 2 + 4_096;
        let region = region_blocks(logical_blocks);
        let index_region_base = logical_blocks + overflow_blocks;
        let swap_region_base = index_region_base + region;
        let written_blocks: u64 = trace
            .requests
            .iter()
            .filter(|r| r.op.is_write())
            .map(|r| r.nblocks as u64)
            .sum();
        let max_request_blocks = trace
            .requests
            .iter()
            .map(|r| r.nblocks as usize)
            .max()
            .unwrap_or(0);
        Ok(Self {
            logical_blocks,
            overflow_blocks,
            region_blocks: region,
            index_region_base,
            swap_region_base,
            needed_blocks: swap_region_base + region,
            // Every live block was written at least once, and the live
            // set cannot exceed the logical span; the index grows on
            // demand if a pathological trace beats the estimate.
            expected_unique_blocks: written_blocks.min(logical_blocks),
            max_request_blocks,
        })
    }

    /// [`Self::try_from_trace`] of a trace known to end below
    /// [`Self::MAX_END_LBA`], as every generated trace does.
    ///
    /// # Panics
    ///
    /// When the trace ends at or past [`Self::MAX_END_LBA`].
    pub fn from_trace(trace: &Trace) -> Self {
        Self::try_from_trace(trace).expect("the trace ends below MAX_END_LBA")
    }
}

/// What the serving engine adds to one tenant's replay. The default is
/// a solo replay: no shared tier, no admission control.
#[derive(Default)]
pub(crate) struct TenantSetup {
    /// The tenant's shared tier, run after the stack's own background
    /// steps.
    pub(crate) tier: Option<SharedTierTask>,
    /// Rate-limit admission: a throttled request is processed at its
    /// admission time, which delays the tenant's later arrivals.
    pub(crate) throttle: Option<TokenBucket>,
}

/// The replay core every entry point funnels into — a solo
/// [`ReplayBuilder`] run and each tenant of a
/// [`ServeBuilder`](crate::serve::ServeBuilder) run alike.
///
/// The replay is a thin driver: the scheme is resolved once into a
/// declarative [`StackSpec`], the layered [`StorageStack`] is composed
/// from it, and every request flows through the same code path — no
/// scheme branching anywhere below this line. Returns the report plus
/// the finished stack, so callers can take the observer chain's sinks
/// and read end-of-replay state.
pub(crate) fn replay_stack(
    spec: &StackSpec,
    cfg: &SystemConfig,
    trace: &Trace,
    observer: ObserverChain,
    verify: bool,
    setup: TenantSetup,
) -> PodResult<(ReplayReport, StorageStack)> {
    let (mut stack, warmup, last_arrival_us) = drive(spec, cfg, trace, observer, setup)?;
    // Verify after finish(): drains, crash recovery and any injected
    // end-of-replay corruption are all visible to the pass.
    let integrity = verify.then(|| IntegrityReport {
        faults_seen: stack.observer().counters().all.faults,
        ..oracle::verify(stack.engine(), trace)
    });
    let report = collect_report(
        &mut stack,
        spec.name,
        trace,
        warmup,
        last_arrival_us,
        integrity,
    )?;
    Ok((report, stack))
}

/// Compose the stack and drive `trace` through it up to and including
/// [`StorageStack::finish`]. Returns the finished stack, the warm-up
/// length, and the latest trace arrival among the measured requests.
fn drive(
    spec: &StackSpec,
    cfg: &SystemConfig,
    trace: &Trace,
    observer: ObserverChain,
    setup: TenantSetup,
) -> PodResult<(StorageStack, usize, u64)> {
    let mut stack = StorageStack::with_observer(spec, cfg, trace, observer)?;
    stack.set_tier(setup.tier);
    let mut throttle = setup.throttle;

    // ---- Replay -------------------------------------------------
    let n = trace.requests.len();
    let warmup = warmup_requests(cfg, n);
    // The timeline spans the measured requests' trace arrivals, in
    // whatever order the trace holds them; an admission delay does not
    // move a request on it.
    let mut last_arrival_us = 0;
    for (idx, req) in trace.requests.iter().enumerate() {
        if idx >= warmup {
            last_arrival_us = last_arrival_us.max(req.arrival.as_micros());
        }
        let wait_us = throttle
            .as_mut()
            .map_or(0, |bucket| bucket.admit(req.arrival.as_micros()));
        // Throttled: the request enters the stack at its admission
        // instant, read in place from the trace.
        let at = req.arrival + SimDuration::from_micros(wait_us);
        if wait_us > 0 {
            stack.note_throttle_wait(wait_us);
        }
        stack.run_until(at);
        stack.process_at(idx, req, at, idx >= warmup)?;
    }
    stack.finish()?;
    Ok((stack, warmup, last_arrival_us))
}

/// `trace` replayed solo through `scheme` under the test config, with
/// the finished stack — for tests that inspect end-of-replay state.
#[cfg(test)]
pub(crate) fn replay_finished(scheme: Scheme, trace: &Trace) -> (ReplayReport, StorageStack) {
    replay_stack(
        &scheme.stack_spec(),
        &SystemConfig::test_default(),
        trace,
        ObserverChain::new(),
        false,
        TenantSetup::default(),
    )
    .expect("replay")
}

/// Number of leading requests excluded from measurement under `cfg`.
fn warmup_requests(cfg: &SystemConfig, n: usize) -> usize {
    ((n as f64) * cfg.warmup_fraction) as usize
}

/// The builder settings [`ReplayBuilder`] and
/// [`ServeBuilder`](crate::serve::ServeBuilder) share: scheme, config,
/// recording cadence and oracle verification. Both builders hold one of
/// these and delegate, so the two surfaces configure the replay core
/// through the same code path and cannot drift apart again.
#[derive(Debug, Clone)]
pub(crate) struct BuilderCore {
    pub(crate) scheme: Scheme,
    pub(crate) cfg: SystemConfig,
    pub(crate) record_epoch: Option<u64>,
    pub(crate) verify: bool,
    pub(crate) profile: bool,
}

impl BuilderCore {
    pub(crate) fn new(scheme: Scheme) -> Self {
        Self {
            scheme,
            cfg: SystemConfig::paper_default(),
            record_epoch: None,
            verify: false,
            profile: false,
        }
    }

    /// Recorder epoch for a trace of `len` requests: the explicit
    /// cadence, or for `0` the auto heuristic (~64 epochs across the
    /// trace, floored at 64). `None` when recording is off.
    pub(crate) fn epoch_for(&self, len: usize) -> Option<u64> {
        self.record_epoch.map(|e| recorder_epoch(e, len))
    }
}

/// Resolve a requested recorder epoch (`0` = auto) against a trace of
/// `len` requests. One function serves both builders, so the auto
/// heuristic cannot diverge between replay and serve.
pub(crate) fn recorder_epoch(epoch: u64, len: usize) -> u64 {
    if epoch == 0 {
        (len as u64 / 64).max(64)
    } else {
        epoch
    }
}

/// A replay's measured responses: the report's three distributions
/// and its timeline.
#[derive(Debug)]
struct Measured {
    overall: Metrics,
    reads: Metrics,
    writes: Metrics,
    timeline: Timeline,
}

/// Fold the responses of the measured requests — positions `warmup..`
/// of `trace` — in one pass over the trace. `responses` is the stack's
/// response array; its warm-up prefix is drained in place and the rest
/// becomes `overall` as it is. `last_arrival_us` is the latest trace
/// arrival among the measured requests, which sets the timeline's
/// windows; `reads` of the measured requests are reads (the stack's
/// measured-read count), which sizes the split distributions exactly.
///
/// A measured request whose slot is [`StorageStack::UNRESOLVED`] (or
/// missing) is a [`PodError::Inconsistency`] naming its position.
fn measure(
    mut responses: Vec<u64>,
    trace: &Trace,
    warmup: usize,
    last_arrival_us: u64,
    reads: usize,
) -> PodResult<Measured> {
    let n = trace.requests.len();
    let warmup = warmup.min(n);
    responses.resize(n, StorageStack::UNRESOLVED);
    responses.drain(..warmup);
    let measured = &trace.requests[warmup..];
    let mut writes = Metrics::with_capacity(measured.len().saturating_sub(reads));
    let mut reads = Metrics::with_capacity(reads);
    let mut timeline = TimelineFold::new(last_arrival_us);
    for (i, (req, &us)) in measured.iter().zip(&responses).enumerate() {
        if us == StorageStack::UNRESOLVED {
            return Err(PodError::Inconsistency(format!(
                "request {} has no response after the replay finished",
                warmup + i
            )));
        }
        timeline.record(req.arrival.as_micros(), us);
        if req.op.is_write() {
            writes.record(us);
        } else {
            reads.record(us);
        }
    }
    Ok(Measured {
        overall: Metrics::joined(responses, &reads, &writes),
        reads,
        writes,
        timeline: timeline.finish(),
    })
}

/// Assemble a [`ReplayReport`] from a finished stack, taking its
/// response array (see [`measure`]).
fn collect_report(
    stack: &mut StorageStack,
    scheme: &str,
    trace: &Trace,
    warmup: usize,
    last_arrival_us: u64,
    integrity: Option<IntegrityReport>,
) -> PodResult<ReplayReport> {
    let counters = *stack.observer().counters();
    let reads = counters.measured_reads.reads as usize;
    let measured = measure(
        stack.take_responses(),
        trace,
        warmup,
        last_arrival_us,
        reads,
    )?;
    Ok(ReplayReport {
        scheme: scheme.to_string(),
        trace: trace.name.clone(),
        overall: measured.overall,
        reads: measured.reads,
        writes: measured.writes,
        counters: stack.engine().counters(),
        capacity_used_blocks: stack.engine().store().used_blocks(),
        nvram_peak_bytes: stack.engine().store().nvram_peak_bytes(),
        read_cache_hit_rate: counters.measured_reads.read_hit_rate(),
        read_fragmentation: counters.measured_reads.read_fragmentation(),
        disk: stack.disk().stats(),
        icache_epochs: stack.icache().epochs(),
        icache_repartitions: stack.icache().repartitions(),
        final_index_fraction: stack.icache().index_fraction(),
        stack: counters,
        timeline: measured.timeline,
        integrity,
        profile: None,
    })
}

/// Builder-style replay entry point — the primary public API.
///
/// Start from [`Scheme::builder`], set a trace (required) and
/// optionally a config and observers, then [`run`](Self::run):
///
/// ```
/// use pod_core::prelude::*;
///
/// let trace = pod_trace::TraceProfile::homes().scaled(0.002).generate(3);
/// let report = Scheme::SelectDedupe
///     .builder()
///     .config(SystemConfig::test_default())
///     .trace(&trace)
///     .run()?;
/// assert_eq!(report.overall.count(), trace.len());
/// # Ok::<(), pod_types::PodError>(())
/// ```
#[derive(Debug)]
pub struct ReplayBuilder<'t> {
    core: BuilderCore,
    trace: Option<&'t Trace>,
    chain: ObserverChain,
}

impl ReplayBuilder<'static> {
    /// Start building a replay of `scheme` with the paper-default
    /// configuration; equivalent to [`Scheme::builder`].
    pub fn new(scheme: Scheme) -> Self {
        Self {
            core: BuilderCore::new(scheme),
            trace: None,
            chain: ObserverChain::new(),
        }
    }
}

impl<'t> ReplayBuilder<'t> {
    /// Use `cfg` instead of the paper default (validated at
    /// [`run`](Self::run)).
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.core.cfg = cfg;
        self
    }

    /// The trace to replay. Required.
    pub fn trace<'u>(self, trace: &'u Trace) -> ReplayBuilder<'u> {
        ReplayBuilder {
            core: self.core,
            trace: Some(trace),
            chain: self.chain,
        }
    }

    /// Attach an observer sink. May be called several times; sinks
    /// accumulate in call order.
    pub fn observer(mut self, observer: impl StackObserver + Any) -> Self {
        self.chain.push(observer);
        self
    }

    /// Attach an epoch-granular [`TraceRecorder`] labelled with the
    /// scheme and trace names, closing an epoch every `epoch_requests`
    /// requests (`0` = auto: ~64 epochs across the trace). Read it back
    /// from the chain returned by [`run_observed`](Self::run_observed).
    pub fn record(mut self, epoch_requests: u64) -> Self {
        self.core.record_epoch = Some(epoch_requests);
        self
    }

    /// Run the end-to-end integrity oracle after the replay: every
    /// block the trace wrote is resolved through the real Map/ChunkStore
    /// path and diffed against its last write (see [`oracle::verify`]).
    /// The verdict lands in [`ReplayReport::integrity`]. Off by default;
    /// on or off, the replay loop itself is the same zero-allocation
    /// path.
    pub fn verify(mut self, verify: bool) -> Self {
        self.core.verify = verify;
        self
    }

    /// Profile host wall-clock time per stack phase: attaches a
    /// [`ProfSink`], which turns the stack's timers on, and lands the
    /// aggregated [`HostProfile`] in [`ReplayReport::profile`]. Off by
    /// default — with it off no `HostPhase` event is ever emitted and
    /// reports are byte-identical to a build without the profiler.
    pub fn profile(mut self, profile: bool) -> Self {
        self.core.profile = profile;
        self
    }

    /// Replay and return the report.
    pub fn run(self) -> PodResult<ReplayReport> {
        self.run_observed().map(|(report, _)| report)
    }

    /// Replay and also return the observer chain, so attached sinks
    /// (recorders, histograms, custom observers) can be extracted by
    /// type via [`ObserverChain::take_sink`].
    pub fn run_observed(self) -> PodResult<(ReplayReport, ObserverChain)> {
        self.core.cfg.validate()?;
        let trace = self.trace.ok_or_else(|| {
            PodError::InvalidConfig(
                "ReplayBuilder: no trace set (call .trace(..) before .run())".into(),
            )
        })?;
        let spec = self.core.scheme.stack_spec();
        let mut chain = self.chain;
        if let Some(epoch) = self.core.epoch_for(trace.len()) {
            chain.push(TraceRecorder::new(
                spec.name,
                trace.name.clone(),
                epoch,
                trace.len(),
            ));
        }
        if self.core.profile {
            chain.push(ProfSink::new());
        }
        let (mut report, stack) = replay_stack(
            &spec,
            &self.core.cfg,
            trace,
            chain,
            self.core.verify,
            TenantSetup::default(),
        )?;
        let mut chain = stack.into_observer();
        if self.core.profile {
            report.profile = chain.take_sink::<ProfSink>().map(ProfSink::into_profile);
        }
        Ok((report, chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{StackEvent, StateSnapshot};
    use pod_trace::TraceProfile;
    use pod_types::{Lba, SimTime};

    fn tiny_trace(name: &str) -> Trace {
        let p = match name {
            "web-vm" => TraceProfile::web_vm(),
            "homes" => TraceProfile::homes(),
            _ => TraceProfile::mail(),
        };
        p.scaled(0.004).generate(17)
    }

    fn replay(s: Scheme, t: &Trace) -> ReplayReport {
        replay_with(s, t, SystemConfig::test_default())
    }

    fn replay_with(s: Scheme, t: &Trace, cfg: SystemConfig) -> ReplayReport {
        s.builder().config(cfg).trace(t).run().expect("replay")
    }

    #[test]
    fn all_schemes_replay_without_error() {
        let t = tiny_trace("mail");
        for s in Scheme::all() {
            let rep = replay(s, &t);
            assert_eq!(rep.overall.count(), t.len(), "{s}: all requests measured");
            assert!(rep.overall.mean_us() > 0.0, "{s}: nonzero response times");
        }
    }

    #[test]
    fn native_removes_nothing_select_removes_much() {
        let t = tiny_trace("mail");
        let native = replay(Scheme::Native, &t);
        let select = replay(Scheme::SelectDedupe, &t);
        assert_eq!(native.writes_removed_pct(), 0.0);
        assert!(
            select.writes_removed_pct() > 30.0,
            "mail is heavily redundant: {}",
            select.writes_removed_pct()
        );
    }

    #[test]
    fn select_beats_native_on_mail_writes() {
        let t = tiny_trace("mail");
        let native = replay(Scheme::Native, &t);
        let select = replay(Scheme::SelectDedupe, &t);
        assert!(
            select.writes.mean_us() < native.writes.mean_us(),
            "select {} vs native {}",
            select.writes.mean_us(),
            native.writes.mean_us()
        );
    }

    #[test]
    fn dedup_saves_capacity() {
        let t = tiny_trace("mail");
        let native = replay(Scheme::Native, &t);
        let full = replay(Scheme::FullDedupe, &t);
        let select = replay(Scheme::SelectDedupe, &t);
        assert!(full.capacity_used_blocks < native.capacity_used_blocks);
        assert!(select.capacity_used_blocks < native.capacity_used_blocks);
        assert!(
            full.capacity_used_blocks <= select.capacity_used_blocks,
            "Full-Dedupe saves the most capacity"
        );
    }

    #[test]
    fn nvram_is_zero_for_native_and_positive_for_select() {
        let t = tiny_trace("web-vm");
        assert_eq!(replay(Scheme::Native, &t).nvram_peak_bytes, 0);
        assert!(replay(Scheme::SelectDedupe, &t).nvram_peak_bytes > 0);
    }

    #[test]
    fn replay_is_deterministic() {
        let t = tiny_trace("homes");
        let a = replay(Scheme::Pod, &t);
        let b = replay(Scheme::Pod, &t);
        assert_eq!(a.overall.mean_us(), b.overall.mean_us());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.capacity_used_blocks, b.capacity_used_blocks);
    }

    #[test]
    fn warmup_exclusion_reduces_sample_count() {
        let t = tiny_trace("homes");
        let mut cfg = SystemConfig::test_default();
        cfg.warmup_fraction = 0.5;
        let rep = replay_with(Scheme::Native, &t, cfg);
        assert!(rep.overall.count() <= t.len() - t.len() / 2 + 1);
    }

    #[test]
    fn pod_adapts_partition() {
        let t = tiny_trace("mail");
        let mut cfg = SystemConfig::test_default();
        cfg.icache.epoch_requests = 100;
        let rep = replay_with(Scheme::Pod, &t, cfg);
        assert!(rep.icache_epochs > 0);
        // Select-Dedupe (non-adaptive) never repartitions.
        let fixed = replay(Scheme::SelectDedupe, &t);
        assert_eq!(fixed.icache_repartitions, 0);
    }

    #[test]
    fn read_cache_hits_happen() {
        let t = tiny_trace("web-vm");
        // The dedup module owns the read cache; Native (module absent)
        // has none, so all its reads go to disk.
        let native = replay(Scheme::Native, &t);
        assert_eq!(native.read_cache_hit_rate, 0.0);
        let select = replay(Scheme::SelectDedupe, &t);
        assert!(
            select.read_cache_hit_rate > 0.0,
            "zipf reads must hit sometimes: {}",
            select.read_cache_hit_rate
        );
    }

    #[test]
    fn full_dedupe_fragments_reads_more_than_select() {
        let t = tiny_trace("homes");
        let full = replay(Scheme::FullDedupe, &t);
        let select = replay(Scheme::SelectDedupe, &t);
        assert!(
            full.read_fragmentation >= select.read_fragmentation,
            "full {} vs select {}",
            full.read_fragmentation,
            select.read_fragmentation
        );
    }

    #[test]
    fn oversized_trace_is_rejected() {
        let mut cfg = SystemConfig::test_default();
        // Test disk: 10k blocks/disk, 3 data disks = 30k blocks.
        cfg.memory_bytes = Some(1 << 20);
        let req = pod_types::IoRequest::write(
            SimTime::ZERO,
            Lba::new(10_000_000),
            vec![pod_types::Fingerprint::from_content_id(1)],
        );
        let trace = Trace {
            name: "huge".into(),
            requests: vec![req],
            memory_budget_bytes: 1 << 20,
        };
        let result = Scheme::Native.builder().config(cfg).trace(&trace).run();
        assert!(result.is_err());
    }

    #[test]
    fn post_process_saves_capacity_without_removing_writes() {
        let t = tiny_trace("mail");
        let native = replay(Scheme::Native, &t);
        let post = replay(Scheme::PostProcess, &t);
        // Same I/O path: nothing removed from the write stream.
        assert_eq!(post.writes_removed_pct(), 0.0);
        // But the background pass deduplicates stored data.
        assert!(
            post.capacity_used_blocks < native.capacity_used_blocks,
            "post {} vs native {}",
            post.capacity_used_blocks,
            native.capacity_used_blocks
        );
        assert!(post.counters.deduped_blocks > 0);
    }

    #[test]
    fn iodedup_content_cache_beats_lba_cache_on_duplicates() {
        // I/O-Dedup's content-addressed cache shares slots between
        // duplicate blocks, so on a redundancy-heavy trace its hit rate
        // is at least that of the same-size LBA-keyed cache.
        let t = tiny_trace("mail");
        let iodedup = replay(Scheme::IODedup, &t);
        assert_eq!(iodedup.writes_removed_pct(), 0.0, "no write elimination");
        assert!(iodedup.read_cache_hit_rate > 0.0);
        // Capacity is Native-like: duplicates still occupy disk.
        let native = replay(Scheme::Native, &t);
        assert_eq!(iodedup.capacity_used_blocks, native.capacity_used_blocks);
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace {
            name: "empty".into(),
            requests: vec![],
            memory_budget_bytes: 1 << 20,
        };
        let rep = replay(Scheme::Pod, &trace);
        assert_eq!(rep.overall.count(), 0);
        assert_eq!(rep.writes_removed_pct(), 0.0);
    }

    #[test]
    fn sizing_floors_empty_trace() {
        let trace = Trace {
            name: "empty".into(),
            requests: vec![],
            memory_budget_bytes: 1 << 20,
        };
        let s = ReplaySizing::from_trace(&trace);
        assert_eq!(s.logical_blocks, 1_024, "1024-block floor");
        assert_eq!(s.overflow_blocks, 1_024 / 2 + 4_096);
        assert_eq!(s.region_blocks, 1_024, "region clamp lower bound");
        assert_eq!(s.index_region_base, s.logical_blocks + s.overflow_blocks);
        assert_eq!(s.swap_region_base, s.index_region_base + s.region_blocks);
        assert_eq!(s.needed_blocks, s.swap_region_base + s.region_blocks);
        assert_eq!(s.expected_unique_blocks, 0);
        assert_eq!(s.max_request_blocks, 0);
    }

    #[test]
    fn sizing_tracks_trace_extent_and_write_volume() {
        let fp = pod_types::Fingerprint::from_content_id;
        let requests = vec![
            pod_types::IoRequest::write(SimTime::ZERO, Lba::new(10_000), vec![fp(1), fp(2), fp(3)]),
            pod_types::IoRequest::read(SimTime::from_micros(5), Lba::new(50_000), 8),
            pod_types::IoRequest::write(SimTime::from_micros(9), Lba::new(30), vec![fp(4)]),
        ];
        let trace = Trace {
            name: "t".into(),
            requests,
            memory_budget_bytes: 1 << 20,
        };
        let s = ReplaySizing::from_trace(&trace);
        assert_eq!(s.logical_blocks, 50_008, "read at 50k + 8 blocks");
        assert_eq!(s.region_blocks, (50_008 / 4).clamp(1_024, 1 << 18));
        assert_eq!(s.expected_unique_blocks, 4, "write blocks only");
        assert_eq!(s.max_request_blocks, 8, "largest request, read or write");
        assert_eq!(s.needed_blocks, s.swap_region_base + s.region_blocks);
    }

    #[test]
    fn sizing_caps_expected_blocks_at_logical_span() {
        // More write traffic than address space: rewrites cannot create
        // more live blocks than the span.
        let fp = pod_types::Fingerprint::from_content_id;
        let requests: Vec<_> = (0..2_000u64)
            .map(|i| pod_types::IoRequest::write(SimTime::from_micros(i), Lba::new(0), vec![fp(i)]))
            .collect();
        let trace = Trace {
            name: "rw".into(),
            requests,
            memory_budget_bytes: 1 << 20,
        };
        let s = ReplaySizing::from_trace(&trace);
        assert_eq!(s.logical_blocks, 1_024);
        assert_eq!(s.expected_unique_blocks, 1_024, "capped at the span");
    }

    #[test]
    fn sizing_refuses_a_trace_ending_past_the_bound() {
        let ending_at = |end: u64| Trace {
            name: "huge".into(),
            requests: vec![pod_types::IoRequest::read(
                SimTime::ZERO,
                Lba::new(end - 1),
                1,
            )],
            memory_budget_bytes: 1 << 20,
        };
        let max = ReplaySizing::MAX_END_LBA;
        // Just below the bound the layout's adds do not overflow (a
        // debug build would panic on one).
        let s = ReplaySizing::try_from_trace(&ending_at(max - 1)).expect("below the bound");
        assert!(
            s.needed_blocks > s.swap_region_base,
            "the layout fits a u64"
        );
        for end in [max, u64::MAX / 3 * 2 + 1, u64::MAX] {
            assert_eq!(
                ReplaySizing::try_from_trace(&ending_at(end)),
                Err(PodError::OutOfRange {
                    what: "trace end lba".into(),
                    value: end,
                    limit: max,
                })
            );
        }
    }

    #[test]
    fn builder_requires_a_trace() {
        let err = Scheme::Pod
            .builder()
            .config(SystemConfig::test_default())
            .run()
            .expect_err("no trace set");
        assert!(err.to_string().contains("no trace set"), "{err}");
    }

    #[test]
    fn snapshots_are_sampled_and_final_one_exists() {
        /// Every sampled snapshot, in order.
        #[derive(Default)]
        struct Snaps(Vec<StateSnapshot>);
        impl StackObserver for Snaps {
            fn on_event(&mut self, ev: &StackEvent) {
                if let StackEvent::Snapshot { snap } = ev {
                    self.0.push(*snap);
                }
            }
        }
        fn run(t: &Trace, cfg: &SystemConfig) -> (ReplayReport, Vec<StateSnapshot>, TraceRecorder) {
            let (rep, mut chain) = Scheme::Pod
                .builder()
                .config(cfg.clone())
                .trace(t)
                .observer(Snaps::default())
                .record(100)
                .run_observed()
                .expect("replay");
            let snaps = chain.take_sink::<Snaps>().expect("sink attached").0;
            assert_eq!(snaps.len() as u64, rep.stack.snapshots);
            (rep, snaps, chain.take_sink().expect("recorder attached"))
        }
        /// Snapshot `seq` sits on the iCache's boundary of epoch `seq + 1`.
        fn assert_on_boundary(s: &StateSnapshot) {
            assert_eq!(s.requests, (s.seq + 1) * 100, "snapshot {}", s.seq);
            assert_eq!(s.icache.epochs, s.seq + 1, "snapshot {}", s.seq);
        }

        let mut t = tiny_trace("mail");
        let mut cfg = SystemConfig::test_default();
        cfg.icache.epoch_requests = 100;
        let n = t.len() as u64;
        assert!(!n.is_multiple_of(100), "the trace ends inside an epoch");
        let (rep, snaps, rec) = run(&t, &cfg);
        assert_eq!(
            rep.stack.snapshots,
            n / 100 + 1,
            "one snapshot per epoch boundary plus the final sample"
        );
        let (last, boundaries) = snaps.split_last().expect("snapshots");
        boundaries.iter().for_each(assert_on_boundary);
        assert_eq!((last.requests, last.icache.epochs), (n, n / 100));
        // The final snapshot rides the recorded trace's summary too.
        assert_eq!(rec.totals().snap, Some(*last));
        assert!(last.dedup.map.mapped > 0, "map table populated");
        assert!(
            last.icache.index_bytes > 0,
            "index partition holds a budget"
        );

        // A trace that ends on a boundary gets no extra final sample.
        t.requests.truncate((n / 100 * 100) as usize);
        let (rep, snaps, _) = run(&t, &cfg);
        assert_eq!(rep.stack.snapshots, n / 100);
        snaps.iter().for_each(assert_on_boundary);
    }

    #[test]
    fn builder_record_attaches_a_trace_recorder() {
        let t = tiny_trace("web-vm");
        let (report, mut chain) = Scheme::Pod
            .builder()
            .config(SystemConfig::test_default())
            .trace(&t)
            .record(100)
            .run_observed()
            .expect("replay");
        let rec: TraceRecorder = chain.take_sink().expect("recorder attached");
        assert_eq!(rec.scheme(), "POD");
        assert_eq!(rec.epoch_requests(), 100);
        assert_eq!(rec.totals().requests, t.len() as u64);
        let reads_in_rows: u64 = rec.rows().iter().map(|r| r.reads).sum();
        // Recorder rows count all requests, counters only measured ones
        // (test config has no warm-up, so they agree).
        assert_eq!(reads_in_rows, report.stack.measured_reads.reads);
    }

    #[test]
    fn builder_auto_epoch_floor() {
        let t = tiny_trace("homes");
        let (_, mut chain) = Scheme::Native
            .builder()
            .config(SystemConfig::test_default())
            .trace(&t)
            .record(0)
            .run_observed()
            .expect("replay");
        let rec: TraceRecorder = chain.take_sink().expect("recorder");
        assert!(rec.epoch_requests() >= 64, "auto epoch floors at 64");
    }

    #[test]
    fn verify_attaches_a_passing_integrity_report_for_every_scheme() {
        let t = tiny_trace("mail");
        for s in Scheme::all() {
            let rep = s
                .builder()
                .config(SystemConfig::test_default())
                .trace(&t)
                .verify(true)
                .run()
                .expect("replay");
            let integ = rep.integrity.expect("oracle attached");
            assert!(integ.passed(), "{s}: {}", integ.summary());
            assert!(integ.checked > 0, "{s}: oracle walked live blocks");
            assert_eq!(integ.faults_seen, 0, "{s}: no faults configured");
        }
    }

    /// Post-Process defers dedup to a background pass that `finish`
    /// drains; after that it must hold what inline Full-Dedupe holds
    /// for the same trace — the equivalence hybrid inline/out-of-line
    /// schemes rest on.
    #[test]
    fn drained_post_process_reaches_full_dedupe_capacity_and_content() {
        let finished = |s: Scheme, t: &Trace| {
            let (rep, stack) = replay_finished(s, t);
            (rep.capacity_used_blocks, stack)
        };
        for name in ["web-vm", "homes", "mail"] {
            let t = tiny_trace(name);
            let (post_blocks, post) = finished(Scheme::PostProcess, &t);
            let (full_blocks, full) = finished(Scheme::FullDedupe, &t);
            assert_eq!(post.engine().scan_backlog(), 0, "{name}: drained");
            assert_eq!(post_blocks, full_blocks, "{name}: capacity used");
            let (native_blocks, _) = finished(Scheme::Native, &t);
            assert!(full_blocks < native_blocks, "{name}: duplicates removed");
            let written = t.requests.iter().filter(|r| r.op.is_write());
            for lba in written.flat_map(|r| r.lbas()) {
                assert_eq!(
                    post.engine().content_of(lba),
                    full.engine().content_of(lba),
                    "{name}: content of lba {}",
                    lba.raw()
                );
            }
        }
    }

    #[test]
    fn integrity_report_is_absent_by_default() {
        let t = tiny_trace("web-vm");
        let rep = replay(Scheme::Pod, &t);
        assert!(rep.integrity.is_none());
    }

    #[test]
    fn profile_lands_in_report_only_when_requested() {
        let t = tiny_trace("mail");
        let rep = replay(Scheme::Pod, &t);
        assert!(rep.profile.is_none(), "off by default");
        let rep = Scheme::Pod
            .builder()
            .config(SystemConfig::test_default())
            .trace(&t)
            .profile(true)
            .run()
            .expect("replay");
        let prof = rep.profile.expect("profile attached");
        assert!(!prof.is_empty(), "host time recorded");
        assert!(prof.total_ns() > 0);
        // Every layer share is a valid fraction and they sum to 1.
        let sum: f64 = prof.layer_shares().iter().map(|&(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to 1: {sum}");
        // The hot phases all saw traffic on a mixed trace.
        use crate::prof::ProfPhase;
        for p in [
            ProfPhase::CacheLookup,
            ProfPhase::DedupClassify,
            ProfPhase::DiskRun,
            ProfPhase::Observe,
        ] {
            assert!(prof.phase(p).count > 0, "{} phase saw traffic", p.name());
        }
        // Profiling must not perturb the simulated result.
        let base = replay(Scheme::Pod, &t);
        assert_eq!(base.overall.mean_us(), rep.overall.mean_us());
        assert_eq!(base.counters, rep.counters);
    }

    #[test]
    fn layer_time_totals_are_populated() {
        let t = tiny_trace("mail");
        let rep = replay_with(Scheme::Pod, &t, SystemConfig::test_default());
        assert!(rep.stack.all.dedup_us > 0, "writes hashed inline");
        assert!(rep.stack.all.disk_us > 0, "disk-bound requests exist");
        let share_sum: f64 = crate::obs::Layer::ALL
            .iter()
            .map(|&l| rep.stack.all.layer_share(l))
            .sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1: {share_sum}"
        );
    }

    /// The report's distributions as they were built before the
    /// one-pass [`measure`], kept as the reference it is checked
    /// against: resolve every slot into an `Option` array, walk the
    /// trace to split the responses and pair each with its arrival,
    /// then window the pairs over their latest arrival.
    fn three_pass_reference(responses: &[u64], trace: &Trace, warmup: usize) -> Measured {
        let mut resolved: Vec<Option<u64>> = vec![None; trace.len()];
        for (slot, &us) in resolved.iter_mut().zip(responses) {
            *slot = (us != StorageStack::UNRESOLVED).then_some(us);
        }
        let (mut overall, mut reads, mut writes) = (Metrics::new(), Metrics::new(), Metrics::new());
        let mut samples: Vec<(u64, u64)> = Vec::new();
        for (idx, req) in trace.requests.iter().enumerate().skip(warmup) {
            let us = resolved[idx].expect("every request resolved");
            overall.record(us);
            samples.push((req.arrival.as_micros(), us));
            if req.op.is_write() {
                writes.record(us);
            } else {
                reads.record(us);
            }
        }
        let mut timeline = Timeline::default();
        if let Some(last) = samples.iter().map(|&(a, _)| a).max() {
            let windows = Timeline::WINDOWS;
            let window_us = (last / windows as u64).max(1);
            let mut sums: Vec<(u64, usize)> = vec![(0, 0); windows + 1];
            for &(arrival, response) in &samples {
                let w = (arrival / window_us).min(windows as u64) as usize;
                sums[w].0 += response;
                sums[w].1 += 1;
            }
            timeline.window_us = window_us;
            timeline.points = sums
                .into_iter()
                .enumerate()
                .filter(|(_, (_, n))| *n > 0)
                .map(|(i, (sum, n))| (i as u64 * window_us, sum as f64 / n as f64, n))
                .collect();
        }
        Measured {
            overall,
            reads,
            writes,
            timeline,
        }
    }

    /// Count, sum, max, every printed percentile and the sample order
    /// of each distribution, and every timeline point, agree.
    fn assert_same(got: &Measured, want: &Measured) {
        let printed = [50.0, 95.0, 99.0];
        for (label, g, w) in [
            ("overall", &got.overall, &want.overall),
            ("reads", &got.reads, &want.reads),
            ("writes", &got.writes, &want.writes),
        ] {
            assert_eq!(g.count(), w.count(), "{label} count");
            assert_eq!(g.mean_us().to_bits(), w.mean_us().to_bits(), "{label} sum");
            assert_eq!(g.max_us(), w.max_us(), "{label} max");
            assert_eq!(
                g.percentiles(&printed),
                printed.map(|p| w.percentile_us(p)),
                "{label} percentiles"
            );
            assert_eq!(g.samples(), w.samples(), "{label} samples");
        }
        assert_eq!(got.timeline.window_us, want.timeline.window_us);
        assert_eq!(got.timeline.points, want.timeline.points);
    }

    /// A trace of `(arrival µs, is write, _)` rows, in the given order.
    fn synthetic(rows: &[(u64, bool, u64)]) -> Trace {
        let requests = rows
            .iter()
            .enumerate()
            .map(|(i, &(arrival, write, _))| {
                let at = SimTime::from_micros(arrival);
                let lba = Lba::new(i as u64 * 8);
                if write {
                    let fp = pod_types::Fingerprint::from_content_id(i as u64);
                    pod_types::IoRequest::write(at, lba, vec![fp])
                } else {
                    pod_types::IoRequest::read(at, lba, 1)
                }
            })
            .collect();
        Trace {
            name: "synthetic".into(),
            requests,
            memory_budget_bytes: 1 << 20,
        }
    }

    /// [`measure`] as `replay_stack` calls it: the latest measured
    /// arrival and the measured reads taken from the trace.
    fn measure_all(responses: Vec<u64>, trace: &Trace, warmup: usize) -> PodResult<Measured> {
        let measured = &trace.requests[warmup.min(trace.len())..];
        let last = measured.iter().map(|r| r.arrival.as_micros()).max();
        let reads = measured.iter().filter(|r| !r.op.is_write()).count();
        measure(responses, trace, warmup, last.unwrap_or(0), reads)
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            /// Unsorted arrivals, any mix of reads and writes, and a
            /// warm-up of 0, of the whole trace or anywhere between.
            #[test]
            fn one_pass_report_matches_the_three_pass_reference(
                rows in vec((0u64..5_000_000, any::<bool>(), 0u64..2_000_000), 0..300),
                warm in 0usize..3,
                cut in any::<usize>(),
            ) {
                let trace = synthetic(&rows);
                let n = rows.len();
                let warmup = [0, n, cut % (n + 1)][warm];
                let responses: Vec<u64> = rows.iter().map(|r| r.2).collect();
                let got = measure_all(responses.clone(), &trace, warmup).expect("resolved");
                assert_same(&got, &three_pass_reference(&responses, &trace, warmup));
            }
        }
    }

    #[test]
    fn one_pass_report_of_an_empty_trace_is_empty() {
        let trace = synthetic(&[]);
        let got = measure_all(Vec::new(), &trace, 0).expect("nothing to resolve");
        assert_same(&got, &three_pass_reference(&[], &trace, 0));
        assert_eq!((got.overall.count(), got.timeline.window_us), (0, 0));
    }

    /// Throttled tenant requests are processed at shifted arrivals, yet
    /// the timeline windows their trace arrivals, as it always did. The
    /// trace is also out of order in its measured part.
    #[test]
    fn one_pass_report_matches_the_reference_under_throttling() {
        let mut trace = tiny_trace("mail");
        let n = trace.len();
        let (a, b) = (n / 2, n - 3);
        let (early, late) = (trace.requests[a].arrival, trace.requests[b].arrival);
        trace.requests[a].arrival = late;
        trace.requests[b].arrival = early;
        let mut cfg = SystemConfig::test_default();
        cfg.warmup_fraction = 0.25;
        let spec = Scheme::Pod.stack_spec();
        let setup = || TenantSetup {
            throttle: Some(TokenBucket::new(40, 4)),
            ..TenantSetup::default()
        };
        let (mut stack, warmup, _) =
            drive(&spec, &cfg, &trace, ObserverChain::new(), setup()).expect("replay");
        assert_eq!(warmup, n / 4);
        assert!(stack.observer().counters().all.throttle_waits > 0);
        let want = three_pass_reference(&stack.take_responses(), &trace, warmup);
        let (report, _) = replay_stack(&spec, &cfg, &trace, ObserverChain::new(), false, setup())
            .expect("replay");
        let got = Measured {
            overall: report.overall,
            reads: report.reads,
            writes: report.writes,
            timeline: report.timeline,
        };
        assert_same(&got, &want);
        assert_eq!(got.overall.count(), n - warmup);
    }

    #[test]
    fn an_unresolved_slot_is_an_error_naming_its_request() {
        let trace = synthetic(&[(0, true, 0), (10, false, 0), (20, true, 0)]);
        let mut stack = StorageStack::with_observer(
            &Scheme::Pod.stack_spec(),
            &SystemConfig::test_default(),
            &trace,
            ObserverChain::new(),
        )
        .expect("stack");
        // Request 1 is never processed.
        for idx in [0, 2] {
            let req = &trace.requests[idx];
            stack.run_until(req.arrival);
            stack.process_request(idx, req, true).expect("processed");
        }
        stack.finish().expect("finished");
        let err = collect_report(&mut stack, "POD", &trace, 0, 20, None)
            .expect_err("request 1 has no response");
        assert_eq!(
            err,
            PodError::Inconsistency("request 1 has no response after the replay finished".into())
        );
        // Inside the warm-up it is not reported, so not an error.
        let mut responses = vec![5, StorageStack::UNRESOLVED, 7];
        assert!(measure_all(responses.clone(), &trace, 2).is_ok());
        // A slot the array never grew to is unresolved too.
        responses.truncate(2);
        responses[1] = 6;
        let err = measure_all(responses, &trace, 0).expect_err("request 2 missing");
        assert!(
            err.to_string().contains("request 2 has no response"),
            "{err}"
        );
    }
}
