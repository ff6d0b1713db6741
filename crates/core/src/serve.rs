//! Sharded multi-tenant serving engine.
//!
//! A plain [`ReplayBuilder`](crate::ReplayBuilder) run is one trace
//! through one stack. This module promotes that into a *service*: K
//! per-tenant request streams (see [`pod_trace::derive_tenants`]) are
//! partitioned across N shards, and each shard worker on the shared
//! [`Executor`](crate::pool::Executor) serves its tenants back to back,
//! each one through the same replay loop a solo run uses.
//!
//! # Units of isolation vs. units of concurrency
//!
//! * A **tenant** is the unit of isolation: it owns a full
//!   [`StorageStack`](crate::StorageStack) (its own dedup tables,
//!   caches and simulated array), mirroring the paper's
//!   consolidated-VM picture where each VM's working set is
//!   independent. Because tenant state never
//!   crosses a stack boundary, every per-tenant report is a pure
//!   function of that tenant's trace and the config.
//! * A **shard** is the unit of concurrency: shard `s` owns tenants
//!   `{t | t mod N == s}` and one worker serves them in ascending id
//!   order, one live stack at a time. Tenants share no state, so the
//!   order they are served in changes no result.
//! * A tenant's **trace** need exist only while the tenant is served.
//!   A fleet given through [`ServeBuilder::tenants_with`] is generated
//!   tenant by tenant on the shard workers: each trace is made just
//!   before its stack is built and dropped when the tenant is done, so
//!   a run holds at most `min(jobs, shards)` traces, however many
//!   tenants it serves. A slice given to [`ServeBuilder::tenants`] is
//!   borrowed as it is.
//!
//! The consequence is the engine's central guarantee: reports are
//! **byte-identical at any worker width and any shard count** — `--jobs`
//! and `--shards` change wall-clock behaviour only. Shard wall-time
//! spans are reported separately in [`ShardStats`] (they are the only
//! non-deterministic output, and the CLI keeps them off stdout).
//!
//! Under a [`ServePolicy`] the fleet-wide capacity view is folded on
//! the workers too: each shard inserts its tenants' stored fingerprints
//! into one set before dropping each stack, and the caller only unions
//! the N shard sets. Set union is order-free, so
//! [`ServeAggregate::fleet_unique_blocks`] carries the same guarantee.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use std::time::{Duration, Instant};

use crate::config::{ServePolicy, SystemConfig};
use crate::metrics::Metrics;
use crate::obs::{ObserverChain, StackCounters, TraceRecorder};
use crate::prof::{HostProfile, ProfSink};
use crate::runner::{recorder_epoch, replay_stack, BuilderCore, ReplayReport, TenantSetup};
use crate::scheme::Scheme;
use crate::stack::StackSpec;
use pod_dedup::engine::EngineCounters;
use pod_trace::Trace;
use pod_types::hash::FnvBuildHasher;
use pod_types::{Fingerprint, PodError, PodResult};

/// Reject a topology the engine cannot serve: no tenants, more tenants
/// than `u16` ids, no shards, or more shards than tenants (an empty
/// shard serves nothing and would silently skew scaling numbers).
fn check_topology(tenants: usize, shards: usize) -> PodResult<()> {
    if tenants == 0 {
        return Err(PodError::InvalidConfig(
            "serve needs at least one tenant".into(),
        ));
    }
    const MAX_TENANTS: usize = u16::MAX as usize + 1;
    if tenants > MAX_TENANTS {
        return Err(PodError::InvalidConfig(format!(
            "{tenants} tenants: serve tags tenants with u16 ids, at most {MAX_TENANTS}"
        )));
    }
    if shards == 0 {
        return Err(PodError::InvalidConfig(
            "serve needs at least one shard".into(),
        ));
    }
    if shards > tenants {
        return Err(PodError::InvalidConfig(format!(
            "{shards} shards for {tenants} tenants: every shard must own at least one tenant"
        )));
    }
    Ok(())
}

/// One tenant's isolated replay outcome within a serve run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id: the index the builder's slice or generator gives the
    /// tenant's trace.
    pub tenant: u16,
    /// The tenant's full per-stack report — identical to what a solo
    /// [`ReplayBuilder`](crate::ReplayBuilder) run of the same trace
    /// would produce.
    pub report: ReplayReport,
}

/// SPACE-style per-tenant capacity attribution: the tenant's logical
/// footprint, set against the physical blocks its isolated array holds
/// after deduplication
/// ([`ReplayReport::capacity_used_blocks`]). Collected only when a
/// [`ServePolicy`] is active.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantCapacity {
    /// Tenant id.
    pub tenant: u16,
    /// Logical blocks mapped — every LBA the tenant has written.
    pub logical_blocks: u64,
}

/// Cross-tenant aggregate of a serve run: metrics merged, counters
/// summed. Capacity and NVRAM are sums over isolated per-tenant arrays.
#[derive(Debug, Clone, Default)]
pub struct ServeAggregate {
    /// All measured requests across tenants.
    pub overall: Metrics,
    /// Read requests across tenants.
    pub reads: Metrics,
    /// Write requests across tenants.
    pub writes: Metrics,
    /// Summed dedup-engine counters.
    pub counters: EngineCounters,
    /// Summed structured stack counters.
    pub stack: StackCounters,
    /// Total unique physical blocks across tenant arrays.
    pub capacity_used_blocks: u64,
    /// Summed peak NVRAM across tenants.
    pub nvram_peak_bytes: u64,
    /// Distinct content fingerprints across *all* tenant arrays — the
    /// SPACE-style global capacity view: what a single fleet-wide dedup
    /// domain would store. Always ≤ [`capacity_used_blocks`]; the gap
    /// is cross-tenant redundancy that per-tenant isolation forgoes.
    /// An exact count (each shard worker folds its tenants' stores into
    /// a set; the sets are unioned), identical at any shard count,
    /// worker width and tenant order.
    /// 0 when no [`ServePolicy`] is active.
    ///
    /// [`capacity_used_blocks`]: Self::capacity_used_blocks
    pub fleet_unique_blocks: u64,
    /// Per-tenant logical/physical attribution, ascending tenant id.
    /// Empty when no policy is active.
    pub tenant_capacity: Vec<TenantCapacity>,
    /// Host wall-clock time per stack phase, merged across every
    /// tenant stack. Present only when the run was built with
    /// [`ServeBuilder::profile`] enabled.
    pub profile: Option<HostProfile>,
}

impl ServeAggregate {
    fn absorb(&mut self, rep: &ReplayReport) {
        self.overall.merge(&rep.overall);
        self.reads.merge(&rep.reads);
        self.writes.merge(&rep.writes);
        self.counters.add(&rep.counters);
        self.stack.absorb(&rep.stack);
        self.capacity_used_blocks += rep.capacity_used_blocks;
        self.nvram_peak_bytes += rep.nvram_peak_bytes;
        if let Some(p) = &rep.profile {
            self.profile.get_or_insert_with(HostProfile::new).absorb(p);
        }
    }
}

/// Wall-clock accounting for one shard worker. The only part of a
/// serve run that is *not* deterministic — keep it out of outputs that
/// are diffed for byte identity.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Tenants this shard served, ascending.
    pub tenants: Vec<u16>,
    /// Requests processed (all tenants, warm-up included).
    pub requests: u64,
    /// Wall time the worker spent building, driving and finishing its
    /// tenants' stacks. Generating a tenant's trace is not counted.
    pub busy_us: u64,
}

/// Result of a sharded serve run: per-tenant reports (ascending tenant
/// id), the cross-tenant aggregate, and per-shard wall-clock spans.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scheme name.
    pub scheme: String,
    /// Shard count the run used.
    pub shards: usize,
    /// One report per tenant, ascending tenant id.
    pub tenants: Vec<TenantReport>,
    /// Cross-tenant aggregate.
    pub aggregate: ServeAggregate,
    /// Per-shard wall-clock accounting (non-deterministic).
    pub shard_stats: Vec<ShardStats>,
}

impl ServeReport {
    /// Total requests served (all tenants, warm-up included).
    pub fn total_requests(&self) -> u64 {
        self.shard_stats.iter().map(|s| s.requests).sum()
    }

    /// The slowest shard's busy span — the run's critical path. With
    /// one worker per shard this bounds wall-clock completion time on
    /// any machine with at least `shards` cores.
    pub fn critical_path_us(&self) -> u64 {
        self.shard_stats
            .iter()
            .map(|s| s.busy_us)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate service rate along the critical path: total requests
    /// divided by the slowest shard's busy span. This is the engine's
    /// scaling figure of merit — it equals wall-clock throughput when
    /// cores ≥ shards, and unlike wall-clock it is meaningful on
    /// core-starved CI runners too. Measure with `jobs = 1` so shard
    /// spans are timed uncontended.
    pub fn jobs_per_sec(&self) -> f64 {
        let us = self.critical_path_us();
        if us == 0 {
            return 0.0;
        }
        self.total_requests() as f64 * 1e6 / us as f64
    }
}

/// Per-tenant observer factory: invoked once per tenant (with its id)
/// when the tenant's stack is built on its shard worker, so it must be
/// `Send + Sync`.
type ObserverFactory = Box<dyn Fn(u16) -> ObserverChain + Send + Sync>;

/// Where a serve run's tenant traces come from: tenant `i`'s trace is
/// `get(i)`. A borrowed slice hands out references; a generator makes
/// the trace on the shard worker that serves it, which drops it when the
/// tenant is done, so a shard never holds two traces.
enum TenantSource<'t> {
    Borrowed(&'t [Trace]),
    Generated {
        count: usize,
        make: Box<dyn Fn(usize) -> Trace + Sync + 't>,
    },
}

impl<'t> TenantSource<'t> {
    fn count(&self) -> usize {
        match self {
            Self::Borrowed(traces) => traces.len(),
            Self::Generated { count, .. } => *count,
        }
    }

    fn get(&self, tenant: usize) -> Cow<'t, Trace> {
        match self {
            Self::Borrowed(traces) => Cow::Borrowed(&traces[tenant]),
            Self::Generated { make, .. } => Cow::Owned(make(tenant)),
        }
    }
}

/// Builder for a sharded serve run — the serving-engine analogue of
/// [`ReplayBuilder`](crate::ReplayBuilder).
///
/// ```
/// use pod_core::prelude::*;
/// use pod_core::serve::ServeBuilder;
/// use pod_trace::{derive_tenants, TraceProfile};
///
/// let tenants = derive_tenants(&TraceProfile::mail().scaled(0.002), 4, 3);
/// let report = ServeBuilder::new(Scheme::Pod)
///     .config(SystemConfig::test_default())
///     .tenants(&tenants)
///     .shards(2)
///     .run()?;
/// assert_eq!(report.tenants.len(), 4);
/// assert_eq!(report.aggregate.overall.count() as u64, report.total_requests());
/// # Ok::<(), pod_types::PodError>(())
/// ```
pub struct ServeBuilder<'t> {
    core: BuilderCore,
    tenants: Option<TenantSource<'t>>,
    shards: usize,
    jobs: Option<usize>,
    observer: Option<ObserverFactory>,
}

impl fmt::Debug for ServeBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeBuilder")
            .field("core", &self.core)
            .field("tenants", &self.tenants.as_ref().map(TenantSource::count))
            .field("shards", &self.shards)
            .field("jobs", &self.jobs)
            .field("observer", &self.observer.as_ref().map(|_| "<factory>"))
            .finish()
    }
}

impl ServeBuilder<'static> {
    /// Start building a serve run of `scheme` with the paper-default
    /// configuration, one shard, and the process-default worker width.
    pub fn new(scheme: Scheme) -> Self {
        Self {
            core: BuilderCore::new(scheme),
            tenants: None,
            shards: 1,
            jobs: None,
            observer: None,
        }
    }
}

impl<'t> ServeBuilder<'t> {
    /// Use `cfg` instead of the paper default (validated at
    /// [`run`](Self::run)). A config with
    /// [`policy`](SystemConfig::policy) set turns on the cross-tenant
    /// QoS layer: shared-tier competition, quotas and rate limits.
    pub fn config(mut self, cfg: SystemConfig) -> Self {
        self.core.cfg = cfg;
        self
    }

    /// The per-tenant traces to serve (tenant id = slice index).
    /// Required, or [`tenants_with`](Self::tenants_with). Rebinds the
    /// builder's lifetime to the slice's, so the call order of
    /// `.tenants(..)` against the other setters does not matter.
    pub fn tenants<'u>(self, tenants: &'u [Trace]) -> ServeBuilder<'u> {
        self.source(TenantSource::Borrowed(tenants))
    }

    /// Serve `count` tenants whose traces `make(id)` builds on demand:
    /// each shard worker calls it just before serving that tenant and
    /// drops the trace when the tenant is done, so a run holds at most
    /// one trace per busy worker instead of the whole fleet's. Reports
    /// are those of [`tenants`](Self::tenants) over the same traces.
    /// `make` runs once per tenant and must be deterministic for the
    /// run to be.
    pub fn tenants_with<'u>(
        self,
        count: usize,
        make: impl Fn(usize) -> Trace + Sync + 'u,
    ) -> ServeBuilder<'u> {
        self.source(TenantSource::Generated {
            count,
            make: Box::new(make),
        })
    }

    fn source<'u>(self, tenants: TenantSource<'u>) -> ServeBuilder<'u> {
        ServeBuilder {
            core: self.core,
            tenants: Some(tenants),
            shards: self.shards,
            jobs: self.jobs,
            observer: self.observer,
        }
    }

    /// Number of shards (validated against the tenant count at
    /// [`run`](Self::run)). Default 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Worker-pool width override. Default: the process-wide
    /// [`Executor`](crate::pool::Executor) width. Results never depend
    /// on this.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = Some(jobs);
        self
    }

    /// Attach a tenant-tagged epoch [`TraceRecorder`] to every tenant
    /// stack (`0` = auto epoch, ~64 epochs per tenant). Read them back
    /// via [`run_recorded`](Self::run_recorded).
    pub fn record(mut self, epoch_requests: u64) -> Self {
        self.core.record_epoch = Some(epoch_requests);
        self
    }

    /// Attach observers to every tenant stack: `factory` is called with
    /// each tenant id on that tenant's shard worker and its chain is
    /// installed before the replay starts.
    ///
    /// This is the serving engine's analogue of
    /// [`ReplayBuilder::observer`](crate::ReplayBuilder::observer) —
    /// the one deliberate divergence that remains between the two
    /// builders: a serve run builds K stacks on worker threads, so it
    /// takes a `Send + Sync` per-tenant factory where the replay
    /// builder takes one ready-made sink. Retrieve per-tenant sinks
    /// through the recorder path or by sharing state inside the
    /// factory's captures.
    pub fn observer(
        mut self,
        factory: impl Fn(u16) -> ObserverChain + Send + Sync + 'static,
    ) -> Self {
        self.observer = Some(Box::new(factory));
        self
    }

    /// Run the end-to-end integrity oracle after every tenant's
    /// replay, exactly as
    /// [`ReplayBuilder::verify`](crate::ReplayBuilder::verify) does for
    /// a solo run: each tenant's stack is checked against the tenant's
    /// own trace and the verdict lands in its report's
    /// [`integrity`](ReplayReport::integrity). Off by default.
    pub fn verify(mut self, verify: bool) -> Self {
        self.core.verify = verify;
        self
    }

    /// Profile host wall-clock time per stack phase for every tenant
    /// stack, exactly as
    /// [`ReplayBuilder::profile`](crate::ReplayBuilder::profile) does
    /// for a solo run: each tenant's [`HostProfile`] lands in its
    /// report's [`profile`](ReplayReport::profile) and the merged fleet
    /// view in [`ServeAggregate::profile`]. Off by default.
    pub fn profile(mut self, profile: bool) -> Self {
        self.core.profile = profile;
        self
    }

    /// Serve and return the report.
    pub fn run(self) -> PodResult<ServeReport> {
        self.run_recorded().map(|(report, _)| report)
    }

    /// Serve and also return the per-tenant recorders (ascending tenant
    /// id; empty unless [`record`](Self::record) was called).
    ///
    /// The serving analogue of
    /// [`ReplayBuilder::run_observed`](crate::ReplayBuilder::run_observed);
    /// it returns recorders rather than whole observer chains because
    /// the chains live on worker threads (the remaining builder
    /// divergence, documented on [`observer`](Self::observer)).
    pub fn run_recorded(self) -> PodResult<(ServeReport, Vec<TraceRecorder>)> {
        self.core.cfg.validate()?;
        let tenants = self.tenants.ok_or_else(|| {
            PodError::InvalidConfig(
                "ServeBuilder: no tenants set (call .tenants(..) before .run())".into(),
            )
        })?;
        let shards = self.shards;
        // Before any trace is generated.
        check_topology(tenants.count(), shards)?;
        let spec = self.core.scheme.stack_spec();

        // One job per shard: the worker owns its tenants for the whole
        // run (no hand-offs between workers). Tenant `t` runs on shard
        // `t mod shards`.
        let jobs: Vec<ShardJob> = (0..shards)
            .map(|shard| ShardJob {
                shard,
                tenants: (shard..tenants.count())
                    .step_by(shards)
                    .map(|t| t as u16)
                    .collect(),
            })
            .collect();

        let pool = match self.jobs {
            Some(width) => crate::pool::Executor::with_width(width),
            None => crate::pool::Executor::new(),
        };
        let ctx = ShardCtx {
            spec: &spec,
            cfg: &self.core.cfg,
            record_epoch: self.core.record_epoch,
            verify: self.core.verify,
            profile: self.core.profile,
            tenants: &tenants,
            observer: self.observer.as_deref(),
        };
        let outputs = pool.map(&jobs, |job| run_shard(&ctx, job));
        let outputs: Vec<ShardOutput> = outputs.into_iter().collect::<PodResult<_>>()?;

        let mut tenant_reports: Vec<TenantReport> = Vec::with_capacity(tenants.count());
        let mut recorders: Vec<(u16, TraceRecorder)> = Vec::new();
        let mut shard_stats = Vec::with_capacity(outputs.len());
        // SPACE-style fleet accounting (policy runs only): each worker
        // already folded its tenants' stored fingerprints into one set;
        // the fleet is their union, built by growing the largest.
        let mut fleet = FleetSet::default();
        let mut tenant_capacity: Vec<TenantCapacity> = Vec::new();
        for out in outputs {
            shard_stats.push(out.stats);
            let mut shard_fleet = out.fleet;
            if shard_fleet.len() > fleet.len() {
                std::mem::swap(&mut fleet, &mut shard_fleet);
            }
            fleet.extend(shard_fleet);
            for t in out.tenants {
                if let Some(cap) = t.capacity {
                    tenant_capacity.push(cap);
                }
                if let Some(rec) = t.recorder {
                    recorders.push((t.report.tenant, rec));
                }
                tenant_reports.push(t.report);
            }
        }
        tenant_reports.sort_by_key(|t| t.tenant);
        recorders.sort_by_key(|(t, _)| *t);
        tenant_capacity.sort_by_key(|c| c.tenant);

        let mut aggregate = ServeAggregate::default();
        for t in &tenant_reports {
            aggregate.absorb(&t.report);
        }
        aggregate.fleet_unique_blocks = fleet.len() as u64;
        aggregate.tenant_capacity = tenant_capacity;
        let report = ServeReport {
            scheme: spec.name.to_string(),
            shards,
            tenants: tenant_reports,
            aggregate,
            shard_stats,
        };
        Ok((report, recorders.into_iter().map(|(_, r)| r).collect()))
    }
}

/// Work item handed to one pool worker: the shard and its tenants.
struct ShardJob {
    shard: usize,
    /// Tenant ids, ascending.
    tenants: Vec<u16>,
}

struct TenantOutput {
    report: TenantReport,
    recorder: Option<TraceRecorder>,
    /// Capacity attribution; collected only under an active policy.
    capacity: Option<TenantCapacity>,
}

/// Distinct stored fingerprints. `Fingerprint` hashes only its 8-byte
/// prefix (one `write_u64`), so FNV costs 8 rounds per insert, not 16.
type FleetSet = HashSet<Fingerprint, FnvBuildHasher>;

struct ShardOutput {
    tenants: Vec<TenantOutput>,
    stats: ShardStats,
    /// Union of this shard's tenants' stored fingerprints, folded on the
    /// worker as each tenant finishes; empty without a policy.
    fleet: FleetSet,
}

/// Everything a shard worker needs beyond its own [`ShardJob`]; shared
/// read-only across workers.
struct ShardCtx<'a> {
    spec: &'a StackSpec,
    cfg: &'a SystemConfig,
    record_epoch: Option<u64>,
    verify: bool,
    profile: bool,
    /// The whole fleet. Its count is what the shared-tier base slice
    /// divides by (not the shard-local count), so grants are
    /// independent of how tenants land on shards.
    tenants: &'a TenantSource<'a>,
    observer: Option<&'a (dyn Fn(u16) -> ObserverChain + Send + Sync)>,
}

/// Token-bucket request admission for one rate-limited tenant.
/// Integer-only (micro-tokens: one request costs 1e6, refill is
/// `rate_rps` micro-tokens per simulated µs) so admission decisions are
/// exact and deterministic. Driven purely by the tenant's own arrival
/// clock, never wall time or other tenants' traffic. The products
/// saturate: a rate or burst near `u64::MAX` is a bucket that is full.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    rate_rps: u64,
    tokens_micro: u64,
    cap_micro: u64,
    /// Simulated instant the bucket was last brought current.
    last_us: u64,
}

impl TokenBucket {
    pub(crate) fn new(rate_rps: u64, burst_requests: u64) -> Self {
        let cap = burst_requests.saturating_mul(1_000_000);
        Self {
            rate_rps,
            tokens_micro: cap,
            cap_micro: cap,
            last_us: 0,
        }
    }

    /// Admit a request arriving at `arrival_us`; returns the imposed
    /// delay in µs (0 = admitted immediately). Admissions are FIFO: a
    /// request can never be admitted before an earlier one of the same
    /// tenant, so the bucket's clock is `max(arrival, last admission)`.
    pub(crate) fn admit(&mut self, arrival_us: u64) -> u64 {
        let now = arrival_us.max(self.last_us);
        let delta = now - self.last_us;
        self.tokens_micro = self
            .tokens_micro
            .saturating_add(delta.saturating_mul(self.rate_rps))
            .min(self.cap_micro);
        if self.tokens_micro >= 1_000_000 {
            self.tokens_micro -= 1_000_000;
            self.last_us = now;
            return now - arrival_us;
        }
        let wait = (1_000_000 - self.tokens_micro).div_ceil(self.rate_rps);
        self.tokens_micro = self.tokens_micro.saturating_add(wait * self.rate_rps) - 1_000_000;
        self.last_us = now + wait;
        now + wait - arrival_us
    }
}

/// Shard-local shared fingerprint-cache tier: every tenant's dedup
/// index is its iCache partition plus a static slice of the tier,
/// capped by the tenant's quota.
///
/// The serving engine installs one per tenant stack when a
/// [`ServePolicy`] is active. After the iCache repartition step the
/// stack asks it for the index size to apply and applies it, so a
/// repartition's fresh partition size is immediately re-extended by
/// the slice. The task only decides; its only inputs — the
/// tenant's own iCache epoch boundaries and partition size — are
/// independent of shard or worker topology, which is what keeps
/// per-tenant reports byte-identical across `--shards`/`--jobs`
/// (DESIGN.md §13).
#[derive(Debug)]
pub(crate) struct SharedTierTask {
    /// Per-tenant slice: `shared_tier_bytes / fleet_tenants`. Divided
    /// fleet-wide (not per shard) so the slice is independent of how
    /// tenants map onto shards.
    slice_bytes: u64,
    quota: Option<u64>,
    /// Index size we last applied (0 before the first request); resize
    /// only when the target moves.
    applied_bytes: u64,
    /// iCache partition bytes at the last apply, to detect a
    /// repartition having reset the index underneath us.
    last_partition: u64,
}

impl SharedTierTask {
    /// Build one tenant's tier step in a fleet of `fleet_tenants`
    /// under `policy`.
    fn new(fleet_tenants: usize, policy: &ServePolicy) -> Self {
        Self {
            slice_bytes: policy.shared_tier_bytes / fleet_tenants as u64,
            quota: policy.cache_quota_bytes,
            applied_bytes: 0,
            // Sentinel: resolved to the engine's build-time size on the
            // first request (the engine starts at the bare partition).
            last_partition: u64::MAX,
        }
    }

    /// The tenant's index target: iCache partition plus its slice,
    /// capped by the quota.
    fn target(&self, partition: u64) -> u64 {
        let target = partition + self.slice_bytes;
        self.quota.map_or(target, |quota| target.min(quota))
    }

    /// The index target gauge a
    /// [`StateSnapshot`](crate::obs::StateSnapshot) carries; 0 until
    /// the tier has seen its first request.
    pub(crate) fn applied_bytes(&self) -> u64 {
        self.applied_bytes
    }

    /// Account one request, given whether it closed an iCache epoch
    /// and the iCache's index partition after it. Returns the index
    /// size the stack must apply, or `None` to leave the index alone.
    /// The target is re-evaluated at epoch boundaries and whenever the
    /// partition moved. It is applied when the target moved, or when
    /// the partition did: a repartition (which runs just before this
    /// step) has reset the index to the bare partition size.
    pub(crate) fn after_request(&mut self, epoch_closed: bool, partition: u64) -> Option<u64> {
        if self.last_partition == u64::MAX {
            // First request: the engine was built at the bare partition
            // size; the tier starts granting at the first epoch
            // boundary, so the warm-up epoch is policy-neutral.
            self.last_partition = partition;
            self.applied_bytes = partition;
        }
        let moved = partition != self.last_partition;
        if !epoch_closed && !moved {
            return None;
        }
        let target = self.target(partition);
        let apply = moved || target != self.applied_bytes;
        self.applied_bytes = target;
        self.last_partition = partition;
        apply.then_some(target)
    }
}

/// Serve one shard: its tenants back to back, one live stack and one
/// trace at a time. A generated trace is made here and dropped once its
/// tenant is served; only the serving is timed.
fn run_shard(ctx: &ShardCtx<'_>, job: &ShardJob) -> PodResult<ShardOutput> {
    let mut fleet = FleetSet::default();
    let mut tenants = Vec::with_capacity(job.tenants.len());
    let mut requests = 0u64;
    let mut busy = Duration::ZERO;
    for &tenant in &job.tenants {
        let trace = ctx.tenants.get(usize::from(tenant));
        let started = Instant::now();
        tenants.push(serve_tenant(ctx, tenant, &trace, &mut fleet)?);
        busy += started.elapsed();
        requests += trace.len() as u64;
    }
    let stats = ShardStats {
        shard: job.shard,
        tenants: job.tenants.clone(),
        requests,
        busy_us: busy.as_micros().max(1) as u64,
    };
    Ok(ShardOutput {
        tenants,
        stats,
        fleet,
    })
}

/// Serve one tenant start to finish through the solo replay loop
/// ([`replay_stack`]), so its report is byte-identical to its solo
/// replay. Under a policy the tenant's stored fingerprints are folded
/// into the shard's `fleet` set; the stack is then dropped before the
/// shard's next tenant starts.
fn serve_tenant(
    ctx: &ShardCtx<'_>,
    tenant: u16,
    trace: &Trace,
    fleet: &mut FleetSet,
) -> PodResult<TenantOutput> {
    let spec = ctx.spec;
    let cfg = ctx.cfg;
    let mut chain = match ctx.observer {
        Some(factory) => factory(tenant),
        None => ObserverChain::new(),
    };
    if let Some(epoch) = ctx.record_epoch {
        let epoch = recorder_epoch(epoch, trace.len());
        chain.push(
            TraceRecorder::new(spec.name, trace.name.clone(), epoch, trace.len())
                .with_tenant(tenant),
        );
    }
    if ctx.profile {
        chain.push(ProfSink::new());
    }
    let mut setup = TenantSetup::default();
    if let Some(policy) = &cfg.policy {
        // The QoS layer rides as one shared-tier step per tenant plus
        // per-tenant admission control; with no policy none of this
        // exists and the stack is byte-for-byte the pre-policy one.
        setup.tier = Some(SharedTierTask::new(ctx.tenants.count(), policy));
        setup.throttle = policy
            .rate_limit_rps
            .map(|rate| TokenBucket::new(rate, policy.burst_requests));
    }

    let (mut report, stack) = replay_stack(spec, cfg, trace, chain, ctx.verify, setup)?;
    let capacity = cfg.policy.as_ref().map(|_| {
        let store = stack.engine().store();
        fleet.extend(store.contents().map(|(_, fp)| fp));
        TenantCapacity {
            tenant,
            logical_blocks: store.introspect().mapped,
        }
    });
    let mut chain = stack.into_observer();
    if ctx.profile {
        report.profile = chain.take_sink::<ProfSink>().map(ProfSink::into_profile);
    }
    Ok(TenantOutput {
        report: TenantReport { tenant, report },
        recorder: chain.take_sink(),
        capacity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_trace::{derive_tenants, tenant_trace, TraceProfile};

    fn fleet(n: usize) -> Vec<Trace> {
        derive_tenants(&TraceProfile::mail().scaled(0.003), n, 5)
    }

    /// A policy that exercises every QoS mechanism: a shared tier, a
    /// rate limit and a tight cache quota.
    fn stress_policy() -> ServePolicy {
        ServePolicy {
            rate_limit_rps: Some(40),
            burst_requests: 4,
            cache_quota_bytes: Some(256 << 10),
            ..ServePolicy::shared_tier(2)
        }
    }

    #[test]
    fn builder_rejects_bad_topologies() {
        let tenants = fleet(2);
        let serve = |tenants: &[Trace], shards: usize| {
            ServeBuilder::new(Scheme::Pod)
                .config(SystemConfig::test_default())
                .tenants(tenants)
                .shards(shards)
                .jobs(1)
                .run()
        };
        assert!(serve(&[], 1).is_err(), "zero tenants");
        assert!(serve(&tenants, 0).is_err(), "zero shards");
        let err = serve(&tenants, 3).expect_err("shards > tenants");
        assert!(err.to_string().contains("at least one tenant"), "{err}");
        assert!(serve(&tenants, 2).is_ok());
        // One past the u16 id space: refused before any stack is built,
        // instead of two tenants sharing id 0.
        let empty = Trace {
            name: "empty".into(),
            requests: Vec::new(),
            memory_budget_bytes: 0,
        };
        let too_many = vec![empty; u16::MAX as usize + 2];
        let err = serve(&too_many, 1).expect_err("65,537 tenants");
        assert!(err.to_string().contains("at most 65536"), "{err}");
    }

    #[test]
    fn tenants_with_generates_each_tenant_once_after_the_topology_check() {
        use std::sync::Mutex;
        let made = Mutex::new(Vec::new());
        let serve = |count: usize, shards: usize| {
            ServeBuilder::new(Scheme::Pod)
                .config(SystemConfig::test_default())
                .tenants_with(count, |i| {
                    made.lock().unwrap().push(i);
                    tenant_trace(&TraceProfile::mail().scaled(0.003), 5, i)
                })
                .shards(shards)
                .jobs(2)
                .run()
        };
        assert!(serve(0, 1).is_err(), "zero tenants");
        assert!(serve(2, 3).is_err(), "shards > tenants");
        assert!(serve(u16::MAX as usize + 2, 1).is_err(), "65,537 tenants");
        assert!(made.lock().unwrap().is_empty(), "nothing generated");
        let rep = serve(3, 2).expect("serve");
        let mut made = made.into_inner().unwrap();
        made.sort_unstable();
        assert_eq!(made, [0, 1, 2], "each tenant generated once");
        let want: u64 = fleet(3).iter().map(|t| t.len() as u64).sum();
        assert_eq!(rep.total_requests(), want);
    }

    #[test]
    fn builder_requires_tenants() {
        let err = ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .run()
            .expect_err("no tenants");
        assert!(err.to_string().contains("no tenants set"), "{err}");
    }

    #[test]
    fn aggregate_sums_tenant_reports() {
        let tenants = fleet(3);
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .tenants(&tenants)
            .shards(2)
            .jobs(1)
            .run()
            .expect("serve");
        assert_eq!(rep.tenants.len(), 3);
        assert_eq!(rep.shards, 2);
        let writes: u64 = rep
            .tenants
            .iter()
            .map(|t| t.report.counters.write_requests)
            .sum();
        assert_eq!(rep.aggregate.counters.write_requests, writes);
        let cap: u64 = rep
            .tenants
            .iter()
            .map(|t| t.report.capacity_used_blocks)
            .sum();
        assert_eq!(rep.aggregate.capacity_used_blocks, cap);
        let count: usize = rep.tenants.iter().map(|t| t.report.overall.count()).sum();
        assert_eq!(rep.aggregate.overall.count(), count);
        assert_eq!(
            rep.total_requests(),
            tenants.iter().map(|t| t.len() as u64).sum::<u64>()
        );
        assert!(rep.critical_path_us() > 0);
        assert!(rep.jobs_per_sec() > 0.0);
        // Tenant ids ascend; tenant `t` is served by shard `t mod 2`.
        for (i, t) in rep.tenants.iter().enumerate() {
            assert_eq!(t.tenant as usize, i);
        }
        let served: Vec<(usize, &[u16])> = rep
            .shard_stats
            .iter()
            .map(|s| (s.shard, &s.tenants[..]))
            .collect();
        assert_eq!(served, [(0, &[0u16, 2][..]), (1, &[1][..])]);
        // No policy: the QoS layer leaves no trace in the aggregate.
        assert_eq!(rep.aggregate.fleet_unique_blocks, 0);
        assert!(rep.aggregate.tenant_capacity.is_empty());
        assert_eq!(rep.aggregate.stack.all.throttle_waits, 0);
        assert_eq!(rep.aggregate.stack.all.quota_evictions, 0);
    }

    /// Compile-pass regression for the `tenants` lifetime rebinding:
    /// the builder is assembled (and further configured) *before* the
    /// tenant slice exists, which only compiles because
    /// `.tenants(..)` rebinds `'t` to the slice's lifetime instead of
    /// unifying the two.
    #[test]
    fn tenants_rebinds_the_builder_lifetime() {
        let builder = ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .shards(1);
        let tenants = fleet(2);
        let rep = builder
            .tenants(&tenants)
            .shards(2)
            .jobs(1)
            .run()
            .expect("serve");
        assert_eq!(rep.tenants.len(), 2);
    }

    #[test]
    fn verify_attaches_a_passing_oracle_to_every_tenant() {
        let tenants = fleet(2);
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .tenants(&tenants)
            .shards(2)
            .verify(true)
            .run()
            .expect("serve");
        for t in &rep.tenants {
            let integ = t.report.integrity.as_ref().expect("oracle attached");
            assert!(integ.passed(), "tenant {}: {}", t.tenant, integ.summary());
            assert!(integ.checked > 0, "tenant {}: oracle walked", t.tenant);
        }
        // And absent by default, exactly like the replay builder.
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .tenants(&tenants)
            .run()
            .expect("serve");
        assert!(rep.tenants.iter().all(|t| t.report.integrity.is_none()));
    }

    #[test]
    fn observer_factory_runs_once_per_tenant() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<u16>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let tenants = fleet(3);
        ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .tenants(&tenants)
            .shards(2)
            .jobs(1)
            .observer(move |tenant| {
                sink.lock().unwrap().push(tenant);
                ObserverChain::new()
            })
            .run()
            .expect("serve");
        let mut called = seen.lock().unwrap().clone();
        called.sort_unstable();
        assert_eq!(called, vec![0u16, 1, 2]);
    }

    #[test]
    fn policy_fires_throttles_quotas_and_fleet_accounting() {
        let tenants = fleet(3);
        let mut cfg = SystemConfig::test_default();
        cfg.policy = Some(stress_policy());
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(cfg)
            .tenants(&tenants)
            .shards(2)
            .run()
            .expect("serve");
        let agg = &rep.aggregate;
        assert!(agg.stack.all.throttle_waits > 0, "rate limits bind");
        assert!(agg.stack.all.throttle_wait_us > 0);
        assert!(
            agg.fleet_unique_blocks > 0 && agg.fleet_unique_blocks <= agg.capacity_used_blocks,
            "fleet union {} vs summed capacity {}",
            agg.fleet_unique_blocks,
            agg.capacity_used_blocks
        );
        assert_eq!(agg.tenant_capacity.len(), tenants.len());
        for (i, cap) in agg.tenant_capacity.iter().enumerate() {
            assert_eq!(cap.tenant as usize, i, "ascending tenant ids");
            assert!(
                rep.tenants[i].report.capacity_used_blocks <= cap.logical_blocks,
                "dedup never inflates: tenant {i}"
            );
        }
    }

    /// A throttled request's response counts from its admission
    /// instant, not its arrival; the wait is counted apart. Under a rate
    /// limit alone, each tenant reports exactly what a solo replay of
    /// its trace reports with every arrival moved to the instant its
    /// token bucket admits it.
    #[test]
    fn throttled_responses_count_from_the_admission_instant() {
        use pod_types::SimDuration;
        let tenants = fleet(3);
        let policy = ServePolicy::parse("rate:40,burst:4").expect("policy");
        let mut cfg = SystemConfig::test_default();
        cfg.policy = Some(policy.clone());
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(cfg)
            .tenants(&tenants)
            .shards(2)
            .jobs(1)
            .run()
            .expect("serve");
        for (t, trace) in rep.tenants.iter().zip(&tenants) {
            let rate = policy.rate_limit_rps.expect("rate-limited");
            let mut bucket = TokenBucket::new(rate, policy.burst_requests);
            let mut admitted = trace.clone();
            let mut waited = 0;
            for r in &mut admitted.requests {
                let wait = bucket.admit(r.arrival.as_micros());
                waited += wait;
                r.arrival += SimDuration::from_micros(wait);
            }
            let solo = Scheme::Pod
                .builder()
                .config(SystemConfig::test_default())
                .trace(&admitted)
                .run()
                .expect("solo replay");
            let (got, id) = (&t.report, t.tenant);
            assert!(got.stack.all.throttle_waits > 0, "tenant {id} throttled");
            assert_eq!(got.stack.all.throttle_wait_us, waited, "tenant {id}");
            assert_eq!(got.overall.samples(), solo.overall.samples(), "tenant {id}");
            assert_eq!(got.reads.samples(), solo.reads.samples(), "tenant {id}");
            assert_eq!(got.writes.samples(), solo.writes.samples(), "tenant {id}");
            assert_eq!(got.counters, solo.counters, "tenant {id}");
        }
    }

    #[test]
    fn policy_reports_are_identical_across_shard_and_job_topologies() {
        let tenants = fleet(4);
        let mut cfg = SystemConfig::test_default();
        cfg.policy = Some(stress_policy());
        let mut baseline: Option<Vec<String>> = None;
        for (shards, jobs) in [(1, 1), (2, 2), (4, 8)] {
            // Oracle and recorder on, so the replay loop runs with every
            // serve-only input live: tenant id, shared tier, token bucket.
            let (rep, recorders) = ServeBuilder::new(Scheme::Pod)
                .config(cfg.clone())
                .tenants(&tenants)
                .shards(shards)
                .jobs(jobs)
                .verify(true)
                .record(0)
                .run_recorded()
                .expect("serve");
            assert_eq!(recorders.len(), tenants.len());
            // Everything deterministic about a tenant, rendered to one
            // comparable string (Debug covers every counter field).
            let fingerprint: Vec<String> = rep
                .tenants
                .iter()
                .zip(&recorders)
                .map(|(t, rec)| {
                    let integrity = t.report.integrity.as_ref().expect("oracle attached");
                    assert!(integrity.passed(), "tenant {}", t.tenant);
                    let mut jsonl = Vec::new();
                    rec.write_jsonl(&mut jsonl, None).expect("write to memory");
                    format!(
                        "{} {:?} {:?} {} {} {:.6} {:?} {}",
                        t.tenant,
                        t.report.counters,
                        t.report.stack,
                        t.report.capacity_used_blocks,
                        t.report.nvram_peak_bytes,
                        t.report.overall.mean_us(),
                        integrity,
                        String::from_utf8(jsonl).expect("utf8"),
                    )
                })
                .chain(std::iter::once(format!(
                    "fleet {} {:?}",
                    rep.aggregate.fleet_unique_blocks, rep.aggregate.tenant_capacity
                )))
                .collect();
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(base) => assert_eq!(
                    base, &fingerprint,
                    "shards={shards} jobs={jobs} diverged from shards=1 jobs=1"
                ),
            }
        }
    }

    #[test]
    fn fleet_unique_blocks_is_the_exact_cross_tenant_union() {
        use pod_types::{IoRequest, Lba, SimTime};
        // One single-block write per content id, each to its own LBA.
        let tenant = |ids: Vec<u64>| Trace {
            name: "hand".into(),
            requests: ids
                .into_iter()
                .enumerate()
                .map(|(i, id)| {
                    let i = i as u64;
                    IoRequest::write(
                        SimTime::from_micros(i * 10),
                        Lba::new(i),
                        vec![Fingerprint::from_content_id(id)],
                    )
                })
                .collect(),
            memory_budget_bytes: 1 << 20,
        };
        let tenants = [
            tenant((1..=100).collect()),
            tenant((50..=150).collect()),
            tenant((1..=10).chain(200..=210).collect()),
        ];
        // |A ∪ B ∪ C| = |1..=150| + |200..=210| = 150 + 11.
        let mut cfg = SystemConfig::test_default();
        cfg.policy = Some(stress_policy());
        for (shards, jobs) in [(1, 1), (2, 2), (3, 8)] {
            let rep = ServeBuilder::new(Scheme::Pod)
                .config(cfg.clone())
                .tenants(&tenants)
                .shards(shards)
                .jobs(jobs)
                .run()
                .expect("serve");
            let agg = &rep.aggregate;
            assert_eq!(agg.fleet_unique_blocks, 161, "shards={shards} jobs={jobs}");
            for (t, trace) in rep.tenants.iter().zip(&tenants) {
                assert_eq!(
                    t.report.capacity_used_blocks,
                    trace.write_count() as u64,
                    "tenant {} stores every distinct write",
                    t.tenant
                );
            }
        }

        // A derived fleet counts the same union at every shard count.
        let tenants = fleet(8);
        let counts: Vec<u64> = [1, 2, 4, 8]
            .into_iter()
            .map(|shards| {
                ServeBuilder::new(Scheme::Pod)
                    .config(cfg.clone())
                    .tenants(&tenants)
                    .shards(shards)
                    .jobs(2)
                    .run()
                    .expect("serve")
                    .aggregate
                    .fleet_unique_blocks
            })
            .collect();
        assert!(counts[0] > 0);
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    #[test]
    fn profile_merges_across_tenants_and_stays_off_by_default() {
        let tenants = fleet(3);
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .tenants(&tenants)
            .shards(2)
            .run()
            .expect("serve");
        assert!(rep.aggregate.profile.is_none(), "off by default");
        assert!(rep.tenants.iter().all(|t| t.report.profile.is_none()));

        let rep = ServeBuilder::new(Scheme::Pod)
            .config(SystemConfig::test_default())
            .tenants(&tenants)
            .shards(2)
            .profile(true)
            .run()
            .expect("serve");
        let agg = rep.aggregate.profile.as_ref().expect("fleet profile");
        assert!(!agg.is_empty());
        let mut total = 0u64;
        for t in &rep.tenants {
            let p = t.report.profile.as_ref().expect("tenant profile");
            assert!(p.total_ns() > 0, "tenant {} saw host time", t.tenant);
            total += p.total_ns();
        }
        assert_eq!(agg.total_ns(), total, "aggregate is the tenant sum");
    }

    #[test]
    fn token_bucket_is_exact_and_deterministic() {
        // 2 requests of burst, then 1000 rps steady state (1 token/ms).
        let mut tb = TokenBucket::new(1_000, 2);
        assert_eq!(tb.admit(0), 0, "burst token 1");
        assert_eq!(tb.admit(0), 0, "burst token 2");
        assert_eq!(tb.admit(0), 1_000, "empty: wait one full token");
        // The delayed request consumed the token minted during its
        // wait, so a request right after waits the full period again.
        assert_eq!(tb.admit(0), 2_000);
        // After a long idle gap the bucket refills to its cap only.
        let mut tb = TokenBucket::new(1_000, 2);
        assert_eq!(tb.admit(1_000_000), 0);
        assert_eq!(tb.admit(1_000_000), 0);
        assert_eq!(tb.admit(1_000_000), 1_000, "cap at burst, not the gap");
        // Limits near `u64::MAX` saturate instead of wrapping.
        let mut tb = TokenBucket::new(u64::MAX, u64::MAX);
        assert_eq!(tb.admit(5), 0);
        assert_eq!(tb.admit(1_000_000), 0);
        let mut tb = TokenBucket::new(u64::MAX, 1);
        assert_eq!(tb.admit(0), 0);
        assert_eq!(tb.admit(0), 1, "empty: the next token is 1 µs away");
    }

    /// A tier step in a fleet of 4 whose slice is 1000 bytes, capped at
    /// `quota` bytes.
    fn tier(quota: Option<u64>) -> SharedTierTask {
        SharedTierTask::new(
            4,
            &ServePolicy {
                shared_tier_bytes: 4_000,
                cache_quota_bytes: quota,
                ..ServePolicy::default()
            },
        )
    }

    #[test]
    fn tier_first_request_applies_nothing() {
        let mut t = tier(None);
        assert_eq!(t.applied_bytes(), 0, "before any request");
        assert_eq!(t.after_request(false, 300), None);
        assert_eq!(t.applied_bytes(), 300, "the bare partition");
    }

    #[test]
    fn tier_epoch_boundary_applies_a_moved_target() {
        let mut t = tier(None);
        t.after_request(false, 300);
        assert_eq!(t.after_request(true, 300), Some(1_300), "partition + slice");
        assert_eq!(t.applied_bytes(), 1_300);
        let mut t = tier(Some(800));
        t.after_request(false, 300);
        assert_eq!(t.after_request(true, 300), Some(800), "capped by the quota");
    }

    #[test]
    fn tier_epoch_boundary_keeps_an_unchanged_target() {
        let mut t = tier(None);
        t.after_request(false, 300);
        t.after_request(true, 300);
        assert_eq!(t.after_request(true, 300), None);
        assert_eq!(t.applied_bytes(), 1_300);
    }

    #[test]
    fn tier_reapplies_an_unchanged_target_after_a_repartition() {
        // The quota binds at both partition sizes, so the target stays
        // 800; the repartition reset the index to 500, so it is applied
        // again, mid-epoch.
        let mut t = tier(Some(800));
        t.after_request(false, 300);
        assert_eq!(t.after_request(true, 300), Some(800));
        assert_eq!(t.after_request(false, 500), Some(800));
        assert_eq!(t.applied_bytes(), 800);
    }

    #[test]
    fn tier_is_idle_without_a_boundary_or_a_repartition() {
        let mut t = tier(None);
        t.after_request(false, 300);
        t.after_request(true, 300);
        assert_eq!(t.after_request(false, 300), None);
        assert_eq!(t.applied_bytes(), 1_300);
    }

    #[test]
    fn quota_evictions_fire_under_a_tight_cache_quota() {
        let tenants = fleet(2);
        let mut cfg = SystemConfig::test_default();
        // Quota far below the index population at the first epoch
        // boundary (~250 entries on this trace): the shared tier must
        // shrink the populated index and attribute the evictions.
        cfg.policy = Some(ServePolicy {
            cache_quota_bytes: Some(8 << 10),
            ..ServePolicy::shared_tier(2)
        });
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(cfg)
            .tenants(&tenants)
            .run()
            .expect("serve");
        assert!(
            rep.aggregate.stack.all.quota_evictions > 0,
            "an 8 KiB quota must evict: {:?}",
            rep.aggregate.stack
        );
        assert!(rep.aggregate.stack.all.quota_evicted_fps > 0);
    }
}
