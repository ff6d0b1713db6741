//! System configuration.

use pod_dedup::IndexPolicy;
use pod_disk::{DiskSpec, RaidConfig, SchedulerKind};
use pod_icache::ReadCachePolicy;
use pod_types::{PodError, PodResult};

/// Full configuration of a simulated POD deployment. The array is the
/// paper's kind: every member healthy and every write a media write,
/// so only its geometry, disk model and queue discipline are chosen.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Array geometry (paper: 4-disk RAID-5, 64 KiB stripe unit).
    pub raid: RaidConfig,
    /// Member-disk mechanical model (paper: WDC WD1600AAJS).
    pub disk: DiskSpec,
    /// Per-disk queue discipline.
    pub scheduler: SchedulerKind,
    /// Absolute DRAM budget override, bytes. `None` uses the trace's
    /// budget scaled by `memory_scale`.
    pub memory_bytes: Option<u64>,
    /// Scale applied to the trace's paper budget. The paper warms its
    /// hash index with 14 days of I/O before measuring day 15, so its
    /// 100–500 MB budgets face a three-week content footprint; we replay
    /// one synthetic day, and this factor (default 1/20) reproduces the
    /// same cache *pressure* (see DESIGN.md, substitutions).
    pub memory_scale: f64,
    /// Index-cache share of the budget for fixed-partition schemes
    /// (paper §IV-B: "equal spaces" → 0.5).
    pub index_fraction: f64,
    /// Select-Dedupe duplicate-run threshold (paper: 3).
    pub select_threshold: usize,
    /// iDedup sequence threshold in blocks.
    pub idedup_threshold: usize,
    /// Full-Dedupe on-disk index page-fault rate (1 in N consults reads
    /// a page from disk; see `pod_dedup::DedupConfig`).
    pub index_page_fault_rate: u64,
    /// Replacement policy of the hot-fingerprint index: LRU, the
    /// paper's and the only one.
    pub index_policy: IndexPolicy,
    /// Replacement policy of the read cache: LRU, the paper's and the
    /// only one.
    pub read_policy: ReadCachePolicy,
    /// Controller fast-path service-time model (hashing, cache hits,
    /// metadata).
    pub latency: LatencyModel,
    /// Leading fraction of the trace replayed for state warm-up and
    /// excluded from metrics (the paper warms caches with 14 days of
    /// trace before measuring).
    pub warmup_fraction: f64,
    /// iCache adaptive-partition tuning (epoch length, swap step,
    /// cost-benefit penalties).
    pub icache: ICacheTuning,
    /// Deterministic fault-injection plan applied to the disk backend.
    /// `None` = no fault layer is installed at all (zero overhead).
    pub faults: Option<FaultPlan>,
    /// Cross-tenant serve policy: shared fingerprint-cache tier and
    /// per-tenant QoS. `None` = the policy layer is absent entirely
    /// (zero overhead); single-stack replays ignore it.
    pub policy: Option<ServePolicy>,
}

/// Controller fast-path service-time model. A read served whole from
/// the DRAM cache costs a fixed 20 µs (`CACHE_HIT_US` in the stack).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Fingerprinting cost per 4 KiB chunk, µs (paper: 32).
    pub hash_us_per_chunk: u64,
    /// Parallel hashing lanes in the controller (1 = sequential).
    pub hash_workers: usize,
    /// Fixed metadata/processing overhead per request, µs.
    pub metadata_us: u64,
}

impl Default for LatencyModel {
    /// The paper's controller: 32 µs per 4 KiB chunk hashed on one
    /// lane, 5 µs metadata per request.
    fn default() -> Self {
        Self {
            hash_us_per_chunk: 32,
            hash_workers: 1,
            metadata_us: 5,
        }
    }
}

/// iCache adaptive index/read-cache partition tuning (paper §III-C).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ICacheTuning {
    /// Adaptation epoch, in requests.
    pub epoch_requests: u64,
    /// Swap step as a fraction of the budget.
    pub swap_step: f64,
    /// Lower bound on either cache partition's share.
    pub min_fraction: f64,
    /// Cost-benefit: modeled penalty of a read-cache miss, µs.
    pub read_penalty_us: u64,
    /// Cost-benefit: modeled penalty of a missed dedup opportunity
    /// (the write that could have been eliminated), µs.
    pub write_penalty_us: u64,
}

impl Default for ICacheTuning {
    /// The repo's calibrated defaults (see DESIGN.md): 400-request
    /// epochs, 5% swap steps bounded at a 10% floor.
    fn default() -> Self {
        Self {
            epoch_requests: 400,
            swap_step: 0.05,
            min_fraction: 0.10,
            read_penalty_us: 8_000,
            write_penalty_us: 24_000,
        }
    }
}

/// Deterministic, seeded fault-injection plan for the disk backend.
///
/// Rates are expressed as "1 in N" submissions (0 disables that fault
/// class). All decisions come from a `splitmix64` stream keyed by
/// `seed` and consumed in submission order, so a given trace + config +
/// plan always injects the identical fault sequence. The delays are
/// fixed by the fault layer: a retry costs 500 µs, a spike 8 ms and a
/// crash 50 ms of recovery downtime.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault decision stream.
    pub seed: u64,
    /// 1-in-N read or write submissions fail transiently and are
    /// retried after 500 µs.
    pub error_rate: u64,
    /// 1-in-N submissions are delayed by an 8 ms spike.
    pub latency_spike_rate: u64,
    /// 1-in-N multi-extent writes are torn: a prefix lands first and
    /// the full write is replayed one 500 µs retry later.
    pub torn_write_rate: u64,
    /// Crash (power loss) right before the Nth disk job is submitted:
    /// every not-yet-idle job completes no earlier than the crash
    /// point, volatile dedup state is rebuilt from the NVRAM Map, and
    /// the replay resumes after 50 ms of recovery downtime.
    pub crash_after_jobs: Option<u64>,
    /// Silently corrupt the stored content of this LBA at the end of
    /// the replay (oracle fail-path fixture). No `Recovered` event is
    /// emitted — the integrity oracle must catch it.
    pub corrupt_lba: Option<u64>,
}

impl FaultPlan {
    /// A plan with every fault class disabled (building block for the
    /// preset constructors).
    fn quiet(seed: u64) -> Self {
        Self {
            seed,
            error_rate: 0,
            latency_spike_rate: 0,
            torn_write_rate: 0,
            crash_after_jobs: None,
            corrupt_lba: None,
        }
    }

    /// Transient read/write errors (1 in 64 submissions, retried).
    pub fn transient(seed: u64) -> Self {
        Self {
            error_rate: 64,
            ..Self::quiet(seed)
        }
    }

    /// Latency spikes (1 in 32 submissions, +8 ms).
    pub fn latency(seed: u64) -> Self {
        Self {
            latency_spike_rate: 32,
            ..Self::quiet(seed)
        }
    }

    /// Torn multi-extent writes (1 in 8 — multi-extent submissions are
    /// already a small minority of disk jobs, so a low denominator is
    /// what makes the class actually fire on short traces).
    pub fn torn(seed: u64) -> Self {
        Self {
            torn_write_rate: 8,
            ..Self::quiet(seed)
        }
    }

    /// Crash right before the `after_jobs`-th disk job.
    pub fn crash(seed: u64, after_jobs: u64) -> Self {
        Self {
            crash_after_jobs: Some(after_jobs),
            ..Self::quiet(seed)
        }
    }

    /// Silent corruption of one LBA at end of replay.
    pub fn corrupt(lba: u64) -> Self {
        Self {
            corrupt_lba: Some(lba),
            ..Self::quiet(0)
        }
    }

    /// Everything at once: transient errors, spikes, torn writes, and
    /// a crash after 200 jobs.
    pub fn all(seed: u64) -> Self {
        Self {
            error_rate: 64,
            latency_spike_rate: 32,
            torn_write_rate: 8,
            crash_after_jobs: Some(200),
            ..Self::quiet(seed)
        }
    }

    /// Parse a CLI plan spec: `transient[:seed]`, `latency[:seed]`,
    /// `torn[:seed]`, `crash:<jobs>[:seed]`, `corrupt:<lba>`, or
    /// `all[:seed]`.
    pub fn parse(spec: &str) -> PodResult<Self> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or("");
        let arg = parts.next();
        let trailing = parts.next();
        let extra = parts.next();
        let bad = |msg: String| PodError::InvalidConfig(msg);
        let num = |s: Option<&str>, what: &str| -> PodResult<Option<u64>> {
            match s {
                None => Ok(None),
                Some(s) => s
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| bad(format!("fault plan {what} `{s}` is not a number"))),
            }
        };
        let plan = match kind {
            "transient" => Self::transient(num(arg, "seed")?.unwrap_or(7)),
            "latency" => Self::latency(num(arg, "seed")?.unwrap_or(7)),
            "torn" => Self::torn(num(arg, "seed")?.unwrap_or(7)),
            "all" => Self::all(num(arg, "seed")?.unwrap_or(7)),
            "crash" => {
                let jobs = num(arg, "crash job count")?
                    .ok_or_else(|| bad("crash plan needs a job count: crash:<jobs>".into()))?;
                let seed = num(trailing, "seed")?.unwrap_or(7);
                Self::crash(seed, jobs)
            }
            "corrupt" => {
                let lba = num(arg, "lba")?
                    .ok_or_else(|| bad("corrupt plan needs an LBA: corrupt:<lba>".into()))?;
                Self::corrupt(lba)
            }
            other => {
                return Err(bad(format!(
                    "unknown fault plan `{other}` (expected transient, latency, \
                     torn, crash:<jobs>, corrupt:<lba>, or all)"
                )))
            }
        };
        if extra.is_some() || (kind != "crash" && trailing.is_some()) {
            return Err(bad(format!("trailing garbage in fault plan `{spec}`")));
        }
        plan.validate()?;
        Ok(plan)
    }

    /// True when no fault class is enabled.
    pub fn is_noop(&self) -> bool {
        self.error_rate == 0
            && self.latency_spike_rate == 0
            && self.torn_write_rate == 0
            && self.crash_after_jobs.is_none()
            && self.corrupt_lba.is_none()
    }

    /// Validate the plan.
    pub fn validate(&self) -> PodResult<()> {
        if self.is_noop() {
            return Err(PodError::InvalidConfig(
                "fault plan enables no fault class; drop it instead".into(),
            ));
        }
        if self.crash_after_jobs == Some(0) {
            return Err(PodError::InvalidConfig(
                "crash_after_jobs must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Largest byte budget any knob accepts (1 PiB), far above any
/// simulated memory, so budget sums downstream cannot overflow `u64`.
const MAX_BUDGET_BYTES: u64 = 1 << 50;

fn check_budget(what: &str, bytes: Option<u64>) -> PodResult<()> {
    match bytes {
        Some(b) if b > MAX_BUDGET_BYTES => Err(PodError::InvalidConfig(format!(
            "{what} of {b} B exceeds the 1 PiB limit"
        ))),
        _ => Ok(()),
    }
}

/// Cross-tenant serve policy: a fleet-wide shared fingerprint-cache
/// tier split statically among tenants, plus QoS limits every tenant
/// shares.
///
/// Each tenant's slice is `shared_tier_bytes / fleet_tenants` on top of
/// its own iCache index partition, capped by
/// [`cache_quota_bytes`](Self::cache_quota_bytes). The slice depends
/// only on fleet-wide constants — never on which shard a tenant's
/// neighbours landed on — so per-tenant results stay byte-identical at
/// any `--shards`/`--jobs` topology.
#[derive(Clone, Debug, PartialEq)]
pub struct ServePolicy {
    /// Fleet-wide shared fingerprint-cache tier, bytes. `0` disables
    /// the tier (QoS limits still apply).
    pub shared_tier_bytes: u64,
    /// Token-bucket admission rate, requests per second of *simulated*
    /// time. `None` = unthrottled.
    pub rate_limit_rps: Option<u64>,
    /// Token-bucket depth: requests that may arrive back-to-back
    /// before throttling delays the stream. Ignored when unthrottled.
    pub burst_requests: u64,
    /// Cap on each tenant's fingerprint-index budget (base iCache
    /// partition plus shared-tier slice), bytes.
    pub cache_quota_bytes: Option<u64>,
}

impl Default for ServePolicy {
    /// No tier memory and no QoS limits yet, with a 32-request burst
    /// should a rate limit later be set.
    fn default() -> Self {
        Self {
            shared_tier_bytes: 0,
            rate_limit_rps: None,
            burst_requests: 32,
            cache_quota_bytes: None,
        }
    }
}

impl ServePolicy {
    /// A shared tier of `mib` MiB and no QoS limits.
    pub fn shared_tier(mib: u64) -> Self {
        Self {
            shared_tier_bytes: mib << 20,
            ..Self::default()
        }
    }

    /// True when the policy constrains nothing at all.
    pub fn is_noop(&self) -> bool {
        self.shared_tier_bytes == 0
            && self.rate_limit_rps.is_none()
            && self.cache_quota_bytes.is_none()
    }

    /// Parse a CLI policy spec: comma-separated clauses
    /// `tier:<MiB>`, `rate:<rps>`, `burst:<requests>` and
    /// `quota:<MiB>`. Example: `tier:8,rate:2000,quota:4` — an 8 MiB
    /// shared tier, every tenant throttled to 2000 req/s and capped at
    /// a 4 MiB index.
    pub fn parse(spec: &str) -> PodResult<Self> {
        const EXPECTED: &str = "expected tier, rate, burst or quota";
        let bad = |msg: String| PodError::InvalidConfig(msg);
        let mut policy = Self::default();
        for clause in spec.split(',') {
            let (key, value) = clause.split_once(':').ok_or_else(|| {
                bad(format!(
                    "policy clause `{clause}` is not `key:value` ({EXPECTED})"
                ))
            })?;
            let n: u64 = value
                .parse()
                .map_err(|_| bad(format!("policy {key} value `{value}` is not a number")))?;
            let mib = || {
                n.checked_mul(1 << 20).ok_or_else(|| {
                    bad(format!("policy {key} value {n} MiB overflows a byte count"))
                })
            };
            match key {
                "tier" => policy.shared_tier_bytes = mib()?,
                "rate" => policy.rate_limit_rps = Some(n),
                "burst" => policy.burst_requests = n,
                "quota" => policy.cache_quota_bytes = Some(mib()?),
                other => return Err(bad(format!("unknown policy clause `{other}` ({EXPECTED})"))),
            }
        }
        policy.validate()?;
        Ok(policy)
    }

    /// Validate the policy.
    pub fn validate(&self) -> PodResult<()> {
        if self.is_noop() {
            return Err(PodError::InvalidConfig(
                "serve policy constrains nothing; drop it instead".into(),
            ));
        }
        check_budget("shared tier", Some(self.shared_tier_bytes))?;
        if self.rate_limit_rps == Some(0) {
            return Err(PodError::InvalidConfig(
                "tenant rate_limit_rps must be at least 1".into(),
            ));
        }
        if self.rate_limit_rps.is_some() && self.burst_requests == 0 {
            return Err(PodError::InvalidConfig(
                "tenant burst_requests must be at least 1 when rate-limited".into(),
            ));
        }
        check_budget("tenant cache quota", self.cache_quota_bytes)
    }
}

impl SystemConfig {
    /// The paper's evaluation setup (§IV-A/§IV-B).
    pub fn paper_default() -> Self {
        Self {
            raid: RaidConfig::paper_raid5(),
            disk: DiskSpec::wd1600aajs(),
            scheduler: SchedulerKind::Fifo,
            memory_bytes: None,
            memory_scale: 0.03,
            index_fraction: 0.5,
            select_threshold: 3,
            idedup_threshold: 8,
            index_page_fault_rate: 8,
            index_policy: IndexPolicy::Lru,
            read_policy: ReadCachePolicy::Lru,
            latency: LatencyModel::default(),
            warmup_fraction: 0.15,
            icache: ICacheTuning::default(),
            faults: None,
            policy: None,
        }
    }

    /// A small fast configuration for unit tests: the test disk model
    /// and no warm-up exclusion.
    pub fn test_default() -> Self {
        Self {
            disk: DiskSpec::test_disk(),
            warmup_fraction: 0.0,
            icache: ICacheTuning {
                epoch_requests: 200,
                ..ICacheTuning::default()
            },
            ..Self::paper_default()
        }
    }

    /// Validate all invariants.
    pub fn validate(&self) -> PodResult<()> {
        self.raid.validate()?;
        self.disk.validate()?;
        if !(0.0..=1.0).contains(&self.index_fraction) {
            return Err(PodError::InvalidConfig(
                "index_fraction must be in [0,1]".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err(PodError::InvalidConfig(
                "warmup_fraction must be in [0,1)".into(),
            ));
        }
        check_budget("memory budget", self.memory_bytes)?;
        if self.memory_scale <= 0.0 && self.memory_bytes.is_none() {
            return Err(PodError::InvalidConfig(
                "memory_scale must be positive".into(),
            ));
        }
        if self.select_threshold == 0 || self.idedup_threshold == 0 {
            return Err(PodError::InvalidConfig(
                "dedup thresholds must be at least 1".into(),
            ));
        }
        if self.latency.hash_workers == 0 {
            return Err(PodError::InvalidConfig(
                "hash_workers must be at least 1".into(),
            ));
        }
        if !(0.0..=0.5).contains(&self.icache.min_fraction) {
            return Err(PodError::InvalidConfig(
                "icache min_fraction must be in [0,0.5]".into(),
            ));
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(policy) = &self.policy {
            policy.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        SystemConfig::paper_default().validate().expect("valid");
        SystemConfig::test_default().validate().expect("valid");
    }

    #[test]
    fn paper_default_matches_paper() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.raid.ndisks, 4);
        assert_eq!(c.raid.stripe_unit_blocks, 16); // 64 KiB
        assert_eq!(c.latency.hash_us_per_chunk, 32);
        assert_eq!(c.select_threshold, 3);
        assert!((c.index_fraction - 0.5).abs() < 1e-12);
        // The nested sub-config defaults are the paper defaults.
        assert_eq!(c.latency, LatencyModel::default());
        assert_eq!(c.icache, ICacheTuning::default());
        assert_eq!(c.policy, None);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = SystemConfig::test_default();
        c.index_fraction = 1.5;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::test_default();
        c.warmup_fraction = 1.0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::test_default();
        c.select_threshold = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::test_default();
        c.latency.hash_workers = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::test_default();
        c.icache.min_fraction = 0.6;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::test_default();
        c.memory_scale = 0.0;
        assert!(c.validate().is_err());
        c.memory_bytes = Some(1 << 20);
        assert!(c.validate().is_ok(), "explicit budget overrides scale");
    }

    #[test]
    fn fault_plan_presets_parse_and_validate() {
        for spec in [
            "transient",
            "latency:11",
            "torn",
            "crash:50",
            "crash:50:9",
            "corrupt:128",
            "all",
        ] {
            let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            plan.validate().unwrap_or_else(|e| panic!("{spec}: {e}"));
        }
        assert_eq!(FaultPlan::parse("latency:11").expect("plan").seed, 11);
        assert_eq!(
            FaultPlan::parse("crash:50:9")
                .expect("plan")
                .crash_after_jobs,
            Some(50)
        );
        assert_eq!(FaultPlan::parse("crash:50:9").expect("plan").seed, 9);
        assert_eq!(
            FaultPlan::parse("corrupt:128").expect("plan").corrupt_lba,
            Some(128)
        );
    }

    #[test]
    fn fault_plan_rejects_bad_specs() {
        for spec in [
            "",
            "bogus",
            "crash",
            "crash:zero",
            "corrupt",
            "transient:7:junk",
            "crash:5:7:junk",
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "{spec} should fail");
        }
        assert!(
            FaultPlan::quiet(1).validate().is_err(),
            "no-op plan rejected"
        );
        let mut plan = FaultPlan::crash(1, 10);
        plan.crash_after_jobs = Some(0);
        assert!(plan.validate().is_err(), "crash at job 0 rejected");

        let mut c = SystemConfig::test_default();
        c.faults = Some(FaultPlan::quiet(1));
        assert!(c.validate().is_err(), "config validation covers the plan");
        c.faults = Some(FaultPlan::transient(7));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn serve_policy_parses_cli_specs() {
        let p = ServePolicy::parse("tier:8,rate:2000,burst:64,quota:4").expect("parse");
        assert_eq!(p.shared_tier_bytes, 8 << 20);
        assert_eq!(p.rate_limit_rps, Some(2000));
        assert_eq!(p.burst_requests, 64);
        assert_eq!(p.cache_quota_bytes, Some(4 << 20));

        let p = ServePolicy::parse("tier:4").expect("parse");
        assert_eq!(p, ServePolicy::shared_tier(4));
    }

    #[test]
    fn serve_policy_rejects_clauses_outside_the_four() {
        for spec in [
            "tier:4,static",
            "tier:4,soft:1",
            "tier:4,hot:500",
            "tier:4,cold:100",
        ] {
            let err = ServePolicy::parse(spec).expect_err(spec);
            assert!(matches!(err, PodError::InvalidConfig(_)), "{spec}: {err}");
            assert!(
                err.to_string().contains("tier, rate, burst or quota"),
                "{spec}: the error names the four clauses: {err}"
            );
        }
    }

    #[test]
    fn serve_policy_rejects_bad_specs() {
        for spec in [
            "",                        // no clause at all
            "tier",                    // missing value
            "tier:lots",               // not a number
            "meteor:1",                // unknown clause
            "rate:0",                  // zero rate
            "tier:4,burst:0,rate:100", // zero burst while rate-limited
            "tier:17592186044416",     // 2^44 MiB = 2^64 bytes
            "tier:17592186044417",     // used to wrap to a 1 MiB tier
            "tier:4,quota:17592186044416",
            "tier:1073741825", // one MiB past the 1 PiB budget limit
            "quota:1073741825",
        ] {
            assert!(ServePolicy::parse(spec).is_err(), "{spec} should fail");
        }
        // A policy that constrains nothing is rejected like a no-op
        // fault plan.
        assert!(ServePolicy::default().validate().is_err());
        let mut c = SystemConfig::test_default();
        c.policy = Some(ServePolicy::default());
        assert!(c.validate().is_err(), "config validation covers policy");
        c.policy = Some(ServePolicy::shared_tier(1));
        assert!(c.validate().is_ok());
    }
}
