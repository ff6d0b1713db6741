//! Flag parsing shared by all subcommands (no external dependencies).

use pod_core::Scheme;
use pod_trace::reconstruct::FiuLoader;
use pod_trace::{Trace, TraceProfile};
use pod_types::IoRequest;
use std::io::Read;

/// Largest `--scale`: a thousand times the paper's traces.
const MAX_SCALE: f64 = 1000.0;

/// Stream an FIU file through a [`FiuLoader`] at the executor width, a
/// block at a time: each read is cut after its last `\n`, checked as
/// UTF-8 and fed, and the partial line carries into the next block. A
/// bad line stops the parse but not the read, so every error is the
/// one `read_to_string` then parsing the whole body would give.
fn load_fiu(path: &str) -> Result<Vec<IoRequest>, String> {
    let reading = |e: std::io::Error| format!("reading {path}: {e}");
    let mut file = std::fs::File::open(path).map_err(reading)?;
    let mut loader = FiuLoader::new(pod_core::pool::default_width());
    let mut parsed = Ok(());
    let mut buf = Vec::with_capacity(2 * FiuLoader::BLOCK_BYTES);
    loop {
        let read = (&mut file)
            .take(FiuLoader::BLOCK_BYTES as u64)
            .read_to_end(&mut buf)
            .map_err(reading)?;
        let end = match read {
            0 => buf.len(),
            _ => buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1),
        };
        let text = std::str::from_utf8(&buf[..end])
            .map_err(|_| format!("reading {path}: stream did not contain valid UTF-8"))?;
        if parsed.is_ok() {
            parsed = loader.feed(text);
        }
        buf.drain(..end);
        if read == 0 {
            break;
        }
    }
    parsed.map_err(|e| format!("parsing {path}: {e}"))?;
    Ok(loader.finish())
}

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct CliArgs {
    pub profile: String,
    pub scale: f64,
    pub seed: u64,
    pub trace_path: Option<String>,
    pub scheme: Scheme,
    pub out: Option<String>,
    pub memory_mib: Option<u64>,
    pub jobs: Option<usize>,
    /// `--trace-out <path>`: export an epoch-granular JSONL event trace
    /// from `replay`/`compare`, consumable by `pod-cli stats`.
    pub trace_out: Option<String>,
    /// `--in <path>`: the JSONL trace `stats` reads.
    pub input: Option<String>,
    /// `--epoch <requests>`: requests per exported epoch (0 = auto).
    pub epoch_requests: u64,
    /// `--headless`: `monitor` prints only the final frame (for CI and
    /// non-TTY runs) instead of redrawing live.
    pub headless: bool,
    /// `--faults <spec>`: a fault-injection plan for `replay`, e.g.
    /// `transient`, `torn:9`, `crash:200`, `corrupt:64`, `all`
    /// (see [`pod_core::FaultPlan::parse`]).
    pub faults: Option<String>,
    /// `--verify`: run the end-to-end integrity oracle alongside the
    /// replay and fail if any logical block diverges.
    pub verify: bool,
    /// `--tenants <K>`: tenant streams for `serve` (default 1).
    pub tenants: usize,
    /// `--shards <N>`: shard workers for `serve` (default 1; must not
    /// exceed the tenant count).
    pub shards: usize,
    /// `--policy <spec>`: a cross-tenant QoS policy for `serve`, e.g.
    /// `tier:2048`, `tier:2048,rate:500,quota:4096`, `rate:100,burst:8`
    /// (see [`pod_core::ServePolicy::parse`]).
    pub policy: Option<String>,
    /// `--prof`: attach the host wall-clock profiler to
    /// `replay`/`monitor` and print the real-time layer breakdown next
    /// to the simulated one.
    pub prof: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            profile: "mail".into(),
            scale: 0.05,
            seed: 42,
            trace_path: None,
            scheme: Scheme::Pod,
            out: None,
            memory_mib: None,
            jobs: None,
            trace_out: None,
            input: None,
            epoch_requests: 0,
            headless: false,
            faults: None,
            verify: false,
            tenants: 1,
            shards: 1,
            policy: None,
            prof: false,
        }
    }
}

impl CliArgs {
    /// Parse `--flag value` pairs.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Self::default();
        let mut i = 0;
        while i < argv.len() {
            let flag = argv[i].as_str();
            // Boolean flags take no value.
            if flag == "--headless" {
                args.headless = true;
                i += 1;
                continue;
            }
            if flag == "--verify" {
                args.verify = true;
                i += 1;
                continue;
            }
            if flag == "--prof" {
                args.prof = true;
                i += 1;
                continue;
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))?;
            match flag {
                "--profile" => args.profile = value.clone(),
                "--scale" => {
                    args.scale = value
                        .parse()
                        .map_err(|_| format!("bad --scale '{value}'"))?;
                    // Written so that NaN fails too; the ceiling keeps the
                    // scaled request count far inside `usize`.
                    if !(args.scale > 0.0 && args.scale <= MAX_SCALE) {
                        return Err(format!("--scale must be positive and at most {MAX_SCALE}"));
                    }
                }
                "--seed" => {
                    args.seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?
                }
                "--trace" => args.trace_path = Some(value.clone()),
                "--out" => args.out = Some(value.clone()),
                "--trace-out" => args.trace_out = Some(value.clone()),
                "--in" => args.input = Some(value.clone()),
                "--faults" => {
                    // Validate eagerly so a typo fails at the prompt,
                    // not mid-replay.
                    pod_core::FaultPlan::parse(value).map_err(|e| e.to_string())?;
                    args.faults = Some(value.clone());
                }
                "--policy" => {
                    pod_core::ServePolicy::parse(value).map_err(|e| e.to_string())?;
                    args.policy = Some(value.clone());
                }
                "--epoch" => {
                    args.epoch_requests = value
                        .parse()
                        .map_err(|_| format!("bad --epoch '{value}'"))?
                }
                "--memory" => {
                    args.memory_mib = Some(
                        value
                            .parse()
                            .map_err(|_| format!("bad --memory '{value}'"))?,
                    );
                    args.memory_bytes()?;
                }
                "--jobs" => {
                    let jobs: usize = value.parse().map_err(|_| format!("bad --jobs '{value}'"))?;
                    if jobs == 0 {
                        return Err("--jobs must be at least 1".into());
                    }
                    args.jobs = Some(jobs);
                }
                "--tenants" => {
                    args.tenants = value
                        .parse()
                        .map_err(|_| format!("bad --tenants '{value}'"))?;
                    if args.tenants == 0 {
                        return Err("--tenants must be at least 1".into());
                    }
                    if args.tenants > u16::MAX as usize {
                        return Err(format!("--tenants capped at {}", u16::MAX));
                    }
                }
                "--shards" => {
                    args.shards = value
                        .parse()
                        .map_err(|_| format!("bad --shards '{value}'"))?;
                    if args.shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                }
                "--scheme" => {
                    args.scheme = match value.as_str() {
                        "native" => Scheme::Native,
                        "full" | "full-dedupe" => Scheme::FullDedupe,
                        "idedup" => Scheme::IDedup,
                        "select" | "select-dedupe" => Scheme::SelectDedupe,
                        "pod" => Scheme::Pod,
                        "post" | "post-process" => Scheme::PostProcess,
                        "iodedup" | "io-dedup" => Scheme::IODedup,
                        other => return Err(format!("unknown scheme '{other}'")),
                    }
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
            i += 2;
        }
        if args.shards > args.tenants {
            return Err(format!(
                "--shards {} exceeds --tenants {}: every shard must own at least one tenant",
                args.shards, args.tenants
            ));
        }
        Ok(args)
    }

    /// `--memory` in bytes, refusing a MiB count that overflows `u64`.
    fn memory_bytes(&self) -> Result<Option<u64>, String> {
        self.memory_mib
            .map(|m| {
                m.checked_mul(1 << 20)
                    .ok_or_else(|| format!("--memory {m} MiB overflows a byte count"))
            })
            .transpose()
    }

    /// The workload profile named by `--profile`.
    pub fn resolve_profile(&self) -> Result<TraceProfile, String> {
        match self.profile.as_str() {
            "web-vm" | "webvm" => Ok(TraceProfile::web_vm()),
            "homes" => Ok(TraceProfile::homes()),
            "mail" => Ok(TraceProfile::mail()),
            other => Err(format!("unknown profile '{other}' (web-vm|homes|mail)")),
        }
    }

    /// Load the trace: from `--trace <file>` (FIU text) when given,
    /// otherwise generated from the profile.
    pub fn load_trace(&self) -> Result<Trace, String> {
        if let Some(path) = &self.trace_path {
            let budget = self.memory_bytes()?.unwrap_or(500 * 1024 * 1024);
            Ok(Trace {
                name: path.clone(),
                requests: load_fiu(path)?,
                memory_budget_bytes: budget,
            })
        } else {
            let profile = self.resolve_profile()?;
            Ok(profile.scaled(self.scale).generate(self.seed))
        }
    }

    /// Apply `--jobs` to the experiment executor's process-wide width
    /// (replay grids run this many schemes/sweep points concurrently).
    /// At a width of 2 or more every replay's simulated array also runs
    /// on a thread of its own (see `pod_core::stack::disk_on_own_thread`).
    pub fn apply_jobs(&self) {
        if let Some(jobs) = self.jobs {
            pod_core::pool::set_default_width(jobs);
        }
    }

    /// The system configuration implied by the flags.
    pub fn system_config(&self) -> Result<pod_core::SystemConfig, String> {
        let mut cfg = pod_core::SystemConfig::paper_default();
        if let Some(bytes) = self.memory_bytes()? {
            cfg.memory_bytes = Some(bytes);
        }
        if let Some(spec) = &self.faults {
            cfg.faults = Some(pod_core::FaultPlan::parse(spec).map_err(|e| e.to_string())?);
        }
        if let Some(spec) = &self.policy {
            cfg.policy = Some(pod_core::ServePolicy::parse(spec).map_err(|e| e.to_string())?);
        }
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).expect("empty args parse");
        assert_eq!(a.profile, "mail");
        assert_eq!(a.scheme, Scheme::Pod);
        assert!(a.trace_path.is_none());
        assert!(!a.headless);
    }

    #[test]
    fn headless_takes_no_value() {
        // `--headless` directly followed by another flag must not
        // swallow it as a value.
        let a = parse(&["--headless", "--seed", "9"]).expect("parse");
        assert!(a.headless);
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--profile",
            "homes",
            "--scale",
            "0.5",
            "--seed",
            "7",
            "--scheme",
            "select",
            "--out",
            "x.fiu",
            "--memory",
            "64",
            "--jobs",
            "4",
            "--trace-out",
            "t.jsonl",
            "--in",
            "s.jsonl",
            "--epoch",
            "512",
            "--headless",
        ])
        .expect("parse");
        assert!(a.headless);
        assert_eq!(a.profile, "homes");
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.seed, 7);
        assert_eq!(a.scheme, Scheme::SelectDedupe);
        assert_eq!(a.out.as_deref(), Some("x.fiu"));
        assert_eq!(a.memory_mib, Some(64));
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.input.as_deref(), Some("s.jsonl"));
        assert_eq!(a.epoch_requests, 512);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "zero"]).is_err());
        assert!(parse(&["--scale", "-1"]).is_err());
        assert!(parse(&["--scale", "nan"]).is_err());
        assert!(parse(&["--scale", "inf"]).is_err());
        assert!(parse(&["--scale", "1e300"]).is_err());
        assert!(parse(&["--memory", "17592186044416"]).is_err());
        assert!(parse(&["--scheme", "bogus"]).is_err());
        assert!(parse(&["--wat", "1"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--epoch", "soon"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn jobs_flag_sets_executor_width() {
        let a = parse(&["--jobs", "5"]).expect("parse");
        a.apply_jobs();
        assert_eq!(pod_core::pool::default_width(), 5);
        pod_core::pool::set_default_width(0);
    }

    #[test]
    fn profile_resolution() {
        let mut a = CliArgs {
            profile: "web-vm".into(),
            ..Default::default()
        };
        assert_eq!(a.resolve_profile().expect("known").name, "web-vm");
        a.profile = "nope".into();
        assert!(a.resolve_profile().is_err());
    }

    #[test]
    fn memory_override_lands_in_config() {
        let a = CliArgs {
            memory_mib: Some(64),
            ..Default::default()
        };
        let cfg = a.system_config().expect("config");
        assert_eq!(cfg.memory_bytes, Some(64 * 1024 * 1024));
    }

    #[test]
    fn verify_takes_no_value() {
        let a = parse(&["--verify", "--seed", "3"]).expect("parse");
        assert!(a.verify);
        assert_eq!(a.seed, 3);
    }

    #[test]
    fn prof_takes_no_value() {
        let a = parse(&["--prof", "--seed", "3"]).expect("parse");
        assert!(a.prof);
        assert_eq!(a.seed, 3);
        let d = parse(&[]).expect("parse");
        assert!(!d.prof);
    }

    #[test]
    fn serve_topology_flags_parse_and_validate() {
        let a = parse(&["--tenants", "4", "--shards", "2"]).expect("parse");
        assert_eq!((a.tenants, a.shards), (4, 2));
        // Defaults: one tenant, one shard.
        let d = parse(&[]).expect("parse");
        assert_eq!((d.tenants, d.shards), (1, 1));
        // Zero counts are rejected at the prompt.
        assert!(parse(&["--tenants", "0"]).is_err());
        assert!(parse(&["--shards", "0"]).is_err());
        assert!(parse(&["--tenants", "many"]).is_err());
        assert!(
            parse(&["--tenants", "70000"]).is_err(),
            "tenant ids are u16"
        );
        // An empty shard is a topology error, caught before any work.
        let err = parse(&["--tenants", "2", "--shards", "4"]).expect_err("shards > tenants");
        assert!(err.contains("exceeds --tenants"), "{err}");
        // --shards alone exceeds the default single tenant.
        assert!(parse(&["--shards", "2"]).is_err());
    }

    #[test]
    fn policy_flag_lands_in_config() {
        let a = parse(&["--policy", "tier:64,rate:500,quota:4"]).expect("parse");
        let cfg = a.system_config().expect("config");
        let policy = cfg.policy.expect("policy set");
        assert_eq!(policy.shared_tier_bytes, 64 << 20);
        assert_eq!(policy.rate_limit_rps, Some(500));
        assert_eq!(policy.cache_quota_bytes, Some(4 << 20));
        // No flag: no policy, byte-identical legacy behaviour.
        assert!(parse(&[])
            .expect("parse")
            .system_config()
            .expect("cfg")
            .policy
            .is_none());
    }

    #[test]
    fn bad_policy_spec_is_rejected_at_parse_time() {
        assert!(parse(&["--policy", "tier:lots"]).is_err());
        assert!(parse(&["--policy", "vip:please"]).is_err());
    }

    #[test]
    fn faults_flag_lands_in_config() {
        let a = parse(&["--faults", "crash:200:9"]).expect("parse");
        let cfg = a.system_config().expect("config");
        let plan = cfg.faults.expect("plan set");
        assert_eq!(plan.crash_after_jobs, Some(200));
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn bad_fault_spec_is_rejected_at_parse_time() {
        assert!(parse(&["--faults", "meteor"]).is_err());
        assert!(parse(&["--faults", "crash:0"]).is_err());
    }
}
