//! The in-process engine call, configured exactly as the child command
//! configures it.
//!
//! Trace and `SystemConfig` come from `pod_cli::args::CliArgs` parsed
//! from the child's own argv, and the builders are assembled the way
//! `cmd_replay::run` / `cmd_serve::run` assemble them, so an in-process
//! stage cannot drift from the command it stands for.

use crate::workload::Kind;
use pod_cli::args::CliArgs;
use pod_core::obs::LayerHistograms;
use pod_core::serve::{ServeBuilder, ServeReport};
use pod_core::{ReplayBuilder, ReplayReport, SystemConfig};
use pod_trace::{derive_tenants, Trace};
use std::time::Instant;

/// A workload's input, loaded in memory.
pub enum Inputs {
    Solo(Trace),
    Fleet(Vec<Trace>),
}

impl Inputs {
    pub fn traces(&self) -> &[Trace] {
        match self {
            Inputs::Solo(t) => std::slice::from_ref(t),
            Inputs::Fleet(ts) => ts,
        }
    }

    pub fn requests(&self) -> u64 {
        self.traces().iter().map(|t| t.len() as u64).sum()
    }

    /// Requests the report must account for: everything past each
    /// trace's warm-up prefix.
    pub fn measured_requests(&self, cfg: &SystemConfig) -> u64 {
        self.traces()
            .iter()
            .map(|t| (t.len() - warmup_requests(cfg, t.len())) as u64)
            .sum()
    }
}

/// Leading requests of an `n`-request trace excluded from measurement
/// (the rule `runner` applies).
pub fn warmup_requests(cfg: &SystemConfig, n: usize) -> usize {
    (n as f64 * cfg.warmup_fraction) as usize
}

/// Load the command's input the way the command does.
pub fn load(kind: Kind, args: &CliArgs) -> Result<Inputs, String> {
    match kind {
        Kind::Replay => args.load_trace().map(Inputs::Solo),
        Kind::Serve => {
            let profile = args.resolve_profile()?;
            Ok(Inputs::Fleet(derive_tenants(
                &profile.scaled(args.scale),
                args.tenants,
                args.seed,
            )))
        }
    }
}

/// `cmd_replay::run`'s builder.
fn replay_builder<'t>(args: &CliArgs, cfg: &SystemConfig, trace: &'t Trace) -> ReplayBuilder<'t> {
    let mut builder = args
        .scheme
        .builder()
        .config(cfg.clone())
        .trace(trace)
        .verify(args.verify)
        .profile(args.prof)
        .observer(LayerHistograms::new());
    if args.trace_out.is_some() {
        builder = builder.record(args.epoch_requests);
    }
    builder
}

/// `cmd_serve::run`'s builder.
fn serve_builder<'t>(args: &CliArgs, cfg: &SystemConfig, tenants: &'t [Trace]) -> ServeBuilder<'t> {
    let mut builder = ServeBuilder::new(args.scheme)
        .config(cfg.clone())
        .tenants(tenants)
        .shards(args.shards);
    if let Some(jobs) = args.jobs {
        builder = builder.jobs(jobs);
    }
    if args.trace_out.is_some() {
        builder = builder.record(args.epoch_requests);
    }
    builder
}

/// Everything the harness reads off one engine call.
pub struct EngineOut {
    /// Seconds inside `run_observed` / `run_recorded`.
    pub secs: f64,
    /// Requests the report accounted for (`overall.count()`).
    pub measured: u64,
    pub sim_mean_ms: f64,
    pub sim_p99_ms: f64,
    pub writes_removed_pct: f64,
    pub capacity_mib: f64,
    /// Oracle verdict summed over stacks: `(blocks checked, divergent
    /// blocks or invariant failures)`, when the oracle ran.
    pub integrity: Option<(u64, u64)>,
    /// Deterministic text of the result: equal across repetitions, and
    /// for `serve` equal to the child's stdout.
    pub digest: String,
    pub detail: Detail,
}

pub enum Detail {
    Replay(Box<ReplayReport>),
    Serve(Box<ServeReport>),
}

const MIB_PER_BLOCK: f64 = 4096.0 / (1024.0 * 1024.0);

fn integrity_of(rep: &ReplayReport) -> Option<(u64, u64)> {
    rep.integrity.as_ref().map(|i| {
        // An invariant failure with no divergent block still fails.
        let bad = i.divergent.max(u64::from(!i.passed()));
        (i.checked, bad)
    })
}

fn replay_digest(rep: &ReplayReport) -> String {
    format!(
        "{} {} n={} mean_us={:?} p99_us={} max_us={} counters={:?} capacity={} nvram={} stack={:?}",
        rep.scheme,
        rep.trace,
        rep.overall.count(),
        rep.overall.mean_us(),
        rep.overall.percentile_us(99.0),
        rep.overall.max_us(),
        rep.counters,
        rep.capacity_used_blocks,
        rep.nvram_peak_bytes,
        rep.stack,
    )
}

/// Run the engine once over `inputs`. `verify` overrides the command's
/// own `--verify` setting when given.
pub fn run_engine(
    args: &CliArgs,
    cfg: &SystemConfig,
    inputs: &Inputs,
    verify: Option<bool>,
    profile: bool,
) -> Result<EngineOut, String> {
    let verify = verify.unwrap_or(args.verify);
    match inputs {
        Inputs::Solo(trace) => run_replay(args, cfg, trace, verify, profile),
        Inputs::Fleet(tenants) => run_serve(args, cfg, tenants, verify, profile),
    }
}

pub fn run_replay(
    args: &CliArgs,
    cfg: &SystemConfig,
    trace: &Trace,
    verify: bool,
    profile: bool,
) -> Result<EngineOut, String> {
    let builder = replay_builder(args, cfg, trace)
        .verify(verify)
        .profile(profile);
    let started = Instant::now();
    let (rep, _chain) = builder.run_observed().map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    Ok(EngineOut {
        secs,
        measured: rep.overall.count() as u64,
        sim_mean_ms: rep.overall.mean_ms(),
        sim_p99_ms: rep.overall.percentile_us(99.0) as f64 / 1e3,
        writes_removed_pct: rep.writes_removed_pct(),
        capacity_mib: rep.capacity_used_mib(),
        integrity: integrity_of(&rep),
        digest: replay_digest(&rep),
        detail: Detail::Replay(Box::new(rep)),
    })
}

pub fn run_serve(
    args: &CliArgs,
    cfg: &SystemConfig,
    tenants: &[Trace],
    verify: bool,
    profile: bool,
) -> Result<EngineOut, String> {
    let builder = serve_builder(args, cfg, tenants)
        .verify(verify)
        .profile(profile);
    let started = Instant::now();
    let (rep, _recorders) = builder.run_recorded().map_err(|e| e.to_string())?;
    let secs = started.elapsed().as_secs_f64();
    let a = &rep.aggregate;
    let integrity = rep
        .tenants
        .iter()
        .filter_map(|t| integrity_of(&t.report))
        .reduce(|(c, d), (c2, d2)| (c + c2, d + d2));
    Ok(EngineOut {
        secs,
        measured: a.overall.count() as u64,
        sim_mean_ms: a.overall.mean_ms(),
        sim_p99_ms: a.overall.percentile_us(99.0) as f64 / 1e3,
        writes_removed_pct: a.counters.removed_pct(),
        capacity_mib: a.capacity_used_blocks as f64 * MIB_PER_BLOCK,
        integrity,
        digest: pod_cli::cmd_serve::render_report(&rep),
        detail: Detail::Serve(Box::new(rep)),
    })
}
