//! Layer gates the repo benchmark (`benchmark/`) has no seam for. The
//! perf record of this repository is `benchmark/`; this binary writes
//! no file and compares against nothing stored.
//!
//! ```text
//! cargo run --release -p pod-bench --bin perfgate -- --scale 0.02
//! ```
//!
//! The sharded engine's critical-path aggregate rate at 1/2/4/8 shards
//! (total requests over the slowest shard's busy span, each shard timed
//! uncontended; a *projection*, not wall-clock throughput), which must
//! reach 2x or more at 4 shards vs 1; then the deterministic shared-tier
//! gate: the locality-prioritized tier must not dedup worse than the
//! flat static split.
//!
//! `--report-only` prints a failed gate without exiting non-zero.

use pod_core::serve::ServeBuilder;
use pod_core::{Scheme, ServePolicy, SystemConfig};
use pod_trace::TraceProfile;

struct Args {
    report_only: bool,
    scale: f64,
    reps: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        report_only: false,
        scale: 0.1,
        reps: 3,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--report-only" => {
                args.report_only = true;
                i += 1;
            }
            "--scale" => {
                args.scale = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                if args.scale <= 0.0 {
                    die("--scale must be positive");
                }
                i += 2;
            }
            "--reps" => {
                args.reps = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs an integer"));
                if args.reps == 0 {
                    die("--reps must be at least 1");
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: perfgate [--scale F] [--reps N] [--report-only]\n\
                     runs the sharded-serve scaling sweep (projected critical-path\n\
                     rate, best of N repetitions) with its two gates: >= 2x at\n\
                     4 shards vs 1, and prioritized >= static dedup-hit rate on\n\
                     the shared tier. Writes no file. --report-only prints a\n\
                     failed gate but exits 0"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Fastest of `reps` runs of `run`, which returns its own duration in
/// seconds — the standard way to cut scheduler noise out of a timing.
fn best_of(reps: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..reps)
        .map(|_| run().max(1e-9))
        .fold(f64::INFINITY, f64::min)
}

/// One point of the sharded-serve scaling sweep.
struct ServeEntry {
    shards: usize,
    requests: u64,
    /// Slowest shard's busy span (best of reps), seconds.
    critical_path_s: f64,
    /// Aggregate service rate along the critical path.
    jobs_per_sec: f64,
}

/// Seed of every generated workload here.
const BENCH_SEED: u64 = 42;
/// Tenants in the serve sweep; shards sweep 1→8 over them.
const SERVE_TENANTS: usize = 8;
const SERVE_SHARDS: [usize; 4] = [1, 2, 4, 8];

/// The serve scaling sweep: 8 derived mail tenants under POD, shards ∈
/// {1, 2, 4, 8}, measured as the critical-path aggregate service rate —
/// total requests over the slowest shard's busy span. Runs with
/// `jobs = 1` so every shard span is timed uncontended; the rate then
/// equals wall-clock throughput on any machine with at least `shards`
/// cores, and stays meaningful on core-starved CI runners.
fn serve_bench(scale: f64, reps: usize) -> Vec<ServeEntry> {
    let fleet = pod_trace::derive_tenants(
        &TraceProfile::mail().scaled(scale),
        SERVE_TENANTS,
        BENCH_SEED,
    );
    let cfg = SystemConfig::paper_default();
    let mut out = Vec::new();
    for &shards in &SERVE_SHARDS {
        let mut requests = 0u64;
        let best = best_of(reps, || {
            let rep = ServeBuilder::new(Scheme::Pod)
                .config(cfg.clone())
                .tenants(&fleet)
                .shards(shards)
                .jobs(1)
                .run()
                .unwrap_or_else(|e| die(&format!("serve/shards-{shards}: {e}")));
            requests = rep.total_requests();
            rep.critical_path_us() as f64 / 1e6
        });
        out.push(ServeEntry {
            shards,
            requests,
            critical_path_s: best,
            jobs_per_sec: requests as f64 / best,
        });
    }
    out
}

fn print_serve_table(serve: &[ServeEntry]) {
    println!(
        "\n{:<14} {:>8} {:>9} {:>12} {:>12} {:>9}",
        "serve", "tenants", "reqs", "critical(s)", "jobs/s", "speedup"
    );
    let base = serve.first().map(|e| e.jobs_per_sec).unwrap_or(1.0);
    for e in serve {
        println!(
            "{:<14} {:>8} {:>9} {:>12.3} {:>12.0} {:>8.2}x",
            format!("shards-{}", e.shards),
            SERVE_TENANTS,
            e.requests,
            e.critical_path_s,
            e.jobs_per_sec,
            e.jobs_per_sec / base
        );
    }
}

/// Hard scaling gate: the 4-shard aggregate rate must be at least twice
/// the 1-shard rate. With tenant-isolated stacks the work partitions
/// cleanly, so anything below 2x means the engine serialized somewhere.
fn serve_scaling_gate(serve: &[ServeEntry], report_only: bool) {
    let rate = |n: usize| serve.iter().find(|e| e.shards == n).map(|e| e.jobs_per_sec);
    let (Some(r1), Some(r4)) = (rate(1), rate(4)) else {
        return;
    };
    let speedup = r4 / r1;
    println!("serve scaling: 4 shards at {speedup:.2}x the 1-shard aggregate rate");
    if speedup < 2.0 {
        eprintln!("serve scaling gate: expected >= 2.00x at 4 shards, got {speedup:.2}x");
        if !report_only {
            std::process::exit(1);
        }
        println!("(--report-only: not failing)");
    }
}

/// One point of the shared-tier policy comparison.
struct TierEntry {
    policy: &'static str,
    deduped_blocks: u64,
    written_blocks: u64,
    dedup_hit_pct: f64,
}

/// Shared-tier comparison: the same skewed 8-tenant fleet (4 mail
/// tenants with strong fingerprint locality, 4 web-vm tenants with
/// weak locality) served once under the locality-prioritized tier and
/// once under the flat static division of the same tier budget. Both
/// runs are fully deterministic — the metric is simulated dedup volume,
/// not wall clock — so a single run per policy suffices.
fn tier_bench(scale: f64) -> Vec<TierEntry> {
    // Below ~0.05 each tenant's fingerprint working set fits the bare
    // iCache partition and both divisions tie; floor the scale so the
    // comparison stays meaningful at CI smoke scales.
    let scale = scale.max(0.05);
    let mut fleet = pod_trace::derive_tenants(
        &TraceProfile::mail().scaled(scale),
        SERVE_TENANTS / 2,
        BENCH_SEED,
    );
    fleet.extend(pod_trace::derive_tenants(
        &TraceProfile::web_vm().scaled(scale),
        SERVE_TENANTS / 2,
        BENCH_SEED + 1,
    ));
    let mut out = Vec::new();
    for (name, policy) in [
        ("prioritized", ServePolicy::prioritized_tier(2)),
        ("static", ServePolicy::static_tier(2)),
    ] {
        let mut cfg = SystemConfig::paper_default();
        // Starve the per-stack DRAM budget so index capacity is the
        // binding constraint — with the paper budget every fingerprint
        // fits and the tier division cannot move the dedup volume.
        cfg.memory_bytes = Some(1 << 20);
        cfg.policy = Some(policy);
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(cfg)
            .tenants(&fleet)
            .shards(4)
            .run()
            .unwrap_or_else(|e| die(&format!("tier/{name}: {e}")));
        let c = &rep.aggregate.counters;
        let volume = (c.deduped_blocks + c.written_blocks).max(1);
        out.push(TierEntry {
            policy: name,
            deduped_blocks: c.deduped_blocks,
            written_blocks: c.written_blocks,
            dedup_hit_pct: c.deduped_blocks as f64 * 100.0 / volume as f64,
        });
    }
    out
}

fn print_tier_table(tier: &[TierEntry]) {
    println!(
        "\n{:<18} {:>12} {:>12} {:>12}",
        "tier policy", "deduped", "written", "dedup-hit%"
    );
    for e in tier {
        println!(
            "{:<18} {:>12} {:>12} {:>11.2}%",
            e.policy, e.deduped_blocks, e.written_blocks, e.dedup_hit_pct
        );
    }
}

/// Shared-tier gate: locality-prioritized division must not dedup worse
/// than the flat static split of the same budget on the skewed fleet.
/// The comparison is within-run and deterministic, so any failure is a
/// real behaviour change in the tier logic, never noise.
fn tier_gate(tier: &[TierEntry], report_only: bool) {
    let pct = |name: &str| {
        tier.iter()
            .find(|e| e.policy == name)
            .map(|e| e.dedup_hit_pct)
    };
    let (Some(pri), Some(sta)) = (pct("prioritized"), pct("static")) else {
        return;
    };
    println!("shared tier: prioritized {pri:.2}% vs static {sta:.2}% aggregate dedup-hit rate");
    if pri < sta {
        eprintln!(
            "shared-tier gate: prioritized division deduped worse than static \
             ({pri:.2}% < {sta:.2}%)"
        );
        if !report_only {
            std::process::exit(1);
        }
        println!("(--report-only: not failing)");
    }
}

fn main() {
    let args = parse_args();
    println!(
        "perfgate: serve scaling sweep (projected; {} tenants, shards {:?}), \
         scale {}, best of {} ...",
        SERVE_TENANTS, SERVE_SHARDS, args.scale, args.reps
    );
    let serve = serve_bench(args.scale, args.reps);
    print_serve_table(&serve);
    serve_scaling_gate(&serve, args.report_only);
    let tier = tier_bench(args.scale);
    print_tier_table(&tier);
    tier_gate(&tier, args.report_only);
}
