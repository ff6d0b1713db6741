//! Performance gate: replay the built-in synthetic traces under every
//! scheme, record throughput and wall clock to `BENCH_<date>.json`, and
//! fail if any measurement regressed past a tolerance against the most
//! recent previous snapshot.
//!
//! ```text
//! cargo run --release -p pod-bench --bin perfgate
//! cargo run --release -p pod-bench --bin perfgate -- --report-only
//! cargo run --release -p pod-bench --bin perfgate -- --tolerance 15 --dir bench-history
//! ```
//!
//! Each run measures, per trace profile (`mail`, `web-vm`, `homes`):
//!
//! * one sequential replay per scheme — requests/second and wall clock,
//! * one `grid` entry — all schemes through the experiment executor,
//!
//! plus per-layer time shares (cache / dedup / disk, from the stack's
//! observer counters, full precision, with the raw µs totals), host
//! wall-clock layer shares from one profiled rep, and the process peak
//! RSS (`VmHWM` from `/proc/self/status`). The snapshot is plain JSON
//! (schema 3: per-rep `samples`, a `commit` stamp) written without
//! external crates; previous snapshots are read back through the shared
//! `pod_core::obs::json` reader, schema 2 included.
//!
//! Beyond the per-run snapshot, every run appends its measurements to
//! the persistent experiment store `<dir>/results/history.jsonl` (see
//! [`pod_bench::store`]), and two standalone modes ride on it:
//!
//! * `--import BENCH_X.json` seeds the store from an existing snapshot
//!   (idempotent — re-importing the same snapshot is a no-op),
//! * `--trend` fits the last `--trend-window` (default 5) runs of every
//!   (trace, scheme, config) series and fails on sustained drift: five
//!   runs each 2-3% slower all pass the 10% per-run gate, yet the
//!   series has silently lost 12% — exactly what the fit catches.
//!   Series shorter than the window warn instead of failing.

use pod_bench::store::{self, analyze_trends, ExperimentStore, StoreRecord};
use pod_core::experiments::run_schemes;
use pod_core::obs::json::{parse as parse_json, Json};
use pod_core::serve::ServeBuilder;
use pod_core::{Layer, Scheme, ServePolicy, StackCounters, SystemConfig};
use pod_disk::{ArraySim, DiskSpec, RaidConfig, RaidGeometry, SchedulerKind};
use pod_trace::{Trace, TraceProfile};
use pod_types::{Pba, SimTime};
use std::time::Instant;

const TRACES: [&str; 3] = ["mail", "web-vm", "homes"];

struct Args {
    dir: String,
    tolerance_pct: f64,
    report_only: bool,
    scale: f64,
    reps: usize,
    disk_only: bool,
    serve_only: bool,
    trend: bool,
    trend_window: usize,
    import: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: ".".into(),
        tolerance_pct: 10.0,
        report_only: false,
        scale: 0.1,
        reps: 3,
        disk_only: false,
        serve_only: false,
        trend: false,
        trend_window: 5,
        import: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dir" => {
                args.dir = argv
                    .get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| die("--dir needs a directory"));
                i += 2;
            }
            "--tolerance" => {
                args.tolerance_pct = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--tolerance needs a percentage"));
                if args.tolerance_pct < 0.0 {
                    die("--tolerance must be non-negative");
                }
                i += 2;
            }
            "--report-only" => {
                args.report_only = true;
                i += 1;
            }
            "--disk-only" => {
                args.disk_only = true;
                i += 1;
            }
            "--serve-only" => {
                args.serve_only = true;
                i += 1;
            }
            "--trend" => {
                args.trend = true;
                i += 1;
            }
            "--trend-window" => {
                args.trend_window = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--trend-window needs an integer"));
                if args.trend_window < 2 {
                    die("--trend-window must be at least 2");
                }
                i += 2;
            }
            "--import" => {
                args.import = Some(
                    argv.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--import needs a snapshot path")),
                );
                i += 2;
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
                    "usage: perfgate [--dir DIR] [--tolerance PCT] [--scale F] \
                     [--reps N] [--report-only] [--disk-only] [--serve-only] \
                     [--trend] [--trend-window N] [--import SNAPSHOT]\n\
                     replays the synthetic traces under every scheme (best of N\n\
                     repetitions) plus the disk-engine microbenches and the\n\
                     sharded-serve scaling sweep, writes BENCH_<date>.json,\n\
                     appends every measurement to DIR/results/history.jsonl, and\n\
                     exits non-zero when throughput drops more than PCT%\n\
                     (default 10) below the previous snapshot.\n\
                     --disk-only runs just the disk microbenches and writes no\n\
                     snapshot (CI smoke); --serve-only does the same for the\n\
                     serve scaling sweep plus the shared-tier policy gate,\n\
                     comparing against the latest snapshot's serve section\n\
                     when it has one.\n\
                     --trend runs no benches: it fits the last N runs (default\n\
                     5) of every series in the experiment store and fails on a\n\
                     sustained median-wall-time drift beyond the tolerance,\n\
                     even when each adjacent run passed the per-run gate;\n\
                     series shorter than the window only warn.\n\
                     --import seeds the store from an existing BENCH_*.json\n\
                     (schema 2 or 3) without running anything; importing the\n\
                     same snapshot twice is a no-op"
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

/// One measured replay.
struct Entry {
    trace: String,
    scheme: String,
    requests: u64,
    /// Fastest rep, seconds — the gate metric's denominator.
    wall_s: f64,
    requests_per_sec: f64,
    /// Per-rep wall-clock seconds, in rep order. `wall_s` is their
    /// minimum; median and CI are derived at print/serialize time.
    samples: Vec<f64>,
    /// Fraction of simulated layer time spent in each layer (cache /
    /// dedup / disk, summing to ~1). Deterministic — a property of the
    /// workload, not the wall clock — so snapshots can diff them.
    /// Serialized at full precision: a 4-decimal rounding once hid a
    /// real 0.00004 cache share as exactly zero.
    layer_shares: [f64; 3],
    /// The raw simulated µs totals the shares were computed from
    /// (cache / dedup / disk) — exact integers, no rounding anywhere.
    layer_us: [u64; 3],
    /// Host wall-clock layer shares `[cache, dedup, disk, other]` from
    /// one extra profiled rep (untimed), absent for the grid entry.
    host_shares: Option<[f64; 4]>,
    /// iCache epochs completed during the replay (summed over schemes
    /// for the grid entry). Deterministic.
    epochs: u64,
    /// Final index-cache share of the iCache DRAM budget, in per-mille
    /// (0 for the grid entry — the split is per scheme). Deterministic,
    /// so snapshot diffs catch repartitioning-behaviour changes.
    final_index_pm: u64,
}

fn layer_shares(stack: &StackCounters) -> [f64; 3] {
    [
        stack.layer_share(Layer::Cache),
        stack.layer_share(Layer::Dedup),
        stack.layer_share(Layer::Disk),
    ]
}

fn layer_us(stack: &StackCounters) -> [u64; 3] {
    [stack.cache_time_us, stack.dedup_time_us, stack.disk_time_us]
}

fn measure(trace_name: &str, trace: &Trace, cfg: &SystemConfig, reps: usize) -> Vec<Entry> {
    let mut entries = Vec::new();
    for scheme in Scheme::all() {
        // Best of `reps`: a fresh stack each repetition (replay mutates
        // engine state), the minimum wall clock as the measurement —
        // the standard way to cut scheduler noise out of a perf gate.
        // Every rep's wall clock is kept as a sample so the snapshot
        // and the experiment store can carry median and CI too.
        let mut samples = Vec::with_capacity(reps);
        let mut shares = [0.0; 3];
        let mut us = [0u64; 3];
        let mut epochs = 0u64;
        let mut final_index_pm = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let rep = scheme
                .builder()
                .config(cfg.clone())
                .trace(trace)
                .run()
                .unwrap_or_else(|e| die(&format!("{trace_name}/{scheme}: {e}")));
            samples.push(t0.elapsed().as_secs_f64().max(1e-9));
            shares = layer_shares(&rep.stack);
            us = layer_us(&rep.stack);
            epochs = rep.icache_epochs;
            final_index_pm = (rep.final_index_fraction * 1000.0).round() as u64;
        }
        // One extra untimed rep with the host profiler attached: real
        // wall-clock layer shares to set against the simulated ones.
        let host_shares = scheme
            .builder()
            .config(cfg.clone())
            .trace(trace)
            .profile(true)
            .run()
            .ok()
            .and_then(|rep| rep.profile)
            .map(|prof| {
                let mut shares = [0.0; 4];
                for (i, (_, s)) in prof.layer_shares().iter().enumerate() {
                    shares[i] = *s;
                }
                shares
            });
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
        entries.push(Entry {
            trace: trace_name.into(),
            scheme: scheme.name().into(),
            requests: trace.len() as u64,
            wall_s: best,
            requests_per_sec: trace.len() as f64 / best,
            samples,
            layer_shares: shares,
            layer_us: us,
            host_shares,
            epochs,
            final_index_pm,
        });
    }
    let mut samples = Vec::with_capacity(reps);
    let mut grid_requests = 0u64;
    let mut grid_stack = StackCounters::default();
    let mut grid_epochs = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let grid = run_schemes(&Scheme::all(), trace, cfg)
            .unwrap_or_else(|e| die(&format!("{trace_name}/grid: {e}")));
        samples.push(t0.elapsed().as_secs_f64().max(1e-9));
        grid_requests = trace.len() as u64 * grid.len() as u64;
        let mut total = StackCounters::default();
        grid_epochs = 0;
        for rep in &grid {
            total.cache_time_us += rep.stack.cache_time_us;
            total.dedup_time_us += rep.stack.dedup_time_us;
            total.disk_time_us += rep.stack.disk_time_us;
            grid_epochs += rep.icache_epochs;
        }
        grid_stack = total;
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    entries.push(Entry {
        trace: trace_name.into(),
        scheme: "grid".into(),
        requests: grid_requests,
        wall_s: best,
        requests_per_sec: grid_requests as f64 / best,
        samples,
        layer_shares: layer_shares(&grid_stack),
        layer_us: layer_us(&grid_stack),
        host_shares: None,
        epochs: grid_epochs,
        final_index_pm: 0,
    });
    entries
}

/// One disk-engine microbench measurement (simulator throughput in
/// jobs drained per wall-clock second — the number ROADMAP's "10×
/// replay throughput" target cashes out to).
struct DiskEntry {
    mix: String,
    jobs: u64,
    wall_s: f64,
    jobs_per_sec: f64,
    /// Per-rep wall-clock seconds (`wall_s` is their minimum).
    samples: Vec<f64>,
}

/// The paper's evaluation array: 4-disk RAID-5 over WD1600AAJS members.
fn disk_sim() -> ArraySim {
    ArraySim::new(
        RaidGeometry::new(RaidConfig::paper_raid5()),
        DiskSpec::wd1600aajs(),
        SchedulerKind::Fifo,
    )
}

/// Deterministic 64-bit mixer for address scattering (splitmix64).
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drive `total` jobs through `sim` replay-style: advance the clock to
/// each arrival with `run_until`, submit, and drain at the end — exactly
/// how `StorageStack` drives the array during trace replay. `make` plans
/// one job at the given arrival time.
fn drive_replay(
    sim: &mut ArraySim,
    total: u64,
    spacing_us: u64,
    mut make: impl FnMut(&mut ArraySim, SimTime, u64),
) {
    for i in 0..total {
        let at = SimTime::from_micros(i * spacing_us);
        sim.run_until(at);
        make(sim, at, i);
    }
    sim.run_to_idle();
}

/// Disk-engine microbenches: jobs/sec for the three canonical mixes,
/// best of `reps`. Deterministic workloads; only wall clock varies.
fn disk_microbench(reps: usize) -> Vec<DiskEntry> {
    // Job counts sized to trace-replay scale (the paper traces run to
    // millions of requests) so per-job storage costs show up, while each
    // mix still finishes in well under a second per rep in CI.
    const RANDOM_JOBS: u64 = 2_000_000;
    const SEQ_JOBS: u64 = 500_000;
    const RMW_JOBS: u64 = 400_000;

    // Arrival spacing per mix sits above the worst-case service time, the
    // common primary-storage regime (disks keep up, the array drains
    // between requests); replay of the paper traces drives the array the
    // same way. For wd1600aajs the worst single op is ~21 ms (max seek +
    // half revolution), an RMW spans two such phases.
    type MixFn = Box<dyn Fn(&mut ArraySim)>;
    let mixes: [(&str, u64, MixFn); 3] = [
        (
            // Scattered 4 KiB reads: the dedup-index / Cat-3 lookup shape.
            "random-4k",
            RANDOM_JOBS,
            Box::new(|sim: &mut ArraySim| {
                let cap = sim.data_capacity_blocks();
                drive_replay(sim, RANDOM_JOBS, 25_000, |s, at, i| {
                    let pba = Pba::new(mix64(i) % cap);
                    s.submit_read(at, pba, 1);
                });
            }),
        ),
        (
            // Back-to-back 64-block sequential reads: streaming scans
            // fanning one stripe-width op out to every member.
            "seq-extent",
            SEQ_JOBS,
            Box::new(|sim: &mut ArraySim| {
                let cap = sim.data_capacity_blocks();
                drive_replay(sim, SEQ_JOBS, 8_000, |s, at, i| {
                    let pba = Pba::new(i * 64 % (cap - 64));
                    s.submit_read(at, pba, 64);
                });
            }),
        ),
        (
            // Scattered small writes: the RAID-5 read-modify-write path
            // (two dependent phases per job) POD's Cat-1 traffic hits.
            "raid5-rmw",
            RMW_JOBS,
            Box::new(|sim: &mut ArraySim| {
                let cap = sim.data_capacity_blocks();
                drive_replay(sim, RMW_JOBS, 50_000, |s, at, i| {
                    // +1 keeps writes off stripe-unit alignment → RMW.
                    let pba = Pba::new((mix64(i ^ 0xDEAD) % (cap - 8)) | 1);
                    s.submit_write(at, pba, 4);
                });
            }),
        ),
    ];

    let mut out = Vec::new();
    for (name, jobs, run) in &mixes {
        let mut samples = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut sim = disk_sim();
            let t0 = Instant::now();
            run(&mut sim);
            samples.push(t0.elapsed().as_secs_f64().max(1e-9));
            assert_eq!(sim.job_count() as u64, *jobs, "{name}: job count");
        }
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
        out.push(DiskEntry {
            mix: (*name).into(),
            jobs: *jobs,
            wall_s: best,
            jobs_per_sec: *jobs as f64 / best,
            samples,
        });
    }
    out
}

/// One point of the sharded-serve scaling sweep.
struct ServeEntry {
    shards: usize,
    tenants: usize,
    requests: u64,
    /// Slowest shard's busy span (best of reps), seconds.
    critical_path_s: f64,
    /// Aggregate service rate along the critical path.
    jobs_per_sec: f64,
    /// Per-rep critical-path seconds (`critical_path_s` is their
    /// minimum).
    samples: Vec<f64>,
}

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
        pod_bench::BENCH_SEED,
    );
    let cfg = SystemConfig::paper_default();
    let mut out = Vec::new();
    for &shards in &SERVE_SHARDS {
        let mut samples = Vec::with_capacity(reps);
        let mut requests = 0u64;
        for _ in 0..reps {
            let rep = ServeBuilder::new(Scheme::Pod)
                .config(cfg.clone())
                .tenants(&fleet)
                .shards(shards)
                .jobs(1)
                .run()
                .unwrap_or_else(|e| die(&format!("serve/shards-{shards}: {e}")));
            requests = rep.total_requests();
            samples.push((rep.critical_path_us() as f64 / 1e6).max(1e-9));
        }
        let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
        out.push(ServeEntry {
            shards,
            tenants: SERVE_TENANTS,
            requests,
            critical_path_s: best,
            jobs_per_sec: requests as f64 / best,
            samples,
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
            e.tenants,
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
        pod_bench::BENCH_SEED,
    );
    fleet.extend(pod_trace::derive_tenants(
        &TraceProfile::web_vm().scaled(scale),
        SERVE_TENANTS / 2,
        pod_bench::BENCH_SEED + 1,
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

/// End-to-end replay throughput entry for the disk section: the mail
/// trace under POD, so the disk microbenches sit next to the replay
/// they are a layer of.
fn disk_replay_entry(scale: f64, reps: usize) -> DiskEntry {
    let trace = TraceProfile::mail()
        .scaled(scale)
        .generate(pod_bench::BENCH_SEED);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        Scheme::Pod
            .builder()
            .config(SystemConfig::paper_default())
            .trace(&trace)
            .run()
            .unwrap_or_else(|e| die(&format!("replay-full: {e}")));
        samples.push(t0.elapsed().as_secs_f64().max(1e-9));
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    DiskEntry {
        mix: "replay-full".into(),
        jobs: trace.len() as u64,
        wall_s: best,
        jobs_per_sec: trace.len() as f64 / best,
        samples,
    }
}

/// Peak resident set size in KiB (`VmHWM`), 0 where procfs is absent.
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Render a `[1.2,3.4]` JSON array of the samples at full precision.
fn samples_json(samples: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, s) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{s:.6}"));
    }
    out.push(']');
    out
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    date: &str,
    commit: &str,
    entries: &[Entry],
    disk: &[DiskEntry],
    serve: &[ServeEntry],
    rss_kib: u64,
    scale: f64,
    reps: usize,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 3,\n");
    out.push_str(&format!("  \"date\": \"{date}\",\n"));
    out.push_str(&format!("  \"commit\": \"{commit}\",\n"));
    out.push_str(&format!("  \"bench_scale\": {scale},\n"));
    out.push_str(&format!("  \"reps\": {reps},\n"));
    out.push_str(&format!("  \"peak_rss_kib\": {rss_kib},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        // Shares at full precision (a {:.4} rounding once flattened a
        // real 4e-5 cache share to zero) plus the raw µs totals they
        // came from, so consumers can recompute them exactly.
        let mut line = format!(
            "    {{\"trace\": \"{}\", \"scheme\": \"{}\", \"requests\": {}, \
             \"wall_s\": {:.6}, \"wall_median_s\": {:.6}, \"wall_ci95_s\": {:.6}, \
             \"samples\": {}, \"requests_per_sec\": {:.2}, \
             \"cache_share\": {}, \"dedup_share\": {}, \"disk_share\": {}, \
             \"cache_us\": {}, \"dedup_us\": {}, \"disk_us\": {}, \
             \"epochs\": {}, \"final_index_pm\": {}",
            e.trace,
            e.scheme,
            e.requests,
            e.wall_s,
            store::median(&e.samples),
            store::ci95_half_width(&e.samples),
            samples_json(&e.samples),
            e.requests_per_sec,
            e.layer_shares[0],
            e.layer_shares[1],
            e.layer_shares[2],
            e.layer_us[0],
            e.layer_us[1],
            e.layer_us[2],
            e.epochs,
            e.final_index_pm,
        );
        if let Some([cache, dedup, disk, other]) = e.host_shares {
            line.push_str(&format!(
                ", \"host_cache_share\": {cache}, \"host_dedup_share\": {dedup}, \
                 \"host_disk_share\": {disk}, \"host_other_share\": {other}"
            ));
        }
        line.push_str(&format!(
            "}}{}\n",
            if i + 1 < entries.len() { "," } else { "" }
        ));
        out.push_str(&line);
    }
    out.push_str("  ],\n");
    out.push_str("  \"disk\": [\n");
    for (i, e) in disk.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mix\": \"{}\", \"jobs\": {}, \"wall_s\": {:.6}, \
             \"samples\": {}, \"jobs_per_sec\": {:.2}}}{}\n",
            e.mix,
            e.jobs,
            e.wall_s,
            samples_json(&e.samples),
            e.jobs_per_sec,
            if i + 1 < disk.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"serve\": [\n");
    for (i, e) in serve.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"tenants\": {}, \"requests\": {}, \
             \"critical_path_s\": {:.6}, \"samples\": {}, \"jobs_per_sec\": {:.2}}}{}\n",
            e.shards,
            e.tenants,
            e.requests,
            e.critical_path_s,
            samples_json(&e.samples),
            e.jobs_per_sec,
            if i + 1 < serve.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Previous snapshot throughputs keyed by `trace/scheme`.
fn load_baseline(path: &str) -> Result<Vec<(String, f64)>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root = parse_json(&body)?;
    let entries = match root.get("entries") {
        Some(Json::Arr(items)) => items,
        _ => return Err(format!("{path}: no entries array")),
    };
    let mut out = Vec::new();
    for e in entries {
        let (Some(trace), Some(scheme), Some(rps)) = (
            e.get("trace").and_then(Json::as_str),
            e.get("scheme").and_then(Json::as_str),
            e.get("requests_per_sec").and_then(Json::as_f64),
        ) else {
            return Err(format!("{path}: malformed entry"));
        };
        out.push((format!("{trace}/{scheme}"), rps));
    }
    // Disk microbench section (absent in schema-1 snapshots).
    if let Some(Json::Arr(disk)) = root.get("disk") {
        for e in disk {
            let (Some(mix), Some(jps)) = (
                e.get("mix").and_then(Json::as_str),
                e.get("jobs_per_sec").and_then(Json::as_f64),
            ) else {
                return Err(format!("{path}: malformed disk entry"));
            };
            out.push((format!("disk/{mix}"), jps));
        }
    }
    // Serve scaling section (absent before the sharded engine landed).
    if let Some(Json::Arr(serve)) = root.get("serve") {
        for e in serve {
            let (Some(shards), Some(jps)) = (
                e.get("shards").and_then(Json::as_u64),
                e.get("jobs_per_sec").and_then(Json::as_f64),
            ) else {
                return Err(format!("{path}: malformed serve entry"));
            };
            out.push((format!("serve/shards-{shards}"), jps));
        }
    }
    Ok(out)
}

/// The most recent `BENCH_*.json` in `dir`, by name (dates sort).
/// Today's own output is excluded so a same-day rerun still compares
/// against the previous day's snapshot rather than itself.
fn latest_snapshot(dir: &str, exclude: &str) -> Option<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && n != exclude)
        .collect();
    names.sort();
    names.pop().map(|n| format!("{dir}/{n}"))
}

/// Convert this run's measurements into store records: one per replay
/// entry, plus the disk mixes (as `disk/<mix>`) and the serve sweep
/// points (as `serve/shards-<n>`), so every gated number has a trend
/// series.
fn store_records(
    commit: &str,
    date: &str,
    cfg_hash: &str,
    entries: &[Entry],
    disk: &[DiskEntry],
    serve: &[ServeEntry],
) -> Vec<StoreRecord> {
    let mut out = Vec::new();
    let base = |trace: &str, scheme: &str| StoreRecord {
        commit: commit.into(),
        date: date.into(),
        trace: trace.into(),
        scheme: scheme.into(),
        config_hash: cfg_hash.into(),
        requests: 0,
        samples: Vec::new(),
        rps: 0.0,
        host_shares: None,
    };
    for e in entries {
        let mut r = base(&e.trace, &e.scheme);
        r.requests = e.requests;
        r.samples = e.samples.clone();
        r.rps = e.requests_per_sec;
        r.host_shares = e.host_shares;
        out.push(r);
    }
    for e in disk {
        let mut r = base("disk", &e.mix);
        r.requests = e.jobs;
        r.samples = e.samples.clone();
        r.rps = e.jobs_per_sec;
        out.push(r);
    }
    for e in serve {
        let mut r = base("serve", &format!("shards-{}", e.shards));
        r.requests = e.requests;
        r.samples = e.samples.clone();
        r.rps = e.jobs_per_sec;
        out.push(r);
    }
    out
}

/// The experiment store under the perfgate output directory.
fn store_at(dir: &str) -> ExperimentStore {
    ExperimentStore::new(format!("{dir}/results/history.jsonl"))
}

/// `--import`: seed the store from an existing `BENCH_*.json` snapshot
/// (schema 2 or 3) without running anything. Idempotent: records whose
/// (commit, date, trace, scheme, config) key is already present are
/// skipped, so re-importing the same snapshot is a no-op.
fn import_snapshot(dir: &str, path: &str) {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let root = parse_json(&body).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let date = root
        .get("date")
        .and_then(Json::as_str)
        .unwrap_or_else(|| die(&format!("{path}: no date")))
        .to_string();
    let commit = root
        .get("commit")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string();
    let scale = root
        .get("bench_scale")
        .and_then(Json::as_f64)
        .unwrap_or(0.1);
    let reps = root.get("reps").and_then(Json::as_u64).unwrap_or(3) as usize;
    let cfg_hash = store::config_hash(scale, reps);

    let samples_of = |e: &Json, wall_key: &str| -> Vec<f64> {
        // Schema 3 carries per-rep samples; schema 2 only the best rep,
        // which imports as a single-sample record.
        e.get("samples")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect::<Vec<f64>>())
            .filter(|v| !v.is_empty())
            .or_else(|| e.get(wall_key).and_then(Json::as_f64).map(|w| vec![w]))
            .unwrap_or_else(|| die(&format!("{path}: entry without {wall_key} or samples")))
    };
    let mut records = Vec::new();
    if let Some(Json::Arr(entries)) = root.get("entries") {
        for e in entries {
            let (Some(trace), Some(scheme), Some(rps)) = (
                e.get("trace").and_then(Json::as_str),
                e.get("scheme").and_then(Json::as_str),
                e.get("requests_per_sec").and_then(Json::as_f64),
            ) else {
                die(&format!("{path}: malformed entry"));
            };
            let host_shares = match (
                e.get("host_cache_share").and_then(Json::as_f64),
                e.get("host_dedup_share").and_then(Json::as_f64),
                e.get("host_disk_share").and_then(Json::as_f64),
                e.get("host_other_share").and_then(Json::as_f64),
            ) {
                (Some(c), Some(d), Some(k), Some(o)) => Some([c, d, k, o]),
                _ => None,
            };
            records.push(StoreRecord {
                commit: commit.clone(),
                date: date.clone(),
                trace: trace.into(),
                scheme: scheme.into(),
                config_hash: cfg_hash.clone(),
                requests: e.get("requests").and_then(Json::as_u64).unwrap_or(0),
                samples: samples_of(e, "wall_s"),
                rps,
                host_shares,
            });
        }
    }
    if let Some(Json::Arr(disk)) = root.get("disk") {
        for e in disk {
            let (Some(mix), Some(jps)) = (
                e.get("mix").and_then(Json::as_str),
                e.get("jobs_per_sec").and_then(Json::as_f64),
            ) else {
                die(&format!("{path}: malformed disk entry"));
            };
            records.push(StoreRecord {
                commit: commit.clone(),
                date: date.clone(),
                trace: "disk".into(),
                scheme: mix.into(),
                config_hash: cfg_hash.clone(),
                requests: e.get("jobs").and_then(Json::as_u64).unwrap_or(0),
                samples: samples_of(e, "wall_s"),
                rps: jps,
                host_shares: None,
            });
        }
    }
    if let Some(Json::Arr(serve)) = root.get("serve") {
        for e in serve {
            let (Some(shards), Some(jps)) = (
                e.get("shards").and_then(Json::as_u64),
                e.get("jobs_per_sec").and_then(Json::as_f64),
            ) else {
                die(&format!("{path}: malformed serve entry"));
            };
            records.push(StoreRecord {
                commit: commit.clone(),
                date: date.clone(),
                trace: "serve".into(),
                scheme: format!("shards-{shards}"),
                config_hash: cfg_hash.clone(),
                requests: e.get("requests").and_then(Json::as_u64).unwrap_or(0),
                samples: samples_of(e, "critical_path_s"),
                rps: jps,
                host_shares: None,
            });
        }
    }

    let st = store_at(dir);
    let existing = st
        .load()
        .unwrap_or_else(|e| die(&format!("loading store: {e}")));
    let key = |r: &StoreRecord| {
        (
            r.commit.clone(),
            r.date.clone(),
            r.trace.clone(),
            r.scheme.clone(),
            r.config_hash.clone(),
        )
    };
    let seen: Vec<_> = existing.iter().map(key).collect();
    let mut appended = 0usize;
    let mut skipped = 0usize;
    for r in &records {
        if seen.contains(&key(r)) {
            skipped += 1;
            continue;
        }
        st.append(r)
            .unwrap_or_else(|e| die(&format!("appending to {}: {e}", st.path().display())));
        appended += 1;
    }
    println!(
        "imported {path}: {appended} record(s) appended to {}, {skipped} already present",
        st.path().display()
    );
}

/// `--trend`: the sustained-drift gate over the experiment store. Exits
/// non-zero when any series with a full window regressed; shorter
/// series only warn (CI stays green until enough history accumulates).
fn trend_gate(dir: &str, window: usize, tolerance_pct: f64, report_only: bool) {
    let st = store_at(dir);
    let records = st
        .load()
        .unwrap_or_else(|e| die(&format!("loading store: {e}")));
    if records.is_empty() {
        println!(
            "trend: no history at {} — run perfgate (or --import a snapshot) first",
            st.path().display()
        );
        return;
    }
    let verdicts = analyze_trends(&records, window, tolerance_pct);
    println!(
        "trend over {} ({} records, window {window}, tolerance {tolerance_pct:.1}%):",
        st.path().display(),
        records.len()
    );
    println!("  {:<28} {:>5} {:>9}  verdict", "series", "runs", "drift%");
    let mut regressions = 0usize;
    for v in &verdicts {
        let series = format!("{}/{}", v.trace, v.scheme);
        let verdict = if v.runs < window {
            format!("warn: only {} run(s), need {window} to gate", v.runs)
        } else if v.regressed {
            regressions += 1;
            "SUSTAINED REGRESSION".into()
        } else {
            "ok".into()
        };
        println!("  {series:<28} {:>5} {:>+9.1}  {verdict}", v.runs, v.drift_pct);
    }
    if regressions > 0 {
        eprintln!(
            "\n{regressions} series drifted more than {tolerance_pct:.1}% over their last \
             {window} runs (each individual run may have passed the per-run gate)"
        );
        if !report_only {
            std::process::exit(1);
        }
        println!("(--report-only: not failing)");
    } else {
        println!("\nno sustained drift beyond tolerance");
    }
}

fn print_disk_table(disk: &[DiskEntry]) {
    println!(
        "\n{:<18} {:>9} {:>9} {:>12}",
        "disk mix", "jobs", "wall(s)", "jobs/s"
    );
    for e in disk {
        println!(
            "{:<18} {:>9} {:>9.3} {:>12.0}",
            e.mix, e.jobs, e.wall_s, e.jobs_per_sec
        );
    }
}

fn main() {
    let args = parse_args();
    let cfg = SystemConfig::paper_default();

    if let Some(path) = &args.import {
        import_snapshot(&args.dir, path);
        return;
    }

    if args.trend {
        trend_gate(
            &args.dir,
            args.trend_window,
            args.tolerance_pct,
            args.report_only,
        );
        return;
    }

    if args.disk_only {
        println!(
            "perfgate --disk-only: disk-engine microbenches, best of {} ...",
            args.reps
        );
        let mut disk = disk_microbench(args.reps);
        disk.push(disk_replay_entry(args.scale, args.reps));
        print_disk_table(&disk);
        return;
    }

    if args.serve_only {
        println!(
            "perfgate --serve-only: serve scaling sweep ({} tenants, shards {:?}), \
             scale {}, best of {} ...",
            SERVE_TENANTS, SERVE_SHARDS, args.scale, args.reps
        );
        let serve = serve_bench(args.scale, args.reps);
        print_serve_table(&serve);
        serve_scaling_gate(&serve, args.report_only);
        let tier = tier_bench(args.scale);
        print_tier_table(&tier);
        tier_gate(&tier, args.report_only);
        // Tolerance-compare against the latest snapshot's serve section,
        // when it has one; no snapshot is written in this mode.
        if let Some(base_path) = latest_snapshot(&args.dir, "") {
            match load_baseline(&base_path) {
                Ok(base) => {
                    let mut regressions = 0usize;
                    for e in &serve {
                        let key = format!("serve/shards-{}", e.shards);
                        let Some((_, old)) = base.iter().find(|(k, _)| *k == key) else {
                            println!("  {key}: no baseline (section predates serve)");
                            continue;
                        };
                        let delta_pct = (e.jobs_per_sec - old) / old * 100.0;
                        let flag = if delta_pct < -args.tolerance_pct {
                            regressions += 1;
                            "  REGRESSION"
                        } else {
                            ""
                        };
                        println!("  {key:<22} {delta_pct:>+7.1}%{flag}");
                    }
                    if regressions > 0 {
                        eprintln!(
                            "\n{regressions} serve measurement(s) regressed more than {:.1}%",
                            args.tolerance_pct
                        );
                        if !args.report_only {
                            std::process::exit(1);
                        }
                        println!("(--report-only: not failing)");
                    }
                }
                Err(e) => die(&format!("loading baseline: {e}")),
            }
        }
        return;
    }

    println!(
        "perfgate: replaying {} traces x {} schemes (+grid), scale {}, best of {} ...",
        TRACES.len(),
        Scheme::all().len(),
        args.scale,
        args.reps
    );
    let mut entries = Vec::new();
    for name in TRACES {
        let profile = match name {
            "web-vm" => TraceProfile::web_vm(),
            "homes" => TraceProfile::homes(),
            _ => TraceProfile::mail(),
        };
        let trace = profile.scaled(args.scale).generate(pod_bench::BENCH_SEED);
        entries.extend(measure(name, &trace, &cfg, args.reps));
    }
    println!("disk-engine microbenches ...");
    let mut disk = disk_microbench(args.reps);
    disk.push(disk_replay_entry(args.scale, args.reps));
    println!(
        "serve scaling sweep ({SERVE_TENANTS} tenants, shards {:?}) ...",
        SERVE_SHARDS
    );
    let serve = serve_bench(args.scale, args.reps);
    let rss_kib = peak_rss_kib();

    println!(
        "\n{:<8} {:<14} {:>9} {:>8} {:>8} {:>8} {:>12}",
        "trace", "scheme", "reqs", "min(s)", "med(s)", "±ci95", "req/s"
    );
    for e in &entries {
        println!(
            "{:<8} {:<14} {:>9} {:>8.3} {:>8.3} {:>8.3} {:>12.0}",
            e.trace,
            e.scheme,
            e.requests,
            e.wall_s,
            store::median(&e.samples),
            store::ci95_half_width(&e.samples),
            e.requests_per_sec
        );
    }
    print_disk_table(&disk);
    print_serve_table(&serve);
    serve_scaling_gate(&serve, args.report_only);
    let tier = tier_bench(args.scale);
    print_tier_table(&tier);
    tier_gate(&tier, args.report_only);
    println!("peak RSS: {:.1} MiB", rss_kib as f64 / 1024.0);

    let date = store::today();
    let commit = store::commit_hash();
    let file_name = format!("BENCH_{date}.json");
    let baseline = latest_snapshot(&args.dir, &file_name);

    // Write the new snapshot first so a regression still leaves a record.
    let path = format!("{}/{file_name}", args.dir);
    let json = render_json(
        &date, &commit, &entries, &disk, &serve, rss_kib, args.scale, args.reps,
    );
    if let Err(e) = std::fs::write(&path, &json) {
        die(&format!("writing {path}: {e}"));
    }
    println!("\nwrote {path}");

    // Every run lands in the persistent experiment store too — that is
    // what `--trend` regresses over.
    let st = store_at(&args.dir);
    let cfg_hash = store::config_hash(args.scale, args.reps);
    let records = store_records(&commit, &date, &cfg_hash, &entries, &disk, &serve);
    for r in &records {
        if let Err(e) = st.append(r) {
            die(&format!("appending to {}: {e}", st.path().display()));
        }
    }
    println!(
        "appended {} record(s) to {} (commit {commit})",
        records.len(),
        st.path().display()
    );

    let Some(base_path) = baseline else {
        println!(
            "no previous snapshot in {} — baseline established",
            args.dir
        );
        return;
    };

    let base = match load_baseline(&base_path) {
        Ok(b) => b,
        Err(e) => die(&format!("loading baseline: {e}")),
    };
    println!(
        "comparing against {base_path} (tolerance {:.1}%)",
        args.tolerance_pct
    );
    let mut current: Vec<(String, f64)> = entries
        .iter()
        .map(|e| (format!("{}/{}", e.trace, e.scheme), e.requests_per_sec))
        .collect();
    current.extend(
        disk.iter()
            .map(|e| (format!("disk/{}", e.mix), e.jobs_per_sec)),
    );
    current.extend(
        serve
            .iter()
            .map(|e| (format!("serve/shards-{}", e.shards), e.jobs_per_sec)),
    );
    let mut regressions = 0usize;
    for (key, rps) in &current {
        let Some((_, old_rps)) = base.iter().find(|(k, _)| k == key) else {
            println!("  {key}: new measurement (no baseline)");
            continue;
        };
        let delta_pct = (rps - old_rps) / old_rps * 100.0;
        let flag = if delta_pct < -args.tolerance_pct {
            regressions += 1;
            "  REGRESSION"
        } else {
            ""
        };
        println!("  {key:<22} {delta_pct:>+7.1}%{flag}");
    }
    if regressions > 0 {
        eprintln!(
            "\n{regressions} measurement(s) regressed more than {:.1}%",
            args.tolerance_pct
        );
        if !args.report_only {
            std::process::exit(1);
        }
        println!("(--report-only: not failing)");
    } else {
        println!("\nno regressions beyond tolerance");
    }
}
