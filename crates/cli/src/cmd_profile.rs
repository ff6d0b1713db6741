//! `pod-cli profile` — host wall-clock breakdown of one replay.
//!
//! Everything `replay` prints is **simulated** time: modelled disk
//! seeks and hash latencies. This command answers the other question —
//! where does the *host* actually spend its wall clock while running
//! the simulation? Each of five interleaved pairs replays the trace
//! twice, in the layout a plain `replay` at the same `--jobs` uses:
//!
//! 1. un-profiled, to get a clean baseline wall time;
//! 2. with a `ProfSink` on the observer chain, which turns the stack's
//!    timers on and yields a [`HostProfile`].
//!
//! The difference between the two wall times is the profiler's own
//! overhead, reported next to the breakdown so the numbers can be
//! trusted (a fixed cost per phase, so its share grows as the replay
//! loop gets faster; DESIGN §14 has current numbers). The wall line
//! names the disk's placement and the share of the profiled wall the
//! phases account for, and ends with the input stage: the one load of
//! the trace before the replays, generated or read from an FIU file,
//! timed on its own. `--out <path>` also writes the profile as folded
//! stacks (`pod;<layer>;<phase> <ns>`) for flamegraph tooling.
//!
//! The two replays produce identical simulated results — profiling only
//! reads the monotonic clock and emits extra observer events — which
//! the command asserts by comparing the mean response times.

use crate::args::CliArgs;
use crate::CliResult;
use pod_core::obs::Layer;
use pod_core::stack::disk_on_own_thread;
use pod_core::{HostProfile, ProfPhase, ReplayReport};
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    args.apply_jobs();
    let loading = std::time::Instant::now();
    let trace = args.load_trace()?;
    let input_s = loading.elapsed().as_secs_f64();
    let cfg = args.system_config()?;
    writeln!(
        out,
        "profiling {} requests of `{}` through {} ...",
        trace.len(),
        trace.name,
        args.scheme
    )?;

    let replay = |profile: bool| -> Result<(ReplayReport, f64), String> {
        let t0 = std::time::Instant::now();
        let (rep, _chain) = args
            .scheme
            .builder()
            .config(cfg.clone())
            .trace(&trace)
            .profile(profile)
            .run_observed()
            .map_err(|e| e.to_string())?;
        Ok((rep, t0.elapsed().as_secs_f64()))
    };

    // Untimed warmup so neither timed run pays first-touch costs
    // (page cache, lazy statics).
    replay(false)?;

    // Interleaved A/B pairs: single runs are dominated by host noise
    // (CPU frequency, steal time, allocator reuse), but within one
    // back-to-back pair both sides see nearly the same host state, so
    // the per-pair ratio is stable where the raw wall times are not.
    // Every figure printed is a median: each side's wall, the pair
    // ratio, and the table, which comes from the median profiled rep.
    const REPS: usize = 5;
    let mut base_walls = Vec::with_capacity(REPS);
    let mut profiled = Vec::with_capacity(REPS);
    let mut pair_overheads = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (base, b_s) = replay(false)?;
        let (rep, p_s) = replay(true)?;
        // Profiling may not perturb the simulation itself.
        if (rep.overall.mean_us() - base.overall.mean_us()).abs() > 1e-9 {
            return Err(format!(
                "profiled replay diverged from baseline: mean {} vs {} µs",
                rep.overall.mean_us(),
                base.overall.mean_us()
            )
            .into());
        }
        if b_s > 0.0 {
            pair_overheads.push((p_s - b_s) / b_s * 100.0);
        }
        base_walls.push(b_s);
        profiled.push((rep, p_s));
    }
    base_walls.sort_by(f64::total_cmp);
    pair_overheads.sort_by(f64::total_cmp);
    profiled.sort_by(|a, b| a.1.total_cmp(&b.1));
    let base_s = base_walls[REPS / 2];
    let overhead_pct = pair_overheads.get(pair_overheads.len() / 2).copied();
    let (rep, prof_s) = &profiled[REPS / 2];
    let prof = rep
        .profile
        .as_ref()
        .ok_or("profiled replay produced no host profile")?;
    if prof.is_empty() {
        return Err("host profile is empty — no phases were timed".into());
    }

    write!(out, "{}", render_table(prof))?;
    let layout = if disk_on_own_thread() {
        "disk on its own thread"
    } else {
        "disk inline"
    };
    let source = if args.trace_path.is_some() {
        "FIU"
    } else {
        "generated"
    };
    writeln!(out,
        "\nwall time: {base_s:.3} s un-profiled, {prof_s:.3} s profiled (overhead {:+.1}%, medians of {REPS} A/B pairs; {layout}); attributed = {:.1}% of the profiled wall; input {input_s:.3} s ({:.0} ns/request, {source})",
        overhead_pct.unwrap_or(0.0),
        prof.total_ns() as f64 / 1e9 / prof_s * 100.0,
        input_s * 1e9 / trace.len().max(1) as f64,
    )?;
    writeln!(
        out,
        "simulated layer shares: cache {:.1}%  dedup {:.1}%  disk {:.1}%",
        rep.stack.all.layer_share(Layer::Cache) * 100.0,
        rep.stack.all.layer_share(Layer::Dedup) * 100.0,
        rep.stack.all.layer_share(Layer::Disk) * 100.0,
    )?;

    if let Some(path) = &args.out {
        let mut folded = String::new();
        prof.write_folded(&mut folded);
        std::fs::write(path, &folded).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(
            out,
            "wrote {} folded stacks to {path}",
            folded.lines().count()
        )?;
    }
    Ok(())
}

/// Render the host wall-clock table. Split from [`run`] so tests can
/// assert on the exact layout (CI greps the share column and checks it
/// sums to ~100).
pub fn render_table(prof: &HostProfile) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "\nhost wall-clock by phase:\n  {:<16} {:<7} {:>9} {:>10} {:>7} {:>9} {:>9}",
        "phase", "layer", "count", "total_ms", "share", "p50_us", "p99_us"
    )
    .expect("write to string");
    let total_ns = prof.total_ns().max(1);
    let mut phases: Vec<ProfPhase> = ProfPhase::ALL
        .into_iter()
        .filter(|p| prof.phase(*p).count > 0)
        .collect();
    phases.sort_by_key(|p| std::cmp::Reverse(prof.phase(*p).total_ns));
    for p in phases {
        let agg = prof.phase(p);
        writeln!(
            out,
            "  {:<16} {:<7} {:>9} {:>10.2} {:>7.2} {:>9.1} {:>9.1}",
            p.name(),
            p.layer(),
            agg.count,
            agg.total_ns as f64 / 1e6,
            agg.total_ns as f64 * 100.0 / total_ns as f64,
            agg.percentile_ns(50.0) as f64 / 1e3,
            agg.percentile_ns(99.0) as f64 / 1e3,
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "total: {:.2} ms attributed host time",
        prof.total_ns() as f64 / 1e6
    )
    .expect("write to string");
    let shares = prof.layer_shares();
    let sum: f64 = shares.iter().map(|(_, s)| s).sum();
    write!(out, "host layer shares:").expect("write to string");
    for (layer, share) in shares {
        write!(out, "  {layer} {:.1}%", share * 100.0).expect("write to string");
    }
    writeln!(out, "  (sum {:.1}%)", sum * 100.0).expect("write to string");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HostProfile {
        let mut p = HostProfile::new();
        for _ in 0..100 {
            p.record(ProfPhase::CacheLookup, 1_000);
            p.record(ProfPhase::DedupClassify, 3_000);
            p.record(ProfPhase::DiskRun, 5_000);
            p.record(ProfPhase::Observe, 1_000);
        }
        p
    }

    #[test]
    fn table_share_column_sums_to_100() {
        let table = render_table(&sample());
        // CI parses the same layout with awk: phase rows are indented
        // two spaces and start with a lowercase phase name; field 5 is
        // the share.
        let sum: f64 = table
            .lines()
            .filter(|l| {
                l.starts_with("  ")
                    && l.trim_start()
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase())
                    && !l.trim_start().starts_with("phase")
            })
            .map(|l| {
                l.split_whitespace()
                    .nth(4)
                    .expect("share column")
                    .parse::<f64>()
                    .expect("numeric share")
            })
            .sum();
        assert!((sum - 100.0).abs() < 0.5, "shares sum to {sum}\n{table}");
    }

    #[test]
    fn table_is_sorted_by_total_and_carries_layer_shares() {
        let table = render_table(&sample());
        let disk = table.find("disk_run").expect("disk_run row");
        let dedup = table.find("dedup_classify").expect("dedup row");
        let cache = table.find("cache_lookup").expect("cache row");
        assert!(disk < dedup && dedup < cache, "{table}");
        assert!(table.contains("host layer shares:"), "{table}");
        assert!(table.contains("(sum 100.0%)"), "{table}");
        // Zero-count phases are omitted.
        assert!(!table.contains("plan_read"), "{table}");
    }
}
