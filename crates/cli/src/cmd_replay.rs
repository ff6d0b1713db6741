//! `pod-cli replay` — replay a trace through one scheme and print the
//! full report. With `--trace-out <path>` the replay also exports an
//! epoch-granular JSONL event trace for `pod-cli stats`; with `--prof`
//! the host wall-clock profiler rides along and a real-time layer
//! share line is printed next to the simulated one.

use crate::args::CliArgs;
use crate::CliResult;
use pod_core::obs::{Layer, LayerHistograms, TraceRecorder};
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    args.apply_jobs();
    let trace = args.load_trace()?;
    let cfg = args.system_config()?;
    writeln!(
        out,
        "replaying {} requests of `{}` through {} ...",
        trace.len(),
        trace.name,
        args.scheme
    )?;
    let t0 = std::time::Instant::now();
    let mut builder = args
        .scheme
        .builder()
        .config(cfg)
        .trace(&trace)
        .verify(args.verify)
        .profile(args.prof)
        .observer(LayerHistograms::new());
    if args.trace_out.is_some() {
        builder = builder.record(args.epoch_requests);
    }
    let (rep, mut chain) = builder.run_observed().map_err(|e| e.to_string())?;
    writeln!(out, "done in {:?}\n", t0.elapsed())?;

    if let Some(path) = &args.trace_out {
        let hists = chain
            .sink::<LayerHistograms>()
            .cloned()
            .expect("histograms attached above");
        let recorder: TraceRecorder = chain.take_sink().expect("recorder attached above");
        let mut file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        recorder
            .write_jsonl(&mut file, Some(&hists))
            .map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(
            out,
            "wrote {} epochs of event data to {path}\n",
            recorder.rows().len()
        )?;
    }

    writeln!(
        out,
        "response time (ms):    mean      p50      p95      p99      max"
    )?;
    for (label, m) in [
        ("overall", &rep.overall),
        ("reads", &rep.reads),
        ("writes", &rep.writes),
    ] {
        let [p50, p95, p99] = m.percentiles(&[50.0, 95.0, 99.0]);
        writeln!(
            out,
            "  {label:<18} {:>7.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            m.mean_ms(),
            p50 as f64 / 1e3,
            p95 as f64 / 1e3,
            p99 as f64 / 1e3,
            m.max_us() as f64 / 1e3,
        )?;
    }
    writeln!(
        out,
        "\nwrites removed {:.1}%   deduped blocks {}   capacity used {:.1} MiB",
        rep.writes_removed_pct(),
        rep.counters.deduped_blocks,
        rep.capacity_used_mib()
    )?;
    writeln!(
        out,
        "write classification: {} Cat-1, {} Cat-2, {} Cat-3, {} unique",
        rep.stack.all.cat1, rep.stack.all.cat2, rep.stack.all.cat3, rep.stack.all.unique
    )?;
    writeln!(
        out,
        "read-cache hit rate {:.1}%   read fragmentation {:.2}   NVRAM peak {:.2} KiB",
        rep.read_cache_hit_rate * 100.0,
        rep.read_fragmentation,
        rep.nvram_peak_bytes as f64 / 1024.0
    )?;
    writeln!(
        out,
        "layer time shares: cache {:.1}%  dedup {:.1}%  disk {:.1}%",
        rep.stack.all.layer_share(Layer::Cache) * 100.0,
        rep.stack.all.layer_share(Layer::Dedup) * 100.0,
        rep.stack.all.layer_share(Layer::Disk) * 100.0,
    )?;
    if let Some(prof) = &rep.profile {
        // Host wall-clock shares sit next to the simulated shares above
        // so the disagreement between the two axes is visible at a
        // glance (run `pod-cli profile` for the full phase table).
        writeln!(
            out,
            "host  time shares:{}  ({:.1} ms wall)",
            prof.layer_shares()
                .iter()
                .map(|(l, s)| format!(" {l} {:.1}%", s * 100.0))
                .collect::<String>(),
            prof.total_ns() as f64 / 1e6
        )?;
    }
    writeln!(
        out,
        "iCache: {} epochs, {} repartitions, final index share {:.0}%",
        rep.icache_epochs,
        rep.icache_repartitions,
        rep.final_index_fraction * 100.0
    )?;
    let busy: u64 = rep.disk.iter().map(|d| d.busy_us).sum();
    let ops: u64 = rep.disk.iter().map(|d| d.ops).sum();
    writeln!(
        out,
        "disks: {} ops, {:.1} s busy, max queue depth {}",
        ops,
        busy as f64 / 1e6,
        rep.disk
            .iter()
            .map(|d| d.max_queue_depth)
            .max()
            .unwrap_or(0)
    )?;
    if !rep.timeline.points.is_empty() {
        writeln!(
            out,
            "
response-time over the day (peak {:.1} ms):
  {}",
            rep.timeline.peak_us() / 1e3,
            rep.timeline.sparkline()
        )?;
    }
    writeln!(
        out,
        "
latency histogram (overall):
{}",
        rep.overall.histogram().render(40)
    )?;
    if let Some(integ) = &rep.integrity {
        writeln!(out, "\n{}", render_verify(integ))?;
        if !integ.passed() {
            return Err(format!("integrity verification failed: {}", integ.summary()).into());
        }
    }
    Ok(())
}

/// Render the integrity oracle's verdict — the stable block captured by
/// the `replay --verify` golden test.
pub fn render_verify(integ: &pod_core::IntegrityReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let verdict = if integ.passed() { "PASS" } else { "FAIL" };
    let _ = writeln!(out, "integrity oracle: {verdict}");
    let _ = writeln!(out, "  blocks checked   {}", integ.checked);
    let _ = writeln!(out, "  divergent        {}", integ.divergent);
    let _ = writeln!(out, "  faults injected  {}", integ.faults_seen);
    for d in &integ.diffs {
        let _ = writeln!(out, "  {d}");
    }
    if let Some(e) = &integ.invariant_error {
        let _ = writeln!(out, "  invariants: {e}");
    }
    out
}
