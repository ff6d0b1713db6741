//! `pod-cli analyze` — workload statistics: the Table II row, the Fig. 1
//! per-size redundancy distribution, and the Fig. 2 redundancy split.

use crate::args::CliArgs;
use crate::CliResult;
use pod_trace::bursts::detect_bursts;
use pod_trace::stats::{redundancy_breakdown, size_redundancy, TraceStats};
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    let trace = args.load_trace()?;
    let stats = TraceStats::compute(&trace);
    writeln!(out, "== {} ==", trace.name)?;
    writeln!(
        out,
        "requests {}   write ratio {:.1}%   mean size {:.1} KiB",
        stats.n_requests,
        stats.write_ratio * 100.0,
        stats.mean_request_kib
    )?;
    writeln!(
        out,
        "blocks written {}   blocks read {}",
        stats.write_blocks, stats.read_blocks
    )?;

    writeln!(out, "\nI/O redundancy by request size (Fig. 1):")?;
    writeln!(
        out,
        "{:>9} {:>10} {:>10} {:>7}",
        "size", "total", "redundant", "ratio"
    )?;
    for b in size_redundancy(&trace) {
        let label = if b.kib >= 128 {
            ">=128K".to_string()
        } else {
            format!("{}K", b.kib)
        };
        let ratio = if b.total == 0 {
            0.0
        } else {
            b.redundant as f64 / b.total as f64
        };
        writeln!(
            out,
            "{label:>9} {:>10} {:>10} {:>6.1}%",
            b.total,
            b.redundant,
            ratio * 100.0
        )?;
    }

    let bursts = detect_bursts(&trace, 50, 8);
    writeln!(
        out,
        "\nburstiness: {} bursts ({} write-intensive, {} read-intensive), mean {:.0} requests, \
         interleaving {:.0}%",
        bursts.phases.len(),
        bursts.write_bursts(),
        bursts.read_bursts(),
        bursts.mean_phase_len(),
        bursts.interleaving() * 100.0
    )?;

    let rb = redundancy_breakdown(&trace);
    writeln!(out, "\nwrite-data redundancy (Fig. 2):")?;
    writeln!(
        out,
        "  I/O redundancy      {:>5.1}%  (same-location {:.1}% + different-location {:.1}%)",
        rb.io_redundancy_pct(),
        rb.same_location_blocks as f64 * 100.0 / rb.total().max(1) as f64,
        rb.capacity_redundancy_pct()
    )?;
    writeln!(
        out,
        "  capacity redundancy {:>5.1}%",
        rb.capacity_redundancy_pct()
    )?;
    writeln!(out, "  gap                 {:>5.1} points", rb.gap_pct())?;
    Ok(())
}
