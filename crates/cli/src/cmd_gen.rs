//! `pod-cli gen` — generate a synthetic trace; optionally export it in
//! the FIU text dialect.

use crate::args::CliArgs;
use crate::CliResult;
use pod_trace::reconstruct::split_into_records;
use pod_trace::stats::TraceStats;
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    let profile = args.resolve_profile()?;
    let trace = profile.scaled(args.scale).generate(args.seed);
    let stats = TraceStats::compute(&trace);
    writeln!(
        out,
        "generated `{}`: {} requests, {:.1}% writes, mean {:.1} KiB, span {}",
        trace.name,
        stats.n_requests,
        stats.write_ratio * 100.0,
        stats.mean_request_kib,
        trace.duration(),
    )?;
    if let Some(path) = &args.out {
        let records = split_into_records(&trace);
        let text = pod_trace::fiu::format_records(&records);
        std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(
            out,
            "wrote {} per-block records ({} MiB) to {path}",
            records.len(),
            text.len() / (1024 * 1024),
        )?;
    }
    Ok(())
}
