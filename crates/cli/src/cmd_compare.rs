//! `pod-cli compare` — all five schemes side by side (the Fig. 8–11
//! experiment). With `--trace-out <path>` every scheme's epoch-granular
//! event trace is appended to one JSONL file (one `meta` section per
//! scheme) for `pod-cli stats`.

use crate::args::CliArgs;
use crate::CliResult;
use pod_core::experiments::{run_schemes, run_schemes_recorded};
use pod_core::{ReplayReport, Scheme};
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    args.apply_jobs();
    let trace = args.load_trace()?;
    let cfg = args.system_config()?;
    writeln!(
        out,
        "replaying {} requests of `{}` through 5 schemes ({} workers) ...",
        trace.len(),
        trace.name,
        pod_core::pool::default_width().min(Scheme::all().len())
    )?;
    let reports: Vec<ReplayReport> = if let Some(path) = &args.trace_out {
        let runs = run_schemes_recorded(&Scheme::all(), &trace, &cfg, args.epoch_requests)
            .map_err(|e| e.to_string())?;
        let mut file = std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        let mut epochs = 0usize;
        for (_, recorder, hists) in &runs {
            recorder
                .write_jsonl(&mut file, Some(hists))
                .map_err(|e| format!("writing {path}: {e}"))?;
            epochs += recorder.rows().len();
        }
        file.flush().map_err(|e| format!("writing {path}: {e}"))?;
        writeln!(
            out,
            "wrote {epochs} epochs across {} schemes to {path}",
            runs.len()
        )?;
        runs.into_iter().map(|(report, _, _)| report).collect()
    } else {
        run_schemes(&Scheme::all(), &trace, &cfg).map_err(|e| e.to_string())?
    };
    let base = reports[0].overall.mean_us().max(1e-9);
    let base_cap = reports[0].capacity_used_blocks.max(1);

    writeln!(
        out,
        "\n{:<14} {:>11} {:>8} {:>10} {:>10} {:>9} {:>8}",
        "scheme", "overall(ms)", "vs nat", "read(ms)", "write(ms)", "removed%", "cap%"
    )?;
    for rep in &reports {
        writeln!(
            out,
            "{:<14} {:>11.2} {:>7.1}% {:>10.2} {:>10.2} {:>9.1} {:>8.1}",
            rep.scheme,
            rep.overall.mean_ms(),
            rep.overall.mean_us() * 100.0 / base,
            rep.reads.mean_ms(),
            rep.writes.mean_ms(),
            rep.writes_removed_pct(),
            rep.capacity_used_blocks as f64 * 100.0 / base_cap as f64,
        )?;
    }
    Ok(())
}
