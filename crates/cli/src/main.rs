//! `pod-cli` — drive the POD simulator from the command line.
//!
//! ```text
//! pod-cli gen      --profile mail --scale 0.05 --seed 42 --out mail.fiu
//! pod-cli analyze  --trace mail.fiu            # Table II / Fig.1 / Fig.2 stats
//! pod-cli analyze  --profile mail --scale 0.05 # same, from a generated trace
//! pod-cli replay   --scheme pod --profile mail --scale 0.05
//! pod-cli replay   --scheme pod --trace-out pod.jsonl   # + event trace
//! pod-cli replay   --scheme pod --faults all --verify   # faults + oracle
//! pod-cli profile  Full-Dedupe mail            # host wall-clock breakdown
//! pod-cli compare  --profile mail --scale 0.05 # all five schemes
//! pod-cli serve    --tenants 4 --shards 2 --jobs 2   # sharded multi-tenant engine
//! pod-cli serve    --tenants 4 --shards 2 --verify   # + one oracle verdict per tenant
//! pod-cli stats    --in pod.jsonl              # render an event trace
//! pod-cli monitor  --scheme pod --headless     # live dashboard / final frame
//! pod-cli figures  --in pod.jsonl --out figs/  # per-epoch paper-figure CSVs
//! ```

use pod_cli::args::CliArgs;
use pod_cli::{
    cmd_analyze, cmd_compare, cmd_doctor, cmd_figures, cmd_gen, cmd_monitor, cmd_profile,
    cmd_replay, cmd_serve, cmd_stats, CliError,
};
use std::io::{ErrorKind, Write};

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage_and_exit(0);
    }
    let cmd = argv.remove(0);
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        usage_and_exit(0);
    }
    if cmd == "profile" {
        // `profile` accepts positional shorthand straight off a paper
        // table: `pod-cli profile Full-Dedupe mail` is
        // `pod-cli profile --scheme full-dedupe --profile mail`.
        let mut pos = Vec::new();
        while !argv.is_empty() && !argv[0].starts_with("--") {
            pos.push(argv.remove(0));
        }
        let mut head = Vec::new();
        if let Some(scheme) = pos.first() {
            head.push("--scheme".to_string());
            head.push(scheme.to_lowercase().replace('/', ""));
        }
        if let Some(workload) = pos.get(1) {
            head.push("--profile".to_string());
            head.push(workload.clone());
        }
        argv.splice(0..0, head);
    }
    let args = match CliArgs::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            usage_and_exit(2);
        }
    };
    if args.verify && !matches!(cmd.as_str(), "replay" | "serve") {
        eprintln!("error: --verify applies to replay and serve");
        usage_and_exit(2);
    }
    let run = match cmd.as_str() {
        "gen" => cmd_gen::run,
        "analyze" => cmd_analyze::run,
        "replay" => cmd_replay::run,
        "profile" => cmd_profile::run,
        "compare" => cmd_compare::run,
        "serve" => cmd_serve::run,
        "stats" => cmd_stats::run,
        "monitor" => cmd_monitor::run,
        "figures" => cmd_figures::run,
        "doctor" => cmd_doctor::run,
        "help" | "--help" | "-h" => usage_and_exit(0),
        other => {
            eprintln!("error: unknown command '{other}'");
            usage_and_exit(2);
        }
    };
    // Every subcommand writes its stdout through this one handle.
    let mut out = std::io::stdout().lock();
    let result = run(&args, &mut out).and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => {}
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
        Err(CliError::Stdout(e)) => stdout_failed(e),
    }
}

/// A write to stdout failed. A reader that closed the pipe (`| head`)
/// has all it asked for, so that ends the command quietly with exit 0;
/// any other write error is one `error:` line and exit 1.
fn stdout_failed(e: std::io::Error) {
    if e.kind() != ErrorKind::BrokenPipe {
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

fn usage_and_exit(code: i32) -> ! {
    if let Err(e) = writeln!(
        std::io::stdout(),
        "pod-cli — POD deduplication simulator (IPDPS'14 reproduction)\n\
         \n\
         commands:\n\
         \x20 gen      generate a synthetic trace, optionally exporting FIU text\n\
         \x20 analyze  workload statistics (Table II, Fig. 1, Fig. 2)\n\
         \x20 replay   replay a trace through one scheme\n\
         \x20 profile  host wall-clock breakdown of a replay (also: profile <Scheme> <trace>)\n\
         \x20 compare  replay a trace through all five schemes\n\
         \x20 serve    serve K tenant streams through N shard workers\n\
         \x20 stats    render a JSONL event trace written by --trace-out\n\
         \x20 monitor  replay with a live dashboard of snapshot gauges\n\
         \x20 figures  export per-epoch paper-figure CSVs from a JSONL trace\n\
         \x20 doctor   verify internal invariants end to end\n\
         \n\
         options:\n\
         \x20 --profile <web-vm|homes|mail>   workload profile (default mail)\n\
         \x20 --scale <f64>                   trace scale, 1.0 = paper size (default 0.05)\n\
         \x20 --seed <u64>                    generator seed (default 42)\n\
         \x20 --trace <path>                  FIU-format trace file instead of a profile\n\
         \x20 --scheme <native|full|idedup|select|pod|post|iodedup>  scheme for `replay`\n\
         \x20 --out <path>                    output file for `gen`\n\
         \x20 --trace-out <path>              JSONL event trace from `replay`/`compare`\n\
         \x20 --epoch <requests>              requests per exported epoch (default: auto)\n\
         \x20 --in <path>                     JSONL event trace for `stats`/`figures`\n\
         \x20 --headless                      `monitor`: print only the final frame\n\
         \x20 --faults <spec>                 `replay`: inject faults — transient[:seed],\n\
         \x20                                 latency[:seed], torn[:seed], crash:<jobs>[:seed],\n\
         \x20                                 corrupt:<lba>, all[:seed]\n\
         \x20 --verify                        `replay`/`serve`: run the end-to-end integrity oracle\n\
         \x20                                 and fail on any divergent block\n\
         \x20 --tenants <K>                   `serve`: tenant streams derived from the\n\
         \x20                                 profile (seed, seed+1, ...; default 1)\n\
         \x20 --shards <N>                    `serve`: shard workers; each owns the\n\
         \x20                                 stacks of tenants t \u{2261} shard (mod N)\n\
         \x20 --policy <spec>                 `serve`: cross-tenant QoS — comma-separated\n\
         \x20                                 tier:<MiB>, rate:<rps>, burst:<n>, quota:<MiB>\n\
         \x20 --prof                          `replay`/`monitor`: attach the host wall-clock\n\
         \x20                                 profiler and print real-time layer shares\n\
         \x20 --memory <MiB>                  override the DRAM budget\n\
         \x20 --jobs <N>                      worker threads for `replay`/`compare` grids;\n\
         \x20                                 at N >= 2 every replay's simulated array gets\n\
         \x20                                 a thread of its own (default: available\n\
         \x20                                 parallelism)"
    ) {
        stdout_failed(e);
    }
    std::process::exit(code);
}
