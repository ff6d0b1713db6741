//! The timed pass: set-up, alternating process and in-process
//! repetitions with tracing off, and the correctness checks.
//!
//! Host-side this is a closed loop of one client: one `pod-cli` process
//! (or one engine call) at a time, back to back.

use crate::child::{self, Launcher};
use crate::inproc::{self, EngineOut, Inputs};
use crate::metrics::{Outcome, Values};
use crate::stats::{median, quartiles};
use crate::workload::{materialise_fiu, FiuInfo, Kind, Workload};
use crate::Options;
use pod_cli::args::CliArgs;
use std::time::Instant;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Failure bookkeeping in the contract's terms: operations are
/// requests (per repetition) and oracle-checked blocks.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, ops: u64, what: &str) {
        if !ok {
            eprintln!("  CHECK FAILED: {what} ({ops} operations)");
            self.failed += ops;
        }
    }
}

pub fn run(w: Workload, opts: &Options, launcher: &mut Launcher) -> Result<Outcome, String> {
    let mut argv = w.argv(opts.seed, opts.div);
    if let (Some(spec), Kind::Replay) = (&opts.faults, w.kind) {
        argv.extend(["--faults".to_string(), spec.clone()]);
    }
    let args = CliArgs::parse(&argv[1..])?;
    let cfg = args.system_config()?;
    let mut run_child =
        |tag: &str, argv: &[String]| launcher.run(argv, &format!("{}.{tag}", w.name));
    let mut tally = Tally::default();

    // ---- Set-up: materialise inputs, load them, warm both paths. ----
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut fiu: Option<FiuInfo> = None;
    let mut reference: Option<(Inputs, String, String)> = None;
    for _ in 0..SETUP_REPS {
        drop(reference.take());
        let started = Instant::now();
        if w.needs_fiu() {
            let info = materialise_fiu(opts.seed, opts.div, true)?;
            if let Some(first) = fiu {
                // Regenerating from the same seed must give the same
                // bytes, or repetitions would not be replaying one input.
                if (first.bytes, first.fnv64) != (info.bytes, info.fnv64) {
                    return Err(format!("FIU file not reproducible: {first:?} vs {info:?}"));
                }
            }
            fiu = Some(info);
        }
        let inputs = inproc::load(w.kind, &args)?;
        let warm_child = run_child("warmup", &argv)?;
        let warm_engine = inproc::run_engine(&args, &cfg, &inputs, None, false)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if !warm_child.exit_ok {
            eprintln!("  warm-up child exited non-zero");
        }
        reference = Some((
            inputs,
            child::normalise_stdout(&warm_child.stdout),
            warm_engine.digest,
        ));
    }
    let (inputs, ref_stdout, ref_digest) = reference.expect("at least one set-up");
    let requests = inputs.requests();
    let expect_measured = inputs.measured_requests(&cfg);
    if let Some(info) = fiu {
        eprintln!(
            "  fiu input: {} bytes, fnv64 {:016x}",
            info.bytes, info.fnv64
        );
    }

    // ---- Timed repetitions: process, engine, process, engine, ... ----
    let mut wall = Vec::new();
    let mut rss = Vec::new();
    let mut engine_s = Vec::new();
    let mut last: Option<EngineOut> = None;
    let timed = Instant::now();
    while wall.len() < opts.reps || timed.elapsed().as_secs_f64() < opts.seconds {
        let c = run_child("timed", &argv)?;
        tally.attempted += requests;
        tally.check(c.exit_ok, requests, "child exit status");
        tally.check(
            child::normalise_stdout(&c.stdout) == ref_stdout,
            requests,
            "child stdout differs between repetitions",
        );
        wall.push(c.wall_s);
        rss.push(c.peak_rss_mib);

        let e = inproc::run_engine(&args, &cfg, &inputs, None, false)?;
        tally.attempted += requests;
        tally.check(
            e.digest == ref_digest,
            requests,
            "engine result differs between repetitions",
        );
        tally.check(
            e.measured == expect_measured,
            expect_measured.abs_diff(e.measured),
            "requests left unanswered",
        );
        engine_s.push(e.secs);
        last = Some(e);
    }
    let last = last.expect("at least one repetition");

    // ---- Correctness beyond repetition identity. ----
    // One oracle run per replay workload; `readmix-fiu` carries
    // `--verify` in its command, so its timed runs already are that.
    let oracle = match (w.kind, last.integrity) {
        (Kind::Replay, None) => {
            inproc::run_engine(&args, &cfg, &inputs, Some(true), false)?.integrity
        }
        (_, verdict) => verdict,
    };
    if let Some((checked, divergent)) = oracle {
        tally.attempted += checked;
        tally.check(divergent == 0, divergent, "oracle: divergent blocks");
    }
    if w.kind == Kind::Serve {
        // The report must not depend on topology, and the in-process
        // result must be the text the command prints.
        let c = run_child("flat", &flat_topology(&argv))?;
        tally.attempted += requests;
        tally.check(
            c.exit_ok && c.stdout == ref_stdout,
            requests,
            "serve stdout differs from the --shards 1 --jobs 1 run",
        );
        tally.check(
            last.digest == ref_stdout,
            requests,
            "in-process report differs from child stdout",
        );
    }

    let wall_s = describe("wall_s", &wall);
    let engine_med_s = describe("engine_s", &engine_s);
    let mut values = Values::default();
    values.set("wall_s", wall_s);
    values.set("replay_rps", requests as f64 / engine_med_s);
    values.set("peak_rss_mib", median(&rss));
    values.set("sim_mean_ms", last.sim_mean_ms);
    values.set("sim_p99_ms", last.sim_p99_ms);
    values.set("writes_issued_pct", 100.0 - last.writes_removed_pct);
    values.set("capacity_mib", last.capacity_mib);
    values.set("setup_s", median(&setup_s));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
    })
}

/// Print a timing sample's count, minimum and quartiles; returns the
/// median.
fn describe(name: &str, sample: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(sample);
    let min = sample.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "  {name:<9} n={} min {min:.4} q1 {q1:.4} median {med:.4} q3 {q3:.4}",
        sample.len()
    );
    med
}

/// `argv` with `--shards 1 --jobs 1` in place of its own topology.
fn flat_topology(argv: &[String]) -> Vec<String> {
    let mut out = argv.to_vec();
    for flag in ["--shards", "--jobs"] {
        let at = out
            .iter()
            .position(|a| a == flag)
            .expect("serve argv carries the flag");
        out[at + 1] = "1".to_string();
    }
    out
}
