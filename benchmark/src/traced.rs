//! The traced pass: per-layer metrics, taken apart from the timed runs.
//!
//! Every span is recorded from the harness's side of a layer boundary.
//! Stage spans nest by cause — `cli.process` ⊃ `trace.load`,
//! `runner.run` ⊃ `stack.build`, `stack.loop`, `stack.finish` — but are
//! separate executions, so a parent's self time is a residual
//! (`cli.overhead_s`, `runner.report_s`) that can come out negative
//! under noise and is printed as it is.

use crate::child::Launcher;
use crate::drives::{clock_pair_ns, drive_all, DriveTotals};
use crate::inproc::{self, Detail, EngineOut, Inputs};
use crate::metrics::{Outcome, Values};
use crate::spans::{Hist, Spans};
use crate::stats::{median, supported_percentile};
use crate::workload::{materialise_fiu, Workload, OUT_DIR};
use crate::Options;
use pod_cli::args::CliArgs;
use pod_core::obs::{LayerHistograms, ObserverChain, TraceRecorder};
use pod_core::{HostProfile, OracleObserver, StorageStack, SystemConfig};
use pod_trace::{MergedStream, Trace};
use std::time::Instant;

/// Repetitions behind each stage median of the traced pass.
const STAGE_REPS: usize = 3;

/// The traced loop times one request in this many, which keeps the
/// clock's own cost under the 3 % tracing budget even where a request
/// takes a few hundred nanoseconds.
const REQUEST_SAMPLE_EVERY: usize = 4;

fn secs_to_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

fn pct(over: f64, base: f64) -> f64 {
    (over - base) / base * 100.0
}

pub fn run(w: Workload, opts: &Options, launcher: &mut Launcher) -> Result<Outcome, String> {
    let argv = w.argv(opts.seed, opts.div);
    let args = CliArgs::parse(&argv[1..])?;
    let cfg = args.system_config()?;
    if w.needs_fiu() {
        let info = materialise_fiu(opts.seed, opts.div, false)?;
        eprintln!(
            "  fiu input: {} bytes, fnv64 {:016x} ({})",
            info.bytes,
            info.fnv64,
            if info.regenerated {
                "generated"
            } else {
                "reused"
            }
        );
    }
    let mut spans = Spans::new();
    let mut v = Values::default();

    // ---- pod-cli: the process as a user runs it. ----
    let mut walls = Vec::with_capacity(STAGE_REPS);
    let mut bad_exits = 0;
    for _ in 0..STAGE_REPS {
        let c = launcher.run(&argv, &format!("{}.traced", w.name))?;
        bad_exits += u64::from(!c.exit_ok);
        walls.push(c.wall_s);
        v.set("cli.stdout_bytes", c.stdout.len() as f64);
    }
    let wall_s = median(&walls);
    let process = spans.record_ns("cli.process", None, secs_to_ns(wall_s));

    // ---- pod-trace: load the input the way the command does. ----
    let (load, inputs) = spans.record("trace.load", Some(process), || inproc::load(w.kind, &args));
    let inputs = inputs?;
    let requests = inputs.requests();
    let mut failed = bad_exits * requests;
    let blocks: u64 = inputs
        .traces()
        .iter()
        .flat_map(|t| &t.requests)
        .map(|r| r.nblocks as u64)
        .sum();
    let writes: usize = inputs.traces().iter().map(Trace::write_count).sum();
    v.set("trace.load_s", spans.secs(load));
    v.set(
        "trace.load_ns_per_req",
        spans.secs(load) * 1e9 / requests as f64,
    );
    v.set("trace.requests", requests as f64);
    v.set("trace.chunks", blocks as f64);
    v.set("trace.write_ratio", writes as f64 / requests as f64);
    if let Some(path) = &args.trace_path {
        let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let (parse, records) = spans.record("trace.fiu_parse", Some(load), || {
            pod_trace::fiu::parse_str(&body)
        });
        records.map_err(|e| e.to_string())?;
        let mib = body.len() as f64 / (1024.0 * 1024.0);
        v.set("trace.fiu_parse_mib_per_s", mib / spans.secs(parse));
    }
    if let Inputs::Fleet(tenants) = &inputs {
        let (merge, n) = spans.record("trace.merge", None, || MergedStream::new(tenants).count());
        v.set("trace.merge_ns_per_req", spans.secs(merge) * 1e9 / n as f64);
    }

    // ---- The engine call: as the command configures it, with the
    // oracle flipped, and under the program's own host profiler. The
    // three variants alternate so a drift of the host hits them alike.
    let mut runs: Vec<EngineOut> = Vec::with_capacity(STAGE_REPS);
    let (mut flipped_s, mut profiled_s) = (Vec::new(), Vec::new());
    let mut flipped_verdict = None;
    let mut profile: Option<HostProfile> = None;
    for _ in 0..STAGE_REPS {
        runs.push(inproc::run_engine(&args, &cfg, &inputs, None, false)?);
        let flipped = inproc::run_engine(&args, &cfg, &inputs, Some(!args.verify), false)?;
        flipped_s.push(flipped.secs);
        flipped_verdict = flipped.integrity;
        let profiled = inproc::run_engine(&args, &cfg, &inputs, None, true)?;
        profiled_s.push(profiled.secs);
        profile = match profiled.detail {
            Detail::Replay(rep) => rep.profile,
            Detail::Serve(rep) => rep.aggregate.profile,
        };
    }
    let run_s = median(&runs.iter().map(|r| r.secs).collect::<Vec<_>>());
    let engine_span = match inputs {
        Inputs::Solo(_) => "runner.run",
        Inputs::Fleet(_) => "serve.run",
    };
    let engine = spans.record_ns(engine_span, Some(process), secs_to_ns(run_s));
    v.set("cli.overhead_s", spans.self_secs(process));
    v.set("close.wall_s", wall_s);
    v.set("close.overhead_share", spans.self_secs(process) / wall_s);

    let (with, without) = match args.verify {
        true => (run_s, median(&flipped_s)),
        false => (median(&flipped_s), run_s),
    };
    v.set("oracle.cost_pct", pct(with, without));
    // Whichever of the two variants ran the oracle carries the verdict.
    let verdict = flipped_verdict.or(runs[0].integrity);
    let divergent = verdict.map_or(0, |(_, divergent)| divergent);
    v.set("oracle.divergent_blocks", divergent as f64);
    failed += divergent;

    v.set("stack.prof_overhead_pct", pct(median(&profiled_s), run_s));
    let (mut cache, mut dedup, mut disk, mut other) = (0.0, 0.0, 0.0, 0.0);
    for (layer, share) in profile
        .ok_or("profiled run returned no profile")?
        .layer_shares()
    {
        // A layer this table does not know yet counts as "other", so a
        // later split of the profiler's phases cannot break the harness.
        match layer {
            "cache" => cache += share,
            "dedup" => dedup += share,
            "disk" => disk += share,
            _ => other += share,
        }
    }
    v.set("stack.prof.cache_share", cache);
    v.set("stack.prof.dedup_share", dedup);
    v.set("stack.prof.disk_share", disk);
    v.set("stack.prof.other_share", other);

    // ---- Workload-specific stages. ----
    let loop_s = match &inputs {
        Inputs::Solo(trace) => {
            v.set("runner.run_s", run_s);
            replay_stages(&args, &cfg, trace, engine, &mut spans, &mut v)?
        }
        Inputs::Fleet(tenants) => {
            v.set("serve.run_s", run_s);
            serve_stages(&args, &cfg, tenants, &runs, run_s, &mut v)?
        }
    };

    // ---- Layer drives. ----
    let spec = args.scheme.stack_spec();
    let mut totals = DriveTotals::default();
    for trace in inputs.traces() {
        drive_all(&spec, &cfg, trace, &mut totals);
    }
    let pair_ns = clock_pair_ns();
    spans.count("clock.pair_ns", pair_ns);
    for (name, value) in totals.metrics(pair_ns) {
        v.set(name, value);
    }
    let mut drives_s = 0.0;
    for (span, metric) in [
        ("dedup.drive", "dedup.drive_s"),
        ("icache.drive", "icache.drive_s"),
        ("disk.drive", "disk.drive_s"),
    ] {
        let secs = v.get(metric).expect("set by the drives");
        spans.record_ns(span, None, secs_to_ns(secs));
        drives_s += secs;
    }
    // What the drives do not explain of the stack's request loop:
    // observer emits, background tasks, snapshots, layer glue.
    v.set("stack.glue_s", loop_s - drives_s);
    v.set("close.glue_share", (loop_s - drives_s) / loop_s);
    spans.hist("dedup.write", totals.dedup_write);
    spans.hist("dedup.plan_read", totals.dedup_read);

    // Every metric goes into the spans file as a count, so the file
    // stands on its own.
    for (name, value) in v.iter() {
        spans.count(name, value);
    }
    let path = format!("{OUT_DIR}/{}.spans.jsonl", w.name);
    std::fs::write(&path, spans.to_jsonl(w.name)).map_err(|e| format!("writing {path}: {e}"))?;

    let overhead_share = v.get("close.overhead_share").unwrap_or(0.0);
    if !(0.0..=0.15).contains(&overhead_share) {
        eprintln!(
            "  NOTE: cli.overhead_s is {:.1} % of wall_s",
            overhead_share * 100.0
        );
    }
    eprintln!(
        "  closure: trace.load_s {:.4} + {engine_span}_s {run_s:.4} + cli.overhead_s {:.4} = wall_s {wall_s:.4}",
        spans.secs(load),
        spans.self_secs(process),
    );
    Ok(Outcome {
        attempted: requests * (STAGE_REPS as u64) + verdict.map_or(0, |(checked, _)| checked),
        failed,
        values: v,
    })
}

/// One staged execution of the replay: the loop `runner::replay_stack`
/// runs, with the three stages timed apart.
struct Staged {
    build_s: f64,
    loop_s: f64,
    finish_s: f64,
    chain: ObserverChain,
}

#[derive(Clone, Copy, PartialEq)]
enum Sinks {
    /// What `cmd_replay` attaches for this command.
    AsConfigured,
    /// `()`.
    None,
    /// `LayerHistograms` and a `TraceRecorder`.
    All,
}

fn staged(
    args: &CliArgs,
    cfg: &SystemConfig,
    trace: &Trace,
    sinks: Sinks,
    mut sampled: Option<&mut Hist>,
) -> Result<Staged, String> {
    let spec = args.scheme.stack_spec();
    let mut chain = ObserverChain::new();
    if sinks != Sinks::None {
        chain.push(LayerHistograms::new());
    }
    if sinks == Sinks::All || (sinks == Sinks::AsConfigured && args.trace_out.is_some()) {
        // The runner's auto cadence: ~64 epochs, floored at 64 requests.
        let epoch = match args.epoch_requests {
            0 => (trace.len() as u64 / 64).max(64),
            e => e,
        };
        chain.push(TraceRecorder::new(
            spec.name,
            trace.name.clone(),
            epoch,
            trace.len(),
        ));
    }
    let started = Instant::now();
    let mut stack =
        StorageStack::with_observer(&spec, cfg, trace, chain).map_err(|e| e.to_string())?;
    let build_s = started.elapsed().as_secs_f64();

    let mut oracle = (sinks == Sinks::AsConfigured && args.verify).then(OracleObserver::new);
    let warmup = inproc::warmup_requests(cfg, trace.len());
    let started = Instant::now();
    for (idx, req) in trace.requests.iter().enumerate() {
        if let Some(oracle) = oracle.as_mut() {
            oracle.observe_request(req);
        }
        let t0 = (sampled.is_some() && idx % REQUEST_SAMPLE_EVERY == 0).then(Instant::now);
        stack.run_until(req.arrival);
        stack
            .process_request(idx, req, idx >= warmup)
            .map_err(|e| e.to_string())?;
        if let (Some(h), Some(t0)) = (sampled.as_mut(), t0) {
            h.record(t0.elapsed().as_nanos() as u64);
        }
    }
    let loop_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    stack.finish().map_err(|e| e.to_string())?;
    let finish_s = started.elapsed().as_secs_f64();
    Ok(Staged {
        build_s,
        loop_s,
        finish_s,
        chain: stack.into_observer(),
    })
}

/// `pod-core::stack`, `runner` and `obs` on a replay workload. Returns
/// the untraced `stack.loop_s`.
fn replay_stages(
    args: &CliArgs,
    cfg: &SystemConfig,
    trace: &Trace,
    engine: usize,
    spans: &mut Spans,
    v: &mut Values,
) -> Result<f64, String> {
    // Four variants of the staged loop, alternating: as configured,
    // as configured with sampled per-request clock pairs (the traced
    // loop), with no sink at all, and with every sink.
    let mut plain = Vec::new();
    let (mut traced_s, mut bare_s, mut full_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut hist = Hist::default();
    let mut full = None;
    for _ in 0..STAGE_REPS {
        plain.push(staged(args, cfg, trace, Sinks::AsConfigured, None)?);
        traced_s.push(staged(args, cfg, trace, Sinks::AsConfigured, Some(&mut hist))?.loop_s);
        bare_s.push(staged(args, cfg, trace, Sinks::None, None)?.loop_s);
        let run = staged(args, cfg, trace, Sinks::All, None)?;
        full_s.push(run.loop_s);
        full = Some(run);
    }
    let med = |f: fn(&Staged) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let (build_s, loop_s, finish_s) = (med(|s| s.build_s), med(|s| s.loop_s), med(|s| s.finish_s));
    for (name, s) in [
        ("stack.build", build_s),
        ("stack.loop", loop_s),
        ("stack.finish", finish_s),
    ] {
        spans.record_ns(name, Some(engine), secs_to_ns(s));
    }
    v.set("stack.build_s", build_s);
    v.set("stack.loop_s", loop_s);
    v.set("stack.finish_s", finish_s);
    v.set("stack.request_ns", loop_s * 1e9 / trace.len() as f64);
    // Sizing, oracle walk and report assembly: what `run_observed`
    // spends outside the three stages.
    v.set("runner.report_s", spans.self_secs(engine));
    v.set(
        "close.report_share",
        spans.self_secs(engine) / spans.secs(engine),
    );
    eprintln!(
        "  closure: build_s {build_s:.4} + loop_s {loop_s:.4} + finish_s {finish_s:.4} + report_s {:.4} = run_s {:.4}",
        spans.self_secs(engine),
        spans.secs(engine),
    );

    let traced_loop_s = median(&traced_s);
    spans.record_ns("stack.loop.traced", None, secs_to_ns(traced_loop_s));
    v.set("trace_overhead_pct", pct(traced_loop_s, loop_s));
    v.set("stack.request_p50_ns", hist.percentile_ns(50.0) as f64);
    let p = supported_percentile(hist.count(), 99.9);
    v.set("stack.request_p999_ns", hist.percentile_ns(p) as f64);
    spans.hist("stack.request", hist);

    // pod-core::obs: every sink against none.
    v.set("obs.sinks_cost_pct", pct(median(&full_s), median(&bare_s)));
    let mut full = full.expect("at least one repetition");
    v.set("obs.snapshots", full.chain.counters().snapshots as f64);
    let hists = full.chain.sink::<LayerHistograms>().cloned();
    let recorder: TraceRecorder = full.chain.take_sink().ok_or("recorder was attached")?;
    let mut jsonl = Vec::new();
    let (write, result) = spans.record("obs.jsonl_write", None, || {
        recorder.write_jsonl(&mut jsonl, hists.as_ref())
    });
    result.map_err(|e| e.to_string())?;
    v.set("obs.jsonl_write_s", spans.secs(write));
    v.set("obs.jsonl_bytes", jsonl.len() as f64);
    Ok(loop_s)
}

/// `pod-core::serve` and `pool` on the fleet. Returns the time the
/// shards spend in their stacks with one worker (the fleet's analogue
/// of `stack.loop_s`, which the drives are set against).
fn serve_stages(
    args: &CliArgs,
    cfg: &SystemConfig,
    tenants: &[Trace],
    runs: &[EngineOut],
    run_s: f64,
    v: &mut Values,
) -> Result<f64, String> {
    let busy = |out: &EngineOut| -> (f64, f64) {
        let Detail::Serve(rep) = &out.detail else {
            unreachable!("serve run")
        };
        let us = rep.shard_stats.iter().map(|s| s.busy_us);
        (
            us.clone().max().unwrap_or(0) as f64 / 1e6,
            us.sum::<u64>() as f64 / 1e6,
        )
    };
    let busy_max = median(&runs.iter().map(|r| busy(r).0).collect::<Vec<_>>());
    let busy_sum = median(&runs.iter().map(|r| busy(r).1).collect::<Vec<_>>());
    let jobs = args.jobs.unwrap_or(1) as f64;
    v.set("serve.busy_max_s", busy_max);
    v.set("serve.busy_sum_s", busy_sum);
    v.set("serve.outside_shards_s", run_s - busy_max);
    v.set("serve.parallel_efficiency", busy_sum / (jobs * run_s));
    v.set("serve.idle_s", jobs * run_s - busy_sum);
    let Detail::Serve(rep) = &runs[0].detail else {
        unreachable!("serve run")
    };
    v.set("obs.snapshots", rep.aggregate.stack.snapshots as f64);

    // The interleave's price: the same tenants and policy on one
    // worker, merged through the command's shards vs one shard each.
    let solo_busy = |shards: usize| -> Result<f64, String> {
        let mut a = args.clone();
        a.shards = shards;
        a.jobs = Some(1);
        Ok(busy(&inproc::run_serve(&a, cfg, tenants, a.verify, false)?).1)
    };
    let merged = solo_busy(args.shards)?;
    let apart = solo_busy(tenants.len())?;
    v.set("serve.interleave_ratio", merged / apart);
    let requests: usize = tenants.iter().map(Trace::len).sum();
    v.set("stack.request_ns", merged * 1e9 / requests as f64);
    Ok(merged)
}
