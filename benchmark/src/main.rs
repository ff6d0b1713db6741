//! The repo benchmark: end-to-end and per-layer measurements of
//! `pod-cli` on four workloads. Run it through `benchmark/run.sh`,
//! which builds `pod-cli` and this harness first; `benchmark/README.md`
//! says what is measured and why.

mod child;
mod drives;
mod inproc;
mod metrics;
mod spans;
mod stats;
mod timed;
mod traced;
mod workload;

use child::Launcher;
use metrics::{end_to_end_table, per_layer_table, Better, Outcome, END_TO_END};
use std::path::PathBuf;
use workload::{Workload, OUT_DIR, WORKLOADS};

/// Size divisor of the benchmark proper and of `--quick`.
const BENCH_DIV: u32 = 4;
const QUICK_DIV: u32 = 20;

/// What the two passes need to know.
pub struct Options {
    pub seed: u64,
    /// Paper scale ÷ `div`.
    pub div: u32,
    /// Keep repeating until at least this many repetitions ...
    pub reps: usize,
    /// ... and at least this many seconds have been measured.
    pub seconds: f64,
    /// `--faults <spec>` appended to the replay children, to show the
    /// correctness checks are live.
    pub faults: Option<String>,
}

struct Cli {
    opts: Options,
    pod_cli: PathBuf,
    root: PathBuf,
    build_s: f64,
    workload: Option<Workload>,
    timed: bool,
    traced: bool,
    selfcheck: bool,
}

const USAGE: &str = "\
usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--reps R]
                        [--trace 0|1] [--traced] [--quick] [--selfcheck]
                        [--faults SPEC]

  --workload W   one of mail-pod, webvm-native, readmix-fiu, fleet-serve
                 (default: all four); with it the last stdout line is the
                 one-object result {correct, attempted, failed, metrics}
  --seed N       workload seed (default 42)
  --seconds S    measure each workload for at least S seconds (default 12)
  --reps R       and for at least R repetitions (default 5)
  --trace 0|1    0: timed pass, end-to-end metrics (default);
                 1: traced pass, per-layer metrics
  --traced       both passes
  --quick        1/20 paper size, 2 repetitions; output is not comparable
  --selfcheck    two timed sets of the same build, compared to the bounds
  --faults SPEC  append `--faults SPEC` to the replay children; the run
                 must then fail (shows the checks are live)";

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Options {
            seed: 42,
            div: BENCH_DIV,
            reps: 5,
            seconds: 12.0,
            faults: None,
        },
        pod_cli: PathBuf::new(),
        root: PathBuf::from("."),
        build_s: 0.0,
        workload: None,
        timed: true,
        traced: false,
        selfcheck: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--traced" => (cli.timed, cli.traced) = (true, true),
            "--selfcheck" => cli.selfcheck = true,
            "--quick" => {
                cli.opts.div = QUICK_DIV;
                cli.opts.reps = 2;
                cli.opts.seconds = 0.0;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ => {
                let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = || format!("bad {flag} '{value}'");
                match flag.as_str() {
                    "--pod-cli" => cli.pod_cli = PathBuf::from(value),
                    "--root" => cli.root = PathBuf::from(value),
                    "--build-us" => cli.build_s = value.parse::<f64>().map_err(|_| bad())? / 1e6,
                    "--workload" => {
                        cli.workload = Some(workload::by_name(value).ok_or_else(bad)?);
                    }
                    "--seed" => cli.opts.seed = value.parse().map_err(|_| bad())?,
                    "--seconds" => cli.opts.seconds = value.parse().map_err(|_| bad())?,
                    "--reps" => cli.opts.reps = value.parse().map_err(|_| bad())?,
                    "--trace" => {
                        (cli.timed, cli.traced) = match value.as_str() {
                            "0" => (true, false),
                            "1" => (false, true),
                            _ => return Err(bad()),
                        }
                    }
                    "--faults" => cli.opts.faults = Some(value.clone()),
                    _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
                }
            }
        }
    }
    if cli.pod_cli.as_os_str().is_empty() {
        return Err("no --pod-cli given: run this through benchmark/run.sh".into());
    }
    cli.opts.reps = cli.opts.reps.max(1);
    Ok(cli)
}

/// Trimmed stdout of `program args…`, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where, on what and at which size the numbers were taken, as JSON
/// members. Only benchmark-size runs without injected faults are
/// comparable with one another.
fn host_stamp(cli: &Cli, nproc: usize) -> String {
    let load = first_line("/proc/loadavg");
    format!(
        "\"commit\": \"{}\", \"rustc\": \"{}\", \"host\": \"{}\", \"nproc\": {nproc}, \
         \"load1\": {}, \"seed\": {}, \"size_div\": {}, \"build_s\": {:.3}, \"comparable\": {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        first_line("/etc/machine-id"),
        load.split_whitespace().next().unwrap_or("0"),
        cli.opts.seed,
        cli.opts.div,
        cli.build_s,
        cli.opts.div == BENCH_DIV && cli.opts.faults.is_none(),
    )
}

/// Run the selected passes over `w` and print their tables; returns
/// `(timed, traced)`.
fn run_workload(
    w: Workload,
    cli: &Cli,
    nproc: usize,
    launcher: &mut Launcher,
) -> Result<(Option<Outcome>, Option<Outcome>), String> {
    if w.name == "fleet-serve" && nproc < 2 {
        return Err("fleet-serve runs --jobs 2 and needs at least 2 cores".into());
    }
    eprintln!(
        "== {} (seed {}, 1/{} paper size): {}",
        w.name, cli.opts.seed, cli.opts.div, w.why
    );
    let timed = cli
        .timed
        .then(|| timed::run(w, &cli.opts, launcher))
        .transpose()?;
    let traced = cli
        .traced
        .then(|| traced::run(w, &cli.opts, launcher))
        .transpose()?;
    for (pass, outcome, table) in [
        ("end to end", &timed, end_to_end_table()),
        ("per layer", &traced, per_layer_table()),
    ] {
        if let Some(o) = outcome {
            println!(
                "{} — {pass}: attempted {} failed {} correct {}",
                w.name,
                o.attempted,
                o.failed,
                o.correct()
            );
            print!("{}", o.to_table(&table));
        }
    }
    Ok((timed, traced))
}

/// Two timed sets of one build; every workload × end-to-end metric must
/// agree within its bound, exact metrics to the last digit.
fn selfcheck(
    cli: &Cli,
    nproc: usize,
    workloads: &[Workload],
    launcher: &mut Launcher,
) -> Result<bool, String> {
    let mut sets: Vec<Vec<Outcome>> = Vec::new();
    for set in 1..=2 {
        eprintln!("-- selfcheck set {set}");
        let mut outcomes = Vec::new();
        for &w in workloads {
            let (timed, _) = run_workload(w, cli, nproc, launcher)?;
            outcomes.push(timed.expect("selfcheck runs the timed pass"));
        }
        sets.push(outcomes);
    }
    let mut pass = sets.iter().flatten().all(Outcome::correct);
    println!("| workload | metric | set 1 | set 2 | worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for (i, w) in workloads.iter().enumerate() {
        for m in &END_TO_END {
            let a = sets[0][i].values.get(m.name).unwrap_or(0.0);
            let b = sets[1][i].values.get(m.name).unwrap_or(0.0);
            // Signed so that "worse" is positive whichever way is better.
            let worse = match m.better {
                Better::Lower => stats::rel_diff(a, b),
                Better::Higher => stats::rel_diff(b, a),
            };
            let (ok, bound) = match m.exact {
                true => (a == b, "exact".to_string()),
                false => (worse.abs() <= m.bound, format!("{:.0} %", m.bound * 100.0)),
            };
            pass &= ok;
            println!(
                "| {} | {} | {a:.6} | {b:.6} | {:+.2} % | {bound} | {} |",
                w.name,
                m.name,
                worse * 100.0,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(pass)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = parse_cli(&argv)?;
    cli.timed |= cli.selfcheck;
    std::env::set_current_dir(&cli.root)
        .map_err(|e| format!("entering {}: {e}", cli.root.display()))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    // Before anything is loaded: see `Launcher`.
    let mut launcher = Launcher::start(&cli.pod_cli)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stamp = host_stamp(&cli, nproc);
    eprintln!("build_s {:.3} (not a metric)\n{{{stamp}}}", cli.build_s);

    let workloads: Vec<Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.to_vec(),
    };
    if cli.selfcheck {
        return selfcheck(&cli, nproc, &workloads, &mut launcher);
    }

    let mut ok = true;
    let mut lines = Vec::new();
    for &w in &workloads {
        let (timed, traced) = run_workload(w, &cli, nproc, &mut launcher)?;
        ok &= timed.iter().chain(&traced).all(Outcome::correct);
        let timed = timed.map(|o| o.to_json(&end_to_end_table()));
        let traced = traced.map(|o| o.to_json(&per_layer_table()));
        lines.push(match cli.workload {
            // One workload: the contract's result line — the timed pass,
            // or the traced pass when it was asked for alone.
            Some(_) => timed.or(traced).expect("one pass ran"),
            None => format!(
                "\"{}\": {{\"end_to_end\": {}, \"per_layer\": {}}}",
                w.name,
                timed.unwrap_or("null".into()),
                traced.unwrap_or("null".into())
            ),
        });
    }
    if cli.workload.is_some() {
        println!("{}", lines[0]);
    } else {
        let report = format!("{{{stamp}, \"workloads\": {{{}}}}}", lines.join(", "));
        let path = format!("{OUT_DIR}/report.json");
        std::fs::write(&path, &report).map_err(|e| format!("writing {path}: {e}"))?;
        println!("{report}");
    }
    Ok(ok)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--launcher") {
        return child::launcher_main();
    }
    match real_main() {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("benchmark: a check failed");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}
