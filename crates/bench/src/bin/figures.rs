//! Regenerate every table and figure of the POD paper.
//!
//! ```text
//! cargo run --release -p pod-bench --bin figures [-- --scale 0.1 --seed 42 --out results/]
//! ```
//!
//! Prints each artifact as CSV and, when `--out` is given, also writes
//! one CSV file per artifact. `--scale 1.0` reproduces the paper's full
//! trace sizes (Table II request counts); smaller scales run the same
//! workload shapes proportionally faster.

use pod_core::experiments::{
    self, consolidated_comparison, consolidated_csv, fig1, fig1_csv, fig2, fig2_csv, fig3,
    fig3_csv, load_sweep, memory_sweep, restore_csv, restore_experiment, scheduler_sweep,
    scheme_comparison, sweep_csv, table1, table1_csv, table2, table2_csv, threshold_sweep,
};
use pod_trace::TraceProfile;
use std::io::Write;

struct Args {
    scale: f64,
    seed: u64,
    out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        seed: experiments::DEFAULT_SEED,
        out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                let scale = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
                args.scale = TraceProfile::check_scale(scale).unwrap_or_else(|e| die(&e));
                i += 2;
            }
            "--seed" => {
                args.seed = argv
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
                i += 2;
            }
            "--out" => {
                args.out = Some(
                    argv.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--out needs a directory")),
                );
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--scale F] [--seed N] [--out DIR]\n\
                     regenerates Table II and Figures 1,2,3,8,9a,9b,10,11 plus the\n\
                     §IV-D overhead numbers of the POD paper (IPDPS'14)"
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

fn emit(out: &Option<String>, name: &str, csv: &str) {
    println!("## {name}\n{csv}");
    if let Some(dir) = out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {dir}: {e}")));
        let path = format!("{dir}/{name}.csv");
        let mut f =
            std::fs::File::create(&path).unwrap_or_else(|e| die(&format!("create {path}: {e}")));
        f.write_all(csv.as_bytes())
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
    }
}

fn main() {
    let args = parse_args();
    let t0 = std::time::Instant::now();
    eprintln!(
        "regenerating all artifacts at scale {} seed {} ...",
        args.scale, args.seed
    );

    emit(
        &args.out,
        "table2",
        &table2_csv(&table2(args.scale, args.seed)),
    );
    // Table I runs the extended scheme set on web-vm at a capped scale
    // (it is a qualitative-claims check, not a full evaluation).
    emit(
        &args.out,
        "table1",
        &table1_csv(
            &table1(args.scale.min(0.1), args.seed)
                .unwrap_or_else(|e| die(&format!("table1: {e}"))),
        ),
    );
    emit(&args.out, "fig1", &fig1_csv(&fig1(args.scale, args.seed)));
    emit(&args.out, "fig2", &fig2_csv(&fig2(args.scale, args.seed)));
    emit(
        &args.out,
        "fig3",
        &fig3_csv(&fig3(args.scale, args.seed).unwrap_or_else(|e| die(&format!("fig3: {e}")))),
    );

    let cmp = scheme_comparison(args.scale, args.seed)
        .unwrap_or_else(|e| die(&format!("scheme comparison: {e}")));
    emit(&args.out, "fig8", &cmp.fig8_csv());
    emit(&args.out, "fig9a", &cmp.fig9a_csv());
    emit(&args.out, "fig9b", &cmp.fig9b_csv());
    emit(&args.out, "fig10", &cmp.fig10_csv());
    emit(&args.out, "fig11", &cmp.fig11_csv());
    emit(&args.out, "overhead", &cmp.overhead_csv());
    emit(&args.out, "pod_vs_select", &cmp.pod_vs_select_csv());
    emit(&args.out, "tail_latency", &cmp.tail_latency_csv());

    // Ablation sweeps (capped scale: sensitivity studies, not headline
    // reproductions).
    let ab_scale = args.scale.min(0.1);
    emit(
        &args.out,
        "ablation_threshold",
        &sweep_csv(
            "threshold",
            &threshold_sweep(ab_scale, args.seed)
                .unwrap_or_else(|e| die(&format!("threshold sweep: {e}"))),
        ),
    );
    emit(
        &args.out,
        "ablation_scheduler",
        &sweep_csv(
            "scheduler",
            &scheduler_sweep(ab_scale, args.seed)
                .unwrap_or_else(|e| die(&format!("scheduler sweep: {e}"))),
        ),
    );
    emit(
        &args.out,
        "ablation_memory",
        &sweep_csv(
            "memory_scale",
            &memory_sweep(ab_scale, args.seed)
                .unwrap_or_else(|e| die(&format!("memory sweep: {e}"))),
        ),
    );
    emit(
        &args.out,
        "restore",
        &restore_csv(
            &restore_experiment(ab_scale, args.seed)
                .unwrap_or_else(|e| die(&format!("restore experiment: {e}"))),
        ),
    );
    emit(
        &args.out,
        "load_sweep",
        &sweep_csv(
            "load",
            &load_sweep(ab_scale, args.seed).unwrap_or_else(|e| die(&format!("load sweep: {e}"))),
        ),
    );
    emit(
        &args.out,
        "consolidated",
        &consolidated_csv(
            &consolidated_comparison(ab_scale, args.seed)
                .unwrap_or_else(|e| die(&format!("consolidated comparison: {e}"))),
        ),
    );

    eprintln!("done in {:?}", t0.elapsed());
}
