//! `pod-cli doctor` — self-check: run a workload's writes through every
//! dedup policy, replay it, and verify the system's internal invariants
//! end to end (store consistency, journal recovery, determinism,
//! headline shapes). Exits 1 when any check fails.

use crate::args::CliArgs;
use pod_core::experiments::run_schemes;
use pod_core::Scheme;
use pod_dedup::{DedupConfig, DedupEngine, DedupPolicy, WriteScratch};

pub fn run(args: &CliArgs) -> Result<(), String> {
    let mut failures = 0usize;
    let mut check = |name: &str, ok: bool, detail: String| {
        println!(
            "  [{}] {name}{}",
            if ok { "ok" } else { "FAIL" },
            if detail.is_empty() {
                String::new()
            } else {
                format!(" — {detail}")
            }
        );
        if !ok {
            failures += 1;
        }
    };

    println!(
        "pod doctor: verifying invariants on `{}` at scale {}\n",
        args.profile, args.scale
    );
    let trace = args.load_trace()?;
    let cfg = args.system_config()?;

    // 1. Engine-level: process every write through each policy (with
    //    Post-Process's backlog then scanned) and check store
    //    invariants + journal recovery.
    let logical = trace.address_span_blocks().max(1_024);
    let mut scratch = WriteScratch::new();
    for policy in [
        DedupPolicy::Native,
        DedupPolicy::FullDedupe,
        DedupPolicy::IDedup,
        DedupPolicy::SelectDedupe,
        DedupPolicy::PostProcess,
        DedupPolicy::IODedup,
    ] {
        let mut engine = DedupEngine::new(
            policy,
            DedupConfig {
                logical_blocks: logical,
                overflow_blocks: logical / 2 + 4_096,
                ..DedupConfig::default()
            },
        );
        let mut run = trace
            .requests
            .iter()
            .filter(|r| r.op.is_write())
            .try_for_each(|req| engine.process_write_into(req, &mut scratch).map(drop));
        if run.is_ok() && policy == DedupPolicy::PostProcess {
            run = engine.post_process_scan(engine.scan_backlog()).map(drop);
        }
        let err = run.err().map(|e| e.to_string()).unwrap_or_default();
        let inv = engine.store().check_invariants();
        let jr = engine.store().verify_journal_recovery();
        check(
            &format!("{} store invariants + journal recovery", policy.name()),
            err.is_empty() && inv.is_ok() && jr.is_ok(),
            [
                err,
                inv.err().map(|e| e.to_string()).unwrap_or_default(),
                jr.err().map(|e| e.to_string()).unwrap_or_default(),
            ]
            .into_iter()
            .find(|s| !s.is_empty())
            .unwrap_or_default(),
        );
    }

    // 2. Replay determinism.
    let replay = || {
        Scheme::Pod
            .builder()
            .config(cfg.clone())
            .trace(&trace)
            .run()
            .map_err(|e| e.to_string())
    };
    let a = replay()?;
    let b = replay()?;
    check(
        "replay determinism",
        a.overall.mean_us() == b.overall.mean_us() && a.counters == b.counters,
        format!(
            "{:.3} vs {:.3} ms",
            a.overall.mean_ms(),
            b.overall.mean_ms()
        ),
    );

    // 3. Headline shapes.
    let reports = run_schemes(&[Scheme::Native, Scheme::IDedup, Scheme::Pod], &trace, &cfg)
        .map_err(|e| e.to_string())?;
    check(
        "POD beats Native on overall response time",
        reports[2].overall.mean_us() < reports[0].overall.mean_us(),
        format!(
            "POD {:.2} ms vs Native {:.2} ms",
            reports[2].overall.mean_ms(),
            reports[0].overall.mean_ms()
        ),
    );
    check(
        "POD capacity <= iDedup capacity",
        reports[2].capacity_used_blocks <= reports[1].capacity_used_blocks,
        format!(
            "{} vs {} blocks",
            reports[2].capacity_used_blocks, reports[1].capacity_used_blocks
        ),
    );
    check(
        "NVRAM accounted in whole Map-table entries",
        reports[2].nvram_peak_bytes.is_multiple_of(20),
        format!("{} bytes", reports[2].nvram_peak_bytes),
    );

    println!();
    if failures == 0 {
        println!("all checks passed");
        Ok(())
    } else {
        Err(format!("{failures} check(s) failed"))
    }
}
