//! `pod-cli doctor` — self-check: replay a workload through every
//! scheme under the integrity oracle, and verify the system's internal
//! invariants end to end (stored content, store consistency, journal
//! recovery, determinism, headline shapes). Exits 1 when any check
//! fails.

use crate::args::CliArgs;
use crate::CliResult;
use pod_core::experiments::run_schemes;
use pod_core::Scheme;
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    writeln!(
        out,
        "pod doctor: verifying invariants on `{}` at scale {}\n",
        args.profile, args.scale
    )?;
    let mut failures = 0usize;
    let mut check = |name: &str, ok: bool, detail: String| {
        if !ok {
            failures += 1;
        }
        writeln!(
            out,
            "  [{}] {name}{}",
            if ok { "ok" } else { "FAIL" },
            if detail.is_empty() {
                String::new()
            } else {
                format!(" — {detail}")
            }
        )
    };
    let trace = args.load_trace()?;
    let cfg = args.system_config()?;

    // 1. Every scheme end to end under the integrity oracle: each
    //    written block diffed through the whole stack (Post-Process's
    //    drain included), store invariants and journal recovery.
    let replay = |scheme: Scheme, verify: bool| {
        scheme
            .builder()
            .config(cfg.clone())
            .trace(&trace)
            .verify(verify)
            .run()
            .map_err(|e| e.to_string())
    };
    for scheme in Scheme::extended() {
        let verdict = replay(scheme, true).and_then(|report| {
            let integrity = report
                .integrity
                .expect("a verified replay carries its verdict");
            if integrity.passed() {
                Ok(integrity.summary())
            } else {
                Err(integrity.summary())
            }
        });
        check(
            &format!("{} integrity oracle", scheme.name()),
            verdict.is_ok(),
            verdict.unwrap_or_else(|e| e),
        )?;
    }

    // 2. Replay determinism: two runs give the same report, field for
    //    field.
    let a = replay(Scheme::Pod, false)?;
    let b = replay(Scheme::Pod, false)?;
    check(
        "replay determinism",
        format!("{a:?}") == format!("{b:?}"),
        format!(
            "{:.3} vs {:.3} ms",
            a.overall.mean_ms(),
            b.overall.mean_ms()
        ),
    )?;

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
    )?;
    check(
        "POD capacity <= iDedup capacity",
        reports[2].capacity_used_blocks <= reports[1].capacity_used_blocks,
        format!(
            "{} vs {} blocks",
            reports[2].capacity_used_blocks, reports[1].capacity_used_blocks
        ),
    )?;
    check(
        "NVRAM accounted in whole Map-table entries",
        reports[2].nvram_peak_bytes.is_multiple_of(20),
        format!("{} bytes", reports[2].nvram_peak_bytes),
    )?;

    writeln!(out)?;
    if failures == 0 {
        writeln!(out, "all checks passed")?;
        Ok(())
    } else {
        Err(format!("{failures} check(s) failed").into())
    }
}
