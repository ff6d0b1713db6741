//! `pod-cli stats` — render a JSONL event trace (produced by
//! `pod-cli replay --trace-out` or `pod-cli compare --trace-out`) as
//! per-scheme tables, per-layer latency histograms and epoch-granular
//! sparkline timelines.

use crate::args::CliArgs;
use crate::CliResult;
use pod_core::obs::{EpochRow, LayerHistograms, TraceRecorder};
use pod_core::{Layer, StateSnapshot};
use std::io::Write;

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    let path = args
        .input
        .as_deref()
        .ok_or("stats needs --in <trace.jsonl> (write one with replay --trace-out)")?;
    let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    write!(out, "{}", render(&body)?)?;
    Ok(())
}

/// Render the whole JSONL document. Split from [`run`] so the golden
/// snapshot test can diff the exact text the user sees.
pub fn render(jsonl: &str) -> Result<String, String> {
    let sections = TraceRecorder::read_jsonl(jsonl)?;
    let mut out = String::new();
    for (rec, hists) in &sections {
        render_section(&mut out, rec, hists.as_ref());
    }
    render_tenant_breakdown(&mut out, &sections);
    Ok(out)
}

/// Cross-section per-tenant table, emitted only when at least one
/// section is tenant-tagged — untagged (single-stack) traces render
/// byte-identically to older builds.
fn render_tenant_breakdown(
    out: &mut String,
    sections: &[(TraceRecorder, Option<LayerHistograms>)],
) {
    use std::fmt::Write as _;
    if sections.iter().all(|(rec, _)| rec.tenant().is_none()) {
        return;
    }
    // QoS columns appear only when some tenant was throttled or
    // quota-evicted, so policy-free traces keep the historical table
    // shape.
    let qos = sections.iter().any(|(rec, _)| {
        let sum = rec.totals();
        sum.throttle_waits > 0 || sum.quota_evictions > 0
    });
    writeln!(
        out,
        "per-tenant breakdown:\n  tenant  trace            requests    writes  dedup-blk  dedup%{}",
        if qos {
            "  throttle   wait ms  evicted"
        } else {
            ""
        }
    )
    .expect("write to string");
    for (rec, _) in sections {
        let Some(tenant) = rec.tenant() else { continue };
        let sum = rec.totals();
        write!(
            out,
            "  {tenant:>6}  {:<16} {:>9} {:>9} {:>10}  {:>5.1}%",
            rec.trace(),
            sum.requests,
            sum.writes,
            sum.deduped_blocks,
            pct(
                sum.deduped_blocks,
                sum.deduped_blocks.saturating_add(sum.written_blocks)
            ),
        )
        .expect("write to string");
        if qos {
            write!(
                out,
                "  {:>8}  {:>8.1} {:>8}",
                sum.throttle_waits,
                sum.throttle_wait_us as f64 / 1e3,
                sum.quota_evicted_fps,
            )
            .expect("write to string");
        }
        out.push('\n');
    }
    out.push('\n');
}

/// `part` as a percentage of `whole` (0 when `whole` is 0). Shared
/// with the `monitor` dashboard and the `figures` CSVs.
pub(crate) fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Eight-level sparkline of `values`, scaled to their maximum. Shared
/// with the `monitor` dashboard.
pub(crate) fn sparkline(values: &[u64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0).max(1) as f64;
    values
        .iter()
        .map(|&v| {
            let lvl = (v as f64 / max * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[lvl.min(LEVELS.len() - 1)]
        })
        .collect()
}

fn render_section(out: &mut String, rec: &TraceRecorder, hists: Option<&LayerHistograms>) {
    use std::fmt::Write as _;
    let sum = rec.totals();
    let epochs = rec.rows();

    let tenant_tag = rec
        .tenant()
        .map(|t| format!("tenant {t}, "))
        .unwrap_or_default();
    writeln!(
        out,
        "== {} / {} ({tenant_tag}{} requests/epoch, {} epochs) ==\n",
        rec.scheme(),
        rec.trace(),
        rec.epoch_requests(),
        epochs.len()
    )
    .expect("write to string");
    writeln!(
        out,
        "requests {}   reads {} (cache hit {:.1}%)   writes {}",
        sum.requests,
        sum.reads,
        pct(sum.read_hits, sum.reads),
        sum.writes
    )
    .expect("write to string");
    if sum.frag_reads > 0 {
        writeln!(
            out,
            "read fragmentation: {:.2} fragments per missed read",
            sum.read_fragmentation()
        )
        .expect("write to string");
    }

    writeln!(out, "\nwrite classification:").expect("write to string");
    for (label, n) in [
        ("Cat-1 fully-redundant sequential", sum.cat1),
        ("Cat-2 scattered partial", sum.cat2),
        ("Cat-3 contiguous partial", sum.cat3),
        ("unique", sum.unique),
    ] {
        writeln!(out, "  {label:<34} {n:>9}  {:>5.1}%", pct(n, sum.writes))
            .expect("write to string");
    }
    writeln!(
        out,
        "  chunks: {} eliminated, {} written to disk",
        sum.deduped_blocks, sum.written_blocks
    )
    .expect("write to string");

    writeln!(
        out,
        "\nbackground: {} repartitions, {} swap blocks, {} scans ({} chunks)",
        sum.repartitions, sum.swap_blocks, sum.scans, sum.scanned_chunks
    )
    .expect("write to string");

    // QoS tallies are nonzero only in serve-policy traces, so legacy
    // renders are byte-identical.
    if sum.throttle_waits > 0 || sum.quota_evictions > 0 {
        writeln!(
            out,
            "qos: {} throttled requests (+{:.1} ms simulated), {} quota evictions ({} fingerprints)",
            sum.throttle_waits,
            sum.throttle_wait_us as f64 / 1e3,
            sum.quota_evictions,
            sum.quota_evicted_fps,
        )
        .expect("write to string");
    }

    // Each total fits in a u64 (the reader checks); their sum may not.
    let total_us = sum
        .cache_us
        .saturating_add(sum.dedup_us)
        .saturating_add(sum.disk_us);
    writeln!(
        out,
        "layer time: cache {:.1}%  dedup {:.1}%  disk {:.1}%  (total {:.1} s)",
        pct(sum.cache_us, total_us),
        pct(sum.dedup_us, total_us),
        pct(sum.disk_us, total_us),
        total_us as f64 / 1e6
    )
    .expect("write to string");

    // Host wall-clock time is nonzero only in traces recorded with
    // profiling on, so legacy traces render byte-identically.
    if sum.host_ns > 0 {
        writeln!(
            out,
            "host time: {:.1} ms wall-clock attributed across the stack",
            sum.host_ns as f64 / 1e6
        )
        .expect("write to string");
    }

    if let Some(snap) = &sum.snap {
        render_snapshot(out, snap);
    }

    if epochs.len() > 1 {
        writeln!(out, "\ntimeline ({} epochs):", epochs.len()).expect("write to string");
        let series = |f: fn(&EpochRow) -> u64| epochs.iter().map(f).collect::<Vec<u64>>();
        for (label, values) in [
            ("writes", series(|e| e.writes)),
            ("chunks eliminated", series(|e| e.deduped_blocks)),
            ("dedup layer µs", series(|e| e.dedup_us)),
        ] {
            writeln!(out, "  {label:<18} {}", sparkline(&values)).expect("write to string");
        }
        // Host wall-clock per epoch, only for profiled traces.
        let host = series(|e| e.host_ns);
        if host.iter().any(|&v| v > 0) {
            writeln!(out, "  {:<18} {}", "host ns", sparkline(&host)).expect("write to string");
        }
        // Snapshot-derived series: the partition split over time.
        let split: Vec<u64> = epochs
            .iter()
            .filter_map(|e| Some(e.snap?.icache.index_per_mille))
            .collect();
        if split.len() > 1 {
            writeln!(
                out,
                "  {:<18} {}",
                "index split \u{2030}",
                sparkline(&split)
            )
            .expect("write to string");
        }
    }

    for layer in Layer::ALL {
        let Some(hist) = hists.map(|h| h.layer(layer)).filter(|h| h.total() > 0) else {
            continue;
        };
        writeln!(out, "\nlatency histogram — {} layer:", layer.name()).expect("write to string");
        out.push_str(&hist.render(30));
    }
    out.push('\n');
}

/// Render the snapshot-derived "final state" block: partition split,
/// ghost accounting, Index heat, Map fan-in, fragmentation.
fn render_snapshot(out: &mut String, snap: &StateSnapshot) {
    use std::fmt::Write as _;
    let mib = |b: u64| b as f64 / (1024.0 * 1024.0);
    let ic = &snap.icache;
    let idx = &snap.dedup.index;
    let map = &snap.dedup.map;
    writeln!(
        out,
        "\nfinal state (snapshot {} @ {} requests):",
        snap.seq, snap.requests
    )
    .expect("write to string");
    writeln!(
        out,
        "  iCache: index {:.1} MiB / read {:.1} MiB ({}\u{2030} index), {} epochs, {} repartitions",
        mib(ic.index_bytes),
        mib(ic.read_bytes),
        ic.index_per_mille,
        ic.epochs,
        ic.repartitions,
    )
    .expect("write to string");
    writeln!(
        out,
        "  ghosts: index {} hits / read {} hits (cumulative), cost-benefit {} vs {} \u{b5}s",
        ic.ghost_index.hits, ic.ghost_read.hits, ic.benefit_index_us, ic.benefit_read_us,
    )
    .expect("write to string");
    writeln!(
        out,
        "  index table: {}/{} entries, {} hits / {} misses, {} evictions   heat {}",
        idx.entries,
        idx.capacity,
        idx.hits,
        idx.misses,
        idx.evictions,
        sparkline(&idx.heat),
    )
    .expect("write to string");
    writeln!(
        out,
        "  map table: {} mapped, {} unique / {} shared blocks, {} redirected   fan-in {}",
        map.mapped,
        map.unique_blocks,
        map.shared_blocks,
        map.redirected,
        sparkline(&map.fan_in),
    )
    .expect("write to string");
    writeln!(
        out,
        "  overflow: {}/{} blocks used, fragmentation {}\u{2030}   scan backlog {}",
        map.overflow.used,
        map.overflow.capacity,
        map.overflow.frag_per_mille,
        snap.dedup.scan_backlog,
    )
    .expect("write to string");
    if snap.tier_target_bytes != 0 {
        writeln!(
            out,
            "  shared tier: index target {:.1} MiB",
            mib(snap.tier_target_bytes),
        )
        .expect("write to string");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0, 5, 10]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }

    #[test]
    fn render_rejects_truncated_traces() {
        assert!(render("").is_err(), "no meta");
        let meta = r#"{"type":"meta","version":1,"scheme":"POD","trace":"t","epoch_requests":4,"epochs":0}"#;
        assert!(
            render(meta).unwrap_err().contains("no summary"),
            "meta without summary"
        );
        assert!(render("{\"type\":\"epoch\"}").is_err(), "epoch before meta");
    }
}
