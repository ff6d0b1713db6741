//! `pod-cli figures` — export paper-figure CSVs from a recorded JSONL
//! event trace (written by `replay`/`compare` with `--trace-out`).
//!
//! Three per-epoch time series, one CSV each, covering the paper's
//! headline figures:
//!
//! * `dedup_ratio.csv` — chunks eliminated vs written per epoch
//!   (write-traffic reduction over time, Fig. 11's time axis).
//! * `partition_split.csv` — the iCache index/read split and ghost-hit
//!   counts per epoch (the adaptation the §III-C mechanism produces).
//! * `write_traffic_saved.csv` — the Cat-1/2/3/unique write mix and
//!   blocks saved per epoch (Fig. 5 classification over time).
//!
//! Rows are per scheme section and per epoch; `partition_split.csv`
//! only has rows for epochs that carry a state snapshot (every iCache
//! epoch boundary, so all of them on a default replay).

use crate::args::CliArgs;
use crate::cmd_stats::pct;
use crate::CliResult;
use pod_core::obs::{EpochRow, LayerHistograms, TraceRecorder};
use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;

/// The sections [`TraceRecorder::read_jsonl`] returns.
type Sections = [(TraceRecorder, Option<LayerHistograms>)];

pub fn run(args: &CliArgs, out: &mut dyn Write) -> CliResult {
    let path = args
        .input
        .as_deref()
        .ok_or("figures needs --in <trace.jsonl> (write one with replay --trace-out)")?;
    let out_dir = args.out.as_deref().unwrap_or("figures");
    let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let sections = TraceRecorder::read_jsonl(&body)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;
    for (name, csv) in export(&sections) {
        let target = Path::new(out_dir).join(name);
        std::fs::write(&target, csv).map_err(|e| format!("writing {}: {e}", target.display()))?;
        writeln!(out, "wrote {}", target.display())?;
    }
    Ok(())
}

/// Build the three CSVs from read sections. Split from [`run`] so
/// tests can assert on the exact cell values without touching the
/// filesystem.
pub fn export(sections: &Sections) -> Vec<(&'static str, String)> {
    let dedup_ratio = |e: &EpochRow| {
        let (deduped, written) = (e.deduped_blocks, e.written_blocks);
        let ratio = saved_pct(e);
        Some(format!("{},{deduped},{written},{ratio:.2}", e.requests))
    };
    let partition_split = |e: &EpochRow| {
        let ic = e.snap?.icache;
        Some(format!(
            "{},{},{},{},{},{},{},{}",
            ic.index_bytes,
            ic.read_bytes,
            ic.index_per_mille,
            ic.repartitions,
            ic.epoch_ghost_index_hits,
            ic.epoch_ghost_read_hits,
            ic.benefit_index_us,
            ic.benefit_read_us,
        ))
    };
    let write_traffic = |e: &EpochRow| {
        Some(format!(
            "{},{},{},{},{},{},{},{:.2}",
            e.writes,
            e.cat1,
            e.cat2,
            e.cat3,
            e.unique,
            e.deduped_blocks,
            e.written_blocks,
            saved_pct(e),
        ))
    };
    vec![
        (
            "dedup_ratio.csv",
            csv(
                sections,
                "requests,deduped_blocks,written_blocks,dedup_ratio_pct",
                dedup_ratio,
            ),
        ),
        (
            "partition_split.csv",
            csv(
                sections,
                "index_bytes,read_bytes,index_per_mille,repartitions,\
                 ghost_index_hits,ghost_read_hits,benefit_index_us,benefit_read_us",
                partition_split,
            ),
        ),
        (
            "write_traffic_saved.csv",
            csv(
                sections,
                "writes,cat1,cat2,cat3,unique,deduped_blocks,written_blocks,saved_pct",
                write_traffic,
            ),
        ),
    ]
}

/// One CSV: a `scheme,trace,epoch,<columns>` header, then a line per
/// epoch row for which `cells` gives the remaining cells.
fn csv(sections: &Sections, columns: &str, cells: impl Fn(&EpochRow) -> Option<String>) -> String {
    let mut out = format!("scheme,trace,epoch,{columns}\n");
    for (rec, _) in sections {
        for e in rec.rows() {
            if let Some(cells) = cells(e) {
                let _ = writeln!(out, "{},{},{},{cells}", rec.scheme(), rec.trace(), e.epoch);
            }
        }
    }
    out
}

/// Chunks eliminated as a percentage of chunks deduplicated or written.
fn saved_pct(e: &EpochRow) -> f64 {
    pct(e.deduped_blocks, e.deduped_blocks + e.written_blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_core::StateSnapshot;

    fn two_epoch_jsonl() -> String {
        let mut snap0 = StateSnapshot::default();
        snap0.icache.index_bytes = 4 << 20;
        snap0.icache.read_bytes = 4 << 20;
        snap0.icache.index_per_mille = 500;
        let mut snap1 = snap0;
        snap1.seq = 1;
        snap1.icache.index_per_mille = 625;
        snap1.icache.repartitions = 1;
        let mut line0 = String::new();
        snap0.push_json_fields(&mut line0);
        let mut line1 = String::new();
        snap1.push_json_fields(&mut line1);
        format!(
            concat!(
                "{{\"type\":\"meta\",\"version\":1,\"scheme\":\"POD\",\"trace\":\"t\",",
                "\"epoch_requests\":2,\"epochs\":2}}\n",
                "{{\"type\":\"epoch\",\"epoch\":0,\"requests\":2,\"reads\":0,\"read_hits\":0,",
                "\"frag_sum\":0,\"frag_reads\":0,\"writes\":2,\"cat1\":1,\"cat2\":0,\"cat3\":0,",
                "\"unique\":1,\"deduped_blocks\":4,\"written_blocks\":4,\"repartitions\":0,",
                "\"swap_blocks\":0,\"scans\":0,\"scanned_chunks\":0,\"cache_us\":0,\"dedup_us\":9,",
                "\"disk_us\":0,\"snap\":{{{line0}}}}}\n",
                "{{\"type\":\"epoch\",\"epoch\":1,\"requests\":2,\"reads\":0,\"read_hits\":0,",
                "\"frag_sum\":0,\"frag_reads\":0,\"writes\":2,\"cat1\":2,\"cat2\":0,\"cat3\":0,",
                "\"unique\":0,\"deduped_blocks\":8,\"written_blocks\":0,\"repartitions\":1,",
                "\"swap_blocks\":0,\"scans\":0,\"scanned_chunks\":0,\"cache_us\":0,\"dedup_us\":9,",
                "\"disk_us\":0,\"snap\":{{{line1}}}}}\n",
                "{{\"type\":\"summary\",\"requests\":4,\"reads\":0,\"read_hits\":0,",
                "\"frag_sum\":0,\"frag_reads\":0,\"writes\":4,\"cat1\":3,\"cat2\":0,\"cat3\":0,",
                "\"unique\":1,\"deduped_blocks\":12,\"written_blocks\":4,\"repartitions\":1,",
                "\"swap_blocks\":0,\"scans\":0,\"scanned_chunks\":0,\"cache_us\":0,\"dedup_us\":18,",
                "\"disk_us\":0,\"snap\":{{{line1}}}}}\n",
            ),
            line0 = line0,
            line1 = line1,
        )
    }

    #[test]
    fn csvs_carry_per_epoch_series() {
        let sections = TraceRecorder::read_jsonl(&two_epoch_jsonl()).expect("parse");
        let csvs = export(&sections);
        assert_eq!(csvs.len(), 3);

        let ratio = &csvs[0].1;
        let mut lines = ratio.lines();
        assert!(lines
            .next()
            .expect("header")
            .starts_with("scheme,trace,epoch"));
        assert_eq!(lines.next(), Some("POD,t,0,2,4,4,50.00"));
        assert_eq!(lines.next(), Some("POD,t,1,2,8,0,100.00"));

        let split = &csvs[1].1;
        assert_eq!(split.lines().count(), 3, "header + 2 snapshot rows");
        assert!(split.contains(",500,0,"), "epoch 0 split");
        assert!(split.contains(",625,1,"), "epoch 1 split after repartition");

        let traffic = &csvs[2].1;
        assert!(traffic.contains("POD,t,0,2,1,0,0,1,4,4,50.00"));
        assert!(traffic.contains("POD,t,1,2,2,0,0,0,8,0,100.00"));
    }

    #[test]
    fn snapless_epochs_are_skipped_in_partition_csv() {
        let jsonl = concat!(
            "{\"type\":\"meta\",\"version\":1,\"scheme\":\"Native\",\"trace\":\"t\",",
            "\"epoch_requests\":2,\"epochs\":1}\n",
            "{\"type\":\"epoch\",\"epoch\":0,\"requests\":2,\"reads\":2,\"read_hits\":0,",
            "\"frag_sum\":2,\"frag_reads\":2,\"writes\":0,\"cat1\":0,\"cat2\":0,\"cat3\":0,",
            "\"unique\":0,\"deduped_blocks\":0,\"written_blocks\":0,\"repartitions\":0,",
            "\"swap_blocks\":0,\"scans\":0,\"scanned_chunks\":0,\"cache_us\":0,\"dedup_us\":0,",
            "\"disk_us\":0}\n",
            "{\"type\":\"summary\",\"requests\":2,\"reads\":2,\"read_hits\":0,",
            "\"frag_sum\":2,\"frag_reads\":2,\"writes\":0,\"cat1\":0,\"cat2\":0,\"cat3\":0,",
            "\"unique\":0,\"deduped_blocks\":0,\"written_blocks\":0,\"repartitions\":0,",
            "\"swap_blocks\":0,\"scans\":0,\"scanned_chunks\":0,\"cache_us\":0,\"dedup_us\":0,",
            "\"disk_us\":0}\n",
        );
        let sections = TraceRecorder::read_jsonl(jsonl).expect("parse");
        let csvs = export(&sections);
        assert_eq!(csvs[1].1.lines().count(), 1, "header only");
        assert_eq!(csvs[0].1.lines().count(), 2, "ratio row still exported");
    }
}
