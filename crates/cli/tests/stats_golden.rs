//! Golden snapshot of the `pod-cli stats` rendering: replay a small
//! deterministic workload with the trace recorder attached (exactly
//! what `pod-cli replay --trace-out` does), render the JSONL through
//! the `stats` formatter, and diff against a committed fixture. Through
//! the spawned binary, `replay` and `stats` print one write
//! classification under every scheme.

mod common;

use common::{arg, assert_golden, pod_cli_ok, scratch, SCHEMES};
use pod_cli::cmd_stats;
use pod_core::obs::{LayerHistograms, TraceRecorder};
use pod_core::{Scheme, SystemConfig};
use pod_trace::TraceProfile;

/// The JSONL a `pod-cli compare --trace-out` of two schemes writes.
fn replay_jsonl() -> String {
    let trace = TraceProfile::mail().scaled(0.004).generate(17);
    let mut out = Vec::new();
    for scheme in [Scheme::Native, Scheme::Pod] {
        let (_, mut chain) = scheme
            .builder()
            .config(SystemConfig::test_default())
            .trace(&trace)
            .observer(LayerHistograms::new())
            .record(256)
            .run_observed()
            .expect("replay succeeds");
        let hists: LayerHistograms = chain.take_sink().expect("histograms attached");
        let recorder: TraceRecorder = chain.take_sink().expect("recorder attached");
        recorder
            .write_jsonl(&mut out, Some(&hists))
            .expect("write to memory");
    }
    String::from_utf8(out).expect("utf8")
}

#[test]
fn stats_rendering_matches_the_committed_snapshot() {
    let rendered = cmd_stats::render(&replay_jsonl()).expect("well-formed trace");

    // The acceptance surface: the classification table is present, per
    // category, for the POD section.
    for label in ["Cat-1", "Cat-2", "Cat-3", "unique"] {
        assert!(rendered.contains(label), "missing {label}:\n{rendered}");
    }
    assert!(rendered.contains("== POD / mail"), "POD section present");
    assert!(rendered.contains("layer time:"), "layer shares present");

    assert_golden("stats.txt", &rendered);
}

/// `replay` prints the report's whole-replay row, `stats` the
/// recorder's totals: one fold of one event stream, so under every
/// scheme the Cat-1/2/3/unique counts are the same four numbers.
#[test]
fn replay_and_stats_print_one_write_classification() {
    let dir = scratch("one-fold");
    for scheme in SCHEMES {
        let jsonl = dir.join(format!("{scheme}.jsonl"));
        let mail = [
            "--profile",
            "mail",
            "--scale",
            "0.02",
            "--trace-out",
            arg(&jsonl),
        ];
        let report = pod_cli_ok(&[&["replay", "--scheme", scheme][..], &mail].concat());
        // `  Cat-1 <kind> <count> <share>`: the next-to-last field of
        // the last such row.
        let rendered = pod_cli_ok(&["stats", "--in", arg(&jsonl)]);
        let [a, b, c, d] = ["Cat-1", "Cat-2", "Cat-3", "unique"].map(|label| {
            let row = rendered
                .lines()
                .rfind(|l| l.starts_with(&format!("  {label} ")));
            let fields: Vec<&str> = row.expect("a row per class").split_whitespace().collect();
            fields[fields.len() - 2]
        });
        let row = format!("write classification: {a} Cat-1, {b} Cat-2, {c} Cat-3, {d} unique");
        assert!(
            report.lines().any(|l| l == row),
            "{scheme}: replay and stats disagree: {row}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
