//! Golden snapshot of the `pod-cli monitor` dashboard: replay a small
//! deterministic workload with a [`MonitorSink`] attached (exactly
//! what `pod-cli monitor --headless` does) and diff the final frame
//! against a committed fixture. Replays are deterministic and the
//! frame contains no wall-clock time, so the text is stable. The
//! spawned binary's own headless frame draws the same sections.

mod common;

use common::{assert_golden, pod_cli_ok};
use pod_cli::cmd_monitor::MonitorSink;
use pod_core::{Scheme, SystemConfig};
use pod_trace::TraceProfile;

#[test]
fn headless_frame_matches_the_committed_snapshot() {
    let trace = TraceProfile::mail().scaled(0.004).generate(17);
    let (rep, mut chain) = Scheme::Pod
        .builder()
        .config(SystemConfig::test_default())
        .trace(&trace)
        .observer(MonitorSink::new(false, "POD", trace.name.clone()))
        .run_observed()
        .expect("replay succeeds");
    let sink: MonitorSink = chain.take_sink().expect("sink attached");
    let frame = sink.render_frame();

    // The dashboard's acceptance surface: every section is present and
    // fed from real snapshot data.
    for needle in [
        "== monitor — POD / mail",
        "partition split ‰",
        "ghost hits/epoch",
        "write mix (epoch)",
        "write mix (total)",
        "index heat",
        "map fan-in",
        "overflow",
    ] {
        assert!(frame.contains(needle), "missing {needle:?}:\n{frame}");
    }
    // One snapshot per epoch plus the final partial epoch; `seq` is
    // 0-based, so the last frame shows `snapshots - 1`.
    assert!(rep.stack.snapshots > 1, "replay spans several epochs");
    assert!(
        frame.contains(&format!("snapshot {}", rep.stack.snapshots - 1)),
        "last frame carries the final snapshot:\n{frame}"
    );

    assert_golden("monitor.txt", &frame);
}

/// The binary's headless dashboard at its own defaults draws the
/// partition split and the index heat.
#[test]
fn headless_monitor_draws_its_sections() {
    let monitor = [
        "monitor",
        "--scheme",
        "pod",
        "--profile",
        "mail",
        "--scale",
        "0.01",
    ];
    let stdout = pod_cli_ok(&[&monitor[..], &["--headless"]].concat());
    for needle in ["partition split", "index heat"] {
        assert!(stdout.contains(needle), "missing {needle:?}:\n{stdout}");
    }
}
