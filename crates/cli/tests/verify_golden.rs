//! Golden snapshot of the `pod-cli replay --verify` oracle rendering:
//! one clean replay (PASS, empty diff) and one with an injected
//! corruption (`--faults corrupt:<lba>`) that must FAIL with the
//! divergent LBA pinpointed. Through the spawned binary, the verdict is
//! the exit status: recovered faults pass, corruption fails naming the
//! LBA, every scheme verifies clean, and `doctor` passes.

mod common;

use common::{assert_golden, pod_cli, pod_cli_ok, SCHEMES};
use pod_cli::cmd_replay::render_verify;
use pod_core::{FaultPlan, Scheme, SystemConfig};
use pod_trace::TraceProfile;

fn render(faults: Option<FaultPlan>) -> String {
    let trace = TraceProfile::mail().scaled(0.004).generate(17);
    let mut cfg = SystemConfig::test_default();
    cfg.faults = faults;
    let rep = Scheme::Pod
        .builder()
        .config(cfg)
        .trace(&trace)
        .verify(true)
        .run()
        .expect("replay succeeds (verification verdict rides the report)");
    render_verify(rep.integrity.as_ref().expect("oracle attached"))
}

#[test]
fn clean_replay_verify_matches_the_pass_snapshot() {
    let rendered = render(None);
    assert!(
        rendered.contains("PASS"),
        "clean replay passes:\n{rendered}"
    );
    assert!(rendered.contains("divergent        0"), "{rendered}");
    assert_golden("verify_pass.txt", &rendered);
}

#[test]
fn corrupted_replay_verify_matches_the_fail_snapshot() {
    let rendered = render(Some(FaultPlan::corrupt(100)));
    assert!(
        rendered.contains("FAIL"),
        "corruption is caught:\n{rendered}"
    );
    assert!(
        rendered.contains("lba 100"),
        "the corrupted LBA is pinpointed:\n{rendered}"
    );
    assert_golden("verify_fail.txt", &rendered);
}

/// Through the binary: a faulty-but-recovered replay passes
/// verification, and silent corruption fails the process with the LBA
/// named.
#[test]
fn replay_verify_passes_recovered_faults_and_fails_corruption_naming_the_lba() {
    let mail = [
        "replay",
        "--scheme",
        "pod",
        "--profile",
        "mail",
        "--scale",
        "0.004",
    ];
    pod_cli_ok(&[&mail[..], &["--faults", "all:7", "--verify"]].concat());
    let out = pod_cli([&mail[..], &["--faults", "corrupt:100", "--verify"]].concat());
    assert!(
        !out.status.success(),
        "corrupt replay unexpectedly passed verification"
    );
    let all = [out.stdout, out.stderr].concat();
    let all = String::from_utf8_lossy(&all);
    assert!(all.contains("lba 100"), "{all}");
}

/// Every scheme verifies clean on a 16 k-request mail trace.
#[test]
fn every_scheme_verifies_clean_through_the_binary() {
    for scheme in SCHEMES {
        let mail = ["--profile", "mail", "--scale", "0.05", "--verify"];
        let stdout = pod_cli_ok(&[&["replay", "--scheme", scheme][..], &mail].concat());
        assert!(stdout.contains("divergent        0"), "{scheme}: {stdout}");
    }
}

/// `doctor` runs every scheme under the oracle and the invariant checks;
/// it exits 1 on any `FAIL` line.
#[test]
fn doctor_passes_on_homes() {
    pod_cli_ok(&["doctor", "--profile", "homes", "--scale", "0.01"]);
}
