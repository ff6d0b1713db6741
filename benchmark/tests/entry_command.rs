//! The entry command end to end, at `--quick` size: a clean run prints
//! the contract's result line and exits 0; a workload corrupted on
//! purpose exits non-zero with failed operations counted.

use pod_core::obs::json::{parse, Json};
use std::process::Command;

/// Run `benchmark/run.sh args…`; returns the exit code and the parsed
/// last line of stdout.
fn run_sh(args: &[&str]) -> (i32, Json) {
    let out = Command::new("bash")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/run.sh"))
        .args(args)
        .output()
        .expect("bash runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let result = parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    (out.status.code().expect("exited"), result)
}

fn count(result: &Json, key: &str) -> u64 {
    result
        .get(key)
        .and_then(Json::as_u64)
        .expect("whole number")
}

#[test]
fn clean_quick_run_prints_the_result_line_and_exits_zero() {
    let (code, result) = run_sh(&["--quick", "--workload", "webvm-native", "--trace", "0"]);
    assert_eq!(code, 0);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(count(&result, "failed"), 0);
    // Two timed repetitions of process and engine, plus oracle blocks.
    assert!(count(&result, "attempted") > 4 * 30_000);
    let wall = result
        .get("metrics")
        .and_then(|m| m.get("wall_s"))
        .expect("wall_s");
    assert!(wall.get("value").and_then(Json::as_f64).expect("number") > 0.0);
}

#[test]
fn corrupted_workload_exits_non_zero_with_failed_operations() {
    // `corrupt:100` silently flips one stored block at the end of the
    // replay: the child's `--verify` fails its exit status, and the
    // in-process oracle reports the divergent blocks.
    let (code, result) = run_sh(&[
        "--quick",
        "--workload",
        "readmix-fiu",
        "--faults",
        "corrupt:100",
    ]);
    assert_ne!(code, 0);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(false));
    assert!(count(&result, "failed") > 0);
    assert!(count(&result, "failed") <= count(&result, "attempted"));
}
