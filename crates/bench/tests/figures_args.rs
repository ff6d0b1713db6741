//! The `figures` binary's argument checks, through the spawned binary.

use std::process::Command;

/// A `--scale` outside (0, 1000] exits 2 with the same message
/// `pod-cli` gives, before any experiment runs; it used to reach
/// `TraceProfile::scaled` and panic (or, above the ceiling, ask for an
/// unbounded trace).
#[test]
fn bad_scale_is_an_error_not_a_panic() {
    for scale in ["0", "-1", "nan", "inf", "1e300"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["--scale", scale, "--seed", "42"])
            .output()
            .expect("spawn figures");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--scale {scale}: {stderr}");
        assert_eq!(
            stderr, "error: --scale must be positive and at most 1000\n",
            "--scale {scale}"
        );
        assert!(!stderr.contains("panicked"), "--scale {scale}: {stderr}");
        assert!(out.stdout.is_empty(), "--scale {scale}: nothing printed");
    }
}
