//! `pod-cli <command> --help` / `-h` prints usage and exits 0 (it used
//! to fall into flag parsing and die with "--help needs a value").

mod common;

use common::pod_cli;

#[test]
fn help_after_a_command_prints_usage_and_exits_zero() {
    for argv in [["profile", "--help"], ["serve", "-h"]] {
        let out = pod_cli(argv);
        assert!(out.status.success(), "{argv:?}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("commands:"), "{argv:?}: {stdout}");
        assert!(out.stderr.is_empty(), "{argv:?}: no error line");
    }
}
