//! A reader that closes its end of the pipe early (`pod-cli replay |
//! head -1`) ends the command quietly with exit 0. Each run gets, as
//! stdout, the write end of a pipe whose read end is already closed,
//! so the first write fails whatever the timing.

mod common;

use common::{arg, pod_cli_ok, scratch};
use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_every_command_quietly() {
    let dir = scratch("closed-stdout");
    let recording = dir.join("recorded.jsonl");
    let recording = arg(&recording);
    pod_cli_ok(&["replay", "--scale", "0.004", "--trace-out", recording]);

    let runs: [&[&str]; 6] = [
        &["replay", "--scheme", "pod", "--scale", "0.004"],
        &["compare", "--jobs", "1", "--scale", "0.004"],
        &["serve", "--tenants", "2", "--jobs", "1", "--scale", "0.004"],
        &["analyze", "--scale", "0.004"],
        &["monitor", "--headless", "--scale", "0.004"],
        &["stats", "--in", recording],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().expect("create a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pod-cli"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawn pod-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{}: {stderr}", args[0]);
        assert!(
            !stderr.lines().any(|l| l.starts_with("error:")),
            "{}: {stderr}",
            args[0]
        );
        assert_eq!(out.status.code(), Some(0), "{}: {stderr}", args[0]);
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
