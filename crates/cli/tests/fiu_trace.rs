//! An FIU trace file through the spawned binary: a generated trace
//! written as FIU text replays under the integrity oracle, and a file
//! replays the same whatever its hash width, its dialect or the number
//! of threads that load it. A bad line past the loader's first block is
//! named by its file line.

mod common;

use common::{pod_cli_in, scratch, untimed};
use std::path::Path;

/// `pod-cli gen --profile <profile> --scale <scale> --out <file>` in
/// `dir`: the file's text.
fn generate(dir: &Path, profile: &str, scale: &str, file: &str) -> String {
    let gen = ["gen", "--profile", profile, "--scale", scale, "--out", file];
    untimed(&pod_cli_in(dir, gen));
    std::fs::read_to_string(dir.join(file)).expect("read the generated file")
}

/// Whether `line` ends in a space and `digits` lowercase hex digits.
fn ends_in_hash(line: &str, digits: usize) -> bool {
    let (head, hash) = line.split_at(line.len().saturating_sub(digits));
    head.ends_with(' ')
        && hash.len() == digits
        && hash.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

#[test]
fn a_generated_trace_replays_verified_and_alike_with_a_sha256_column() {
    let dir = scratch("fiu-sha256");
    let body = generate(&dir, "web-vm", "0.1", "w.fiu");
    let replay = ["replay", "--scheme", "pod", "--trace"];
    let verify = [&replay[..], &["w.fiu", "--verify"]].concat();
    untimed(&pod_cli_in(&dir, verify));

    // Every hash widened to 64 digits, a SHA-256 column read at its
    // first 128 bits.
    let wide: String = body
        .lines()
        .map(|l| match ends_in_hash(l, 32) {
            true => format!("{l}fedcba9876543210fedcba9876543210\n"),
            false => format!("{l}\n"),
        })
        .collect();
    assert!(
        wide.lines().any(|l| ends_in_hash(l, 64)),
        "a 64-digit column"
    );
    std::fs::write(dir.join("w64.fiu"), wide).expect("write the widened file");
    // Stdout but the timing line and the line naming the file.
    let [narrow, wide] = ["w.fiu", "w64.fiu"].map(|file| {
        let out = untimed(&pod_cli_in(&dir, [&replay[..], &[file]].concat()));
        let unnamed = |l: &&str| !l.starts_with("replaying");
        out.lines().filter(unnamed).collect::<Vec<_>>().join("\n")
    });
    assert!(narrow == wide, "a SHA-256 column replays differently");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

/// `replay --scheme pod --trace m.fiu --trace-out m.jsonl` in `dir`,
/// with `extra` flags: stdout but the timing line, and the JSONL.
fn replay_recorded(dir: &Path, extra: &[&str]) -> (String, Vec<u8>) {
    let replay = [
        "replay",
        "--scheme",
        "pod",
        "--trace",
        "m.fiu",
        "--trace-out",
        "m.jsonl",
    ];
    let stdout = untimed(&pod_cli_in(dir, [&replay[..], extra].concat()));
    let jsonl = std::fs::read(dir.join("m.jsonl")).expect("read the recording");
    (stdout, jsonl)
}

#[test]
fn a_file_of_several_blocks_loads_alike_on_one_thread_and_two() {
    let dir = scratch("fiu-widths");
    let body = generate(&dir, "mail", "0.02", "m.fiu");
    assert!(
        body.len() >= 3 << 20,
        "{} bytes: several 1 MiB blocks",
        body.len()
    );
    let one = replay_recorded(&dir, &["--jobs", "1"]);
    let two = replay_recorded(&dir, &["--jobs", "2"]);
    assert!(one.0 == two.0, "stdout differs at --jobs 1 and 2");
    assert!(one.1 == two.1, "JSONL differs at --jobs 1 and 2");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

/// The same rows off the canonical dialect (CRLF endings, tab
/// separators, `+`-signed block counts and an extra trailing field)
/// take the reader's exact fallback on every line and replay
/// identically. Both files are named `m.fiu`, as the report and the
/// JSONL name the trace.
#[test]
fn the_same_rows_in_another_dialect_replay_identically() {
    let dir = scratch("fiu-dialect");
    let body = generate(&dir, "mail", "0.02", "m.fiu");
    let other = dir.join("dialect");
    std::fs::create_dir_all(&other).expect("create the dialect directory");
    let dialect: String = body
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            let [ts, pid, name, lba, n, op, major, minor, hash] = f[..] else {
                panic!("nine fields: {l}")
            };
            format!("{ts}\t{pid} {name} {lba} +{n} {op}\t{major} {minor} {hash} x\r\n")
        })
        .collect();
    let row =
        |l: &str| (l.contains(" +1 W\t8 0 ") || l.contains(" +1 R\t8 0 ")) && l.ends_with(" x\r");
    assert!(dialect.split('\n').any(row), "the dialect rows");
    std::fs::write(other.join("m.fiu"), dialect).expect("write the dialect file");
    let canonical = replay_recorded(&dir, &[]);
    let fallback = replay_recorded(&other, &[]);
    assert!(canonical.0 == fallback.0, "stdout differs in the dialect");
    assert!(canonical.1 == fallback.1, "JSONL differs in the dialect");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

#[test]
fn a_bad_line_past_the_first_block_is_named_by_its_file_line() {
    let dir = scratch("fiu-late");
    let body = generate(&dir, "mail", "0.02", "m.fiu");
    let lines: Vec<&str> = body.split_inclusive('\n').collect();
    let head = lines[..20_000].concat();
    assert!(head.len() > 1 << 20, "line 20001 lies past the first block");
    let late = format!("{head}1 1 p 0 0 W 8 0 *\n{}", lines[20_000..].concat());
    std::fs::write(dir.join("late.fiu"), late).expect("write the file");
    let out = pod_cli_in(&dir, ["replay", "--scheme", "pod", "--trace", "late.fiu"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a bad line past the first block was accepted"
    );
    let named = |l: &str| l.starts_with("error: ") && l.contains("trace parse error at line 20001");
    assert!(stderr.lines().any(named), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
