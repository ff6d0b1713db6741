//! Untrusted input through the spawned binary: crafted FIU files,
//! hostile flag values and mutated recorded JSONL all end in exit 0 or
//! an `error:` line — never a panic, an abort or a signal.

mod common;

use common::{arg, pod_cli, pod_cli_ok, scratch};
use pod_types::rng::SplitMix64;
use std::process::Output;

const SHA: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";

/// A crafted FIU file makes `pod-cli replay --trace` fail with an
/// `error:` line naming the bad line — it used to abort on a 128 GiB
/// allocation (oversized block count) or wrap the address space
/// (`lba` at `u64::MAX`).
#[test]
fn crafted_fiu_lines_are_parse_errors_not_aborts() {
    let crafted = [
        ("nblocks", format!("1 1 p 0 4294967295 W 8 0 {SHA}")),
        ("lba", format!("1 1 p 18446744073709551615 1 W 8 0 {SHA}")),
    ];
    for (what, line) in crafted {
        let path =
            std::env::temp_dir().join(format!("pod-crafted-{what}-{}.fiu", std::process::id()));
        // The bad line is the third of the file.
        std::fs::write(&path, format!("# crafted\n0 1 p 0 1 W 8 0 {SHA}\n{line}\n"))
            .expect("write the crafted file");
        let out = pod_cli(["replay", "--scheme", "pod", "--trace", arg(&path)]);
        std::fs::remove_file(&path).expect("remove the crafted file");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.starts_with("error: parsing "), "{what}: {stderr}");
        assert!(
            stderr.contains("trace parse error at line 3"),
            "{what}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked") && !stderr.contains("allocation"),
            "{what}: {stderr}"
        );
    }
}

/// A valid row whose LBA puts the replay's layout past `u64`: every
/// command that replays a `--trace` refuses it with an `error:` line. The
/// first row made `replay` abort on a wrapped 24 PB allocation, the
/// second overflowed an add while sizing the array.
#[test]
fn lbas_past_the_layout_bound_are_refused_not_aborts() {
    let rows = [
        "1 0 p 12297829382473034410 1 R 8 0 *",
        "1 0 p 18446744073709551614 1 R 8 0 *",
    ];
    for (i, row) in rows.iter().enumerate() {
        let path =
            std::env::temp_dir().join(format!("pod-huge-lba-{i}-{}.fiu", std::process::id()));
        std::fs::write(&path, format!("{row}\n")).expect("write the trace file");
        for cmd in ["replay", "serve", "compare", "profile", "doctor"] {
            let out = pod_cli([cmd, "--jobs", "1", "--trace", arg(&path)]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{cmd} on '{row}'");
            assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
            assert!(
                stderr
                    .lines()
                    .any(|l| l.starts_with("error: trace end lba")),
                "{what}: {stderr}"
            );
            assert!(
                !stderr.contains("panicked") && !stderr.contains("allocation"),
                "{what}: {stderr}"
            );
        }
        std::fs::remove_file(&path).expect("remove the trace file");
    }
}

/// The FIU reader refuses a row whose timestamp steps backwards,
/// naming its line: `analyze` used to read such a file (its burst
/// detector taking the step as a zero gap) and `replay` to report
/// responses inflated by the step, both with exit 0.
#[test]
fn analyze_refuses_a_backwards_timestamp_naming_its_line() {
    let path = std::env::temp_dir().join(format!("pod-backwards-{}.fiu", std::process::id()));
    let body: String = [9, 5, 7, 3]
        .iter()
        .enumerate()
        .map(|(i, ts)| format!("{ts} 1 p {} 1 W 8 0 {SHA}\n", 8 * i))
        .collect();
    std::fs::write(&path, body).expect("write the trace file");
    let out = pod_cli(["analyze", "--trace", arg(&path)]);
    std::fs::remove_file(&path).expect("remove the trace file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")
            && l.contains("trace parse error at line 2: timestamp 5 is earlier")),
        "{stderr}"
    );
}

/// One of `xs`. The fuzz cases below draw from a SplitMix64 stream, so
/// they are a fixed sequence.
fn pick<'a>(rng: &mut SplitMix64, xs: &[&'a str]) -> &'a str {
    xs[(rng.next_u64() % xs.len() as u64) as usize]
}

/// Values a number or a whole spec is replaced with: empty, non-finite,
/// negative zero, `u64::MAX`, 2^44 + 1 MiB (wraps `<< 20` to 1 MiB) and
/// the two sides of the 1 PiB budget limit.
const HOSTILE: [&str; 9] = [
    "",
    "nan",
    "inf",
    "-0",
    "18446744073709551615",
    "17592186044417",
    "1073741824",
    "1073741825",
    "1e300",
];

/// Values numeric flags may accept: zero, a small scale, the smallest
/// positive double and a scale that rounds a trace down to its floor.
const EDGE: [&str; 4] = ["0", "0.001", "5e-324", "1e-300"];

/// Extra fields and unknown keys appended to a valid value.
const SUFFIXES: [&str; 6] = [":", ",", ":1", ",1", ":junk", ",meteor:1"];

/// Replace the `which`-th run of ASCII digits in `spec` with `with`.
fn replace_number(spec: &str, which: u64, with: &str) -> String {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, c) in spec.char_indices().chain([(spec.len(), ':')]) {
        match (c.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push(s..i);
                start = None;
            }
            _ => {}
        }
    }
    if runs.is_empty() {
        return with.to_string();
    }
    let run = runs[(which % runs.len() as u64) as usize].clone();
    format!("{}{with}{}", &spec[..run.start], &spec[run.end..])
}

/// The contract for anything a user can type or feed back in.
fn assert_clean_exit(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    match out.status.code() {
        Some(0) => {}
        Some(1 | 2) => assert!(
            stderr.lines().any(|l| l.starts_with("error:")),
            "{what}: exit without an error line: {stderr}"
        ),
        other => panic!("{what}: exit {other:?}: {stderr}"),
    }
}

#[test]
fn hostile_flag_values_never_panic() {
    // A later `--scale` overrides this one.
    let replay = ["replay", "--scheme", "pod", "--scale", "0.004"];
    let serve = ["serve", "--tenants", "2", "--scale", "0.004"];
    // (flag, command, base values, whether the value is a `key:value` spec)
    let flags: [(&str, &[&str], &[&str], bool); 5] = [
        ("--scale", &replay, &["0.004"], false),
        ("--memory", &replay, &["64"], false),
        ("--epoch", &replay, &["100"], false),
        (
            "--faults",
            &replay,
            &[
                "transient:7",
                "latency",
                "torn:3",
                "crash:5:7",
                "corrupt:64",
                "all",
            ],
            true,
        ),
        (
            "--policy",
            &serve,
            &[
                "tier:2,rate:40,burst:4,quota:1",
                "tier:1,quota:2",
                "rate:100,burst:2",
                // Clauses the policy does not take: refused cleanly.
                "tier:1,static",
                "tier:2,soft:1,quota:2,hot:500,cold:100",
            ],
            true,
        ),
    ];
    let mut rng = SplitMix64::new(16);
    for case in 0..80 {
        let (flag, cmd, valid, is_spec) = flags[case % flags.len()];
        let base = pick(&mut rng, valid);
        // A bare number is replaced or extended whole (a digit of
        // `--scale` swapped for a large one would be a valid, huge run);
        // a spec has one of its numbers replaced in place half the time.
        let value = match rng.next_u64() % if is_spec { 4 } else { 2 } {
            0 => pick(&mut rng, &HOSTILE).to_string(),
            1 => format!("{base}{}", pick(&mut rng, &SUFFIXES)),
            _ => replace_number(base, rng.next_u64(), pick(&mut rng, &HOSTILE)),
        };
        let out = pod_cli([cmd, &[flag, &value]].concat());
        assert_clean_exit(&out, &format!("case {case}: {flag} '{value}'"));
    }

    // The flags every trace-loading command shares, through the other
    // commands: each (command, flag) pair four times. The worker width
    // stays fixed at one.
    let commands: [&[&str]; 4] = [
        &["monitor", "--headless", "--jobs", "1", "--scale", "0.004"],
        &["compare", "--jobs", "1", "--scale", "0.004"],
        &["analyze", "--scale", "0.004"],
        &["doctor", "--jobs", "1", "--scale", "0.004"],
    ];
    let shared = [("--scale", "0.004"), ("--memory", "64"), ("--seed", "42")];
    for case in 0..48 {
        let cmd = commands[case % commands.len()];
        let (flag, base) = shared[case / commands.len() % shared.len()];
        let value = match rng.next_u64() % 2 {
            0 => pick(&mut rng, &HOSTILE).to_string(),
            _ => format!("{base}{}", pick(&mut rng, &SUFFIXES)),
        };
        let out = pod_cli([cmd, &[flag, &value]].concat());
        assert_clean_exit(&out, &format!("{} case {case}: {flag} '{value}'", cmd[0]));
    }

    // The two commands that generate or profile a trace, through the
    // same flags and `--epoch`: each (command, width, flag) triple
    // twice: once with an edge value, which mostly parses and runs,
    // once with a whole hostile value or a suffixed valid one. The
    // worker width is one or two, never a drawn value.
    let commands: [&[&str]; 2] = [
        &["gen", "--profile", "mail", "--scale", "0.004"],
        &[
            "profile",
            "--scheme",
            "pod",
            "--profile",
            "mail",
            "--scale",
            "0.004",
        ],
    ];
    let flags = [shared[0], shared[1], shared[2], ("--epoch", "100")];
    let mut rng = SplitMix64::new(57);
    for case in 0..32 {
        let cmd = commands[case % commands.len()];
        let jobs = ["1", "2"][case / 2 % 2];
        let (flag, base) = flags[case / 4 % flags.len()];
        let value = match (case < 16, rng.next_u64() % 2) {
            (true, _) => pick(&mut rng, &EDGE).to_string(),
            (false, 0) => pick(&mut rng, &HOSTILE).to_string(),
            (false, _) => format!("{base}{}", pick(&mut rng, &SUFFIXES)),
        };
        let out = pod_cli([cmd, &["--jobs", jobs, flag, &value]].concat());
        let what = format!("{} --jobs {jobs} case {case}: {flag} '{value}'", cmd[0]);
        assert_clean_exit(&out, &what);
    }
}

/// Rows that parse but bend the trace's semantics, each mutant a seeded
/// mix of: timestamps that step backwards, LBAs and whole rows repeated,
/// block counts that overlap the rows after them, and SHA-256 hashes
/// among the MD5 ones. Every command that replays a `--trace` ends in
/// exit 0 or an `error:` line on each, and on a mutant whose time steps
/// back (a halved timestamp, or repeated rows appended) in exit 1 with
/// the error naming the first such line.
#[test]
fn semantic_fiu_mutants_never_panic() {
    let dir = scratch("fiu-mutants");
    let base = dir.join("base.fiu");
    let out = pod_cli([
        "gen",
        "--profile",
        "mail",
        "--scale",
        "0.002",
        "--out",
        arg(&base),
    ]);
    assert_eq!(out.status.code(), Some(0), "generating the base trace");
    let body = std::fs::read_to_string(&base).expect("read the base trace");
    let rows: Vec<Vec<String>> = body
        .lines()
        .map(|l| l.split(' ').map(str::to_string).collect())
        .collect();

    let mutant = dir.join("mutant.fiu");
    let mut rng = SplitMix64::new(55);
    for case in 0..10u64 {
        // Cases 0-3 apply one mutation each, the rest all four.
        let applies = |m: u64| case == m || case >= 4;
        let mut rows = rows.clone();
        for i in 0..rows.len() {
            if !rng.next_u64().is_multiple_of(8) {
                continue;
            }
            let other = (rng.next_u64() % rows.len() as u64) as usize;
            if applies(0) {
                let ts: u64 = rows[i][0].parse().expect("timestamp");
                rows[i][0] = (ts / 2).to_string();
            }
            if applies(1) {
                rows[i][3] = rows[other][3].clone();
            }
            if applies(2) {
                rows[i][4] = (1 + rng.next_u64() % 16).to_string();
            }
            if applies(3) && rows[i][8].len() == 32 {
                rows[i][8] = SHA.to_string();
            }
        }
        if applies(1) {
            let dup = rows[..rows.len() / 4].to_vec();
            rows.extend(dup);
        }
        let text: String = rows.iter().map(|r| r.join(" ") + "\n").collect();
        std::fs::write(&mutant, text).expect("write the mutant");
        let ts: Vec<u64> = rows
            .iter()
            .map(|r| r[0].parse().expect("timestamp"))
            .collect();
        let step_back = ts.windows(2).position(|w| w[1] < w[0]).map(|i| i + 2);
        if applies(0) || applies(1) {
            assert!(step_back.is_some(), "case {case}: time steps back");
        }
        for cmd in [
            &["replay", "--jobs", "1"][..],
            &["serve", "--jobs", "1"],
            &["compare", "--jobs", "1"],
            &["monitor", "--headless", "--jobs", "1"],
        ] {
            let out = pod_cli([cmd, &["--trace", arg(&mutant)]].concat());
            let what = format!("case {case}: {}", cmd[0]);
            assert_clean_exit(&out, &what);
            if let Some(line) = step_back {
                let stderr = String::from_utf8_lossy(&out.stderr);
                let named = format!("trace parse error at line {line}: timestamp");
                assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
                assert!(stderr.contains(&named), "{what}: {stderr} lacks {named:?}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

/// What a number in a recorded line is replaced with: 2^64 and
/// `u64::MAX` (both past the reader's 2^53 integer range), a negative,
/// an overflowing exponent and a value of the wrong type.
const HOSTILE_JSON: [&str; 5] = [
    "18446744073709551616",
    "18446744073709551615",
    "-1",
    "1e400",
    "\"x\"",
];

/// Recorded JSONL is read back by `stats` and `figures`; a seeded
/// sequence of mutants of one real recording must end each in exit 0 or
/// exit 1 with an `error:` line. The nesting mutant used to overflow
/// the JSON reader's stack (SIGABRT).
#[test]
fn mutated_recordings_never_panic() {
    let (dir, body) = record("fuzz-jsonl");
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() > 4, "recording too short to mutate");

    let mutant = dir.join("mutant.jsonl");
    let mut rng = SplitMix64::new(16);
    for case in 0..210 {
        let mut lines: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let at = (rng.next_u64() % lines.len() as u64) as usize;
        match rng.next_u64() % 7 {
            0 => {
                lines[at] =
                    replace_number(&lines[at], rng.next_u64(), pick(&mut rng, &HOSTILE_JSON))
            }
            1 => {
                let cut = (rng.next_u64() % lines[at].len() as u64) as usize;
                lines[at].truncate(cut); // the recording is ASCII
            }
            2 => {
                lines.remove(at);
            }
            3 => lines.insert(at, lines[at].clone()),
            4 => lines[at] = lines[at].replace(':', pick(&mut rng, &["", "::", ":[", ":{"])),
            5 => {
                // Rename one key: `"writes":` becomes `"writes_":`.
                let keys: Vec<usize> = lines[at].match_indices("\":").map(|(i, _)| i).collect();
                lines[at].insert(keys[(rng.next_u64() % keys.len() as u64) as usize], '_');
            }
            _ => lines[at] = "[".repeat(100_000),
        }
        std::fs::write(&mutant, lines.join("\n")).expect("write the mutant");
        let codes = ["stats", "figures"].map(|cmd| {
            let out = read_back(cmd, &mutant, &dir);
            let what = format!("case {case}: {cmd} --in <mutant>");
            assert_clean_exit(&out, &what);
            assert_ne!(
                out.status.code(),
                Some(2),
                "{what}: a bad file is not a usage error"
            );
            out.status.code()
        });
        assert_eq!(codes[0], codes[1], "case {case}: stats and figures agree");
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

/// Record `replay --scheme pod --profile mail --scale 0.01` into a new
/// scratch directory; returns the directory and the recording.
fn record(name: &str) -> (std::path::PathBuf, String) {
    let dir = scratch(name);
    let recorded = dir.join("recorded.jsonl");
    let mail = ["--profile", "mail", "--scale", "0.01", "--trace-out"];
    pod_cli_ok(&[&["replay", "--scheme", "pod"][..], &mail, &[arg(&recorded)]].concat());
    let body = std::fs::read_to_string(&recorded).expect("read the recording");
    (dir, body)
}

/// Run `stats` or `figures` on a recorded file.
fn read_back(cmd: &str, recording: &std::path::Path, dir: &std::path::Path) -> Output {
    pod_cli([cmd, "--in", arg(recording), "--out", arg(&dir.join("figs"))])
}

/// A recording whose first epoch row lost its `"writes"` key: `stats`
/// used to exit 0 and draw that epoch as a zero bar while `figures`
/// exited 1. Both now refuse it, with the same error.
#[test]
fn a_renamed_key_fails_stats_and_figures_alike() {
    let (dir, body) = record("renamed-key");
    let mut lines: Vec<&str> = body.lines().collect();
    assert!(lines[1].starts_with(r#"{"type":"epoch","epoch":0,"#));
    let renamed = lines[1].replacen(r#""writes":"#, r#""renamed":"#, 1);
    lines[1] = &renamed;
    let mutant = dir.join("mutant.jsonl");
    std::fs::write(&mutant, lines.join("\n")).expect("write the mutant");

    let errors = ["stats", "figures"].map(|cmd| {
        let out = read_back(cmd, &mutant, &dir);
        assert_eq!(out.status.code(), Some(1), "{cmd} refuses the file");
        String::from_utf8_lossy(&out.stderr).into_owned()
    });
    assert_eq!(errors[0], errors[1], "one reader, one error");
    assert!(errors[0].starts_with(r#"error: line 2: missing "writes""#));
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
