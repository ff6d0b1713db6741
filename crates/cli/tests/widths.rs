//! Determinism through the spawned binary: stdout (but the timing line)
//! is byte-identical at any `--jobs` and `--shards`. At `--jobs 1` a
//! replay's simulated array runs inline, at `--jobs 2` on a thread of
//! its own; a serve deals its tenants over shards and workers. Neither
//! may show in a report, a recording or an oracle verdict. A profile
//! times the layout its width gives, and names it.

mod common;

use common::{arg, pod_cli_ok, scratch, SCHEMES};

/// The QoS policy: shared tier, rate limit and quota.
const POLICY: &str = " --policy tier:2,rate:40,burst:4,quota:1";

/// The stdout of `pod-cli serve <flags>`, the flags one space-separated
/// string.
fn serve(flags: &str) -> String {
    pod_cli_ok(&[&["serve"][..], &flags.split(' ').collect::<Vec<_>>()].concat())
}

#[test]
fn a_serve_reports_the_same_at_any_shards_and_jobs() {
    let base = serve("--tenants 4 --shards 2 --jobs 2 --scale 0.01");
    assert!(base.contains("serve: POD / 4 tenants"), "{base}");
    assert!(base.contains("mail#3"), "per-tenant rows: {base}");
    // No topology on stdout, and the QoS section is policy-gated.
    for absent in ["shard", "fleet:", "throttles"] {
        assert!(!base.contains(absent), "{absent:?} on stdout:\n{base}");
    }
    // Two shards at one worker, four over eight workers, and one shard
    // with the disk inline and on its own thread.
    for topology in ["2 --jobs 1", "4 --jobs 8", "1 --jobs 1", "1 --jobs 2"] {
        let got = serve(&format!("--tenants 4 --shards {topology} --scale 0.01"));
        assert!(got == base, "--shards {topology} differs");
    }
    // Each tenant is generated on the worker serving its shard: five do
    // not split evenly over two or three workers, and the report must
    // not depend on which worker claimed which shard.
    let five = |jobs: u8| {
        serve(&format!(
            "--tenants 5 --shards 2 --jobs {jobs} --scale 0.01"
        ))
    };
    let one = five(1);
    assert!(one.contains("serve: POD / 5 tenants"), "{one}");
    assert!(
        five(2) == one && five(3) == one,
        "5 tenants differ at --jobs 2 or 3"
    );
}

#[test]
fn a_serve_under_a_policy_reports_the_same_at_any_shards_and_jobs() {
    let four = |topology: &str| {
        serve(&format!(
            "--tenants 4 --shards {topology} --scale 0.01{POLICY}"
        ))
    };
    let base = four("1 --jobs 1");
    assert!(base.contains("throttles"), "the QoS table:\n{base}");
    assert!(base.contains("fleet:"), "the fleet line:\n{base}");
    assert!(!base.contains("shard"), "no topology on stdout:\n{base}");
    assert!(four("2 --jobs 2") == base, "--shards 2 --jobs 2 differs");
    assert!(four("4 --jobs 8") == base, "--shards 4 --jobs 8 differs");
    // Eight tenants on eight shards: one tenant per worker-folded
    // fingerprint set, so the fleet count goes through the N-way set
    // merge and must match the single-shard union.
    let eight = |topology: &str| {
        serve(&format!(
            "--tenants 8 --shards {topology} --scale 0.005{POLICY}"
        ))
    };
    let one = eight("1 --jobs 1");
    assert!(one.contains("fleet:"), "{one}");
    assert!(eight("8 --jobs 2") == one, "8 shards differ");
}

#[test]
fn every_scheme_replays_the_same_with_the_disk_inline_and_on_its_own_thread() {
    let dir = scratch("disk-widths");
    let mail = ["--profile", "mail", "--scale", "0.02"];
    // One recording path for both widths, as stdout names it.
    let jsonl = dir.join("d.jsonl");
    for scheme in SCHEMES {
        let [inline, threaded] = ["1", "2"].map(|jobs| {
            let base = [
                "replay",
                "--scheme",
                scheme,
                "--jobs",
                jobs,
                "--trace-out",
                arg(&jsonl),
            ];
            let stdout = pod_cli_ok(&[&base[..], &mail].concat());
            (stdout, std::fs::read(&jsonl).expect("read the recording"))
        });
        assert!(inline.0 == threaded.0, "{scheme}: stdout differs");
        assert!(inline.1 == threaded.1, "{scheme}: JSONL differs");
    }
    // Faults, a crash included, under the oracle.
    let [inline, threaded] = ["1", "2"].map(|jobs| {
        let base = [
            "replay", "--scheme", "pod", "--faults", "all:7", "--verify", "--jobs", jobs,
        ];
        pod_cli_ok(&[&base[..], &mail].concat())
    });
    assert!(inline == threaded, "a faulted, verified replay differs");
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}

#[test]
fn a_profile_names_its_layout_and_its_phases_account_for_the_whole() {
    // The default width is the machine's parallelism: two or more put
    // the disk on its own thread. `--jobs 1` keeps it inline.
    let own = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    let default = ["disk inline", "disk on its own thread"][usize::from(own)];
    for (flags, layout) in [(&[][..], default), (&["--jobs", "1"][..], "disk inline")] {
        let out = pod_cli_ok(&[&["profile", "pod", "mail", "--scale", "0.01"][..], flags].concat());
        assert!(out.contains("host layer shares:"), "{out}");
        assert!(out.contains("attributed host time"), "{out}");
        let wall = out
            .lines()
            .find(|l| l.starts_with("wall time:"))
            .expect("a wall line");
        assert!(wall.contains(&format!("; {layout})")), "{flags:?}: {wall}");
        // ... and ends with the input stage, timed on its own:
        // `; input <secs> s (<n> ns/request, generated)`.
        let input = wall.rsplit_once("; input ").map_or("", |(_, i)| i);
        let (secs, ns) = input.split_once(" s (").unwrap_or(("", ""));
        let ns = ns.strip_suffix(" ns/request, generated)").unwrap_or("");
        let number = |s: &str, dot| {
            !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit() || (dot && b == b'.'))
        };
        assert!(number(secs, true) && number(ns, false), "{wall}");
        // The share column, the fifth field of each row indented two
        // spaces and a lower-case name (the header's is a word, which
        // counts as 0), accounts for the whole profile.
        let row = |l: &&str| {
            l.strip_prefix("  ")
                .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_lowercase() || c == '_'))
        };
        let share = |l: &str| {
            l.split_whitespace()
                .nth(4)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0.0)
        };
        let sum: f64 = out.lines().filter(row).map(share).sum();
        assert!(
            sum > 99.0 && sum < 101.0,
            "{flags:?}: shares sum to {sum}\n{out}"
        );
    }
}
