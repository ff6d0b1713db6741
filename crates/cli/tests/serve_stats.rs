//! Round trip: `serve --trace-out`-style tenant-tagged JSONL through
//! the trace reader and the `stats` renderer, plus the untagged path
//! staying unchanged. Through the spawned binary: `serve --verify`'s
//! verdict, and what `replay` and `serve` record read back by `stats`
//! and `figures`.

mod common;

use common::{arg, pod_cli, pod_cli_ok, scratch};
use pod_cli::cmd_stats;
use pod_core::obs::TraceRecorder;
use pod_core::prelude::*;
use pod_core::serve::ServeBuilder;
use pod_trace::{derive_tenants, TraceProfile};

fn serve_jsonl(tenants: usize) -> String {
    let fleet = derive_tenants(&TraceProfile::mail().scaled(0.003), tenants, 7);
    let (_, recorders) = ServeBuilder::new(Scheme::Pod)
        .config(SystemConfig::test_default())
        .tenants(&fleet)
        .shards(tenants.min(2))
        .record(256)
        .run_recorded()
        .expect("serve succeeds");
    let mut out = Vec::new();
    for rec in &recorders {
        rec.write_jsonl(&mut out, None).expect("write to memory");
    }
    String::from_utf8(out).expect("utf8")
}

#[test]
fn tenant_tagged_trace_round_trips_with_a_breakdown() {
    let jsonl = serve_jsonl(3);
    let sections = TraceRecorder::read_jsonl(&jsonl).expect("parse");
    assert_eq!(sections.len(), 3);
    for (i, (rec, _)) in sections.iter().enumerate() {
        assert_eq!(rec.tenant(), Some(i as u16), "meta carries the tenant id");
        assert!(!rec.rows().is_empty(), "every section carries its epochs");
    }
    let rendered = cmd_stats::render(&jsonl).expect("render");
    assert!(rendered.contains("per-tenant breakdown:"), "{rendered}");
    assert!(
        rendered.contains("== POD / mail (tenant 0, "),
        "tagged section headers name the tenant:\n{rendered}"
    );
    assert!(rendered.contains("mail#2"), "derived tenant names kept");
}

#[test]
fn untagged_trace_parses_and_renders_as_before() {
    // The pre-multi-tenant path: a plain replay recorder, no tenant
    // anywhere in the JSONL, no breakdown in the rendering.
    let trace = TraceProfile::mail().scaled(0.003).generate(7);
    let (_, mut chain) = Scheme::Pod
        .builder()
        .config(SystemConfig::test_default())
        .trace(&trace)
        .record(256)
        .run_observed()
        .expect("replay succeeds");
    let rec: TraceRecorder = chain.take_sink().expect("recorder");
    let mut out = Vec::new();
    rec.write_jsonl(&mut out, None).expect("write to memory");
    let jsonl = String::from_utf8(out).expect("utf8");
    assert!(!jsonl.contains("tenant"), "untagged stays off the wire");

    let sections = TraceRecorder::read_jsonl(&jsonl).expect("parse");
    assert_eq!(sections.len(), 1);
    assert_eq!(sections[0].0.tenant(), None);
    let rendered = cmd_stats::render(&jsonl).expect("render");
    assert!(!rendered.contains("per-tenant breakdown"), "{rendered}");
    assert!(rendered.contains("== POD / mail (256 requests/epoch"));
}

/// `serve --verify` used to be accepted and ignored: no oracle ran, a
/// corrupted fleet exited 0. Every other command swallowed the flag the
/// same way.
#[test]
fn serve_verify_runs_the_oracle_and_other_commands_reject_the_flag() {
    for (tenants, scale) in [(2, "0.004"), (4, "0.01")] {
        let n = tenants.to_string();
        let serve = ["serve", "--tenants", &n, "--shards", "2", "--scale", scale];

        let out = pod_cli([&serve[..], &["--verify"]].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "clean fleet: {:?}", out.status);
        assert_eq!(
            stdout.matches("integrity oracle: PASS").count(),
            tenants,
            "one PASS block per tenant:\n{stdout}"
        );
        assert!(stdout.contains("\ntenant 1\n"), "{stdout}");

        let out = pod_cli([&serve[..], &["--faults", "corrupt:100", "--verify"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "corrupted fleet: {stderr}");
        let error = stderr
            .lines()
            .find(|l| l.starts_with("error:"))
            .expect("an error line");
        assert!(
            error.starts_with("error: integrity verification failed: tenant 0"),
            "{error}"
        );
        assert!(error.contains("lba 100"), "{error}");
    }

    let out = pod_cli(["monitor", "--headless", "--scale", "0.004", "--verify"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: --verify applies to"), "{stderr}");
}

/// What the binary records reads back: a replay's JSONL through `stats`
/// and `figures`, whose three CSVs keep their exact headers and carry
/// data rows, and a tenant-tagged serve recording carrying the QoS keys
/// through the same reader in both commands.
#[test]
fn recordings_read_back_through_stats_and_figures() {
    let dir = scratch("read-back");
    let path = |name: &str| arg(&dir.join(name)).to_string();
    let (replay, serve) = (path("replay.jsonl"), path("serve.jsonl"));
    let mail = ["--profile", "mail", "--scale", "0.01", "--trace-out"];
    pod_cli_ok(&[&["replay", "--scheme", "pod"][..], &mail, &[&replay]].concat());
    pod_cli_ok(&["stats", "--in", &replay]);
    pod_cli_ok(
        &[
            &["serve", "--tenants", "4", "--shards", "2", "--jobs", "2"][..],
            &["--policy", "tier:2,rate:40,burst:4,quota:1"],
            &mail,
            &[&serve],
        ]
        .concat(),
    );
    pod_cli_ok(&["stats", "--in", &serve]);
    pod_cli_ok(&["figures", "--in", &serve, "--out", &path("serve-figures")]);

    let figures = path("figures");
    pod_cli_ok(&["figures", "--in", &replay, "--out", &figures]);
    for (csv, header) in [
        (
            "dedup_ratio",
            "scheme,trace,epoch,requests,deduped_blocks,written_blocks,dedup_ratio_pct",
        ),
        (
            "partition_split",
            "scheme,trace,epoch,index_bytes,read_bytes,index_per_mille,repartitions,\
             ghost_index_hits,ghost_read_hits,benefit_index_us,benefit_read_us",
        ),
        (
            "write_traffic_saved",
            "scheme,trace,epoch,writes,cat1,cat2,cat3,unique,deduped_blocks,written_blocks,\
             saved_pct",
        ),
    ] {
        let body = std::fs::read_to_string(dir.join("figures").join(format!("{csv}.csv")))
            .unwrap_or_else(|e| panic!("{csv}.csv missing: {e}"));
        assert!(body.lines().count() >= 2, "{csv}.csv has no data rows");
        assert_eq!(body.lines().next(), Some(header), "{csv}.csv header");
    }
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
