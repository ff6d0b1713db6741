//! Golden `ReplayReport` snapshots: every extended scheme on every
//! synthetic trace, rendered to a stable text form and compared against
//! committed fixtures.
//!
//! The fixtures were generated from the monolithic pre-refactor replay
//! loop, so this suite proves the layered `StorageStack` produces
//! byte-identical reports. The rendering covers *everything* a report
//! carries: the full response-time distributions are fingerprinted
//! (FNV-1a over every sample), floats are printed with their shortest
//! round-trip representation, and all counters appear verbatim.
//!
//! Regenerate after an intentional behavior change with:
//!
//! ```text
//! POD_UPDATE_GOLDEN=1 cargo test -p pod-core --test golden
//! ```

use pod_core::{Metrics, ReplayReport, Scheme, SystemConfig};
use pod_trace::TraceProfile;
use pod_types::hash::FnvHasher;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::path::PathBuf;

const SCALE: f64 = 0.004;
const SEED: u64 = 17;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// FNV-1a over the little-endian bytes of every sample: a stable
/// fingerprint of the full latency distribution.
fn fnv1a(samples: &[u64]) -> u64 {
    let mut h = FnvHasher::default();
    for &s in samples {
        h.write_u64(s);
    }
    h.finish()
}

fn render_metrics(out: &mut String, label: &str, m: &Metrics) {
    let [p50, p95, p99] = m.percentiles(&[50.0, 95.0, 99.0]);
    writeln!(
        out,
        "{label}: count={} max_us={} p50={p50} p95={p95} p99={p99} mean_us={:?} fnv={:016x}",
        m.count(),
        m.max_us(),
        m.mean_us(),
        fnv1a(m.samples()),
    )
    .expect("write to string");
}

/// Stable, explicit rendering of one report. Field-by-field (rather
/// than `{:#?}` of the whole struct) so the refactor can add fields to
/// `ReplayReport` without invalidating the pre-refactor fixtures.
fn render(rep: &ReplayReport) -> String {
    let mut s = String::new();
    writeln!(s, "== {} / {} ==", rep.scheme, rep.trace).unwrap();
    render_metrics(&mut s, "overall", &rep.overall);
    render_metrics(&mut s, "reads", &rep.reads);
    render_metrics(&mut s, "writes", &rep.writes);
    writeln!(s, "counters: {:?}", rep.counters).unwrap();
    writeln!(s, "capacity_used_blocks: {}", rep.capacity_used_blocks).unwrap();
    writeln!(s, "nvram_peak_bytes: {}", rep.nvram_peak_bytes).unwrap();
    writeln!(s, "read_cache_hit_rate: {:?}", rep.read_cache_hit_rate).unwrap();
    writeln!(s, "read_fragmentation: {:?}", rep.read_fragmentation).unwrap();
    writeln!(s, "disk: {:?}", rep.disk).unwrap();
    writeln!(s, "icache_epochs: {}", rep.icache_epochs).unwrap();
    writeln!(s, "icache_repartitions: {}", rep.icache_repartitions).unwrap();
    writeln!(s, "final_index_fraction: {:?}", rep.final_index_fraction).unwrap();
    writeln!(s, "timeline_window_us: {}", rep.timeline.window_us).unwrap();
    for &(start, mean, n) in &rep.timeline.points {
        writeln!(s, "timeline_point: {start} {mean:?} {n}").unwrap();
    }
    s
}

fn render_trace(trace_name: &str) -> String {
    let profile = match trace_name {
        "web-vm" => TraceProfile::web_vm(),
        "homes" => TraceProfile::homes(),
        _ => TraceProfile::mail(),
    };
    let trace = profile.scaled(SCALE).generate(SEED);
    let mut out = String::new();
    for scheme in Scheme::extended() {
        let rep = scheme
            .builder()
            .config(SystemConfig::test_default())
            .trace(&trace)
            .run()
            .expect("replay succeeds");
        out.push_str(&render(&rep));
        out.push('\n');
    }
    out
}

fn check_trace(trace_name: &str) {
    let rendered = render_trace(trace_name);
    let path = fixture_dir().join(format!("{trace_name}.txt"));
    if std::env::var_os("POD_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        std::fs::write(&path, &rendered).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with \
             POD_UPDATE_GOLDEN=1 cargo test -p pod-core --test golden",
            path.display()
        )
    });
    if rendered != expected {
        // Find the first diverging line for a readable failure.
        let mismatch = rendered
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        match mismatch {
            Some((i, (got, want))) => panic!(
                "golden mismatch for trace `{trace_name}` at line {}:\n  expected: {want}\n  got:      {got}\n\
                 (report rendering diverged from the committed pre-refactor snapshot)",
                i + 1
            ),
            None => panic!(
                "golden mismatch for trace `{trace_name}`: lengths differ \
                 (expected {} bytes, got {} bytes)",
                expected.len(),
                rendered.len()
            ),
        }
    }
}

#[test]
fn golden_reports_web_vm() {
    check_trace("web-vm");
}

#[test]
fn golden_reports_homes() {
    check_trace("homes");
}

#[test]
fn golden_reports_mail() {
    check_trace("mail");
}
