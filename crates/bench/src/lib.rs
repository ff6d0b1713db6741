//! # pod-bench
//!
//! Benchmark harness for the POD reproduction.
//!
//! * `cargo run --release -p pod-bench --bin figures` regenerates every
//!   table and figure of the paper as CSV (see `src/bin/figures.rs`).
//! * `cargo bench -p pod-bench` runs the Criterion suites: one bench per
//!   paper artifact (trace statistics, cache-split sweep, scheme
//!   comparison per trace) plus substrate microbenches (FNV
//!   throughput, cache operations, index table, RAID planning, event
//!   engine) and the ablation benches DESIGN.md lists (Select-Dedupe
//!   threshold sweep, scheduler comparison, iCache epoch sweep).
//!
//! The library part hosts small helpers shared by the bench targets.

use pod_core::{Scheme, SystemConfig};
use pod_trace::{Trace, TraceProfile};

/// Scale used by the Criterion benches: large enough for stable shapes,
/// small enough to iterate quickly.
pub const BENCH_SCALE: f64 = 0.02;

/// Seed used by all bench workloads.
pub const BENCH_SEED: u64 = 42;

/// A bench-sized trace for the named paper profile.
pub fn bench_trace(name: &str) -> Trace {
    let p = match name {
        "web-vm" => TraceProfile::web_vm(),
        "homes" => TraceProfile::homes(),
        "mail" => TraceProfile::mail(),
        other => panic!("unknown trace profile {other}"),
    };
    p.scaled(BENCH_SCALE).generate(BENCH_SEED)
}

/// Replay `trace` through `scheme` under the paper configuration and
/// return the mean overall response time in µs (the figure-8 metric).
pub fn replay_mean_us(scheme: Scheme, trace: &Trace) -> f64 {
    scheme
        .builder()
        .config(SystemConfig::paper_default())
        .trace(trace)
        .run()
        .expect("replay")
        .overall
        .mean_us()
}

/// Replay `trace` through `scheme` under `cfg`, panicking on error —
/// the bench loops treat a failed replay as a harness bug.
pub fn bench_replay(scheme: Scheme, trace: &Trace, cfg: &SystemConfig) -> pod_core::ReplayReport {
    scheme
        .builder()
        .config(cfg.clone())
        .trace(trace)
        .run()
        .expect("replay")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_traces_generate() {
        for name in ["web-vm", "homes", "mail"] {
            let t = bench_trace(name);
            assert!(!t.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown trace profile")]
    fn unknown_profile_panics() {
        let _ = bench_trace("nope");
    }

    #[test]
    fn replay_mean_is_positive() {
        let t = bench_trace("homes").prefix(300);
        assert!(replay_mean_us(Scheme::SelectDedupe, &t) > 0.0);
    }
}
