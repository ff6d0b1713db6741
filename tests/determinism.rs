//! End-to-end determinism: every scheme, same inputs, identical outputs.
//! The simulator's event ordering, the generator's RNG discipline, and
//! the deterministic FNV hashing all have to hold for this to pass.

use pod::prelude::*;
use pod_core::experiments;

#[test]
fn all_schemes_are_bit_deterministic() {
    let trace = TraceProfile::web_vm().scaled(0.005).generate(99);
    let cfg = SystemConfig::paper_default();
    for scheme in Scheme::extended() {
        let run = || {
            scheme
                .builder()
                .config(cfg.clone())
                .trace(&trace)
                .run()
                .expect("replay")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.overall.mean_us(), b.overall.mean_us(), "{scheme}");
        assert_eq!(a.reads.mean_us(), b.reads.mean_us(), "{scheme}");
        assert_eq!(a.writes.mean_us(), b.writes.mean_us(), "{scheme}");
        assert_eq!(a.counters, b.counters, "{scheme}");
        assert_eq!(a.capacity_used_blocks, b.capacity_used_blocks, "{scheme}");
        assert_eq!(a.nvram_peak_bytes, b.nvram_peak_bytes, "{scheme}");
        assert_eq!(a.icache_repartitions, b.icache_repartitions, "{scheme}");
    }
}

#[test]
fn generated_artifacts_are_seed_stable() {
    let a = experiments::fig2(0.004, 7);
    let b = experiments::fig2(0.004, 7);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.io_redundancy_pct, y.io_redundancy_pct);
        assert_eq!(x.capacity_redundancy_pct, y.capacity_redundancy_pct);
    }
    let c = experiments::fig2(0.004, 8);
    assert!(
        a.iter()
            .zip(c.iter())
            .any(|(x, y)| x.io_redundancy_pct != y.io_redundancy_pct),
        "different seeds produce different workloads"
    );
}

#[test]
fn csv_artifacts_are_byte_identical_across_runs() {
    let run = || {
        let cmp = experiments::scheme_comparison(0.004, 42).expect("replay");
        format!(
            "{}{}{}{}{}",
            cmp.fig8_csv(),
            cmp.fig9a_csv(),
            cmp.fig9b_csv(),
            cmp.fig10_csv(),
            cmp.fig11_csv()
        )
    };
    assert_eq!(run(), run());
}
