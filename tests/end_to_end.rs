//! Cross-crate integration tests: the assembled system must reproduce
//! the paper's headline claims end-to-end through the public facade.

use pod::prelude::*;
use pod_core::experiments::{self, run_schemes};

const SCALE: f64 = 0.01;
const SEED: u64 = 42;

fn traces() -> Vec<Trace> {
    experiments::paper_traces(SCALE, SEED)
}

#[test]
fn headline_select_dedupe_beats_idedup_everywhere() {
    // "POD significantly outperforms iDedup in the I/O performance
    // measure" — abstract.
    let cfg = SystemConfig::paper_default();
    for trace in traces() {
        let reports =
            run_schemes(&[Scheme::IDedup, Scheme::SelectDedupe], &trace, &cfg).expect("replay");
        assert!(
            reports[1].overall.mean_us() < reports[0].overall.mean_us(),
            "{}: Select {:.0}us vs iDedup {:.0}us",
            trace.name,
            reports[1].overall.mean_us(),
            reports[0].overall.mean_us()
        );
    }
}

#[test]
fn headline_capacity_savings_comparable_or_better_than_idedup() {
    // "POD achieves comparable or better capacity savings than iDedup."
    let cfg = SystemConfig::paper_default();
    for trace in traces() {
        let reports = run_schemes(&[Scheme::IDedup, Scheme::Pod], &trace, &cfg).expect("replay");
        assert!(
            reports[1].capacity_used_blocks <= reports[0].capacity_used_blocks,
            "{}: POD {} vs iDedup {} blocks",
            trace.name,
            reports[1].capacity_used_blocks,
            reports[0].capacity_used_blocks
        );
    }
}

#[test]
fn full_dedupe_degrades_homes() {
    // §IV-B: "Full-Dedupe degrades the Native system performance for the
    // homes trace."
    let cfg = SystemConfig::paper_default();
    let homes = TraceProfile::homes().scaled(SCALE).generate(SEED);
    let reports = run_schemes(&[Scheme::Native, Scheme::FullDedupe], &homes, &cfg).expect("replay");
    assert!(
        reports[1].writes.mean_us() > reports[0].writes.mean_us(),
        "Full-Dedupe homes writes {:.0}us must exceed Native {:.0}us",
        reports[1].writes.mean_us(),
        reports[0].writes.mean_us()
    );
}

#[test]
fn write_elimination_ordering_full_select_idedup() {
    // Fig. 11: Full-Dedupe removes the most write requests, Select-Dedupe
    // is next, iDedup removes the fewest.
    let cfg = SystemConfig::paper_default();
    for trace in traces() {
        let reports = run_schemes(
            &[Scheme::FullDedupe, Scheme::SelectDedupe, Scheme::IDedup],
            &trace,
            &cfg,
        )
        .expect("replay");
        let (full, select, idedup) = (
            reports[0].writes_removed_pct(),
            reports[1].writes_removed_pct(),
            reports[2].writes_removed_pct(),
        );
        assert!(
            full >= select && select > idedup,
            "{}: full {full:.1} select {select:.1} idedup {idedup:.1}",
            trace.name
        );
    }
}

#[test]
fn mail_gets_the_biggest_select_dedupe_win() {
    // §IV-B: mail has the most fully-redundant sequential writes, so the
    // write-time reduction is largest there.
    let cfg = SystemConfig::paper_default();
    let mut reductions = Vec::new();
    for trace in traces() {
        let reports =
            run_schemes(&[Scheme::Native, Scheme::SelectDedupe], &trace, &cfg).expect("replay");
        let reduction = 1.0 - reports[1].writes.mean_us() / reports[0].writes.mean_us();
        reductions.push((trace.name.clone(), reduction));
    }
    let mail = reductions
        .iter()
        .find(|(n, _)| n == "mail")
        .expect("mail present")
        .1;
    for (name, r) in &reductions {
        assert!(
            mail >= *r,
            "mail reduction {mail:.2} must top {name} ({r:.2})"
        );
    }
    assert!(
        mail > 0.5,
        "mail write-time reduction should be large: {mail:.2}"
    );
}

#[test]
fn fragmentation_ordering_matches_design() {
    // Select-Dedupe explicitly avoids the fragmentation Full-Dedupe
    // accepts; Native never fragments.
    let cfg = SystemConfig::paper_default();
    let homes = TraceProfile::homes().scaled(SCALE).generate(SEED);
    let reports = run_schemes(
        &[Scheme::Native, Scheme::FullDedupe, Scheme::SelectDedupe],
        &homes,
        &cfg,
    )
    .expect("replay");
    assert!(
        (reports[0].read_fragmentation - 1.0).abs() < 1e-9,
        "Native never fragments"
    );
    assert!(
        reports[1].read_fragmentation >= reports[2].read_fragmentation,
        "Full {:.3} must fragment at least as much as Select {:.3}",
        reports[1].read_fragmentation,
        reports[2].read_fragmentation
    );
}

#[test]
fn nvram_overhead_is_modest_and_proportional() {
    // §IV-D2: Map-table NVRAM is proportional to eliminated writes and
    // small in absolute terms.
    let cfg = SystemConfig::paper_default();
    for trace in traces() {
        let rep = experiments::run_scheme(Scheme::Pod, &trace, &cfg).expect("replay");
        assert_eq!(
            rep.nvram_peak_bytes % 20,
            0,
            "NVRAM is counted in whole 20-byte entries"
        );
        // At 1% trace scale the budget is a few hundred KiB at most.
        assert!(
            rep.nvram_peak_bytes < 4 << 20,
            "{}: NVRAM {} bytes",
            trace.name,
            rep.nvram_peak_bytes
        );
    }
}

#[test]
fn pod_adapts_while_select_does_not() {
    let cfg = SystemConfig::paper_default();
    let mail = TraceProfile::mail().scaled(SCALE).generate(SEED);
    let reports = run_schemes(&[Scheme::SelectDedupe, Scheme::Pod], &mail, &cfg).expect("replay");
    assert_eq!(reports[0].icache_repartitions, 0);
    assert!(
        reports[1].icache_repartitions > 0,
        "POD must adapt on mail bursts"
    );
}

#[test]
fn table1_baselines_behave_as_classified() {
    // Post-Process: Native-like I/O path, dedup'd capacity.
    // I/O-Dedup: Native-like capacity, better reads via content caching.
    let cfg = SystemConfig::paper_default();
    let mail = TraceProfile::mail().scaled(SCALE).generate(SEED);
    let reports = run_schemes(
        &[Scheme::Native, Scheme::PostProcess, Scheme::IODedup],
        &mail,
        &cfg,
    )
    .expect("replay");
    let (native, post, iodedup) = (&reports[0], &reports[1], &reports[2]);
    assert_eq!(post.writes_removed_pct(), 0.0);
    assert!(post.capacity_used_blocks < native.capacity_used_blocks);
    assert_eq!(iodedup.writes_removed_pct(), 0.0);
    assert_eq!(iodedup.capacity_used_blocks, native.capacity_used_blocks);
    assert!(
        iodedup.reads.mean_us() < native.reads.mean_us(),
        "content-addressed cache improves reads: {} vs {}",
        iodedup.reads.mean_us(),
        native.reads.mean_us()
    );
}

#[test]
fn facade_prelude_is_complete_for_the_readme_snippet() {
    // The README / crate-docs snippet must keep compiling.
    let trace = TraceProfile::mail().scaled(0.005).generate(42);
    let report = Scheme::Pod
        .builder()
        .trace(&trace)
        .run()
        .expect("valid config");
    assert!(report.writes_removed_pct() > 0.0);
}

#[test]
fn facade_prelude_exposes_the_observability_surface() {
    // Observers compose through the same builder the README shows.
    let trace = TraceProfile::mail().scaled(0.005).generate(42);
    let mut chain = Scheme::Pod
        .builder()
        .trace(&trace)
        .observer(LayerHistograms::new())
        .run_observed()
        .expect("valid config")
        .1;
    let hists: LayerHistograms = chain.take_sink().expect("attached sink");
    assert!(hists.total() > 0, "layer latencies observed");
    assert!(chain.counters().all.cat1 > 0, "POD sees Cat-1 writes");
}
