//! The JSONL trace codec round trip: whatever `write_jsonl` writes,
//! `read_jsonl` gives back — rows, totals and histograms — under every
//! scheme, profiled and under a fault plan, and from a tenant-tagged
//! serve under a QoS policy, so every optional key of the wire schema
//! is exercised. A report's whole-replay counters are the same row the
//! recorder sums.

use pod_core::obs::{EpochRow, LayerHistograms, TraceRecorder};
use pod_core::prelude::*;
use pod_trace::{derive_tenants, TraceProfile};

type Section = (TraceRecorder, Option<LayerHistograms>);

fn write(sections: &[Section]) -> String {
    let mut out = Vec::new();
    for (rec, hists) in sections {
        rec.write_jsonl(&mut out, hists.as_ref()).expect("write");
    }
    String::from_utf8(out).expect("utf8")
}

/// Write `sections` as one JSONL document, read it back, and check the
/// reader returns what the writer took; returns what it read.
fn round_trip(label: &str, sections: &[Section]) -> Vec<Section> {
    let text = write(sections);
    let back = TraceRecorder::read_jsonl(&text).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(back.len(), sections.len(), "{label}: one section each");
    for ((rec, hists), (got, got_hists)) in sections.iter().zip(&back) {
        assert!(rec.rows().len() > 1, "{label}: several epochs");
        assert_eq!(got.rows(), rec.rows(), "{label}: rows");
        assert_eq!(got.totals(), rec.totals(), "{label}: totals");
        assert_eq!(got_hists, hists, "{label}: histograms");
    }
    assert_eq!(write(&back), text, "{label}: meta lines and every byte");
    back
}

fn replay(scheme: Scheme, faults: Option<FaultPlan>, profile: bool) -> Section {
    let mut cfg = SystemConfig::test_default();
    cfg.faults = faults;
    let (_, mut chain) = scheme
        .builder()
        .config(cfg)
        .trace(&TraceProfile::mail().scaled(0.004).generate(17))
        .profile(profile)
        .observer(LayerHistograms::new())
        .record(64)
        .run_observed()
        .expect("replay succeeds");
    let hists: LayerHistograms = chain.take_sink().expect("histograms attached");
    let rec: TraceRecorder = chain.take_sink().expect("recorder attached");
    assert!(hists.total() > 0, "{scheme}: histograms recorded");
    (rec, Some(hists))
}

/// Every scheme, profiled (`host_ns`) and under the `all:7` fault plan
/// (`faults`, `recoveries`).
#[test]
fn every_scheme_round_trips_profiled_and_faulted() {
    for scheme in Scheme::extended() {
        let profiled = replay(scheme, None, true);
        let faulted = replay(scheme, Some(FaultPlan::all(7)), false);
        assert!(profiled.0.totals().host_ns > 0, "{scheme}: profiled");
        assert!(faulted.0.totals().faults > 0, "{scheme}: plan injected");
        round_trip(&format!("{scheme}"), &[profiled, faulted]);
    }
}

/// A tenant-tagged serve under the QoS policy the width tests use (its
/// rate limit throttles, its tier moves the snapshot's tier gauge), and
/// once more with the quota cut to 8 KiB so the tier's index shrinks
/// evict.
#[test]
fn tenant_tagged_policy_serve_round_trips_qos_keys() {
    let policy = ServePolicy::parse("tier:2,rate:40,burst:4,quota:1").expect("policy");
    let mut tight = policy.clone();
    tight.cache_quota_bytes = Some(8 << 10);
    let mut totals = Vec::new();
    for (label, policy) in [("policy", policy), ("tight quota", tight)] {
        let mut cfg = SystemConfig::test_default();
        cfg.policy = Some(policy);
        let (_, recorders) = ServeBuilder::new(Scheme::Pod)
            .config(cfg)
            .tenants(&derive_tenants(&TraceProfile::mail().scaled(0.003), 4, 7))
            .shards(2)
            .record(64)
            .run_recorded()
            .expect("serve succeeds");
        let sections: Vec<Section> = recorders.into_iter().map(|rec| (rec, None)).collect();
        let back = round_trip(label, &sections);
        totals.extend(back.iter().map(|(rec, _)| rec.totals()));
    }
    assert!(totals.iter().all(|t| t.tenant.is_some()), "tenant-tagged");
    assert!(totals.iter().any(|t| t.throttle_waits > 0), "throttle keys");
    assert!(totals.iter().any(|t| t.quota_evictions > 0), "quota keys");
    assert!(
        totals
            .iter()
            .any(|t| t.snap.is_some_and(|s| s.tier_target_bytes > 0)),
        "tier gauge"
    );
}

/// The report and the recorder fold one event stream into one row: the
/// report's whole-replay row is the recorder's totals, every scheme,
/// with and without faults. The one place they differ is pinned too:
/// the report's read-cache rates cover only the measured window after
/// warm-up (15 % under `paper_default`), the rows every request.
#[test]
fn the_report_row_is_the_recorder_totals() {
    let trace = TraceProfile::mail().scaled(0.004).generate(7);
    for scheme in Scheme::extended() {
        for faults in [None, Some(FaultPlan::all(7))] {
            let label = format!("{scheme} faults {:?}", faults.is_some());
            let mut cfg = SystemConfig::paper_default();
            cfg.faults = faults;
            let (rep, mut chain) = scheme
                .builder()
                .config(cfg)
                .trace(&trace)
                .record(0)
                .run_observed()
                .expect("replay succeeds");
            let totals = chain
                .take_sink::<TraceRecorder>()
                .expect("recorder")
                .totals();
            // A totals row numbers the epochs it summed.
            assert_eq!(rep.stack.all, EpochRow { epoch: 0, ..totals }, "{label}");
            assert_eq!(rep.counters.write_requests, totals.writes, "{label}");
            // Warm-up reads are in the row, not in the measured window.
            let measured = rep.stack.measured_reads.reads;
            assert_eq!((measured, totals.reads), (424, 487), "{label}");
        }
    }
}
