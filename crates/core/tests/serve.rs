//! Serving-engine determinism suite.
//!
//! The engine's central guarantee: serve results are a pure function of
//! `(scheme, config, tenant traces)` — worker width (`jobs`) and shard
//! count only change wall-clock behaviour. And the anchor for that
//! guarantee: a tenant's report inside a serve run is byte-identical to
//! a solo [`ReplayBuilder`] replay of the same trace.

use pod_core::prelude::*;
use pod_core::serve::ServeBuilder;
use pod_dedup::engine::EngineCounters;
use pod_trace::{derive_tenants, Trace, TraceProfile};
use std::sync::{Arc, Mutex};

fn fleet(n: usize) -> Vec<Trace> {
    derive_tenants(&TraceProfile::mail().scaled(0.003), n, 5)
}

/// Everything deterministic in a [`ReplayReport`], comparable for
/// byte-identity (per-request latency samples included).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    scheme: String,
    trace: String,
    overall: Vec<u64>,
    reads: Vec<u64>,
    writes: Vec<u64>,
    counters: EngineCounters,
    stack: StackCounters,
    capacity_used_blocks: u64,
    nvram_peak_bytes: u64,
    icache_epochs: u64,
    icache_repartitions: u64,
}

fn fingerprint(r: &ReplayReport) -> Fingerprint {
    Fingerprint {
        scheme: r.scheme.clone(),
        trace: r.trace.clone(),
        overall: r.overall.samples().to_vec(),
        reads: r.reads.samples().to_vec(),
        writes: r.writes.samples().to_vec(),
        counters: r.counters,
        stack: r.stack,
        capacity_used_blocks: r.capacity_used_blocks,
        nvram_peak_bytes: r.nvram_peak_bytes,
        icache_epochs: r.icache_epochs,
        icache_repartitions: r.icache_repartitions,
    }
}

fn serve_fingerprints(tenants: &[Trace], shards: usize, jobs: usize) -> Vec<Fingerprint> {
    let rep = ServeBuilder::new(Scheme::Pod)
        .config(SystemConfig::test_default())
        .tenants(tenants)
        .shards(shards)
        .jobs(jobs)
        .run()
        .expect("serve");
    assert_eq!(rep.shards, shards);
    rep.tenants.iter().map(|t| fingerprint(&t.report)).collect()
}

#[test]
fn reports_are_identical_across_jobs_and_shards() {
    let tenants = fleet(4);
    let baseline = serve_fingerprints(&tenants, 1, 1);
    for (shards, jobs) in [(1, 2), (1, 8), (2, 1), (2, 2), (4, 4), (4, 8)] {
        let got = serve_fingerprints(&tenants, shards, jobs);
        assert_eq!(
            got, baseline,
            "shards={shards} jobs={jobs} must match shards=1 jobs=1"
        );
    }
}

#[test]
fn single_tenant_serve_matches_solo_replay_for_three_schemes() {
    let tenants = fleet(1);
    for scheme in [Scheme::Native, Scheme::SelectDedupe, Scheme::Pod] {
        let solo = scheme
            .builder()
            .config(SystemConfig::test_default())
            .trace(&tenants[0])
            .run()
            .expect("solo replay");
        let serve = ServeBuilder::new(scheme)
            .config(SystemConfig::test_default())
            .tenants(&tenants)
            .shards(1)
            .jobs(1)
            .run()
            .expect("serve");
        assert_eq!(serve.tenants.len(), 1);
        assert_eq!(
            fingerprint(&serve.tenants[0].report),
            fingerprint(&solo),
            "{scheme}: 1-tenant serve must equal a plain replay"
        );
    }
}

#[test]
fn every_tenant_report_matches_its_solo_replay() {
    // Warm-up on, to exercise the per-tenant measured-region logic.
    let mut cfg = SystemConfig::test_default();
    cfg.warmup_fraction = 0.15;
    let tenants = fleet(3);
    let serve = ServeBuilder::new(Scheme::Pod)
        .config(cfg.clone())
        .tenants(&tenants)
        .shards(2)
        .jobs(2)
        .run()
        .expect("serve");
    for (i, trace) in tenants.iter().enumerate() {
        let solo = Scheme::Pod
            .builder()
            .config(cfg.clone())
            .trace(trace)
            .run()
            .expect("solo replay");
        assert_eq!(
            fingerprint(&serve.tenants[i].report),
            fingerprint(&solo),
            "tenant {i} isolated: sharing a shard must not change its report"
        );
    }
}

#[test]
fn recorders_come_back_tenant_tagged_and_ordered() {
    let tenants = fleet(3);
    let (rep, recorders) = ServeBuilder::new(Scheme::Pod)
        .config(SystemConfig::test_default())
        .tenants(&tenants)
        .shards(2)
        .record(100)
        .run_recorded()
        .expect("serve");
    assert_eq!(recorders.len(), 3);
    for (i, rec) in recorders.iter().enumerate() {
        assert_eq!(rec.tenant(), Some(i as u16));
        assert_eq!(rec.totals().requests, tenants[i].len() as u64);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out, None).expect("serialize");
        let text = String::from_utf8(out).expect("utf8");
        if i > 0 {
            assert!(
                text.contains(&format!("\"tenant\":{i}")),
                "tenant {i} rows tagged"
            );
        }
    }
    // Without record(), no recorders come back.
    let (_, none) = ServeBuilder::new(Scheme::Pod)
        .config(SystemConfig::test_default())
        .tenants(&tenants)
        .run_recorded()
        .expect("serve");
    assert!(none.is_empty());
    assert_eq!(rep.tenants.len(), 3);
}

/// Logs the tenant of every `RequestDone` into a log shared by all of
/// a run's tenant stacks.
struct ServiceOrder(Arc<Mutex<Vec<u16>>>);

impl StackObserver for ServiceOrder {
    fn on_event(&mut self, ev: &StackEvent) {
        if let StackEvent::RequestDone { tenant, .. } = ev {
            self.0.lock().expect("log lock").push(*tenant);
        }
    }
}

#[test]
fn a_shard_serves_its_tenants_back_to_back() {
    let tenants = fleet(4);
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    ServeBuilder::new(Scheme::Pod)
        .config(SystemConfig::test_default())
        .tenants(&tenants)
        .shards(1)
        .jobs(1)
        .observer(move |_| ObserverChain::new().with(ServiceOrder(Arc::clone(&sink))))
        .run()
        .expect("serve");
    let log = log.lock().expect("log lock");
    assert_eq!(
        log.len(),
        tenants.iter().map(Trace::len).sum::<usize>(),
        "every request of every tenant was served"
    );
    assert!(
        log.windows(2).all(|w| w[0] <= w[1]),
        "one tenant runs to completion before the next starts"
    );
}

/// Shared-tier gate. A skewed fleet (4 mail tenants with strong
/// fingerprint locality, 4 web-vm tenants with weak) writes the same
/// blocks under a 2 MiB tier divided by locality and under the flat
/// static split of that budget; the prioritized division must dedup
/// strictly more. The metric is simulated, so one run per policy is
/// exact. At scales 0.02 and 0.03 every tenant's working set fits its
/// bare iCache partition and the two divisions tie, so 0.05 is the
/// smallest fleet that tells them apart.
#[test]
fn prioritized_shared_tier_dedups_more_than_a_static_split() {
    let mut tenants = derive_tenants(&TraceProfile::mail().scaled(0.05), 4, 42);
    tenants.extend(derive_tenants(&TraceProfile::web_vm().scaled(0.05), 4, 43));
    let run = |policy| {
        let mut cfg = SystemConfig::paper_default();
        // Starve the per-stack DRAM budget so index capacity binds: with
        // the paper budget every fingerprint fits and the division
        // cannot move the dedup volume.
        cfg.memory_bytes = Some(1 << 20);
        cfg.policy = Some(policy);
        let rep = ServeBuilder::new(Scheme::Pod)
            .config(cfg)
            .tenants(&tenants)
            .shards(4)
            .run()
            .expect("serve");
        let c = rep.aggregate.counters;
        (c.deduped_blocks, c.written_blocks)
    };
    let prioritized = run(ServePolicy::prioritized_tier(2));
    let flat = run(ServePolicy::static_tier(2));
    assert_eq!(
        prioritized.0 + prioritized.1,
        flat.0 + flat.1,
        "both divisions see the same write volume"
    );
    assert!(
        prioritized.0 > flat.0,
        "deduped blocks: prioritized {} vs static {}",
        prioritized.0,
        flat.0
    );
}

/// Every [`StateSnapshot`] one tenant stack emits, in order, into a log
/// shared by all of a run's tenant stacks.
struct SnapshotLog(u16, Arc<Mutex<Vec<(u16, StateSnapshot)>>>);

impl StackObserver for SnapshotLog {
    fn on_event(&mut self, ev: &StackEvent) {
        if let StackEvent::Snapshot { snap } = ev {
            self.1.lock().expect("log lock").push((self.0, *snap));
        }
    }
}

/// The shared tier's budget, measured. Tenants earn their grants
/// independently, so the pool is only conserved statistically; the
/// hard bound is every tenant hot at once. Per epoch `k`, the grants
/// actually applied (index target above the iCache partition, summed
/// over tenants' snapshot `k`) must stay within
/// `shared_tier_bytes × hot_share_pm / 1000`. Same skewed fleet and
/// starved DRAM budget as the prioritized-tier gate, so both hot and
/// cold tenants occur.
#[test]
fn shared_tier_grants_stay_within_the_all_hot_bound() {
    let mut tenants = derive_tenants(&TraceProfile::mail().scaled(0.05), 4, 42);
    tenants.extend(derive_tenants(&TraceProfile::web_vm().scaled(0.05), 4, 43));
    let policy = ServePolicy::parse("tier:2").expect("policy");
    let bound = policy.shared_tier_bytes * policy.hot_share_pm / 1000;
    let mut cfg = SystemConfig::paper_default();
    cfg.memory_bytes = Some(1 << 20);
    cfg.policy = Some(policy.clone());
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    ServeBuilder::new(Scheme::Pod)
        .config(cfg)
        .tenants(&tenants)
        .shards(2)
        .observer(move |t| ObserverChain::new().with(SnapshotLog(t, Arc::clone(&sink))))
        .run()
        .expect("serve");
    let log = log.lock().expect("log lock");
    let mut granted: Vec<u64> = Vec::new();
    for (_, snap) in log.iter() {
        let k = snap.seq as usize;
        if granted.len() <= k {
            granted.resize(k + 1, 0);
        }
        granted[k] += snap
            .tier_target_bytes
            .saturating_sub(snap.icache.index_bytes);
    }
    assert!(granted.iter().any(|&g| g > 0), "the tier granted something");
    for (k, &g) in granted.iter().enumerate() {
        assert!(g <= bound, "epoch {k}: {g} B granted, bound {bound} B");
    }
    let peak = granted.iter().copied().max().unwrap_or(0);
    eprintln!(
        "peak epoch grant {peak} B = {:.3} x the {} B pool (bound {:.3} x)",
        peak as f64 / policy.shared_tier_bytes as f64,
        policy.shared_tier_bytes,
        bound as f64 / policy.shared_tier_bytes as f64
    );
}

/// Scaling gate, a wall-clock measurement and so not tier-1: run it with
/// `cargo test --release -p pod-core --test serve -- --ignored`. Eight
/// mail tenants are served by one worker, so each shard's busy span is
/// timed uncontended, and the projected critical-path rate (requests
/// over the slowest shard's span, best of three) at 4 shards must reach
/// twice the 1-shard rate. Tenant stacks share nothing, so anything less
/// means the engine serialized somewhere.
#[test]
#[ignore = "wall-clock measurement; run in release"]
fn four_shards_project_at_least_twice_the_one_shard_rate() {
    let tenants = derive_tenants(&TraceProfile::mail().scaled(0.02), 8, 42);
    let rate = |shards| {
        (0..3)
            .map(|_| {
                ServeBuilder::new(Scheme::Pod)
                    .config(SystemConfig::paper_default())
                    .tenants(&tenants)
                    .shards(shards)
                    .jobs(1)
                    .run()
                    .expect("serve")
                    .jobs_per_sec()
            })
            .fold(0.0, f64::max)
    };
    let speedup = rate(4) / rate(1);
    eprintln!("serve scaling: 4 shards at {speedup:.2}x the 1-shard projected rate");
    assert!(
        speedup >= 2.0,
        "expected >= 2.00x at 4 shards, got {speedup:.2}x"
    );
}
