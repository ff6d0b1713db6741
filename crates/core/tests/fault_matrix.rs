//! The fault matrix: every scheme × every fault class, each replay
//! differentially checked by the integrity oracle.
//!
//! This is the end-to-end acceptance surface for the fault-injection
//! backend: transient errors and latency spikes must be absorbed by
//! retries, torn writes must be repaired by the follow-up write, a
//! mid-replay crash must be healed by rebuilding the Index from the
//! NVRAM Map — and after all of it, every live logical block must still
//! read back the content last written to it (zero oracle divergence).
//! Only deliberate silent corruption may make the oracle fail, and then
//! it must pinpoint the damaged LBA. The serving engine gets the same
//! matrix, with and without a QoS policy, so the shared tier's index
//! resizes meet crash recovery.

use pod_core::prelude::*;
use pod_trace::{derive_tenants, TraceProfile};

fn tiny_trace() -> pod_trace::Trace {
    TraceProfile::mail().scaled(0.004).generate(17)
}

fn replay_verified(scheme: Scheme, faults: Option<FaultPlan>) -> ReplayReport {
    let mut cfg = SystemConfig::test_default();
    cfg.faults = faults;
    scheme
        .builder()
        .config(cfg)
        .trace(&tiny_trace())
        .verify(true)
        .run()
        .expect("replay completes under faults")
}

#[test]
fn every_scheme_survives_every_fault_class_with_zero_divergence() {
    let plans: [(&str, Option<FaultPlan>); 3] = [
        ("no-fault", None),
        ("transient", Some(FaultPlan::transient(7))),
        ("crash", Some(FaultPlan::crash(7, 150))),
    ];
    for scheme in Scheme::all() {
        for (label, plan) in &plans {
            let rep = replay_verified(scheme, plan.clone());
            let integ = rep.integrity.as_ref().expect("oracle attached");
            assert!(integ.passed(), "{scheme} x {label}: {}", integ.summary());
            assert!(
                integ.checked > 0,
                "{scheme} x {label}: oracle walked blocks"
            );
            match label {
                &"no-fault" => {
                    assert_eq!(rep.stack.all.faults, 0, "{scheme}: clean run");
                }
                _ => {
                    assert!(
                        rep.stack.all.faults > 0,
                        "{scheme} x {label}: plan injected nothing"
                    );
                }
            }
        }
    }
}

/// Serve × policy × fault class: 4 tenants on 2 shards, each tenant
/// verified by its own oracle. The policy drives every QoS mechanism at
/// once (shared tier, rate limit, cache quota), so tier-driven
/// index resizes interleave with crash recovery's index rebuild.
#[test]
fn serve_survives_every_policy_and_fault_class_with_zero_divergence() {
    let tenants = derive_tenants(&TraceProfile::mail().scaled(0.003), 4, 5);
    let policies = [
        ("no-policy", None),
        (
            "policy",
            Some(ServePolicy::parse("tier:2,rate:40,burst:4,quota:1").expect("policy")),
        ),
    ];
    let plans: [(&str, Option<FaultPlan>); 4] = [
        ("no-fault", None),
        ("transient", Some(FaultPlan::transient(7))),
        ("crash", Some(FaultPlan::crash(7, 150))),
        ("all", Some(FaultPlan::all(7))),
    ];
    for (policy_label, policy) in &policies {
        for (plan_label, plan) in &plans {
            let mut cfg = SystemConfig::test_default();
            cfg.policy = policy.clone();
            cfg.faults = plan.clone();
            let rep = ServeBuilder::new(Scheme::Pod)
                .config(cfg)
                .tenants(&tenants)
                .shards(2)
                .verify(true)
                .run()
                .expect("serve completes under faults");
            for t in &rep.tenants {
                let label = format!("{policy_label} x {plan_label} x tenant {}", t.tenant);
                let integ = t.report.integrity.as_ref().expect("oracle attached");
                assert!(integ.passed(), "{label}: {}", integ.summary());
                assert!(integ.checked > 0, "{label}: oracle walked blocks");
                let faults = t.report.stack.all.faults;
                if plan.is_some() {
                    assert!(faults > 0, "{label}: plan injected nothing");
                } else {
                    assert_eq!(faults, 0, "{label}: clean run");
                }
                assert_eq!(
                    t.report.stack.all.throttle_waits > 0,
                    policy.is_some(),
                    "{label}: the policy is live exactly when set"
                );
            }
        }
    }
}

/// Foreground disk jobs `scheme` submits replaying the tiny trace. Up
/// to its crash point a crash plan replays exactly as a clean run does,
/// so a crash at job `j` fires iff `j` is within that count: bisect.
fn foreground_jobs(scheme: Scheme) -> u64 {
    let fires = |job| {
        replay_verified(scheme, Some(FaultPlan::crash(7, job)))
            .stack
            .all
            .faults
            > 0
    };
    let (mut fired, mut missed) = (1, tiny_trace().len() as u64 + 1);
    assert!(fires(fired), "{scheme}: a crash at the first job fires");
    while missed - fired > 1 {
        let mid = fired + (missed - fired) / 2;
        if fires(mid) {
            fired = mid;
        } else {
            missed = mid;
        }
    }
    fired
}

#[test]
fn a_crash_at_any_point_of_the_replay_recovers_with_zero_divergence() {
    const POINTS: u64 = 16;
    for scheme in Scheme::all() {
        let jobs = foreground_jobs(scheme);
        assert!(jobs >= POINTS, "{scheme}: {jobs} jobs");
        for k in 1..=POINTS {
            let job = k * jobs / POINTS;
            let rep = replay_verified(scheme, Some(FaultPlan::crash(7, job)));
            let integ = rep.integrity.as_ref().expect("oracle attached");
            assert!(
                integ.passed(),
                "{scheme} x crash at job {job}/{jobs}: {}",
                integ.summary()
            );
            assert!(
                rep.stack.all.recoveries >= 1,
                "{scheme} x crash at job {job}/{jobs}: recovery ran"
            );
        }
    }
}

#[test]
fn transient_faults_recover_and_cost_latency() {
    let clean = replay_verified(Scheme::Pod, None);
    let faulty = replay_verified(Scheme::Pod, Some(FaultPlan::transient(7)));
    assert!(faulty.stack.all.faults > 0);
    assert_eq!(
        faulty.stack.all.recoveries, faulty.stack.all.faults,
        "every transient fault is transparently retried"
    );
    assert!(faulty.stack.fault_delay_us > 0, "retries cost time");
    // The injected retries push mean response time up, never down.
    assert!(
        faulty.overall.mean_us() >= clean.overall.mean_us(),
        "faulty {} vs clean {}",
        faulty.overall.mean_us(),
        clean.overall.mean_us()
    );
}

#[test]
fn crash_mid_replay_rebuilds_the_index_from_the_map() {
    let rep = replay_verified(Scheme::Pod, Some(FaultPlan::crash(7, 150)));
    let integ = rep.integrity.as_ref().expect("oracle attached");
    assert!(integ.passed(), "{}", integ.summary());
    assert!(rep.stack.all.faults >= 1, "the crash fired");
    assert!(rep.stack.all.recoveries >= 1, "recovery ran");
    assert!(
        rep.stack.index_entries_rebuilt > 0,
        "the Index was repopulated from the NVRAM Map"
    );
    // Dedup still works after recovery: the rebuilt index keeps finding
    // duplicates, so the replay removes writes as usual.
    assert!(rep.writes_removed_pct() > 0.0, "dedup survives the crash");
}

#[test]
fn torn_and_spiking_writes_stay_consistent() {
    for plan in [FaultPlan::torn(9), FaultPlan::latency(9), FaultPlan::all(9)] {
        let rep = replay_verified(Scheme::SelectDedupe, Some(plan));
        let integ = rep.integrity.as_ref().expect("oracle attached");
        assert!(integ.passed(), "{}", integ.summary());
        assert!(rep.stack.all.faults > 0);
    }
}

#[test]
fn silent_corruption_is_caught_and_pinpointed() {
    let lba = 100;
    let rep = replay_verified(Scheme::Pod, Some(FaultPlan::corrupt(lba)));
    let integ = rep.integrity.as_ref().expect("oracle attached");
    assert!(!integ.passed(), "corruption must not pass verification");
    assert_eq!(integ.divergent, 1, "exactly the corrupted block diverges");
    let diff = integ.diffs.first().expect("diff reported");
    assert_eq!(diff.lba, lba, "the damaged LBA is pinpointed");
    assert!(diff.actual.is_some(), "mapping survives, content differs");
    assert!(
        integ.summary().contains("lba 100"),
        "summary names the block: {}",
        integ.summary()
    );
}

#[test]
fn fault_injection_is_deterministic() {
    let a = replay_verified(Scheme::Pod, Some(FaultPlan::all(7)));
    let b = replay_verified(Scheme::Pod, Some(FaultPlan::all(7)));
    assert_eq!(a.stack.all.faults, b.stack.all.faults);
    assert_eq!(a.stack.fault_delay_us, b.stack.fault_delay_us);
    assert_eq!(a.stack.all.recoveries, b.stack.all.recoveries);
    assert_eq!(a.overall.mean_us(), b.overall.mean_us());
    assert_eq!(a.counters, b.counters);
    // A different seed draws a different fault schedule.
    let c = replay_verified(Scheme::Pod, Some(FaultPlan::all(8)));
    assert!(
        c.stack.fault_delay_us != a.stack.fault_delay_us
            || c.stack.all.faults != a.stack.all.faults,
        "seed must steer the fault schedule"
    );
}

#[test]
fn fault_events_round_trip_through_the_trace_recorder() {
    let mut cfg = SystemConfig::test_default();
    cfg.faults = Some(FaultPlan::transient(7));
    let (rep, mut chain) = Scheme::Pod
        .builder()
        .config(cfg)
        .trace(&tiny_trace())
        .record(256)
        .run_observed()
        .expect("replay");
    let rec: TraceRecorder = chain.take_sink().expect("recorder attached");
    let faults_in_rows: u64 = rec.rows().iter().map(|r| r.faults).sum();
    let recoveries_in_rows: u64 = rec.rows().iter().map(|r| r.recoveries).sum();
    assert_eq!(faults_in_rows, rep.stack.all.faults);
    assert_eq!(recoveries_in_rows, rep.stack.all.recoveries);
}
