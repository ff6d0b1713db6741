//! A replay's simulated array may run on a thread of its own (see
//! `pod_core::stack::disk_on_own_thread`): the replay hands it a command
//! log and reads completions once, after the disks run idle. Where the
//! disk runs must never show in a result.
//!
//! The placement rule reads the process-wide executor width, so every
//! test here sets it under one lock: width 1 keeps the disk inline,
//! width 2 gives every replay, a serve's and a profiled one's included,
//! its disk thread.

use pod_core::config::{FaultPlan, ServePolicy};
use pod_core::pool::set_default_width;
use pod_core::prelude::*;
use pod_core::stack::disk_on_own_thread;
use pod_core::{ProfPhase, ProfSink};
use pod_trace::{derive_tenants, Trace, TraceProfile};
use std::sync::Mutex;

static WIDTH: Mutex<()> = Mutex::new(());

/// Run `f` with the process-wide executor width set to `width`.
fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    let _guard = WIDTH.lock().unwrap_or_else(|e| e.into_inner());
    set_default_width(width);
    let out = f();
    set_default_width(0);
    out
}

/// The disk placements compared: inline, then on its own thread.
const PLACEMENTS: [(usize, bool); 2] = [(1, false), (2, true)];

/// Everything a replay produces: the whole report and its JSONL trace.
fn replay(scheme: Scheme, trace: &Trace, cfg: &SystemConfig) -> (String, Vec<u8>) {
    let (report, mut chain) = scheme
        .builder()
        .config(cfg.clone())
        .trace(trace)
        .record(0)
        .run_observed()
        .expect("replay");
    if cfg.faults.is_some() {
        assert!(report.stack.all.faults > 0, "the plan fired");
    }
    let recorder: TraceRecorder = chain.take_sink().expect("recorder attached");
    let mut jsonl = Vec::new();
    recorder
        .write_jsonl(&mut jsonl, None)
        .expect("in-memory write");
    (format!("{report:?}"), jsonl)
}

/// A profiled replay: its report without the profile, and how many
/// scopes each phase timed.
fn profiled(
    scheme: Scheme,
    trace: &Trace,
    cfg: &SystemConfig,
) -> (String, [u64; ProfPhase::COUNT]) {
    let mut report = scheme
        .builder()
        .config(cfg.clone())
        .trace(trace)
        .profile(true)
        .run()
        .expect("profiled replay");
    let prof = report.profile.take().expect("profile attached");
    (
        format!("{report:?}"),
        ProfPhase::ALL.map(|p| prof.phase(p).count),
    )
}

#[test]
fn every_scheme_and_fault_plan_replays_identically_with_the_disk_on_its_own_thread() {
    let traces = [
        TraceProfile::mail().scaled(0.01).generate(17),
        TraceProfile::homes().scaled(0.01).generate(17),
        TraceProfile::web_vm().scaled(0.01).generate(17),
    ];
    let plans = [
        None,
        Some(FaultPlan::all(7)),
        Some(FaultPlan::parse("crash:150:3").expect("crash plan")),
    ];
    for plan in plans {
        let mut cfg = SystemConfig {
            faults: plan.clone(),
            ..SystemConfig::test_default()
        };
        // Room for the 0.01-scale working sets: several batches of the
        // disk log per replay.
        cfg.disk.capacity_blocks = 40_000;
        for trace in &traces {
            for scheme in Scheme::extended() {
                let [(inline, prof_inline), (threaded, prof_threaded)] =
                    PLACEMENTS.map(|(width, on_thread)| {
                        at_width(width, || {
                            assert_eq!(disk_on_own_thread(), on_thread, "width {width}");
                            (replay(scheme, trace, &cfg), profiled(scheme, trace, &cfg))
                        })
                    });
                let case = format!("{scheme} on {} under {plan:?}", trace.name);
                assert!(inline.0 == threaded.0, "report differs: {case}");
                assert!(inline.1 == threaded.1, "JSONL differs: {case}");
                // Profiling leaves the placement and the report alone.
                let same = inline.0 == prof_inline.0 && inline.0 == prof_threaded.0;
                assert!(same, "profiled report differs: {case}");
                // The front end runs the same scopes in either layout.
                assert_eq!(prof_inline.1, prof_threaded.1, "phase counts: {case}");
            }
        }
    }
}

#[test]
fn a_serve_is_identical_with_disk_threads() {
    let tenants = derive_tenants(&TraceProfile::mail().scaled(0.003), 4, 5);
    let policy = ServePolicy::parse("tier:2,rate:40,burst:4,quota:1").expect("policy");
    for policy in [None, Some(policy)] {
        let cfg = SystemConfig {
            policy: policy.clone(),
            ..SystemConfig::test_default()
        };
        let serve = |width: usize, shards: usize| {
            at_width(width, || {
                assert_eq!(disk_on_own_thread(), width >= 2, "width {width}");
                let report = ServeBuilder::new(Scheme::Pod)
                    .config(cfg.clone())
                    .tenants(&tenants)
                    .shards(shards)
                    .jobs(width)
                    .run()
                    .expect("serve");
                // Everything but the shard a tenant ran on.
                let tenants: Vec<_> = report.tenants.iter().map(|t| &t.report).collect();
                format!("{tenants:?} {:?}", report.aggregate)
            })
        };
        // `serve --shards 1 --jobs 1` against `--shards 1|2 --jobs 2`.
        let inline = serve(1, 1);
        for shards in [1, 2] {
            let threaded = serve(2, shards);
            assert!(
                inline == threaded,
                "{shards} shards differ under {policy:?}"
            );
        }
    }
}

/// Threads of this process named `pod-disk` (Linux), or `None` where
/// `/proc` does not list them.
fn disk_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|name| name.trim_end() == "pod-disk")
            })
            .count(),
    )
}

#[test]
fn a_stack_dropped_mid_replay_joins_its_disk_thread() {
    at_width(2, || {
        if disk_threads().is_none() {
            return;
        }
        // Another test's joined worker may still be listed for a moment.
        wait_for(0, "no disk thread outside a replay");
        let trace = TraceProfile::web_vm().scaled(0.004).generate(17);
        let cfg = SystemConfig::test_default();
        // Profiled: a `ProfSink` on the chain leaves the placement alone.
        let mut stack = StorageStack::with_observer(
            &Scheme::Native.stack_spec(),
            &cfg,
            &trace,
            ObserverChain::new().with(ProfSink::new()),
        )
        .expect("valid stack");
        for (idx, req) in trace.requests.iter().take(trace.len() / 2).enumerate() {
            stack.run_until(req.arrival);
            stack.process_request(idx, req, true).expect("request");
        }
        // The worker names itself once it first runs.
        wait_for(1, "the array runs on its own thread");
        drop(stack);
        // Joined in the drop; the kernel may list an exited thread for
        // a moment after the join returns.
        wait_for(0, "the disk thread outlived its stack");
    });
}

#[test]
fn a_profiled_replay_with_a_disk_thread_attributes_at_most_its_wall() {
    // The phases partition the replay thread's wall clock; the disk
    // thread's own work must not be counted on top of it.
    let trace = TraceProfile::mail().scaled(0.05).generate(17);
    at_width(2, || {
        assert!(disk_on_own_thread());
        let t0 = std::time::Instant::now();
        let report = Scheme::Pod
            .builder()
            .trace(&trace)
            .profile(true)
            .run()
            .expect("profiled replay");
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let attributed = report.profile.expect("profile attached").total_ns() as f64;
        assert!(attributed > 0.0, "nothing was timed");
        assert!(
            attributed <= 1.05 * wall_ns,
            "{attributed} ns attributed, {wall_ns} ns wall"
        );
    });
}

/// Wait up to 2 s for exactly `n` disk threads.
fn wait_for(n: usize, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while disk_threads() != Some(n) {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}
