//! A replay's simulated array may run on a thread of its own (see
//! `pod_core::stack::disk_on_own_thread`): the replay hands it a command
//! log and reads completions once, after the disks run idle. Where the
//! disk runs must never show in a result.
//!
//! The placement rule reads the process-wide executor width, so every
//! test here sets it under one lock: width 1 keeps the disk inline,
//! width 2 gives every replay, a serve's included, its disk thread.

use pod_core::config::{FaultPlan, ServePolicy};
use pod_core::pool::set_default_width;
use pod_core::prelude::*;
use pod_core::stack::disk_on_own_thread;
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
        assert!(report.stack.faults_injected > 0, "the plan fired");
    }
    let recorder: TraceRecorder = chain.take_sink().expect("recorder attached");
    let mut jsonl = Vec::new();
    recorder
        .write_jsonl(&mut jsonl, None)
        .expect("in-memory write");
    (format!("{report:?}"), jsonl)
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
                let [inline, threaded] = PLACEMENTS.map(|(width, on_thread)| {
                    at_width(width, || {
                        assert_eq!(disk_on_own_thread(&cfg), on_thread, "width {width}");
                        replay(scheme, trace, &cfg)
                    })
                });
                let case = format!("{scheme} on {} under {plan:?}", trace.name);
                assert!(inline.0 == threaded.0, "report differs: {case}");
                assert!(inline.1 == threaded.1, "JSONL differs: {case}");
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
                assert_eq!(disk_on_own_thread(&cfg), width >= 2, "width {width}");
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
        let mut stack = StorageStack::with_observer(
            &Scheme::Native.stack_spec(),
            &cfg,
            &trace,
            ObserverChain::new(),
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

/// Wait up to 2 s for exactly `n` disk threads.
fn wait_for(n: usize, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while disk_threads() != Some(n) {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::yield_now();
    }
}
