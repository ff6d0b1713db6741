//! Engine ⇔ seed-model equivalence.
//!
//! `reference` below is a frozen copy of the event engine as first
//! written: a plain `BinaryHeap` loop with a peek-then-pop drain, a
//! per-job record, fresh vectors for every phase and scheduler view, and
//! every service time through the `DiskSpec` f64 math. The production
//! [`ArraySim`] is the same model with a sorted event vector, jobs in
//! reusable slots with their phases flat, seek rounding without the libm
//! call and a scheduler that reads the queue in place. The property: for
//! arbitrary job mixes — single requests, jobs shaped like the storage
//! stack's (index lookups, several extents' pre-reads, then their
//! writes) and deep chains of dependent read phases — over every
//! scheduler, the paper's 4-disk RAID-5 and a 3-disk one (the div/mod
//! fallback of the address arithmetic) and both disk presets, it
//! produces **identical** completion times, clocks, and [`DiskStats`].

use pod_disk::raid::{PhysOp, RaidGeometry};
use pod_disk::sched::SchedulerKind;
use pod_disk::spec::{DiskSpec, RaidConfig};
use pod_disk::{ArraySim, DiskStats};
use pod_types::{Pba, SimTime};

/// The allocating read plan the reference engine was written against.
fn plan_read(geometry: &RaidGeometry, pba: Pba, nblocks: u32) -> Vec<PhysOp> {
    let mut ops = Vec::new();
    geometry.plan_read_into(pba, nblocks, &mut ops);
    ops
}

/// The allocating write plan the reference engine was written against:
/// `[reads, writes]`, or `[writes]` when nothing is pre-read.
fn plan_write(geometry: &RaidGeometry, pba: Pba, nblocks: u32) -> Vec<Vec<PhysOp>> {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    geometry.plan_write_into(pba, nblocks, &mut reads, &mut writes);
    if reads.is_empty() {
        vec![writes]
    } else {
        vec![reads, writes]
    }
}

/// A RAID-5 whose member count is not a power of two.
fn three_disk_raid5() -> RaidConfig {
    RaidConfig {
        ndisks: 3,
        stripe_unit_blocks: 16,
    }
}

/// The pre-optimization engine, verbatim.
mod reference {
    use super::*;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub struct JobId(usize);

    #[derive(Debug)]
    enum EventKind {
        PhaseArrive { job: usize },
        OpComplete { disk: usize, job: usize },
    }

    #[derive(Debug)]
    struct Event {
        at_us: u64,
        seq: u64,
        kind: EventKind,
    }

    impl PartialEq for Event {
        fn eq(&self, other: &Self) -> bool {
            self.at_us == other.at_us && self.seq == other.seq
        }
    }
    impl Eq for Event {}
    impl PartialOrd for Event {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Event {
        fn cmp(&self, other: &Self) -> Ordering {
            (other.at_us, other.seq).cmp(&(self.at_us, self.seq))
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct QueuedOp {
        op: PhysOp,
        arrival_us: u64,
        job: usize,
    }

    /// The slice of op state the scheduler sees, copied out of the
    /// queue before every pick as the first engine did.
    #[derive(Debug, Clone, Copy)]
    struct PendingView {
        lba: u64,
        arrival_us: u64,
    }

    #[derive(Debug)]
    struct DiskState {
        head: u64,
        busy: bool,
        direction_up: bool,
        pending: Vec<QueuedOp>,
        stats: DiskStats,
    }

    impl DiskState {
        fn new() -> Self {
            Self {
                head: 0,
                busy: false,
                direction_up: true,
                pending: Vec::new(),
                stats: DiskStats::default(),
            }
        }
    }

    #[derive(Debug)]
    struct JobState {
        phases: Vec<Vec<PhysOp>>,
        current_phase: usize,
        outstanding: usize,
        finish: Option<SimTime>,
    }

    pub struct RefArraySim {
        geometry: RaidGeometry,
        spec: DiskSpec,
        sched: SchedulerKind,
        clock: SimTime,
        events: BinaryHeap<Event>,
        seq: u64,
        disks: Vec<DiskState>,
        jobs: Vec<JobState>,
    }

    impl RefArraySim {
        pub fn new(geometry: RaidGeometry, spec: DiskSpec, sched: SchedulerKind) -> Self {
            let ndisks = geometry.ndisks();
            Self {
                geometry,
                spec,
                sched,
                clock: SimTime::ZERO,
                events: BinaryHeap::new(),
                seq: 0,
                disks: (0..ndisks).map(|_| DiskState::new()).collect(),
                jobs: Vec::new(),
            }
        }

        pub fn submit_phases(&mut self, at: SimTime, phases: Vec<Vec<PhysOp>>) -> JobId {
            let phases: Vec<Vec<PhysOp>> = phases.into_iter().filter(|p| !p.is_empty()).collect();
            let id = self.jobs.len();
            if phases.is_empty() {
                self.jobs.push(JobState {
                    phases,
                    current_phase: 0,
                    outstanding: 0,
                    finish: Some(at),
                });
                return JobId(id);
            }
            self.jobs.push(JobState {
                phases,
                current_phase: 0,
                outstanding: 0,
                finish: None,
            });
            self.push_event(at, EventKind::PhaseArrive { job: id });
            JobId(id)
        }

        pub fn submit_read(&mut self, at: SimTime, pba: Pba, nblocks: u32) -> JobId {
            let ops = plan_read(&self.geometry, pba, nblocks);
            self.submit_phases(at, vec![ops])
        }

        pub fn submit_write(&mut self, at: SimTime, pba: Pba, nblocks: u32) -> JobId {
            let phases = plan_write(&self.geometry, pba, nblocks);
            self.submit_phases(at, phases)
        }

        pub fn run_until(&mut self, t: SimTime) {
            while let Some(ev) = self.events.peek() {
                if ev.at_us > t.as_micros() {
                    break;
                }
                let ev = self.events.pop().expect("peeked event exists");
                self.clock = SimTime::from_micros(ev.at_us);
                self.handle(ev);
            }
            self.clock = self.clock.max_of(t);
        }

        pub fn run_to_idle(&mut self) {
            while let Some(ev) = self.events.pop() {
                self.clock = SimTime::from_micros(ev.at_us);
                self.handle(ev);
            }
        }

        pub fn job_completion(&self, job: JobId) -> Option<SimTime> {
            self.jobs.get(job.0).and_then(|j| j.finish)
        }

        pub fn disk_stats(&self) -> Vec<DiskStats> {
            self.disks.iter().map(|d| d.stats).collect()
        }

        pub fn now(&self) -> SimTime {
            self.clock
        }

        fn push_event(&mut self, at: SimTime, kind: EventKind) {
            let seq = self.seq;
            self.seq += 1;
            self.events.push(Event {
                at_us: at.as_micros(),
                seq,
                kind,
            });
        }

        fn handle(&mut self, ev: Event) {
            match ev.kind {
                EventKind::PhaseArrive { job } => {
                    let now = self.clock;
                    let ops = self.jobs[job].phases[self.jobs[job].current_phase].clone();
                    self.jobs[job].outstanding = ops.len();
                    let mut touched: Vec<usize> = Vec::with_capacity(ops.len());
                    for op in ops {
                        let d = &mut self.disks[op.disk];
                        d.pending.push(QueuedOp {
                            op,
                            arrival_us: now.as_micros(),
                            job,
                        });
                        d.stats.max_queue_depth = d.stats.max_queue_depth.max(d.pending.len());
                        if !touched.contains(&op.disk) {
                            touched.push(op.disk);
                        }
                    }
                    for disk in touched {
                        self.try_dispatch(disk);
                    }
                }
                EventKind::OpComplete { disk, job } => {
                    self.disks[disk].busy = false;
                    let j = &mut self.jobs[job];
                    j.outstanding -= 1;
                    if j.outstanding == 0 {
                        j.current_phase += 1;
                        if j.current_phase < j.phases.len() {
                            let now = self.clock;
                            self.push_event(now, EventKind::PhaseArrive { job });
                        } else {
                            j.finish = Some(self.clock);
                        }
                    }
                    self.try_dispatch(disk);
                }
            }
        }

        fn try_dispatch(&mut self, disk: usize) {
            let now = self.clock;
            let d = &mut self.disks[disk];
            if d.busy || d.pending.is_empty() {
                return;
            }
            let views: Vec<PendingView> = d
                .pending
                .iter()
                .map(|q| PendingView {
                    lba: q.op.lba,
                    arrival_us: q.arrival_us,
                })
                .collect();
            let (idx, dir) =
                self.sched
                    .pick(&views, |v| (v.lba, v.arrival_us), d.head, d.direction_up);
            d.direction_up = dir;
            let q = d.pending.swap_remove(idx);
            let distance = d.head.abs_diff(q.op.lba);
            let service = self.spec.service_time(distance, q.op.nblocks);
            d.head = q.op.lba + q.op.nblocks as u64;
            d.busy = true;
            d.stats.ops += 1;
            d.stats.busy_us += service.as_micros();
            d.stats.queue_wait_us += now.as_micros().saturating_sub(q.arrival_us);
            if q.op.write {
                d.stats.blocks_written += q.op.nblocks as u64;
            } else {
                d.stats.blocks_read += q.op.nblocks as u64;
            }
            let done = now + service;
            self.push_event(done, EventKind::OpComplete { disk, job: q.job });
        }
    }
}

/// What a multi-extent [`Step::Job`] does with its extents — one shape
/// per way the storage stack's array backend submits.
#[derive(Clone, Copy, Debug)]
enum JobKind {
    /// Index-lookup reads, then every extent's pre-reads, then their
    /// writes, with an empty phase planned in between.
    Write,
    /// Every extent's reads in one phase.
    Read,
    /// Parity-less streaming writes of every extent in one phase.
    Swap,
}

/// One step of a generated scenario.
#[derive(Clone, Debug)]
enum Step {
    /// Submit a read/write of `nblocks` at `pba`, `gap_us` after the
    /// previous step.
    Submit {
        write: bool,
        pba: u64,
        nblocks: u32,
        gap_us: u64,
    },
    /// Submit one job over several extents, `gap_us` after the previous
    /// step; `lookups` are 1-block index probes (writes only).
    Job {
        kind: JobKind,
        lookups: Vec<u64>,
        extents: Vec<(u64, u32)>,
        gap_us: u64,
    },
    /// Submit one job of dependent phases, `gap_us` after the previous
    /// step: each phase reads its extents, and starts only once the
    /// phase before it has completed.
    Chain {
        phases: Vec<Vec<(u64, u32)>>,
        gap_us: u64,
    },
    /// Advance both engines with `run_until(now + gap_us)`.
    Advance { gap_us: u64 },
}

#[derive(Clone, Debug)]
struct Scenario {
    sched: SchedulerKind,
    raid: RaidConfig,
    /// `DiskSpec::wd1600aajs()` (a 41.9 M-block member) instead of
    /// `DiskSpec::test_disk()`.
    wd: bool,
    steps: Vec<Step>,
}

/// Drive both engines through `scenario` and assert identical
/// externally observable state at every advance point and at the end.
fn check(scenario: &Scenario) {
    let spec = if scenario.wd {
        DiskSpec::wd1600aajs()
    } else {
        DiskSpec::test_disk()
    };
    let geo = RaidGeometry::new(scenario.raid.clone());
    let mut fast = ArraySim::new(geo.clone(), spec.clone(), scenario.sched);
    let mut slow = reference::RefArraySim::new(geo.clone(), spec.clone(), scenario.sched);

    let data_cap = scenario.raid.data_disks() as u64 * spec.capacity_blocks;
    // Keep an extent on-device.
    let extent = |pba: u64, nblocks: u32| {
        let nblocks = nblocks.clamp(1, 256);
        (Pba::new(pba % (data_cap - nblocks as u64)), nblocks)
    };
    let mut t = 0u64;
    let mut fast_jobs = Vec::new();
    let mut slow_jobs = Vec::new();
    for (i, step) in scenario.steps.iter().enumerate() {
        match *step {
            Step::Submit {
                write,
                pba,
                nblocks,
                gap_us,
            } => {
                t += gap_us;
                let at = SimTime::from_micros(t);
                let (pba, nblocks) = extent(pba, nblocks);
                if write {
                    fast_jobs.push(fast.submit_write(at, pba, nblocks));
                    slow_jobs.push(slow.submit_write(at, pba, nblocks));
                } else {
                    fast_jobs.push(fast.submit_read(at, pba, nblocks));
                    slow_jobs.push(slow.submit_read(at, pba, nblocks));
                }
            }
            Step::Job {
                kind,
                ref lookups,
                ref extents,
                gap_us,
            } => {
                t += gap_us;
                let at = SimTime::from_micros(t);
                let extents: Vec<_> = extents.iter().map(|&(p, n)| extent(p, n)).collect();
                // The reference's phases, planned alongside: the empty
                // second phase stands for the one `end_phase` skips.
                let (mut first, mut reads, mut writes) = (Vec::new(), Vec::new(), Vec::new());
                fast_jobs.push(fast.submit_job(at, |plan| match kind {
                    JobKind::Write => {
                        for &l in lookups {
                            let (pba, _) = extent(l, 1);
                            plan.read(pba, 1);
                            geo.plan_read_into(pba, 1, &mut first);
                        }
                        plan.end_phase();
                        plan.end_phase();
                        for &(pba, n) in &extents {
                            plan.write(pba, n);
                            geo.plan_write_into(pba, n, &mut reads, &mut writes);
                        }
                    }
                    JobKind::Read => {
                        for &(pba, n) in &extents {
                            plan.read(pba, n);
                            geo.plan_read_into(pba, n, &mut first);
                        }
                    }
                    JobKind::Swap => {
                        for &(pba, n) in &extents {
                            plan.stream_write(pba, n);
                            geo.plan_stream_write_into(pba, n, &mut first);
                        }
                    }
                }));
                let phases = vec![first, Vec::new(), reads, writes];
                slow_jobs.push(slow.submit_phases(at, phases));
            }
            Step::Chain { ref phases, gap_us } => {
                t += gap_us;
                let at = SimTime::from_micros(t);
                let phases: Vec<Vec<_>> = phases
                    .iter()
                    .map(|p| p.iter().map(|&(pba, n)| extent(pba, n)).collect())
                    .collect();
                fast_jobs.push(fast.submit_job(at, |plan| {
                    for phase in &phases {
                        for &(pba, n) in phase {
                            plan.read(pba, n);
                        }
                        plan.end_phase();
                    }
                }));
                let ops = phases
                    .iter()
                    .map(|phase| {
                        phase
                            .iter()
                            .flat_map(|&(pba, n)| plan_read(&geo, pba, n))
                            .collect()
                    })
                    .collect();
                slow_jobs.push(slow.submit_phases(at, ops));
            }
            Step::Advance { gap_us } => {
                t += gap_us;
                let at = SimTime::from_micros(t);
                fast.run_until(at);
                slow.run_until(at);
                assert_eq!(fast.now(), slow.now(), "clock diverged at step {i}");
                for (k, (fj, sj)) in fast_jobs.iter().zip(&slow_jobs).enumerate() {
                    assert_eq!(
                        fast.job_completion(*fj),
                        slow.job_completion(*sj),
                        "job {k} diverged at step {i} ({scenario:?})"
                    );
                }
            }
        }
    }
    fast.run_to_idle();
    slow.run_to_idle();
    for (k, (fj, sj)) in fast_jobs.iter().zip(&slow_jobs).enumerate() {
        assert_eq!(
            fast.job_completion(*fj),
            slow.job_completion(*sj),
            "final completion of job {k} diverged ({scenario:?})"
        );
    }
    assert_eq!(
        fast.disk_stats(),
        slow.disk_stats(),
        "disk stats diverged ({scenario:?})"
    );
    assert_eq!(fast.mean_queue_wait_us(), {
        let stats = slow.disk_stats();
        let ops: u64 = stats.iter().map(|s| s.ops).sum();
        if ops == 0 {
            0.0
        } else {
            stats.iter().map(|s| s.queue_wait_us).sum::<u64>() as f64 / ops as f64
        }
    });
}

mod properties {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn step() -> impl Strategy<Value = Step> {
        let submit = || {
            (any::<bool>(), any::<u64>(), 1u32..200, 0u64..30_000).prop_map(
                |(write, pba, nblocks, gap_us)| Step::Submit {
                    write,
                    pba,
                    nblocks,
                    gap_us,
                },
            )
        };
        let job = || {
            let kind = prop_oneof![
                Just(JobKind::Write),
                Just(JobKind::Write),
                Just(JobKind::Read),
                Just(JobKind::Swap),
            ];
            (
                kind,
                vec(any::<u64>(), 0..4),
                vec((any::<u64>(), 1u32..64), 1..5),
                0u64..30_000,
            )
                .prop_map(|(kind, lookups, extents, gap_us)| Step::Job {
                    kind,
                    lookups,
                    extents,
                    gap_us,
                })
        };
        let chain = (
            vec(vec((any::<u64>(), 1u32..256), 1..4), 1..10),
            0u64..30_000,
        )
            .prop_map(|(phases, gap_us)| Step::Chain { phases, gap_us });
        let advance = || (0u64..50_000).prop_map(|gap_us| Step::Advance { gap_us });
        // Arms are drawn uniformly: a quarter single requests, a quarter
        // multi-extent jobs, three eighths advances, an eighth chains.
        prop_oneof![
            submit(),
            submit(),
            job(),
            job(),
            advance(),
            advance(),
            advance(),
            chain,
        ]
    }

    fn scenario() -> impl Strategy<Value = Scenario> {
        let sched = prop_oneof![
            Just(SchedulerKind::Fifo),
            Just(SchedulerKind::Sstf),
            Just(SchedulerKind::Elevator),
        ];
        let raid = prop_oneof![Just(three_disk_raid5()), Just(RaidConfig::paper_raid5())];
        (sched, raid, any::<bool>(), vec(step(), 1..120)).prop_map(|(sched, raid, wd, steps)| {
            Scenario {
                sched,
                raid,
                wd,
                steps,
            }
        })
    }

    proptest! {
        #[test]
        fn engine_matches_pre_change_reference(s in scenario()) {
            check(&s);
        }
    }
}

/// Deterministic spot checks: dense bursty mixes (deep queues, every
/// scheduler, both disk presets) that would be low-probability draws
/// for the generator. Every fifth step is a multi-extent write job, and
/// an eight-phase chain runs under the burst.
#[test]
fn dense_burst_equivalence() {
    for sched in [
        SchedulerKind::Fifo,
        SchedulerKind::Sstf,
        SchedulerKind::Elevator,
    ] {
        let steps: Vec<Step> = (0..400u64)
            .map(|i| {
                // Zero/near-zero gaps → queue depths in the dozens.
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let gap_us = (i % 4) * 7;
                match i {
                    200 => Step::Chain {
                        phases: (0..8).map(|k| vec![(h >> (7 * k), 125)]).collect(),
                        gap_us,
                    },
                    _ if i % 5 == 4 => Step::Job {
                        kind: JobKind::Write,
                        lookups: vec![h, h >> 7],
                        extents: vec![(h, 3), (h >> 9, 20), (h >> 3, 60)],
                        gap_us,
                    },
                    _ => Step::Submit {
                        write: i % 3 == 0,
                        pba: h,
                        nblocks: (h % 64 + 1) as u32,
                        gap_us,
                    },
                }
            })
            .collect();
        for wd in [false, true] {
            check(&Scenario {
                sched,
                raid: RaidConfig::paper_raid5(),
                wd,
                steps: steps.clone(),
            });
        }
    }
}

/// The paper-array shape with idle gaps between every job: each op sees
/// an empty queue, so every dispatch picks from a queue of one — compare
/// against the heap-driven reference step by step.
#[test]
fn idle_gap_fast_path_equivalence() {
    let steps: Vec<Step> = (0..300u64)
        .flat_map(|i| {
            let h = i.wrapping_mul(0xD134_2543_DE82_EF95);
            [
                Step::Submit {
                    write: i % 2 == 0,
                    pba: h,
                    nblocks: (h % 8 + 1) as u32,
                    gap_us: 0,
                },
                // Longer than any single service time on the test disk.
                Step::Advance { gap_us: 40_000 },
            ]
        })
        .collect();
    for raid in [three_disk_raid5(), RaidConfig::paper_raid5()] {
        check(&Scenario {
            sched: SchedulerKind::Fifo,
            raid,
            wd: false,
            steps: steps.clone(),
        });
    }
}
