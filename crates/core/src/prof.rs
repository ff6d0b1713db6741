//! Host-side wall-clock profiler.
//!
//! Everything else in `pod_core::obs` measures **simulated** time: the
//! `LayerLatency` events carry microseconds of modelled disk seeks and
//! hash latency, and the layer shares in every report are derived
//! from them. This module measures the other axis — **real host
//! nanoseconds** spent inside each phase of the replay loop — because
//! the two disagree in practice: the disk layer can claim 97% of
//! simulated time while the host spends most of its wall clock
//! in cache/dedup/metrics code (the PR 6 lesson: a 3× disk-engine
//! speedup moved end-to-end replay by only ~1.1×).
//!
//! The profiler rides the existing observer chain and keeps the repo's
//! zero-allocation discipline:
//!
//! * a [`ProfSink`] on the chain turns the profiler on: the stack then
//!   wraps each profiled phase in a [`ProfTimer`] (one `Option` of a
//!   monotonic stamp, no heap) and emits one [`StackEvent::HostPhase`]
//!   per scope;
//! * the sink folds those events into a [`HostProfile`]: per-phase
//!   counts, total nanoseconds and log₂ histograms in fixed arrays;
//! * with no sink (the default) not a single event is emitted and
//!   every report stays byte-identical — the golden fixtures never see
//!   host time.
//!
//! The phases partition the wall clock of the thread that runs the
//! replay loop. Where the simulated array runs on a thread of its own
//! ([`disk_on_own_thread`](crate::stack::disk_on_own_thread)), a wait
//! on that thread lands in the phase that made the call: a batch
//! hand-over mostly in `disk_submit` or `disk_run`, the final join in
//! `disk_run`.
//!
//! [`HostProfile`] renders folded stacks (`pod;<layer>;<phase> <ns>`)
//! for flamegraph tooling.

use crate::obs::{StackEvent, StackObserver};

/// The monotonic stamp source behind [`ProfTimer`].
///
/// `Instant::now` costs ~40 ns per read on a virtualized host (the
/// vDSO fast path is not guaranteed), which at roughly ten reads per
/// replayed request is most of the profiler's overhead budget. On
/// x86_64 the timer reads the TSC instead (~8 ns, invariant on every
/// CPU this code targets) and converts ticks to nanoseconds with a
/// ratio calibrated once against the OS monotonic clock; other
/// architectures keep `Instant`.
#[cfg(target_arch = "x86_64")]
// The one unsafe block in the crate: the `_rdtsc` intrinsic. It reads
// a register, touches no memory, and has no safety preconditions on
// x86_64 — the `unsafe` marker is an artifact of all `core::arch`
// intrinsics being unsafe fns.
#[allow(unsafe_code)]
mod clock {
    use std::sync::OnceLock;

    pub type Stamp = u64;

    #[inline]
    pub fn now() -> Stamp {
        // SAFETY: `rdtsc` is unprivileged and always present on x86_64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// Nanoseconds per TSC tick, calibrated once over a ~2 ms spin
    /// against `Instant`. Call through [`super::calibrate`] before the
    /// first timed scope so no phase absorbs the spin.
    pub fn ns_per_tick() -> f64 {
        static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
        *NS_PER_TICK.get_or_init(|| {
            let t0 = std::time::Instant::now();
            let c0 = now();
            while t0.elapsed().as_micros() < 2_000 {
                std::hint::spin_loop();
            }
            let ns = t0.elapsed().as_nanos() as f64;
            let ticks = now().wrapping_sub(c0) as f64;
            if ticks > 0.0 {
                ns / ticks
            } else {
                // TSC not advancing (emulator?): fall back to 1 ns per
                // tick rather than dividing by zero.
                1.0
            }
        })
    }

    #[inline]
    pub fn delta_ns(from: Stamp, to: Stamp) -> u64 {
        (to.wrapping_sub(from) as f64 * ns_per_tick()) as u64
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod clock {
    pub type Stamp = std::time::Instant;

    #[inline]
    pub fn now() -> Stamp {
        std::time::Instant::now()
    }

    #[inline]
    pub fn delta_ns(from: Stamp, to: Stamp) -> u64 {
        to.duration_since(from).as_nanos() as u64
    }
}

/// Warm up the scope clock (TSC calibration on x86_64, no-op
/// elsewhere). The stack calls this at build time when its chain
/// holds a [`ProfSink`], so the one-time ~2 ms calibration spin never
/// lands inside a profiled phase.
pub fn calibrate() {
    #[cfg(target_arch = "x86_64")]
    clock::ns_per_tick();
}

/// Number of log₂ nanosecond buckets per phase: bucket `i` counts
/// scopes whose duration was in `[2^i, 2^(i+1))` ns, the last bucket
/// absorbs everything from ~9.1 minutes up.
pub const PROF_BUCKETS: usize = 40;

/// Layer labels used to group phases, in render order.
pub const PROF_LAYERS: [&str; 4] = ["cache", "dedup", "disk", "other"];

/// A profiled phase of the replay loop.
///
/// Phases partition the host work the stack does per request; each maps
/// to one of the coarse [`PROF_LAYERS`] so host shares line up against
/// the simulated `cache/dedup/disk` split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfPhase {
    /// Read-cache lookups, fills and write-allocate bookkeeping.
    CacheLookup,
    /// Dedup write classification: hashing model + index probe + store
    /// update (`process_write`).
    DedupClassify,
    /// Read-miss planning: mapping a logical range onto physical
    /// fragments.
    PlanRead,
    /// Submitting jobs to the disk backend.
    DiskSubmit,
    /// Advancing the disk event engine (`run_until` / `run_to_idle`).
    DiskRun,
    /// Collecting completions and retiring pending requests.
    DiskCommit,
    /// Background steps (post-process dedup, cache maintenance, shared tier).
    Background,
    /// Epoch snapshot sampling.
    Snapshot,
    /// Observer fan-out: emitting the per-request event burst itself.
    Observe,
}

impl ProfPhase {
    /// Number of phases.
    pub const COUNT: usize = 9;

    /// Every phase, in stable render order.
    pub const ALL: [ProfPhase; Self::COUNT] = [
        ProfPhase::CacheLookup,
        ProfPhase::DedupClassify,
        ProfPhase::PlanRead,
        ProfPhase::DiskSubmit,
        ProfPhase::DiskRun,
        ProfPhase::DiskCommit,
        ProfPhase::Background,
        ProfPhase::Snapshot,
        ProfPhase::Observe,
    ];

    /// Stable wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::CacheLookup => "cache_lookup",
            ProfPhase::DedupClassify => "dedup_classify",
            ProfPhase::PlanRead => "plan_read",
            ProfPhase::DiskSubmit => "disk_submit",
            ProfPhase::DiskRun => "disk_run",
            ProfPhase::DiskCommit => "disk_commit",
            ProfPhase::Background => "background",
            ProfPhase::Snapshot => "snapshot",
            ProfPhase::Observe => "observe",
        }
    }

    /// The coarse layer this phase belongs to (one of [`PROF_LAYERS`]).
    pub fn layer(self) -> &'static str {
        match self {
            ProfPhase::CacheLookup => "cache",
            ProfPhase::DedupClassify | ProfPhase::PlanRead => "dedup",
            ProfPhase::DiskSubmit | ProfPhase::DiskRun | ProfPhase::DiskCommit => "disk",
            ProfPhase::Background | ProfPhase::Snapshot | ProfPhase::Observe => "other",
        }
    }

    /// Index into per-phase arrays (same order as [`ALL`](Self::ALL)).
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// A scoped monotonic timer that is free when profiling is off.
///
/// `ProfTimer::start(false)` is a `None` and costs one branch; with
/// profiling on it captures one monotonic stamp (TSC on x86_64, no
/// allocation). The stack pairs each `start` with an emit of the
/// elapsed nanoseconds, and chains back-to-back phases with
/// [`lap_ns`](ProfTimer::lap_ns) so each boundary costs a single clock
/// read instead of an end-read plus a fresh start-read.
#[derive(Debug, Clone, Copy)]
pub struct ProfTimer(Option<clock::Stamp>);

impl ProfTimer {
    /// Start a timer if `enabled`.
    #[inline]
    pub fn start(enabled: bool) -> Self {
        ProfTimer(if enabled { Some(clock::now()) } else { None })
    }

    /// Elapsed wall nanoseconds since `start`, if the timer ran.
    #[inline]
    pub fn elapsed_ns(self) -> Option<u64> {
        self.0.map(|t| clock::delta_ns(t, clock::now()))
    }

    /// Elapsed wall nanoseconds since `start` (or the previous lap),
    /// resetting the timer to now with the same single clock read.
    #[inline]
    pub fn lap_ns(&mut self) -> Option<u64> {
        let from = self.0?;
        let now = clock::now();
        self.0 = Some(now);
        Some(clock::delta_ns(from, now))
    }
}

/// Per-phase aggregate: count, total nanoseconds and a log₂ histogram,
/// all in fixed storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Number of scopes recorded.
    pub count: u64,
    /// Sum of scope durations in nanoseconds.
    pub total_ns: u64,
    /// Log₂ duration histogram (see [`PROF_BUCKETS`]).
    pub buckets: [u64; PROF_BUCKETS],
}

impl PhaseAgg {
    const fn new() -> Self {
        PhaseAgg {
            count: 0,
            total_ns: 0,
            buckets: [0; PROF_BUCKETS],
        }
    }

    #[inline]
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.buckets[pod_types::log2_bucket::<PROF_BUCKETS>(ns)] += 1;
    }

    fn absorb(&mut self, other: &PhaseAgg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Nearest-rank percentile, reported as the upper bound of the
    /// bucket the rank falls into (`p` in 0..=100).
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << PROF_BUCKETS.min(63)
    }
}

impl Default for PhaseAgg {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregated host wall-time profile of one replay (or, after
/// [`absorb`](Self::absorb), of many).
#[derive(Debug, Clone, PartialEq)]
pub struct HostProfile {
    phases: [PhaseAgg; ProfPhase::COUNT],
}

impl Default for HostProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProfile {
    /// An empty profile.
    pub const fn new() -> Self {
        HostProfile {
            phases: [PhaseAgg::new(); ProfPhase::COUNT],
        }
    }

    /// Record one scope of `ns` nanoseconds under `phase`.
    #[inline]
    pub fn record(&mut self, phase: ProfPhase, ns: u64) {
        self.phases[phase.index()].record(ns);
    }

    /// The aggregate for one phase.
    pub fn phase(&self, phase: ProfPhase) -> &PhaseAgg {
        &self.phases[phase.index()]
    }

    /// Total attributed host nanoseconds across every phase.
    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.iter().all(|p| p.count == 0)
    }

    /// Total nanoseconds attributed to one coarse layer label.
    pub fn layer_ns(&self, layer: &str) -> u64 {
        ProfPhase::ALL
            .into_iter()
            .filter(|p| p.layer() == layer)
            .map(|p| self.phase(p).total_ns)
            .sum()
    }

    /// `(layer, share)` for each of [`PROF_LAYERS`]; shares sum to 1
    /// whenever anything was recorded.
    pub fn layer_shares(&self) -> [(&'static str, f64); PROF_LAYERS.len()] {
        let total = self.total_ns();
        PROF_LAYERS.map(|l| {
            let ns = self.layer_ns(l);
            let share = if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64
            };
            (l, share)
        })
    }

    /// Merge another profile into this one (used by the serve engine to
    /// aggregate per-tenant profiles).
    pub fn absorb(&mut self, other: &HostProfile) {
        for (mine, theirs) in self.phases.iter_mut().zip(other.phases.iter()) {
            mine.absorb(theirs);
        }
    }

    /// Append the profile as folded stacks — one
    /// `pod;<layer>;<phase> <total_ns>` line per non-empty phase, the
    /// input format of standard flamegraph tooling.
    pub fn write_folded(&self, out: &mut String) {
        for phase in ProfPhase::ALL {
            let agg = self.phase(phase);
            if agg.count == 0 {
                continue;
            }
            out.push_str("pod;");
            out.push_str(phase.layer());
            out.push(';');
            out.push_str(phase.name());
            out.push(' ');
            out.push_str(&agg.total_ns.to_string());
            out.push('\n');
        }
    }
}

/// Observer sink that folds [`StackEvent::HostPhase`] events into a
/// [`HostProfile`]. Attaching it to a stack's chain turns the stack's
/// timers on; replay, then `chain.take_sink::<ProfSink>()`.
#[derive(Debug, Clone, Default)]
pub struct ProfSink {
    profile: HostProfile,
}

impl ProfSink {
    /// A sink with an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the sink, yielding its profile.
    pub fn into_profile(self) -> HostProfile {
        self.profile
    }
}

impl StackObserver for ProfSink {
    #[inline]
    fn on_event(&mut self, ev: &StackEvent) {
        if let StackEvent::HostPhase { phase, ns } = ev {
            self.profile.record(*phase, *ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> HostProfile {
        let mut p = HostProfile::new();
        p.record(ProfPhase::CacheLookup, 120);
        p.record(ProfPhase::CacheLookup, 80);
        p.record(ProfPhase::DedupClassify, 1_500);
        p.record(ProfPhase::DiskRun, 40_000);
        p.record(ProfPhase::Observe, 0);
        p
    }

    #[test]
    fn names_round_trip_and_layers_are_exhaustive() {
        let names: std::collections::HashSet<_> =
            ProfPhase::ALL.into_iter().map(ProfPhase::name).collect();
        assert_eq!(names.len(), ProfPhase::COUNT, "phase names are unique");
        for phase in ProfPhase::ALL {
            assert!(PROF_LAYERS.contains(&phase.layer()));
        }
    }

    #[test]
    fn layer_shares_sum_to_one() {
        let p = sample_profile();
        let sum: f64 = p.layer_shares().iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        assert_eq!(p.total_ns(), 120 + 80 + 1_500 + 40_000);
        assert_eq!(p.layer_ns("cache"), 200);
        assert_eq!(p.layer_ns("dedup"), 1_500);
        assert_eq!(p.layer_ns("disk"), 40_000);
    }

    #[test]
    fn folded_output_is_one_line_per_recorded_phase() {
        let mut folded = String::new();
        sample_profile().write_folded(&mut folded);
        // `observe` recorded one zero-ns scope: present in the folded
        // output with a 0 sample.
        assert_eq!(
            folded,
            "pod;cache;cache_lookup 200\n\
             pod;dedup;dedup_classify 1500\n\
             pod;disk;disk_run 40000\n\
             pod;other;observe 0\n"
        );
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut agg = PhaseAgg::new();
        for ns in [10u64, 100, 1_000, 10_000, 100_000] {
            agg.record(ns);
        }
        let p50 = agg.percentile_ns(50.0);
        let p99 = agg.percentile_ns(99.0);
        assert!(p50 <= p99);
        assert!(p99 >= 100_000);
    }

    #[test]
    fn sink_consumes_host_phase_events_only() {
        let mut sink = ProfSink::new();
        sink.on_event(&StackEvent::HostPhase {
            phase: ProfPhase::Background,
            ns: 42,
        });
        sink.on_event(&StackEvent::Finished);
        let p = sink.into_profile();
        assert_eq!(p.total_ns(), 42);
        assert_eq!(p.phase(ProfPhase::Background).count, 1);
    }

    #[test]
    fn absorb_merges_counts_and_buckets() {
        let mut a = sample_profile();
        let b = sample_profile();
        a.absorb(&b);
        assert_eq!(a.total_ns(), 2 * b.total_ns());
        assert_eq!(a.phase(ProfPhase::CacheLookup).count, 4);
    }

    #[test]
    fn timer_is_inert_when_disabled() {
        assert!(ProfTimer::start(false).elapsed_ns().is_none());
        assert!(ProfTimer::start(true).elapsed_ns().is_some());
        assert!(ProfTimer::start(false).lap_ns().is_none());
    }

    #[test]
    fn timer_tracks_wall_time_roughly() {
        // Sanity-check the TSC calibration against a real sleep: a
        // mis-calibrated ns_per_tick would be off by orders of
        // magnitude, so the bounds are deliberately loose.
        calibrate();
        let mut t = ProfTimer::start(true);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let lap = t.lap_ns().expect("timer enabled");
        assert!(
            (3_000_000..1_000_000_000).contains(&lap),
            "5 ms sleep measured as {lap} ns"
        );
        // After a lap the timer restarts: the next reading must not
        // include the sleep.
        let tail = t.elapsed_ns().expect("timer enabled");
        assert!(
            tail < 3_000_000,
            "post-lap reading {tail} ns includes the sleep"
        );
    }
}
