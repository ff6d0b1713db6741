//! # pod-core
//!
//! The assembled POD system and its evaluation harness.
//!
//! This crate wires the substrates together the way Fig. 4 of the paper
//! draws them: trace requests enter at the block interface, writes are
//! charged the hashing delay and pass through a
//! [`pod_dedup::DedupEngine`] (Select-Dedupe or a baseline policy),
//! reads pass through the [`pod_icache::ICache`] read cache, and the
//! surviving physical I/O is serviced by the [`pod_disk::ArraySim`]
//! RAID simulator. Response times are measured per request exactly as
//! the paper's trace replayer does (§IV-A: user response times, with
//! reads and writes also reported separately).
//!
//! * [`config`] — [`SystemConfig`]: the paper's testbed configuration
//!   (4-disk RAID-5, 64 KiB stripe, 32 µs/4 KiB hashing, per-trace DRAM
//!   budgets) plus every knob the ablation sweeps turn.
//! * [`scheme`] — [`Scheme`]: Native / Full-Dedupe / iDedup /
//!   Select-Dedupe / POD (= Select-Dedupe + adaptive iCache).
//! * [`stack`] — the layered [`StorageStack`]: cache / dedup / disk
//!   layers plus fixed background steps, composed declaratively from a
//!   [`StackSpec`] with an observer chain threaded through every layer.
//! * [`obs`] — structured observability: typed
//!   [`StackEvent`]s, [`ObserverChain`] fan-out,
//!   per-layer histograms and the JSONL trace recorder.
//! * [`prof`] — the host-side wall-clock profiler: [`ProfSink`] folds
//!   `HostPhase` events into a [`HostProfile`] of real nanoseconds per
//!   stack phase (as opposed to the simulated `LayerLatency` times).
//! * [`runner`] — the replay entry point: [`ReplayBuilder`]
//!   (`Scheme::builder().trace(..).run()?`), producing a
//!   [`ReplayReport`].
//! * [`serve`] — the sharded multi-tenant serving engine:
//!   [`ServeBuilder`] drives K tenant stacks across N shards on the
//!   worker pool, producing a [`ServeReport`] with per-tenant and
//!   aggregate results that are byte-identical at any worker width.
//! * [`metrics`] — response-time accumulators (mean, percentiles).
//! * [`experiments`] — one function per table/figure of the paper.
//!
//! Most callers want `use pod_core::prelude::*;`.

// `deny`, not `forbid`: the profiler's scope clock carries the one
// scoped `allow(unsafe_code)` in the crate — a single `_rdtsc()`
// intrinsic call in `prof::clock` (see the safety note there). All
// other modules stay unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod metrics;
pub mod obs;
pub mod oracle;
pub mod pool;
pub mod prof;
pub mod runner;
pub mod scheme;
pub mod serve;
pub mod stack;

pub use config::{FaultPlan, ICacheTuning, LatencyModel, ServePolicy, SystemConfig};
pub use metrics::{LatencyHistogram, Metrics, Timeline};
pub use obs::{
    FaultKind, Layer, ObserverChain, StackCounters, StackEvent, StackObserver, StateSnapshot,
};
pub use oracle::{IntegrityDiff, IntegrityReport, OracleObserver};
pub use pool::Executor;
pub use prof::{HostProfile, ProfPhase, ProfSink};
pub use runner::{ReplayBuilder, ReplayReport, ReplaySizing};
pub use scheme::Scheme;
pub use serve::{ServeAggregate, ServeBuilder, ServeReport, TenantCapacity, TenantReport};
pub use stack::{StackSpec, StorageStack};

/// The one-stop import for building and replaying POD schemes.
///
/// ```
/// use pod_core::prelude::*;
///
/// let trace = pod_trace::TraceProfile::mail().scaled(0.002).generate(7);
/// let report = Scheme::Pod
///     .builder()
///     .config(SystemConfig::test_default())
///     .trace(&trace)
///     .run()?;
/// assert!(report.writes_removed_pct() > 0.0);
/// # Ok::<(), pod_types::PodError>(())
/// ```
pub mod prelude {
    pub use crate::config::{FaultPlan, ICacheTuning, LatencyModel, ServePolicy, SystemConfig};
    pub use crate::metrics::{LatencyHistogram, Metrics, Timeline};
    pub use crate::obs::{
        FaultKind, Layer, LayerHistograms, ObserverChain, StackCounters, StackEvent, StackObserver,
        StateSnapshot, TraceRecorder,
    };
    pub use crate::oracle::{IntegrityDiff, IntegrityReport};
    pub use crate::prof::{HostProfile, ProfPhase, ProfSink};
    pub use crate::runner::{ReplayBuilder, ReplayReport};
    pub use crate::scheme::Scheme;
    pub use crate::serve::{
        ServeAggregate, ServeBuilder, ServeReport, TenantCapacity, TenantReport,
    };
    pub use crate::stack::{StackSpec, StorageStack};
}
