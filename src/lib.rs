//! # pod — Performance-Oriented I/O Deduplication
//!
//! Facade crate for the POD workspace: a from-scratch Rust reproduction
//! of *POD: Performance Oriented I/O Deduplication for Primary Storage
//! Systems in the Cloud* (Mao, Jiang, Wu, Tian — IPDPS 2014).
//!
//! This crate re-exports the public API of every workspace crate so
//! downstream users can depend on a single crate:
//!
//! ```
//! use pod::prelude::*;
//!
//! let trace = TraceProfile::mail().scaled(0.01).generate(42);
//! let report = Scheme::Pod.builder().trace(&trace).run()?;
//! assert!(report.writes_removed_pct() > 0.0);
//! # Ok::<(), PodError>(())
//! ```

pub use pod_cache as cache;
pub use pod_core as core;
pub use pod_dedup as dedup;
pub use pod_disk as disk;
pub use pod_icache as icache;
pub use pod_trace as trace;
pub use pod_types as types;

/// Common imports for applications built on POD.
pub mod prelude {
    pub use pod_core::obs::{
        LayerHistograms, ObserverChain, StackCounters, StackEvent, StackObserver, StateSnapshot,
        TraceRecorder,
    };
    pub use pod_core::{experiments, Metrics, ReplayBuilder, ReplayReport, Scheme, SystemConfig};
    pub use pod_dedup::{DedupConfig, DedupEngine, WriteScratch};
    pub use pod_disk::{DiskSpec, RaidConfig, SchedulerKind};
    pub use pod_icache::ICacheConfig;
    pub use pod_trace::{Trace, TraceProfile, TraceStats};
    pub use pod_types::{
        Fingerprint, IoOp, IoRequest, Lba, Pba, PodError, PodResult, SimDuration, SimTime,
        BLOCK_BYTES,
    };
}
