//! Structured observability: typed events, observer fan-out, recorders.
//!
//! Every layer of the [`StorageStack`](crate::stack::StorageStack)
//! reports what it did as a [`StackEvent`] through one
//! [`ObserverChain`]. The chain always folds [`StackCounters`]
//! (what [`ReplayReport`](crate::ReplayReport) needs) and fans the same
//! event out to any number of attached sinks — per-layer
//! [`LayerHistograms`], an epoch-granular [`TraceRecorder`], or a
//! custom [`StackObserver`] — without allocating per event.
//!
#![doc = include_str!("EVENTS.md")]

pub mod json;
mod recorders;
pub mod snapshot;

pub use recorders::{EpochRow, LayerHistograms, TraceRecorder};
pub use snapshot::StateSnapshot;

use pod_dedup::ClassKind;
use std::any::Any;

/// A stack layer, for timing attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The read-cache / iCache layer.
    Cache,
    /// The deduplication layer (hashing + index metadata).
    Dedup,
    /// The disk backend (service + queueing).
    Disk,
}

impl Layer {
    /// All layers, in display order.
    pub const ALL: [Layer; 3] = [Layer::Cache, Layer::Dedup, Layer::Disk];

    /// Stable lowercase tag used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cache => "cache",
            Layer::Dedup => "dedup",
            Layer::Disk => "disk",
        }
    }
}

/// A fault class injected by the
/// [`FaultyBackend`](crate::stack::FaultyBackend) (see
/// [`FaultPlan`](crate::FaultPlan)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A read submission failed transiently and was retried.
    ReadError,
    /// A write submission failed transiently and was retried.
    WriteError,
    /// A submission was hit by a latency spike.
    LatencySpike,
    /// A multi-extent write landed as a prefix first, then was
    /// replayed whole.
    TornWrite,
    /// Power loss: outstanding jobs dropped, volatile dedup state
    /// rebuilt from the NVRAM Map.
    Crash,
    /// Silent corruption of stored content (no recovery — the
    /// integrity oracle must catch it).
    Corruption,
}

impl FaultKind {
    /// All kinds, in display order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::ReadError,
        FaultKind::WriteError,
        FaultKind::LatencySpike,
        FaultKind::TornWrite,
        FaultKind::Crash,
        FaultKind::Corruption,
    ];

    /// Stable lowercase tag used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ReadError => "read_error",
            FaultKind::WriteError => "write_error",
            FaultKind::LatencySpike => "latency_spike",
            FaultKind::TornWrite => "torn_write",
            FaultKind::Crash => "crash",
            FaultKind::Corruption => "corruption",
        }
    }
}

/// One typed event from the storage stack. `Copy`, so emitting an event
/// never touches the heap; variants carry values, never owned buffers.
// `Snapshot` dwarfs the other variants, but events are built on the
// stack and delivered by reference once per epoch — boxing it would
// put an allocation on the snapshot path and cost `Copy` for every
// variant.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackEvent {
    /// A read request finished its cache lookup pass (`hit` = every
    /// block of the request was cached). `measured` is `false` during
    /// warm-up.
    ReadLookup {
        /// Whole request served from cache.
        hit: bool,
        /// Outside the warm-up window.
        measured: bool,
        /// Issuing tenant (0 for single-tenant replays).
        tenant: u16,
    },
    /// A missed read was mapped onto `fragments` physical extents.
    ReadFragments {
        /// Number of physical extents (1 = contiguous).
        fragments: u64,
        /// Outside the warm-up window.
        measured: bool,
        /// Issuing tenant (0 for single-tenant replays).
        tenant: u16,
    },
    /// The dedup layer classified and processed a write request.
    WriteClassified {
        /// The paper's Cat-1/2/3 / unique classification.
        category: ClassKind,
        /// Chunks eliminated from the write stream.
        deduped_blocks: u32,
        /// Chunks actually written.
        written_blocks: u32,
        /// Whole request removed from disk I/O (Cat-1).
        removed: bool,
        /// On-disk index lookups charged before the write.
        disk_index_lookups: u32,
        /// Outside the warm-up window.
        measured: bool,
        /// Issuing tenant (0 for single-tenant replays).
        tenant: u16,
    },
    /// The iCache repartitioned the DRAM budget between index and read
    /// cache.
    Repartition {
        /// New index-cache budget, bytes.
        index_bytes: u64,
        /// New read-cache budget, bytes.
        read_bytes: u64,
        /// Blocks moved through the reserved swap region, charged to
        /// the disks as swap traffic.
        swap_blocks: u64,
        /// `true` when the index grew (write-intensive adaptation).
        index_grew: bool,
    },
    /// A background deduplication pass completed.
    BackgroundScan {
        /// Chunks examined.
        scanned_chunks: u64,
        /// Chunks remapped onto an existing copy.
        deduped_chunks: u64,
    },
    /// The fault layer injected a fault into the disk backend.
    FaultInjected {
        /// What was injected.
        kind: FaultKind,
        /// Service delay the fault added, µs (0 for silent faults).
        delay_us: u64,
    },
    /// The stack recovered from an injected fault (transparent retry,
    /// or a crash-recovery pass that rebuilt volatile state).
    Recovered {
        /// The fault recovered from.
        kind: FaultKind,
        /// Index entries rebuilt from the NVRAM Map (crash recovery
        /// only; 0 for transparent retries).
        repaired_entries: u64,
    },
    /// Time spent in one layer on behalf of a request (µs). Cache and
    /// dedup time is emitted inline; disk time is attributed when the
    /// job completes, so it arrives during
    /// [`finish`](crate::stack::StorageStack::finish).
    LayerLatency {
        /// The layer the time belongs to.
        layer: Layer,
        /// Microseconds spent.
        us: u64,
    },
    /// An epoch-boundary sample of every component's internal gauges
    /// (iCache partition, ghost hits, Index heat, Map fan-in, …).
    /// Emitted once per iCache epoch and once at the end of the replay.
    Snapshot {
        /// The sampled state.
        snap: StateSnapshot,
    },
    /// A request finished its foreground processing (background steps
    /// run after this event).
    RequestDone {
        /// `true` for writes.
        write: bool,
        /// Outside the warm-up window.
        measured: bool,
        /// Issuing tenant (0 for single-tenant replays).
        tenant: u16,
    },
    /// A tenant's request was admitted late by its token-bucket rate
    /// limit ([`ServePolicy::rate_limit_rps`](crate::ServePolicy::rate_limit_rps)).
    /// Emitted only when a [`ServePolicy`](crate::ServePolicy)
    /// throttles — plain replays and policy-free serves never produce
    /// it.
    ThrottleWait {
        /// The throttled tenant.
        tenant: u16,
        /// Simulated delay added before admission, µs.
        us: u64,
    },
    /// The shared-tier governor shrank a tenant's fingerprint index to
    /// its current grant or quota, evicting fingerprints. Emitted only
    /// when a [`ServePolicy`](crate::ServePolicy) is active.
    QuotaEviction {
        /// The tenant whose index shrank.
        tenant: u16,
        /// Fingerprints evicted by the resize.
        victims: u64,
        /// The index budget after the shrink, bytes.
        index_bytes: u64,
    },
    /// Real host wall-clock nanoseconds spent in one profiled phase of
    /// the replay loop (see [`ProfPhase`](crate::prof::ProfPhase)).
    /// Emitted only when the stack's chain holds a
    /// [`ProfSink`](crate::prof::ProfSink) — the default replay
    /// produces none, so traces and golden fixtures recorded without
    /// profiling are byte-identical.
    HostPhase {
        /// The phase the time belongs to.
        phase: crate::prof::ProfPhase,
        /// Host nanoseconds spent.
        ns: u64,
    },
    /// The replay finished: background scans drained, disks idle, all
    /// deferred [`LayerLatency`](Self::LayerLatency) events delivered.
    /// Recorders flush partial state on this event.
    Finished,
}

/// Receives every [`StackEvent`] the stack emits. The default
/// implementation ignores everything, so observers match only the
/// variants they consume.
pub trait StackObserver {
    /// One event from the stack. Must not allocate if the observer is
    /// meant to ride the replay hot path — see the zero-allocation
    /// contract in the module docs.
    fn on_event(&mut self, ev: &StackEvent) {
        let _ = ev;
    }
}

/// A [`StackObserver`] that can be stored in an [`ObserverChain`] and
/// downcast back out after the replay. Blanket-implemented for every
/// `'static` observer; never implement it by hand.
pub trait ObserverSink: StackObserver + Any {
    /// The sink as `Any`, for read-back downcasts.
    fn as_any(&self) -> &dyn Any;
    /// The sink as owned `Any`, for extraction.
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: StackObserver + Any> ObserverSink for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Fan-out of one event stream to the built-in [`StackCounters`] plus
/// any number of boxed sinks, in attachment order.
///
/// The chain is the concrete observer every stack carries, handed to
/// [`StorageStack::with_observer`] at build time. Events then fan out
/// with no per-event allocation.
///
/// [`StorageStack::with_observer`]: crate::stack::StorageStack::with_observer
#[derive(Default)]
pub struct ObserverChain {
    counters: StackCounters,
    sinks: Vec<Box<dyn ObserverSink>>,
}

impl ObserverChain {
    /// An empty chain: counters only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach `sink`, builder-style.
    pub fn with(mut self, sink: impl StackObserver + Any) -> Self {
        self.push(sink);
        self
    }

    /// Attach `sink` at the end of the chain.
    pub fn push(&mut self, sink: impl StackObserver + Any) {
        self.sinks.push(Box::new(sink));
    }

    /// Deliver one event: counters first, then every sink in
    /// attachment order.
    #[inline]
    pub fn emit(&mut self, ev: &StackEvent) {
        self.counters.fold(ev);
        for sink in &mut self.sinks {
            sink.on_event(ev);
        }
    }

    /// The built-in aggregate counters.
    pub fn counters(&self) -> &StackCounters {
        &self.counters
    }

    /// Number of attached sinks (excluding the built-in counters).
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// `true` when no sinks are attached (counters still run).
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// The first attached sink of concrete type `T`, if any.
    pub fn sink<T: Any>(&self) -> Option<&T> {
        self.sinks.iter().find_map(|s| s.as_any().downcast_ref())
    }

    /// Remove and return the first attached sink of type `T`.
    pub fn take_sink<T: Any>(&mut self) -> Option<T> {
        let idx = self.sinks.iter().position(|s| s.as_any().is::<T>())?;
        let sink = self.sinks.remove(idx);
        Some(*sink.into_any().downcast().expect("type checked above"))
    }
}

impl std::fmt::Debug for ObserverChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObserverChain")
            .field("counters", &self.counters)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// The chain's built-in counters: the whole replay as one recorder
/// row, plus the few tallies a [`ReplayReport`](crate::ReplayReport)
/// needs that no JSONL key carries.
///
/// The chain folds every event through [`EpochRow::absorb`], and the
/// serving engine sums tenants through the `epoch_counters!` table,
/// so the report and a `--trace-out` recording cannot disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackCounters {
    /// Every event of the replay, warm-up included, folded into one
    /// row: equal to [`TraceRecorder::totals`] except for `epoch`
    /// (left 0) and `host_ns` (always 0 — host time is
    /// nondeterministic and never reaches a report).
    pub all: EpochRow,
    /// The same fold over read events outside warm-up only: its
    /// `reads`, `read_hits`, `frag_sum` and `frag_reads` are the
    /// measured window behind the report's read-cache hit rate and
    /// fragmentation; every other field stays 0.
    pub measured_reads: EpochRow,
    /// State snapshots sampled at epoch boundaries.
    pub snapshots: u64,
    /// Total service delay added by injected faults, µs.
    pub fault_delay_us: u64,
    /// Index entries rebuilt from the NVRAM Map by crash recovery.
    pub index_entries_rebuilt: u64,
}

impl StackCounters {
    /// Fold one event: the row takes every count; the arms below add
    /// only what the row does not carry.
    #[inline]
    pub(crate) fn fold(&mut self, ev: &StackEvent) {
        match *ev {
            // Reports are byte-identical at any serve topology, and
            // host wall-clock would break that.
            StackEvent::HostPhase { .. } => return,
            StackEvent::ReadLookup { measured: true, .. }
            | StackEvent::ReadFragments { measured: true, .. } => self.measured_reads.absorb(ev),
            StackEvent::Snapshot { .. } => self.snapshots += 1,
            StackEvent::FaultInjected { delay_us, .. } => self.fault_delay_us += delay_us,
            StackEvent::Recovered {
                repaired_entries, ..
            } => self.index_entries_rebuilt += repaired_entries,
            _ => {}
        }
        self.all.absorb(ev);
    }

    /// Add `other`'s counters to these. Every counter is additive,
    /// so summing per-tenant counters yields exactly what one
    /// consolidated stack would have reported — the serving engine's
    /// aggregate view.
    pub(crate) fn absorb(&mut self, other: &StackCounters) {
        self.all.add(&other.all);
        self.measured_reads.add(&other.measured_reads);
        self.snapshots += other.snapshots;
        self.fault_delay_us += other.fault_delay_us;
        self.index_entries_rebuilt += other.index_entries_rebuilt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A repartition that moved `swap_blocks` through the swap region.
    pub(super) fn repartition(swap_blocks: u64) -> StackEvent {
        StackEvent::Repartition {
            index_bytes: 0,
            read_bytes: 0,
            swap_blocks,
            index_grew: true,
        }
    }

    #[test]
    fn hit_rate_and_fragmentation_defaults() {
        let c = StackCounters::default();
        assert_eq!(c.measured_reads.read_hit_rate(), 0.0);
        assert_eq!(c.measured_reads.read_fragmentation(), 1.0);
        assert_eq!(c.all.layer_share(Layer::Disk), 0.0);
    }

    #[test]
    fn counters_accumulate_from_events() {
        let mut c = StackCounters::default();
        c.fold(&StackEvent::ReadLookup {
            hit: true,
            measured: true,
            tenant: 0,
        });
        c.fold(&StackEvent::ReadLookup {
            hit: false,
            measured: true,
            tenant: 0,
        });
        // Warm-up: in the whole-replay row, not the measured reads.
        c.fold(&StackEvent::ReadLookup {
            hit: true,
            measured: false,
            tenant: 0,
        });
        c.fold(&StackEvent::ReadFragments {
            fragments: 3,
            measured: true,
            tenant: 0,
        });
        c.fold(&repartition(7));
        c.fold(&StackEvent::Snapshot {
            snap: StateSnapshot::default(),
        });
        assert_eq!(c.snapshots, 1);
        assert_eq!(c.measured_reads.reads, 2);
        assert_eq!(c.measured_reads.read_hits, 1);
        assert_eq!((c.all.reads, c.all.read_hits), (3, 2));
        assert!((c.measured_reads.read_hit_rate() - 0.5).abs() < 1e-12);
        assert!((c.measured_reads.read_fragmentation() - 3.0).abs() < 1e-12);
        assert_eq!((c.all.repartitions, c.all.swap_blocks), (1, 7));
    }

    #[test]
    fn write_classification_mix() {
        let mut c = StackCounters::default();
        let write = |category, removed| StackEvent::WriteClassified {
            category,
            deduped_blocks: 0,
            written_blocks: 1,
            removed,
            disk_index_lookups: 0,
            measured: true,
            tenant: 0,
        };
        c.fold(&write(ClassKind::FullyRedundantSequential, true));
        c.fold(&write(ClassKind::ScatteredPartial, false));
        c.fold(&write(ClassKind::ContiguousPartial, false));
        c.fold(&write(ClassKind::Unique, false));
        assert_eq!(
            (c.all.cat1, c.all.cat2, c.all.cat3, c.all.unique),
            (1, 1, 1, 1)
        );
        assert_eq!(c.all.writes, 4);
        assert_eq!(c.all.written_blocks, 4);
    }

    #[test]
    fn layer_time_shares() {
        let mut c = StackCounters::default();
        c.fold(&StackEvent::LayerLatency {
            layer: Layer::Dedup,
            us: 30,
        });
        c.fold(&StackEvent::LayerLatency {
            layer: Layer::Disk,
            us: 70,
        });
        assert_eq!(Layer::ALL.map(|l| c.all.layer_us(l)), [0, 30, 70]);
        assert!((c.all.layer_share(Layer::Disk) - 0.7).abs() < 1e-12);
        assert!((c.all.layer_share(Layer::Cache)).abs() < 1e-12);
    }

    #[test]
    fn host_time_never_reaches_the_counters() {
        let mut c = StackCounters::default();
        c.fold(&StackEvent::HostPhase {
            phase: crate::prof::ProfPhase::DiskRun,
            ns: 1_000,
        });
        assert_eq!(c, StackCounters::default());
    }

    #[test]
    fn chain_fans_out_in_attachment_order() {
        // Each sink logs its identity; a shared event count proves
        // ordering (sink A always sees the event before sink B).
        #[derive(Default)]
        struct Tagger {
            tag: u8,
            seen: Vec<u8>,
        }
        impl StackObserver for Tagger {
            fn on_event(&mut self, _ev: &StackEvent) {
                self.seen.push(self.tag);
            }
        }
        let mut chain = ObserverChain::new()
            .with(Tagger {
                tag: 1,
                ..Default::default()
            })
            .with(Tagger {
                tag: 2,
                ..Default::default()
            });
        assert_eq!(chain.len(), 2);
        chain.emit(&StackEvent::Finished);
        chain.emit(&repartition(1));
        // Counters ran too.
        assert_eq!(chain.counters().all.swap_blocks, 1);
        let first: Tagger = chain.take_sink().expect("tagger present");
        assert_eq!(first.tag, 1, "take_sink returns the first match");
        assert_eq!(first.seen, vec![1, 1]);
        let second: Tagger = chain.take_sink().expect("second tagger");
        assert_eq!(second.tag, 2);
        assert!(chain.take_sink::<Tagger>().is_none());
    }

    #[test]
    fn sink_readback_by_type() {
        let chain = ObserverChain::new().with(LayerHistograms::new());
        assert!(chain.sink::<LayerHistograms>().is_some());
        assert!(chain.sink::<TraceRecorder>().is_none());
    }

    #[test]
    fn counters_absorb_sums_every_field() {
        let mut a = StackCounters::default();
        a.fold(&StackEvent::ReadLookup {
            hit: true,
            measured: true,
            tenant: 1,
        });
        a.fold(&StackEvent::LayerLatency {
            layer: Layer::Disk,
            us: 40,
        });
        let mut b = StackCounters::default();
        b.fold(&StackEvent::ReadLookup {
            hit: false,
            measured: true,
            tenant: 2,
        });
        b.fold(&repartition(3));
        let mut sum = a;
        sum.absorb(&b);
        assert_eq!(sum.measured_reads.reads, 2);
        assert_eq!(sum.measured_reads.read_hits, 1);
        assert_eq!(sum.all.disk_us, 40);
        assert_eq!(sum.all.swap_blocks, 3);
    }

    #[test]
    fn fault_kind_tags_are_stable() {
        assert_eq!(
            FaultKind::ALL.map(FaultKind::name),
            [
                "read_error",
                "write_error",
                "latency_spike",
                "torn_write",
                "crash",
                "corruption"
            ]
        );
    }

    #[test]
    fn fault_events_accumulate_in_counters() {
        let mut c = StackCounters::default();
        c.fold(&StackEvent::FaultInjected {
            kind: FaultKind::ReadError,
            delay_us: 500,
        });
        c.fold(&StackEvent::FaultInjected {
            kind: FaultKind::LatencySpike,
            delay_us: 8_000,
        });
        c.fold(&StackEvent::Recovered {
            kind: FaultKind::ReadError,
            repaired_entries: 0,
        });
        c.fold(&StackEvent::Recovered {
            kind: FaultKind::Crash,
            repaired_entries: 17,
        });
        assert_eq!(c.all.faults, 2);
        assert_eq!(c.fault_delay_us, 8_500);
        assert_eq!(c.all.recoveries, 2);
        assert_eq!(c.index_entries_rebuilt, 17);
    }

    #[test]
    fn qos_events_accumulate_and_absorb() {
        let mut a = StackCounters::default();
        a.fold(&StackEvent::ThrottleWait { tenant: 1, us: 250 });
        a.fold(&StackEvent::ThrottleWait { tenant: 1, us: 750 });
        a.fold(&StackEvent::QuotaEviction {
            tenant: 1,
            victims: 32,
            index_bytes: 4096,
        });
        assert_eq!((a.all.throttle_waits, a.all.throttle_wait_us), (2, 1000));
        assert_eq!((a.all.quota_evictions, a.all.quota_evicted_fps), (1, 32));
        let mut sum = StackCounters::default();
        sum.absorb(&a);
        sum.absorb(&a);
        assert_eq!(
            (sum.all.throttle_waits, sum.all.throttle_wait_us),
            (4, 2000)
        );
        assert_eq!(
            (sum.all.quota_evictions, sum.all.quota_evicted_fps),
            (2, 64)
        );
    }
}
