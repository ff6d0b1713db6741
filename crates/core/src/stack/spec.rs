//! Declarative stack composition.
//!
//! A [`StackSpec`] says *which* layers a scheme stacks and with *which*
//! policies — it is pure data, built once per replay by
//! [`Scheme::stack_spec`](crate::Scheme::stack_spec). The replay driver
//! never branches on the scheme again: everything scheme-specific is
//! resolved here and consumed by [`StorageStack::with_observer`].
//!
//! [`StorageStack::with_observer`]: crate::stack::StorageStack::with_observer

use pod_dedup::DedupPolicy;

/// How the read cache keys blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKeying {
    /// By logical block address (the paper's design; one slot per LBA).
    Lba,
    /// By content fingerprint prefix (I/O-Dedup: duplicate blocks share
    /// one slot).
    Content,
}

/// Complete, declarative description of one storage stack.
///
/// Everything a [`Scheme`](crate::Scheme) used to mean by inline
/// branching in the replay loop lives here as plain data:
///
/// | field | layer it configures |
/// |---|---|
/// | `policy` | [`DedupEngine`](pod_dedup::DedupEngine) write-path policy; `PostProcess` adds the background scan |
/// | `dedups` | whether the dedup module (and its DRAM budget) exists |
/// | `inline_hashing` | fingerprinting latency on the write's critical path |
/// | `adaptive_icache` | [`ICache`](pod_icache::ICache) repartitioning |
/// | `keying` | read-cache key derivation |
#[derive(Debug, Clone, PartialEq)]
pub struct StackSpec {
    /// Display name (the paper's figure labels).
    pub name: &'static str,
    /// Dedup policy driving the write path.
    pub policy: DedupPolicy,
    /// Whether the scheme deduplicates at all; a non-dedup stack has no
    /// storage-node cache budget (the stock array of §IV-A).
    pub dedups: bool,
    /// Whether fingerprinting is charged on the write's critical path.
    pub inline_hashing: bool,
    /// Whether the iCache adapts its index/read partition.
    pub adaptive_icache: bool,
    /// Read-cache key derivation.
    pub keying: CacheKeying,
}
