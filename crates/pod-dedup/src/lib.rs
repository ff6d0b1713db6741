//! # pod-dedup
//!
//! The deduplication engines of the POD reproduction: the paper's
//! **Select-Dedupe** (request-based selective dedup, §III-B) and its
//! three comparison points — **Native** (no dedup), **Full-Dedupe**
//! (dedup everything, complete on-disk index), and **iDedup**
//! (capacity-oriented sequence dedup, Srinivasan et al. FAST'12) —
//! built over one shared substrate:
//!
//! * [`store`] — the [`ChunkStore`]: LBA→PBA mapping (the **Map table**,
//!   NVRAM-accounted, m-to-1), per-PBA reference counts that enforce the
//!   paper's consistency rule (*"prevent the referenced data from being
//!   overwritten and updated"*), in-place writes at the block's home
//!   location when safe, and overflow allocation when the home is pinned.
//! * [`index`] — the **Index table**: hot fingerprint entries in an LRU
//!   with a per-entry `Count` (paper Fig. 6), resizable online by iCache.
//! * [`classify`] — write-request categorisation (paper Fig. 5):
//!   fully-redundant-sequential / scattered-partial / contiguous-partial.
//! * [`engine`] — the [`DedupEngine`] write/read pipeline, parameterised
//!   by [`DedupPolicy`].
//!
//! The engine layer is deliberately I/O-free: it decides *what* must be
//! written or read where (extents, dedup remaps, on-disk index lookups)
//! and `pod-core` turns those decisions into simulated disk jobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod engine;
pub mod index;
pub mod journal;
pub mod store;

pub use classify::{ChunkCandidate, ClassKind};
pub use engine::{
    DedupConfig, DedupEngine, DedupPolicy, DedupState, ReadPlan, RecoveryOutcome, ScanOutcome,
    WriteScratch, WriteSummary,
};
pub use index::{IndexPolicy, IndexState, IndexTable, INDEX_ENTRY_BYTES};
pub use journal::{MapJournal, JOURNAL_ENTRY_BYTES};
pub use store::{BlockSet, ChunkStore, MapState};
