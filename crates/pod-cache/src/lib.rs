//! # pod-cache
//!
//! Cache substrate for the POD deduplication system.
//!
//! POD's iCache (paper §III-C) partitions one DRAM budget between an
//! **index cache** (hot fingerprint entries, LRU with a `Count` heat
//! field) and a **read cache** (4 KiB data blocks), and keeps a **ghost
//! cache** (metadata-only shadow) behind each to estimate the benefit of
//! growing it — the accounting ARC introduced, without ARC's
//! replacement. This crate provides those building blocks:
//!
//! * [`GhostedLru`] — a cache and its ghost as one LRU list split by a
//!   boundary (ARC's L1 = T1 ∪ B1): an eviction moves the boundary one
//!   node, a ghost overflow drops the list's tail and reuses its node,
//!   a shrink (iCache's Swap Module, every epoch) moves the boundary k
//!   nodes, and a ghost probe is a lookup in the same table. The index
//!   table and the read cache each run on one.
//!
//! With no ghost, a [`GhostedLru`] is the plain LRU; [`lru`] gives it
//! the name and the four calls the benchmark harness makes.
//!
//! There is one list: a dense slab of nodes linked by index, found
//! through an open-addressing table of one tagged `u64` slot word per
//! entry that starts small and doubles on demand, so a cache costs what
//! it holds, whatever its capacity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ghost;
pub mod lru;
mod slots;

pub use ghost::{GhostState, GhostedLru, Lookup};
pub use lru::LruCache;
