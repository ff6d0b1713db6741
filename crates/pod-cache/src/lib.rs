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
//! * [`LruCache`] — O(1) LRU: a dense slab of nodes linked by index,
//!   found through its own open-addressing table of one tagged `u64`
//!   slot word per entry that starts small and doubles on demand, so a
//!   cache costs what it holds, whatever its capacity. It supports
//!   **online resizing** ([`LruCache::set_capacity`]), which is what
//!   iCache's Swap Module exercises every epoch.
//! * [`GhostCache`] — key-only LRU that records would-have-been hits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ghost;
pub mod lru;

pub use ghost::{GhostCache, GhostState};
pub use lru::{LruCache, LruState};
