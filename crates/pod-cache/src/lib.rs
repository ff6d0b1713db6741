//! # pod-cache
//!
//! Cache substrate for the POD deduplication system.
//!
//! POD's iCache (paper §III-C) partitions one DRAM budget between an
//! **index cache** (hot fingerprint entries, LRU with a `Count` heat
//! field) and a **read cache** (4 KiB data blocks), and keeps a **ghost
//! cache** (metadata-only shadow) behind each to estimate the benefit of
//! growing it — the mechanism ARC introduced. This crate provides those
//! building blocks, plus the LFU and ARC alternatives the ablation
//! benches swap in:
//!
//! * [`LruCache`] — O(1) LRU: a dense slab of nodes linked by index,
//!   found through its own open-addressing table of one tagged `u64`
//!   slot word per entry that starts small and doubles on demand, so a
//!   cache costs what it holds, whatever its capacity. Every other
//!   cache here is built from it. All of them support **online
//!   resizing** ([`LruCache::set_capacity`]), which is what iCache's
//!   Swap Module exercises every epoch.
//! * [`GhostCache`] — key-only LRU that records would-have-been hits.
//! * [`ArcCache`] — the full ARC(c) policy (Megiddo & Modha, FAST'03),
//!   cited by the paper as the origin of ghost-based adaptation.
//! * [`LfuCache`] — O(1) LFU, an ablation alternative for the index table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arc;
pub mod ghost;
pub mod lfu;
pub mod lru;

pub use arc::ArcCache;
pub use ghost::{GhostCache, GhostState};
pub use lfu::LfuCache;
pub use lru::{LruCache, LruState};
