//! # pod-icache
//!
//! iCache: POD's adaptive partitioning of one DRAM budget between the
//! **index cache** (hot fingerprints, improves *write* performance by
//! detecting more redundancy) and the **read cache** (data blocks,
//! improves *read* performance) — paper §III-C, Fig. 7.
//!
//! The mechanism is ARC-style ghost accounting applied across two cache
//! *types*: behind each actual cache sits a ghost cache holding only the
//! metadata of recent evictions. A ghost hit means "this access would
//! have been a hit if that cache were bigger". Every epoch the
//! [`ICache`] turns the epoch's ghost-hit counts into cost-benefit
//! values and the Swap Module repartitions, swapping victim data to a
//! reserved region of the back-end storage (the swap traffic is
//! reported so the replay driver can charge it).
//!
//! The crate owns the read cache and its ghost, one `pod_cache::GhostedLru`
//! list (ARC's T1 ∪ B1), the per-epoch ghost-hit counts of both sides
//! and the cost-benefit rule. The index table lives in `pod-dedup` with
//! the ghost index behind it, in one list the same way: it is sized
//! through the repartition decision this crate emits, takes the ghost
//! capacity this crate computes ([`ICache::ghost_index_entries`]) and
//! reports its ghost hits back ([`ICache::on_ghost_index_hits`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod icache;

pub use icache::{ICache, ICacheConfig, ICacheState, ReadCachePolicy, Repartition};
