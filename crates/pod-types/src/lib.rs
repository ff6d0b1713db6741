//! # pod-types
//!
//! Core vocabulary shared by every crate in the POD workspace: block
//! addresses, fingerprints, simulated time, I/O request descriptors, the
//! common error type, and the two deterministic primitives every
//! simulation leans on: the seeded random streams ([`rng`]) and the
//! stable FNV-1a hash ([`hash`]).
//!
//! POD (Mao et al., IPDPS 2014) operates at the block-device level with a
//! fixed deduplication chunk size of 4 KiB. All addresses in this
//! workspace are therefore expressed in 4 KiB *blocks*, not bytes, unless
//! a name explicitly says `bytes`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod error;
pub mod fingerprint;
pub mod hash;
pub mod introspect;
pub mod request;
pub mod rng;
pub mod time;

pub use block::{Lba, Pba, BLOCK_BYTES, BLOCK_SHIFT};
pub use error::{PodError, PodResult};
pub use fingerprint::{Fingerprint, INDEX_ENTRY_BYTES};
pub use introspect::log2_bucket;
pub use request::{IoOp, IoRequest};
pub use time::{SimDuration, SimTime};
