//! # pod-hash
//!
//! Hashing substrate for POD: [`fnv`] — FNV-1a, a cheap
//! non-cryptographic hash used for internal table hashing and stable
//! digests.
//!
//! Content fingerprinting is not computed here. Trace replay carries
//! each chunk's fingerprint in the trace record, and the stack charges
//! the paper's hashing cost (32 µs per 4 KiB chunk, §IV-A) as simulated
//! latency in `pod_core::StorageStack`'s write path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;

pub use fnv::{fnv1a_64, FnvHasher};
