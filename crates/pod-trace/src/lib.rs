//! # pod-trace
//!
//! Workload substrate for the POD reproduction.
//!
//! The paper evaluates on three FIU SyLab block traces — **web-vm**,
//! **homes**, **mail** — replayed beneath the buffer cache with per-chunk
//! content hashes (§IV-A, Table II). Those traces are public but not
//! redistributable here, so this crate provides both:
//!
//! * [`fiu`] — a parser/writer for the FIU text format, so the real
//!   traces can be dropped in, plus [`reconstruct`] to merge the
//!   per-chunk rows back into original multi-block requests by
//!   timestamp/LBA/length exactly as §IV-A describes; and
//! * [`synth`] — a seeded synthetic generator with per-trace profiles
//!   ([`TraceProfile::web_vm`], [`TraceProfile::homes`],
//!   [`TraceProfile::mail`]) calibrated against every statistic the paper
//!   publishes: request counts / write ratios / mean sizes (Table II),
//!   the per-size redundancy distribution (Fig. 1), the I/O-vs-capacity
//!   redundancy split (Fig. 2), read/write burstiness (§II-B), and the
//!   redundancy *structure* (fully-redundant vs scattered vs contiguous
//!   partial runs) that drives Select-Dedupe's three write categories.
//!
//! [`stats`] computes those same statistics from any trace (synthetic or
//! real), which is how the calibration is tested and how the Fig. 1 /
//! Fig. 2 / Table II artifacts are regenerated.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bursts;
pub mod dist;
pub mod fiu;
pub mod ops;
pub mod profile;
pub mod reconstruct;
pub mod stats;
pub mod synth;
pub mod tenants;
pub mod vm;

pub use bursts::{detect_bursts, BurstReport, PhaseKind};
pub use ops::merge_tenants;
pub use profile::{BurstModel, TraceProfile, WriteMix};
pub use reconstruct::reconstruct_requests;
pub use stats::{RedundancyBreakdown, SizeBucket, TraceStats};
pub use synth::Trace;
pub use tenants::{derive_tenants, MergedItem, MergedStream};
pub use vm::VmFleetConfig;
