//! # pod-disk
//!
//! Discrete-event storage simulator substituting for the paper's physical
//! testbed (Xeon X3440, two RocketRAID 2640 controllers, eight WDC
//! WD1600AAJS SATA disks in Linux MD RAID).
//!
//! The components:
//!
//! * [`spec`] — disk mechanical parameters ([`DiskSpec`], with a
//!   WD1600AAJS-calibrated preset) and array geometry ([`RaidConfig`]).
//! * [`sched`] — per-disk I/O schedulers (FIFO, SSTF, elevator/SCAN).
//! * [`raid`] — RAID-5 address mapping and write planning,
//!   including the RAID-5 small-write read-modify-write penalty and
//!   full-stripe write detection. The RMW penalty is the mechanism that
//!   makes each *eliminated* write so valuable to POD, so it is modelled
//!   explicitly.
//! * [`engine`] — the event engine ([`ArraySim`]): multi-phase jobs
//!   (e.g. RMW read-phase → write-phase) over per-disk queues, driven by
//!   a sorted-vector event loop; completion times per job. The array is
//!   healthy and every write reaches the media, as in the paper's
//!   measurements (§IV-A/B).
//! * [`alloc`] — the physical block store: extent allocator and used
//!   capacity (the dedup layer keeps the reference counts).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod engine;
pub mod raid;
pub mod sched;
pub mod spec;

pub use alloc::{AllocState, BlockStore};
pub use engine::{isolated_latency, ArraySim, DiskStats, JobId, JobPlan};
pub use raid::{PhysOp, RaidGeometry};
pub use sched::SchedulerKind;
pub use spec::{DiskSpec, RaidConfig};
