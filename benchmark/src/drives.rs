//! Layer drives: separate executions that feed one substrate crate the
//! workload's own operation stream through its public API, with nothing
//! else running.
//!
//! Each drive sizes its layer the way `StorageStack::with_observer`
//! does (same DRAM budget, same initial index grant, same
//! `ReplaySizing`), so the layer sees the pressure it sees in the
//! stack. What a drive cannot reproduce is stated on it.
//!
//! Calls that cannot be timed in bulk are timed one by one with a clock
//! pair each; [`clock_pair_ns`] measures how much of the clock's own
//! cost lands inside such an interval, so the caller can report the
//! figures net of it.

use crate::spans::Hist;
use crate::stats::supported_percentile;
use pod_cache::LruCache;
use pod_core::stack::{ArrayBackend, DiskBackend};
use pod_core::{ReplaySizing, StackSpec, SystemConfig};
use pod_dedup::{DedupConfig, DedupEngine, WriteScratch};
use pod_disk::{ArraySim, RaidGeometry};
use pod_icache::{ICache, ICacheConfig};
use pod_trace::Trace;
use pod_types::{Pba, SimDuration, SimTime};
use std::time::Instant;

const BLOCK_BYTES: u64 = 4096;

/// Totals over every trace driven (one for a replay, one per tenant for
/// the fleet).
#[derive(Default)]
pub struct DriveTotals {
    pub dedup_write: Hist,
    pub dedup_read: Hist,
    pub write_chunks: u64,
    pub read_fragments: u64,
    pub index_hits: u64,
    pub index_lookups: u64,
    pub write_requests: u64,
    pub removed_requests: u64,

    pub icache_read_ns: u64,
    pub icache_reads: u64,
    pub icache_read_blocks: u64,
    pub icache_write_ns: u64,
    pub icache_note_ns: u64,
    pub icache_hits: u64,
    pub icache_repartitions: u64,
    pub requests: u64,

    pub lru_ns: u64,
    pub lru_ops: u64,
    pub lru_hits: u64,
    pub lru_lookups: u64,
    pub lru_evictions: u64,

    pub disk_ns: u64,
    pub disk_jobs: u64,
    pub disk_extents: u64,
}

impl DriveTotals {
    /// The per-layer metrics the drives feed. Per-call figures are net
    /// of `pair_ns`, the clock cost each individually timed call carries.
    pub fn metrics(&self, pair_ns: f64) -> Vec<(&'static str, f64)> {
        let net = |sum_ns: u64, calls: u64| (sum_ns as f64 - calls as f64 * pair_ns).max(0.0);
        let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
        let ratio = |part: u64, whole: u64| per(part as f64, whole);
        let (writes, reads) = (&self.dedup_write, &self.dedup_read);
        let write_ns = net(writes.sum_ns(), writes.count());
        let plan_ns = net(reads.sum_ns(), reads.count());
        let icache_read_ns = net(self.icache_read_ns, self.icache_reads);
        let icache_write_ns = net(self.icache_write_ns, self.requests - self.icache_reads);
        let tail = supported_percentile(writes.count(), 99.9);
        vec![
            ("dedup.drive_s", (write_ns + plan_ns) / 1e9),
            ("dedup.write_ns", per(write_ns, writes.count())),
            ("dedup.write_p999_ns", writes.percentile_ns(tail) as f64),
            ("dedup.chunk_ns", per(write_ns, self.write_chunks)),
            ("dedup.plan_read_ns", per(plan_ns, reads.count())),
            (
                "dedup.index_hit_ratio",
                ratio(self.index_hits, self.index_lookups),
            ),
            (
                "dedup.removed_ratio",
                ratio(self.removed_requests, self.write_requests),
            ),
            (
                "dedup.fragments_per_read",
                ratio(self.read_fragments, reads.count()),
            ),
            ("icache.drive_s", (icache_read_ns + icache_write_ns) / 1e9),
            (
                "icache.read_block_ns",
                per(icache_read_ns, self.icache_read_blocks),
            ),
            (
                "icache.note_request_ns",
                ratio(self.icache_note_ns, self.requests),
            ),
            (
                "icache.hit_ratio",
                ratio(self.icache_hits, self.icache_read_blocks),
            ),
            ("icache.repartitions", self.icache_repartitions as f64),
            ("cache.lru_op_ns", ratio(self.lru_ns, self.lru_ops)),
            (
                "cache.lru_hit_ratio",
                ratio(self.lru_hits, self.lru_lookups),
            ),
            ("cache.lru_evictions", self.lru_evictions as f64),
            ("disk.drive_s", self.disk_ns as f64 / 1e9),
            ("disk.job_ns", ratio(self.disk_ns, self.disk_jobs)),
            ("disk.jobs", self.disk_jobs as f64),
            (
                "disk.extents_per_job",
                ratio(self.disk_extents, self.disk_jobs),
            ),
        ]
    }
}

/// What an `Instant::now()` … `elapsed()` pair with nothing in between
/// reads, nanoseconds: the part of the clock's cost that every
/// individually timed call carries.
pub fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let mut sum = 0u64;
    for _ in 0..PAIRS {
        let t = Instant::now();
        sum += t.elapsed().as_nanos() as u64;
    }
    sum as f64 / PAIRS as f64
}

/// One request's disk work as the dedup engine decided it.
struct DiskOp {
    /// Position of the request in its trace.
    idx: usize,
    /// Submission time as the stack computes it: arrival plus inline
    /// hashing (writes) plus the metadata charge.
    at: SimTime,
    write: bool,
    extents: Vec<(Pba, u32)>,
    index_lookups: u32,
}

/// The stack's DRAM budget for `trace` (zero without a dedup module).
fn memory_bytes(spec: &StackSpec, cfg: &SystemConfig, trace: &Trace) -> u64 {
    if !spec.dedups {
        return 0;
    }
    cfg.memory_bytes
        .unwrap_or((trace.memory_budget_bytes as f64 * cfg.memory_scale) as u64)
        .max(1 << 20)
}

fn new_icache(spec: &StackSpec, cfg: &SystemConfig, trace: &Trace) -> ICache {
    ICache::new(ICacheConfig {
        total_bytes: memory_bytes(spec, cfg, trace),
        initial_index_fraction: if spec.dedups { cfg.index_fraction } else { 0.0 },
        epoch_requests: cfg.icache.epoch_requests,
        swap_step_fraction: cfg.icache.swap_step,
        min_fraction: cfg.icache.min_fraction,
        hysteresis: 2.0,
        read_miss_penalty_us: cfg.icache.read_penalty_us,
        write_miss_penalty_us: cfg.icache.write_penalty_us,
        adaptive: spec.adaptive_icache,
        read_policy: cfg.read_policy,
    })
}

/// Drive all four substrate layers over `trace`, adding to `totals`.
pub fn drive_all(spec: &StackSpec, cfg: &SystemConfig, trace: &Trace, totals: &mut DriveTotals) {
    let sizing = ReplaySizing::from_trace(trace);
    // The stack's initial partition: index grant and read-cache blocks.
    let partition = new_icache(spec, cfg, trace);
    let index_bytes = partition.index_bytes();
    let read_blocks = (partition.read_bytes() / BLOCK_BYTES) as usize;
    drop(partition);
    let fetched = drive_icache(spec, cfg, trace, totals);
    drive_lru(spec, trace, read_blocks, totals);
    let ops = drive_dedup(spec, cfg, trace, &sizing, index_bytes, &fetched, totals);
    drive_disk(cfg, trace, &sizing, &ops, totals);
}

/// `pod-icache`: per read, `read_lookup` every block and `read_fill`
/// all of them if any missed; per write (when the stack has a dedup
/// module), the write-allocate fills; `note_request` after each, all
/// inside one clock pair per request. Index-side feedback (victims,
/// misses, hits) is not replayed, so repartition decisions see
/// read-side ghosts only. Returns, per request, whether it is a read
/// that had to be fetched — the reads the stack would plan and send to
/// disk.
fn drive_icache(
    spec: &StackSpec,
    cfg: &SystemConfig,
    trace: &Trace,
    totals: &mut DriveTotals,
) -> Vec<bool> {
    let mut icache = new_icache(spec, cfg, trace);
    let mut fetched = vec![false; trace.len()];
    for (idx, req) in trace.requests.iter().enumerate() {
        let started = Instant::now();
        if req.op.is_write() {
            if spec.dedups {
                for lba in req.lbas() {
                    icache.read_fill(lba);
                }
            }
            std::hint::black_box(icache.note_request(true));
            totals.icache_write_ns += started.elapsed().as_nanos() as u64;
        } else {
            let mut all_hit = true;
            for lba in req.lbas() {
                let hit = icache.read_lookup(lba);
                totals.icache_hits += u64::from(hit);
                all_hit &= hit;
            }
            if !all_hit {
                for lba in req.lbas() {
                    icache.read_fill(lba);
                }
            }
            std::hint::black_box(icache.note_request(false));
            totals.icache_read_ns += started.elapsed().as_nanos() as u64;
            totals.icache_reads += 1;
            totals.icache_read_blocks += req.nblocks as u64;
            fetched[idx] = !all_hit;
        }
    }
    totals.icache_repartitions += icache.repartitions();
    totals.requests += trace.len() as u64;

    // `note_request` alone is a few nanoseconds, far below what a clock
    // pair resolves, so it is timed in bulk on a fresh iCache: request
    // accounting and epoch closes, without the (rare) repartitions.
    let mut icache = new_icache(spec, cfg, trace);
    let started = Instant::now();
    for req in &trace.requests {
        std::hint::black_box(icache.note_request(req.op.is_write()));
    }
    totals.icache_note_ns += started.elapsed().as_nanos() as u64;
    fetched
}

/// `pod-cache`: a bare `LruCache<u64, ()>` at the read partition's
/// initial capacity over the same block-key stream, so an LRU gain can
/// be told from an iCache-bookkeeping gain.
fn drive_lru(spec: &StackSpec, trace: &Trace, capacity: usize, totals: &mut DriveTotals) {
    let mut lru: LruCache<u64, ()> = LruCache::new(capacity);
    let started = Instant::now();
    for req in &trace.requests {
        if req.op.is_write() {
            if spec.dedups {
                for lba in req.lbas() {
                    lru.insert(lba.raw(), ());
                    totals.lru_ops += 1;
                }
            }
        } else {
            for lba in req.lbas() {
                let key = lba.raw();
                totals.lru_lookups += 1;
                totals.lru_ops += 1;
                if lru.get(&key).is_some() {
                    totals.lru_hits += 1;
                } else {
                    lru.insert(key, ());
                    totals.lru_ops += 1;
                }
            }
        }
    }
    totals.lru_ns += started.elapsed().as_nanos() as u64;
    totals.lru_evictions += lru.evictions();
}

/// `pod-dedup`: every write through `process_write_into` (reused
/// scratch) and every fetched read through `plan_read`. The index keeps
/// its initial grant (no iCache repartition feedback). Returns the disk
/// work each request produced, captured outside the timed calls.
fn drive_dedup(
    spec: &StackSpec,
    cfg: &SystemConfig,
    trace: &Trace,
    sizing: &ReplaySizing,
    index_budget_bytes: u64,
    fetched: &[bool],
    totals: &mut DriveTotals,
) -> Vec<DiskOp> {
    let mut engine = DedupEngine::new(
        spec.policy,
        DedupConfig {
            select_threshold: cfg.select_threshold,
            idedup_threshold: cfg.idedup_threshold,
            index_page_fault_rate: cfg.index_page_fault_rate.max(1),
            index_policy: cfg.index_policy,
            index_budget_bytes,
            logical_blocks: sizing.logical_blocks,
            overflow_blocks: sizing.overflow_blocks,
            expected_unique_blocks: sizing.expected_unique_blocks,
        },
    );
    let mut scratch = WriteScratch::with_chunk_capacity(sizing.max_request_blocks.max(1));
    let metadata = SimDuration::from_micros(cfg.latency.metadata_us);
    let mut ops = Vec::new();
    for (idx, req) in trace.requests.iter().enumerate() {
        if req.op.is_write() {
            let started = Instant::now();
            let summary = engine
                .process_write_into(req, &mut scratch)
                .expect("benchmark workloads fit their address space");
            totals
                .dedup_write
                .record(started.elapsed().as_nanos() as u64);
            totals.write_chunks += req.nblocks as u64;
            if summary.disk_index_lookups == 0 && scratch.write_extents.is_empty() {
                continue; // fully deduplicated: no disk work
            }
            let hash_us = if spec.inline_hashing {
                (req.nblocks as u64).div_ceil(cfg.latency.hash_workers as u64)
                    * cfg.latency.hash_us_per_chunk
            } else {
                0
            };
            ops.push(DiskOp {
                idx,
                at: req.arrival + SimDuration::from_micros(hash_us) + metadata,
                write: true,
                extents: scratch.write_extents.clone(),
                index_lookups: summary.disk_index_lookups,
            });
        } else if fetched[idx] {
            let started = Instant::now();
            let plan = engine.plan_read(req);
            totals
                .dedup_read
                .record(started.elapsed().as_nanos() as u64);
            totals.read_fragments += plan.extents.len() as u64;
            ops.push(DiskOp {
                idx,
                at: req.arrival + metadata,
                write: false,
                extents: plan.extents,
                index_lookups: 0,
            });
        }
    }
    let (hits, misses, _) = engine.index().stats();
    totals.index_hits += hits;
    totals.index_lookups += hits + misses;
    let counters = engine.counters();
    totals.write_requests += counters.write_requests;
    totals.removed_requests += counters.removed_requests;
    ops
}

/// `pod-disk`: the array simulator behind `ArrayBackend`, fed the
/// extents the dedup drive produced, in the stack's call order
/// (`run_until` every request's arrival; submit, where there is disk
/// work, at the submission time).
fn drive_disk(
    cfg: &SystemConfig,
    trace: &Trace,
    sizing: &ReplaySizing,
    ops: &[DiskOp],
    totals: &mut DriveTotals,
) {
    let sim = ArraySim::new(
        RaidGeometry::new(cfg.raid.clone()),
        cfg.disk.clone(),
        cfg.scheduler,
    );
    let mut disk = ArrayBackend::new(sim, sizing);
    let mut ops = ops.iter().peekable();
    let started = Instant::now();
    for (idx, req) in trace.requests.iter().enumerate() {
        disk.run_until(req.arrival);
        let Some(op) = ops.next_if(|op| op.idx == idx) else {
            continue;
        };
        if op.write {
            disk.submit_write(op.at, &op.extents, op.index_lookups);
        } else {
            disk.submit_read(op.at, &op.extents);
        }
        totals.disk_jobs += 1;
        totals.disk_extents += op.extents.len() as u64;
    }
    disk.run_to_idle();
    totals.disk_ns += started.elapsed().as_nanos() as u64;
}
