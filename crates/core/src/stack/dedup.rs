//! The dedup layer: write-path policy engine plus its latency model.
//!
//! Wraps [`DedupEngine`] together with the reusable [`WriteScratch`]
//! and read-extents buffer (the zero-allocation hot path) and the
//! inline-fingerprinting cost model, so the replay driver sees one
//! `process_write` instead of engine + scratch + hash bookkeeping.

use pod_dedup::engine::EngineCounters;
use pod_dedup::{
    DedupConfig, DedupEngine, DedupPolicy, RecoveryOutcome, ScanOutcome, WriteScratch, WriteSummary,
};
use pod_types::{Fingerprint, IoRequest, Lba, Pba, PodResult, SimDuration};

/// Write-path deduplication layer.
#[derive(Debug)]
pub struct DedupLayer {
    engine: DedupEngine,
    scratch: WriteScratch,
    read_extents: Vec<(Pba, u32)>,
    inline_hashing: bool,
    hash_us_per_chunk: u64,
    hash_workers: usize,
}

impl DedupLayer {
    /// Build the layer over a configured engine.
    pub fn new(
        policy: DedupPolicy,
        cfg: DedupConfig,
        inline_hashing: bool,
        hash_us_per_chunk: u64,
        hash_workers: usize,
        max_request_blocks: usize,
    ) -> Self {
        Self {
            engine: DedupEngine::new(policy, cfg),
            scratch: WriteScratch::with_chunk_capacity(max_request_blocks.max(1)),
            read_extents: Vec::with_capacity(max_request_blocks.max(1)),
            inline_hashing,
            hash_us_per_chunk,
            hash_workers,
        }
    }

    /// Fingerprinting latency charged on the write's critical path for
    /// `nblocks` chunks (span, not work: parallel lanes hash
    /// concurrently). Zero for stacks that hash out-of-band or not at
    /// all.
    pub fn hash_latency(&self, nblocks: u32) -> SimDuration {
        if !self.inline_hashing {
            return SimDuration::ZERO;
        }
        let rounds = (nblocks as u64).div_ceil(self.hash_workers as u64);
        SimDuration::from_micros(rounds * self.hash_us_per_chunk)
    }

    /// Process one write through the policy engine. The surviving
    /// extents and ghost-feed vectors land in [`DedupLayer::scratch`];
    /// in steady state this allocates nothing.
    pub fn process_write(&mut self, req: &IoRequest) -> PodResult<WriteSummary> {
        self.engine.process_write_into(req, &mut self.scratch)
    }

    /// The last write's scratch results (valid until the next
    /// [`DedupLayer::process_write`]).
    pub fn scratch(&self) -> &WriteScratch {
        &self.scratch
    }

    /// Map a read request onto physical extents, returning how many
    /// (1 = unfragmented). They land in [`DedupLayer::read_extents`];
    /// in steady state this allocates nothing.
    pub fn plan_read(&mut self, req: &IoRequest) -> usize {
        debug_assert!(req.op.is_read());
        self.engine
            .store()
            .read_extents_into(req.lba, req.nblocks, &mut self.read_extents);
        self.read_extents.len()
    }

    /// The last planned read's extents, in logical order (valid until
    /// the next [`DedupLayer::plan_read`]).
    pub fn read_extents(&self) -> &[(Pba, u32)] {
        &self.read_extents
    }

    /// The fingerprint currently stored at `lba`, if known.
    pub fn content_of(&self, lba: Lba) -> Option<Fingerprint> {
        self.engine.content_of(lba)
    }

    /// Resize the in-memory index to `bytes`, returning the evicted
    /// fingerprints (ghost-index feed).
    pub fn resize_index(&mut self, bytes: u64) -> Vec<Fingerprint> {
        self.engine.index_mut().resize_bytes(bytes)
    }

    /// One background deduplication pass over up to `max_chunks` queued
    /// chunks.
    pub fn scan(&mut self, max_chunks: usize) -> PodResult<ScanOutcome> {
        self.engine.post_process_scan(max_chunks)
    }

    /// Chunks written but not yet background-scanned.
    pub fn scan_backlog(&self) -> usize {
        self.engine.scan_backlog()
    }

    /// Cumulative engine counters.
    pub fn counters(&self) -> EngineCounters {
        self.engine.counters()
    }

    /// Unique physical blocks holding data (Fig. 10 metric).
    pub fn capacity_used_blocks(&self) -> u64 {
        self.engine.store().used_blocks()
    }

    /// Peak NVRAM consumed by the Map table (§IV-D2 metric).
    pub fn nvram_peak_bytes(&self) -> u64 {
        self.engine.store().nvram_peak_bytes()
    }

    /// Rebuild the engine's volatile state (Index table, scan backlog)
    /// from the NVRAM Map after a simulated crash. See
    /// [`DedupEngine::recover_after_crash`].
    pub fn recover_after_crash(&mut self) -> PodResult<RecoveryOutcome> {
        self.engine.recover_after_crash()
    }

    /// Silently corrupt the stored content of `lba` (fault injection's
    /// oracle fail fixture). Returns the corrupted physical block.
    pub fn corrupt_lba(&mut self, lba: u64) -> Option<Pba> {
        self.engine.corrupt_lba(Lba::new(lba))
    }

    /// The wrapped engine (store/index inspection).
    pub fn engine(&self) -> &DedupEngine {
        &self.engine
    }
}
