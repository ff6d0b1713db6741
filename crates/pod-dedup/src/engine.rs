//! The dedup engine: write/read pipeline over store + index.
//!
//! One engine struct implements all four evaluated schemes via
//! [`DedupPolicy`]; the mechanics (fingerprint lookup, candidate
//! validation, category-driven dedup, placement, index maintenance) are
//! shared, exactly mirroring Fig. 6's write process flow:
//!
//! 1. each chunk's fingerprint is queried in the Index table;
//! 2. the request is classified (Fig. 5);
//! 3. chunks in dedup ranges only update the Map table; the rest are
//!    written to disk as usual;
//! 4. consistency is enforced by the store's reference counts.
//!
//! The engine performs **no I/O itself**: a [`WriteSummary`] reports the
//! count of on-disk index lookups to charge (Full-Dedupe's miss
//! penalty), and the caller's [`WriteScratch`] holds the extents that
//! must hit disk and the fingerprints that missed the index (the ghost
//! index probes). `pod-core` translates them into simulator jobs.

use crate::classify::{
    classify_for_full_into, classify_for_idedup_into, classify_for_select_into, ChunkCandidate,
    ClassKind,
};
use crate::index::{IndexState, IndexTable};
use crate::store::{ChunkStore, MapState};
use pod_types::hash::FnvBuildHasher;
use pod_types::{Fingerprint, IoRequest, Lba, Pba, PodResult};
use std::collections::HashMap;

/// Fingerprint → physical block map (the Full-Dedupe on-disk index).
type FpMap = HashMap<Fingerprint, Pba, FnvBuildHasher>;

/// Which deduplication scheme the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DedupPolicy {
    /// No deduplication: every write goes to disk (the paper's baseline).
    Native,
    /// Deduplicate every redundant chunk; the complete index lives on
    /// disk, and a RAM-index miss costs an in-disk lookup.
    FullDedupe,
    /// Capacity-oriented: dedup only long sequential duplicate runs
    /// (threshold in blocks); small requests bypass dedup entirely.
    IDedup,
    /// POD's request-based selective dedup (paper §III-B).
    SelectDedupe,
    /// Post-processing deduplication (El-Shimi et al., ATC'12; paper
    /// Table I): writes go to disk unmodified; a background scan later
    /// deduplicates stored data, saving capacity without reducing the
    /// I/O traffic on the critical path.
    PostProcess,
    /// I/O Deduplication (Koller & Rangaswami, FAST'10; paper Table I):
    /// no write elimination, but content identity is tracked so the
    /// storage cache can be *content-addressed* — duplicate blocks share
    /// one cache slot, boosting the effective read-cache size.
    IODedup,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DedupConfig {
    /// Select-Dedupe duplicate-run threshold (paper: 3).
    pub select_threshold: usize,
    /// iDedup sequence threshold in blocks (FAST'12 evaluates 2–32;
    /// 8 blocks = 32 KiB is a representative midpoint).
    pub idedup_threshold: usize,
    /// Byte budget of the in-memory index table.
    pub index_budget_bytes: u64,
    /// Logical address space in blocks.
    pub logical_blocks: u64,
    /// Overflow region for redirected writes, blocks.
    pub overflow_blocks: u64,
    /// Full-Dedupe on-disk index page-fault rate: one in this many
    /// RAM-index-miss consults actually reads an index page from disk
    /// (a 4 KiB page holds ~64 entries and consecutive fingerprints of a
    /// request cluster in containers, so most consults hit an already
    /// resident page). 1 = every consult faults.
    pub index_page_fault_rate: u64,
    /// Replacement policy of the in-memory index table; LRU is the
    /// only one (see [`IndexPolicy`](crate::index::IndexPolicy)).
    pub index_policy: crate::index::IndexPolicy,
    /// Expected number of distinct physical blocks the replay will
    /// populate (from trace statistics). Pre-sizes the on-disk
    /// fingerprint index (Full-Dedupe, Post-Process) so steady-state
    /// inserts never pause to rehash; 0 = unknown, it grows on demand.
    /// The store needs no hint: its tables are indexed by block address
    /// and sized by `logical_blocks` + `overflow_blocks`.
    pub expected_unique_blocks: u64,
}

impl Default for DedupConfig {
    fn default() -> Self {
        Self {
            select_threshold: 3,
            idedup_threshold: 8,
            index_budget_bytes: 16 * 1024 * 1024,
            logical_blocks: 1 << 20,
            overflow_blocks: 1 << 19,
            index_page_fault_rate: 8,
            index_policy: crate::index::IndexPolicy::Lru,
            expected_unique_blocks: 0,
        }
    }
}

/// Reusable buffers for [`DedupEngine::process_write_into`].
///
/// The replay loop owns one `WriteScratch` and threads it through every
/// write, so the steady-state hot path performs **zero heap
/// allocations**: every vector the engine needs — the outgoing extents,
/// the ghost-probe feed, per-chunk candidates, classification runs/ranges —
/// lives here and is reused (cleared, capacity retained) call to call.
///
/// After a call returns, the two public vectors and
/// [`WriteScratch::dedup_ranges`] hold that write's results; they are
/// valid until the next `process_write_into` call.
#[derive(Debug, Default)]
pub struct WriteScratch {
    /// Physical extents that must be written to disk (merged).
    pub write_extents: Vec<(Pba, u32)>,
    /// Fingerprints that missed the in-memory index (ghost probe feed).
    pub index_miss_fps: Vec<Fingerprint>,
    /// Per-chunk dedup candidates (step 1 of Fig. 6).
    candidates: Vec<ChunkCandidate>,
    /// Which chunks the classification deduplicates.
    dedup_mask: Vec<bool>,
    /// Freshly written PBAs awaiting extent merging.
    pbas: Vec<Pba>,
    /// Sequential candidate runs (classification scratch).
    runs: Vec<(usize, usize)>,
    /// Chunk index ranges to deduplicate.
    ranges: Vec<(usize, usize)>,
}

impl WriteScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for requests of up to `max_chunks` chunks, so
    /// even the first write allocates nothing.
    pub fn with_chunk_capacity(max_chunks: usize) -> Self {
        Self {
            write_extents: Vec::with_capacity(max_chunks),
            index_miss_fps: Vec::with_capacity(max_chunks),
            candidates: Vec::with_capacity(max_chunks),
            dedup_mask: Vec::with_capacity(max_chunks),
            pbas: Vec::with_capacity(max_chunks),
            runs: Vec::with_capacity(max_chunks),
            ranges: Vec::with_capacity(max_chunks),
        }
    }

    /// Chunk index ranges `(start, len)` this write's classification
    /// chose to deduplicate: the whole request for Cat-1, the policy's
    /// chosen runs for Cat-3, none otherwise. A chunk whose
    /// candidate went stale while the request was applied is written
    /// instead.
    pub fn dedup_ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Clear all buffers, retaining capacity.
    fn reset(&mut self) {
        self.write_extents.clear();
        self.index_miss_fps.clear();
        self.candidates.clear();
        self.dedup_mask.clear();
        self.pbas.clear();
        self.runs.clear();
        self.ranges.clear();
    }
}

/// Result of [`DedupEngine::process_write_into`]: the `Copy` part of
/// what a write did, with its vectors left in the caller's
/// [`WriteScratch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSummary {
    /// The classification the request received.
    pub kind: ClassKind,
    /// Chunks eliminated from the write stream.
    pub deduped_blocks: u32,
    /// Chunks actually written.
    pub written_blocks: u32,
    /// `true` when no disk write is needed at all (request removed).
    pub removed: bool,
    /// On-disk index lookups to charge before the write (Full-Dedupe).
    pub disk_index_lookups: u32,
}

/// What one PostProcess background pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Chunks examined (popped from the backlog).
    pub scanned_chunks: u64,
    /// Chunks remapped onto an existing copy (blocks freed).
    pub deduped_chunks: u64,
    /// Physical extents the scanner read back to fingerprint, merged —
    /// charge these as background disk I/O.
    pub read_extents: Vec<(Pba, u32)>,
}

/// What a crash-recovery pass rebuilt (see
/// [`DedupEngine::recover_after_crash`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Live physical blocks re-registered in the fresh Index table.
    pub index_entries_rebuilt: u64,
    /// Rebuilt entries immediately evicted again because the live set
    /// exceeds the Index's byte budget (expected on large replays).
    pub index_entries_evicted: u64,
    /// Queued-but-unscanned PostProcess chunks lost with RAM (missed
    /// dedup opportunities, never a correctness loss).
    pub scan_backlog_dropped: u64,
}

/// What a read request needs from disk (after mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// Physical extents to fetch, in logical order.
    pub extents: Vec<(Pba, u32)>,
}

impl ReadPlan {
    /// Number of separate physical extents (1 = unfragmented).
    pub fn fragments(&self) -> usize {
        self.extents.len()
    }
}

/// Cumulative engine counters (Fig. 11 and capacity reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Write requests processed.
    pub write_requests: u64,
    /// Write requests fully removed from the disk I/O stream.
    pub removed_requests: u64,
    /// Small (≤ 2 blocks / 8 KiB) write requests seen.
    pub small_write_requests: u64,
    /// Small write requests removed — the class iDedup ignores and POD
    /// targets (paper Table I, "Small writes Elimination").
    pub removed_small_requests: u64,
    /// Large (> 2 blocks) write requests seen.
    pub large_write_requests: u64,
    /// Large write requests removed (Table I, "Large writes
    /// Elimination").
    pub removed_large_requests: u64,
    /// Chunks deduplicated.
    pub deduped_blocks: u64,
    /// Chunks written to disk.
    pub written_blocks: u64,
    /// In-disk index lookups charged.
    pub disk_index_lookups: u64,
}

impl EngineCounters {
    /// Percentage of write requests removed (Fig. 11's y-axis).
    pub fn removed_pct(&self) -> f64 {
        if self.write_requests == 0 {
            return 0.0;
        }
        self.removed_requests as f64 * 100.0 / self.write_requests as f64
    }

    /// Percentage of small (≤ 8 KiB) write requests removed.
    pub fn removed_small_pct(&self) -> f64 {
        if self.small_write_requests == 0 {
            return 0.0;
        }
        self.removed_small_requests as f64 * 100.0 / self.small_write_requests as f64
    }

    /// Percentage of large (> 8 KiB) write requests removed.
    pub fn removed_large_pct(&self) -> f64 {
        if self.large_write_requests == 0 {
            return 0.0;
        }
        self.removed_large_requests as f64 * 100.0 / self.large_write_requests as f64
    }
}

/// Flat gauge snapshot of a whole [`DedupEngine`] (see
/// [`DedupEngine::introspect`]): the Index table, the Map table and the
/// background-scan backlog, sampled together at an epoch boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DedupState {
    /// Hot fingerprint Index table gauges.
    pub index: IndexState,
    /// Map table / chunk store gauges.
    pub map: MapState,
    /// Chunks awaiting the PostProcess background scan.
    pub scan_backlog: u64,
    /// Entries in the on-disk full fingerprint index.
    pub disk_index_entries: u64,
}

/// A deduplication engine with one policy.
///
/// ```
/// use pod_dedup::{DedupConfig, DedupEngine, DedupPolicy, WriteScratch};
/// use pod_types::{Fingerprint, IoRequest, Lba, SimTime};
///
/// let mut engine = DedupEngine::new(DedupPolicy::SelectDedupe, DedupConfig::default());
/// let mut scratch = WriteScratch::new();
/// let chunks: Vec<Fingerprint> = (1..=3).map(Fingerprint::from_content_id).collect();
///
/// // First write stores the data...
/// let w1 = IoRequest::write(SimTime::ZERO, Lba::new(0), chunks.clone());
/// let summary = engine.process_write_into(&w1, &mut scratch).unwrap();
/// assert_eq!(summary.written_blocks, 3);
///
/// // ...an identical write elsewhere is fully deduplicated: no disk I/O.
/// let w2 = IoRequest::write(SimTime::from_micros(10), Lba::new(100), chunks);
/// let summary = engine.process_write_into(&w2, &mut scratch).unwrap();
/// assert!(summary.removed);
/// assert!(scratch.write_extents.is_empty());
/// assert_eq!(engine.store().used_blocks(), 3);
/// ```
#[derive(Debug)]
pub struct DedupEngine {
    policy: DedupPolicy,
    cfg: DedupConfig,
    store: ChunkStore,
    index: IndexTable,
    /// Full-Dedupe's complete fingerprint index (the on-disk portion);
    /// consulting it on a RAM miss costs a disk lookup.
    disk_index: FpMap,
    counters: EngineCounters,
    /// Rolling consult counter driving the deterministic page-fault
    /// model (see `DedupConfig::index_page_fault_rate`).
    consults: u64,
    /// PostProcess: chunks written but not yet scanned for duplicates.
    scan_queue: std::collections::VecDeque<(Lba, Fingerprint)>,
}

impl DedupEngine {
    /// [`DedupEngine::try_new`] of a configuration whose physical space
    /// is known to fit the store.
    ///
    /// # Panics
    ///
    /// When `cfg.logical_blocks + cfg.overflow_blocks` reaches
    /// [`crate::store::MAX_PHYSICAL_BLOCKS`].
    pub fn new(policy: DedupPolicy, cfg: DedupConfig) -> Self {
        Self::try_new(policy, cfg).expect("the physical space fits the chunk store")
    }

    /// Build an engine. The store costs one directory pointer per
    /// 4,096 blocks of `cfg.logical_blocks + cfg.overflow_blocks` up
    /// front and allocates block state as regions are first written;
    /// when `cfg.expected_unique_blocks` is set, the on-disk index (for
    /// policies that keep one) is pre-sized so replay inserts never
    /// rehash. A physical space of
    /// [`crate::store::MAX_PHYSICAL_BLOCKS`] or more is refused with the
    /// store's [`PodError::OutOfRange`](pod_types::PodError::OutOfRange).
    pub fn try_new(policy: DedupPolicy, cfg: DedupConfig) -> PodResult<Self> {
        let expected = cfg.expected_unique_blocks as usize;
        let store = ChunkStore::new(cfg.logical_blocks, cfg.overflow_blocks)?;
        let index = IndexTable::with_byte_budget(cfg.index_budget_bytes);
        let disk_index = if matches!(policy, DedupPolicy::FullDedupe | DedupPolicy::PostProcess) {
            FpMap::with_capacity_and_hasher(expected, FnvBuildHasher::default())
        } else {
            FpMap::default()
        };
        Ok(Self {
            policy,
            cfg,
            store,
            index,
            disk_index,
            counters: EngineCounters::default(),
            consults: 0,
            scan_queue: std::collections::VecDeque::new(),
        })
    }

    /// The active policy.
    pub fn policy(&self) -> DedupPolicy {
        self.policy
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DedupConfig {
        &self.cfg
    }

    /// The underlying chunk store (capacity / NVRAM reporting).
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// The in-memory index table.
    pub fn index(&self) -> &IndexTable {
        &self.index
    }

    /// Mutable index access: iCache resizes it through this.
    pub fn index_mut(&mut self) -> &mut IndexTable {
        &mut self.index
    }

    /// Cumulative counters.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// Entries in the on-disk full fingerprint index.
    pub fn disk_index_entries(&self) -> u64 {
        self.disk_index.len() as u64
    }

    /// Process one write request, updating store/index state and
    /// reporting the disk work required. Every vector result lands in
    /// `scratch` (cleared first) and the returned [`WriteSummary`] is
    /// `Copy`: in steady state (warm buffers, warm tables) this path
    /// performs no heap allocation at all.
    pub fn process_write_into(
        &mut self,
        req: &IoRequest,
        scratch: &mut WriteScratch,
    ) -> PodResult<WriteSummary> {
        debug_assert!(req.op.is_write());
        scratch.reset();
        self.counters.write_requests += 1;
        let small = req.nblocks <= 2;
        if small {
            self.counters.small_write_requests += 1;
        } else {
            self.counters.large_write_requests += 1;
        }

        let mut disk_lookups = 0u32;

        // Native-like write paths: everything goes to disk unmodified.
        // PostProcess defers dedup to the background scan; IODedup only
        // tracks content identity for its content-addressed cache.
        if matches!(
            self.policy,
            DedupPolicy::Native | DedupPolicy::PostProcess | DedupPolicy::IODedup
        ) {
            self.write_all_chunks_into(req, scratch)?;
            match self.policy {
                DedupPolicy::PostProcess => {
                    // Queue for the background deduplication pass.
                    for (lba, fp) in req.write_chunks() {
                        self.scan_queue.push_back((lba, fp));
                    }
                }
                DedupPolicy::IODedup => {
                    // Track where content lives so reads can be served
                    // content-addressed; hot entries only, like POD.
                    for (lba, fp) in req.write_chunks() {
                        let pba = self.store.lookup(lba).expect("just written");
                        self.index.upsert(fp, pba);
                    }
                }
                _ => {}
            }
            let written = req.nblocks;
            self.counters.written_blocks += written as u64;
            return Ok(WriteSummary {
                kind: ClassKind::Unique,
                deduped_blocks: 0,
                written_blocks: written,
                removed: false,
                disk_index_lookups: 0,
            });
        }

        // 1. Candidate lookup per chunk.
        for (_, fp) in req.write_chunks() {
            let mut cand = self.index.query(&fp);
            if cand.is_none() {
                scratch.index_miss_fps.push(fp);
            }
            // Full-Dedupe falls through to the on-disk index: the paper's
            // "traditional full data deduplication" keeps the complete
            // hash table on disk, and every RAM-index miss pays an
            // in-disk probe — the classic index-lookup disk bottleneck
            // (§II-B). The per-request cap below models the locality of
            // consecutive fingerprints within index pages.
            if cand.is_none() && self.policy == DedupPolicy::FullDedupe {
                self.consults += 1;
                if self.consults.is_multiple_of(self.cfg.index_page_fault_rate) {
                    disk_lookups += 1;
                }
                if let Some(&pba) = self.disk_index.get(&fp) {
                    cand = Some(pba);
                    // Promote into the hot index.
                    self.index.insert(fp, pba);
                }
            }
            // Validate: the candidate block must still hold this content.
            if let Some(pba) = cand {
                if self.store.content_at(pba) != Some(fp) {
                    self.index.remove(&fp);
                    self.disk_index.remove(&fp);
                    cand = None;
                }
            }
            scratch.candidates.push(cand);
        }

        // Cap charged on-disk lookups per request: fingerprints written
        // together land in the same index container, so one request's
        // positive lookups cluster on at most a couple of index pages.
        disk_lookups = disk_lookups.min(2);

        // 2. Classify, depositing dedup ranges into scratch.
        let kind = match self.policy {
            DedupPolicy::Native | DedupPolicy::PostProcess | DedupPolicy::IODedup => {
                unreachable!("handled above")
            }
            DedupPolicy::FullDedupe => {
                classify_for_full_into(&scratch.candidates, &mut scratch.ranges)
            }
            DedupPolicy::IDedup => classify_for_idedup_into(
                &scratch.candidates,
                self.cfg.idedup_threshold,
                &mut scratch.runs,
                &mut scratch.ranges,
            ),
            DedupPolicy::SelectDedupe => classify_for_select_into(
                &scratch.candidates,
                self.cfg.select_threshold,
                &mut scratch.runs,
                &mut scratch.ranges,
            ),
        };

        // 3. Apply dedup ranges.
        scratch.dedup_mask.resize(req.chunks.len(), false);
        for &(start, len) in &scratch.ranges {
            for m in &mut scratch.dedup_mask[start..start + len] {
                *m = true;
            }
        }
        let mut deduped = 0u32;
        for (i, (lba, fp)) in req.write_chunks().enumerate() {
            if scratch.dedup_mask[i] {
                let target = scratch.candidates[i].expect("dedup range implies candidate");
                // Re-validate at application time: an earlier chunk of
                // this same request (overlapping LBAs, repeated content)
                // may have released or overwritten the candidate block
                // since lookup. A stale candidate is written normally.
                if self.store.content_at(target) == Some(fp) {
                    self.store.dedup_to(lba, target)?;
                    deduped += 1;
                } else {
                    scratch.dedup_mask[i] = false;
                    self.index.remove(&fp);
                }
            }
        }

        // 4. Write the remaining chunks and refresh the index.
        self.write_masked_chunks_into(req, scratch)?;
        let written = req.nblocks - deduped;

        self.counters.deduped_blocks += deduped as u64;
        self.counters.written_blocks += written as u64;
        self.counters.disk_index_lookups += disk_lookups as u64;
        let removed = written == 0;
        if removed {
            self.counters.removed_requests += 1;
            if small {
                self.counters.removed_small_requests += 1;
            } else {
                self.counters.removed_large_requests += 1;
            }
        }

        Ok(WriteSummary {
            kind,
            deduped_blocks: deduped,
            written_blocks: written,
            removed,
            disk_index_lookups: disk_lookups,
        })
    }

    /// Plan a read: map the logical range to physical extents.
    pub fn plan_read(&self, req: &IoRequest) -> ReadPlan {
        debug_assert!(req.op.is_read());
        let mut extents = Vec::new();
        self.store
            .read_extents_into(req.lba, req.nblocks, &mut extents);
        ReadPlan { extents }
    }

    /// Content currently readable at a logical block (used by I/O-Dedup's
    /// content-addressed cache). `None` for never-written blocks.
    pub fn content_of(&self, lba: Lba) -> Option<Fingerprint> {
        let pba = self.store.lookup(lba)?;
        self.store.content_at(pba)
    }

    /// Chunks awaiting the PostProcess background scan.
    pub fn scan_backlog(&self) -> usize {
        self.scan_queue.len()
    }

    /// Rebuild every piece of volatile state from persistent truth
    /// after a simulated power loss (paper §III-B: the Map table lives
    /// in NVRAM, the Index table is a volatile cache over it).
    ///
    /// What survives a crash: the NVRAM Map (mapping + refcounts +
    /// content locations, proven recoverable by replaying its journal)
    /// and the on-disk fingerprint index. What is lost and rebuilt
    /// here: the in-memory Index table — repopulated from the live
    /// Map/content state with every `Count` reset to 0 (the paper
    /// initializes `Count` on insert; the ghost index behind it is
    /// iCache's accounting and is kept) — and the PostProcess scan
    /// backlog, whose queued chunks are merely missed dedup
    /// opportunities, never a correctness loss.
    pub fn recover_after_crash(&mut self) -> PodResult<RecoveryOutcome> {
        // The Map table must be exactly recoverable from its journal,
        // or "recovery" would be fabricating state.
        self.store.verify_journal_recovery()?;

        let (rebuilt, dropped) = self.index.rebuild(self.store.contents());
        let scan_backlog_dropped = self.scan_queue.len() as u64;
        self.scan_queue.clear();
        Ok(RecoveryOutcome {
            index_entries_rebuilt: rebuilt,
            index_entries_evicted: dropped,
            scan_backlog_dropped,
        })
    }

    /// Deliberately corrupt the stored content of `lba` (fault
    /// injection's silent-corruption fixture). Returns the physical
    /// block corrupted, or `None` when the LBA was never written.
    pub fn corrupt_lba(&mut self, lba: Lba) -> Option<Pba> {
        let pba = self.store.lookup(lba)?;
        self.store.corrupt_content(pba)?;
        Some(pba)
    }

    /// PostProcess only: run one background deduplication pass over up to
    /// `max_chunks` queued chunks. Returns what the pass did; the caller
    /// charges `read_extents` as background disk reads (the scanner must
    /// re-read blocks to fingerprint them out-of-band).
    pub fn post_process_scan(&mut self, max_chunks: usize) -> PodResult<ScanOutcome> {
        debug_assert_eq!(self.policy, DedupPolicy::PostProcess);
        let mut out = ScanOutcome::default();
        let mut pbas: Vec<Pba> = Vec::new();
        for _ in 0..max_chunks {
            let Some((lba, fp)) = self.scan_queue.pop_front() else {
                break;
            };
            out.scanned_chunks += 1;
            // Skip chunks whose content was overwritten since queueing.
            let Some(current) = self.store.lookup(lba) else {
                continue;
            };
            if self.store.content_at(current) != Some(fp) {
                continue;
            }
            pbas.push(current);
            match self.disk_index.get(&fp).copied() {
                // A canonical copy exists elsewhere and is still live
                // and identical: remap and free the duplicate.
                Some(canon) if canon != current && self.store.content_at(canon) == Some(fp) => {
                    self.store.dedup_to(lba, canon)?;
                    out.deduped_chunks += 1;
                    self.counters.deduped_blocks += 1;
                }
                // Stale canonical entry: this copy becomes canonical.
                Some(canon) if canon != current => {
                    self.disk_index.insert(fp, current);
                }
                Some(_) => {}
                None => {
                    self.disk_index.insert(fp, current);
                }
            }
        }
        pbas.sort_unstable();
        pbas.dedup();
        merge_extents_into(&pbas, &mut out.read_extents);
        Ok(out)
    }

    /// Write every chunk (Native path), leaving merged extents in
    /// `scratch.write_extents`.
    fn write_all_chunks_into(
        &mut self,
        req: &IoRequest,
        scratch: &mut WriteScratch,
    ) -> PodResult<()> {
        for (lba, fp) in req.write_chunks() {
            let pba = self.store.write_unique(lba, fp, None)?;
            scratch.pbas.push(pba);
        }
        merge_extents_into(&scratch.pbas, &mut scratch.write_extents);
        Ok(())
    }

    /// Write chunks not covered by the dedup mask; maintain the index
    /// for every chunk that now has a fresh physical copy. Merged
    /// extents land in `scratch.write_extents`.
    fn write_masked_chunks_into(
        &mut self,
        req: &IoRequest,
        scratch: &mut WriteScratch,
    ) -> PodResult<()> {
        for (i, (lba, fp)) in req.write_chunks().enumerate() {
            if scratch.dedup_mask[i] {
                continue;
            }
            let pba = self.store.write_unique(lba, fp, None)?;
            scratch.pbas.push(pba);
            // Index maintenance: remember where this content now lives.
            self.index.upsert(fp, pba);
            if self.policy == DedupPolicy::FullDedupe {
                self.disk_index.insert(fp, pba);
            }
        }
        merge_extents_into(&scratch.pbas, &mut scratch.write_extents);
        Ok(())
    }

    /// Gauge snapshot of the whole engine: Index table, Map table and
    /// background-scan state in one struct.
    pub fn introspect(&self) -> DedupState {
        DedupState {
            index: self.index.introspect(),
            map: self.store.introspect(),
            scan_backlog: self.scan_queue.len() as u64,
            disk_index_entries: self.disk_index_entries(),
        }
    }
}

/// Merge an ordered PBA list into contiguous `(start, len)` extents in
/// caller-owned scratch (cleared first).
fn merge_extents_into(pbas: &[Pba], out: &mut Vec<(Pba, u32)>) {
    out.clear();
    for &p in pbas {
        match out.last_mut() {
            Some((start, len)) if start.raw() + *len as u64 == p.raw() => *len += 1,
            _ => out.push((p, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_types::{Lba, SimTime};

    fn fp(id: u64) -> Fingerprint {
        Fingerprint::from_content_id(id)
    }

    fn wreq(id: u64, lba: u64, contents: &[u64]) -> IoRequest {
        IoRequest::write(
            SimTime::from_micros(id),
            Lba::new(lba),
            contents.iter().copied().map(fp).collect(),
        )
    }

    /// One write through fresh scratch: the summary, plus the scratch
    /// holding that write's extents, dedup ranges and ghost feeds.
    fn write(e: &mut DedupEngine, req: &IoRequest) -> PodResult<(WriteSummary, WriteScratch)> {
        let mut scratch = WriteScratch::new();
        let summary = e.process_write_into(req, &mut scratch)?;
        Ok((summary, scratch))
    }

    fn rreq(id: u64, lba: u64, n: u32) -> IoRequest {
        IoRequest::read(SimTime::from_micros(id), Lba::new(lba), n)
    }

    fn engine(policy: DedupPolicy) -> DedupEngine {
        DedupEngine::new(
            policy,
            DedupConfig {
                logical_blocks: 10_000,
                overflow_blocks: 10_000,
                // Every consult faults, so lookup counts are exact.
                index_page_fault_rate: 1,
                ..DedupConfig::default()
            },
        )
    }

    #[test]
    fn native_writes_everything() {
        let mut e = engine(DedupPolicy::Native);
        let (o1, s1) = write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("w1");
        assert_eq!(o1.written_blocks, 3);
        assert_eq!(s1.write_extents, vec![(Pba::new(0), 3)]);
        // Identical content rewritten: still written (no dedup).
        let (o2, _) = write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("w2");
        assert_eq!(o2.written_blocks, 3);
        assert!(!o2.removed);
        assert_eq!(e.store().used_blocks(), 6, "two full copies on disk");
        assert_eq!(e.counters().removed_pct(), 0.0);
    }

    #[test]
    fn select_removes_fully_redundant_sequential_request() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("w1");
        let (o, s) = write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("w2");
        assert!(o.removed, "class {:?}", o.kind);
        assert_eq!(o.deduped_blocks, 3);
        assert_eq!(s.dedup_ranges(), [(0, 3)]);
        assert!(s.write_extents.is_empty());
        assert_eq!(e.store().used_blocks(), 3, "single physical copy");
        assert_eq!(e.store().redirected_entries(), 3, "3 map entries");
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn select_removes_small_single_block_rewrite() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 5, &[42])).expect("w1");
        // Same content, same location: the archetypal small redundant
        // write POD eliminates.
        let (o, _) = write(&mut e, &wreq(1, 5, &[42])).expect("w2");
        assert!(o.removed);
        assert_eq!(e.store().used_blocks(), 1);
        assert_eq!(e.store().redirected_entries(), 0, "same location");
    }

    #[test]
    fn select_skips_scattered_partial() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 0, &[1])).expect("seed 1");
        write(&mut e, &wreq(1, 100, &[2])).expect("seed 2");
        // Request with 2 scattered duplicates (below threshold 3) + fresh.
        let (o, s) = write(&mut e, &wreq(2, 10, &[1, 99, 2, 98])).expect("w");
        assert_eq!(o.kind, ClassKind::ScatteredPartial);
        assert!(s.dedup_ranges().is_empty());
        assert_eq!(o.deduped_blocks, 0);
        assert_eq!(o.written_blocks, 4, "category 2 writes everything");
        // Subsequent read of 10..14 is a single extent: no fragmentation.
        let plan = e.plan_read(&rreq(3, 10, 4));
        assert_eq!(plan.fragments(), 1);
    }

    #[test]
    fn select_dedups_contiguous_run_in_partial_request() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 0, &[1, 2, 3, 4])).expect("seed");
        // 6-block request: first 4 chunks duplicate the stored run.
        let (o, s) = write(&mut e, &wreq(1, 100, &[1, 2, 3, 4, 50, 51])).expect("w");
        assert_eq!(o.kind, ClassKind::ContiguousPartial);
        assert_eq!(s.dedup_ranges(), [(0, 4)]);
        assert_eq!(o.deduped_blocks, 4);
        assert_eq!(o.written_blocks, 2);
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn full_dedupes_scattered_chunks_causing_fragmentation() {
        let mut e = engine(DedupPolicy::FullDedupe);
        write(&mut e, &wreq(0, 0, &[1])).expect("seed1");
        write(&mut e, &wreq(1, 500, &[2])).expect("seed2");
        let (o, _) = write(&mut e, &wreq(2, 10, &[1, 99, 2])).expect("w");
        assert_eq!(o.deduped_blocks, 2);
        assert_eq!(o.written_blocks, 1);
        // The read back is fragmented: 0, 11, 500.
        let plan = e.plan_read(&rreq(3, 10, 3));
        assert_eq!(plan.fragments(), 3, "read amplification under Full-Dedupe");
    }

    #[test]
    fn full_disk_lookups_charged_on_ram_misses() {
        let mut e = engine(DedupPolicy::FullDedupe);
        // Cold unique chunks: each consults the on-disk index.
        let (o, _) = write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("w");
        assert_eq!(o.disk_index_lookups, 2, "3 cold consults, capped at 2");
        // Re-write after the hot index knows them: no disk lookups.
        let (o2, _) = write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("w2");
        assert_eq!(o2.disk_index_lookups, 0);
        assert!(o2.removed);
    }

    #[test]
    fn full_disk_lookups_capped_per_request() {
        // Tiny RAM index so duplicates are only discoverable on disk.
        let mut e = DedupEngine::new(
            DedupPolicy::FullDedupe,
            DedupConfig {
                index_budget_bytes: crate::INDEX_ENTRY_BYTES,
                logical_blocks: 10_000,
                overflow_blocks: 10_000,
                index_page_fault_rate: 1,
                ..DedupConfig::default()
            },
        );
        let contents: Vec<u64> = (1..=8).collect();
        write(&mut e, &wreq(0, 0, &contents)).expect("seed");
        let (o, _) = write(&mut e, &wreq(1, 100, &contents)).expect("w");
        assert!(o.removed, "disk index found all 8 duplicates");
        assert_eq!(
            o.disk_index_lookups, 2,
            "container locality caps the charge"
        );
    }

    #[test]
    fn full_finds_cold_duplicates_via_disk_index() {
        // Tiny RAM index (1 entry) forces cold lookups through the disk
        // index, which still finds the duplicates.
        let mut e = DedupEngine::new(
            DedupPolicy::FullDedupe,
            DedupConfig {
                index_budget_bytes: crate::INDEX_ENTRY_BYTES,
                logical_blocks: 10_000,
                overflow_blocks: 10_000,
                index_page_fault_rate: 1,
                ..DedupConfig::default()
            },
        );
        write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("seed");
        let (o, _) = write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("w");
        assert!(o.removed, "disk index found all duplicates");
        assert!(o.disk_index_lookups > 0);
    }

    #[test]
    fn idedup_bypasses_small_redundant_writes() {
        let mut e = engine(DedupPolicy::IDedup);
        write(&mut e, &wreq(0, 0, &[7])).expect("seed");
        let (o, _) = write(&mut e, &wreq(1, 9, &[7])).expect("w");
        assert!(!o.removed, "iDedup ignores small writes");
        assert_eq!(o.written_blocks, 1);
    }

    #[test]
    fn idedup_dedups_long_sequential_duplicates() {
        let mut e = engine(DedupPolicy::IDedup);
        let contents: Vec<u64> = (1..=8).collect();
        write(&mut e, &wreq(0, 0, &contents)).expect("seed");
        let (o, _) = write(&mut e, &wreq(1, 100, &contents)).expect("w");
        assert!(o.removed, "8-block sequential duplicate run deduped");
        assert_eq!(o.deduped_blocks, 8);
    }

    #[test]
    fn stale_index_entries_are_dropped() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 0, &[1])).expect("w1");
        // Overwrite lba 0 with new content: pba 0 now holds fp(2).
        write(&mut e, &wreq(1, 0, &[2])).expect("w2");
        // A new write of fp(1): index still maps fp(1)->pba0, but the
        // content check must reject it and write fresh.
        let (o, _) = write(&mut e, &wreq(2, 50, &[1])).expect("w3");
        assert!(!o.removed, "stale candidate must not be deduped");
        assert_eq!(o.written_blocks, 1);
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn consistency_shared_block_never_overwritten() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("w1");
        write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("dedup onto 0..3");
        // Overwrite the original location with new data; the shared
        // blocks must survive for lba 10..13.
        write(&mut e, &wreq(2, 0, &[7, 8, 9])).expect("w2");
        let plan = e.plan_read(&rreq(3, 10, 3));
        // lba 10..13 still maps to the original physical copy 0..3.
        assert_eq!(plan.extents, vec![(Pba::new(0), 3)]);
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn counters_accumulate() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("w1");
        write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("w2");
        let c = e.counters();
        assert_eq!(c.write_requests, 2);
        assert_eq!(c.removed_requests, 1);
        assert_eq!(c.deduped_blocks, 3);
        assert_eq!(c.written_blocks, 3);
        assert!((c.removed_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn read_of_unwritten_space_is_identity() {
        let e = engine(DedupPolicy::SelectDedupe);
        let plan = e.plan_read(&rreq(0, 123, 4));
        assert_eq!(plan.extents, vec![(Pba::new(123), 4)]);
    }

    #[test]
    fn merge_extents_merges() {
        let pbas = [
            Pba::new(1),
            Pba::new(2),
            Pba::new(5),
            Pba::new(6),
            Pba::new(9),
        ];
        let mut out = vec![(Pba::new(99), 1)];
        merge_extents_into(&pbas, &mut out);
        assert_eq!(
            out,
            vec![(Pba::new(1), 2), (Pba::new(5), 2), (Pba::new(9), 1)]
        );
        merge_extents_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn page_fault_rate_absorbs_most_consults() {
        let mut e = DedupEngine::new(
            DedupPolicy::FullDedupe,
            DedupConfig {
                logical_blocks: 10_000,
                overflow_blocks: 10_000,
                index_page_fault_rate: 8,
                ..DedupConfig::default()
            },
        );
        // 8 cold consults -> exactly one page fault.
        let contents: Vec<u64> = (1..=8).collect();
        let (o, _) = write(&mut e, &wreq(0, 0, &contents)).expect("w");
        assert_eq!(o.disk_index_lookups, 1);
    }

    #[test]
    fn intra_request_stale_candidate_is_rewritten() {
        // Regression (found by proptest): request 1 writes the same
        // content to many consecutive LBAs; request 2 overwrites part of
        // that range. When a chunk's dedup candidate is released or
        // overwritten by an *earlier chunk of the same request*, the
        // chunk must fall back to a normal write instead of erroring.
        let mut e = engine(DedupPolicy::FullDedupe);
        // Same content at lbas 112..123 — index ends up pointing at the
        // most recent copy.
        let contents = vec![0u64; 11];
        write(&mut e, &wreq(0, 112, &contents)).expect("w1");
        // Overwrite the same range: chunk i dedups lba 112+i onto the
        // candidate, releasing blocks later chunks had as candidates.
        let (o, _) = write(&mut e, &wreq(1, 112, &contents)).expect("w2 must not error");
        assert_eq!(
            o.deduped_blocks + o.written_blocks,
            11,
            "every chunk either deduped or written"
        );
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn post_process_scan_dedups_backlog() {
        let mut e = engine(DedupPolicy::PostProcess);
        write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("w1");
        write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("w2");
        assert_eq!(e.scan_backlog(), 6);
        assert_eq!(e.store().used_blocks(), 6, "nothing deduped inline");
        let scan = e.post_process_scan(100).expect("scan");
        assert_eq!(scan.scanned_chunks, 6);
        assert_eq!(scan.deduped_chunks, 3, "second copy remapped");
        assert_eq!(e.store().used_blocks(), 3);
        assert!(!scan.read_extents.is_empty(), "scanner re-read the chunks");
        assert_eq!(e.scan_backlog(), 0);
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn post_process_scan_skips_overwritten_chunks() {
        let mut e = engine(DedupPolicy::PostProcess);
        write(&mut e, &wreq(0, 0, &[1])).expect("w1");
        // Overwrite before the scanner gets there: the stale queue entry
        // must be ignored, not misdeduped.
        write(&mut e, &wreq(1, 0, &[2])).expect("w2");
        let scan = e.post_process_scan(10).expect("scan");
        assert_eq!(scan.scanned_chunks, 2);
        assert_eq!(scan.deduped_chunks, 0);
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn post_process_scan_batches() {
        let mut e = engine(DedupPolicy::PostProcess);
        for i in 0..4u64 {
            write(&mut e, &wreq(i, i * 10, &[100 + i])).expect("w");
        }
        assert_eq!(e.scan_backlog(), 4);
        let s1 = e.post_process_scan(3).expect("scan");
        assert_eq!(s1.scanned_chunks, 3);
        assert_eq!(e.scan_backlog(), 1);
        let s2 = e.post_process_scan(3).expect("scan");
        assert_eq!(s2.scanned_chunks, 1);
    }

    #[test]
    fn iodedup_tracks_content_without_dedup() {
        let mut e = engine(DedupPolicy::IODedup);
        write(&mut e, &wreq(0, 0, &[7, 8])).expect("w1");
        let (o, _) = write(&mut e, &wreq(1, 10, &[7, 8])).expect("w2");
        assert!(!o.removed, "I/O-Dedup never eliminates writes");
        assert_eq!(e.store().used_blocks(), 4, "both copies on disk");
        assert_eq!(e.content_of(Lba::new(0)), Some(fp(7)));
        assert_eq!(e.content_of(Lba::new(11)), Some(fp(8)));
        assert_eq!(e.content_of(Lba::new(99)), None);
    }

    #[test]
    fn index_victims_surface_for_ghost_feed() {
        let mut e = DedupEngine::new(
            DedupPolicy::SelectDedupe,
            DedupConfig {
                index_budget_bytes: 2 * crate::INDEX_ENTRY_BYTES,
                logical_blocks: 10_000,
                overflow_blocks: 10_000,
                ..DedupConfig::default()
            },
        );
        e.index_mut().set_ghost_capacity(4);
        write(&mut e, &wreq(0, 0, &[1, 2])).expect("w1");
        let (_, s) = write(&mut e, &wreq(1, 10, &[3, 4])).expect("w2");
        assert_eq!(s.index_miss_fps, vec![fp(3), fp(4)], "the ghost probe feed");
        assert_eq!(e.index().ghost().len, 2, "2-entry index evicts both");
        // The feed probes after the request's victims are remembered.
        assert_eq!(e.index_mut().probe_ghosts(&[fp(1), fp(9), fp(2)]), 2);
        assert_eq!(e.index().ghost().hits, 2);
    }

    #[test]
    fn crash_recovery_keeps_the_ghost_index() {
        let mut e = DedupEngine::new(
            DedupPolicy::SelectDedupe,
            DedupConfig {
                index_budget_bytes: 2 * crate::INDEX_ENTRY_BYTES,
                logical_blocks: 10_000,
                overflow_blocks: 10_000,
                ..DedupConfig::default()
            },
        );
        e.index_mut().set_ghost_capacity(4);
        write(&mut e, &wreq(0, 0, &[1, 2])).expect("w1");
        write(&mut e, &wreq(1, 10, &[3, 4])).expect("w2");
        let outcome = e.recover_after_crash().expect("recovery");
        assert_eq!(outcome.index_entries_rebuilt, 4);
        assert_eq!(outcome.index_entries_evicted, 2, "forgotten, not ghosted");
        assert_eq!(e.index().stats(), (0, 0, 4), "counters restart");
        assert_eq!(e.index().heat()[0], 2);
        assert_eq!(
            e.index_mut().probe_ghosts(&[fp(1), fp(2)]),
            2,
            "the ghost survived"
        );
    }

    #[test]
    fn crash_recovery_rebuilds_index_from_map() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 0, &[1, 2, 3])).expect("seed");
        write(&mut e, &wreq(1, 10, &[1, 2, 3])).expect("dedup");
        write(&mut e, &wreq(2, 20, &[7, 8, 9])).expect("unique");
        let live_blocks = e.store().used_blocks();
        let cap_bytes = e.index().capacity_bytes();

        let outcome = e.recover_after_crash().expect("recovery");
        assert_eq!(outcome.index_entries_rebuilt, live_blocks);
        assert_eq!(outcome.index_entries_evicted, 0);
        assert_eq!(e.index().capacity_bytes(), cap_bytes, "budget preserved");
        assert_eq!(e.index().len() as u64, live_blocks);
        // Every live block's content is findable again, with Count
        // reset to 0 (paper: initialized on insert).
        for (pba, fp) in e.store().contents().collect::<Vec<_>>() {
            let entry = e.index().peek(&fp).expect("rebuilt entry");
            assert_eq!(entry.pba, pba);
            assert_eq!(entry.count, 0);
        }
        // The engine still dedups correctly after recovery.
        let (o, _) = write(&mut e, &wreq(3, 30, &[7, 8, 9])).expect("post");
        assert!(o.removed, "recovered index still finds duplicates");
        e.store().check_invariants().expect("invariants");
    }

    #[test]
    fn crash_recovery_respects_index_budget_and_drops_backlog() {
        let mut e = DedupEngine::new(
            DedupPolicy::PostProcess,
            DedupConfig {
                index_budget_bytes: 2 * crate::INDEX_ENTRY_BYTES,
                logical_blocks: 10_000,
                overflow_blocks: 10_000,
                ..DedupConfig::default()
            },
        );
        for i in 0..4u64 {
            write(&mut e, &wreq(i, i * 10, &[100 + i])).expect("w");
        }
        assert_eq!(e.scan_backlog(), 4);
        let outcome = e.recover_after_crash().expect("recovery");
        assert_eq!(outcome.index_entries_rebuilt, 4);
        assert_eq!(outcome.index_entries_evicted, 2, "2-entry budget");
        assert_eq!(outcome.scan_backlog_dropped, 4);
        assert_eq!(e.scan_backlog(), 0);
        assert_eq!(e.index().len(), 2);
    }

    #[test]
    fn corrupt_lba_flips_content_without_touching_mapping() {
        let mut e = engine(DedupPolicy::SelectDedupe);
        write(&mut e, &wreq(0, 5, &[42])).expect("w");
        assert_eq!(e.corrupt_lba(Lba::new(999)), None, "never written");
        let pba = e.corrupt_lba(Lba::new(5)).expect("live block");
        assert_eq!(e.store().lookup(Lba::new(5)), Some(pba), "mapping intact");
        assert_ne!(e.content_of(Lba::new(5)), Some(fp(42)), "content flipped");
        assert!(
            e.store().check_invariants().is_ok(),
            "corruption is silent: structural invariants still hold"
        );
    }
}
