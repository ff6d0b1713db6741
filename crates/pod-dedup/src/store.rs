//! The chunk store: logical-to-physical mapping with reference counts.
//!
//! Layout model: every logical block has a *home* physical address equal
//! to its LBA (the array is addressed block-for-block, like a block
//! device under a file system). A write that is not deduplicated goes to
//! its home in place — preserving the sequential layout Native enjoys —
//! **unless** the home block currently holds content other LBAs still
//! reference, in which case overwriting it would corrupt them and the
//! write is redirected to an *overflow* extent (paper §III-B: "The data
//! consistency is also checked to make sure that the referenced data is
//! not overwritten").
//!
//! A deduplicated chunk performs no data write at all: its LBA is simply
//! remapped onto the existing copy's PBA and the copy's reference count
//! incremented — the Map table's m-to-1 relation. Redirected mappings
//! (PBA ≠ home) are what the NVRAM-resident Map table persists; its
//! 20-byte-per-entry footprint is the §IV-D2 overhead number.
//!
//! Representation: the address space is dense (homes are `[0,
//! logical_blocks)`, overflow PBAs follow directly), so block state
//! lives *at the block's address* in a `BlockTable` of 24-byte
//! `BlockRecord`s — content, mapping and refcount side by side, so a
//! home write touches one record. A request's consecutive blocks are
//! consecutive records, and a lookup is an index, not a hash probe. See
//! DESIGN.md §8, "Block-indexed store".

use crate::journal::MapJournal;
use pod_disk::{AllocState, BlockStore};
use pod_types::fingerprint::FINGERPRINT_BYTES;
use pod_types::{log2_bucket, Fingerprint, Lba, Pba, PodError, PodResult};

/// Entries per [`BlockTable`] page: 4,096 blocks = 16 MiB of address
/// space, so a store page of [`BlockRecord`]s is 96 KiB — under glibc's
/// 128 KiB mmap threshold, so pages come from the heap, not one mapping
/// each — and a [`BlockSet`] page of words is 32 KiB.
const PAGE_ENTRIES: usize = 4_096;

/// Entries compared at once by [`BlockTable::iter`]'s zero-skipping
/// scan; divides [`PAGE_ENTRIES`].
const SCAN_RUN: usize = 64;

/// NVRAM bytes per redirected Map-table entry (paper §IV-D2, which
/// reports only this footprint: peaks of 0.8/0.3/1.5 MB for the three
/// traces).
pub const MAP_ENTRY_BYTES: u64 = 20;

/// A table indexed by block address over the bounded range `[0, blocks)`:
/// a directory of [`PAGE_ENTRIES`]-entry pages, each allocated
/// zero-filled the first time a block in it is written. The all-zero
/// value means "absent", so an untouched page and an untouched entry
/// read the same and nothing is initialised up front.
///
/// Paged rather than one flat `Vec` because the range is the whole
/// array (up to 3 × 160 GB = 125.8 M blocks) while a real trace is
/// sparse over it: the directory is one pointer per 16 MiB of address
/// space, and only touched regions pay for their entries.
#[derive(Debug)]
struct BlockTable<T> {
    /// One slot per `PAGE_ENTRIES` blocks; `None` until first written.
    pages: Vec<Option<Box<[T; PAGE_ENTRIES]>>>,
    /// Exclusive upper bound of the addressable range.
    blocks: u64,
}

impl<T: Copy + Default + PartialEq> BlockTable<T> {
    fn new(blocks: u64) -> Self {
        let npages = blocks.div_ceil(PAGE_ENTRIES as u64) as usize;
        Self {
            pages: vec![None; npages],
            blocks,
        }
    }

    /// Whether `block` is inside the table's range.
    #[inline]
    fn contains(&self, block: u64) -> bool {
        block < self.blocks
    }

    /// The entry for `block`; zero when never written or out of range.
    /// Never allocates.
    #[inline]
    fn get(&self, block: u64) -> T {
        match self.pages.get((block / PAGE_ENTRIES as u64) as usize) {
            Some(Some(page)) => page[(block % PAGE_ENTRIES as u64) as usize],
            _ => T::default(),
        }
    }

    /// Mutable entry for `block`, allocating its page on first touch.
    /// Callers check [`BlockTable::contains`] first: an address beyond
    /// the range is a broken internal condition here, not an input.
    #[inline]
    fn slot(&mut self, block: u64) -> &mut T {
        assert!(
            self.contains(block),
            "block {block} outside a {}-block table",
            self.blocks
        );
        let page = self.pages[(block / PAGE_ENTRIES as u64) as usize].get_or_insert_with(|| {
            vec![T::default(); PAGE_ENTRIES]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("the vector has PAGE_ENTRIES elements"))
        });
        &mut page[(block % PAGE_ENTRIES as u64) as usize]
    }

    /// Every non-zero entry as `(block, value)`, in ascending block
    /// order. Allocated pages are scanned [`SCAN_RUN`] entries at a time
    /// so an untouched run costs one `memcmp`: walking a sparsely
    /// written page costs in proportion to its entries, not its size.
    fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        let zero = [T::default(); SCAN_RUN];
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(i, page)| Some((i * PAGE_ENTRIES, page.as_deref()?)))
            .flat_map(|(base, page)| {
                page.chunks_exact(SCAN_RUN)
                    .enumerate()
                    .map(move |(r, run)| (base + r * SCAN_RUN, run))
            })
            .filter(move |(_, run)| **run != zero)
            .flat_map(|(base, run)| {
                run.iter()
                    .enumerate()
                    .filter(|(_, v)| **v != T::default())
                    .map(move |(j, v)| ((base + j) as u64, *v))
            })
    }
}

/// A set of block addresses over the bounded range `[0, blocks)`: one
/// bit per block, held in 64-bit words paged like the store's own
/// table, so a page (32 KiB, 262,144 blocks) is allocated the first
/// time a block in it is inserted and a set over the whole array costs a
/// directory plus the regions actually touched. The one-pass checks
/// that read a log newest entry first — the integrity oracle over a
/// trace, the journal check over its entries — mark each block here to
/// keep only its last write.
#[derive(Debug)]
pub struct BlockSet {
    words: BlockTable<u64>,
    blocks: u64,
}

impl BlockSet {
    /// An empty set over `[0, blocks)`; allocates only the directory.
    pub fn new(blocks: u64) -> Self {
        Self {
            words: BlockTable::new(blocks.div_ceil(64)),
            blocks,
        }
    }

    /// Add `block`, returning `true` when it was not in the set yet.
    ///
    /// # Panics
    /// If `block` is outside the set's range: callers size the set to
    /// the address space their blocks were already checked against.
    #[inline]
    pub fn insert(&mut self, block: u64) -> bool {
        assert!(
            block < self.blocks,
            "block {block} outside a {}-block set",
            self.blocks
        );
        let word = self.words.slot(block / 64);
        let bit = 1u64 << (block % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

/// Exclusive bound on a store's physical space (home + overflow), in
/// blocks: below it every PBA + 1 fits the `u32` a block record maps
/// its LBA with. The largest array a replay builds (3 × 160 GB data
/// disks, 125.8 M blocks) is far below it.
pub const MAX_PHYSICAL_BLOCKS: u64 = 1 << 32;

/// Everything the store keeps about one physical block, at the block's
/// address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct BlockRecord {
    /// Content stored in the block; meaningful only where `refs > 0`
    /// (the all-zero fingerprint is a legal content).
    content: [u8; FINGERPRINT_BYTES],
    /// Below `logical_blocks` only: the current physical location of
    /// the LBA equal to this address, stored as PBA + 1 (zero = never
    /// written). Fits a `u32` because [`ChunkStore::new`] keeps every
    /// PBA below [`MAX_PHYSICAL_BLOCKS`] − 1.
    mapping: u32,
    /// Reference count (zero = not live). At most the number of LBAs,
    /// so it fits a `u32` too.
    refs: u32,
}

// A store page holds `PAGE_ENTRIES` of these: keep a record at its
// content, mapping and refcount, with no padding.
const _: () = assert!(size_of::<BlockRecord>() == 24);

/// Mapping + refcount + content state of the deduplicated block space.
#[derive(Debug)]
pub struct ChunkStore {
    /// Size of the home (identity) region in blocks = logical space.
    logical_blocks: u64,
    /// Extent allocator for the overflow region. PBAs returned are
    /// offset by `logical_blocks`.
    overflow: BlockStore,
    /// One record per physical block, indexed by PBA over home +
    /// overflow.
    blocks: BlockTable<BlockRecord>,
    /// Logical blocks with a mapping (non-zero `mapping` fields).
    mapped: u64,
    /// Live physical blocks (non-zero `refs` fields).
    live: u64,
    /// Count of mapping entries whose PBA differs from home: the
    /// NVRAM-resident Map-table entries.
    redirected: u64,
    /// High-water mark of `redirected`.
    peak_redirected: u64,
    /// Persistent journal of redirection changes (the NVRAM Map table's
    /// on-media format; see `crate::journal`).
    journal: MapJournal,
    /// Log2-bucketed histogram of per-block reference counts, maintained
    /// incrementally at every refcount transition: bucket i holds blocks
    /// whose refcount is in [2^i, 2^(i+1)) — bucket 0 is exclusively
    /// owned blocks, buckets 1.. are the Map table's m-to-1 fan-in.
    fan_in: [u64; 8],
}

/// Flat gauge snapshot of a [`ChunkStore`]'s Map table (see
/// [`ChunkStore::introspect`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapState {
    /// Logical blocks with a live mapping.
    pub mapped: u64,
    /// Live physical blocks with exactly one referencing LBA.
    pub unique_blocks: u64,
    /// Live physical blocks shared by two or more LBAs (m-to-1).
    pub shared_blocks: u64,
    /// Mapping entries whose PBA differs from home (NVRAM-resident).
    pub redirected: u64,
    /// NVRAM Map-table entries (= `redirected`).
    pub nvram_entries: u64,
    /// NVRAM Map-table bytes ([`MAP_ENTRY_BYTES`] per entry).
    pub nvram_bytes: u64,
    /// Records in the NVRAM Map-table journal.
    pub journal_entries: u64,
    /// Log2-bucketed refcount fan-in histogram (bucket 0 = refcount 1,
    /// bucket 1 = 2–3, ..., bucket 7 = ≥128).
    pub fan_in: [u64; 8],
    /// Overflow-region allocator state (dedup-induced fragmentation).
    pub overflow: AllocState,
}

impl ChunkStore {
    /// A store over `logical_blocks` of addressable space with an
    /// overflow region of `overflow_blocks` for redirected writes.
    /// Costs one directory pointer per 4,096 blocks of either; block
    /// state is allocated as regions are first written.
    ///
    /// A physical space (the two together) of [`MAX_PHYSICAL_BLOCKS`]
    /// or more is [`PodError::OutOfRange`], refused before anything is
    /// allocated.
    pub fn new(logical_blocks: u64, overflow_blocks: u64) -> PodResult<Self> {
        let physical_blocks = logical_blocks
            .checked_add(overflow_blocks)
            .filter(|&b| b < MAX_PHYSICAL_BLOCKS)
            .ok_or_else(|| PodError::OutOfRange {
                what: "physical blocks".into(),
                value: logical_blocks.saturating_add(overflow_blocks),
                limit: MAX_PHYSICAL_BLOCKS,
            })?;
        Ok(Self {
            logical_blocks,
            overflow: BlockStore::new(overflow_blocks),
            blocks: BlockTable::new(physical_blocks),
            mapped: 0,
            live: 0,
            redirected: 0,
            peak_redirected: 0,
            journal: MapJournal::new(),
            fan_in: [0; 8],
        })
    }

    /// The persistent Map-table journal.
    pub fn journal(&self) -> &MapJournal {
        &self.journal
    }

    /// Verify that replaying the journal reproduces exactly the live
    /// redirected mapping — the crash-recovery correctness property.
    ///
    /// The journal's final state for each LBA it names must be the live
    /// state: redirected to that PBA, or not redirected. The redirections
    /// it recovers are then distinct live ones, so the two sets are equal
    /// exactly when their sizes are, and LBAs the journal never names
    /// need no visit.
    pub fn verify_journal_recovery(&self) -> PodResult<()> {
        let (mut recovered, mut agrees) = (0u64, true);
        self.journal.replay(self.logical_blocks, |lba, pba| {
            recovered += u64::from(pba.is_some());
            agrees &= self.mapped_pba(lba).filter(|&p| p != lba) == pba;
        })?;
        if !agrees || recovered != self.redirected {
            return Err(PodError::Inconsistency(format!(
                "journal recovers {recovered} redirections, live state has {}",
                self.redirected
            )));
        }
        Ok(())
    }

    /// Logical (home-region) size in blocks.
    pub fn logical_blocks(&self) -> u64 {
        self.logical_blocks
    }

    /// Current physical location of `lba`, if it has ever been written.
    pub fn lookup(&self, lba: Lba) -> Option<Pba> {
        self.mapped_pba(lba.raw()).map(Pba::new)
    }

    /// Content stored at a physical block, if live.
    pub fn content_at(&self, pba: Pba) -> Option<Fingerprint> {
        let block = self.blocks.get(pba.raw());
        (block.refs > 0).then(|| Fingerprint::from_bytes(block.content))
    }

    /// Every live physical block with its stored content, in ascending
    /// PBA order. Crash recovery rebuilds the volatile fingerprint index
    /// from this — the Map table and the content it references are the
    /// persistent truth — so when the live set exceeds the index budget
    /// it is the highest PBAs that stay resident.
    pub fn contents(&self) -> impl Iterator<Item = (Pba, Fingerprint)> + '_ {
        self.blocks
            .iter()
            .filter(|(_, block)| block.refs > 0)
            .map(|(p, block)| (Pba::new(p), Fingerprint::from_bytes(block.content)))
    }

    /// Deliberately corrupt the content stored at `pba` (fault
    /// injection's silent-corruption fixture). Returns the corrupted
    /// fingerprint, or `None` when the block is not live. The mapping
    /// and refcounts stay intact — exactly the failure a differential
    /// read-back oracle exists to catch.
    pub fn corrupt_content(&mut self, pba: Pba) -> Option<Fingerprint> {
        let old = self.content_at(pba)?;
        let bad = Fingerprint::from_content_id(old.prefix_u64() ^ 0xDEAD_BEEF_DEAD_BEEF);
        self.blocks.slot(pba.raw()).content = *bad.as_bytes();
        Some(bad)
    }

    /// Reference count of a physical block (0 = free).
    pub fn refcount(&self, pba: Pba) -> u32 {
        self.blocks.get(pba.raw()).refs
    }

    /// Live unique physical blocks — the capacity-used metric (Fig. 10).
    pub fn used_blocks(&self) -> u64 {
        self.live
    }

    /// Count of redirected map entries.
    pub fn redirected_entries(&self) -> u64 {
        self.redirected
    }

    /// High-water mark of the NVRAM Map table in bytes — the number
    /// §IV-D2 reports.
    pub fn nvram_peak_bytes(&self) -> u64 {
        self.peak_redirected * MAP_ENTRY_BYTES
    }

    /// Log2-bucketed refcount fan-in histogram (bucket 0 = refcount 1).
    /// Maintained incrementally, so reading it is free.
    pub fn fan_in(&self) -> [u64; 8] {
        self.fan_in
    }

    /// Live physical blocks referenced by two or more LBAs.
    pub fn shared_blocks(&self) -> u64 {
        self.fan_in[1..].iter().sum()
    }

    /// Write chunk content for `lba`, placing it physically and returning
    /// the PBA the data must be written to on disk.
    ///
    /// Placement: home if free or exclusively ours; otherwise an overflow
    /// extent. `run_hint` lets the caller pre-allocate a contiguous
    /// overflow extent for a run of redirected chunks (pass the extent's
    /// next PBA); `None` means allocate fresh when needed.
    ///
    /// An `lba` outside the logical space is [`PodError::OutOfRange`]
    /// and a `preallocated` block outside the physical space is
    /// [`PodError::NotAllocated`]; both leave the store untouched.
    pub fn write_unique(
        &mut self,
        lba: Lba,
        fp: Fingerprint,
        preallocated: Option<Pba>,
    ) -> PodResult<Pba> {
        let home = self.checked_home(lba)?;
        if let Some(p) = preallocated {
            if !self.blocks.contains(p.raw()) {
                return Err(PodError::NotAllocated(p.raw()));
            }
        }
        let current = self.mapped_pba(home);
        // Whether this LBA still holds a claim on its old block when we
        // reach the claim step (released blocks may be recycled by the
        // allocator as the new target, so the original `current` alone
        // cannot decide).
        let mut holds_old_claim = current.is_some();

        // Decide the target physical block. The old copy (if it will not
        // be overwritten in place) is released *before* any overflow
        // allocation, so a tight overflow region can recycle it.
        let target = if let Some(p) = preallocated {
            if let Some(old) = current {
                if old != p.raw() {
                    self.release(old)?;
                    holds_old_claim = false;
                }
            }
            p.raw()
        } else {
            let home_refs = self.blocks.get(home).refs;
            let in_place_ok = home_refs == 0 || (current == Some(home) && home_refs == 1);
            if in_place_ok {
                if let Some(old) = current {
                    if old != home {
                        self.release(old)?;
                        holds_old_claim = false;
                    }
                }
                home
            } else {
                if let Some(old) = current {
                    self.release(old)?;
                    holds_old_claim = false;
                }
                self.alloc_overflow(1)?.raw()
            }
        };

        // Claim the target unless this is an in-place overwrite of a
        // block we still exclusively own.
        let in_place_overwrite = holds_old_claim && current == Some(target);
        if !in_place_overwrite {
            self.blocks.slot(target).refs += 1;
            self.note_ref_change(0, 1);
        }
        let block = self.blocks.slot(target);
        debug_assert_eq!(
            block.refs, 1,
            "a freshly written block must be exclusively referenced"
        );
        block.content = *fp.as_bytes();
        self.remap(home, current, target);
        Ok(Pba::new(target))
    }

    /// Deduplicate: point `lba` at the existing copy at `target` without
    /// any data write. Fails — before any state changes — if `lba` is
    /// outside the logical space or `target` is not live.
    pub fn dedup_to(&mut self, lba: Lba, target: Pba) -> PodResult<()> {
        let home = self.checked_home(lba)?;
        let t = target.raw();
        if self.blocks.get(t).refs == 0 {
            return Err(PodError::NotAllocated(t));
        }
        let current = self.mapped_pba(home);
        if current == Some(t) {
            // Same-location rewrite of identical content: nothing changes.
            return Ok(());
        }
        if let Some(old) = current {
            self.release(old)?;
        }
        let block = self.blocks.slot(t);
        let was = block.refs;
        block.refs += 1;
        self.note_ref_change(was, was + 1);
        self.remap(home, current, t);
        Ok(())
    }

    /// Pre-allocate a contiguous overflow extent of `n` blocks (for a
    /// redirected run). The caller then feeds consecutive PBAs into
    /// [`ChunkStore::write_unique`] as `preallocated`.
    pub fn alloc_overflow(&mut self, n: u32) -> PodResult<Pba> {
        let base = self.overflow.alloc_extent(n)?;
        // ChunkStore's refs for the extent start at 0 and are claimed by
        // write_unique.
        Ok(Pba::new(self.logical_blocks + base.raw()))
    }

    /// Physical extents backing a logical range, merged over contiguous
    /// physical runs — the read path's fragmentation signal — into a
    /// caller-owned buffer (cleared first), so a replay's read misses
    /// reuse one allocation. Unwritten blocks read from their home
    /// location.
    pub fn read_extents_into(&self, lba: Lba, nblocks: u32, out: &mut Vec<(Pba, u32)>) {
        out.clear();
        for i in 0..nblocks as u64 {
            let l = lba.raw() + i;
            let p = self.mapped_pba(l).unwrap_or(l);
            match out.last_mut() {
                Some((start, len)) if start.raw() + *len as u64 == p => *len += 1,
                _ => out.push((Pba::new(p), 1)),
            }
        }
    }

    /// Verify internal invariants (used by property tests): the sum of
    /// per-PBA refcounts equals the mapping size, every mapped PBA is
    /// live, only home addresses hold a mapping, and the incremental
    /// counters (mapped, live, redirected, fan-in) agree with a recount
    /// of the records.
    pub fn check_invariants(&self) -> PodResult<()> {
        let mut mapped = 0u64;
        let mut redirected = 0u64;
        let mut total_refs = 0u64;
        let mut live = 0u64;
        let mut fan_in = [0u64; 8];
        for (addr, block) in self.blocks.iter() {
            if let Some(pba) = u64::from(block.mapping).checked_sub(1) {
                if addr >= self.logical_blocks {
                    return Err(PodError::Inconsistency(format!(
                        "overflow pba {addr} holds a mapping"
                    )));
                }
                if self.blocks.get(pba).refs == 0 {
                    return Err(PodError::Inconsistency(format!(
                        "lba {addr} maps to dead pba {pba}"
                    )));
                }
                mapped += 1;
                redirected += u64::from(addr != pba);
            }
            if block.refs > 0 {
                total_refs += u64::from(block.refs);
                live += 1;
                fan_in[log2_bucket::<8>(u64::from(block.refs))] += 1;
            }
        }
        if mapped != self.mapped {
            return Err(PodError::Inconsistency(format!(
                "mapped count {} != recounted {mapped}",
                self.mapped
            )));
        }
        if total_refs != mapped {
            return Err(PodError::Inconsistency(format!(
                "refcount sum {total_refs} != mapping size {mapped}"
            )));
        }
        if live != self.live {
            return Err(PodError::Inconsistency(format!(
                "live count {} != recounted {live}",
                self.live
            )));
        }
        if redirected != self.redirected {
            return Err(PodError::Inconsistency(format!(
                "redirected count {} != recomputed {redirected}",
                self.redirected
            )));
        }
        if fan_in != self.fan_in {
            return Err(PodError::Inconsistency(format!(
                "incremental fan-in {:?} != recounted {fan_in:?}",
                self.fan_in
            )));
        }
        Ok(())
    }

    /// `lba` as a home address, refused when outside the logical space
    /// (where it would alias the overflow region's PBAs).
    fn checked_home(&self, lba: Lba) -> PodResult<u64> {
        if lba.raw() >= self.logical_blocks {
            return Err(PodError::OutOfRange {
                what: "lba".into(),
                value: lba.raw(),
                limit: self.logical_blocks,
            });
        }
        Ok(lba.raw())
    }

    /// The PBA `lba` currently maps to (decoding the record's PBA + 1).
    /// Overflow records never hold a mapping, so an `lba` past the
    /// logical space reads as unwritten.
    #[inline]
    fn mapped_pba(&self, lba: u64) -> Option<u64> {
        u64::from(self.blocks.get(lba).mapping).checked_sub(1)
    }

    fn release(&mut self, pba: u64) -> PodResult<()> {
        let was = self.blocks.get(pba).refs;
        if was == 0 {
            return Err(PodError::NotAllocated(pba));
        }
        self.blocks.slot(pba).refs = was - 1;
        self.note_ref_change(was, was - 1);
        if was == 1 && pba >= self.logical_blocks {
            // Return the overflow block to its allocator.
            self.overflow.free(Pba::new(pba - self.logical_blocks))?;
        }
        Ok(())
    }

    /// Move a block between fan-in buckets as its refcount changes (0
    /// means "not live" on either side).
    fn note_ref_change(&mut self, old: u32, new: u32) {
        if old > 0 {
            self.fan_in[log2_bucket::<8>(old as u64)] -= 1;
        } else {
            self.live += 1;
        }
        if new > 0 {
            self.fan_in[log2_bucket::<8>(new as u64)] += 1;
        } else {
            self.live -= 1;
        }
    }

    /// Point `home` at `new` (it was at `old`) and keep the redirection
    /// count, its high-water mark and the journal in step.
    fn remap(&mut self, home: u64, old: Option<u64>, new: u64) {
        // `new` is a PBA of the store, below `MAX_PHYSICAL_BLOCKS` − 1
        // (see `new`), so its PBA + 1 is exact in a `u32`.
        self.blocks.slot(home).mapping = (new + 1) as u32;
        if old.is_none() {
            self.mapped += 1;
        }
        let was_redirected = matches!(old, Some(p) if p != home);
        let is_redirected = new != home;
        match (was_redirected, is_redirected) {
            (false, true) => {
                self.redirected += 1;
                self.peak_redirected = self.peak_redirected.max(self.redirected);
            }
            (true, false) => self.redirected -= 1,
            _ => {}
        }
        // Journal the change so a power failure can recover the Map
        // table (§III-B). Redirection-target changes must be journalled
        // even when the redirected *count* is unchanged.
        if is_redirected {
            if old != Some(new) {
                self.journal.append_remap(Lba::new(home), Pba::new(new));
            }
        } else if was_redirected {
            self.journal.append_clear(Lba::new(home));
        }
    }

    /// Gauge snapshot: cheap, allocation-free, `Copy`.
    pub fn introspect(&self) -> MapState {
        MapState {
            mapped: self.mapped,
            unique_blocks: self.fan_in[0],
            shared_blocks: self.shared_blocks(),
            redirected: self.redirected,
            nvram_entries: self.redirected,
            nvram_bytes: self.redirected * MAP_ENTRY_BYTES,
            journal_entries: self.journal.entries() as u64,
            fan_in: self.fan_in,
            overflow: self.overflow.introspect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(id: u64) -> Fingerprint {
        Fingerprint::from_content_id(id)
    }

    fn store() -> ChunkStore {
        ChunkStore::new(1_000, 1_000).expect("a small store")
    }

    fn extents_of(s: &ChunkStore, lba: Lba, nblocks: u32) -> Vec<(Pba, u32)> {
        let mut out = Vec::new();
        s.read_extents_into(lba, nblocks, &mut out);
        out
    }

    #[test]
    fn first_write_goes_home() {
        let mut s = store();
        let p = s.write_unique(Lba::new(5), fp(1), None).expect("write");
        assert_eq!(p, Pba::new(5));
        assert_eq!(s.lookup(Lba::new(5)), Some(Pba::new(5)));
        assert_eq!(s.content_at(p), Some(fp(1)));
        assert_eq!(s.used_blocks(), 1);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn overwrite_in_place_when_exclusive() {
        let mut s = store();
        s.write_unique(Lba::new(5), fp(1), None).expect("w1");
        let p = s.write_unique(Lba::new(5), fp(2), None).expect("w2");
        assert_eq!(p, Pba::new(5), "exclusive home is overwritten in place");
        assert_eq!(s.content_at(p), Some(fp(2)));
        assert_eq!(s.used_blocks(), 1);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn dedup_remaps_and_increfs() {
        let mut s = store();
        s.write_unique(Lba::new(1), fp(9), None).expect("w");
        s.dedup_to(Lba::new(2), Pba::new(1)).expect("dedup");
        assert_eq!(s.lookup(Lba::new(2)), Some(Pba::new(1)));
        assert_eq!(s.refcount(Pba::new(1)), 2);
        assert_eq!(s.used_blocks(), 1, "one physical copy");
        assert_eq!(s.redirected_entries(), 1);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn shared_home_write_is_redirected() {
        let mut s = store();
        s.write_unique(Lba::new(1), fp(9), None).expect("w");
        s.dedup_to(Lba::new(2), Pba::new(1)).expect("dedup");
        // Now overwrite lba1: pba1 is shared (lba2 depends on it), so the
        // new data must NOT land on pba1.
        let p = s.write_unique(Lba::new(1), fp(10), None).expect("w2");
        assert_ne!(p, Pba::new(1));
        assert!(p.raw() >= 1_000, "redirected into overflow");
        assert_eq!(s.content_at(Pba::new(1)), Some(fp(9)), "old copy intact");
        assert_eq!(s.lookup(Lba::new(2)), Some(Pba::new(1)));
        assert_eq!(s.refcount(Pba::new(1)), 1, "only lba2 now");
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn writing_home_occupied_by_foreign_content_redirects() {
        let mut s = store();
        // lba 1 writes, lba 2 dedups onto pba 1, lba 1 is overwritten and
        // moves away. pba 1 now belongs solely to lba 2. A fresh write to
        // lba 1 must not clobber pba 1... wait, lba1's home IS pba1.
        s.write_unique(Lba::new(1), fp(9), None).expect("w");
        s.dedup_to(Lba::new(2), Pba::new(1)).expect("dedup");
        s.write_unique(Lba::new(1), fp(10), None).expect("w2");
        // lba1 home (pba1) still referenced by lba2 → redirect again.
        let p = s.write_unique(Lba::new(1), fp(11), None).expect("w3");
        assert_ne!(p.raw(), 1);
        assert_eq!(s.content_at(Pba::new(1)), Some(fp(9)));
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn dedup_to_dead_block_fails() {
        let mut s = store();
        assert!(s.dedup_to(Lba::new(1), Pba::new(99)).is_err());
    }

    #[test]
    fn rewrite_same_content_same_location_is_noop() {
        let mut s = store();
        s.write_unique(Lba::new(3), fp(7), None).expect("w");
        s.dedup_to(Lba::new(3), Pba::new(3)).expect("self-dedup");
        assert_eq!(s.refcount(Pba::new(3)), 1);
        assert_eq!(s.redirected_entries(), 0);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn release_on_remap_frees_unreferenced() {
        let mut s = store();
        s.write_unique(Lba::new(1), fp(1), None).expect("w1");
        s.write_unique(Lba::new(2), fp(2), None).expect("w2");
        // Remap lba1 onto lba2's block: pba1 is released.
        s.dedup_to(Lba::new(1), Pba::new(2)).expect("dedup");
        assert_eq!(s.refcount(Pba::new(1)), 0);
        assert_eq!(s.content_at(Pba::new(1)), None);
        assert_eq!(s.used_blocks(), 1);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn read_extents_merge_contiguous() {
        let mut s = store();
        for i in 0..4 {
            s.write_unique(Lba::new(10 + i), fp(i), None).expect("w");
        }
        let ex = extents_of(&s, Lba::new(10), 4);
        assert_eq!(ex, vec![(Pba::new(10), 4)]);
    }

    #[test]
    fn read_extents_fragment_on_redirection() {
        let mut s = store();
        for i in 0..4 {
            s.write_unique(Lba::new(10 + i), fp(i), None).expect("w");
        }
        // Dedup lba 11 onto a far-away block.
        s.write_unique(Lba::new(500), fp(100), None).expect("w far");
        s.dedup_to(Lba::new(11), Pba::new(500)).expect("dedup");
        let ex = extents_of(&s, Lba::new(10), 4);
        assert_eq!(
            ex,
            vec![(Pba::new(10), 1), (Pba::new(500), 1), (Pba::new(12), 2)],
            "read amplification: 3 extents instead of 1"
        );
    }

    #[test]
    fn unwritten_blocks_read_from_home() {
        let s = store();
        let ex = extents_of(&s, Lba::new(42), 3);
        assert_eq!(ex, vec![(Pba::new(42), 3)]);
    }

    #[test]
    fn preallocated_run_is_contiguous() {
        let mut s = store();
        // Pin homes 0..3 by sharing them.
        for i in 0..3 {
            s.write_unique(Lba::new(i), fp(i), None).expect("w");
        }
        for i in 0..3 {
            s.dedup_to(Lba::new(100 + i), Pba::new(i)).expect("d");
        }
        let base = s.alloc_overflow(3).expect("prealloc");
        for i in 0..3u64 {
            let p = s
                .write_unique(Lba::new(i), fp(50 + i), Some(Pba::new(base.raw() + i)))
                .expect("w run");
            assert_eq!(p.raw(), base.raw() + i);
        }
        // The redirected run reads back as ONE extent: no fragmentation.
        let ex = extents_of(&s, Lba::new(0), 3);
        assert_eq!(ex.len(), 1);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn nvram_tracks_redirection_lifecycle() {
        let mut s = store();
        s.write_unique(Lba::new(1), fp(1), None).expect("w");
        s.dedup_to(Lba::new(2), Pba::new(1)).expect("d");
        assert_eq!(s.redirected_entries(), 1);
        // lba2 is overwritten with unique data at its own home: the
        // redirected entry disappears.
        s.write_unique(Lba::new(2), fp(2), None).expect("w2");
        assert_eq!(s.redirected_entries(), 0);
        assert_eq!(s.nvram_peak_bytes(), 20);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn journal_recovers_redirections() {
        let mut s = store();
        s.write_unique(Lba::new(1), fp(1), None).expect("w");
        s.dedup_to(Lba::new(2), Pba::new(1)).expect("dedup");
        s.dedup_to(Lba::new(3), Pba::new(1)).expect("dedup");
        s.verify_journal_recovery()
            .expect("recovery matches live state");
        // Un-redirect lba2 by overwriting it in place at home.
        s.write_unique(Lba::new(2), fp(9), None).expect("w2");
        s.verify_journal_recovery()
            .expect("clear entries replay too");
        assert_eq!(s.journal().entries(), 3, "2 remaps + 1 clear");
    }

    #[test]
    fn fan_in_histogram_tracks_sharing() {
        let mut s = store();
        s.write_unique(Lba::new(1), fp(1), None).expect("w");
        assert_eq!(s.fan_in()[0], 1);
        assert_eq!(s.shared_blocks(), 0);
        for i in 0..3 {
            s.dedup_to(Lba::new(10 + i), Pba::new(1)).expect("d");
        }
        // pba1 has refcount 4 -> bucket 2.
        assert_eq!(s.fan_in()[2], 1);
        assert_eq!(s.shared_blocks(), 1);
        let st = s.introspect();
        assert_eq!(st.mapped, 4);
        assert_eq!(st.unique_blocks, 0);
        assert_eq!(st.shared_blocks, 1);
        assert_eq!(st.redirected, 3);
        assert_eq!(st.nvram_entries, 3);
        s.check_invariants().expect("invariants include fan-in");
        // Releasing a reference moves the block down a bucket.
        s.write_unique(Lba::new(10), fp(5), None).expect("w2");
        assert_eq!(s.fan_in()[1], 1, "refcount 3 -> bucket 1");
        s.check_invariants().expect("invariants after release");
    }

    #[test]
    fn lba_outside_the_logical_space_is_refused() {
        let mut s = ChunkStore::new(10, 10).expect("a small store");
        let refused = |lba| PodError::OutOfRange {
            what: "lba".into(),
            value: lba,
            limit: 10,
        };
        // LBA 12's home would be PBA 12 — the third overflow block.
        assert_eq!(s.write_unique(Lba::new(12), fp(1), None), Err(refused(12)));
        assert_eq!(s.write_unique(Lba::new(10), fp(1), None), Err(refused(10)));
        // Pin homes 1..=3 by sharing them, then overwrite each: the
        // three redirected writes take overflow PBAs 10, 11 and 12.
        for i in 1..=3 {
            s.write_unique(Lba::new(i), fp(i), None).expect("w");
            s.dedup_to(Lba::new(i + 3), Pba::new(i)).expect("pin");
        }
        assert_eq!(s.dedup_to(Lba::new(12), Pba::new(1)), Err(refused(12)));
        assert_eq!(s.refcount(Pba::new(1)), 2, "refused before the incref");
        for i in 1..=3 {
            let p = s.write_unique(Lba::new(i), fp(10 + i), None).expect("w2");
            assert_eq!(p, Pba::new(9 + i), "redirected into overflow");
            assert_eq!(s.content_at(p), Some(fp(10 + i)));
        }
        s.check_invariants().expect("invariants after the refusals");

        // Out-of-range blocks read as untouched and allocate nothing.
        let far = 1 << 40;
        assert_eq!(s.lookup(Lba::new(far)), None);
        assert_eq!(extents_of(&s, Lba::new(far), 2), vec![(Pba::new(far), 2)]);
        assert_eq!(s.content_at(Pba::new(20)), None);
        assert_eq!(s.refcount(Pba::new(far)), 0);
        // A physical block beyond the table is not allocated.
        assert_eq!(
            s.dedup_to(Lba::new(7), Pba::new(20)),
            Err(PodError::NotAllocated(20))
        );
        assert_eq!(
            s.write_unique(Lba::new(7), fp(7), Some(Pba::new(20))),
            Err(PodError::NotAllocated(20))
        );
        assert_eq!(s.lookup(Lba::new(7)), None);
        s.check_invariants().expect("invariants at the end");
    }

    #[test]
    fn physical_space_is_bounded_by_the_records_mapping_width() {
        // One block short of 2^32: accepted, and the highest PBA's
        // PBA + 1 round-trips through the record. The directory is
        // zero-filled and untouched but for one entry, and one page is
        // allocated.
        let logical = MAX_PHYSICAL_BLOCKS - 2;
        let mut s = ChunkStore::new(logical, 1).expect("2^32 - 1 physical blocks");
        let top = Lba::new(logical - 1);
        s.write_unique(top, fp(1), None).expect("w");
        s.dedup_to(Lba::new(0), Pba::new(logical - 1)).expect("pin");
        let p = s.write_unique(top, fp(2), None).expect("redirected");
        assert_eq!(p, Pba::new(MAX_PHYSICAL_BLOCKS - 2), "the last PBA");
        assert_eq!(s.lookup(top), Some(p));
        assert_eq!(s.content_at(p), Some(fp(2)));
        s.check_invariants().expect("invariants at the top");

        // 2^32 and past it (the sum included): refused before any
        // allocation.
        let refused = |value| {
            Err(PodError::OutOfRange {
                what: "physical blocks".into(),
                value,
                limit: MAX_PHYSICAL_BLOCKS,
            })
        };
        let new = |l, o| ChunkStore::new(l, o).map(|_| ());
        assert_eq!(new(MAX_PHYSICAL_BLOCKS, 0), refused(MAX_PHYSICAL_BLOCKS));
        assert_eq!(new(logical, 2), refused(MAX_PHYSICAL_BLOCKS));
        assert_eq!(new(u64::MAX, 1), refused(u64::MAX));
    }

    #[test]
    fn overflow_exhaustion_surfaces() {
        let mut s = ChunkStore::new(10, 1).expect("a small store");
        s.write_unique(Lba::new(1), fp(1), None).expect("w");
        s.dedup_to(Lba::new(2), Pba::new(1)).expect("d");
        // Overwrites of lba1 redirect into the 1-block overflow.
        s.write_unique(Lba::new(1), fp(2), None)
            .expect("first overflow");
        // lba1 now exclusively owns the overflow block; another overwrite
        // while home remains pinned reuses... home pinned by lba2 still →
        // redirect again; old overflow block is freed first? Release
        // happens before claim, so the single overflow block recycles.
        s.write_unique(Lba::new(1), fp(3), None)
            .expect("recycled overflow");
        s.check_invariants().expect("invariants");
    }
}
