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

use crate::journal::MapJournal;
use crate::table::ShardedMap;
use pod_disk::{AllocState, BlockStore, NvramModel};
use pod_types::{log2_bucket8, Fingerprint, Introspect, Lba, Pba, PodError, PodResult};

/// Mapping + refcount + content state of the deduplicated block space.
#[derive(Debug)]
pub struct ChunkStore {
    /// Size of the home (identity) region in blocks = logical space.
    logical_blocks: u64,
    /// Extent allocator for the overflow region. PBAs returned are
    /// offset by `logical_blocks`.
    overflow: BlockStore,
    /// Current physical location of each written logical block.
    mapping: ShardedMap<u64, u64>,
    /// Reference count per live physical block.
    refs: ShardedMap<u64, u32>,
    /// Content currently stored in each live physical block.
    content: ShardedMap<u64, Fingerprint>,
    /// NVRAM accounting for redirected (deduplicated) map entries.
    nvram: NvramModel,
    /// Count of mapping entries whose PBA differs from home.
    redirected: u64,
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
/// [`pod_types::Introspect`]).
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
    /// NVRAM Map-table entries.
    pub nvram_entries: u64,
    /// NVRAM Map-table bytes.
    pub nvram_bytes: u64,
    /// Journal records pending checkpoint.
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
    pub fn new(logical_blocks: u64, overflow_blocks: u64) -> Self {
        Self::with_capacity(logical_blocks, overflow_blocks, 0)
    }

    /// Like [`ChunkStore::new`], but with the block-state tables
    /// pre-sized for `expected_blocks` live entries (from trace
    /// statistics), so steady-state replay never rehashes. 0 = grow on
    /// demand.
    pub fn with_capacity(
        logical_blocks: u64,
        overflow_blocks: u64,
        expected_blocks: usize,
    ) -> Self {
        Self {
            logical_blocks,
            overflow: BlockStore::new(overflow_blocks),
            mapping: sized_table(expected_blocks),
            refs: sized_table(expected_blocks),
            content: sized_table(expected_blocks),
            nvram: NvramModel::new(),
            redirected: 0,
            journal: MapJournal::new(),
            fan_in: [0; 8],
        }
    }

    /// The persistent Map-table journal.
    pub fn journal(&self) -> &MapJournal {
        &self.journal
    }

    /// Compact the journal to the live redirected set, returning bytes
    /// saved. (A deployment would do this when the NVRAM region fills.)
    pub fn checkpoint_journal(&mut self) -> usize {
        let live: std::collections::HashMap<u64, u64> =
            self.mapping.iter().filter(|&(l, p)| l != p).collect();
        self.journal.checkpoint(&live)
    }

    /// Verify that replaying the journal reproduces exactly the live
    /// redirected mapping — the crash-recovery correctness property.
    pub fn verify_journal_recovery(&self) -> PodResult<()> {
        let recovered = self.journal.replay()?;
        let live: std::collections::HashMap<u64, u64> =
            self.mapping.iter().filter(|&(l, p)| l != p).collect();
        if recovered != live {
            return Err(PodError::Inconsistency(format!(
                "journal recovers {} redirections, live state has {}",
                recovered.len(),
                live.len()
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
        self.mapping.get(&lba.raw()).map(Pba::new)
    }

    /// Content stored at a physical block, if live.
    pub fn content_at(&self, pba: Pba) -> Option<Fingerprint> {
        self.content.get(&pba.raw())
    }

    /// Every live physical block with its stored content, in the
    /// table's (deterministic) internal order. Crash recovery rebuilds
    /// the volatile fingerprint index from this — the Map table and
    /// the content it references are the persistent truth.
    pub fn contents(&self) -> impl Iterator<Item = (Pba, Fingerprint)> + '_ {
        self.content.iter().map(|(p, fp)| (Pba::new(p), fp))
    }

    /// Deliberately corrupt the content stored at `pba` (fault
    /// injection's silent-corruption fixture). Returns the corrupted
    /// fingerprint, or `None` when the block is not live. The mapping
    /// and refcounts stay intact — exactly the failure a differential
    /// read-back oracle exists to catch.
    pub fn corrupt_content(&mut self, pba: Pba) -> Option<Fingerprint> {
        let old = self.content.get(&pba.raw())?;
        let bad = Fingerprint::from_content_id(old.prefix_u64() ^ 0xDEAD_BEEF_DEAD_BEEF);
        self.content.insert(pba.raw(), bad);
        Some(bad)
    }

    /// Reference count of a physical block (0 = free).
    pub fn refcount(&self, pba: Pba) -> u32 {
        self.refs.get(&pba.raw()).unwrap_or(0)
    }

    /// Whether `pba` is referenced by more than one logical block.
    pub fn is_shared(&self, pba: Pba) -> bool {
        self.refcount(pba) > 1
    }

    /// Live unique physical blocks — the capacity-used metric (Fig. 10).
    pub fn used_blocks(&self) -> u64 {
        self.refs.len() as u64
    }

    /// NVRAM (Map table) accounting.
    pub fn nvram(&self) -> &NvramModel {
        &self.nvram
    }

    /// Count of redirected map entries.
    pub fn redirected_entries(&self) -> u64 {
        self.redirected
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
    pub fn write_unique(
        &mut self,
        lba: Lba,
        fp: Fingerprint,
        preallocated: Option<Pba>,
    ) -> PodResult<Pba> {
        let home = lba.raw();
        let current = self.mapping.get(&home);
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
            let home_refs = self.refs.get(&home).unwrap_or(0);
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
            *self.refs.get_or_insert(target, 0) += 1;
            self.note_ref_change(0, 1);
        }
        debug_assert_eq!(
            self.refs.get(&target).unwrap_or(0),
            1,
            "a freshly written block must be exclusively referenced"
        );
        self.content.insert(target, fp);
        self.mapping.insert(home, target);
        self.update_redirection(home, current, target);
        Ok(Pba::new(target))
    }

    /// Deduplicate: point `lba` at the existing copy at `target` without
    /// any data write. Fails if `target` is not live.
    pub fn dedup_to(&mut self, lba: Lba, target: Pba) -> PodResult<()> {
        let t = target.raw();
        if !self.refs.contains_key(&t) {
            return Err(PodError::NotAllocated(t));
        }
        let home = lba.raw();
        let current = self.mapping.get(&home);
        if current == Some(t) {
            // Same-location rewrite of identical content: nothing changes.
            return Ok(());
        }
        if let Some(old) = current {
            self.release(old)?;
        }
        let slot = self.refs.get_or_insert(t, 0);
        let was = *slot;
        *slot += 1;
        self.note_ref_change(was, was + 1);
        self.mapping.insert(home, t);
        self.update_redirection(home, current, t);
        Ok(())
    }

    /// Pre-allocate a contiguous overflow extent of `n` blocks (for a
    /// redirected run). The caller then feeds consecutive PBAs into
    /// [`ChunkStore::write_unique`] as `preallocated`.
    pub fn alloc_overflow(&mut self, n: u32) -> PodResult<Pba> {
        let base = self.overflow.alloc_extent(n)?;
        // BlockStore tracks its own refcount 1; ChunkStore's refs start at
        // 0 and are claimed by write_unique. Record liveness lazily.
        Ok(Pba::new(self.logical_blocks + base.raw()))
    }

    /// Physical extents backing a logical range, merged over contiguous
    /// physical runs — the read path's fragmentation signal. Unwritten
    /// blocks read from their home location.
    pub fn read_extents(&self, lba: Lba, nblocks: u32) -> Vec<(Pba, u32)> {
        let mut out: Vec<(Pba, u32)> = Vec::new();
        for i in 0..nblocks as u64 {
            let l = lba.raw() + i;
            let p = self.mapping.get(&l).unwrap_or(l);
            match out.last_mut() {
                Some((start, len)) if start.raw() + *len as u64 == p => *len += 1,
                _ => out.push((Pba::new(p), 1)),
            }
        }
        out
    }

    /// Whether the candidate PBAs form one ascending contiguous run —
    /// Select-Dedupe's "already sequentially stored on disks" test.
    pub fn is_sequential(pbas: &[Pba]) -> bool {
        pbas.windows(2).all(|w| w[0].raw() + 1 == w[1].raw())
    }

    /// Verify internal invariants (used by property tests): the sum of
    /// per-PBA refcounts equals the mapping size, every mapped PBA is
    /// live, and redirected-count/NVRAM agree.
    pub fn check_invariants(&self) -> PodResult<()> {
        let total_refs: u64 = self.refs.iter().map(|(_, c)| c as u64).sum();
        if total_refs != self.mapping.len() as u64 {
            return Err(PodError::Inconsistency(format!(
                "refcount sum {total_refs} != mapping size {}",
                self.mapping.len()
            )));
        }
        for (lba, pba) in self.mapping.iter() {
            if !self.refs.contains_key(&pba) {
                return Err(PodError::Inconsistency(format!(
                    "lba {lba} maps to dead pba {pba}"
                )));
            }
        }
        let redirected = self.mapping.iter().filter(|&(l, p)| l != p).count() as u64;
        if redirected != self.redirected {
            return Err(PodError::Inconsistency(format!(
                "redirected count {} != recomputed {redirected}",
                self.redirected
            )));
        }
        if self.nvram.entries() != self.redirected {
            return Err(PodError::Inconsistency(format!(
                "nvram entries {} != redirected {}",
                self.nvram.entries(),
                self.redirected
            )));
        }
        let mut fan_in = [0u64; 8];
        for (_, c) in self.refs.iter() {
            fan_in[log2_bucket8(c as u64)] += 1;
        }
        if fan_in != self.fan_in {
            return Err(PodError::Inconsistency(format!(
                "incremental fan-in {:?} != recounted {fan_in:?}",
                self.fan_in
            )));
        }
        Ok(())
    }

    fn release(&mut self, pba: u64) -> PodResult<()> {
        match self.refs.get_mut(&pba) {
            Some(c) if *c > 1 => {
                let was = *c;
                *c -= 1;
                self.note_ref_change(was, was - 1);
                Ok(())
            }
            Some(_) => {
                self.refs.remove(&pba);
                self.content.remove(&pba);
                self.note_ref_change(1, 0);
                if pba >= self.logical_blocks {
                    // Return the overflow block to its allocator.
                    self.overflow.decref(Pba::new(pba - self.logical_blocks))?;
                }
                Ok(())
            }
            None => Err(PodError::NotAllocated(pba)),
        }
    }

    /// Move a block between fan-in buckets as its refcount changes (0
    /// means "not live" on either side).
    fn note_ref_change(&mut self, old: u32, new: u32) {
        if old > 0 {
            self.fan_in[log2_bucket8(old as u64)] -= 1;
        }
        if new > 0 {
            self.fan_in[log2_bucket8(new as u64)] += 1;
        }
    }

    fn update_redirection(&mut self, home: u64, old: Option<u64>, new: u64) {
        let was_redirected = matches!(old, Some(p) if p != home);
        let is_redirected = new != home;
        match (was_redirected, is_redirected) {
            (false, true) => {
                self.redirected += 1;
                self.nvram.add_entries(1);
            }
            (true, false) => {
                self.redirected -= 1;
                self.nvram.remove_entries(1);
            }
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
}

impl Introspect for ChunkStore {
    type State = MapState;

    fn introspect(&self) -> MapState {
        MapState {
            mapped: self.mapping.len() as u64,
            unique_blocks: self.fan_in[0],
            shared_blocks: self.shared_blocks(),
            redirected: self.redirected,
            nvram_entries: self.nvram.entries(),
            nvram_bytes: self.nvram.bytes(),
            journal_entries: self.journal.entries() as u64,
            fan_in: self.fan_in,
            overflow: self.overflow.introspect(),
        }
    }
}

/// A block-state table, pre-sized when an expected entry count is known.
fn sized_table<V: Copy>(expected: usize) -> ShardedMap<u64, V> {
    if expected > 0 {
        ShardedMap::with_capacity(expected)
    } else {
        ShardedMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(id: u64) -> Fingerprint {
        Fingerprint::from_content_id(id)
    }

    fn store() -> ChunkStore {
        ChunkStore::new(1_000, 1_000)
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
        assert!(s.is_shared(Pba::new(1)));
        assert_eq!(s.used_blocks(), 1, "one physical copy");
        assert_eq!(s.redirected_entries(), 1);
        assert_eq!(s.nvram().entries(), 1);
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
        let ex = s.read_extents(Lba::new(10), 4);
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
        let ex = s.read_extents(Lba::new(10), 4);
        assert_eq!(
            ex,
            vec![(Pba::new(10), 1), (Pba::new(500), 1), (Pba::new(12), 2)],
            "read amplification: 3 extents instead of 1"
        );
    }

    #[test]
    fn unwritten_blocks_read_from_home() {
        let s = store();
        let ex = s.read_extents(Lba::new(42), 3);
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
        let ex = s.read_extents(Lba::new(0), 3);
        assert_eq!(ex.len(), 1);
        s.check_invariants().expect("invariants");
    }

    #[test]
    fn is_sequential_checks_runs() {
        assert!(ChunkStore::is_sequential(&[Pba::new(5)]));
        assert!(ChunkStore::is_sequential(&[
            Pba::new(5),
            Pba::new(6),
            Pba::new(7)
        ]));
        assert!(!ChunkStore::is_sequential(&[Pba::new(5), Pba::new(7)]));
        assert!(!ChunkStore::is_sequential(&[Pba::new(7), Pba::new(6)]));
        assert!(ChunkStore::is_sequential(&[]));
    }

    #[test]
    fn nvram_tracks_redirection_lifecycle() {
        let mut s = store();
        s.write_unique(Lba::new(1), fp(1), None).expect("w");
        s.dedup_to(Lba::new(2), Pba::new(1)).expect("d");
        assert_eq!(s.nvram().entries(), 1);
        // lba2 is overwritten with unique data at its own home: the
        // redirected entry disappears.
        s.write_unique(Lba::new(2), fp(2), None).expect("w2");
        assert_eq!(s.nvram().entries(), 0);
        assert_eq!(s.nvram().peak_bytes(), 20);
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
        // Checkpoint compacts to the single live redirection.
        let saved = s.checkpoint_journal();
        assert!(saved > 0);
        assert_eq!(s.journal().entries(), 1);
        s.verify_journal_recovery()
            .expect("post-checkpoint recovery");
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
    fn overflow_exhaustion_surfaces() {
        let mut s = ChunkStore::new(10, 1);
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
