//! Physical block store: extent allocation and capacity accounting.
//!
//! Deduplication makes physical blocks *shared*: many LBAs can map to one
//! PBA (the Map table's m-to-1 relation, paper §III-B). The reference
//! counts that pin a shared block live with the Map table (the dedup
//! crate's `ChunkStore`); `BlockStore` is the allocator underneath it:
//! extent allocation (sequential-first, so fresh writes lay out
//! contiguously like a real allocator) and the used-capacity number that
//! Fig. 10 reports.

use pod_types::{Pba, PodError, PodResult};

/// Extent allocator over a fixed physical space. The live blocks are
/// those below the frontier outside every recycled extent, so no
/// per-block table is kept.
#[derive(Debug)]
pub struct BlockStore {
    capacity: u64,
    /// Bump pointer for never-allocated space.
    frontier: u64,
    /// Recycled extents (start, len), kept sorted by start for merge.
    free_extents: Vec<(u64, u64)>,
}

/// Flat gauge snapshot of a [`BlockStore`] (see
/// [`BlockStore::introspect`]): how fragmented the recycled free space
/// has become relative to the untouched frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocState {
    /// Physical capacity in blocks.
    pub capacity: u64,
    /// Live blocks.
    pub used: u64,
    /// Bump-pointer position: blocks ever allocated.
    pub frontier: u64,
    /// Recycled free extents awaiting reuse.
    pub holes: u64,
    /// Blocks inside those recycled extents.
    pub hole_blocks: u64,
    /// Share of free space that is recycled holes rather than untouched
    /// frontier, in per-mille (0 = pristine, 1000 = all free space is
    /// holes).
    pub frag_per_mille: u64,
}

impl BlockStore {
    /// A store over `capacity` physical blocks.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            frontier: 0,
            free_extents: Vec::new(),
        }
    }

    /// Physical capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Blocks currently live. This is the paper's "storage capacity
    /// used" metric (Fig. 10).
    pub fn used_blocks(&self) -> u64 {
        self.frontier - self.hole_blocks()
    }

    /// Allocate `nblocks` contiguous physical blocks.
    ///
    /// Allocation is contiguous-extent: a fresh write lands sequentially,
    /// which is what makes later reads of *undeduplicated* data cheap and
    /// makes dedup-induced fragmentation measurable by contrast.
    pub fn alloc_extent(&mut self, nblocks: u32) -> PodResult<Pba> {
        let n = nblocks as u64;
        if n == 0 {
            return Err(PodError::InvalidConfig("zero-length allocation".into()));
        }
        // Prefer recycled extents (first fit).
        if let Some(idx) = self.free_extents.iter().position(|&(_, len)| len >= n) {
            let (start, len) = self.free_extents[idx];
            if len == n {
                self.free_extents.remove(idx);
            } else {
                self.free_extents[idx] = (start + n, len - n);
            }
            return Ok(Pba::new(start));
        }
        if self.frontier + n > self.capacity {
            return Err(PodError::NoSpace);
        }
        let start = self.frontier;
        self.frontier += n;
        Ok(Pba::new(start))
    }

    /// Free a live block, returning it to the recycled extents.
    pub fn free(&mut self, pba: Pba) -> PodResult<()> {
        let raw = pba.raw();
        let pos = self.free_extents.partition_point(|&(s, _)| s <= raw);
        let recycled = pos.checked_sub(1).is_some_and(|i| {
            let (s, len) = self.free_extents[i];
            raw < s + len
        });
        if raw >= self.frontier || recycled {
            return Err(PodError::NotAllocated(raw));
        }
        self.release_extent(raw, 1);
        Ok(())
    }

    /// Bump-pointer position: blocks ever handed out (recycled or not).
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// Number of recycled free extents currently awaiting reuse.
    pub fn free_extent_count(&self) -> u64 {
        self.free_extents.len() as u64
    }

    /// Total blocks sitting in recycled free extents. O(holes), and the
    /// neighbour-merging in [`BlockStore::free`] keeps the extent list
    /// short, so this is cheap enough for per-epoch sampling.
    pub fn hole_blocks(&self) -> u64 {
        self.free_extents.iter().map(|&(_, len)| len).sum()
    }

    fn release_extent(&mut self, start: u64, len: u64) {
        // Insert sorted; merge with neighbours.
        let pos = self.free_extents.partition_point(|&(s, _)| s < start);
        self.free_extents.insert(pos, (start, len));
        // Merge right then left.
        if pos + 1 < self.free_extents.len() {
            let (s, l) = self.free_extents[pos];
            let (ns, nl) = self.free_extents[pos + 1];
            if s + l == ns {
                self.free_extents[pos] = (s, l + nl);
                self.free_extents.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (ps, pl) = self.free_extents[pos - 1];
            let (s, l) = self.free_extents[pos];
            if ps + pl == s {
                self.free_extents[pos - 1] = (ps, pl + l);
                self.free_extents.remove(pos);
            }
        }
    }

    /// Gauge snapshot: cheap, allocation-free, `Copy`.
    pub fn introspect(&self) -> AllocState {
        let hole_blocks = self.hole_blocks();
        let virgin = self.capacity - self.frontier;
        let free = hole_blocks + virgin;
        AllocState {
            capacity: self.capacity,
            used: self.frontier - hole_blocks,
            frontier: self.frontier,
            holes: self.free_extent_count(),
            hole_blocks,
            frag_per_mille: (hole_blocks * 1000).checked_div(free).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_sequential() {
        let mut s = BlockStore::new(100);
        let a = s.alloc_extent(4).expect("alloc a");
        let b = s.alloc_extent(4).expect("alloc b");
        assert_eq!(a, Pba::new(0));
        assert_eq!(b, Pba::new(4));
        assert_eq!(s.used_blocks(), 8);
    }

    #[test]
    fn refcounting_lifecycle() {
        // One live reference per block: allocation takes it, `free`
        // drops it, and a second free finds nothing to drop.
        let mut s = BlockStore::new(100);
        let p = s.alloc_extent(1).expect("alloc");
        assert_eq!(s.used_blocks(), 1);
        s.free(p).expect("free");
        assert_eq!(s.used_blocks(), 0);
        assert_eq!(s.free(p), Err(PodError::NotAllocated(0)));
        // Inside a merged recycled extent, not only at its start.
        let q = s.alloc_extent(4).expect("alloc");
        s.free(q.add(1)).expect("free");
        s.free(q.add(2)).expect("free");
        let again = s.free(q.add(2));
        assert_eq!(again, Err(PodError::NotAllocated(q.add(2).raw())));
        assert_eq!(s.used_blocks(), 2);
        s.free(q.add(3)).expect("live after the extent");
    }

    #[test]
    fn decref_free_block_errors() {
        let mut s = BlockStore::new(100);
        assert_eq!(s.free(Pba::new(5)), Err(PodError::NotAllocated(5)));
    }

    #[test]
    fn freed_extents_are_recycled() {
        let mut s = BlockStore::new(10);
        let a = s.alloc_extent(4).expect("a");
        let _b = s.alloc_extent(4).expect("b");
        for i in 0..4 {
            s.free(a.add(i)).expect("free a");
        }
        // 4 recycled + 2 frontier blocks remain; an 8-block alloc fails,
        // but a 4-block alloc reuses the freed extent.
        assert!(s.alloc_extent(8).is_err());
        let c = s.alloc_extent(4).expect("c reuses a");
        assert_eq!(c, Pba::new(0));
    }

    #[test]
    fn adjacent_frees_merge() {
        let mut s = BlockStore::new(10);
        let a = s.alloc_extent(2).expect("a");
        let b = s.alloc_extent(2).expect("b");
        s.free(a).expect("");
        s.free(a.add(1)).expect("");
        s.free(b).expect("");
        s.free(b.add(1)).expect("");
        // All four blocks merge into one extent; a 4-block alloc fits.
        let c = s.alloc_extent(4).expect("merged");
        assert_eq!(c, Pba::new(0));
    }

    #[test]
    fn no_space() {
        let mut s = BlockStore::new(3);
        assert!(s.alloc_extent(4).is_err());
        s.alloc_extent(3).expect("fits");
        assert_eq!(s.alloc_extent(1), Err(PodError::NoSpace));
    }

    #[test]
    fn zero_alloc_rejected() {
        let mut s = BlockStore::new(3);
        assert!(s.alloc_extent(0).is_err());
    }

    #[test]
    fn introspect_reports_fragmentation() {
        let mut s = BlockStore::new(10);
        assert_eq!(
            s.introspect(),
            AllocState {
                capacity: 10,
                ..Default::default()
            }
        );
        let a = s.alloc_extent(4).expect("a");
        let _b = s.alloc_extent(2).expect("b");
        s.free(a).expect("");
        s.free(a.add(2)).expect("");
        // Two single-block holes, four virgin blocks past the frontier.
        let st = s.introspect();
        assert_eq!(st.used, 4);
        assert_eq!(st.frontier, 6);
        assert_eq!(st.holes, 2);
        assert_eq!(st.hole_blocks, 2);
        assert_eq!(st.frag_per_mille, 2 * 1000 / 6);
        // Fully consumed store: no free space, fragmentation reads 0.
        let mut full = BlockStore::new(2);
        full.alloc_extent(2).expect("");
        assert_eq!(full.introspect().frag_per_mille, 0);
    }

    #[test]
    fn partial_reuse_of_larger_extent() {
        let mut s = BlockStore::new(10);
        let a = s.alloc_extent(6).expect("a");
        for i in 0..6 {
            s.free(a.add(i)).expect("");
        }
        let b = s.alloc_extent(2).expect("b");
        assert_eq!(b, Pba::new(0));
        let c = s.alloc_extent(4).expect("c");
        assert_eq!(c, Pba::new(2), "remainder of the recycled extent");
    }
}
