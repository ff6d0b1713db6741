//! Physical block store: allocation, reference counting, capacity
//! accounting.
//!
//! Deduplication makes physical blocks *shared*: many LBAs can map to one
//! PBA (the Map table's m-to-1 relation, paper §III-B), and the Index
//! table's `Count` "is also used to prevent the referenced data blocks
//! from being modified or deleted". `BlockStore` owns that lifecycle:
//! extent allocation (sequential-first, so fresh writes lay out
//! contiguously like a real allocator), per-block reference counts, and
//! the used-capacity number that Fig. 10 reports.

use pod_hash::fnv::FnvBuildHasher;
use pod_types::{Pba, PodError, PodResult};
use std::collections::HashMap;

/// Allocator + refcounts over a fixed physical space.
#[derive(Debug)]
pub struct BlockStore {
    capacity: u64,
    /// Bump pointer for never-allocated space.
    frontier: u64,
    /// Recycled extents (start, len), kept sorted by start for merge.
    free_extents: Vec<(u64, u64)>,
    /// Reference counts of live blocks. Blocks absent from the map are
    /// free (refcount 0).
    refs: HashMap<u64, u32, FnvBuildHasher>,
}

/// Flat gauge snapshot of a [`BlockStore`] (see
/// [`BlockStore::introspect`]): how fragmented the recycled free space
/// has become relative to the untouched frontier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocState {
    /// Physical capacity in blocks.
    pub capacity: u64,
    /// Live blocks (refcount ≥ 1).
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
            refs: HashMap::default(),
        }
    }

    /// Physical capacity in blocks.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Blocks currently live (refcount ≥ 1). This is the paper's
    /// "storage capacity used" metric (Fig. 10).
    pub fn used_blocks(&self) -> u64 {
        self.refs.len() as u64
    }

    /// Allocate `nblocks` contiguous physical blocks with refcount 1.
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
            for b in start..start + n {
                self.refs.insert(b, 1);
            }
            return Ok(Pba::new(start));
        }
        if self.frontier + n > self.capacity {
            return Err(PodError::NoSpace);
        }
        let start = self.frontier;
        self.frontier += n;
        for b in start..start + n {
            self.refs.insert(b, 1);
        }
        Ok(Pba::new(start))
    }

    /// Increment the reference count of a live block (a new LBA now maps
    /// to it).
    pub fn incref(&mut self, pba: Pba) -> PodResult<u32> {
        match self.refs.get_mut(&pba.raw()) {
            Some(c) => {
                *c += 1;
                Ok(*c)
            }
            None => Err(PodError::NotAllocated(pba.raw())),
        }
    }

    /// Decrement the reference count; frees the block when it reaches
    /// zero. Returns the remaining count.
    pub fn decref(&mut self, pba: Pba) -> PodResult<u32> {
        let raw = pba.raw();
        match self.refs.get_mut(&raw) {
            Some(c) if *c > 1 => {
                *c -= 1;
                Ok(*c)
            }
            Some(_) => {
                self.refs.remove(&raw);
                self.release_extent(raw, 1);
                Ok(0)
            }
            None => Err(PodError::NotAllocated(raw)),
        }
    }

    /// Current reference count (0 for free blocks).
    pub fn refcount(&self, pba: Pba) -> u32 {
        self.refs.get(&pba.raw()).copied().unwrap_or(0)
    }

    /// Whether a block is referenced by more than one LBA — such blocks
    /// must not be overwritten in place (data-consistency rule, §III-B).
    pub fn is_shared(&self, pba: Pba) -> bool {
        self.refcount(pba) > 1
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
    /// neighbour-merging in [`BlockStore::decref`] keeps the extent list
    /// short, so this is cheap enough for per-epoch sampling.
    pub fn hole_blocks(&self) -> u64 {
        self.free_extents.iter().map(|&(_, len)| len).sum()
    }

    /// Fraction of physical space consumed (0..=1).
    pub fn utilization(&self) -> f64 {
        if self.capacity == 0 {
            return 0.0;
        }
        self.used_blocks() as f64 / self.capacity as f64
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
            used: self.used_blocks(),
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
        let mut s = BlockStore::new(100);
        let p = s.alloc_extent(1).expect("alloc");
        assert_eq!(s.refcount(p), 1);
        assert!(!s.is_shared(p));
        assert_eq!(s.incref(p).expect("incref"), 2);
        assert!(s.is_shared(p));
        assert_eq!(s.decref(p).expect("decref"), 1);
        assert_eq!(s.decref(p).expect("decref"), 0);
        assert_eq!(s.refcount(p), 0);
        assert_eq!(s.used_blocks(), 0);
    }

    #[test]
    fn decref_free_block_errors() {
        let mut s = BlockStore::new(100);
        assert_eq!(s.decref(Pba::new(5)), Err(PodError::NotAllocated(5)));
        assert_eq!(s.incref(Pba::new(5)), Err(PodError::NotAllocated(5)));
    }

    #[test]
    fn freed_extents_are_recycled() {
        let mut s = BlockStore::new(10);
        let a = s.alloc_extent(4).expect("a");
        let _b = s.alloc_extent(4).expect("b");
        for i in 0..4 {
            s.decref(a.add(i)).expect("free a");
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
        s.decref(a).expect("");
        s.decref(a.add(1)).expect("");
        s.decref(b).expect("");
        s.decref(b.add(1)).expect("");
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
    fn utilization() {
        let mut s = BlockStore::new(10);
        assert_eq!(s.utilization(), 0.0);
        s.alloc_extent(5).expect("");
        assert!((s.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(BlockStore::new(0).utilization(), 0.0);
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
        s.decref(a).expect("");
        s.decref(a.add(2)).expect("");
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
            s.decref(a.add(i)).expect("");
        }
        let b = s.alloc_extent(2).expect("b");
        assert_eq!(b, Pba::new(0));
        let c = s.alloc_extent(4).expect("c");
        assert_eq!(c, Pba::new(2), "remainder of the recycled extent");
    }
}
