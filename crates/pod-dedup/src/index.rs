//! The Index table: hot fingerprint entries in memory.
//!
//! "In order to reduce the memory space and processing overhead required
//! to store and query the huge hash index table, POD only stores the hot
//! hash index entries in memory. The Index table ... is organized in an
//! LRU form and maintains the frequency of write requests by using the
//! Count variable" (paper §III-B, Fig. 6).
//!
//! The table is sized in *bytes* because iCache trades its space against
//! the read cache: each entry costs [`INDEX_ENTRY_BYTES`] (fingerprint +
//! PBA + count + LRU links), and [`IndexTable::resize_bytes`] is the hook
//! the Swap Module drives every epoch.
//!
//! Every `Count` change goes through [`IndexTable`]: a query hit, an
//! insert (fresh or over an existing key), an upsert, an eviction
//! victim, a resize spill and a removal each move one entry between the
//! eight log₂ buckets of [`IndexTable::heat`]. The histogram therefore
//! covers the whole table exactly and reading it is a copy, which is
//! what lets every epoch snapshot carry it.

use pod_cache::LruCache;
use pod_types::{log2_bucket8, Fingerprint, Pba, INDEX_ENTRY_BYTES};

/// LRU only (§III-B); kept because the benchmark harness names the `index_policy` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexPolicy {
    /// Least-recently-used (the paper's design).
    #[default]
    Lru,
}

/// One hot index entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Where the content lives.
    pub pba: Pba,
    /// Write-frequency counter ("Count" in paper Fig. 6).
    pub count: u32,
}

/// LRU table of hot fingerprints.
#[derive(Debug)]
pub struct IndexTable {
    cache: LruCache<Fingerprint, IndexEntry>,
    hits: u64,
    misses: u64,
    inserts: u64,
    /// Entries per log₂ `Count` bucket, kept in step with every count
    /// change (see the module docs).
    heat: [u64; 8],
}

/// Flat gauge snapshot of an [`IndexTable`] (see
/// [`pod_types::Introspect`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexState {
    /// Hot entries currently cached.
    pub entries: u64,
    /// Capacity in entries.
    pub capacity: u64,
    /// Cumulative query hits.
    pub hits: u64,
    /// Cumulative query misses.
    pub misses: u64,
    /// Cumulative inserts.
    pub inserts: u64,
    /// Cumulative backing-cache evictions (churn gauge).
    pub evictions: u64,
    /// Log2-bucketed `Count` heat over every entry: bucket i counts
    /// entries with `Count` in [2^i, 2^(i+1)) (bucket 0 is 0–1, bucket 7
    /// is ≥128).
    pub heat: [u64; 8],
}

impl IndexTable {
    /// Index table sized by a byte budget (whole [`INDEX_ENTRY_BYTES`]
    /// entries).
    pub fn with_byte_budget(bytes: u64) -> Self {
        Self {
            cache: LruCache::new((bytes / INDEX_ENTRY_BYTES) as usize),
            hits: 0,
            misses: 0,
            inserts: 0,
            heat: [0; 8],
        }
    }

    /// Query a fingerprint. A hit bumps the entry's `Count` and its
    /// recency and returns the candidate PBA.
    pub fn query(&mut self, fp: &Fingerprint) -> Option<Pba> {
        match self.cache.get_mut(fp) {
            Some(e) => {
                e.count += 1;
                self.hits += 1;
                self.heat[log2_bucket8((e.count - 1).into())] -= 1;
                self.heat[log2_bucket8(e.count.into())] += 1;
                Some(e.pba)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Look up without statistics or promotion (test/diagnostic use).
    pub fn peek(&self, fp: &Fingerprint) -> Option<IndexEntry> {
        self.cache.peek(fp).copied()
    }

    /// Insert (or refresh) the location of a fingerprint with `Count`
    /// reset to 0, as a fresh entry (paper: "initialized to 0").
    /// Returns the evicted victim, which iCache feeds to the ghost index.
    pub fn insert(&mut self, fp: Fingerprint, pba: Pba) -> Option<Fingerprint> {
        self.inserts += 1;
        let entry = IndexEntry { pba, count: 0 };
        let mut replaced = None;
        let victim = self.cache.upsert(fp, entry, |e, new| {
            replaced = Some(e.count);
            *e = new;
        });
        if let Some(count) = replaced {
            self.heat[log2_bucket8(count.into())] -= 1;
        }
        // The new entry is counted even when it bounces off a
        // zero-capacity table: it is then its own victim, uncounted below.
        self.heat[0] += 1;
        self.evicted(victim)
    }

    /// Update an existing entry's location preserving its `Count`, or
    /// insert a fresh entry. Used when a redundant-but-written chunk
    /// (category 2) creates a newer copy of hot content. Returns the
    /// evicted victim on insert.
    pub fn upsert(&mut self, fp: Fingerprint, pba: Pba) -> Option<Fingerprint> {
        // One probe decides between relocating and inserting.
        let entry = IndexEntry { pba, count: 0 };
        let mut fresh = true;
        let victim = self.cache.upsert(fp, entry, |e, new| {
            e.pba = new.pba;
            fresh = false;
        });
        if fresh {
            self.inserts += 1;
            self.heat[0] += 1;
        }
        self.evicted(victim)
    }

    /// Remove a (stale) entry — e.g. the physical block was overwritten
    /// and the fingerprint no longer matches its content.
    pub fn remove(&mut self, fp: &Fingerprint) -> Option<IndexEntry> {
        let removed = self.cache.remove(fp);
        if let Some(e) = removed {
            self.heat[log2_bucket8(e.count.into())] -= 1;
        }
        removed
    }

    /// Take an entry that left the table out of [`IndexTable::heat`],
    /// returning its fingerprint.
    fn evicted(&mut self, victim: Option<(Fingerprint, IndexEntry)>) -> Option<Fingerprint> {
        let (fp, e) = victim?;
        self.heat[log2_bucket8(e.count.into())] -= 1;
        Some(fp)
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.cache.capacity()
    }

    /// Current byte footprint at capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity() as u64 * INDEX_ENTRY_BYTES
    }

    /// Resize to a new byte budget; spilled entries (least recently
    /// used first) are returned so the Swap Module can stage them to the
    /// reserved disk region and register them with the ghost index.
    pub fn resize_bytes(&mut self, bytes: u64) -> Vec<Fingerprint> {
        let spilled = self
            .cache
            .set_capacity((bytes / INDEX_ENTRY_BYTES) as usize);
        spilled
            .into_iter()
            .map(|(fp, e)| {
                self.heat[log2_bucket8(e.count.into())] -= 1;
                fp
            })
            .collect()
    }

    /// `(hits, misses, inserts)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.inserts)
    }

    /// Cumulative evictions from the backing cache (insert pressure
    /// plus Swap-Module shrinks).
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Log2-bucketed `Count`-heat histogram over every entry, kept
    /// incrementally (see the module docs): reading it is a copy.
    pub fn heat(&self) -> [u64; 8] {
        self.heat
    }
}

impl pod_types::Introspect for IndexTable {
    type State = IndexState;

    fn introspect(&self) -> IndexState {
        IndexState {
            entries: self.len() as u64,
            capacity: self.capacity() as u64,
            hits: self.hits,
            misses: self.misses,
            inserts: self.inserts,
            evictions: self.evictions(),
            heat: self.heat(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(id: u64) -> Fingerprint {
        Fingerprint::from_content_id(id)
    }

    /// A table with room for `entries` entries.
    fn table(entries: u64) -> IndexTable {
        IndexTable::with_byte_budget(entries * INDEX_ENTRY_BYTES)
    }

    #[test]
    fn query_hit_returns_pba_and_bumps_count() {
        let mut t = table(4);
        t.insert(fp(1), Pba::new(100));
        assert_eq!(t.peek(&fp(1)).expect("present").count, 0);
        assert_eq!(t.query(&fp(1)), Some(Pba::new(100)));
        assert_eq!(t.peek(&fp(1)).expect("present").count, 1);
        t.query(&fp(1));
        assert_eq!(t.peek(&fp(1)).expect("present").count, 2);
    }

    #[test]
    fn query_miss_counts() {
        let mut t = table(4);
        assert_eq!(t.query(&fp(9)), None);
        assert_eq!(t.stats(), (0, 1, 0));
    }

    #[test]
    fn lru_eviction_returns_victim() {
        let mut t = table(2);
        assert_eq!(t.insert(fp(1), Pba::new(1)), None);
        assert_eq!(t.insert(fp(2), Pba::new(2)), None);
        t.query(&fp(1)); // 2 becomes LRU
        let victim = t.insert(fp(3), Pba::new(3));
        assert_eq!(victim, Some(fp(2)));
    }

    #[test]
    fn byte_budget_sizing() {
        let t = IndexTable::with_byte_budget(10 * INDEX_ENTRY_BYTES + 7);
        assert_eq!(t.capacity(), 10);
        assert_eq!(t.capacity_bytes(), 10 * INDEX_ENTRY_BYTES);
    }

    #[test]
    fn resize_spills_lru_first() {
        let mut t = table(4);
        for i in 0..4 {
            t.insert(fp(i), Pba::new(i));
        }
        t.query(&fp(0));
        let spilled = t.resize_bytes(2 * INDEX_ENTRY_BYTES);
        assert_eq!(spilled, vec![fp(1), fp(2)]);
        assert_eq!(t.len(), 2);
        assert!(t.peek(&fp(0)).is_some());
        assert!(t.peek(&fp(3)).is_some());
    }

    #[test]
    fn zero_budget_bounces_everything() {
        let mut t = table(0);
        assert_eq!(t.capacity(), 0);
        t.insert(fp(1), Pba::new(1));
        assert_eq!(t.query(&fp(1)), None);
    }

    #[test]
    fn remove_stale_entry() {
        let mut t = table(4);
        t.insert(fp(1), Pba::new(1));
        assert!(t.remove(&fp(1)).is_some());
        assert_eq!(t.query(&fp(1)), None);
        assert!(t.remove(&fp(1)).is_none());
    }

    #[test]
    fn reinsert_refreshes_pba_and_resets_count() {
        let mut t = table(4);
        t.insert(fp(1), Pba::new(1));
        t.query(&fp(1));
        t.insert(fp(1), Pba::new(2));
        let e = t.peek(&fp(1)).expect("present");
        assert_eq!(e.pba, Pba::new(2));
        assert_eq!(e.count, 0);
    }

    #[test]
    fn heat_histogram_buckets_counts() {
        use pod_types::Introspect;
        let mut t = table(8);
        t.insert(fp(1), Pba::new(1)); // count 0 -> bucket 0
        t.insert(fp(2), Pba::new(2));
        for _ in 0..3 {
            t.query(&fp(2)); // count 3 -> bucket 1
        }
        t.insert(fp(3), Pba::new(3));
        for _ in 0..150 {
            t.query(&fp(3)); // count 150 -> bucket 7
        }
        let st = t.introspect();
        assert_eq!(st.entries, 3);
        assert_eq!(st.heat[0], 1);
        assert_eq!(st.heat[1], 1);
        assert_eq!(st.heat[7], 1);
        assert_eq!(st.heat.iter().sum::<u64>(), 3);
        assert_eq!(st.hits, 153);
        // Eviction churn reaches the gauge.
        let mut small = table(1);
        small.insert(fp(1), Pba::new(1));
        small.insert(fp(2), Pba::new(2));
        assert_eq!(small.introspect().evictions, 1);
        assert_eq!(small.introspect().heat.iter().sum::<u64>(), 1);
    }
}
