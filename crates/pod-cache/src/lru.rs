//! O(1) LRU cache: a dense slab of nodes linked by `u32`, indexed by
//! the crate's open-addressing table of one `u64` slot word per entry
//! (`slots.rs`).
//!
//! Safe code throughout. Keys live once, in the slab; the list is
//! threaded through it by index, and a removal moves the last node into
//! the hole, so the slab stays dense and needs no free list.
//!
//! The index table and read cache of POD are both LRU-managed (paper
//! §III-B: "The Index table in our POD design is organized in an LRU
//! form"); POD itself runs them as [`GhostedLru`](crate::GhostedLru)s,
//! this list plus a ghost side. [`LruCache`] is the plain list, and its
//! [`LruCache::set_capacity`] returns the entries a shrink spills.

use crate::slots::{slot_word, tag_of, SlotTable};
use std::hash::Hash;

const NIL: u32 = u32::MAX;

/// Entry bound: a node index plus one fits the low half of a slot
/// word, and at load ≤ ¾ the table of a full slab has at most 2^32
/// slots, so a home slot still fits the 32-bit tag.
const MAX_NODES: usize = 1 << 31;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// A least-recently-used cache with a fixed (but online-adjustable)
/// entry capacity.
///
/// ```
/// use pod_cache::LruCache;
///
/// let mut cache = LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a");                       // promote "a"
/// let evicted = cache.insert("c", 3);    // "b" is now the LRU victim
/// assert_eq!(evicted, Some(("b", 2)));
///
/// // An online shrink returns what it spills, least recent first.
/// let spilled = cache.set_capacity(1);
/// assert_eq!(spilled.len(), 1);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    /// Slot words of every node in `slab`.
    table: SlotTable,
    /// Every live node and nothing else, in no particular order.
    slab: Vec<Node<K, V>>,
    /// Most recently used node.
    head: u32,
    /// Least recently used node.
    tail: u32,
    capacity: usize,
    evictions: u64,
}

/// Flat gauge snapshot of an [`LruCache`] (see
/// [`LruCache::introspect`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruState {
    /// Cached entries.
    pub len: u64,
    /// Entry capacity.
    pub capacity: u64,
    /// Cumulative LRU-end evictions (insert pressure plus shrink
    /// spills) — a churn gauge when differenced across epochs.
    pub evictions: u64,
}

impl<K: Eq + Hash, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries. A capacity of
    /// zero is legal: every insert immediately self-evicts, which is how
    /// a fully-starved partition behaves in iCache. Costs the same for
    /// any capacity: storage grows with the entries actually held.
    pub fn new(capacity: usize) -> Self {
        Self {
            table: SlotTable::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// `true` if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Current capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is cached. Does not touch recency.
    pub fn contains(&self, key: &K) -> bool {
        self.find(tag_of(key), key).is_some()
    }

    /// Get and promote to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// Get mutably and promote.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (_, idx) = self.find(tag_of(key), key)?;
        self.promote(idx);
        Some(&mut self.slab[idx as usize].value)
    }

    /// Look up without promoting.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let (_, idx) = self.find(tag_of(key), key)?;
        Some(&self.slab[idx as usize].value)
    }

    /// Insert (or update) `key`, promoting it. Returns the entry evicted
    /// to make room, if any. An update never evicts.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.upsert(key, value, |old, new| *old = new)
    }

    /// [`LruCache::insert`] with the update spelled by the caller, in
    /// one probe: if `key` is cached, `update(&mut cached, value)` runs
    /// and the entry is promoted; otherwise `value` is inserted exactly
    /// as `insert` would, returning the entry evicted to make room.
    pub fn upsert(&mut self, key: K, value: V, update: impl FnOnce(&mut V, V)) -> Option<(K, V)> {
        let tag = tag_of(&key);
        if let Some((_, idx)) = self.find(tag, &key) {
            update(&mut self.slab[idx as usize].value, value);
            self.promote(idx);
            return None;
        }
        if self.capacity == 0 {
            // Degenerate partition: nothing can be cached.
            return Some((key, value));
        }
        if self.slab.len() >= self.capacity {
            // Full: the LRU node is reused in place — its slot word is
            // swapped for the new key's and it moves to the front.
            let idx = self.tail;
            self.table.vacate(self.slot_of(idx));
            self.table.place(slot_word(tag, idx));
            let node = &mut self.slab[idx as usize];
            let victim = (
                std::mem::replace(&mut node.key, key),
                std::mem::replace(&mut node.value, value),
            );
            self.promote(idx);
            self.evictions += 1;
            return Some(victim);
        }
        assert!(self.slab.len() < MAX_NODES, "LruCache entry bound");
        self.table.reserve(self.slab.len() + 1);
        let idx = self.slab.len() as u32;
        self.slab.push(Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.table.place(slot_word(tag, idx));
        self.attach_front(idx);
        None
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (slot, idx) = self.find(tag_of(key), key)?;
        Some(self.unlink(slot, idx).value)
    }

    /// Evict and return the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let node = self.unlink(self.slot_of(self.tail), self.tail);
        self.evictions += 1;
        Some((node.key, node.value))
    }

    /// Cumulative count of LRU-end evictions ([`LruCache::pop_lru`],
    /// whether from insert pressure or a capacity shrink).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Resize online. Shrinking evicts from the LRU end; the spilled
    /// entries are returned in eviction (LRU-first) order so the caller
    /// can stage them to backing storage.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<(K, V)> {
        self.capacity = capacity;
        let mut spilled = Vec::new();
        while self.slab.len() > self.capacity {
            spilled.extend(self.pop_lru());
        }
        spilled
    }

    /// Iterate entries from most- to least-recently-used.
    pub fn iter(&self) -> LruIter<'_, K, V> {
        LruIter {
            cache: self,
            cursor: self.head,
        }
    }

    /// Drop every entry, keeping capacity (and the table's size).
    pub fn clear(&mut self) {
        self.table.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Slot and node of `key`.
    #[inline]
    fn find(&self, tag: u32, key: &K) -> Option<(usize, u32)> {
        self.table
            .probe(tag, |_, idx| self.slab[idx as usize].key == *key)
    }

    /// Slot of the live node `idx`.
    fn slot_of(&self, idx: u32) -> usize {
        let tag = tag_of(&self.slab[idx as usize].key);
        self.table.slot_of(slot_word(tag, idx))
    }

    /// Take node `idx` (indexed at `slot`) out of the table, the list
    /// and the slab. The slab's last node fills the hole, so its slot
    /// word and its neighbours' links are repointed at `idx`.
    fn unlink(&mut self, slot: usize, idx: u32) -> Node<K, V> {
        self.table.vacate(slot);
        self.detach(idx);
        let last = (self.slab.len() - 1) as u32;
        if idx != last {
            let tag = tag_of(&self.slab[last as usize].key);
            self.table.renumber(tag, last, idx);
            let Node { prev, next, .. } = self.slab[last as usize];
            self.set_next(prev, idx);
            self.set_prev(next, idx);
        }
        self.slab.swap_remove(idx as usize)
    }

    fn promote(&mut self, idx: u32) {
        if self.head != idx {
            self.detach(idx);
            self.attach_front(idx);
        }
    }

    /// Unhook `idx` from the list; its own links are left stale.
    fn detach(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.slab[idx as usize];
        self.set_next(prev, next);
        self.set_prev(next, prev);
    }

    fn attach_front(&mut self, idx: u32) {
        let old_head = self.head;
        let n = &mut self.slab[idx as usize];
        n.prev = NIL;
        n.next = old_head;
        self.set_prev(old_head, idx);
        self.head = idx;
    }

    /// Make `to` what follows `node` — or the head, if `node` is `NIL`.
    fn set_next(&mut self, node: u32, to: u32) {
        match node {
            NIL => self.head = to,
            n => self.slab[n as usize].next = to,
        }
    }

    /// Make `to` what precedes `node` — or the tail, if `node` is `NIL`.
    fn set_prev(&mut self, node: u32, to: u32) {
        match node {
            NIL => self.tail = to,
            n => self.slab[n as usize].prev = to,
        }
    }

    /// Gauge snapshot: cheap, allocation-free, `Copy`.
    pub fn introspect(&self) -> LruState {
        LruState {
            len: self.len() as u64,
            capacity: self.capacity as u64,
            evictions: self.evictions,
        }
    }
}

/// Iterator over `(key, value)` in most- to least-recently-used order.
pub struct LruIter<'a, K, V> {
    cache: &'a LruCache<K, V>,
    cursor: u32,
}

impl<'a, K, V> Iterator for LruIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let node = &self.cache.slab[self.cursor as usize];
        self.cursor = node.next;
        Some((&node.key, &node.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.get(&2), Some(&"b"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1); // 2 is now LRU
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
    }

    #[test]
    fn update_promotes_and_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert!(c.insert(1, "a2").is_none()); // update
        assert_eq!(c.len(), 2);
        // 2 is LRU now
        assert_eq!(c.insert(3, "c"), Some((2, "b")));
        assert_eq!(c.peek(&1), Some(&"a2"));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.peek(&1); // should NOT promote 1
        assert_eq!(c.insert(3, "c"), Some((1, "a")));
    }

    #[test]
    fn remove_middle_entry() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.remove(&2), Some("b"));
        assert_eq!(c.len(), 2);
        // List still consistent: iterate MRU -> LRU
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![3, 1]);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.remove(&3), Some("c")); // head (MRU)
        assert_eq!(c.remove(&1), Some("a")); // tail (LRU)
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2]);
    }

    #[test]
    fn pop_lru_order() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.pop_lru(), Some((1, "a")));
        assert_eq!(c.pop_lru(), Some((2, "b")));
        assert_eq!(c.pop_lru(), Some((3, "c")));
        assert_eq!(c.pop_lru(), None);
    }

    #[test]
    fn zero_capacity_bounces_inserts() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(1, "a"), Some((1, "a")));
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn shrink_spills_lru_first() {
        let mut c = LruCache::new(4);
        for i in 1..=4 {
            c.insert(i, i * 10);
        }
        c.get(&1); // recency: 1,4,3,2
        let spilled = c.set_capacity(2);
        assert_eq!(spilled, vec![(2, 20), (3, 30)]);
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![1, 4]);
    }

    #[test]
    fn grow_keeps_entries() {
        let mut c = LruCache::new(1);
        c.insert(1, "a");
        assert!(c.set_capacity(3).is_empty());
        c.insert(2, "b");
        c.insert(3, "c");
        assert_eq!(c.len(), 3);
        assert!(c.contains(&1));
    }

    #[test]
    fn slot_recycling_after_many_evictions() {
        let mut c = LruCache::new(8);
        for i in 0..10_000u32 {
            c.insert(i, i);
        }
        assert_eq!(c.len(), 8);
        // Slab should not have grown past capacity + O(1).
        assert!(c.slab.len() <= 9, "slab len {}", c.slab.len());
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![9999, 9998, 9997, 9996, 9995, 9994, 9993, 9992]);
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.pop_lru(), None);
        c.insert(2, "b");
        assert_eq!(c.get(&2), Some(&"b"));
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut c = LruCache::new(2);
        c.insert(1, 5);
        if let Some(v) = c.get_mut(&1) {
            *v += 1;
        }
        assert_eq!(c.peek(&1), Some(&6));
    }

    #[test]
    fn eviction_counter_tracks_pop_and_shrink() {
        let mut c = LruCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        assert_eq!(c.evictions(), 0);
        c.insert(3, ()); // evicts 1
        assert_eq!(c.evictions(), 1);
        let _ = c.set_capacity(1); // spills one more
        assert_eq!(c.evictions(), 2);
        let state = c.introspect();
        assert_eq!(state.len, 1);
        assert_eq!(state.capacity, 1);
        assert_eq!(state.evictions, 2);
        // A zero-capacity bounce never enters the cache and is not an
        // eviction in the churn sense.
        let _ = c.set_capacity(0);
        let before = c.evictions();
        assert_eq!(c.insert(9, ()), Some((9, ())));
        assert_eq!(c.evictions(), before);
    }

    #[test]
    fn iter_is_mru_to_lru() {
        let mut c = LruCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&2);
        let order: Vec<_> = c.iter().map(|(k, _)| *k).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
