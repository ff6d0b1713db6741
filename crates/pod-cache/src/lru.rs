//! O(1) LRU cache: a dense slab of nodes linked by `u32`, indexed by
//! an open-addressing table of one `u64` slot word per entry.
//!
//! Safe code throughout. Keys live once, in the slab; the list is
//! threaded through it by index, and a removal moves the last node into
//! the hole, so the slab stays dense and needs no free list. The index
//! is a power-of-two `Vec<u64>` under linear probing at load ≤ ½: a
//! slot word is `tag << 32 | (node + 1)` (0 = empty), where `tag` is
//! the high half of a one-multiply hash of the key and the home slot is
//! the tag's top bits. A lookup therefore compares tags before it
//! touches a node, and backward-shift deletion and rehash read slot
//! words only — never a key. The hasher is private and unkeyed, so
//! simulation runs are reproducible, and nothing ever iterates the
//! table.
//!
//! The table starts at 16 slots and doubles on demand, so
//! [`LruCache::new`] costs the same whatever the capacity: a ghost as
//! large as the whole DRAM budget pays for what it holds, not for what
//! it may hold.
//!
//! The index table and read cache of POD are both LRU-managed (paper
//! §III-B: "The Index table in our POD design is organized in an LRU
//! form"), and the iCache Swap Module resizes them online — hence
//! [`LruCache::set_capacity`] returns the entries spilled by a shrink so
//! the caller can swap them out to the reserved disk region.

use std::hash::{Hash, Hasher};

const NIL: u32 = u32::MAX;

/// Slots of a fresh table (8 entries before the first doubling).
const MIN_SLOTS: usize = 16;

/// Entry bound: a node index plus one fits the low half of a slot
/// word, and at load ≤ ½ the table of a full slab has at most 2^32
/// slots, so a home slot still fits the 32-bit tag.
const MAX_NODES: usize = 1 << 31;

/// One rotate-xor-multiply per 64-bit word written (a `u64` key or a
/// `Fingerprint`'s prefix is a single multiply). The golden-ratio
/// multiplier pushes every input bit into the high half, which is the
/// only half [`tag_of`] keeps.
struct TagHasher(u64);

impl Hasher for TagHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[inline]
fn tag_of<K: Hash>(key: &K) -> u32 {
    let mut hasher = TagHasher(0);
    key.hash(&mut hasher);
    (hasher.finish() >> 32) as u32
}

#[inline]
fn slot_word(tag: u32, idx: u32) -> u64 {
    (tag as u64) << 32 | (idx as u64 + 1)
}

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
/// // iCache resizes its partitions online; spilled entries come back
/// // LRU-first so they can be staged to disk.
/// let spilled = cache.set_capacity(1);
/// assert_eq!(spilled.len(), 1);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V> {
    /// Slot words, `tag << 32 | (node + 1)`; 0 is an empty slot. The
    /// length is a power of two and at least twice `slab.len()`.
    slots: Vec<u64>,
    /// `32 - log2(slots.len())`: a tag's home slot is `tag >> shift`.
    shift: u32,
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
            slots: vec![0; MIN_SLOTS],
            shift: 32 - MIN_SLOTS.trailing_zeros(),
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
            self.vacate(self.slot_of(idx));
            self.place(slot_word(tag, idx));
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
        if (self.slab.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let idx = self.slab.len() as u32;
        self.slab.push(Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        });
        self.place(slot_word(tag, idx));
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
        self.slots.fill(0);
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Slot and node of `key`. Tags are compared before the node is
    /// touched; the walk ends at the first empty slot, which load ≤ ½
    /// guarantees exists.
    #[inline]
    fn find(&self, tag: u32, key: &K) -> Option<(usize, u32)> {
        let mask = self.slots.len() - 1;
        let mut slot = (tag >> self.shift) as usize;
        loop {
            let word = self.slots[slot];
            if word == 0 {
                return None;
            }
            if (word >> 32) as u32 == tag {
                let idx = word as u32 - 1;
                if self.slab[idx as usize].key == *key {
                    return Some((slot, idx));
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Slot of the live node `idx`: its key gives the home, and the
    /// whole word — not the key — identifies it along the chain.
    fn slot_of(&self, idx: u32) -> usize {
        let word = slot_word(tag_of(&self.slab[idx as usize].key), idx);
        let mask = self.slots.len() - 1;
        let mut slot = self.home(word);
        while self.slots[slot] != word {
            assert!(self.slots[slot] != 0, "live node {idx} is not indexed");
            slot = (slot + 1) & mask;
        }
        slot
    }

    #[inline]
    fn home(&self, word: u64) -> usize {
        (word >> (32 + self.shift)) as usize
    }

    /// Store `word` in the first empty slot at or after its home.
    fn place(&mut self, word: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(word);
        while self.slots[slot] != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = word;
    }

    /// Empty `slot` by backward shift: each later word of the chain
    /// moves into the hole unless that would put it before its home,
    /// so no tombstone is left and lookups still end at an empty slot.
    fn vacate(&mut self, slot: usize) {
        let mask = self.slots.len() - 1;
        let mut hole = slot;
        let mut next = slot;
        loop {
            next = (next + 1) & mask;
            let word = self.slots[next];
            if word == 0 {
                break;
            }
            // Distances are cyclic, measured back from `next`.
            if (next.wrapping_sub(self.home(word)) & mask) >= (next.wrapping_sub(hole) & mask) {
                self.slots[hole] = word;
                hole = next;
            }
        }
        self.slots[hole] = 0;
    }

    /// Double the table, re-placing every word by the tag it carries.
    fn grow(&mut self) {
        let doubled = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for word in old.into_iter().filter(|&w| w != 0) {
            self.place(word);
        }
    }

    /// Take node `idx` (indexed at `slot`) out of the table, the list
    /// and the slab. The slab's last node fills the hole, so its slot
    /// word and its neighbours' links are repointed at `idx`.
    fn unlink(&mut self, slot: usize, idx: u32) -> Node<K, V> {
        self.vacate(slot);
        self.detach(idx);
        let last = (self.slab.len() - 1) as u32;
        if idx != last {
            // Same tag, lower node: only the word's low half changes.
            let moved = self.slot_of(last);
            self.slots[moved] -= (last - idx) as u64;
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
