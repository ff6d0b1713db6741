//! A cache and its ghost as one LRU list split by a boundary.
//!
//! iCache (paper §III-C, Fig. 7) keeps a ghost behind each actual
//! cache: "When a victim data item is flushed from the index cache or
//! the read data cache, its metadata is inserted into the corresponding
//! ghost cache", and a ghost hit prices a bigger cache. ARC (Megiddo &
//! Modha, FAST'03) stores such a pair as one list, L1 = T1 ∪ B1: the
//! resident entries at the MRU end, the ghosts behind them. So does
//! [`GhostedLru`]. An eviction moves the boundary one node (the victim
//! keeps its node and its slot word), a ghost overflow drops the list's
//! tail and hands its node to the next insert, a shrink moves the
//! boundary k nodes, and a ghost probe is a lookup in the same table.
//!
//! A key may be resident and a ghost at once, as it can be in a cache
//! with a separate ghost: an insert does not probe the ghost. Such a
//! resident carries a twin mark, set when its insert walked past the
//! ghost node, and when it crosses the boundary it replaces its ghost
//! twin at the ghost's front. The mark can outlive the twin (a probe or
//! an overflow drops it); crossing then finds nothing to replace.
//!
//! Nodes live in one dense slab, linked by 31-bit indices; the top bit
//! of `prev` marks a ghost and the top bit of `next` the twin mark, so
//! a node costs its key, its value and two `u32`s.

use crate::slots::{slot_word, tag_of, SlotTable};
use std::hash::Hash;

/// "No node". Links are 31 bits wide; the top bit of a link word is a
/// flag.
const NIL: u32 = 0x7FFF_FFFF;
const FLAG: u32 = 1 << 31;

/// Entry bound: every node index is below [`NIL`].
const MAX_NODES: usize = NIL as usize;

/// A node's slot and index.
type Found = (usize, u32);

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Towards the MRU end; the flag marks a ghost.
    prev: u32,
    /// Towards the LRU end; the flag marks a resident that may have a
    /// ghost twin.
    next: u32,
}

impl<K, V> Node<K, V> {
    #[inline]
    fn prev(&self) -> u32 {
        self.prev & !FLAG
    }

    #[inline]
    fn next(&self) -> u32 {
        self.next & !FLAG
    }

    #[inline]
    fn is_ghost(&self) -> bool {
        self.prev & FLAG != 0
    }

    #[inline]
    fn has_twin(&self) -> bool {
        self.next & FLAG != 0
    }
}

/// What [`GhostedLru::lookup`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Resident: promoted to most recently used.
    Hit,
    /// Not resident, but a ghost: the ghost is consumed and counted.
    Ghost,
    /// Neither.
    Miss,
}

/// Flat gauge snapshot of a ghost side (see [`GhostedLru::ghost_state`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GhostState {
    /// Remembered evicted keys.
    pub len: u64,
    /// Key capacity.
    pub capacity: u64,
    /// Cumulative ghost hits.
    pub hits: u64,
}

/// An LRU cache of at most `capacity` resident entries and a ghost of at
/// most `ghost_capacity` evicted ones, in one list.
///
/// ```
/// use pod_cache::{GhostedLru, Lookup};
///
/// let mut cache = GhostedLru::new(2, 4);
/// cache.insert(1u64, ());
/// cache.insert(2, ());
/// // Full: 1 is evicted, and its node becomes the ghost's front.
/// assert_eq!(cache.insert(3, ()), Some((1, ())));
/// assert_eq!(cache.ghost_len(), 1);
/// // A lookup that misses the resident side consumes the ghost.
/// assert_eq!(cache.lookup(&1), Lookup::Ghost);
/// assert_eq!(cache.lookup(&1), Lookup::Miss);
/// assert_eq!(cache.ghost_state().hits, 1);
/// ```
#[derive(Debug)]
pub struct GhostedLru<K, V> {
    /// Slot words of every node, resident and ghost.
    table: SlotTable,
    /// Every node and nothing else, in no particular order.
    slab: Vec<Node<K, V>>,
    /// Most recently used node: a resident unless there is none.
    head: u32,
    /// Least recently used node: a ghost unless there is none.
    tail: u32,
    /// The ghost side's most recent node; `NIL` when it is empty.
    boundary: u32,
    /// Nodes before the boundary.
    resident: usize,
    capacity: usize,
    ghost_capacity: usize,
    evictions: u64,
    ghost_hits: u64,
}

impl<K: Eq + Hash + Copy, V: Copy> GhostedLru<K, V> {
    /// A cache of `capacity` resident entries whose evictions are
    /// remembered by a ghost of `ghost_capacity` keys. Either may be 0:
    /// a zero-capacity cache sends every insert straight to the ghost,
    /// and a zero-capacity ghost forgets every eviction. Costs the same
    /// for any capacities: storage grows with the entries held.
    pub fn new(capacity: usize, ghost_capacity: usize) -> Self {
        Self {
            table: SlotTable::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            boundary: NIL,
            resident: 0,
            capacity,
            ghost_capacity,
            evictions: 0,
            ghost_hits: 0,
        }
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// Resident capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remembered ghost keys.
    pub fn ghost_len(&self) -> usize {
        self.slab.len() - self.resident
    }

    /// Cumulative evictions from the resident side (insert pressure
    /// plus shrinks); an insert into a zero-capacity cache is not one.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The resident value of `key`, promoted to most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (_, idx) = self.find(tag_of(key), key, false)?;
        self.promote(idx);
        Some(&mut self.slab[idx as usize].value)
    }

    /// The resident value of `key`, without promoting it.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let (_, idx) = self.find(tag_of(key), key, false)?;
        Some(&self.slab[idx as usize].value)
    }

    /// Promote `key` if it is resident; otherwise consume its ghost, if
    /// any, counting a ghost hit. One walk of the key's chain.
    pub fn lookup(&mut self, key: &K) -> Lookup {
        match self.walk(tag_of(key), key) {
            (Some((_, idx)), _) => {
                self.promote(idx);
                Lookup::Hit
            }
            (None, Some((slot, idx))) => {
                self.unlink(slot, idx);
                self.ghost_hits += 1;
                Lookup::Ghost
            }
            (None, None) => Lookup::Miss,
        }
    }

    /// Consume the ghost of `key`, if any, counting a ghost hit. The
    /// resident side is not consulted.
    pub fn probe_ghost(&mut self, key: &K) -> bool {
        let Some((slot, idx)) = self.find(tag_of(key), key, true) else {
            return false;
        };
        self.unlink(slot, idx);
        self.ghost_hits += 1;
        true
    }

    /// Insert (or update) `key` as the most recently used resident,
    /// without probing the ghost. Returns the entry evicted to make
    /// room, now the ghost's front; an update never evicts.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.upsert(key, value, |old, new| *old = new)
    }

    /// [`GhostedLru::insert`] with the update spelled by the caller, in
    /// one walk: if `key` is resident, `update(&mut cached, value)` runs
    /// and the entry is promoted; otherwise `value` is inserted exactly
    /// as `insert` would.
    pub fn upsert(&mut self, key: K, value: V, update: impl FnOnce(&mut V, V)) -> Option<(K, V)> {
        self.put(key, value, update, true)
    }

    /// [`GhostedLru::insert`] for a rebuild of the resident side: the
    /// entry it evicts is forgotten, not remembered by the ghost.
    pub fn insert_unghosted(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.put(key, value, |old, new| *old = new, false)
    }

    /// Remove a resident `key`, returning its value. Its ghost twin, if
    /// any, stays.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (slot, idx) = self.find(tag_of(key), key, false)?;
        Some(self.unlink(slot, idx).value)
    }

    /// Resize the resident side online. A shrink moves the boundary:
    /// the least recent residents become the ghost's most recent keys,
    /// each passed to `spilled` (least recent first) on the way. Returns
    /// how many spilled.
    pub fn set_capacity(&mut self, capacity: usize, mut spilled: impl FnMut(&K, &V)) -> u64 {
        self.capacity = capacity;
        let mut n = 0;
        while self.resident > capacity {
            let (key, value) = self.cross();
            self.evictions += 1;
            spilled(&key, &value);
            n += 1;
        }
        self.trim_ghost();
        n
    }

    /// Resize the ghost side, forgetting its least recent keys.
    pub fn set_ghost_capacity(&mut self, ghost_capacity: usize) {
        self.ghost_capacity = ghost_capacity;
        self.trim_ghost();
    }

    /// Drop every resident entry and restart the eviction count, as a
    /// fresh cache would; the ghost side and its hit count stay.
    pub fn clear_resident(&mut self) {
        while self.resident > 0 {
            let head = self.head;
            self.unlink(self.slot_of(head), head);
        }
        self.evictions = 0;
    }

    /// Resident entries, most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.chain(self.head)
            .take(self.resident)
            .map(|n| (&n.key, &n.value))
    }

    /// Ghost keys, most to least recently remembered.
    pub fn ghost_keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.chain(self.boundary).map(|n| &n.key)
    }

    /// Gauge snapshot of the ghost side: cheap, allocation-free.
    pub fn ghost_state(&self) -> GhostState {
        GhostState {
            len: self.ghost_len() as u64,
            capacity: self.ghost_capacity as u64,
            hits: self.ghost_hits,
        }
    }

    /// Nodes from `from` to the tail.
    fn chain(&self, from: u32) -> impl Iterator<Item = &Node<K, V>> + '_ {
        let mut cursor = from;
        std::iter::from_fn(move || {
            let node = self.slab.get(cursor as usize)?;
            cursor = node.next();
            Some(node)
        })
    }

    /// Walk `key`'s chain: its resident node, and its ghost node if the
    /// walk passed one. The walk stops at the resident, so a ghost twin
    /// further along is not seen; an absent resident means the whole
    /// chain was walked.
    #[inline]
    fn walk(&self, tag: u32, key: &K) -> (Option<Found>, Option<Found>) {
        let mut ghost = None;
        let resident = self.table.probe(tag, |slot, idx| {
            let node = &self.slab[idx as usize];
            if node.key != *key {
                return false;
            }
            if node.is_ghost() {
                ghost = Some((slot, idx));
                return false;
            }
            true
        });
        (resident, ghost)
    }

    /// Slot and node of `key` on one side.
    #[inline]
    fn find(&self, tag: u32, key: &K, ghost: bool) -> Option<Found> {
        self.table.probe(tag, |_, idx| {
            let node = &self.slab[idx as usize];
            node.key == *key && node.is_ghost() == ghost
        })
    }

    /// Slot of the live node `idx`.
    fn slot_of(&self, idx: u32) -> usize {
        let tag = tag_of(&self.slab[idx as usize].key);
        self.table.slot_of(slot_word(tag, idx))
    }

    /// [`GhostedLru::upsert`], sending the evicted entry to the ghost
    /// (`remember`) or forgetting it.
    #[inline]
    fn put(
        &mut self,
        key: K,
        value: V,
        update: impl FnOnce(&mut V, V),
        remember: bool,
    ) -> Option<(K, V)> {
        let tag = tag_of(&key);
        match self.walk(tag, &key) {
            (Some((_, idx)), _) => {
                update(&mut self.slab[idx as usize].value, value);
                self.promote(idx);
                None
            }
            (None, twin) => self.add(tag, key, value, twin, remember),
        }
    }

    /// Add `key`, which is not resident; `twin` is its ghost node if
    /// the walk passed one. `remember` sends the evicted entry to the
    /// ghost instead of forgetting it.
    fn add(
        &mut self,
        tag: u32,
        key: K,
        value: V,
        twin: Option<Found>,
        remember: bool,
    ) -> Option<(K, V)> {
        if self.capacity == 0 {
            // The entry is its own victim: remembered at the ghost's
            // front, where a ghost twin simply moves.
            if remember && self.ghost_capacity > 0 {
                match twin {
                    Some((_, idx)) if idx == self.boundary => {}
                    Some((_, idx)) => {
                        self.detach(idx);
                        self.attach_ghost_front(idx);
                    }
                    None => {
                        let idx = self.new_node(tag, key, value);
                        self.slab[idx as usize].prev |= FLAG;
                        self.attach_ghost_front(idx);
                    }
                }
            }
            return Some((key, value));
        }
        let victim = (self.resident >= self.capacity).then(|| {
            self.evictions += 1;
            if remember {
                self.cross()
            } else {
                let lru = self.resident_lru();
                let node = self.unlink(self.slot_of(lru), lru);
                (node.key, node.value)
            }
        });
        let idx = self.new_node(tag, key, value);
        if twin.is_some() {
            self.slab[idx as usize].next |= FLAG;
        }
        self.attach_front(idx);
        self.resident += 1;
        victim
    }

    /// A detached node holding `key`, indexed under `tag`: the ghost's
    /// tail, reused, when the ghost holds more than it may; otherwise a
    /// new slab node. Its flags are clear.
    fn new_node(&mut self, tag: u32, key: K, value: V) -> u32 {
        let idx = if self.ghost_len() > self.ghost_capacity {
            let idx = self.tail;
            self.table.vacate(self.slot_of(idx));
            if self.boundary == idx {
                self.boundary = NIL;
            }
            self.detach(idx);
            let node = &mut self.slab[idx as usize];
            node.key = key;
            node.value = value;
            idx
        } else {
            assert!(self.slab.len() < MAX_NODES, "GhostedLru entry bound");
            self.table.reserve(self.slab.len() + 1);
            self.slab.push(Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            (self.slab.len() - 1) as u32
        };
        let node = &mut self.slab[idx as usize];
        node.prev = NIL;
        node.next = NIL;
        self.table.place(slot_word(tag, idx));
        idx
    }

    /// The least recent resident. There must be one.
    fn resident_lru(&self) -> u32 {
        match self.boundary {
            NIL => self.tail,
            b => self.slab[b as usize].prev(),
        }
    }

    /// One boundary step: the least recent resident becomes the ghost's
    /// most recent key, replacing its ghost twin if it has one. Returns
    /// its key and value.
    fn cross(&mut self) -> (K, V) {
        let idx = self.resident_lru();
        let node = &mut self.slab[idx as usize];
        node.prev |= FLAG;
        let twin = node.has_twin();
        node.next &= !FLAG;
        let crossed = (node.key, node.value);
        self.boundary = idx;
        self.resident -= 1;
        if twin {
            let found = self.table.probe(tag_of(&crossed.0), |_, i| {
                let node = &self.slab[i as usize];
                i != idx && node.key == crossed.0 && node.is_ghost()
            });
            if let Some((slot, i)) = found {
                self.unlink(slot, i);
            }
        }
        crossed
    }

    /// Attach the detached ghost node `idx` at the ghost's front. Only
    /// for a cache with no residents, whose ghost front is the list's
    /// head.
    fn attach_ghost_front(&mut self, idx: u32) {
        debug_assert_eq!(self.resident, 0);
        self.attach_front(idx);
        self.boundary = idx;
        self.trim_ghost();
    }

    /// Drop least recent ghosts until the ghost fits its capacity.
    fn trim_ghost(&mut self) {
        while self.ghost_len() > self.ghost_capacity {
            let tail = self.tail;
            self.unlink(self.slot_of(tail), tail);
        }
    }

    /// Take node `idx` (indexed at `slot`) out of the table, the list
    /// and the slab. The slab's last node fills the hole, so its slot
    /// word, its neighbours' links and the boundary follow it.
    fn unlink(&mut self, slot: usize, idx: u32) -> Node<K, V> {
        self.table.vacate(slot);
        if self.boundary == idx {
            self.boundary = self.slab[idx as usize].next();
        }
        if !self.slab[idx as usize].is_ghost() {
            self.resident -= 1;
        }
        self.detach(idx);
        let last = (self.slab.len() - 1) as u32;
        if idx != last {
            let moved = &self.slab[last as usize];
            let (tag, prev, next) = (tag_of(&moved.key), moved.prev(), moved.next());
            self.table.renumber(tag, last, idx);
            self.set_next(prev, idx);
            self.set_prev(next, idx);
            if self.boundary == last {
                self.boundary = idx;
            }
        }
        self.slab.swap_remove(idx as usize)
    }

    /// Move the resident `idx` to the front.
    #[inline]
    fn promote(&mut self, idx: u32) {
        if self.head != idx {
            self.detach(idx);
            self.attach_front(idx);
        }
    }

    /// Unhook `idx` from the list; its own links are left stale.
    fn detach(&mut self, idx: u32) {
        let node = &self.slab[idx as usize];
        let (prev, next) = (node.prev(), node.next());
        self.set_next(prev, next);
        self.set_prev(next, prev);
    }

    fn attach_front(&mut self, idx: u32) {
        let old_head = self.head;
        let node = &mut self.slab[idx as usize];
        node.prev = node.prev & FLAG | NIL;
        node.next = node.next & FLAG | old_head;
        self.set_prev(old_head, idx);
        self.head = idx;
    }

    /// Make `to` what follows `node` — or the head, if `node` is `NIL`.
    #[inline]
    fn set_next(&mut self, node: u32, to: u32) {
        match node {
            NIL => self.head = to,
            n => {
                let n = &mut self.slab[n as usize];
                n.next = n.next & FLAG | to;
            }
        }
    }

    /// Make `to` what precedes `node` — or the tail, if `node` is `NIL`.
    #[inline]
    fn set_prev(&mut self, node: u32, to: u32) {
        match node {
            NIL => self.tail = to,
            n => {
                let n = &mut self.slab[n as usize];
                n.prev = n.prev & FLAG | to;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident(c: &GhostedLru<u64, ()>) -> Vec<u64> {
        c.iter().map(|(k, _)| *k).collect()
    }

    fn ghosts(c: &GhostedLru<u64, ()>) -> Vec<u64> {
        c.ghost_keys().copied().collect()
    }

    /// A one-entry cache whose ghost remembers `keys`, oldest first.
    fn evicted(ghost_capacity: usize, keys: &[u64]) -> GhostedLru<u64, ()> {
        let mut c = GhostedLru::new(1, ghost_capacity);
        for &k in keys {
            c.insert(k, ());
        }
        c.insert(u64::MAX, ());
        c
    }

    #[test]
    fn eviction_then_probe_hits_once() {
        let mut g = evicted(4, &[1]);
        assert!(g.probe_ghost(&1));
        // Consumed: second probe misses.
        assert!(!g.probe_ghost(&1));
        assert_eq!(g.ghost_state().hits, 1);
    }

    #[test]
    fn probe_miss_on_unknown_key() {
        let mut g = evicted(4, &[1]);
        assert!(!g.probe_ghost(&99));
        assert!(!g.probe_ghost(&u64::MAX), "resident, not a ghost");
        assert_eq!(g.lookup(&u64::MAX), Lookup::Hit);
        assert_eq!(g.lookup(&99), Lookup::Miss);
        assert_eq!(g.ghost_state().hits, 0);
    }

    #[test]
    fn capacity_bounds_memory_of_evictions() {
        let mut g = evicted(2, &[1, 2, 3]); // 1 falls off
        assert!(!g.probe_ghost(&1));
        assert!(g.probe_ghost(&2));
        assert_eq!(g.lookup(&3), Lookup::Ghost);
        assert_eq!(g.ghost_state().hits, 2);
    }

    #[test]
    fn contains_is_non_destructive() {
        let mut g = evicted(4, &[5]);
        assert!(g.ghost_keys().any(|&k| k == 5));
        assert!(g.peek(&5).is_none());
        assert_eq!(g.ghost_state().hits, 0);
        assert!(g.probe_ghost(&5));
    }

    #[test]
    fn resize_and_clear() {
        let mut g = evicted(4, &[0, 1, 2, 3]);
        g.set_ghost_capacity(1);
        assert_eq!(ghosts(&g), vec![3]);
        g.clear_resident();
        assert!(g.is_empty());
        assert_eq!(ghosts(&g), vec![3], "the ghost survives a resident clear");
        g.set_ghost_capacity(0);
        assert!(g.slab.is_empty());
    }

    #[test]
    fn duplicate_evictions_do_not_double_count() {
        // 1 is evicted, filled again without a probe (resident and ghost
        // at once), and evicted again: it replaces its ghost twin.
        let g = evicted(4, &[1, 2, 1, 3]);
        assert_eq!(ghosts(&g), vec![3, 1, 2]);
    }

    #[test]
    fn eviction_moves_the_boundary() {
        let mut c = GhostedLru::new(2, 2);
        c.insert(1u64, ());
        c.insert(2, ());
        assert_eq!(c.insert(3, ()), Some((1, ())));
        assert_eq!(c.insert(4, ()), Some((2, ())));
        assert_eq!((resident(&c), ghosts(&c)), (vec![4, 3], vec![2, 1]));
        // The ghost is full: the next eviction drops its tail.
        assert_eq!(c.insert(5, ()), Some((3, ())));
        assert_eq!((resident(&c), ghosts(&c)), (vec![5, 4], vec![3, 2]));
        assert_eq!(c.evictions(), 3);
        assert_eq!(c.slab.len(), 4, "the dropped tail's node was reused");
    }

    #[test]
    fn a_crossing_twin_replaces_its_ghost() {
        let mut c = GhostedLru::new(2, 4);
        for k in 1..=4u64 {
            c.insert(k, ());
        }
        assert_eq!(ghosts(&c), vec![2, 1]);
        c.insert(1, ());
        assert_eq!((resident(&c), ghosts(&c)), (vec![1, 4], vec![3, 2, 1]));
        c.insert(5, ());
        c.insert(6, ());
        // 1 crossed and took its ghost twin's place at the front.
        assert_eq!((resident(&c), ghosts(&c)), (vec![6, 5], vec![1, 4, 3, 2]));
    }

    #[test]
    fn shrink_and_zero_capacities() {
        let mut c = GhostedLru::new(4, 3);
        for k in 1..=4u64 {
            c.insert(k, ());
        }
        let mut spilled = Vec::new();
        assert_eq!(c.set_capacity(1, |k, _| spilled.push(*k)), 3);
        assert_eq!(spilled, vec![1, 2, 3]);
        assert_eq!((resident(&c), ghosts(&c)), (vec![4], vec![3, 2, 1]));
        assert_eq!(c.set_capacity(0, |_, _| {}), 1);
        assert_eq!((resident(&c), ghosts(&c)), (vec![], vec![4, 3, 2]));
        // At zero capacity an insert is its own victim, remembered.
        assert_eq!(c.insert(9, ()), Some((9, ())));
        assert_eq!(c.insert(3, ()), Some((3, ())));
        assert_eq!(ghosts(&c), vec![3, 9, 4]);
        assert_eq!(c.evictions(), 4, "bounces are not evictions");
    }

    #[test]
    fn a_rebuild_forgets_what_it_evicts() {
        let mut c = GhostedLru::new(2, 4);
        for k in 1..=4u64 {
            c.insert(k, ());
        }
        assert!(c.probe_ghost(&1));
        c.clear_resident();
        assert_eq!((c.evictions(), c.ghost_state().hits), (0, 1));
        for k in 5..=8u64 {
            c.insert_unghosted(k, ());
        }
        assert_eq!((resident(&c), ghosts(&c)), (vec![8, 7], vec![2]));
        assert_eq!(c.evictions(), 2);
    }
}
