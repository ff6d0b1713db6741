//! The plain LRU under the name the benchmark harness calls.

use crate::GhostedLru;

/// The plain LRU, a [`GhostedLru`] with no ghost. It exists only for the
/// benchmark harness's `drive_lru`, and goes when that drive times the
/// read cache with its ghost (ROADMAP 2a).
///
/// ```
/// let mut cache = pod_cache::LruCache::new(2);
/// cache.insert("a", 1);
/// cache.insert("b", 2);
/// cache.get(&"a");                       // promote "a"
/// assert_eq!(cache.insert("c", 3), Some(("b", 2)));
/// assert_eq!(cache.evictions(), 1);
/// ```
#[derive(Debug)]
pub struct LruCache<K, V>(GhostedLru<K, V>);

impl<K: Eq + std::hash::Hash + Copy, V: Copy> LruCache<K, V> {
    /// A cache of `capacity` entries; storage grows with those held.
    pub fn new(capacity: usize) -> Self {
        Self(GhostedLru::new(capacity, 0))
    }

    /// The value of `key`, promoted to most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.0.get_mut(key).map(|v| &*v)
    }

    /// Insert (or update) `key`; returns the entry evicted to make room.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.0.insert(key, value)
    }

    /// Cumulative evictions.
    pub fn evictions(&self) -> u64 {
        self.0.evictions()
    }
}

/// The plain list's behaviour: [`GhostedLru`] with ghost capacity 0.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lookup;

    /// A plain list of `capacity` that was given keys `1..=n`, each
    /// valued `k * 10`, in order.
    fn filled(capacity: usize, n: u32) -> GhostedLru<u32, u32> {
        let mut c = GhostedLru::new(capacity, 0);
        for k in 1..=n {
            c.insert(k, k * 10);
        }
        c
    }

    fn order(c: &GhostedLru<u32, u32>) -> Vec<u32> {
        c.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        assert_eq!((c.insert(1, "a"), c.insert(2, "b")), (None, None));
        assert_eq!(
            (c.get(&1).copied(), c.get(&2).copied()),
            (Some("a"), Some("b"))
        );
        assert_eq!((c.get(&3).copied(), c.evictions()), (None, 0));
    }

    #[test]
    fn eviction_is_lru_order() {
        let mut c = filled(2, 2);
        c.get_mut(&1); // 2 is now LRU
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(order(&c), [3, 1]);
    }

    #[test]
    fn update_promotes_and_does_not_evict() {
        let mut c = filled(2, 2);
        assert_eq!(c.insert(1, 11), None);
        assert_eq!(c.insert(3, 30), Some((2, 20)));
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = filled(2, 2);
        c.peek(&1);
        assert_eq!(c.insert(3, 30), Some((1, 10)));
    }

    #[test]
    fn remove_middle_entry() {
        let mut c = filled(3, 3);
        assert_eq!(c.remove(&2), Some(20));
        assert_eq!(order(&c), [3, 1]);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut c = filled(3, 3);
        assert_eq!((c.remove(&3), c.remove(&1)), (Some(30), Some(10)));
        assert_eq!(order(&c), [2]);
    }

    #[test]
    fn zero_capacity_bounces_inserts() {
        let mut c = filled(0, 0);
        assert_eq!(c.insert(1, 10), Some((1, 10)));
        assert!(c.is_empty() && c.ghost_len() == 0);
        assert_eq!((c.lookup(&1), c.evictions()), (Lookup::Miss, 0));
    }

    #[test]
    fn shrink_spills_lru_first() {
        let mut c = filled(4, 4);
        c.get_mut(&1); // recency: 1,4,3,2
        let mut spilled = Vec::new();
        assert_eq!(c.set_capacity(2, |k, v| spilled.push((*k, *v))), 2);
        assert_eq!(spilled, [(2, 20), (3, 30)]);
        assert_eq!((order(&c), c.ghost_len()), (vec![1, 4], 0));
    }

    #[test]
    fn grow_keeps_entries() {
        let mut c = filled(1, 1);
        assert_eq!(c.set_capacity(3, |_, _| {}), 0);
        assert_eq!((c.insert(2, 20), c.insert(3, 30)), (None, None));
        assert_eq!(order(&c), [3, 2, 1]);
    }

    /// Past the model's 80 entries: the slot table doubles to 2,048
    /// slots, and each eviction reuses the node it frees.
    #[test]
    fn slot_recycling_after_many_evictions() {
        for capacity in [8, 1_000] {
            let c = filled(capacity, 10_000);
            // No ghost holds a node, so the slab is the residents.
            assert_eq!((c.len(), c.ghost_len()), (capacity, 0));
            let newest: Vec<u32> = (10_001 - capacity as u32..=10_000).rev().collect();
            assert_eq!(order(&c), newest);
        }
    }

    #[test]
    fn clear_resets() {
        let mut c = filled(2, 3);
        c.clear_resident();
        assert!(c.is_empty());
        assert_eq!((c.evictions(), c.ghost_len()), (0, 0));
        c.insert(2, 20);
        assert_eq!(c.get_mut(&2), Some(&mut 20));
    }

    #[test]
    fn get_mut_allows_in_place_update() {
        let mut c = filled(2, 1);
        *c.get_mut(&1).unwrap() += 1;
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn eviction_counter_tracks_pop_and_shrink() {
        let mut c = filled(2, 3); // 3 evicted 1
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.set_capacity(1, |_, _| {}), 1);
        assert_eq!((c.len(), c.capacity(), c.evictions()), (1, 1, 2));
        // A zero-capacity bounce never enters the cache and is not an
        // eviction in the churn sense.
        c.set_capacity(0, |_, _| {});
        assert_eq!(c.insert(9, 90), Some((9, 90)));
        assert_eq!(c.evictions(), 3);
    }

    #[test]
    fn iter_is_mru_to_lru() {
        let mut c = filled(3, 3);
        c.get_mut(&2);
        assert_eq!(order(&c), [2, 3, 1]);
    }
}
