//! O(1) LFU cache (frequency-bucket algorithm).
//!
//! The POD Index table tracks a `Count` per hot fingerprint; the paper
//! manages the table with LRU but the Count field suggests an obvious
//! alternative — evict the *least frequently* written fingerprint
//! instead of the least recent. `LfuCache` implements that policy so the
//! `index_policy` ablation bench can compare the two.
//!
//! Classic O(1) LFU: a map from key to (value, freq), and per-frequency
//! LRU lists; eviction takes the LRU entry of the minimum frequency.

use crate::lru::LruCache;
use pod_hash::fnv::FnvBuildHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A least-frequently-used cache. Ties within a frequency class break
/// toward the least recently used entry.
#[derive(Debug)]
pub struct LfuCache<K, V> {
    values: HashMap<K, (V, u64), FnvBuildHasher>,
    /// freq -> LRU of keys at that frequency. BTreeMap gives O(log F)
    /// access to the minimum frequency; F (distinct frequencies) is tiny
    /// in practice.
    buckets: BTreeMap<u64, LruCache<K, ()>>,
    capacity: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LfuCache<K, V> {
    /// LFU holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            values: HashMap::default(),
            buckets: BTreeMap::new(),
            capacity,
            evictions: 0,
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is cached (no frequency bump).
    pub fn contains(&self, key: &K) -> bool {
        self.values.contains_key(key)
    }

    /// Access frequency of `key`, if cached.
    pub fn frequency(&self, key: &K) -> Option<u64> {
        self.values.get(key).map(|(_, f)| *f)
    }

    /// Get, bumping the access frequency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.touch(key)?;
        self.values.get(key).map(|(v, _)| v)
    }

    /// Look up without bumping frequency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.values.get(key).map(|(v, _)| v)
    }

    /// Insert or update. Updates bump frequency. Returns the evicted
    /// entry if the insert displaced one.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return Some((key, value));
        }
        if self.values.contains_key(&key) {
            self.touch(&key);
            if let Some(slot) = self.values.get_mut(&key) {
                slot.0 = value;
            }
            return None;
        }
        let evicted = if self.values.len() >= self.capacity {
            self.pop_lfu()
        } else {
            None
        };
        self.values.insert(key.clone(), (value, 1));
        self.buckets
            .entry(1)
            .or_insert_with(|| LruCache::new(usize::MAX))
            .insert(key, ());
        evicted
    }

    /// Remove a key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (v, f) = self.values.remove(key)?;
        self.remove_from_bucket(f, key);
        Some(v)
    }

    /// Resize online. Shrinking evicts least-frequent-first; the spilled
    /// entries are returned in eviction order.
    pub fn set_capacity(&mut self, capacity: usize) -> Vec<(K, V)> {
        self.capacity = capacity;
        let mut spilled = Vec::new();
        while self.values.len() > self.capacity {
            spilled.extend(self.pop_lfu());
        }
        spilled
    }

    /// Evict the least-frequently-used entry (LRU within the class).
    pub fn pop_lfu(&mut self) -> Option<(K, V)> {
        let (&freq, _) = self.buckets.iter().next()?;
        let bucket = self.buckets.get_mut(&freq).expect("bucket exists");
        let (key, ()) = bucket.pop_lru().expect("non-empty bucket");
        if bucket.is_empty() {
            self.buckets.remove(&freq);
        }
        let (v, _) = self
            .values
            .remove(&key)
            .expect("value exists for bucketed key");
        self.evictions += 1;
        Some((key, v))
    }

    /// Cumulative count of frequency-order evictions
    /// ([`LfuCache::pop_lfu`], whether from insert pressure or a
    /// capacity shrink).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterate `(key, value, frequency)` without bumping frequencies or
    /// allocating. Pair with `take(n)` for a bounded sample of a large
    /// cache. The order is the backing map's bucket order: the same for
    /// the same insert/remove history (the hasher is unkeyed), but a
    /// function of `K`'s `Hash` — a change to how a key type hashes
    /// changes which entries a bounded sample sees.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, u64)> {
        self.values.iter().map(|(k, (v, f))| (k, v, *f))
    }

    fn touch(&mut self, key: &K) -> Option<()> {
        let freq = {
            let (_, f) = self.values.get_mut(key)?;
            let old = *f;
            *f += 1;
            old
        };
        self.remove_from_bucket(freq, key);
        self.buckets
            .entry(freq + 1)
            .or_insert_with(|| LruCache::new(usize::MAX))
            .insert(key.clone(), ());
        Some(())
    }

    fn remove_from_bucket(&mut self, freq: u64, key: &K) {
        let empty = {
            let bucket = self.buckets.get_mut(&freq).expect("bucket for live key");
            bucket.remove(key);
            bucket.is_empty()
        };
        if empty {
            self.buckets.remove(&freq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1);
        c.get(&1); // 1 has freq 3, 2 has freq 1
        let evicted = c.insert(3, "c");
        assert_eq!(evicted, Some((2, "b")));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
    }

    #[test]
    fn frequency_tracking() {
        let mut c = LfuCache::new(4);
        c.insert(1, ());
        assert_eq!(c.frequency(&1), Some(1));
        c.get(&1);
        assert_eq!(c.frequency(&1), Some(2));
        c.insert(1, ()); // update also bumps
        assert_eq!(c.frequency(&1), Some(3));
        assert_eq!(c.frequency(&9), None);
    }

    #[test]
    fn ties_break_lru_within_class() {
        let mut c = LfuCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        // All freq 1; LRU is 1.
        assert_eq!(c.insert(4, ()), Some((1, ())));
    }

    #[test]
    fn peek_does_not_bump() {
        let mut c = LfuCache::new(2);
        c.insert(1, "a");
        c.peek(&1);
        assert_eq!(c.frequency(&1), Some(1));
    }

    #[test]
    fn remove_cleans_buckets() {
        let mut c = LfuCache::new(2);
        c.insert(1, "a");
        assert_eq!(c.remove(&1), Some("a"));
        assert!(c.is_empty());
        assert_eq!(c.pop_lfu(), None);
        // Reinsert works fine afterwards.
        c.insert(2, "b");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_bounces() {
        let mut c = LfuCache::new(0);
        assert_eq!(c.insert(1, "a"), Some((1, "a")));
        assert!(c.is_empty());
    }

    #[test]
    fn pop_lfu_full_drain() {
        let mut c = LfuCache::new(3);
        c.insert(1, ());
        c.insert(2, ());
        c.insert(3, ());
        c.get(&3);
        let order: Vec<_> = std::iter::from_fn(|| c.pop_lfu()).map(|(k, _)| k).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn resize_evicts_least_frequent_first() {
        let mut c = LfuCache::new(4);
        for i in 1..=4 {
            c.insert(i, i * 10);
        }
        c.get(&3);
        c.get(&3);
        c.get(&4);
        // Frequencies: 1:1, 2:1, 3:3, 4:2 -> shrink to 2 spills 1 then 2.
        let spilled = c.set_capacity(2);
        assert_eq!(spilled, vec![(1, 10), (2, 20)]);
        assert!(c.contains(&3) && c.contains(&4));
        // Growing keeps contents.
        assert!(c.set_capacity(8).is_empty());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn eviction_counter_and_iter() {
        let mut c = LfuCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.get(&1);
        assert_eq!(c.evictions(), 0);
        c.insert(3, "c"); // evicts 2
        assert_eq!(c.evictions(), 1);
        let _ = c.set_capacity(1); // spills 3 (freq 1)
        assert_eq!(c.evictions(), 2);
        let mut seen: Vec<_> = c.iter().map(|(k, v, f)| (*k, *v, f)).collect();
        seen.sort();
        assert_eq!(seen, vec![(1, "a", 2)]);
    }

    #[test]
    fn stress_capacity_invariant() {
        let mut c = LfuCache::new(10);
        for i in 0..1000u64 {
            c.insert(i % 37, i);
            assert!(c.len() <= 10);
        }
    }
}
