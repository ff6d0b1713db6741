//! Ghost caches: key-only shadows used to price cache growth.
//!
//! iCache (paper §III-C, Fig. 7) keeps a ghost index cache and a ghost
//! read cache. "When a victim data item is flushed from the index cache
//! or the read data cache, its metadata is inserted into the
//! corresponding ghost cache" — a hit in a ghost then means "this access
//! *would* have been a hit if the actual cache were bigger", and the per
//! epoch ghost-hit counts feed the cost-benefit repartitioning.

use crate::lru::LruCache;
use std::hash::Hash;

/// A metadata-only LRU holding recently evicted keys.
#[derive(Debug)]
pub struct GhostCache<K> {
    inner: LruCache<K, ()>,
    hits: u64,
}

/// Flat gauge snapshot of a [`GhostCache`] (see
/// [`GhostCache::introspect`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GhostState {
    /// Remembered evicted keys.
    pub len: u64,
    /// Key capacity.
    pub capacity: u64,
    /// Cumulative ghost hits.
    pub hits: u64,
}

impl<K: Eq + Hash + Clone> GhostCache<K> {
    /// Ghost cache remembering at most `capacity` evicted keys.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: LruCache::new(capacity),
            hits: 0,
        }
    }

    /// Record an eviction from the actual cache.
    pub fn record_eviction(&mut self, key: K) {
        self.inner.insert(key, ());
    }

    /// Probe on an actual-cache miss. A hit removes the key (it is about
    /// to be reloaded into the actual cache) and counts toward the epoch
    /// ghost-hit total.
    pub fn probe(&mut self, key: &K) -> bool {
        if self.inner.remove(key).is_some() {
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Probe without consuming the entry or counting a hit.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.contains(key)
    }

    /// Cumulative ghost hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// `true` if no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Current capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Resize; spilled keys are simply forgotten (ghosts hold no data).
    pub fn set_capacity(&mut self, capacity: usize) {
        let _ = self.inner.set_capacity(capacity);
    }

    /// Forget everything, keeping the hit counter.
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    /// Gauge snapshot: cheap, allocation-free, `Copy`.
    pub fn introspect(&self) -> GhostState {
        GhostState {
            len: self.len() as u64,
            capacity: self.capacity() as u64,
            hits: self.hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_then_probe_hits_once() {
        let mut g = GhostCache::new(4);
        g.record_eviction(1u64);
        assert!(g.probe(&1));
        // Consumed: second probe misses.
        assert!(!g.probe(&1));
        assert_eq!(g.hits(), 1);
    }

    #[test]
    fn probe_miss_on_unknown_key() {
        let mut g = GhostCache::new(4);
        assert!(!g.probe(&99u64));
        assert_eq!(g.hits(), 0);
    }

    #[test]
    fn capacity_bounds_memory_of_evictions() {
        let mut g = GhostCache::new(2);
        g.record_eviction(1u64);
        g.record_eviction(2);
        g.record_eviction(3); // 1 falls off
        assert!(!g.probe(&1));
        assert!(g.probe(&2));
        assert!(g.probe(&3));
        assert_eq!(g.hits(), 2);
    }

    #[test]
    fn contains_is_non_destructive() {
        let mut g = GhostCache::new(4);
        g.record_eviction(5u64);
        assert!(g.contains(&5));
        assert!(g.contains(&5));
        assert_eq!(g.hits(), 0);
        assert!(g.probe(&5));
    }

    #[test]
    fn resize_and_clear() {
        let mut g = GhostCache::new(4);
        for i in 0..4u64 {
            g.record_eviction(i);
        }
        g.set_capacity(1);
        assert_eq!(g.len(), 1);
        g.clear();
        assert!(g.is_empty());
    }

    #[test]
    fn duplicate_evictions_do_not_double_count() {
        let mut g = GhostCache::new(4);
        g.record_eviction(1u64);
        g.record_eviction(1);
        assert_eq!(g.len(), 1);
    }
}
