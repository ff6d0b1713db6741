//! Sharded open-addressing hash table for sparse keys.
//!
//! Its one product user is [`FpMap`], Full-Dedupe's complete
//! fingerprint → PBA index: fingerprints are uniformly scattered 256-bit
//! keys, so unlike the chunk store's block state (indexed by address,
//! see `crate::store`) they genuinely need hashing. The map is consulted
//! on every RAM-index miss, where `std::collections::HashMap` pays for
//! its generality: per-entry indirection, a branchy probe loop, and
//! rehash-everything resizes. `ShardedMap` replaces it with linear-probe
//! open addressing over flat slot arrays — one cache line per probe step
//! — split into a fixed number of shards so a resize only rehashes
//! 1/`SHARDS` of the entries at a time and probe clusters stay short.
//!
//! Keys hash through SplitMix64 (fingerprints through their 64-bit
//! prefix, which for synthetic traces is the raw content id — SplitMix
//! scrambles it into uniform bits). Removal uses backward-shift deletion,
//! so there are no tombstones and lookups never degrade after heavy
//! insert/remove churn (stale entries are dropped as content is
//! overwritten during replay).
//!
//! All keys and values are small `Copy` types; accessors return values,
//! not references, which keeps the slot representation free to move
//! entries during backward shifts.

use pod_types::{Fingerprint, Pba};

/// Shard count (power of two). Eight shards keep the per-shard resize
/// pause under ~1/8 of a full rehash while the shard-select bits stay
/// cheap to extract.
const SHARDS: usize = 8;

/// Smallest per-shard slot allocation once a shard holds any entry.
const MIN_SLOTS: usize = 16;

/// Keys usable in a [`ShardedMap`]: cheap to copy, with a full-width
/// 64-bit hash whose low bits select the shard and high bits the slot.
pub trait TableKey: Copy + Eq {
    /// Well-mixed 64-bit hash of the key.
    fn hash64(&self) -> u64;
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TableKey for u64 {
    #[inline]
    fn hash64(&self) -> u64 {
        splitmix64(*self)
    }
}

impl TableKey for Fingerprint {
    #[inline]
    fn hash64(&self) -> u64 {
        // The prefix is the fingerprint's first 8 bytes; for synthetic
        // content ids that is the raw id, so it must be scrambled.
        splitmix64(self.prefix_u64())
    }
}

#[derive(Debug, Clone)]
struct Shard<K, V> {
    /// Linear-probe slot array; length is zero or a power of two.
    slots: Vec<Option<(K, V)>>,
    len: usize,
}

impl<K: TableKey, V: Copy> Shard<K, V> {
    const fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
        }
    }

    fn with_slots(n: usize) -> Self {
        Self {
            slots: vec![None; n],
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Slot index where `hash` starts probing.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        // High bits: the low bits already picked the shard.
        (hash >> 32) as usize & self.mask()
    }

    /// Find the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: &K, hash: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.home(hash);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if k == key => return Some(i),
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    /// Grow (or initially allocate) so at least one more entry fits
    /// under the load-factor cap.
    fn reserve_one(&mut self) {
        let cap = self.slots.len();
        // Load factor cap 7/8: linear probing stays short.
        if cap == 0 {
            *self = Self::with_slots(MIN_SLOTS);
        } else if (self.len + 1) * 8 > cap * 7 {
            let mut bigger = Self::with_slots(cap * 2);
            for entry in self.slots.drain(..).flatten() {
                bigger.insert_fresh(entry.0.hash64(), entry);
            }
            bigger.len = self.len;
            self.slots = bigger.slots;
        }
    }

    /// Insert an entry known not to be present; no growth, no len bump.
    #[inline]
    fn insert_fresh(&mut self, hash: u64, entry: (K, V)) {
        let mut i = self.home(hash);
        while self.slots[i].is_some() {
            i = (i + 1) & self.mask();
        }
        self.slots[i] = Some(entry);
    }

    fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.reserve_one();
        let hash = key.hash64();
        if let Some(i) = self.find(&key, hash) {
            let old = self.slots[i].as_mut().expect("found slot is occupied");
            return Some(std::mem::replace(&mut old.1, value));
        }
        self.insert_fresh(hash, (key, value));
        self.len += 1;
        None
    }

    fn get(&self, key: &K) -> Option<V> {
        self.find(key, key.hash64())
            .map(|i| self.slots[i].as_ref().expect("occupied").1)
    }

    fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.find(key, key.hash64())?;
        Some(&mut self.slots[i].as_mut().expect("occupied").1)
    }

    fn get_or_insert(&mut self, key: K, default: V) -> &mut V {
        let hash = key.hash64();
        if self.find(&key, hash).is_none() {
            self.reserve_one();
            self.insert_fresh(hash, (key, default));
            self.len += 1;
        }
        let i = self.find(&key, hash).expect("just inserted");
        &mut self.slots[i].as_mut().expect("occupied").1
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        let mut hole = self.find(key, key.hash64())?;
        let (_, v) = self.slots[hole].take().expect("occupied");
        self.len -= 1;
        // Backward-shift deletion: walk the probe chain after the hole,
        // moving back any entry whose home does not lie strictly between
        // the hole and the entry (cyclically) — i.e. entries the hole
        // would cut off from their probe path.
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let Some((k, _)) = &self.slots[j] else { break };
            let home = self.home(k.hash64());
            // Distance from home to its current slot vs. to the hole;
            // if the hole is on the way, shift the entry into it.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
        }
        Some(v)
    }
}

/// Sharded linear-probe hash map for small `Copy` keys and values.
#[derive(Debug, Clone)]
pub struct ShardedMap<K, V> {
    shards: [Shard<K, V>; SHARDS],
}

impl<K: TableKey, V: Copy> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: TableKey, V: Copy> ShardedMap<K, V> {
    /// Empty map; shards allocate lazily on first insert.
    pub fn new() -> Self {
        Self {
            shards: [const { Shard::new() }; SHARDS],
        }
    }

    /// Map pre-sized to hold `capacity` entries without resizing —
    /// the engine sizes its on-disk index from trace statistics up
    /// front so steady-state inserts never pause to rehash.
    pub fn with_capacity(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS);
        // Slots such that per_shard entries stay under the 7/8 cap.
        let slots = (per_shard * 8 / 7 + 1).next_power_of_two().max(MIN_SLOTS);
        Self {
            shards: std::array::from_fn(|_| Shard::with_slots(slots)),
        }
    }

    #[inline]
    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[(key.hash64() as usize) & (SHARDS - 1)]
    }

    #[inline]
    fn shard_mut(&mut self, key: &K) -> &mut Shard<K, V> {
        &mut self.shards[(key.hash64() as usize) & (SHARDS - 1)]
    }

    /// Insert, returning the previous value if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.shard_mut(&key).insert(key, value)
    }

    /// Value for `key`, copied out.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard(key).get(key)
    }

    /// Mutable access to the value for `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.shard_mut(key).get_mut(key)
    }

    /// Mutable access to the value for `key`, inserting `default` first
    /// if absent (the `entry().or_insert()` pattern).
    pub fn get_or_insert(&mut self, key: K, default: V) -> &mut V {
        self.shard_mut(&key).get_or_insert(key, default)
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.shard_mut(key).remove(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard(key).find(key, key.hash64()).is_some()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len).sum()
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(key, value)` pairs (copied), shard by shard.
    /// Order is deterministic for identical insert/remove histories but
    /// otherwise unspecified.
    pub fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.slots.iter().filter_map(|e| *e))
    }
}

/// Fingerprint → physical block map (the Full-Dedupe on-disk index).
pub type FpMap = ShardedMap<Fingerprint, Pba>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: ShardedMap<u64, u64> = ShardedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.get(&2), Some(20));
        assert_eq!(m.get(&3), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(&1), Some(11));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.get(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_or_insert_behaves_like_entry() {
        let mut m: ShardedMap<u64, u32> = ShardedMap::new();
        *m.get_or_insert(7, 0) += 1;
        *m.get_or_insert(7, 0) += 1;
        assert_eq!(m.get(&7), Some(2));
    }

    #[test]
    fn matches_std_hashmap_under_churn() {
        use std::collections::HashMap;
        let mut ours: ShardedMap<u64, u64> = ShardedMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Deterministic mixed workload with heavy remove churn and
        // colliding-ish keys (small range forces long probe chains).
        let mut x: u64 = 0x1234_5678;
        for step in 0..50_000u64 {
            x = splitmix64(x);
            let key = x % 512;
            match x % 3 {
                0 => {
                    assert_eq!(ours.insert(key, step), reference.insert(key, step));
                }
                1 => {
                    assert_eq!(ours.remove(&key), reference.remove(&key));
                }
                _ => {
                    assert_eq!(ours.get(&key), reference.get(&key).copied());
                }
            }
            assert_eq!(ours.len(), reference.len());
        }
        let mut got: Vec<(u64, u64)> = ours.iter().collect();
        let mut want: Vec<(u64, u64)> = reference.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn backward_shift_keeps_probe_chains_reachable() {
        // Force many keys into one shard/cluster, then delete from the
        // middle of the chain and verify the tail is still reachable.
        let mut m: ShardedMap<u64, u64> = ShardedMap::new();
        let keys: Vec<u64> = (0..200).collect();
        for &k in &keys {
            m.insert(k, k * 2);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(m.remove(&k), Some(k * 2));
        }
        for (i, &k) in keys.iter().enumerate() {
            let want = if i % 3 == 0 { None } else { Some(k * 2) };
            assert_eq!(m.get(&k), want, "key {k}");
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let m: ShardedMap<u64, u64> = ShardedMap::with_capacity(10_000);
        let slots: usize = m.shards.iter().map(|s| s.slots.len()).sum();
        assert!(slots * 7 / 8 >= 10_000, "{slots} slots for 10k entries");
    }

    #[test]
    fn fingerprint_keys_spread_over_shards() {
        let mut m: FpMap = FpMap::new();
        for id in 0..1_000u64 {
            m.insert(Fingerprint::from_content_id(id), Pba::new(id));
        }
        assert_eq!(m.len(), 1_000);
        // Sequential content ids must not pile into one shard.
        let occupied = m.shards.iter().filter(|s| s.len > 50).count();
        assert_eq!(
            occupied,
            SHARDS,
            "all shards carry load: {:?}",
            m.shards.iter().map(|s| s.len).collect::<Vec<_>>()
        );
        for id in 0..1_000u64 {
            assert_eq!(m.get(&Fingerprint::from_content_id(id)), Some(Pba::new(id)));
        }
    }

    #[test]
    fn iteration_is_deterministic_for_same_history() {
        let build = || {
            let mut m: ShardedMap<u64, u64> = ShardedMap::new();
            for k in 0..500 {
                m.insert(k, k);
            }
            for k in (0..500).step_by(7) {
                m.remove(&k);
            }
            m.iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
