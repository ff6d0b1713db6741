//! The iCache proper: read cache and its ghost, ghost-hit accounting and
//! cost-benefit repartitioning.
//!
//! Cost-benefit (paper §III-C): per epoch,
//!
//! * `benefit(index) = ghost_index_hits × write_miss_penalty` — each
//!   ghost-index hit is a redundant write the system failed to
//!   deduplicate for lack of index space;
//! * `benefit(read)  = ghost_read_hits × read_miss_penalty` — each
//!   ghost-read hit is a disk read a bigger read cache would have
//!   absorbed.
//!
//! The cache with the larger benefit grows by one swap step, the other
//! shrinks; spilled victims go to the ghosts and their data to the
//! reserved swap region (the returned [`Repartition`] carries the swap
//! traffic in blocks so the replay driver can charge it as disk I/O).
//!
//! The read cache and its ghost are one [`GhostedLru`]. The ghost index
//! lives behind the index table, in `pod-dedup`, which reports its hits
//! here ([`ICache::on_ghost_index_hits`]).

use pod_cache::{GhostState, GhostedLru, Lookup};
use pod_types::{Lba, BLOCK_BYTES, INDEX_ENTRY_BYTES};

/// LRU only (§III-C); kept because the benchmark harness names the `read_policy` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadCachePolicy {
    /// Least-recently-used (the paper's design).
    #[default]
    Lru,
}

/// Flat gauge snapshot of an [`ICache`] (see [`ICache::introspect`]):
/// the partition split, both ghost caches, and the cost-benefit inputs
/// of the most recently closed epoch. Benefits are exact integer
/// products (hits × penalty µs), so snapshots stay `Eq`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ICacheState {
    /// Index-cache budget, bytes.
    pub index_bytes: u64,
    /// Read-cache budget, bytes.
    pub read_bytes: u64,
    /// Index share of the live budget, per-mille.
    pub index_per_mille: u64,
    /// Epochs closed so far.
    pub epochs: u64,
    /// Repartitions performed so far.
    pub repartitions: u64,
    /// Blocks resident in the read cache.
    pub read_len: u64,
    /// Read-cache capacity in blocks.
    pub read_capacity: u64,
    /// Cumulative read-cache evictions (fill pressure plus shrinks).
    pub read_evictions: u64,
    /// Ghost read cache gauges (hits are cumulative).
    pub ghost_read: GhostState,
    /// Ghost index cache gauges (hits are cumulative).
    pub ghost_index: GhostState,
    /// Ghost read hits within the last closed epoch.
    pub epoch_ghost_read_hits: u64,
    /// Ghost index hits within the last closed epoch.
    pub epoch_ghost_index_hits: u64,
    /// Last epoch's read-side benefit: ghost read hits × read miss
    /// penalty, µs.
    pub benefit_read_us: u64,
    /// Last epoch's index-side benefit: ghost index hits × write miss
    /// penalty, µs.
    pub benefit_index_us: u64,
}

/// iCache configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ICacheConfig {
    /// Total DRAM budget split between index cache and read cache.
    pub total_bytes: u64,
    /// Initial fraction given to the index cache (paper's fixed-partition
    /// baseline uses 0.5).
    pub initial_index_fraction: f64,
    /// Requests per adaptation epoch.
    pub epoch_requests: u64,
    /// Fraction of the total budget moved per repartition step.
    pub swap_step_fraction: f64,
    /// Lower bound on either partition's fraction.
    pub min_fraction: f64,
    /// Ghost-hit benefit must exceed the other side by this factor
    /// before a swap happens (hysteresis against thrash).
    pub hysteresis: f64,
    /// Modeled penalty of a read miss, µs (one random disk access).
    pub read_miss_penalty_us: u64,
    /// Modeled penalty of a missed dedup opportunity, µs (the write that
    /// could have been eliminated).
    pub write_miss_penalty_us: u64,
    /// `false` freezes the partition (the paper's "Static" strategy,
    /// used by Fig. 3 and by the Select-Dedupe-only configuration).
    pub adaptive: bool,
    /// Read-cache replacement policy; LRU is the only one.
    pub read_policy: ReadCachePolicy,
}

impl ICacheConfig {
    /// Adaptive config over `total_bytes` with paper-flavoured defaults.
    pub fn adaptive(total_bytes: u64) -> Self {
        Self {
            total_bytes,
            initial_index_fraction: 0.5,
            epoch_requests: 2_000,
            swap_step_fraction: 0.10,
            min_fraction: 0.10,
            hysteresis: 1.2,
            read_miss_penalty_us: 8_000,
            write_miss_penalty_us: 8_000,
            adaptive: true,
            read_policy: ReadCachePolicy::Lru,
        }
    }
}

/// A partition change decided at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repartition {
    /// New index-cache budget in bytes.
    pub index_bytes: u64,
    /// New read-cache budget in bytes.
    pub read_bytes: u64,
    /// Blocks of data moved between memory and the reserved swap region
    /// (charged as sequential disk I/O by the replay driver).
    pub swap_blocks: u64,
    /// `true` when the index grew (write-intensive adaptation).
    pub index_grew: bool,
}

/// Ghost hits within one epoch: the two inputs of the §III-C
/// cost-benefit rule.
#[derive(Debug, Default, Clone, Copy)]
struct EpochHits {
    read: u64,
    index: u64,
}

/// The iCache: read cache and its ghost, the ghost hits of both sides,
/// the epoch clock, and the swap policy.
///
/// ```
/// use pod_icache::{ICache, ICacheConfig};
/// use pod_types::Lba;
///
/// let mut icache = ICache::new(ICacheConfig::adaptive(8 * 1024 * 1024));
/// assert_eq!(icache.index_bytes(), icache.read_bytes()); // 50/50 start
///
/// // Read path: miss, fetch, fill, hit.
/// assert!(!icache.read_lookup(Lba::new(42)));
/// icache.read_fill(Lba::new(42));
/// assert!(icache.read_lookup(Lba::new(42)));
/// ```
#[derive(Debug)]
pub struct ICache {
    cfg: ICacheConfig,
    index_bytes: u64,
    read_bytes: u64,
    /// The read cache and the ghost read cache behind it, keyed by LBA
    /// (or content key); a fill evicts at most one block, into the
    /// ghost.
    read: GhostedLru<u64, ()>,
    /// Requests noted in the open epoch.
    open_requests: u64,
    /// Ghost hits of the open epoch.
    open_hits: EpochHits,
    /// Ghost hits of the last closed epoch (zero before the first).
    closed_hits: EpochHits,
    epochs: u64,
    repartitions: u64,
    read_evictions: u64,
}

impl ICache {
    /// Build an iCache from a config.
    pub fn new(cfg: ICacheConfig) -> Self {
        let index_bytes = ((cfg.total_bytes as f64) * cfg.initial_index_fraction).round() as u64;
        let read_bytes = cfg.total_bytes - index_bytes;
        let read_entries = (read_bytes / BLOCK_BYTES) as usize;
        let ghost_read_entries = (cfg.total_bytes / BLOCK_BYTES) as usize;
        Self {
            index_bytes,
            read_bytes,
            read: GhostedLru::new(read_entries, ghost_read_entries),
            open_requests: 0,
            open_hits: EpochHits::default(),
            closed_hits: EpochHits::default(),
            epochs: 0,
            repartitions: 0,
            read_evictions: 0,
            cfg,
        }
    }

    /// Current index-cache budget (bytes).
    pub fn index_bytes(&self) -> u64 {
        self.index_bytes
    }

    /// Current read-cache budget (bytes).
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Index-cache share of the live budget, in `[0, 1]` (0 when the
    /// budget is empty — e.g. a scheme without a storage-node cache).
    pub fn index_fraction(&self) -> f64 {
        self.index_bytes as f64 / (self.index_bytes + self.read_bytes).max(1) as f64
    }

    /// Epochs closed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Repartitions performed so far.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Fingerprints the ghost index behind the index table may hold.
    /// Ghosts remember as many entries as the *whole* budget could hold:
    /// "The maximum size of an actual cache and its ghost cache is set
    /// to be equal to the total size of the DRAM" (Fig. 7).
    pub fn ghost_index_entries(&self) -> usize {
        (self.cfg.total_bytes / INDEX_ENTRY_BYTES) as usize
    }

    /// `true` when no request has been noted since the last epoch
    /// closed (and before the first request): right after
    /// [`ICache::note_request`], whether that request closed an epoch.
    pub fn at_epoch_boundary(&self) -> bool {
        self.open_requests == 0
    }

    /// Read-path lookup: `true` on a read-cache hit. On a miss, probes
    /// the ghost read cache (counting the would-have-hit) — call
    /// [`ICache::read_fill`] once the block has been fetched from disk.
    pub fn read_lookup(&mut self, lba: Lba) -> bool {
        self.read_lookup_key(lba.raw())
    }

    /// Install a fetched block in the read cache.
    pub fn read_fill(&mut self, lba: Lba) {
        self.read_fill_key(lba.raw());
    }

    /// Like [`ICache::read_lookup`] with an arbitrary cache key —
    /// content-addressed caches (I/O-Dedup) key blocks by fingerprint
    /// prefix so duplicate content shares one slot.
    pub fn read_lookup_key(&mut self, key: u64) -> bool {
        match self.read.lookup(&key) {
            Lookup::Hit => true,
            Lookup::Ghost => {
                self.open_hits.read += 1;
                false
            }
            Lookup::Miss => false,
        }
    }

    /// Like [`ICache::read_fill`] with an arbitrary cache key. The ghost
    /// is not probed: a block filled while its ghost is remembered is
    /// both until it is evicted again.
    pub fn read_fill_key(&mut self, key: u64) {
        // A zero-block cache's fill is its own victim, and counts as one.
        if self.read.insert(key, ()).is_some() {
            self.read_evictions += 1;
        }
    }

    /// Count ghost index hits: fingerprints that missed the index table
    /// but were found in the ghost index behind it
    /// (`IndexTable::probe_ghosts`).
    pub fn on_ghost_index_hits(&mut self, hits: u64) {
        self.open_hits.index += hits;
    }

    /// Note a request; at an epoch boundary, possibly decide a
    /// repartition. The caller applies the returned budgets to the index
    /// table and charges `swap_blocks` of I/O.
    ///
    /// Reads and writes count alike, so `_is_write` is unused; the
    /// parameter stays because the benchmark harness
    /// (`benchmark/src/drives.rs`) calls this method with it.
    pub fn note_request(&mut self, _is_write: bool) -> Option<Repartition> {
        self.open_requests += 1;
        if self.open_requests < self.cfg.epoch_requests {
            return None;
        }
        self.open_requests = 0;
        self.closed_hits = std::mem::take(&mut self.open_hits);
        self.epochs += 1;
        if self.cfg.adaptive {
            self.decide()
        } else {
            None
        }
    }

    fn decide(&mut self) -> Option<Repartition> {
        let hits = self.closed_hits;
        let benefit_index = hits.index as f64 * self.cfg.write_miss_penalty_us as f64;
        let benefit_read = hits.read as f64 * self.cfg.read_miss_penalty_us as f64;
        if benefit_index <= 0.0 && benefit_read <= 0.0 {
            return None;
        }

        let step = ((self.cfg.total_bytes as f64) * self.cfg.swap_step_fraction) as u64;
        let min_bytes = ((self.cfg.total_bytes as f64) * self.cfg.min_fraction) as u64;

        let (new_index, grew_index) = if benefit_index > benefit_read * self.cfg.hysteresis {
            // Write-intensive: grow the index cache.
            let room = self.read_bytes.saturating_sub(min_bytes);
            (self.index_bytes + step.min(room), true)
        } else if benefit_read > benefit_index * self.cfg.hysteresis {
            // Read-intensive: grow the read cache.
            let room = self.index_bytes.saturating_sub(min_bytes);
            (self.index_bytes - step.min(room), false)
        } else {
            return None;
        };

        if new_index == self.index_bytes {
            return None;
        }
        let moved = self.index_bytes.abs_diff(new_index);
        self.index_bytes = new_index;
        self.read_bytes = self.cfg.total_bytes - new_index;
        // Resize the read cache now; evicted blocks go to the ghost and
        // their data to the swap region.
        let read_entries = (self.read_bytes / BLOCK_BYTES) as usize;
        self.read_evictions += self.read.set_capacity(read_entries, |_, _| {});
        self.repartitions += 1;
        Some(Repartition {
            index_bytes: self.index_bytes,
            read_bytes: self.read_bytes,
            swap_blocks: moved / BLOCK_BYTES,
            index_grew: grew_index,
        })
    }

    /// Gauge snapshot: cheap, allocation-free, `Copy`. The ghost index
    /// lives behind the index table, which supplies its gauges.
    pub fn introspect(&self, ghost_index: GhostState) -> ICacheState {
        let EpochHits {
            read: egr,
            index: egi,
        } = self.closed_hits;
        ICacheState {
            index_bytes: self.index_bytes,
            read_bytes: self.read_bytes,
            index_per_mille: self.index_bytes * 1000 / (self.index_bytes + self.read_bytes).max(1),
            epochs: self.epochs,
            repartitions: self.repartitions,
            read_len: self.read.len() as u64,
            read_capacity: self.read.capacity() as u64,
            read_evictions: self.read_evictions,
            ghost_read: self.read.ghost_state(),
            ghost_index,
            epoch_ghost_read_hits: egr,
            epoch_ghost_index_hits: egi,
            benefit_read_us: egr * self.cfg.read_miss_penalty_us,
            benefit_index_us: egi * self.cfg.write_miss_penalty_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(total: u64) -> ICacheConfig {
        ICacheConfig {
            epoch_requests: 10,
            ..ICacheConfig::adaptive(total)
        }
    }

    const MB: u64 = 1024 * 1024;

    #[test]
    fn initial_split_is_even() {
        let c = ICache::new(cfg(8 * MB));
        assert_eq!(c.index_bytes(), 4 * MB);
        assert_eq!(c.read_bytes(), 4 * MB);
    }

    #[test]
    fn fixed_partition_never_repartitions() {
        let mut c = ICache::new(ICacheConfig {
            epoch_requests: 5,
            adaptive: false,
            initial_index_fraction: 0.3,
            ..ICacheConfig::adaptive(8 * MB)
        });
        assert!((c.index_bytes() as f64 / (8.0 * MB as f64) - 0.3).abs() < 0.01);
        // Heavy ghost traffic, but adaptation is off.
        for _ in 0..100u64 {
            c.on_ghost_index_hits(1);
            assert!(c.note_request(true).is_none());
        }
        assert_eq!(c.repartitions(), 0);
    }

    #[test]
    fn read_cache_hit_miss_and_fill() {
        let mut c = ICache::new(cfg(8 * MB));
        assert!(!c.read_lookup(Lba::new(1)));
        c.read_fill(Lba::new(1));
        assert!(c.read_lookup(Lba::new(1)));
    }

    #[test]
    fn ghost_read_hit_counts_once() {
        // Tiny read cache: half of 4 blocks = 2 block entries.
        let mut c = ICache::new(cfg(4 * BLOCK_BYTES));
        c.read_fill(Lba::new(1));
        c.read_fill(Lba::new(2));
        c.read_fill(Lba::new(3)); // evicts 1 into ghost
        assert!(!c.read_lookup(Lba::new(1)), "miss after eviction");
        assert_eq!(c.introspect(GhostState::default()).ghost_read.hits, 1);
    }

    #[test]
    fn write_burst_grows_index_cache() {
        let mut c = ICache::new(cfg(8 * MB));
        let before = c.index_bytes();
        let mut repart = None;
        for _ in 0..10u64 {
            // Ghost index hits dominate: evict then miss the same fp.
            c.on_ghost_index_hits(1);
            repart = c.note_request(true).or(repart);
        }
        let r = repart.expect("epoch boundary must repartition");
        assert!(r.index_grew);
        assert!(r.index_bytes > before);
        assert_eq!(r.index_bytes + r.read_bytes, 8 * MB);
        assert!(r.swap_blocks > 0);
        assert_eq!(c.index_bytes(), r.index_bytes);
    }

    #[test]
    fn read_burst_grows_read_cache() {
        let mut c = ICache::new(cfg(8 * MB));
        let before_read = c.read_bytes();
        // Force ghost-read hits: fill tiny? read cache is 1024 blocks at
        // 4MB... instead seed ghost directly through eviction pressure.
        let entries = (c.read_bytes() / BLOCK_BYTES) as usize;
        for i in 0..entries as u64 + 5 {
            c.read_fill(Lba::new(i));
        }
        let mut repart = None;
        for i in 0..10u64 {
            // The first few lbas were evicted into the ghost: probe them.
            c.read_lookup(Lba::new(i));
            repart = c.note_request(false).or(repart);
        }
        let r = repart.expect("repartition");
        assert!(!r.index_grew);
        assert!(r.read_bytes > before_read);
    }

    #[test]
    fn min_fraction_floor_is_respected() {
        let mut c = ICache::new(ICacheConfig {
            epoch_requests: 2,
            swap_step_fraction: 0.5,
            min_fraction: 0.2,
            ..ICacheConfig::adaptive(10 * MB)
        });
        // Relentless write pressure for many epochs.
        for _ in 0..400u64 {
            c.on_ghost_index_hits(1);
            c.note_request(true);
        }
        assert!(
            c.read_bytes() >= 2 * MB,
            "read cache must keep min fraction: {}",
            c.read_bytes()
        );
        assert_eq!(c.index_bytes() + c.read_bytes(), 10 * MB);
    }

    #[test]
    fn balanced_pressure_does_not_thrash() {
        let mut c = ICache::new(cfg(8 * MB));
        // Equal ghost hits on both sides: hysteresis suppresses swapping.
        let entries = (c.read_bytes() / BLOCK_BYTES) as usize;
        for i in 0..entries as u64 + 50 {
            c.read_fill(Lba::new(i));
        }
        for i in 0..10u64 {
            c.on_ghost_index_hits(1);
            c.read_lookup(Lba::new(i)); // ghost read hit
            assert!(c.note_request(i % 2 == 0).is_none());
        }
        assert_eq!(c.repartitions(), 0);
    }

    #[test]
    fn quiet_epoch_no_decision() {
        let mut c = ICache::new(cfg(8 * MB));
        for _ in 0..10 {
            assert!(c.note_request(true).is_none());
        }
        assert_eq!(c.epochs(), 1);
        assert!(c.at_epoch_boundary());
    }

    #[test]
    fn epoch_gauges_show_only_the_last_closed_epoch() {
        // Static partition with a 2-block read cache: no repartition.
        let mut c = ICache::new(ICacheConfig {
            adaptive: false,
            ..cfg(4 * BLOCK_BYTES)
        });
        // (epochs, last closed epoch's ghost read / index hits, closed)
        let gauges = |c: &ICache| {
            let st = c.introspect(GhostState::default());
            let closed = c.at_epoch_boundary();
            let hits = (st.epoch_ghost_read_hits, st.epoch_ghost_index_hits);
            (st.epochs, hits, closed)
        };
        // Epoch 1: one ghost read hit and three ghost index hits.
        for lba in 1..=3 {
            c.read_fill(Lba::new(lba)); // the third fill evicts block 1
        }
        c.read_lookup(Lba::new(1));
        c.on_ghost_index_hits(3);
        for _ in 0..10 {
            c.note_request(true);
        }
        // Epoch 2 opens with one ghost index hit: not shown yet.
        c.on_ghost_index_hits(1);
        c.note_request(true);
        assert_eq!(gauges(&c), (1, (1, 3), false));
        for _ in 1..10 {
            c.note_request(false);
        }
        assert_eq!(gauges(&c), (2, (0, 1), true), "epoch 2 replaces epoch 1");
    }

    #[test]
    fn introspect_reflects_partition_and_ghosts() {
        let mut c = ICache::new(cfg(8 * MB));
        let st0 = c.introspect(GhostState::default());
        assert_eq!(st0.index_per_mille, 500);
        assert_eq!(st0.read_capacity, 4 * MB / BLOCK_BYTES);
        assert_eq!(st0.benefit_index_us, 0, "no epoch closed yet");
        // A write-heavy epoch grows the index and leaves benefit gauges.
        for _ in 0..10u64 {
            c.on_ghost_index_hits(1);
            c.note_request(true);
        }
        let st = c.introspect(GhostState::default());
        assert!(st.index_per_mille > 500);
        assert_eq!(st.epochs, 1);
        assert_eq!(st.repartitions, 1);
        assert_eq!(st.epoch_ghost_index_hits, 10);
        assert_eq!(
            st.benefit_index_us,
            10 * ICacheConfig::adaptive(8 * MB).write_miss_penalty_us
        );
        assert_eq!(st.index_bytes + st.read_bytes, 8 * MB);
    }

    #[test]
    fn read_evictions_count_fills_and_shrinks() {
        let mut c = ICache::new(cfg(40 * BLOCK_BYTES)); // 20-block read cache
        for i in 0..21u64 {
            c.read_fill(Lba::new(i)); // the 21st fill evicts block 0
        }
        let st = c.introspect(GhostState::default());
        assert_eq!(st.read_evictions, 1);
        assert_eq!(st.read_len, 20);
        assert_eq!(st.ghost_read.len, 1);
        assert!(c.read.ghost_keys().any(|&k| k == 0));

        // A write-heavy epoch grows the index by one 4-block step, so
        // the read cache sheds its four least recent blocks: 1..=4.
        for _ in 0..10u64 {
            c.on_ghost_index_hits(1);
            c.note_request(true);
        }
        let st = c.introspect(GhostState::default());
        assert_eq!(st.repartitions, 1);
        assert_eq!(st.read_capacity, 16);
        assert_eq!(st.read_len, st.read_capacity);
        assert_eq!(st.read_evictions, 1 + 4);
        assert_eq!(st.ghost_read.len, 1 + 4);
        for victim in 0..=4u64 {
            assert!(
                c.read.ghost_keys().any(|&k| k == victim),
                "block {victim} in ghost"
            );
        }
        assert!(c.read_lookup(Lba::new(5)), "block 5 survives the shrink");
    }

    #[test]
    fn epoch_counter_advances() {
        let mut c = ICache::new(cfg(8 * MB));
        for _ in 0..35 {
            c.note_request(false);
        }
        assert_eq!(c.epochs(), 3);
    }
}
