//! Property-based tests (proptest) on the core invariants, spanning
//! crates through the public API.

use pod::cache::LruCache;
use pod::dedup::{
    ChunkStore, ClassKind, DedupConfig, DedupEngine, DedupPolicy, IndexTable, WriteScratch,
    INDEX_ENTRY_BYTES,
};
use pod::trace::reconstruct::{reconstruct_requests, split_into_records};
use pod::types::{log2_bucket8, Fingerprint, IoRequest, Lba, Pba, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// LruCache: model-based check against a naive reference.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u8, u32),
    /// The one-probe form; its update adds instead of overwriting, so a
    /// hit is told apart from `Insert`.
    Upsert(u8, u32),
    Get(u8),
    GetMut(u8, u32),
    Peek(u8),
    Contains(u8),
    Remove(u8),
    PopLru,
    Resize(u8),
    Clear,
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    // Inserts are listed twice: the cache has to fill past 8, 16 and 32
    // entries for its table to double mid-sequence.
    prop_oneof![
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| CacheOp::Insert(k, v)),
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| CacheOp::Insert(k, v)),
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| CacheOp::Upsert(k, v)),
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| CacheOp::Upsert(k, v)),
        any::<u8>().prop_map(CacheOp::Get),
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| CacheOp::GetMut(k, v)),
        any::<u8>().prop_map(CacheOp::Peek),
        any::<u8>().prop_map(CacheOp::Contains),
        any::<u8>().prop_map(CacheOp::Remove),
        Just(CacheOp::PopLru),
        // Grow and shrink, including to 0. `Clear` rides on the same
        // arm so the cache is not emptied too often to fill up.
        (0u8..120).prop_map(|c| if c == 119 {
            CacheOp::Clear
        } else {
            CacheOp::Resize(c)
        }),
    ]
}

/// A key whose `Hash` writes a constant: every key shares one tag and
/// one home slot, so the whole cache is a single probe chain that wraps
/// around the table's end, and every delete shifts across the wrap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OneChainKey(u8);

impl std::hash::Hash for OneChainKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::MAX);
    }
}

/// A key hashing to `k & 3`: four tags, four interleaved chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FourChainKey(u8);

impl std::hash::Hash for FourChainKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.0 & 3));
    }
}

/// Naive LRU: Vec ordered MRU-first.
#[derive(Default)]
struct ModelLru {
    items: Vec<(u8, u32)>,
    cap: usize,
    evictions: u64,
}

impl ModelLru {
    fn position(&self, k: u8) -> Option<usize> {
        self.items.iter().position(|(key, _)| *key == k)
    }
    fn touch(&mut self, k: u8) -> Option<&mut u32> {
        let pos = self.position(k)?;
        let item = self.items.remove(pos);
        self.items.insert(0, item);
        Some(&mut self.items[0].1)
    }
    /// Insert or, on a hit, `update`; returns the evicted (or bounced)
    /// entry like `LruCache::upsert`.
    fn upsert(&mut self, k: u8, v: u32, update: fn(&mut u32, u32)) -> Option<(u8, u32)> {
        if let Some(slot) = self.touch(k) {
            update(slot, v);
            return None;
        }
        if self.cap == 0 {
            return Some((k, v));
        }
        let victim = if self.items.len() >= self.cap {
            self.pop_lru()
        } else {
            None
        };
        self.items.insert(0, (k, v));
        victim
    }
    fn remove(&mut self, k: u8) -> Option<u32> {
        let pos = self.position(k)?;
        Some(self.items.remove(pos).1)
    }
    fn pop_lru(&mut self) -> Option<(u8, u32)> {
        let victim = self.items.pop()?;
        self.evictions += 1;
        Some(victim)
    }
    fn resize(&mut self, cap: usize) -> Vec<(u8, u32)> {
        self.cap = cap;
        let mut spilled = Vec::new();
        while self.items.len() > cap {
            spilled.extend(self.pop_lru());
        }
        spilled
    }
}

/// Run `ops` against an `LruCache<K, u32>` and the model side by side,
/// comparing every return value and, after every op, `len`,
/// `evictions` and the full MRU→LRU order.
fn check_lru_against_model<K>(
    key: fn(u8) -> K,
    cap: usize,
    ops: &[CacheOp],
) -> Result<(), TestCaseError>
where
    K: Copy + Eq + std::hash::Hash + std::fmt::Debug,
{
    let keyed = |entry: Option<(u8, u32)>| entry.map(|(k, v)| (key(k), v));
    let mut real = LruCache::<K, u32>::new(cap);
    let mut model = ModelLru {
        cap,
        ..ModelLru::default()
    };
    for op in ops {
        match *op {
            CacheOp::Insert(k, v) => {
                let want = model.upsert(k, v, |old, new| *old = new);
                prop_assert_eq!(real.insert(key(k), v), keyed(want));
            }
            CacheOp::Upsert(k, v) => {
                let add: fn(&mut u32, u32) = |old, new| *old = old.wrapping_add(new);
                let want = model.upsert(k, v, add);
                prop_assert_eq!(real.upsert(key(k), v, add), keyed(want));
            }
            CacheOp::Get(k) => {
                let want = model.touch(k).copied();
                prop_assert_eq!(real.get(&key(k)).copied(), want);
            }
            CacheOp::GetMut(k, v) => {
                let got = real.get_mut(&key(k)).map(|slot| std::mem::replace(slot, v));
                let want = model.touch(k).map(|slot| std::mem::replace(slot, v));
                prop_assert_eq!(got, want);
            }
            CacheOp::Peek(k) => {
                let want = model.position(k).map(|pos| model.items[pos].1);
                prop_assert_eq!(real.peek(&key(k)).copied(), want);
            }
            CacheOp::Contains(k) => {
                prop_assert_eq!(real.contains(&key(k)), model.position(k).is_some());
            }
            CacheOp::Remove(k) => {
                prop_assert_eq!(real.remove(&key(k)), model.remove(k));
            }
            CacheOp::PopLru => {
                prop_assert_eq!(real.pop_lru(), keyed(model.pop_lru()));
            }
            CacheOp::Resize(c) => {
                let want: Vec<(K, u32)> = model
                    .resize(c as usize)
                    .into_iter()
                    .map(|(k, v)| (key(k), v))
                    .collect();
                prop_assert_eq!(real.set_capacity(c as usize), want);
                prop_assert_eq!(real.capacity(), c as usize);
            }
            CacheOp::Clear => {
                real.clear();
                model.items.clear();
            }
        }
        prop_assert_eq!(real.len(), model.items.len());
        prop_assert_eq!(real.evictions(), model.evictions);
        // Full order check: MRU -> LRU.
        let real_order: Vec<(K, u32)> = real.iter().map(|(k, v)| (*k, *v)).collect();
        let model_order: Vec<(K, u32)> = model.items.iter().map(|&(k, v)| (key(k), v)).collect();
        prop_assert_eq!(real_order, model_order);
    }
    Ok(())
}

proptest! {
    #[test]
    fn lru_matches_reference_model(
        cap in 0usize..80,
        ops in proptest::collection::vec(cache_op(), 1..400),
    ) {
        check_lru_against_model(|k| k, cap, &ops)?;
        check_lru_against_model(OneChainKey, cap, &ops)?;
        check_lru_against_model(FourChainKey, cap, &ops)?;
    }
}

// ---------------------------------------------------------------------
// IndexTable: the incremental heat histogram against a recount.
// ---------------------------------------------------------------------

/// Distinct fingerprints an index op sequence draws from: few enough
/// that queries heat entries into the upper buckets.
const INDEX_KEYS: u8 = 24;

#[derive(Debug, Clone)]
enum IndexOp {
    /// Query a fingerprint this many times.
    Query(u8, u8),
    Insert(u8, u16),
    Upsert(u8, u16),
    Remove(u8),
    /// Resize to this many entries (0 included).
    Resize(u8),
}

fn index_op() -> impl Strategy<Value = IndexOp> {
    // Queries are listed twice so that entries heat up between resets.
    prop_oneof![
        (0..INDEX_KEYS, 1u8..40).prop_map(|(k, n)| IndexOp::Query(k, n)),
        (0..INDEX_KEYS, 1u8..40).prop_map(|(k, n)| IndexOp::Query(k, n)),
        (0..INDEX_KEYS, any::<u16>()).prop_map(|(k, p)| IndexOp::Insert(k, p)),
        (0..INDEX_KEYS, any::<u16>()).prop_map(|(k, p)| IndexOp::Upsert(k, p)),
        (0..INDEX_KEYS).prop_map(IndexOp::Remove),
        (0u8..30).prop_map(IndexOp::Resize),
    ]
}

proptest! {
    #[test]
    fn index_heat_equals_a_recount(
        cap in 0usize..30,
        ops in proptest::collection::vec(index_op(), 1..300),
    ) {
        let fp = |k: u8| Fingerprint::from_content_id(u64::from(k));
        let mut t = IndexTable::with_byte_budget(cap as u64 * INDEX_ENTRY_BYTES);
        for op in &ops {
            match *op {
                IndexOp::Query(k, n) => {
                    for _ in 0..n {
                        t.query(&fp(k));
                    }
                }
                IndexOp::Insert(k, p) => {
                    t.insert(fp(k), Pba::new(p.into()));
                }
                IndexOp::Upsert(k, p) => {
                    t.upsert(fp(k), Pba::new(p.into()));
                }
                IndexOp::Remove(k) => {
                    t.remove(&fp(k));
                }
                IndexOp::Resize(c) => {
                    t.resize_bytes(u64::from(c) * INDEX_ENTRY_BYTES);
                }
            }
            // Every key the ops can name is peeked, so this visits
            // every entry. With at most 30 entries it is also what
            // the old walk over the 4,096 most recent entries saw.
            let mut recount = [0u64; 8];
            let mut entries = 0;
            for e in (0..INDEX_KEYS).filter_map(|k| t.peek(&fp(k))) {
                recount[log2_bucket8(e.count.into())] += 1;
                entries += 1;
            }
            prop_assert_eq!(entries, t.len(), "every entry peeked");
            prop_assert_eq!(t.heat(), recount, "after {:?}", op);
        }
    }
}

// ---------------------------------------------------------------------
// ChunkStore: invariants and content correctness under random ops.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum StoreOp {
    /// Write fresh content to an LBA.
    Write(u8, u16),
    /// Dedup an LBA onto whatever another LBA currently maps to.
    DedupOnto(u8, u8),
}

fn store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(l, c)| StoreOp::Write(l, c)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| StoreOp::DedupOnto(a, b)),
    ]
}

/// The stores every `StoreOp` sequence runs against, each with the
/// stride that turns an op's `u8` into an LBA: a small one whose state
/// fits one table page, and one whose strided LBAs (0..=20,145) and
/// overflow region (PBAs 20,480..) straddle several 4,096-block pages.
fn store_cases() -> [(ChunkStore, u64); 2] {
    [
        (ChunkStore::new(256, 4_096), 1),
        (ChunkStore::new(20_480, 8_192), 79),
    ]
}

proptest! {
    #[test]
    fn chunk_store_invariants_hold(
        ops in proptest::collection::vec(store_op(), 1..300),
    ) {
        for (mut store, stride) in store_cases() {
            let at = |lba: u8| Lba::new(lba as u64 * stride);
            // Logical truth: what content should each LBA hold?
            let mut truth: HashMap<u8, Fingerprint> = HashMap::new();
            for op in &ops {
                match *op {
                    StoreOp::Write(lba, content) => {
                        let fp = Fingerprint::from_content_id(content as u64);
                        store
                            .write_unique(at(lba), fp, None)
                            .expect("write never fails with ample overflow");
                        truth.insert(lba, fp);
                    }
                    StoreOp::DedupOnto(dst, src) => {
                        if let Some(pba) = store.lookup(at(src)) {
                            let fp = store.content_at(pba).expect("mapped block is live");
                            store
                                .dedup_to(at(dst), pba)
                                .expect("dedup onto live block succeeds");
                            truth.insert(dst, fp);
                        }
                    }
                }
                store.check_invariants().expect("invariants after every op");
            }
            // Content correctness: every written LBA reads back its last
            // written content — dedup must never corrupt.
            for (lba, want) in &truth {
                let pba = store.lookup(at(*lba)).expect("written lba mapped");
                prop_assert_eq!(store.content_at(pba), Some(*want), "lba {}", lba);
            }
            // Crash recovery: replaying the NVRAM journal reproduces exactly
            // the live redirected mapping; checkpointing preserves it.
            store.verify_journal_recovery().expect("journal recovers the Map table");
            store.checkpoint_journal();
            store.verify_journal_recovery().expect("checkpoint preserves recovery");
        }
    }
}

// ---------------------------------------------------------------------
// Dedup engines: content round-trip through every policy.
// ---------------------------------------------------------------------

fn arb_write_requests() -> impl Strategy<Value = Vec<(u8, Vec<u16>)>> {
    proptest::collection::vec(
        (any::<u8>(), proptest::collection::vec(0u16..64, 1..12)),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn every_policy_preserves_content(
        writes in arb_write_requests(),
    ) {
        for policy in [
            DedupPolicy::Native,
            DedupPolicy::FullDedupe,
            DedupPolicy::IDedup,
            DedupPolicy::SelectDedupe,
        ] {
            let mut engine = DedupEngine::new(
                policy,
                DedupConfig {
                    logical_blocks: 1_024,
                    overflow_blocks: 8_192,
                    index_page_fault_rate: 1,
                    ..DedupConfig::default()
                },
            );
            let mut scratch = WriteScratch::new();
            let mut truth: HashMap<u64, Fingerprint> = HashMap::new();
            for (i, (lba, contents)) in writes.iter().enumerate() {
                let lba = *lba as u64;
                let chunks: Vec<Fingerprint> = contents
                    .iter()
                    .map(|&c| Fingerprint::from_content_id(c as u64))
                    .collect();
                let req = IoRequest::write(
                    i as u64,
                    SimTime::from_micros(i as u64),
                    Lba::new(lba),
                    chunks.clone(),
                );
                engine.process_write_into(&req, &mut scratch).expect("write processed");
                for (off, fp) in chunks.iter().enumerate() {
                    truth.insert(lba + off as u64, *fp);
                }
                engine.store().check_invariants().expect("store invariants");
            }
            // Every logical block reads back the last content written.
            for (&lba, &want) in &truth {
                let pba = engine
                    .store()
                    .lookup(Lba::new(lba))
                    .expect("written lba is mapped");
                prop_assert_eq!(
                    engine.store().content_at(pba),
                    Some(want),
                    "policy {:?}, lba {}",
                    policy,
                    lba
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Classification sanity on arbitrary candidate patterns.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn select_dedup_ranges_only_cover_candidates(
        cands in proptest::collection::vec(proptest::option::of(0u64..100), 1..24),
        threshold in 1usize..6,
    ) {
        let candidates: Vec<Option<Pba>> =
            cands.iter().map(|c| c.map(Pba::new)).collect();
        let (mut runs, mut ranges) = (Vec::new(), Vec::new());
        pod::dedup::classify::classify_for_select_into(&candidates, threshold, &mut runs, &mut ranges);
        for &(start, len) in &ranges {
            prop_assert!(start + len <= candidates.len());
            for c in &candidates[start..start + len] {
                prop_assert!(c.is_some(), "dedup range covers non-candidate");
            }
            // Every deduped range is physically sequential.
            for w in candidates[start..start + len].windows(2) {
                prop_assert_eq!(w[0].expect("cand").raw() + 1, w[1].expect("cand").raw());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Select-Dedupe classification invariants (paper Fig. 5, T = 3):
// Cat-1 removes the whole request, Cat-2 writes everything, Cat-3 only
// dedups sequential runs of at least the threshold.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn select_dedupe_class_invariants_hold_through_the_engine(
        writes in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(0u16..48, 1..12)),
            1..80,
        ),
    ) {
        const T: usize = 3;
        let mut engine = DedupEngine::new(
            DedupPolicy::SelectDedupe,
            DedupConfig {
                logical_blocks: 1_024,
                overflow_blocks: 8_192,
                index_page_fault_rate: 1,
                select_threshold: T,
                ..DedupConfig::default()
            },
        );
        let mut scratch = WriteScratch::new();
        for (i, (lba, contents)) in writes.iter().enumerate() {
            let chunks: Vec<Fingerprint> = contents
                .iter()
                .map(|&c| Fingerprint::from_content_id(c as u64))
                .collect();
            let n = chunks.len() as u32;
            let req = IoRequest::write(
                i as u64,
                SimTime::from_micros(i as u64),
                Lba::new(*lba as u64),
                chunks,
            );
            let out = engine.process_write_into(&req, &mut scratch).expect("write processed");
            prop_assert_eq!(
                out.deduped_blocks + out.written_blocks, n,
                "every chunk is either deduped or written"
            );
            match out.kind {
                ClassKind::FullyRedundantSequential => {
                    // Cat-1: the request vanishes from the disk stream.
                    prop_assert_eq!(out.written_blocks, 0);
                    prop_assert_eq!(out.deduped_blocks, n);
                    prop_assert!(out.removed);
                    prop_assert!(scratch.write_extents.is_empty());
                }
                ClassKind::ScatteredPartial => {
                    // Cat-2: scattered redundancy is written anyway.
                    prop_assert_eq!(out.deduped_blocks, 0);
                    prop_assert_eq!(out.written_blocks, n);
                    prop_assert!(!out.removed);
                }
                ClassKind::ContiguousPartial => {
                    // Cat-3: only runs of >= T chunks are deduplicated.
                    let ranges = scratch.dedup_ranges();
                    prop_assert!(!ranges.is_empty());
                    let mut deduped = 0u32;
                    for &(start, len) in ranges {
                        prop_assert!(len >= T, "run below threshold deduped");
                        prop_assert!(start + len <= n as usize);
                        deduped += len as u32;
                    }
                    prop_assert_eq!(out.deduped_blocks, deduped);
                    prop_assert!(!out.removed);
                }
                ClassKind::Unique => {
                    prop_assert_eq!(out.deduped_blocks, 0);
                    prop_assert_eq!(out.written_blocks, n);
                    prop_assert!(!out.removed);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Refcount pinning (paper §III-B): a physical block with a live
// reference count is never reclaimed or overwritten — under arbitrary
// write/overwrite/dedup interleavings, every logical block keeps
// reading back the content last written to it, checked after EVERY op
// (the store's consistency rule: "prevent the referenced data from
// being overwritten and updated").
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn refcounted_blocks_are_never_reclaimed(
        ops in proptest::collection::vec(store_op(), 1..200),
    ) {
        for (mut store, stride) in store_cases() {
            let at = |lba: u8| Lba::new(lba as u64 * stride);
            let mut truth: HashMap<u8, Fingerprint> = HashMap::new();
            for op in &ops {
                match *op {
                    StoreOp::Write(lba, content) => {
                        // Overwriting an LBA whose home is pinned by other
                        // references must redirect, not clobber.
                        let fp = Fingerprint::from_content_id(content as u64);
                        store
                            .write_unique(at(lba), fp, None)
                            .expect("write never fails with ample overflow");
                        truth.insert(lba, fp);
                    }
                    StoreOp::DedupOnto(dst, src) => {
                        if let Some(pba) = store.lookup(at(src)) {
                            let fp = store.content_at(pba).expect("mapped block is live");
                            store
                                .dedup_to(at(dst), pba)
                                .expect("dedup onto live block succeeds");
                            truth.insert(dst, fp);
                        }
                    }
                }
                // The pinning property, after every single op: each live
                // logical block still resolves to its last-written content,
                // and the physical block it resolves to is refcount-pinned.
                for (lba, want) in &truth {
                    let pba = store
                        .lookup(at(*lba))
                        .expect("written lba stays mapped");
                    prop_assert!(
                        store.refcount(pba) >= 1,
                        "lba {} maps to unreferenced pba {:?}",
                        lba,
                        pba
                    );
                    prop_assert_eq!(
                        store.content_at(pba),
                        Some(*want),
                        "pinned pba {:?} was reclaimed under lba {}",
                        pba,
                        lba
                    );
                }
            }
            store.check_invariants().expect("refcounts consistent at the end");
        }
    }
}

// ---------------------------------------------------------------------
// ArraySim: liveness, causality, conservation, determinism.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SimJob {
    at_us: u64,
    pba: u64,
    nblocks: u8,
    write: bool,
}

fn sim_job() -> impl Strategy<Value = SimJob> {
    (0u64..100_000, 0u64..8_000, 1u8..32, any::<bool>()).prop_map(|(at_us, pba, nblocks, write)| {
        SimJob {
            at_us,
            pba,
            nblocks,
            write,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn array_sim_jobs_complete_causally(
        mut jobs in proptest::collection::vec(sim_job(), 1..60),
        sched_pick in 0u8..3,
    ) {
        use pod::disk::{ArraySim, DiskSpec, RaidConfig, RaidGeometry, SchedulerKind};
        jobs.sort_by_key(|j| j.at_us);
        let sched = match sched_pick {
            0 => SchedulerKind::Fifo,
            1 => SchedulerKind::Sstf,
            _ => SchedulerKind::Elevator,
        };
        let run = |jobs: &[SimJob]| {
            let mut sim = ArraySim::new(
                RaidGeometry::new(RaidConfig::paper_raid5()),
                DiskSpec::test_disk(),
                sched,
            );
            let handles: Vec<_> = jobs
                .iter()
                .map(|j| {
                    let at = SimTime::from_micros(j.at_us);
                    let h = if j.write {
                        sim.submit_write(at, Pba::new(j.pba), j.nblocks as u32)
                    } else {
                        sim.submit_read(at, Pba::new(j.pba), j.nblocks as u32)
                    };
                    (h, at)
                })
                .collect();
            sim.run_to_idle();
            let completions: Vec<u64> = handles
                .iter()
                .map(|(h, at)| {
                    let done = sim.job_completion(*h).expect("all jobs complete");
                    assert!(done >= *at, "completion before submission");
                    done.as_micros()
                })
                .collect();
            (completions, sim.total_blocks_read(), sim.total_blocks_written())
        };
        let (a, reads_a, writes_a) = run(&jobs);
        let (b, reads_b, writes_b) = run(&jobs);
        // Determinism: identical runs produce identical timings & stats.
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(reads_a, reads_b);
        prop_assert_eq!(writes_a, writes_b);
        // Conservation: every write job moves at least its data blocks
        // (parity and RMW pre-reads only add).
        let submitted_write_blocks: u64 = jobs
            .iter()
            .filter(|j| j.write)
            .map(|j| j.nblocks as u64)
            .sum();
        prop_assert!(writes_a >= submitted_write_blocks);
    }
}

// ---------------------------------------------------------------------
// Degraded-mode RAID-5: liveness under arbitrary failure points.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn degraded_raid5_always_completes(
        jobs in proptest::collection::vec(sim_job(), 1..40),
        victim in 0usize..4,
        fail_after in 0usize..40,
    ) {
        use pod::disk::{ArraySim, DiskSpec, RaidConfig, RaidGeometry, SchedulerKind};
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|j| j.at_us);
        let mut sim = ArraySim::new(
            RaidGeometry::new(RaidConfig::paper_raid5()),
            DiskSpec::test_disk(),
            SchedulerKind::Fifo,
        );
        let mut handles = Vec::new();
        for (i, j) in sorted.iter().enumerate() {
            if i == fail_after.min(sorted.len() - 1) {
                sim.fail_disk(victim).expect("raid5 tolerates one failure");
            }
            let at = SimTime::from_micros(j.at_us);
            let h = if j.write {
                sim.submit_write(at, Pba::new(j.pba), j.nblocks as u32)
            } else {
                sim.submit_read(at, Pba::new(j.pba), j.nblocks as u32)
            };
            handles.push((h, at));
        }
        sim.run_to_idle();
        for (h, at) in handles {
            let done = sim.job_completion(h).expect("degraded jobs still complete");
            prop_assert!(done >= at);
        }
        // The failed member serviced nothing after the failure point...
        // (ops before it may exist, so only assert the sim is degraded.)
        prop_assert!(sim.is_degraded());
    }
}

// ---------------------------------------------------------------------
// Host profile: folded-stack round trip.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn host_profile_folded_roundtrip(
        scopes in proptest::collection::vec((0usize..9, 0u64..5_000_000_000), 0..200),
    ) {
        use pod::core::{HostProfile, ProfPhase};
        let mut prof = HostProfile::new();
        for (idx, ns) in &scopes {
            prof.record(ProfPhase::ALL[*idx], *ns);
        }
        // Folded stacks: per-phase totals survive, frames are
        // `pod;<layer>;<phase>`, grand total is conserved.
        let mut folded = String::new();
        prof.write_folded(&mut folded);
        let stacks = HostProfile::parse_folded(&folded).expect("folded parses back");
        let recorded_phases = ProfPhase::ALL
            .into_iter()
            .filter(|p| prof.phase(*p).count > 0)
            .count();
        prop_assert_eq!(stacks.len(), recorded_phases);
        let mut sum = 0u64;
        for (stack, ns) in &stacks {
            let mut frames = stack.split(';');
            prop_assert_eq!(frames.next(), Some("pod"));
            let layer = frames.next().expect("layer frame");
            let phase = ProfPhase::from_name(frames.next().expect("phase frame"))
                .expect("known phase name");
            prop_assert_eq!(phase.layer(), layer);
            prop_assert_eq!(*ns, prof.phase(phase).total_ns);
            sum += ns;
        }
        prop_assert_eq!(sum, prof.total_ns());
        // Layer shares always sum to 1 when anything was recorded.
        if !prof.is_empty() {
            let total: f64 = prof.layer_shares().iter().map(|(_, s)| s).sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "layer shares sum to {}", total);
        }
    }
}

// ---------------------------------------------------------------------
// Trace round trip: split -> records -> reconstruct is the identity.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn trace_split_reconstruct_roundtrip(seed in any::<u64>()) {
        let trace = pod::trace::TraceProfile::web_vm().scaled(0.002).generate(seed);
        let records = split_into_records(&trace);
        let rebuilt = reconstruct_requests(&records);
        prop_assert_eq!(rebuilt.len(), trace.requests.len());
        for (a, b) in trace.requests.iter().zip(rebuilt.iter()) {
            prop_assert_eq!(a.op, b.op);
            prop_assert_eq!(a.lba, b.lba);
            prop_assert_eq!(a.nblocks, b.nblocks);
            prop_assert_eq!(&a.chunks, &b.chunks);
        }
    }
}
