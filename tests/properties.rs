//! Property-based tests (proptest) on the core invariants, spanning
//! crates through the public API.

use pod::cache::{GhostedLru, Lookup};
use pod::dedup::{
    ChunkStore, ClassKind, DedupConfig, DedupEngine, DedupPolicy, IndexTable, WriteScratch,
    INDEX_ENTRY_BYTES,
};
use pod::trace::reconstruct::{reconstruct_requests, split_into_records};
use pod::types::{log2_bucket, Fingerprint, IoRequest, Lba, Pba, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------
// The plain LRU (`GhostedLru` with no ghost): model-based check against
// a naive reference.
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
    Remove(u8),
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
        any::<u8>().prop_map(CacheOp::Remove),
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
    fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }
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
    /// entry like `GhostedLru::upsert`.
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
    /// Drop every entry and restart the eviction count, as
    /// `GhostedLru::clear_resident` does.
    fn clear(&mut self) {
        self.items.clear();
        self.evictions = 0;
    }
}

/// Run `ops` against a `GhostedLru<K, u32>` with no ghost and the model
/// side by side, comparing every return value and, after every op,
/// `len`, `evictions` and the full MRU→LRU order.
fn check_lru_against_model<K>(
    key: fn(u8) -> K,
    cap: usize,
    ops: &[CacheOp],
) -> Result<(), TestCaseError>
where
    K: Copy + Eq + std::hash::Hash + std::fmt::Debug,
{
    let keyed = |entry: Option<(u8, u32)>| entry.map(|(k, v)| (key(k), v));
    let mut real = GhostedLru::<K, u32>::new(cap, 0);
    let mut model = ModelLru::new(cap);
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
                let want = match model.touch(k) {
                    Some(_) => Lookup::Hit,
                    None => Lookup::Miss,
                };
                prop_assert_eq!(real.lookup(&key(k)), want);
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
            CacheOp::Remove(k) => {
                prop_assert_eq!(real.remove(&key(k)), model.remove(k));
            }
            CacheOp::Resize(c) => {
                let want: Vec<(K, u32)> = model
                    .resize(c as usize)
                    .into_iter()
                    .map(|(k, v)| (key(k), v))
                    .collect();
                let mut got = Vec::new();
                let n = real.set_capacity(c as usize, |k, v| got.push((*k, *v)));
                prop_assert_eq!(n, want.len() as u64);
                prop_assert_eq!(got, want);
                prop_assert_eq!(real.capacity(), c as usize);
            }
            CacheOp::Clear => {
                real.clear_resident();
                model.clear();
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
// GhostedLru: one list against the pair it replaces — a cache and a
// ghost, each a naive `ModelLru`, wired as iCache wired them (a victim
// is recorded in the ghost, a probe removes and counts),
// victims-then-probes included.
// ---------------------------------------------------------------------

/// Keys a ghosted op sequence draws from: few enough that fills meet
/// their own ghosts.
const GHOSTED_KEYS: u8 = 48;

#[derive(Debug, Clone)]
enum GhostedOp {
    /// Read path: promote a resident, else consume its ghost.
    Lookup(u8),
    /// Write-allocate: insert without probing the ghost (a key in the
    /// ghost becomes resident and a ghost at once).
    Fill(u8, u32),
    /// Insert-or-update without a lookup (I/O-Dedup's upsert).
    Upsert(u8, u32),
    /// A write request: query each key, upsert it, and only after the
    /// whole request probe the ghost for the keys that missed.
    Request(Vec<u8>),
    Probe(u8),
    Remove(u8),
    /// Resident resize, up, down and to 0.
    Resize(u8),
    /// Ghost resize, to 0 included.
    GhostResize(u8),
    /// Crash rebuild: a resident-only clear, then refills whose victims
    /// are forgotten.
    Rebuild(Vec<u8>),
}

fn ghosted_op() -> impl Strategy<Value = GhostedOp> {
    let batch = || proptest::collection::vec(0..GHOSTED_KEYS, 1..10);
    prop_oneof![
        (0..GHOSTED_KEYS).prop_map(GhostedOp::Lookup),
        (0..GHOSTED_KEYS).prop_map(GhostedOp::Lookup),
        (0..GHOSTED_KEYS, any::<u32>()).prop_map(|(k, v)| GhostedOp::Fill(k, v)),
        (0..GHOSTED_KEYS, any::<u32>()).prop_map(|(k, v)| GhostedOp::Fill(k, v)),
        (0..GHOSTED_KEYS, any::<u32>()).prop_map(|(k, v)| GhostedOp::Upsert(k, v)),
        batch().prop_map(GhostedOp::Request),
        batch().prop_map(GhostedOp::Request),
        (0..GHOSTED_KEYS).prop_map(GhostedOp::Probe),
        (0..GHOSTED_KEYS).prop_map(GhostedOp::Remove),
        (0u8..40).prop_map(GhostedOp::Resize),
        (0u8..40).prop_map(GhostedOp::GhostResize),
        // Rare: a rebuild empties the resident side.
        (0u8..8, batch()).prop_map(|(roll, keys)| if roll == 0 {
            GhostedOp::Rebuild(keys)
        } else {
            GhostedOp::Request(keys)
        }),
    ]
}

/// The pair [`GhostedLru`] replaces. The ghost's values are unused.
struct GhostedModel {
    cache: ModelLru,
    ghost: ModelLru,
    hits: u64,
}

impl GhostedModel {
    fn record(&mut self, victim: Option<(u8, u32)>) -> Option<(u8, u32)> {
        if let Some((k, _)) = victim {
            self.ghost.upsert(k, 0, |_, _| {});
        }
        victim
    }
    fn probe(&mut self, k: u8) -> bool {
        // A branch, not `hits += u64::from(hit)`: with rustc 1.95.0 the
        // release build of this suite lost that increment once `probe`
        // was inlined into the Lookup arm (debug builds, and the
        // branch, count every hit).
        let hit = self.ghost.remove(k).is_some();
        if hit {
            self.hits += 1;
        }
        hit
    }
}

/// Run `ops` against a `GhostedLru<K, u32>` and the pair side by side,
/// comparing every return value and, after every op, both lengths, the
/// evictions, the ghost hits and both sides' MRU→LRU order.
fn check_ghosted_against_pair<K>(
    key: fn(u8) -> K,
    cap: usize,
    ghost_cap: usize,
    ops: &[GhostedOp],
) -> Result<(), TestCaseError>
where
    K: Copy + Eq + std::hash::Hash + std::fmt::Debug,
{
    let add: fn(&mut u32, u32) = |old, new| *old = old.wrapping_add(new);
    let set: fn(&mut u32, u32) = |old, new| *old = new;
    let keyed = |entry: Option<(u8, u32)>| entry.map(|(k, v)| (key(k), v));
    let mut real = GhostedLru::<K, u32>::new(cap, ghost_cap);
    let mut pair = GhostedModel {
        cache: ModelLru::new(cap),
        ghost: ModelLru::new(ghost_cap),
        hits: 0,
    };
    for op in ops {
        match op {
            &GhostedOp::Lookup(k) => {
                let want = if pair.cache.touch(k).is_some() {
                    Lookup::Hit
                } else if pair.probe(k) {
                    Lookup::Ghost
                } else {
                    Lookup::Miss
                };
                prop_assert_eq!(real.lookup(&key(k)), want);
            }
            &GhostedOp::Fill(k, v) => {
                let want = pair.cache.upsert(k, v, set);
                let want = pair.record(want);
                prop_assert_eq!(real.insert(key(k), v), keyed(want));
            }
            &GhostedOp::Upsert(k, v) => {
                let want = pair.cache.upsert(k, v, add);
                let want = pair.record(want);
                prop_assert_eq!(real.upsert(key(k), v, add), keyed(want));
            }
            GhostedOp::Request(keys) => {
                let (mut victims, mut misses) = (Vec::new(), Vec::new());
                for &k in keys {
                    let hit = pair.cache.touch(k).copied();
                    prop_assert_eq!(real.get_mut(&key(k)).copied(), hit);
                    if hit.is_none() {
                        misses.push(k);
                    }
                    let victim = pair.cache.upsert(k, 1, add);
                    prop_assert_eq!(real.upsert(key(k), 1, add), keyed(victim));
                    victims.extend(victim);
                }
                for victim in victims {
                    pair.record(Some(victim));
                }
                for &k in &misses {
                    let hit = pair.probe(k);
                    prop_assert_eq!(real.probe_ghost(&key(k)), hit);
                }
            }
            &GhostedOp::Probe(k) => {
                let hit = pair.probe(k);
                prop_assert_eq!(real.probe_ghost(&key(k)), hit);
            }
            &GhostedOp::Remove(k) => {
                prop_assert_eq!(real.remove(&key(k)), pair.cache.remove(k));
            }
            &GhostedOp::Resize(c) => {
                let spilled = pair.cache.resize(c as usize);
                let mut got = Vec::new();
                let n = real.set_capacity(c as usize, |k, v| got.push((*k, *v)));
                prop_assert_eq!(n, spilled.len() as u64);
                let want: Vec<(K, u32)> = spilled.iter().map(|&(k, v)| (key(k), v)).collect();
                prop_assert_eq!(&got, &want);
                for victim in spilled {
                    pair.record(Some(victim));
                }
            }
            &GhostedOp::GhostResize(c) => {
                pair.ghost.resize(c as usize);
                real.set_ghost_capacity(c as usize);
            }
            GhostedOp::Rebuild(keys) => {
                pair.cache.clear();
                real.clear_resident();
                for &k in keys {
                    let want = pair.cache.upsert(k, u32::from(k), set);
                    prop_assert_eq!(real.insert_unghosted(key(k), u32::from(k)), keyed(want));
                }
            }
        }
        prop_assert_eq!(real.len(), pair.cache.items.len(), "after {:?}", op);
        prop_assert_eq!(real.ghost_len(), pair.ghost.items.len());
        prop_assert_eq!(real.evictions(), pair.cache.evictions);
        prop_assert_eq!(real.ghost_state().hits, pair.hits, "hits after {:?}", op);
        let resident: Vec<(K, u32)> = real.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(K, u32)> = pair.cache.items.iter().map(|&(k, v)| (key(k), v)).collect();
        prop_assert_eq!(resident, want, "resident order after {:?}", op);
        let ghosts: Vec<K> = real.ghost_keys().copied().collect();
        let want: Vec<K> = pair.ghost.items.iter().map(|&(k, _)| key(k)).collect();
        prop_assert_eq!(ghosts, want, "ghost order after {:?}", op);
    }
    Ok(())
}

proptest! {
    #[test]
    fn ghosted_lru_matches_the_pair_it_replaces(
        cap in 0usize..24,
        ghost_cap in 0usize..40,
        ops in proptest::collection::vec(ghosted_op(), 1..300),
    ) {
        check_ghosted_against_pair(|k| k, cap, ghost_cap, &ops)?;
        check_ghosted_against_pair(OneChainKey, cap, ghost_cap, &ops)?;
        check_ghosted_against_pair(FourChainKey, cap, ghost_cap, &ops)?;
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
                recount[log2_bucket::<8>(e.count.into())] += 1;
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
        (ChunkStore::new(256, 4_096).expect("a small store"), 1),
        (ChunkStore::new(20_480, 8_192).expect("a small store"), 79),
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
            // the live redirected mapping.
            store.verify_journal_recovery().expect("journal recovers the Map table");
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
            (completions, sim.disk_stats())
        };
        let (a, stats_a) = run(&jobs);
        let (b, stats_b) = run(&jobs);
        // Determinism: identical runs produce identical timings & stats.
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&stats_a, &stats_b);
        // Conservation: every write job moves at least its data blocks
        // (parity and RMW pre-reads only add).
        let submitted_write_blocks: u64 = jobs
            .iter()
            .filter(|j| j.write)
            .map(|j| j.nblocks as u64)
            .sum();
        let written: u64 = stats_a.iter().map(|d| d.blocks_written).sum();
        prop_assert!(written >= submitted_write_blocks);
    }
}

// ---------------------------------------------------------------------
// Host profile: folded stacks carry every recorded phase's total.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn host_profile_folded_roundtrip(
        scopes in proptest::collection::vec((0usize..9, 0u64..5_000_000_000), 0..200),
    ) {
        use pod::core::{HostProfile, ProfPhase};
        let mut prof = HostProfile::new();
        let mut counts = [0u64; ProfPhase::COUNT];
        let mut totals = [0u64; ProfPhase::COUNT];
        for (idx, ns) in &scopes {
            prof.record(ProfPhase::ALL[*idx], *ns);
            counts[*idx] += 1;
            totals[*idx] += ns;
        }
        // Folded stacks: one `pod;<layer>;<phase> <total_ns>` line per
        // recorded phase, in `ProfPhase::ALL` order, carrying the
        // phase's total; the samples sum to the grand total.
        let mut folded = String::new();
        prof.write_folded(&mut folded);
        let expected: String = ProfPhase::ALL
            .into_iter()
            .filter(|p| counts[p.index()] > 0)
            .map(|p| format!("pod;{};{} {}\n", p.layer(), p.name(), totals[p.index()]))
            .collect();
        prop_assert_eq!(&folded, &expected);
        prop_assert_eq!(totals.iter().sum::<u64>(), prof.total_ns());
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
