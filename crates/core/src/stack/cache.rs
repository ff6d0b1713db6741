//! The cache layer: the iCache behind one request-level interface.
//!
//! Owns the two pieces of logic the monolithic replay loop used to
//! duplicate inline: the cache-*key* derivation (LBA vs content
//! fingerprint, [`CacheLayer::cache_key`]) and the write-allocate fill.
//! Also routes the write path's index-traffic accounting into the ghost
//! index and closes adaptation epochs.

use crate::stack::dedup::DedupLayer;
use crate::stack::spec::CacheKeying;
use pod_dedup::WriteScratch;
use pod_icache::{ICache, Repartition};
use pod_types::{IoRequest, Lba};

/// Read-cache + ghost accounting layer wrapping [`ICache`].
#[derive(Debug)]
pub struct CacheLayer {
    icache: ICache,
    keying: CacheKeying,
    /// Whether the dedup module exists in this stack. A stack without
    /// it (Native) still answers lookups — against an empty budget —
    /// but never write-allocates and feeds no index traffic.
    dedups: bool,
}

impl CacheLayer {
    /// Wrap a configured iCache.
    pub fn new(icache: ICache, keying: CacheKeying, dedups: bool) -> Self {
        Self {
            icache,
            keying,
            dedups,
        }
    }

    /// The cache key for `lba` — the one place the content-addressed
    /// key derivation lives. Content keying resolves the block's
    /// current fingerprint through the dedup layer (hit if *any* copy
    /// of the content is cached) and falls back to the LBA for
    /// never-written blocks.
    pub fn cache_key(&self, dedup: &DedupLayer, lba: Lba) -> u64 {
        match self.keying {
            CacheKeying::Lba => lba.raw(),
            CacheKeying::Content => dedup
                .content_of(lba)
                .map(|fp| fp.prefix_u64())
                .unwrap_or(lba.raw()),
        }
    }

    /// Look up every block of a read request; `true` when all hit.
    pub fn lookup_request(&mut self, dedup: &DedupLayer, req: &IoRequest) -> bool {
        let mut all_hit = true;
        for lba in req.lbas() {
            let key = self.cache_key(dedup, lba);
            if !self.icache.read_lookup_key(key) {
                all_hit = false;
            }
        }
        all_hit
    }

    /// Install every block of a fetched read request.
    pub fn fill_request(&mut self, dedup: &DedupLayer, req: &IoRequest) {
        for lba in req.lbas() {
            let key = self.cache_key(dedup, lba);
            self.icache.read_fill_key(key);
        }
    }

    /// Write-allocate: retain freshly written blocks, which
    /// primary-storage reads target heavily (temporal locality, §II-A).
    /// Content-keyed stacks key by the fingerprint already in hand so
    /// duplicates share one slot; no-dedup stacks have no storage-node
    /// cache to fill.
    pub fn write_allocate(&mut self, req: &IoRequest) {
        if !self.dedups {
            return;
        }
        match self.keying {
            CacheKeying::Content => {
                for (_, fp) in req.write_chunks() {
                    self.icache.read_fill_key(fp.prefix_u64());
                }
            }
            CacheKeying::Lba => {
                for lba in req.lbas() {
                    self.icache.read_fill(lba);
                }
            }
        }
    }

    /// Feed one write's index traffic (victims and misses) into the
    /// ghost-index accounting. No-op for stacks without a dedup module.
    pub fn observe_index_traffic(&mut self, scratch: &WriteScratch) {
        if !self.dedups {
            return;
        }
        self.icache.on_index_victims(&scratch.index_victims);
        self.icache.on_index_misses(&scratch.index_miss_fps);
    }

    /// Feed index-table victims (e.g. from a repartition resize) into
    /// the ghost index.
    pub fn on_index_victims(&mut self, victims: &[pod_types::Fingerprint]) {
        self.icache.on_index_victims(victims);
    }

    /// Note a request; at an epoch boundary, possibly decide a
    /// repartition (see [`ICache::note_request`]).
    pub fn note_request(&mut self, is_write: bool) -> Option<Repartition> {
        self.icache.note_request(is_write)
    }

    /// Current index-cache budget, bytes.
    pub fn index_bytes(&self) -> u64 {
        self.icache.index_bytes()
    }

    /// Index share of the live budget.
    pub fn index_fraction(&self) -> f64 {
        self.icache.index_fraction()
    }

    /// Adaptation epochs closed.
    pub fn epochs(&self) -> u64 {
        self.icache.epochs()
    }

    /// Repartitions performed.
    pub fn repartitions(&self) -> u64 {
        self.icache.repartitions()
    }

    /// The wrapped iCache (gauges and the epoch clock).
    pub fn icache(&self) -> &ICache {
        &self.icache
    }
}
