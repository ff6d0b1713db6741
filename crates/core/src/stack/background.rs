//! Background work that rides along with the foreground request stream.
//!
//! Each [`BackgroundTask`] is registered by the [`StackSpec`] and runs
//! after every request via [`BackgroundTask::after_request`]; the replay
//! driver never branches on the scheme. Tasks see the other layers
//! through [`LayerCtx`], so they compose the same primitives the
//! foreground path uses (scans, cache accounting, disk submission).
//!
//! [`StackSpec`]: crate::stack::StackSpec

use crate::obs::{ObserverChain, StackEvent};
use crate::stack::cache::CacheLayer;
use crate::stack::dedup::DedupLayer;
use crate::stack::disk::DiskBackend;
use crate::stack::QosGauges;
use pod_types::{IoRequest, PodResult};

/// Mutable views of the stack's layers handed to a background task.
pub struct LayerCtx<'a> {
    /// The cache layer.
    pub cache: &'a mut CacheLayer,
    /// The dedup layer.
    pub dedup: &'a mut DedupLayer,
    /// The disk backend.
    pub disk: &'a mut dyn DiskBackend,
    /// The stack's observer chain; tasks emit
    /// [`StackEvent`](crate::obs::StackEvent)s through it.
    pub observer: &'a mut ObserverChain,
    /// QoS gauges surfaced in every [`StateSnapshot`]; the shared-tier
    /// task publishes its current grant here.
    ///
    /// [`StateSnapshot`]: crate::obs::StateSnapshot
    pub qos: &'a mut QosGauges,
}

/// A unit of background work driven by the request stream.
pub trait BackgroundTask {
    /// Runs after every foreground request (in registration order).
    fn after_request(
        &mut self,
        ctx: &mut LayerCtx<'_>,
        idx: usize,
        req: &IoRequest,
    ) -> PodResult<()>;

    /// Runs once after the last request, before the disks drain, so
    /// end-of-replay metrics reflect completed background work.
    fn drain(&mut self, ctx: &mut LayerCtx<'_>) -> PodResult<()> {
        let _ = ctx;
        Ok(())
    }
}

/// Periodic post-process deduplication: every `interval` requests, scan
/// up to `batch` queued chunks, charging the re-reads as a background
/// disk job (the fingerprinting itself is off the critical path).
#[derive(Debug)]
pub struct PostProcessTask {
    interval: u64,
    batch: usize,
}

impl PostProcessTask {
    /// Build with the configured scan cadence.
    pub fn new(interval: u64, batch: usize) -> Self {
        Self { interval, batch }
    }
}

impl BackgroundTask for PostProcessTask {
    fn after_request(
        &mut self,
        ctx: &mut LayerCtx<'_>,
        idx: usize,
        req: &IoRequest,
    ) -> PodResult<()> {
        if !((idx + 1) as u64).is_multiple_of(self.interval) {
            return Ok(());
        }
        let scan = ctx.dedup.scan(self.batch)?;
        ctx.observer.emit(&StackEvent::BackgroundScan {
            scanned_chunks: scan.scanned_chunks,
            deduped_chunks: scan.deduped_chunks,
        });
        if !scan.read_extents.is_empty() {
            ctx.disk.submit_scan_read(req.arrival, &scan.read_extents);
        }
        Ok(())
    }

    /// Drain the remaining backlog so the capacity numbers reflect a
    /// completed background pass (no further disk charges: the replay
    /// clock has stopped advancing).
    fn drain(&mut self, ctx: &mut LayerCtx<'_>) -> PodResult<()> {
        while ctx.dedup.scan_backlog() > 0 {
            let scan = ctx.dedup.scan(self.batch)?;
            ctx.observer.emit(&StackEvent::BackgroundScan {
                scanned_chunks: scan.scanned_chunks,
                deduped_chunks: scan.deduped_chunks,
            });
            if scan.scanned_chunks == 0 {
                break;
            }
        }
        Ok(())
    }
}

/// iCache adaptation: close epochs on every request and, when the
/// cost-benefit accounting decides to repartition, resize the index
/// table (feeding its victims to the ghost index) and charge the swap
/// traffic to the disks.
#[derive(Debug, Default)]
pub struct RepartitionTask;

impl BackgroundTask for RepartitionTask {
    fn after_request(
        &mut self,
        ctx: &mut LayerCtx<'_>,
        _idx: usize,
        req: &IoRequest,
    ) -> PodResult<()> {
        if let Some(rp) = ctx.cache.note_request(req.op.is_write()) {
            let victims = ctx.dedup.resize_index(rp.index_bytes);
            ctx.cache.on_index_victims(&victims);
            ctx.observer.emit(&StackEvent::Repartition {
                index_bytes: rp.index_bytes,
                read_bytes: rp.read_bytes,
                swap_blocks: rp.swap_blocks,
                index_grew: rp.index_grew,
            });
            if rp.swap_blocks > 0 {
                ctx.disk.submit_swap(req.arrival, rp.swap_blocks);
                ctx.observer.emit(&StackEvent::Swap {
                    blocks: rp.swap_blocks,
                });
            }
        }
        Ok(())
    }
}

/// Shard-local shared fingerprint-cache tier, HPDedup-style: every
/// iCache epoch the tenant's recent dedup-hit locality re-earns its
/// slice of the tier, and the dedup index is resized to its iCache
/// partition plus that grant (capped by the tenant's quotas).
///
/// The serving engine registers one per tenant stack ([`ServePolicy`]
/// active) *after* [`RepartitionTask`], so within a single
/// `after_request` pass a repartition's fresh partition size is
/// immediately re-extended by the grant. All inputs — the tenant's own
/// request count and its own index hit/miss deltas — are independent of
/// shard or worker topology, which is what keeps per-tenant reports
/// byte-identical across `--shards`/`--jobs` (DESIGN.md §13).
///
/// [`ServePolicy`]: crate::config::ServePolicy
#[derive(Debug)]
pub struct SharedTierTask {
    tenant: u16,
    /// Locality re-evaluation cadence (the iCache epoch length).
    epoch_requests: u64,
    /// Per-tenant base slice: `shared_tier_bytes / fleet_tenants`.
    /// Divided fleet-wide (not per shard) so the grant is independent
    /// of how tenants map onto shards.
    base_bytes: u64,
    hot_threshold_pm: u64,
    cold_threshold_pm: u64,
    hot_share_pm: u64,
    cold_share_pm: u64,
    hard_quota: Option<u64>,
    soft_quota: Option<u64>,
    /// Requests seen by this task (its own epoch clock).
    requests: u64,
    /// Cumulative index hits/misses at the last epoch boundary.
    last_hits: u64,
    last_misses: u64,
    /// Current locality share (per-mille of `base_bytes`); starts
    /// neutral at 1000.
    share_pm: u64,
    /// Index size we last applied; resize only when the target moves.
    applied_bytes: u64,
    /// iCache partition bytes at the last apply, to detect a
    /// repartition having reset the index underneath us.
    last_partition: u64,
}

impl SharedTierTask {
    /// Build one tenant's tier competitor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        tenant: u16,
        epoch_requests: u64,
        base_bytes: u64,
        hot_threshold_pm: u64,
        cold_threshold_pm: u64,
        hot_share_pm: u64,
        cold_share_pm: u64,
        hard_quota: Option<u64>,
        soft_quota: Option<u64>,
    ) -> Self {
        Self {
            tenant,
            epoch_requests: epoch_requests.max(1),
            base_bytes,
            hot_threshold_pm,
            cold_threshold_pm,
            hot_share_pm,
            cold_share_pm,
            hard_quota,
            soft_quota,
            requests: 0,
            last_hits: 0,
            last_misses: 0,
            share_pm: 1000,
            applied_bytes: 0,
            // Sentinel: resolved to the engine's build-time size on the
            // first request (the engine starts at the bare partition).
            last_partition: u64::MAX,
        }
    }

    /// The tenant's current index target: iCache partition + earned
    /// grant, capped by the hard quota always and by the soft quota
    /// unless the tenant is hot (soft quotas yield to locality,
    /// hard quotas never do).
    fn target(&self, partition: u64) -> u64 {
        let grant = self.base_bytes * self.share_pm / 1000;
        let mut target = partition + grant;
        if self.share_pm <= 1000 {
            if let Some(soft) = self.soft_quota {
                target = target.min(soft);
            }
        }
        if let Some(hard) = self.hard_quota {
            target = target.min(hard);
        }
        target
    }
}

impl BackgroundTask for SharedTierTask {
    fn after_request(
        &mut self,
        ctx: &mut LayerCtx<'_>,
        _idx: usize,
        _req: &IoRequest,
    ) -> PodResult<()> {
        self.requests += 1;
        let partition = ctx.cache.index_bytes();
        if self.last_partition == u64::MAX {
            // First request: the engine was built at the bare partition
            // size; the tier starts granting at the first epoch
            // boundary, so the warm-up epoch is policy-neutral.
            self.last_partition = partition;
            self.applied_bytes = partition;
        }
        let boundary = self.requests.is_multiple_of(self.epoch_requests);
        if boundary {
            // Epoch boundary: re-earn the share from this epoch's
            // dedup-hit locality (hits / lookups, per-mille). A tenant
            // with no index traffic this epoch is cold by definition.
            let (hits, misses, _) = ctx.dedup.engine().index().stats();
            let dh = hits - self.last_hits;
            let dm = misses - self.last_misses;
            self.last_hits = hits;
            self.last_misses = misses;
            let locality_pm = (dh * 1000).checked_div(dh + dm).unwrap_or(0);
            self.share_pm = if locality_pm >= self.hot_threshold_pm {
                self.hot_share_pm
            } else if locality_pm <= self.cold_threshold_pm {
                self.cold_share_pm
            } else {
                1000
            };
        }
        // Re-apply at epoch boundaries, and whenever a repartition just
        // reset the index to the bare partition size (RepartitionTask
        // runs earlier in this same pass).
        if boundary || partition != self.last_partition {
            let target = self.target(partition);
            if target != self.applied_bytes || partition != self.last_partition {
                let victims = ctx.dedup.resize_index(target);
                ctx.cache.on_index_victims(&victims);
                if !victims.is_empty() {
                    ctx.observer.emit(&StackEvent::QuotaEviction {
                        tenant: self.tenant,
                        victims: victims.len() as u64,
                        index_bytes: target,
                    });
                }
            }
            self.applied_bytes = target;
            self.last_partition = partition;
        }
        ctx.qos.tier_target_bytes = self.applied_bytes;
        ctx.qos.tier_share_pm = self.share_pm;
        Ok(())
    }
}
