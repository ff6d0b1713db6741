//! RAID address mapping and write planning.
//!
//! The evaluation array is a 4-disk RAID-5 with a 64 KiB stripe unit
//! (paper §IV-B). RAID-5 small writes pay the classic read-modify-write
//! penalty — pre-read of old data and old parity, then write of new data
//! and new parity — which quadruples the disk ops of a small write. That
//! penalty is exactly why eliminating redundant small writes (POD's whole
//! point) buys so much performance, so the planner here models it
//! faithfully, including the full-stripe fast path and the
//! reconstruct-write alternative Linux MD uses when most of a stripe is
//! being overwritten.

use crate::spec::RaidConfig;
use pod_types::Pba;

/// One physical operation addressed to a member disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhysOp {
    /// Member disk index.
    pub disk: usize,
    /// Disk-local block address.
    pub lba: u64,
    /// Blocks transferred.
    pub nblocks: u32,
    /// `true` for a write.
    pub write: bool,
}

/// Address arithmetic for a configured array.
#[derive(Clone, Debug)]
pub struct RaidGeometry {
    cfg: RaidConfig,
    /// `log2(stripe_unit_blocks)` when the unit is a power of two —
    /// replaces the div/mod pair in every mapping with shift/mask. The
    /// paper array (16-block unit) and every preset qualify.
    unit_shift: Option<u32>,
    /// `ndisks - 1` when the member count is a power of two — same
    /// strength reduction for the parity-rotation modulus.
    disk_mask: Option<u64>,
}

impl RaidGeometry {
    /// Build geometry for a validated config.
    pub fn new(cfg: RaidConfig) -> Self {
        debug_assert!(cfg.validate().is_ok());
        let unit_shift = cfg
            .stripe_unit_blocks
            .is_power_of_two()
            .then(|| cfg.stripe_unit_blocks.trailing_zeros());
        let disk_mask = (cfg.ndisks.is_power_of_two()).then(|| cfg.ndisks as u64 - 1);
        Self {
            cfg,
            unit_shift,
            disk_mask,
        }
    }

    /// `x % ndisks` without the hardware divide when possible.
    #[inline]
    fn mod_disks(&self, x: u64) -> u64 {
        match self.disk_mask {
            Some(m) => x & m,
            None => x % self.cfg.ndisks as u64,
        }
    }

    /// `(pba / unit, pba % unit)` without the hardware divide when the
    /// stripe unit is a power of two.
    #[inline]
    fn split_unit(&self, pba: u64) -> (u64, u64) {
        match self.unit_shift {
            Some(s) => (pba >> s, pba & (self.cfg.stripe_unit_blocks - 1)),
            None => (
                pba / self.cfg.stripe_unit_blocks,
                pba % self.cfg.stripe_unit_blocks,
            ),
        }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &RaidConfig {
        &self.cfg
    }

    /// Number of member disks.
    pub fn ndisks(&self) -> usize {
        self.cfg.ndisks
    }

    /// Data blocks per full stripe.
    pub fn stripe_data_blocks(&self) -> u64 {
        self.cfg.data_disks() as u64 * self.cfg.stripe_unit_blocks
    }

    /// Map a data block address to `(disk, disk-local block)`.
    #[inline]
    pub fn map_block(&self, pba: Pba) -> (usize, u64) {
        let data_disks = self.cfg.ndisks as u64 - 1;
        let (unit, off) = self.split_unit(pba.raw());
        let stripe = unit / data_disks;
        let unit_in_stripe = unit % data_disks;
        let parity_disk = self.mod_disks(stripe);
        let disk = self.mod_disks(parity_disk + 1 + unit_in_stripe) as usize;
        let local = stripe * self.cfg.stripe_unit_blocks + off;
        (disk, local)
    }

    /// Parity disk of the stripe containing data block `pba`.
    pub fn parity_disk(&self, pba: Pba) -> usize {
        (self.stripe_of(pba) % self.cfg.ndisks as u64) as usize
    }

    /// Stripe number containing data block `pba`.
    pub fn stripe_of(&self, pba: Pba) -> u64 {
        pba.raw() / self.stripe_data_blocks()
    }

    /// Append the read plan for `[pba, pba + nblocks)` to `buf`: one op
    /// per disk-contiguous fragment, merged where fragments abut on the
    /// same disk. Fragment merging is confined to the ops appended by
    /// *this* call: anything already in `buf` (e.g. a previous extent's
    /// plan) is never fused with, so op boundaries are identical whether
    /// extents are planned into one pooled buffer or separate vectors.
    pub fn plan_read_into(&self, pba: Pba, nblocks: u32, buf: &mut Vec<PhysOp>) {
        let u = self.cfg.stripe_unit_blocks;
        // Common case: the extent lies inside one stripe unit → exactly
        // one op, no fragment loop.
        if nblocks != 0 && self.split_unit(pba.raw()).1 + nblocks as u64 <= u {
            let (disk, local) = self.map_block(pba);
            buf.push(PhysOp {
                disk,
                lba: local,
                nblocks,
                write: false,
            });
            return;
        }
        let base = buf.len();
        let mut cur = pba.raw();
        let end = pba.raw() + nblocks as u64;
        while cur < end {
            // Extent within the current stripe unit.
            let unit_end = (cur / u + 1) * u;
            let frag_end = end.min(unit_end);
            let len = (frag_end - cur) as u32;
            let (disk, local) = self.map_block(Pba::new(cur));
            // Merge with the previous op of this plan when physically
            // contiguous.
            if buf.len() > base {
                let last = buf.last_mut().expect("non-empty past base");
                if last.disk == disk && !last.write && last.lba + last.nblocks as u64 == local {
                    last.nblocks += len;
                    cur = frag_end;
                    continue;
                }
            }
            buf.push(PhysOp {
                disk,
                lba: local,
                nblocks: len,
                write: false,
            });
            cur = frag_end;
        }
    }

    /// Append a parity-less streaming write of `[pba, pba + nblocks)` to
    /// `buf`: the same disk-contiguous fragments as
    /// [`RaidGeometry::plan_read_into`] (and the same per-call merge
    /// confinement) with the direction flipped. Used for bulk background
    /// traffic (iCache swap-region writes) that bypasses RMW accounting.
    pub fn plan_stream_write_into(&self, pba: Pba, nblocks: u32, buf: &mut Vec<PhysOp>) {
        let base = buf.len();
        self.plan_read_into(pba, nblocks, buf);
        for op in &mut buf[base..] {
            op.write = true;
        }
    }

    /// Append the write plan for `[pba, pba + nblocks)`, parity
    /// maintenance included, to caller-owned phase buffers. The phases
    /// are dependent: every pre-read op (RAID-5 RMW / reconstruct) lands
    /// in `reads` and must complete before the data + parity writes in
    /// `writes` start; when nothing is appended to `reads` the write is
    /// single-phase (every stripe it touches is written whole). Merging
    /// is confined to the ops this call appends.
    pub fn plan_write_into(
        &self,
        pba: Pba,
        nblocks: u32,
        reads: &mut Vec<PhysOp>,
        writes: &mut Vec<PhysOp>,
    ) {
        let sdb = self.stripe_data_blocks();
        let u = self.cfg.stripe_unit_blocks;
        let rbase = reads.len();

        let mut cur = pba.raw();
        let end = pba.raw() + nblocks as u64;
        while cur < end {
            let stripe = cur / sdb;
            let stripe_start = stripe * sdb;
            let stripe_end = stripe_start + sdb;
            let seg_start = cur;
            let seg_end = end.min(stripe_end);
            let touched = seg_end - seg_start;
            let parity_disk = (stripe % self.cfg.ndisks as u64) as usize;

            // Offsets within the stripe unit covered by this segment
            // determine the parity extent (parity block i covers data
            // offset i of every unit in the stripe).
            let (off_lo, off_hi) = if touched >= u {
                // Covers at least one whole unit: every offset is touched.
                (0, u - 1)
            } else {
                // At most two unit fragments; union their offset ranges.
                let mut lo = u64::MAX;
                let mut hi = 0u64;
                let mut b = seg_start;
                while b < seg_end {
                    let frag_end = seg_end.min(((b / u) + 1) * u);
                    lo = lo.min(b % u);
                    hi = hi.max((frag_end - 1) % u);
                    b = frag_end;
                }
                (lo, hi)
            };
            let parity_lba = stripe * u + off_lo;
            let parity_len = (off_hi - off_lo + 1) as u32;

            // Data ops for this segment, planned straight into `writes`
            // (merge-confined to this segment, like the per-segment temp
            // vector the planner used to allocate).
            let wseg = writes.len();
            self.plan_read_into(Pba::new(seg_start), touched as u32, writes);
            for op in &mut writes[wseg..] {
                op.write = true;
            }

            if touched == sdb {
                // Full-stripe write: compute parity from new data, no reads.
                writes.push(PhysOp {
                    disk: parity_disk,
                    lba: stripe * u,
                    nblocks: u as u32,
                    write: true,
                });
            } else if touched * 2 > sdb {
                // Reconstruct-write: read the *untouched* data of the
                // stripe, then write new data + parity.
                let mut b = stripe_start;
                while b < stripe_end {
                    if b >= seg_start && b < seg_end {
                        b = seg_end;
                        continue;
                    }
                    let frag_end = if b < seg_start {
                        seg_start.min(((b / u) + 1) * u)
                    } else {
                        stripe_end.min(((b / u) + 1) * u)
                    };
                    let (disk, local) = self.map_block(Pba::new(b));
                    let len = (frag_end - b) as u32;
                    if reads.len() > rbase {
                        let last = reads.last_mut().expect("non-empty past base");
                        if last.disk == disk && last.lba + last.nblocks as u64 == local {
                            last.nblocks += len;
                            b = frag_end;
                            continue;
                        }
                    }
                    reads.push(PhysOp {
                        disk,
                        lba: local,
                        nblocks: len,
                        write: false,
                    });
                    b = frag_end;
                }
                writes.push(PhysOp {
                    disk: parity_disk,
                    lba: stripe * u,
                    nblocks: u as u32,
                    write: true,
                });
            } else {
                // Read-modify-write: pre-read old data + old parity.
                for op in &writes[wseg..] {
                    reads.push(PhysOp {
                        disk: op.disk,
                        lba: op.lba,
                        nblocks: op.nblocks,
                        write: false,
                    });
                }
                reads.push(PhysOp {
                    disk: parity_disk,
                    lba: parity_lba,
                    nblocks: parity_len,
                    write: false,
                });
                writes.push(PhysOp {
                    disk: parity_disk,
                    lba: parity_lba,
                    nblocks: parity_len,
                    write: true,
                });
            }
            cur = seg_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RaidConfig;

    fn raid5() -> RaidGeometry {
        RaidGeometry::new(RaidConfig::paper_raid5()) // 4 disks, u=16
    }

    fn read_ops(g: &RaidGeometry, pba: u64, nblocks: u32) -> Vec<PhysOp> {
        let mut ops = Vec::new();
        g.plan_read_into(Pba::new(pba), nblocks, &mut ops);
        ops
    }

    /// The write's dependent phases: `[reads, writes]`, or `[writes]`
    /// when nothing is pre-read.
    fn write_phases(g: &RaidGeometry, pba: u64, nblocks: u32) -> Vec<Vec<PhysOp>> {
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        g.plan_write_into(Pba::new(pba), nblocks, &mut reads, &mut writes);
        if reads.is_empty() {
            vec![writes]
        } else {
            vec![reads, writes]
        }
    }

    #[test]
    fn raid5_parity_rotates() {
        let g = raid5();
        // stripe 0: parity disk 0; data units on disks 1,2,3
        assert_eq!(g.parity_disk(Pba::new(0)), 0);
        assert_eq!(g.map_block(Pba::new(0)), (1, 0));
        assert_eq!(g.map_block(Pba::new(16)), (2, 0));
        assert_eq!(g.map_block(Pba::new(32)), (3, 0));
        // stripe 1 (data blocks 48..96): parity disk 1; first data unit disk 2
        assert_eq!(g.parity_disk(Pba::new(48)), 1);
        assert_eq!(g.map_block(Pba::new(48)), (2, 16));
    }

    #[test]
    fn raid5_data_never_lands_on_parity_disk() {
        let g = raid5();
        for pba in 0..500u64 {
            let (disk, _) = g.map_block(Pba::new(pba));
            let parity = g.parity_disk(Pba::new(pba));
            assert_ne!(disk, parity, "pba {pba}");
        }
    }

    #[test]
    fn plan_read_single_fragment() {
        let g = raid5();
        let ops = read_ops(&g, 0, 8);
        assert_eq!(ops.len(), 1);
        assert_eq!(
            ops[0],
            PhysOp {
                disk: 1,
                lba: 0,
                nblocks: 8,
                write: false
            }
        );
    }

    #[test]
    fn plan_read_spans_units() {
        let g = raid5();
        let ops = read_ops(&g, 8, 16); // blocks 8..24: unit0 tail + unit1 head
        assert_eq!(ops.len(), 2);
        assert_eq!(
            ops[0],
            PhysOp {
                disk: 1,
                lba: 8,
                nblocks: 8,
                write: false
            }
        );
        assert_eq!(
            ops[1],
            PhysOp {
                disk: 2,
                lba: 0,
                nblocks: 8,
                write: false
            }
        );
    }

    #[test]
    fn plan_read_merges_contiguous_same_disk() {
        // 3 disks, u=16: a stripe holds 32 data blocks. Unit 1 (blocks
        // 16..32, stripe 0, parity disk 0) and unit 2 (blocks 32..48,
        // stripe 1, parity disk 1) both sit on disk 2, at local 0..16 and
        // 16..32: one op.
        let g = RaidGeometry::new(RaidConfig {
            ndisks: 3,
            stripe_unit_blocks: 16,
        });
        let ops = read_ops(&g, 16, 32);
        assert_eq!(
            ops,
            [PhysOp {
                disk: 2,
                lba: 0,
                nblocks: 32,
                write: false
            }]
        );
    }

    #[test]
    fn non_power_of_two_arrays_map_and_plan() {
        // 3 and 5 members, units of 16 and 12 blocks: the div/mod
        // fallbacks of `mod_disks` and `split_unit`.
        for (ndisks, unit) in [(3, 16), (3, 12), (5, 16), (5, 12)] {
            let g = RaidGeometry::new(RaidConfig {
                ndisks,
                stripe_unit_blocks: unit,
            });
            let sdb = g.stripe_data_blocks();
            assert_eq!(sdb, (ndisks as u64 - 1) * unit);
            let mut seen = std::collections::HashSet::new();
            for pba in (0..3 * sdb).map(Pba::new) {
                let (disk, local) = g.map_block(pba);
                assert!(disk < ndisks && local < 3 * unit, "{ndisks}x{unit} {pba:?}");
                assert!(
                    seen.insert((disk, local)),
                    "{ndisks}x{unit}: {pba:?} reused"
                );
                assert_ne!(disk, g.parity_disk(pba), "{ndisks}x{unit} {pba:?}");

                let phases = write_phases(&g, pba.raw(), 1);
                let ops: Vec<usize> = phases.iter().map(Vec::len).collect();
                assert_eq!(ops, [2, 2], "{ndisks}x{unit} {pba:?}: RMW");
            }
            for stripe in 0..3 {
                let phases = write_phases(&g, stripe * sdb, sdb as u32);
                assert_eq!(phases.len(), 1, "{ndisks}x{unit} stripe {stripe}");
                assert_eq!(phases[0].len(), ndisks, "data units + parity");
            }
        }
    }

    #[test]
    fn small_write_is_rmw() {
        let g = raid5();
        let phases = write_phases(&g, 0, 4);
        assert_eq!(phases.len(), 2, "read phase then write phase");
        let reads = &phases[0];
        let writes = &phases[1];
        // Old data + old parity reads.
        assert_eq!(reads.len(), 2);
        assert!(reads.iter().all(|op| !op.write));
        assert!(
            reads.iter().any(|op| op.disk == 0),
            "parity pre-read on disk 0"
        );
        // New data + new parity writes.
        assert_eq!(writes.len(), 2);
        assert!(writes.iter().all(|op| op.write));
        // 4 ops for a 4-block write: the small-write penalty.
        assert_eq!(phases.iter().map(Vec::len).sum::<usize>(), 4);
    }

    #[test]
    fn full_stripe_write_has_no_reads() {
        let g = raid5();
        // Full stripe = 48 data blocks (3 units of 16).
        let phases = write_phases(&g, 0, 48);
        assert_eq!(phases.len(), 1);
        let writes = &phases[0];
        assert_eq!(writes.len(), 4, "3 data units + 1 parity unit");
        assert!(writes.iter().all(|op| op.write));
        let parity_ops: Vec<_> = writes.iter().filter(|op| op.disk == 0).collect();
        assert_eq!(parity_ops.len(), 1);
        assert_eq!(parity_ops[0].nblocks, 16);
    }

    #[test]
    fn majority_write_uses_reconstruct() {
        let g = raid5();
        // 32 of 48 blocks: reconstruct-write reads the untouched 16.
        let phases = write_phases(&g, 0, 32);
        assert_eq!(phases.len(), 2);
        let reads = &phases[0];
        let read_blocks: u64 = reads.iter().map(|op| op.nblocks as u64).sum();
        assert_eq!(read_blocks, 16, "reads only the untouched unit");
        let writes = &phases[1];
        assert_eq!(writes.iter().filter(|op| op.disk == 0).count(), 1);
    }

    #[test]
    fn multi_stripe_write_decomposes_per_stripe() {
        let g = raid5();
        // 96 blocks = exactly stripes 0 and 1, both full.
        let phases = write_phases(&g, 0, 96);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].len(), 8);
    }

    #[test]
    fn parity_extent_matches_data_offsets() {
        let g = raid5();
        // Write blocks 4..8 (offsets 4..8 within unit 0).
        let phases = write_phases(&g, 4, 4);
        let reads = &phases[0];
        let parity_read = reads.iter().find(|op| op.disk == 0).expect("parity read");
        assert_eq!(parity_read.lba, 4);
        assert_eq!(parity_read.nblocks, 4);
    }

    #[test]
    fn write_plan_block_accounting() {
        let g = raid5();
        let phases = write_phases(&g, 0, 4);
        // RMW: read 4 + parity 4, write 4 + parity 4 = 16 blocks moved.
        let moved: u64 = phases.iter().flatten().map(|op| op.nblocks as u64).sum();
        assert_eq!(moved, 16);
    }
}
