//! I/O request descriptors.
//!
//! A trace-replay request carries its per-chunk fingerprints instead of
//! payload bytes — exactly how the paper replays the FIU traces ("The
//! hash values of the data chunks are also included with other attributes
//! of replayed requests", §IV-A). The simulator charges the 32 µs/4 KiB
//! fingerprinting delay separately, so no real hashing happens on the
//! replay path. Each chunk is one 16-byte [`Fingerprint`], the width of
//! the traces' MD5 column, so a write's `chunks` costs 16 B per block.

use crate::block::Lba;
use crate::fingerprint::Fingerprint;
use crate::time::SimTime;
use core::fmt;

/// Direction of an I/O request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IoOp {
    /// Read `nblocks` starting at `lba`.
    Read,
    /// Write `nblocks` starting at `lba`.
    Write,
}

impl IoOp {
    /// `true` for writes.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, IoOp::Write)
    }

    /// `true` for reads.
    #[inline]
    pub const fn is_read(self) -> bool {
        matches!(self, IoOp::Read)
    }
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoOp::Read => "R",
            IoOp::Write => "W",
        })
    }
}

/// One block-level I/O request as replayed from a trace. A request
/// has no identifier of its own: it is named by its position in the
/// trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IoRequest {
    /// Arrival instant on the simulation clock.
    pub arrival: SimTime,
    /// Read or write.
    pub op: IoOp,
    /// First logical block covered.
    pub lba: Lba,
    /// Number of 4 KiB blocks covered. Always ≥ 1.
    pub nblocks: u32,
    /// Per-chunk content fingerprints, one per block, **writes only**
    /// (empty for reads: replay does not need read content identity).
    /// A boxed slice, not a `Vec`: a request's chunks never grow, so it
    /// carries no capacity word.
    pub chunks: Box<[Fingerprint]>,
}

// A trace holds one per request, beside its chunk slice: keep it at
// arrival, op, address, length and the slice.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<IoRequest>() == 40);

impl IoRequest {
    /// Build a read request.
    pub fn read(arrival: SimTime, lba: Lba, nblocks: u32) -> Self {
        debug_assert!(nblocks >= 1, "requests cover at least one block");
        Self {
            arrival,
            op: IoOp::Read,
            lba,
            nblocks,
            chunks: Box::default(),
        }
    }

    /// Build a write request carrying one fingerprint per block. The
    /// vector becomes the request's boxed slice in place when its
    /// capacity is its length, as every trace producer sizes it; spare
    /// capacity is given back first.
    ///
    /// # Panics
    /// Panics (debug) if `chunks` is empty.
    pub fn write(arrival: SimTime, lba: Lba, chunks: Vec<Fingerprint>) -> Self {
        debug_assert!(!chunks.is_empty(), "write covers at least one block");
        let nblocks = chunks.len() as u32;
        Self {
            arrival,
            op: IoOp::Write,
            lba,
            nblocks,
            chunks: chunks.into_boxed_slice(),
        }
    }

    /// Request length in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.nblocks as u64 * crate::block::BLOCK_BYTES
    }

    /// Request length in kibibytes (the unit the paper buckets by).
    #[inline]
    pub fn kib(&self) -> u64 {
        self.bytes() / 1024
    }

    /// One-past-the-last logical block covered.
    #[inline]
    pub fn end_lba(&self) -> Lba {
        self.lba.add(self.nblocks as u64)
    }

    /// Iterator over `(lba, fingerprint)` pairs of a write request.
    pub fn write_chunks(&self) -> impl Iterator<Item = (Lba, Fingerprint)> + '_ {
        debug_assert!(self.op.is_write());
        self.chunks
            .iter()
            .enumerate()
            .map(move |(i, fp)| (self.lba.add(i as u64), *fp))
    }

    /// Iterator over the logical blocks covered (reads and writes).
    pub fn lbas(&self) -> impl Iterator<Item = Lba> + '_ {
        (0..self.nblocks as u64).map(move |i| self.lba.add(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fps(ids: &[u64]) -> Vec<Fingerprint> {
        ids.iter()
            .copied()
            .map(Fingerprint::from_content_id)
            .collect()
    }

    #[test]
    fn read_constructor() {
        let r = IoRequest::read(SimTime::from_micros(10), Lba::new(100), 4);
        assert!(r.op.is_read());
        assert_eq!(r.nblocks, 4);
        assert!(r.chunks.is_empty());
        assert_eq!(r.bytes(), 16384);
        assert_eq!(r.kib(), 16);
        assert_eq!(r.end_lba(), Lba::new(104));
    }

    #[test]
    fn write_constructor_sets_nblocks_from_chunks() {
        let w = IoRequest::write(SimTime::ZERO, Lba::new(8), fps(&[1, 2, 3]));
        assert!(w.op.is_write());
        assert_eq!(w.nblocks, 3);
        assert_eq!(w.bytes(), 12288);
    }

    #[test]
    fn write_chunks_pairs_lba_and_fp() {
        let w = IoRequest::write(SimTime::ZERO, Lba::new(50), fps(&[7, 8]));
        let pairs: Vec<_> = w.write_chunks().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (Lba::new(50), Fingerprint::from_content_id(7)));
        assert_eq!(pairs[1], (Lba::new(51), Fingerprint::from_content_id(8)));
    }

    #[test]
    fn lbas_iterates_every_covered_block() {
        let r = IoRequest::read(SimTime::ZERO, Lba::new(10), 3);
        let v: Vec<_> = r.lbas().collect();
        assert_eq!(v, vec![Lba::new(10), Lba::new(11), Lba::new(12)]);
    }

    #[test]
    fn io_op_predicates() {
        assert!(IoOp::Write.is_write());
        assert!(!IoOp::Write.is_read());
        assert!(IoOp::Read.is_read());
        assert_eq!(format!("{} {}", IoOp::Read, IoOp::Write), "R W");
    }
}
