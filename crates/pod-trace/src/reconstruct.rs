//! Request reconstruction.
//!
//! "Because the original request data have been split into several small
//! data chunks with a fixed size ..., the original requests are
//! reconstructed according to their timestamp, LBA and length" (§IV-A).
//! This module merges runs of per-block records that share a timestamp
//! and operation and are LBA-contiguous back into multi-block
//! [`IoRequest`]s.
//!
//! There is one reconstructor, [`Reconstructor`]: records go in one at a
//! time and nothing but the finished requests is kept.
//! [`reconstruct_requests`] pushes a slice of owned records through it;
//! [`trace_from_fiu`] pushes the FIU parser's borrowed records through
//! it, which is how a trace file is loaded — one pass over the text, one
//! allocation per write request (its chunk vector, sized exactly) and
//! none per line.

use crate::fiu::{self, BlockRecord, RecordRef};
use crate::synth::Trace;
use pod_types::{Fingerprint, IoOp, IoRequest, Lba, PodResult, SimTime};

/// The request under construction; a write's fingerprints collect in
/// [`Reconstructor::chunks`].
struct Pending {
    ts_us: u64,
    op: IoOp,
    lba: u64,
    nblocks: u32,
}

impl Pending {
    /// The block count after taking `r`, when `r` continues this request.
    fn extended_by(&self, r: &RecordRef<'_>) -> Option<u32> {
        let continues = self.ts_us == r.ts_us
            && self.op == r.op
            && self.lba.checked_add(u64::from(self.nblocks)) == Some(r.lba);
        self.nblocks.checked_add(r.nblocks).filter(|_| continues)
    }
}

/// Incremental request reconstruction: [`push`](Self::push) every
/// record in the order the tracer emitted them, then
/// [`finish`](Self::finish).
///
/// A record extends the request under construction when its timestamp
/// and op match and its LBA continues the run. Anything else starts a
/// new request — including a record that would take the request past
/// `u32::MAX` blocks or the end of the address space, so no input can
/// overflow a length.
#[derive(Default)]
pub struct Reconstructor {
    out: Vec<IoRequest>,
    cur: Option<Pending>,
    /// Fingerprints of the pending write; reused across requests.
    chunks: Vec<Fingerprint>,
}

impl Reconstructor {
    /// Add the next record.
    pub fn push(&mut self, r: &RecordRef<'_>) {
        let total = self.cur.as_ref().and_then(|p| p.extended_by(r));
        match (total, &mut self.cur) {
            (Some(total), Some(p)) => p.nblocks = total,
            _ => {
                self.flush();
                self.cur = Some(Pending {
                    ts_us: r.ts_us,
                    op: r.op,
                    lba: r.lba,
                    nblocks: r.nblocks,
                });
            }
        }
        if r.op == IoOp::Write {
            self.chunks
                .extend(std::iter::repeat_n(r.hash, r.nblocks as usize));
        }
    }

    fn flush(&mut self) {
        let Some(p) = self.cur.take() else { return };
        let id = self.out.len() as u64;
        let arrival = SimTime::from_micros(p.ts_us);
        self.out.push(match p.op {
            IoOp::Write => IoRequest::write(id, arrival, Lba::new(p.lba), self.chunks.clone()),
            IoOp::Read => IoRequest::read(id, arrival, Lba::new(p.lba), p.nblocks),
        });
        self.chunks.clear();
    }

    /// The reconstructed requests, ids sequential from 0.
    pub fn finish(mut self) -> Vec<IoRequest> {
        self.flush();
        self.out
    }
}

/// Merge per-block records into original requests.
pub fn reconstruct_requests(records: &[BlockRecord]) -> Vec<IoRequest> {
    let mut rc = Reconstructor::default();
    for r in records {
        rc.push(&r.borrowed());
    }
    rc.finish()
}

/// Reconstruct a full [`Trace`] from records, with a name and memory
/// budget attached.
pub fn trace_from_records(name: &str, records: &[BlockRecord], memory_budget_bytes: u64) -> Trace {
    Trace {
        name: name.to_string(),
        requests: reconstruct_requests(records),
        memory_budget_bytes,
    }
}

/// Parse an FIU trace body and reconstruct it in the same pass: what
/// `trace_from_records(name, &fiu::parse_str(body)?, ..)` returns,
/// without the record vector in between.
pub fn trace_from_fiu(name: &str, body: &str, memory_budget_bytes: u64) -> PodResult<Trace> {
    let mut rc = Reconstructor::default();
    for r in fiu::records(body) {
        rc.push(&r?);
    }
    Ok(Trace {
        name: name.to_string(),
        requests: rc.finish(),
        memory_budget_bytes,
    })
}

/// Split a trace back into per-block records (the inverse operation,
/// used by the FIU writer and by round-trip tests). Each record owns a
/// copy of the trace name: `BlockRecord::process` is a `String`.
pub fn split_into_records(trace: &Trace) -> Vec<BlockRecord> {
    let blocks: usize = trace.requests.iter().map(|r| r.nblocks as usize).sum();
    let mut out = Vec::with_capacity(blocks);
    for r in &trace.requests {
        for (i, lba) in r.lbas().enumerate() {
            out.push(BlockRecord {
                ts_us: r.arrival.as_micros(),
                pid: 0,
                process: trace.name.clone(),
                lba: lba.raw(),
                nblocks: 1,
                op: r.op,
                // Reads carry no chunks.
                hash: r.chunks.get(i).copied().unwrap_or(Fingerprint::ZERO),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::TraceProfile;

    fn rec(ts: u64, lba: u64, op: IoOp, hash_id: u64) -> BlockRecord {
        BlockRecord {
            ts_us: ts,
            pid: 1,
            process: "p".into(),
            lba,
            nblocks: 1,
            op,
            hash: Fingerprint::from_content_id(hash_id),
        }
    }

    #[test]
    fn contiguous_same_ts_writes_merge() {
        let records = vec![
            rec(100, 10, IoOp::Write, 1),
            rec(100, 11, IoOp::Write, 2),
            rec(100, 12, IoOp::Write, 3),
        ];
        let reqs = reconstruct_requests(&records);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].nblocks, 3);
        assert_eq!(reqs[0].lba, Lba::new(10));
        assert_eq!(reqs[0].chunks[2], Fingerprint::from_content_id(3));
    }

    #[test]
    fn timestamp_change_splits() {
        let records = vec![rec(100, 10, IoOp::Write, 1), rec(101, 11, IoOp::Write, 2)];
        let reqs = reconstruct_requests(&records);
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn lba_gap_splits() {
        let records = vec![rec(100, 10, IoOp::Write, 1), rec(100, 13, IoOp::Write, 2)];
        let reqs = reconstruct_requests(&records);
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn op_change_splits() {
        let records = vec![rec(100, 10, IoOp::Write, 1), rec(100, 11, IoOp::Read, 0)];
        let reqs = reconstruct_requests(&records);
        assert_eq!(reqs.len(), 2);
        assert!(reqs[0].op.is_write());
        assert!(reqs[1].op.is_read());
    }

    #[test]
    fn read_merge_has_no_chunks() {
        let records = vec![rec(5, 0, IoOp::Read, 0), rec(5, 1, IoOp::Read, 0)];
        let reqs = reconstruct_requests(&records);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].nblocks, 2);
        assert!(reqs[0].chunks.is_empty());
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(reconstruct_requests(&[]).is_empty());
    }

    #[test]
    fn ids_are_sequential() {
        let records = vec![
            rec(1, 0, IoOp::Write, 1),
            rec(2, 5, IoOp::Read, 0),
            rec(3, 9, IoOp::Write, 2),
        ];
        let reqs = reconstruct_requests(&records);
        let ids: Vec<u64> = reqs.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn split_then_reconstruct_roundtrips() {
        // A synthetic trace split into per-block records and merged back
        // must be identical (same sizes, lbas, chunk fingerprints).
        let t = TraceProfile::web_vm().scaled(0.005).generate(9);
        let records = split_into_records(&t);
        let rebuilt = reconstruct_requests(&records);
        assert_eq!(rebuilt.len(), t.requests.len());
        for (a, b) in t.requests.iter().zip(rebuilt.iter()) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.lba, b.lba);
            assert_eq!(a.nblocks, b.nblocks);
            assert_eq!(a.chunks, b.chunks);
            assert_eq!(a.arrival, b.arrival);
        }
    }

    #[test]
    fn lengths_never_overflow() {
        // A run that would pass u32::MAX blocks, or run off the end of
        // the address space, starts a new request instead of wrapping.
        let big = |lba: u64, nblocks: u32| BlockRecord {
            nblocks,
            ..rec(1, lba, IoOp::Read, 0)
        };
        let reqs = reconstruct_requests(&[big(0, u32::MAX), big(u64::from(u32::MAX), 5)]);
        assert_eq!(
            reqs.iter().map(|r| r.nblocks).collect::<Vec<_>>(),
            [u32::MAX, 5]
        );
        let reqs = reconstruct_requests(&[big(u64::MAX, 1), big(0, 1)]);
        assert_eq!(reqs.len(), 2);
    }

    #[test]
    fn fiu_text_roundtrip_through_reconstruction() {
        // Text → requests, by both routes: owned records then
        // reconstruction, and the fused load. Both give back the
        // generated requests exactly, ids included.
        let t = TraceProfile::homes().scaled(0.003).generate(4);
        let records = split_into_records(&t);
        let text = crate::fiu::format_records(&records);
        let parsed = crate::fiu::parse_str(&text).expect("parse");
        let rebuilt = trace_from_records("homes", &parsed, t.memory_budget_bytes);
        assert_eq!(rebuilt.requests, t.requests);
        let fused = trace_from_fiu("homes", &text, t.memory_budget_bytes).expect("parse");
        assert_eq!(fused.requests, t.requests);
        assert_eq!(fused.name, "homes");
        assert_eq!(fused.memory_budget_bytes, t.memory_budget_bytes);
        for r in fused.requests.iter().filter(|r| r.op.is_write()) {
            assert_eq!(r.chunks.capacity(), r.chunks.len(), "sized exactly");
        }
        // A bad line anywhere fails the whole load, naming the line.
        let lines = text.lines().count();
        let bad = format!("{text}1 1 p 0 0 W 8 0 *\n");
        match trace_from_fiu("homes", &bad, 0) {
            Err(pod_types::PodError::TraceParse { line, .. }) => assert_eq!(line, lines + 1),
            other => panic!("expected a TraceParse, got {other:?}"),
        }
    }
}
