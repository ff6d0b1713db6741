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
//! [`reconstruct_requests`] pushes a slice of records through it.
//! [`FiuLoader`] is how a trace file is loaded: the body arrives in
//! blocks of whole lines, each block is cut into one piece per thread,
//! every piece goes through the FIU reader and its own reconstructor, and
//! the pieces are stitched back in file order — one allocation per write
//! request (its chunk vector, sized exactly), a bounded number per block
//! and none per line. [`trace_from_fiu`] is that loader fed one block.
//!
//! The stitch is exact: a piece's requests are what the sequential loop
//! would have made of its records, except that the sequential loop may
//! have absorbed the piece's first records into the request pending at
//! the cut. It does so exactly when the first request continues the
//! pending one (timestamp, op, LBA) and their block counts sum within a
//! `u32`; a continuing run that would pass `u32::MAX` splits somewhere
//! inside the piece, so that piece is re-pushed from the carried state
//! instead.

use crate::fiu::{self, RecordRef};
use crate::synth::Trace;
use pod_types::{Fingerprint, IoOp, IoRequest, Lba, PodError, PodResult, RequestId, SimTime};

/// The request under construction; a write's fingerprints collect in
/// [`Reconstructor::chunks`].
struct Pending {
    ts_us: u64,
    op: IoOp,
    lba: u64,
    nblocks: u32,
}

impl Pending {
    /// Whether a run starting at `lba` with this timestamp and op
    /// continues this request (its length is the caller's check).
    fn continued_by(&self, ts_us: u64, op: IoOp, lba: u64) -> bool {
        self.ts_us == ts_us
            && self.op == op
            && self.lba.checked_add(u64::from(self.nblocks)) == Some(lba)
    }

    /// The block count after taking `r`, when `r` continues this request.
    fn extended_by(&self, r: &RecordRef<'_>) -> Option<u32> {
        let continues = self.continued_by(r.ts_us, r.op, r.lba);
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

    /// Flush, then make the finished request `r` the pending one again.
    fn reopen(&mut self, r: IoRequest) {
        self.flush();
        self.cur = Some(Pending {
            ts_us: r.arrival.as_micros(),
            op: r.op,
            lba: r.lba.raw(),
            nblocks: r.nblocks,
        });
        self.chunks.extend_from_slice(&r.chunks);
    }

    /// Push every record of `text` — whole lines, the first of them line
    /// `lines_before + 1` of the body — and return how many lines it held.
    fn push_lines(&mut self, text: &str, lines_before: usize) -> PodResult<usize> {
        let mut records = fiu::BodyRecords::new(text, lines_before);
        for r in records.by_ref() {
            self.push(&r?);
        }
        Ok(records.lines() - lines_before)
    }

    /// Take over `piece`: the requests a fresh reconstructor made of the
    /// records that follow this one's. Ids are renumbered, and the
    /// piece's first request joins the pending one when it continues it
    /// and the joined length fits a `u32` — exactly when the sequential
    /// loop would have absorbed its records. When it continues but does
    /// not fit, the sequential loop would have split the run inside the
    /// piece: nothing is changed and `false` tells the caller to push
    /// the piece's records instead.
    fn adopt(&mut self, piece: Vec<IoRequest>) -> bool {
        let mut piece = piece.into_iter();
        let Some(first) = piece.next() else {
            return true;
        };
        match &mut self.cur {
            Some(p) if p.continued_by(first.arrival.as_micros(), first.op, first.lba.raw()) => {
                let Some(total) = p.nblocks.checked_add(first.nblocks) else {
                    return false;
                };
                p.nblocks = total;
                self.chunks.extend_from_slice(&first.chunks);
            }
            _ => self.reopen(first),
        }
        // The piece's last request may be continued by the next piece.
        let Some(last) = piece.next_back() else {
            return true;
        };
        self.flush();
        let base = self.out.len() as u64;
        self.out.extend(piece.zip(base..).map(|(mut r, id)| {
            r.id = RequestId(id);
            r
        }));
        self.reopen(last);
        true
    }

    /// The reconstructed requests, ids sequential from 0.
    pub fn finish(mut self) -> Vec<IoRequest> {
        self.flush();
        self.out
    }
}

/// The FIU load: [`feed`](Self::feed) the body in blocks of whole lines,
/// in file order, then [`finish`](Self::finish). What it returns is
/// [`reconstruct_requests`] of `fiu::parse_str(body)?` at any width and
/// any cut, ids and the first bad line's error included.
///
/// Each block is cut after a `\n` into `width` pieces of about equal
/// length. The calling thread pushes the first piece into the carried
/// [`Reconstructor`]; the others run on scoped workers through fresh
/// ones, numbering their lines from 1, and are stitched back in order:
/// a piece's error line is offset by the lines before it, and its
/// requests are adopted by the carried reconstructor under the rule in
/// the [module docs](self).
pub struct FiuLoader {
    width: usize,
    /// Lines fed so far.
    lines: usize,
    rc: Reconstructor,
}

impl FiuLoader {
    /// Bytes `pod-cli` reads from a trace file per block: small enough
    /// that the file is never held whole, large enough that a block's
    /// thread spawns cost nothing next to parsing it.
    pub const BLOCK_BYTES: usize = 1 << 20;

    /// A loader that parses each block on `width` threads (at least 1).
    pub fn new(width: usize) -> Self {
        Self {
            width: width.max(1),
            lines: 0,
            rc: Reconstructor::default(),
        }
    }

    /// Load the body's next block: whole lines, the last one ending in
    /// `\n` unless the block ends the body. After an error the load is
    /// over; the error names the body's first bad line.
    pub fn feed(&mut self, block: &str) -> PodResult<()> {
        let pieces = split_at_lines(block, self.width);
        let (head, rest) = pieces.split_first().expect("at least one piece");
        let (head_lines, tails) = std::thread::scope(|s| {
            let workers: Vec<_> = rest
                .iter()
                .map(|piece| {
                    s.spawn(move || -> PodResult<(usize, Vec<IoRequest>)> {
                        let mut rc = Reconstructor::default();
                        let lines = rc.push_lines(piece, 0)?;
                        Ok((lines, rc.finish()))
                    })
                })
                .collect();
            let head_lines = self.rc.push_lines(head, self.lines);
            let tails: Vec<_> = workers
                .into_iter()
                .map(|w| w.join().expect("FIU loader worker panicked"))
                .collect();
            (head_lines, tails)
        });
        self.lines += head_lines?;
        for (piece, tail) in rest.iter().zip(tails) {
            let before = self.lines;
            let (lines, requests) = tail.map_err(|e| match e {
                PodError::TraceParse { line, reason } => PodError::TraceParse {
                    line: line + before,
                    reason,
                },
                other => other,
            })?;
            if !self.rc.adopt(requests) {
                self.rc.push_lines(piece, before)?;
            }
            self.lines += lines;
        }
        Ok(())
    }

    /// The reconstructed requests, ids sequential from 0.
    pub fn finish(self) -> Vec<IoRequest> {
        self.rc.finish()
    }
}

/// `text` cut after a `\n` into at most `n` pieces of about equal
/// length; the first piece is always there, possibly empty.
fn split_at_lines(text: &str, n: usize) -> Vec<&str> {
    let mut pieces = Vec::with_capacity(n);
    let mut rest = text;
    for left in (1..n).rev() {
        let target = rest.len() / (left + 1);
        let Some(nl) = rest.as_bytes()[target..].iter().position(|&b| b == b'\n') else {
            break;
        };
        let (piece, tail) = rest.split_at(target + nl + 1);
        pieces.push(piece);
        rest = tail;
    }
    if pieces.is_empty() || !rest.is_empty() {
        pieces.push(rest);
    }
    pieces
}

/// Merge per-block records into original requests.
pub fn reconstruct_requests(records: &[RecordRef<'_>]) -> Vec<IoRequest> {
    let mut rc = Reconstructor::default();
    for r in records {
        rc.push(r);
    }
    rc.finish()
}

/// Reconstruct a full [`Trace`] from records, with a name and memory
/// budget attached.
pub fn trace_from_records(
    name: &str,
    records: &[RecordRef<'_>],
    memory_budget_bytes: u64,
) -> Trace {
    Trace {
        name: name.to_string(),
        requests: reconstruct_requests(records),
        memory_budget_bytes,
    }
}

/// Parse an FIU trace body and reconstruct it in the same pass: what
/// [`trace_from_records`] returns for the records of
/// `fiu::parse_str(body)?`, without the record vector in between. The
/// body is one block to a [`FiuLoader`] of width 1.
pub fn trace_from_fiu(name: &str, body: &str, memory_budget_bytes: u64) -> PodResult<Trace> {
    let mut loader = FiuLoader::new(1);
    loader.feed(body)?;
    Ok(Trace {
        name: name.to_string(),
        requests: loader.finish(),
        memory_budget_bytes,
    })
}

/// Split a trace back into per-block records (the inverse operation,
/// used by the FIU writer and by round-trip tests). Every record
/// borrows the trace name as its process name.
pub fn split_into_records(trace: &Trace) -> Vec<RecordRef<'_>> {
    let blocks: usize = trace.requests.iter().map(|r| r.nblocks as usize).sum();
    let mut out = Vec::with_capacity(blocks);
    for r in &trace.requests {
        for (i, lba) in r.lbas().enumerate() {
            out.push(RecordRef {
                ts_us: r.arrival.as_micros(),
                pid: 0,
                process: &trace.name,
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
    use crate::fiu::BlockRecord;
    use crate::profile::TraceProfile;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::fmt::Write;

    fn rec(ts: u64, lba: u64, op: IoOp, hash_id: u64) -> RecordRef<'static> {
        RecordRef {
            ts_us: ts,
            pid: 1,
            process: "p",
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
        let big = |lba: u64, nblocks: u32| RecordRef {
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
        let parsed: Vec<RecordRef> = parsed.iter().map(BlockRecord::borrowed).collect();
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

    /// `body` fed to a loader of `width` in blocks, each cut after the
    /// first `\n` at or past the next of the ascending byte offsets `cuts`.
    fn load_in_blocks(body: &str, width: usize, cuts: &[usize]) -> PodResult<Vec<IoRequest>> {
        let mut loader = FiuLoader::new(width);
        let mut start = 0;
        for &cut in cuts {
            let from = cut.max(start);
            let Some(nl) = body.as_bytes()[from..].iter().position(|&b| b == b'\n') else {
                break;
            };
            loader.feed(&body[start..from + nl + 1])?;
            start = from + nl + 1;
        }
        loader.feed(&body[start..])?;
        Ok(loader.finish())
    }

    /// Block cuts for a `len`-byte body: a few large blocks, or blocks
    /// of a few hundred bytes.
    fn random_cuts(rng: &mut StdRng, len: usize) -> Vec<usize> {
        let step = if rng.random_bool(0.5) {
            200
        } else {
            len / 4 + 1
        };
        let mut cuts = Vec::new();
        let mut at = 0;
        loop {
            at += rng.random_range(1..2 * step);
            if at >= len {
                return cuts;
            }
            cuts.push(at);
        }
    }

    /// The sequential reference: `fiu::parse_str`, then reconstruction.
    fn parse_and_reconstruct(body: &str) -> PodResult<Vec<IoRequest>> {
        let records = crate::fiu::parse_str(body)?;
        let records: Vec<RecordRef> = records.iter().map(BlockRecord::borrowed).collect();
        Ok(reconstruct_requests(&records))
    }

    /// `trace` as FIU text with comment, blank and CRLF lines mixed in.
    fn noisy_fiu(trace: &Trace, rng: &mut StdRng) -> String {
        let text = crate::fiu::format_records(&split_into_records(trace));
        let mut out = String::with_capacity(2 * text.len());
        for line in text.lines() {
            match rng.random_range(0..16u32) {
                0 => out.push_str("# comment\n"),
                1 => out.push('\n'),
                2 => out.push_str("  \r\n"),
                _ => {}
            }
            out.push_str(line);
            out.push_str(if rng.random_bool(0.1) { "\r\n" } else { "\n" });
        }
        out
    }

    #[test]
    fn loader_is_exact_at_any_width_and_cut() {
        // The reference is the sequential parse then reconstruction, ids
        // and the first bad line's error included.
        let mut rng = StdRng::seed_from_u64(26);
        let profiles = [
            TraceProfile::web_vm().scaled(0.002),
            TraceProfile::homes().scaled(0.003),
            TraceProfile::mail().scaled(0.0005),
        ];
        let bad_lines = [
            "1 1 p 0 0 W 8 0 *",
            "1 1 p 0 65537 R 8 0 *",
            "1 1 p 0 1 X 8 0 *",
            "1 1 p 0",
        ];
        for (seed, profile) in profiles.iter().enumerate() {
            let body = noisy_fiu(&profile.generate(seed as u64), &mut rng);
            let want = parse_and_reconstruct(&body).expect("parse");
            assert!(want.len() > 100, "profile {seed}: {} requests", want.len());
            let mut lines: Vec<&str> = body.lines().collect();
            let at = rng.random_range(0..lines.len());
            lines.insert(at, bad_lines[rng.random_range(0..bad_lines.len())]);
            let bad = lines.join("\n");
            let want_err = crate::fiu::parse_str(&bad).expect_err("a bad line");
            for width in [1, 2, 3, 8] {
                for _ in 0..3 {
                    let cuts = random_cuts(&mut rng, body.len());
                    let got = load_in_blocks(&body, width, &cuts).expect("parse");
                    assert_eq!(got, want, "profile {seed}, width {width}, cuts {cuts:?}");
                    for r in got.iter().filter(|r| r.op.is_write()) {
                        assert_eq!(r.chunks.capacity(), r.chunks.len(), "sized exactly");
                    }
                    let cuts = random_cuts(&mut rng, bad.len());
                    let err = load_in_blocks(&bad, width, &cuts).expect_err("a bad line");
                    assert_eq!(
                        err,
                        want_err,
                        "profile {seed}, width {width}, bad line {}",
                        at + 1
                    );
                }
            }
        }
    }

    /// A random decimal of `lo..=hi` digits, leading zeros allowed.
    fn arb_decimal(rng: &mut StdRng, lo: usize, hi: usize) -> String {
        let n = rng.random_range(lo..hi + 1);
        (0..n)
            .map(|_| char::from(b'0' + rng.random_range(0..10u8)))
            .collect()
    }

    /// 32 random hex digits of either case.
    fn arb_hex(rng: &mut StdRng) -> String {
        (0..32)
            .map(|_| char::from(b"0123456789abcdefABCDEF"[rng.random_range(0..22usize)]))
            .collect()
    }

    /// A random FIU line without its newline: with probability `mutate`,
    /// one of the departures from the canonical dialect below, else a
    /// canonical line whose values `parse_record` accepts. The second
    /// value says whether the line was left canonical.
    fn arb_line(rng: &mut StdRng, mutate: f64) -> (String, bool) {
        let name_len = rng.random_range(1..13usize);
        let name: String = (0..name_len)
            .map(|_| char::from(rng.random_range(0x21..0x7fu8)))
            .collect();
        let nblocks = match rng.random_range(0..4u32) {
            0 => arb_decimal(rng, 1, 4),
            _ => "1".to_string(),
        };
        let nblocks = if nblocks.bytes().all(|b| b == b'0') {
            "1".to_string()
        } else {
            nblocks
        };
        let hash = match rng.random_range(0..4u32) {
            0 => "*".to_string(),
            1 => "-".to_string(),
            _ => arb_hex(rng),
        };
        let op = ["W", "w", "R", "r"][rng.random_range(0..4usize)];
        let mut f: Vec<String> = vec![
            arb_decimal(rng, 1, 16),
            arb_decimal(rng, 1, 9),
            name,
            arb_decimal(rng, 1, 15),
            nblocks,
            op.to_string(),
            arb_decimal(rng, 1, 9),
            arb_decimal(rng, 1, 9),
            hash,
        ];
        if !rng.random_bool(mutate) {
            return (f.join(" "), true);
        }
        const NUMERIC: [usize; 6] = [0, 1, 3, 4, 6, 7];
        const NARROW: [usize; 4] = [1, 4, 6, 7];
        let numeric = NUMERIC[rng.random_range(0..6usize)];
        let narrow = NARROW[rng.random_range(0..4usize)];
        let (mut head, mut tail) = (String::new(), String::new());
        let mut sep = vec![" "; 8];
        let gap = rng.random_range(0..8usize);
        match rng.random_range(0..17u32) {
            0 => f[numeric].insert(0, '+'),
            1 => sep[gap] = "\t",
            2 => sep[gap] = "  ",
            3 => tail.push('\r'),
            4 => head.push_str([" ", "\t", "  "][rng.random_range(0..3usize)]),
            5 => tail.push_str([" ", "\t", " \r"][rng.random_range(0..3usize)]),
            6 => tail.push_str([" x", " 1", " # note"][rng.random_range(0..3usize)]),
            7 => f[numeric] = arb_decimal(rng, 17, 20),
            8 => f[numeric] = format!("1844674407370955161{}", rng.random_range(5..10u8)),
            9 => f[narrow] = format!("42949672{}", rng.random_range(95..100u8)),
            10 => f[8] = arb_hex(rng).to_uppercase(),
            11 => f[8] = format!("{}{}", arb_hex(rng), arb_hex(rng)),
            12 => f[8] = "-".to_string(),
            13 => {
                let odd = ["é", "\u{1}", "\u{b}", "\u{c}", "\u{7f}", "\u{a0}"];
                f[2].push_str(odd[rng.random_range(0..odd.len())]);
            }
            14 => f[4] = ["0", "65537", "65536"][rng.random_range(0..3usize)].to_string(),
            15 => f[5] = ["X", "WR", "", "ww"][rng.random_range(0..4usize)].to_string(),
            _ => {
                f.remove(rng.random_range(0..9usize));
                sep.pop();
            }
        }
        let mut line = head;
        for (i, field) in f.iter().enumerate() {
            line.push_str(field);
            if let Some(s) = sep.get(i) {
                line.push_str(s);
            }
        }
        line.push_str(&tail);
        (line, false)
    }

    #[test]
    fn scanner_returns_the_parsers_record_or_defers() {
        // A line between two others, or ending the text with or without
        // its `\n`: the scanner either defers or returns what
        // `parse_record` makes of the trimmed line, and the next line's
        // start. A canonical line with a line after it is never deferred.
        let mut rng = StdRng::seed_from_u64(46);
        let (mut taken, mut canonical) = (0, 0);
        for case in 0..40_000 {
            let (line, is_canonical) = arb_line(&mut rng, 0.5);
            let before = arb_line(&mut rng, 0.0).0 + "\n";
            let after = match rng.random_range(0..3u32) {
                0 => String::new(),
                1 => "\n".to_string(),
                _ => format!("\n{}\n", arb_line(&mut rng, 0.5).0),
            };
            let text = format!("{before}{line}{after}");
            let want = crate::fiu::parse_record(line.trim(), 1);
            match crate::fiu::scan_record(&text, before.len()) {
                Some((got, next)) => {
                    assert_eq!(Ok(got), want, "case {case}: {line:?}");
                    assert_eq!(next, before.len() + line.len() + 1, "case {case}: {line:?}");
                    taken += 1;
                }
                None => assert!(
                    !(is_canonical && after.len() > 1),
                    "case {case}: canonical {line:?} deferred ({want:?})"
                ),
            }
            canonical += usize::from(is_canonical);
        }
        assert!(
            taken >= canonical / 2,
            "{taken} of {canonical} canonical lines scanned"
        );
    }

    #[test]
    fn loader_is_exact_on_mutated_bodies() {
        // Bodies mixing canonical and mutated lines, blanks and comments:
        // `parse_str` gives what parsing each of `str::lines` does, and the
        // loader at widths 1–3 and random cuts gives its reconstruction or
        // the same first error.
        let mut rng = StdRng::seed_from_u64(4646);
        let (mut loaded, mut refused) = (0, 0);
        for round in 0..60 {
            let mutate = [0.0, 0.001, 0.05][round % 3];
            let mut body = String::new();
            for _ in 0..rng.random_range(1..1_500usize) {
                match rng.random_range(0..40u32) {
                    0 => body.push_str("# comment"),
                    1 => body.push_str("  "),
                    _ => body.push_str(&arb_line(&mut rng, mutate).0),
                }
                body.push('\n');
            }
            if rng.random_bool(0.5) {
                body.pop();
            }
            let reference: PodResult<Vec<BlockRecord>> = body
                .lines()
                .enumerate()
                .filter(|(_, l)| !l.trim().is_empty() && !l.trim().starts_with('#'))
                .map(|(i, l)| crate::fiu::parse_record(l.trim(), i + 1).map(|r| r.to_record()))
                .collect();
            let parsed = crate::fiu::parse_str(&body);
            assert_eq!(parsed, reference, "round {round}");
            let want = parse_and_reconstruct(&body);
            loaded += usize::from(want.is_ok());
            refused += usize::from(want.is_err());
            for width in [1, 2, 3] {
                let cuts = random_cuts(&mut rng, body.len());
                let got = load_in_blocks(&body, width, &cuts);
                assert_eq!(got, want, "round {round}, width {width}, cuts {cuts:?}");
            }
        }
        assert!(
            loaded > 10 && refused > 10,
            "{loaded} loaded, {refused} refused"
        );
    }

    #[test]
    fn loader_splits_an_overflowing_run_where_the_sequential_loop_does() {
        // 65,537 same-timestamp contiguous reads of 65,536 blocks: the run
        // passes u32::MAX, so the sequential loop makes requests of 65,535
        // and 2 records. A block or piece cut inside the run must split
        // it there too — not at the cut, and not at a piece's own split.
        let max = crate::fiu::MAX_RECORD_BLOCKS;
        let mut body = String::new();
        for i in 0..65_537u64 {
            writeln!(body, "7 1 p {} {max} R 8 0 *", i * u64::from(max)).expect("write");
        }
        let want = parse_and_reconstruct(&body).expect("parse");
        let sizes: Vec<u32> = want.iter().map(|r| r.nblocks).collect();
        assert_eq!(sizes, [65_535 * max, 2 * max]);
        let len = body.len();
        for width in [1, 2, 3, 8] {
            for cuts in [
                vec![],
                vec![len / 2],
                vec![len / 3, 2 * len / 3],
                vec![len - 40],
            ] {
                let got = load_in_blocks(&body, width, &cuts).expect("parse");
                assert_eq!(got, want, "width {width}, cuts {cuts:?}");
            }
        }
    }
}
