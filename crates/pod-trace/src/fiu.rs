//! FIU SyLab trace format support.
//!
//! The paper's traces come from the FIU SyLab collection (Koller &
//! Rangaswami, FAST'10): text lines of per-block records,
//!
//! ```text
//! <timestamp> <pid> <process> <lba> <blocks> <W|R> <major> <minor> <hash>
//! ```
//!
//! one line per (4 KiB) block, with the content hash of written blocks.
//! This module parses and emits that shape so the real traces (or any
//! trace exported in the same dialect) can be replayed through POD
//! unchanged. Hashes may be 32-hex-digit MD5, which fills a
//! [`Fingerprint`] exactly, or 64-hex-digit SHA-256, which is validated
//! in full and read at its first 128 bits; read records may carry `*`
//! in the hash column. [`format_records`] writes the MD5 dialect.
//!
//! There is one line parser, [`parse_record`]: it takes its fields
//! straight off the line and borrows the process name, so it allocates
//! nothing. [`parse_str`] is the same parser over a whole body,
//! followed by [`RecordRef::to_record`].
//! [`crate::reconstruct::FiuLoader`] runs it over pieces of a body on
//! several threads, with the same skip rule and line numbering as
//! [`parse_str`], and feeds the reconstructor without ever holding a
//! `BlockRecord`. A trace file is untrusted input: every field is
//! bounds-checked here, where it enters (see [`MAX_RECORD_BLOCKS`]), and
//! a bad line is a [`PodError::TraceParse`] naming it.

use pod_types::fingerprint::{decode_hex, FINGERPRINT_BYTES};
use pod_types::{Fingerprint, IoOp, PodError, PodResult};
use std::fmt::Write;

/// Most blocks one record may cover: 65,536 blocks = 256 MiB.
///
/// FIU rows are per 4 KiB block (`1`); dialects that export a whole
/// request per row stay far below this, since no block layer issues a
/// 256 MiB request. The bound is what keeps a crafted row from asking
/// the reconstructor for a multi-gigabyte chunk vector (16 bytes of
/// fingerprint per block, so one row is at most 1 MiB).
pub const MAX_RECORD_BLOCKS: u32 = 65_536;

/// One parsed per-block trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// Timestamp in µs.
    pub ts_us: u64,
    /// Originating process id.
    pub pid: u32,
    /// Process name.
    pub process: String,
    /// Block address (4 KiB units).
    pub lba: u64,
    /// Blocks covered by this record (usually 1).
    pub nblocks: u32,
    /// Read or write.
    pub op: IoOp,
    /// Content hash for writes; `Fingerprint::ZERO` when absent.
    pub hash: Fingerprint,
}

/// A [`BlockRecord`] whose process name is borrowed — from the line it
/// was parsed from, or from the owned record it views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Timestamp in µs.
    pub ts_us: u64,
    /// Originating process id.
    pub pid: u32,
    /// Process name.
    pub process: &'a str,
    /// Block address (4 KiB units).
    pub lba: u64,
    /// Blocks covered by this record (usually 1).
    pub nblocks: u32,
    /// Read or write.
    pub op: IoOp,
    /// Content hash for writes; `Fingerprint::ZERO` when absent.
    pub hash: Fingerprint,
}

impl BlockRecord {
    /// Borrowed view of this record.
    pub fn borrowed(&self) -> RecordRef<'_> {
        RecordRef {
            ts_us: self.ts_us,
            pid: self.pid,
            process: &self.process,
            lba: self.lba,
            nblocks: self.nblocks,
            op: self.op,
            hash: self.hash,
        }
    }
}

impl RecordRef<'_> {
    /// Owned copy of this record.
    pub fn to_record(&self) -> BlockRecord {
        BlockRecord {
            ts_us: self.ts_us,
            pid: self.pid,
            process: self.process.to_string(),
            lba: self.lba,
            nblocks: self.nblocks,
            op: self.op,
            hash: self.hash,
        }
    }
}

/// Parse one trace line without allocating. `line_no` is used for error
/// reporting only. Fields beyond the ninth are ignored.
pub fn parse_record(line: &str, line_no: usize) -> PodResult<RecordRef<'_>> {
    let err = |reason: &str| PodError::TraceParse {
        line: line_no,
        reason: reason.to_string(),
    };
    let mut fields = [""; 9];
    let mut found = 0;
    for (slot, field) in fields.iter_mut().zip(line.split_ascii_whitespace()) {
        *slot = field;
        found += 1;
    }
    if found < fields.len() {
        return Err(err(&format!("expected 9 fields, got {found}")));
    }
    let [ts_us, pid, process, lba, nblocks, op, major, minor, hash] = fields;
    let ts_us: u64 = ts_us.parse().map_err(|_| err("bad timestamp"))?;
    let pid: u32 = pid.parse().map_err(|_| err("bad pid"))?;
    let lba: u64 = lba.parse().map_err(|_| err("bad lba"))?;
    let nblocks: u32 = nblocks.parse().map_err(|_| err("bad block count"))?;
    if nblocks == 0 {
        return Err(err("zero-length record"));
    }
    if nblocks > MAX_RECORD_BLOCKS {
        return Err(err(&format!(
            "block count {nblocks} exceeds the per-record bound {MAX_RECORD_BLOCKS}"
        )));
    }
    if lba.checked_add(u64::from(nblocks)).is_none() {
        return Err(err("lba + block count overflows the address space"));
    }
    let op = match op {
        "W" | "w" => IoOp::Write,
        "R" | "r" => IoOp::Read,
        other => return Err(err(&format!("bad op '{other}'"))),
    };
    // Major/minor device numbers: validated as numeric, otherwise unused.
    let _major: u32 = major.parse().map_err(|_| err("bad major"))?;
    let _minor: u32 = minor.parse().map_err(|_| err("bad minor"))?;
    let hash = parse_hash(hash).ok_or_else(|| err("bad hash"))?;
    Ok(RecordRef {
        ts_us,
        pid,
        process,
        lba,
        nblocks,
        op,
        hash,
    })
}

fn parse_hash(s: &str) -> Option<Fingerprint> {
    let mut bytes = [0u8; FINGERPRINT_BYTES];
    match s {
        "*" | "-" => {}
        // SHA-256: every digit must be hex; the first 128 bits are kept.
        _ if s.len() == 4 * FINGERPRINT_BYTES => {
            let (head, tail) = s.split_at(2 * FINGERPRINT_BYTES);
            decode_hex(head, &mut bytes)?;
            decode_hex(tail, &mut [0u8; FINGERPRINT_BYTES])?;
        }
        // MD5: the fingerprint exactly.
        _ => decode_hex(s, &mut bytes)?,
    }
    Some(Fingerprint::from_bytes(bytes))
}

/// One line of a body: `None` for a blank or `#`-prefixed line, else
/// [`parse_record`] of the trimmed line.
pub(crate) fn parse_body_line(line: &str, line_no: usize) -> Option<PodResult<RecordRef<'_>>> {
    let line = line.trim();
    let skip = line.is_empty() || line.starts_with('#');
    (!skip).then(|| parse_record(line, line_no))
}

/// Parse a whole trace body into owned records in file order, or the
/// first bad line's error; `#`-prefixed lines and blank lines are
/// skipped.
pub fn parse_str(body: &str) -> PodResult<Vec<BlockRecord>> {
    body.lines()
        .enumerate()
        .filter_map(|(i, line)| parse_body_line(line, i + 1))
        .map(|r| r.map(|r| r.to_record()))
        .collect()
}

/// Append one record in the canonical dialect, without the newline.
fn push_record(out: &mut String, r: &BlockRecord) {
    let op = if r.op.is_write() { 'W' } else { 'R' };
    write!(
        out,
        "{} {} {} {} {} {op} 8 0 ",
        r.ts_us, r.pid, r.process, r.lba, r.nblocks
    )
    .expect("write to String cannot fail");
    if r.op.is_write() {
        r.hash.push_hex(out);
    } else {
        out.push('*');
    }
}

/// Render a whole trace body.
pub fn format_records(records: &[BlockRecord]) -> String {
    let mut s = String::with_capacity(records.len() * 96);
    for r in records {
        push_record(&mut s, r);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHA: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";

    #[test]
    fn parse_write_line() {
        let line = format!("1000 42 httpd 512 1 W 8 0 {SHA}");
        let r = parse_record(&line, 1).expect("parse");
        assert_eq!(r.ts_us, 1000);
        assert_eq!(r.pid, 42);
        assert_eq!(r.process, "httpd");
        assert_eq!(r.lba, 512);
        assert_eq!(r.nblocks, 1);
        assert_eq!(r.op, IoOp::Write);
        // A SHA-256 column is read at its first 128 bits.
        assert_eq!(r.hash.to_hex(), SHA[..32]);
    }

    #[test]
    fn parse_read_line_with_star_hash() {
        let r = parse_record("5 1 mail 100 2 R 8 0 *", 1).expect("parse");
        assert_eq!(r.op, IoOp::Read);
        assert_eq!(r.hash, Fingerprint::ZERO);
        assert_eq!(r.nblocks, 2);
    }

    #[test]
    fn parse_md5_hash_is_the_fingerprint() {
        let md5 = "d41d8cd98f00b204e9800998ecf8427e";
        let line = format!("1 1 p 0 1 W 8 0 {md5}");
        let r = parse_record(&line, 1).expect("parse");
        assert_eq!(
            r.hash.as_bytes(),
            &[
                0xd4, 0x1d, 0x8c, 0xd9, 0x8f, 0x00, 0xb2, 0x04, 0xe9, 0x80, 0x09, 0x98, 0xec, 0xf8,
                0x42, 0x7e
            ]
        );
        assert_eq!(r.hash.to_hex(), md5);
    }

    #[test]
    fn sha256_hash_is_validated_past_the_kept_bits() {
        // Only the first 32 digits reach the fingerprint, but a non-hex
        // digit anywhere in positions 33–64 still rejects the line.
        for pos in [32, 40, 63] {
            let mut hash = SHA.to_string();
            hash.replace_range(pos..pos + 1, "x");
            match parse_record(&format!("1 1 p 0 1 W 8 0 {hash}"), 3) {
                Err(PodError::TraceParse { line: 3, reason }) => assert_eq!(reason, "bad hash"),
                other => panic!("digit {}: expected bad hash, got {other:?}", pos + 1),
            }
        }
    }

    #[test]
    fn md5_and_sha256_dialects_load_to_equal_requests() {
        // One trace rendered in the MD5 dialect `format_records` writes,
        // and with every hash column widened to 64 digits.
        let t = crate::TraceProfile::mail().scaled(0.02).generate(42);
        let md5 = format_records(&crate::reconstruct::split_into_records(&t));
        let sha: String = md5
            .lines()
            .map(|line| {
                let wide = if line.ends_with('*') {
                    ""
                } else {
                    "0123456789abcdefFEDCBA9876543210"
                };
                format!("{line}{wide}\n")
            })
            .collect();
        assert_ne!(md5, sha);
        let load = |body: &str| crate::reconstruct::trace_from_fiu("t", body, 0).expect("load");
        let (a, b) = (load(&md5), load(&sha));
        assert!(a.write_count() > 0);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_record("", 1).is_err());
        assert!(parse_record("1 2 3", 1).is_err());
        assert!(parse_record("x 1 p 0 1 W 8 0 *", 1).is_err());
        assert!(parse_record("1 1 p 0 1 X 8 0 *", 1).is_err());
        assert!(parse_record("1 1 p 0 0 W 8 0 *", 2).is_err(), "zero length");
        assert!(parse_record("1 1 p 0 1 W 8 0 nothex", 1).is_err());
    }

    #[test]
    fn untrusted_fields_are_rejected_at_parse_time() {
        // (line, what the reason must mention)
        let huge = "18446744073709551616"; // u64::MAX + 1
        let cases = [
            // Truncated after each field.
            ("1", "expected 9 fields, got 1"),
            ("1 1 p 0", "expected 9 fields, got 4"),
            ("1 1 p 0 1 W 8 0", "expected 9 fields, got 8"),
            // Each numeric field past its type.
            (&format!("{huge} 1 p 0 1 W 8 0 *"), "bad timestamp"),
            ("1 4294967296 p 0 1 W 8 0 *", "bad pid"),
            (&format!("1 1 p {huge} 1 W 8 0 *"), "bad lba"),
            ("1 1 p 0 4294967296 W 8 0 *", "bad block count"),
            ("1 1 p 0 1 W 4294967296 0 *", "bad major"),
            ("1 1 p 0 1 W 8 4294967296 *", "bad minor"),
            ("1 1 p 0 -1 W 8 0 *", "bad block count"),
            // In range for the type, out of range for a trace: the row
            // that used to ask for a 128 GiB chunk vector, and the lba
            // that used to wrap.
            (&format!("1 1 p 0 4294967295 W 8 0 {SHA}"), "exceeds"),
            ("1 1 p 0 65537 R 8 0 *", "exceeds"),
            ("1 1 p 18446744073709551615 1 W 8 0 *", "overflows"),
            ("1 1 p 18446744073709551608 8 R 8 0 *", "overflows"),
            // Hash column.
            (&format!("1 1 p 0 1 W 8 0 {}", &SHA[..63]), "bad hash"),
            (&format!("1 1 p 0 1 W 8 0 {}g", &SHA[..63]), "bad hash"),
            ("1 1 p 0 1 W 8 0 **", "bad hash"),
        ];
        for (line, want) in cases {
            match parse_record(line, 7) {
                Err(PodError::TraceParse { line: 7, reason }) => {
                    assert!(reason.contains(want), "{line:?}: {reason:?} lacks {want:?}")
                }
                other => panic!("{line:?}: expected a TraceParse at line 7, got {other:?}"),
            }
        }
        // The bounds themselves are inclusive.
        let r = parse_record("1 1 p 18446744073709486079 65536 R 8 0 *", 1).expect("at the bounds");
        assert_eq!(r.lba + u64::from(r.nblocks), u64::MAX);
        assert_eq!(r.nblocks, MAX_RECORD_BLOCKS);
    }

    #[test]
    fn body_dialect_variants_parse() {
        // Timestamps going backwards are the reconstructor's business
        // (they split requests), not a parse error; CRLF endings, upper
        // case hex, a comment after data and trailing fields are fine.
        let body = format!(
            "9 1 p 0 1 W 8 0 {SHA}\r\n5 1 p 1 1 W 8 0 {}\r\n# trailer\r\n7 1 p 2 1 R 8 0 * # note\n",
            SHA.to_uppercase()
        );
        let recs = parse_str(&body).expect("parse");
        assert_eq!(recs.iter().map(|r| r.ts_us).collect::<Vec<_>>(), [9, 5, 7]);
        assert_eq!(recs[0].hash, recs[1].hash);
        // The error names the line of the body, comments and blanks counted.
        let bad = format!("{body}\n1 1 p 0 99999 R 8 0 *\n");
        match parse_str(&bad) {
            Err(PodError::TraceParse { line: 6, .. }) => {}
            other => panic!("expected a TraceParse at line 6, got {other:?}"),
        }
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse_record("garbage", 17).expect_err("must fail");
        match e {
            PodError::TraceParse { line, .. } => assert_eq!(line, 17),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_str_skips_comments_and_blanks() {
        let body = format!("# header\n\n1 1 p 0 1 W 8 0 {SHA}\n   \n2 1 p 1 1 R 8 0 *\n");
        let recs = parse_str(&body).expect("parse");
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn roundtrip_format_parse() {
        let body = format!("1 1 p 0 1 W 8 0 {SHA}\n9 2 q 5 3 R 8 0 *\n");
        let recs = parse_str(&body).expect("parse");
        let out = format_records(&recs);
        let again = parse_str(&out).expect("reparse");
        assert_eq!(recs, again);
    }
}
