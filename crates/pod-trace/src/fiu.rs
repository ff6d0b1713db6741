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
//! nothing. A body is read by a record scanner first. At each line start
//! it loads eight bytes at a time and, in one forward pass, finds each
//! field's end, converts the digits a word at a time and returns the
//! index after the `\n`. It takes only the canonical dialect that
//! [`format_records`] writes: single spaces, unsigned decimals of at
//! most 16 digits, a printable-ASCII process name, an op of `W`, `w`,
//! `R` or `r`, and a hash of `*`, `-` or 32 hex digits followed directly
//! by `\n`. For such a line it returns exactly the record
//! [`parse_record`] makes of it. Every other line goes to
//! [`parse_record`] of the trimmed line: tabs, signs, CRLF,
//! extra fields, SHA-256, comments, blanks, bad values, and a line too
//! close to the end of the text to load a word ahead. So no record,
//! error or line number depends on which path read a line.
//! [`parse_str`] is that walk over a whole body, followed by
//! [`RecordRef::to_record`].
//! [`crate::reconstruct::FiuLoader`] runs it over pieces of a body on
//! several threads, with the same skip rule and line numbering as
//! [`parse_str`], and feeds the reconstructor without ever holding a
//! `BlockRecord`. A trace file is untrusted input: every field is
//! bounds-checked here, where it enters (see [`MAX_RECORD_BLOCKS`]), and
//! a bad line is a [`PodError::TraceParse`] naming it.
//!
//! [`format_records`] renders bytes into one buffer: decimals through a
//! two-digit table, hashes through [`Fingerprint::hex_digits`].

use pod_types::fingerprint::{decode_hex, FINGERPRINT_BYTES};
use pod_types::{Fingerprint, IoOp, PodError, PodResult};

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
fn parse_body_line(line: &str, line_no: usize) -> Option<PodResult<RecordRef<'_>>> {
    let line = line.trim();
    let skip = line.is_empty() || line.starts_with('#');
    (!skip).then(|| parse_record(line, line_no))
}

/// The records of a body's lines in order, each a [`RecordRef`] or the
/// error naming its line; blank and `#`-prefixed lines yield nothing.
/// A canonical line is read by [`scan_record`], any other by
/// [`parse_body_line`], and lines are counted as `str::lines` counts
/// them.
pub(crate) struct BodyRecords<'a> {
    text: &'a str,
    /// Start of the next line.
    at: usize,
    /// Lines read so far, those before `text` included.
    line: usize,
}

impl<'a> BodyRecords<'a> {
    /// The records of `text`, whose first line is line `lines_before + 1`.
    pub(crate) fn new(text: &'a str, lines_before: usize) -> Self {
        Self {
            text,
            at: 0,
            line: lines_before,
        }
    }

    /// Lines read so far, those before the text included.
    pub(crate) fn lines(&self) -> usize {
        self.line
    }
}

impl<'a> Iterator for BodyRecords<'a> {
    type Item = PodResult<RecordRef<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        while self.at < self.text.len() {
            self.line += 1;
            if let Some((record, next)) = scan_record(self.text, self.at) {
                self.at = next;
                return Some(Ok(record));
            }
            // `at` follows a `\n`, so it is a char boundary.
            let rest = &self.text[self.at..];
            let end = rest.find('\n').unwrap_or(rest.len());
            self.at += (end + 1).min(rest.len());
            // A `\r` before the `\n` is trimmed with the other blanks.
            if let Some(record) = parse_body_line(&rest[..end], self.line) {
                return Some(record);
            }
        }
        None
    }
}

/// `b` in every byte of a word.
const fn lanes(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

const HIGH_BITS: u64 = lanes(0x80);

/// The eight bytes of `text` from `at`, the first in the low byte;
/// `None` past the end.
#[inline]
fn load(text: &[u8], at: usize) -> Option<u64> {
    let bytes = text.get(at..at + 8)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// Byte `n` (0–7) of a loaded word.
#[inline]
fn byte(word: u64, n: usize) -> u8 {
    (word >> (8 * n)) as u8
}

/// Index of the first byte of `word` whose high bit is set in `mask`.
#[inline]
fn first(mask: u64) -> usize {
    mask.trailing_zeros() as usize / 8
}

/// The high bit of every byte of `word` that is not an ASCII digit: a
/// digit XOR `'0'` is below 10, and adding `0x76` to a byte below `0x80`
/// sets its high bit exactly when it is 10 or more.
#[inline]
fn non_digits(word: u64) -> u64 {
    let x = word ^ lanes(b'0');
    (x | ((x & !HIGH_BITS) + lanes(0x76))) & HIGH_BITS
}

/// The high bit of every byte of `word` outside printable ASCII
/// (`0x21..=0x7e`): the high bit itself, a byte below `0x21` (adding
/// `0x5f` leaves it below `0x80`), or `0x7f` (adding 1 reaches `0x80`).
#[inline]
fn non_printable(word: u64) -> u64 {
    let low = word & !HIGH_BITS;
    (word | !(low + lanes(0x5f)) | (low + lanes(0x01))) & HIGH_BITS
}

/// The value of the first `n` (1–8) bytes of `word`, ASCII digits in
/// file order: shifted so that they end the word behind zero bytes, the
/// digits are paired, the pairs paired and the quads paired, each step
/// one multiply.
#[inline]
fn digits_value(word: u64, n: usize) -> u64 {
    let v = (word << (8 * (8 - n))) & lanes(0x0f);
    let v = v.wrapping_mul(10 << 8 | 1) >> 8;
    let v = (v & 0x00ff_00ff_00ff_00ff).wrapping_mul(100 << 16 | 1) >> 16;
    (v & 0x0000_ffff_0000_ffff).wrapping_mul(10_000 << 32 | 1) >> 32
}

/// `10^n` for a second word of `n` (0–8) digits.
const POW10: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut n = 1;
    while n < 9 {
        pow[n] = 10 * pow[n - 1];
        n += 1;
    }
    pow
};

/// An unsigned decimal of 1–16 digits at `at`, followed by a space: its
/// value and the index after the space.
#[inline]
fn scan_decimal(text: &[u8], at: usize) -> Option<(u64, usize)> {
    let word = load(text, at)?;
    let stop = non_digits(word);
    if stop != 0 {
        let n = first(stop);
        return (n > 0 && byte(word, n) == b' ').then(|| (digits_value(word, n), at + n + 1));
    }
    let next = load(text, at + 8)?;
    // 8 when the second word is all digits too.
    let n = first(non_digits(next));
    if text.get(at + 8 + n) != Some(&b' ') {
        return None;
    }
    let high = digits_value(word, 8);
    let value = match n {
        0 => high,
        _ => high * POW10[n] + digits_value(next, n),
    };
    Some((value, at + 9 + n))
}

/// A printable-ASCII word at `at`, followed by a space: the index of
/// that space.
#[inline]
fn scan_name(text: &[u8], at: usize) -> Option<usize> {
    let mut end = at;
    loop {
        let word = load(text, end)?;
        let stop = non_printable(word);
        if stop != 0 {
            let n = first(stop);
            end += n;
            return (end > at && byte(word, n) == b' ').then_some(end);
        }
        end += 8;
    }
}

/// A hash column of `*`, `-` or 32 hex digits at `at`, followed by
/// `\n`: its fingerprint and the index after the `\n`.
#[inline]
fn scan_hash(text: &str, at: usize) -> Option<(Fingerprint, usize)> {
    const DIGITS: usize = 2 * FINGERPRINT_BYTES;
    match text.as_bytes().get(at..at + 2)? {
        [b'*' | b'-', b'\n'] => Some((Fingerprint::ZERO, at + 2)),
        _ if text.as_bytes().get(at + DIGITS) == Some(&b'\n') => {
            let mut bytes = [0u8; FINGERPRINT_BYTES];
            decode_hex(text.get(at..at + DIGITS)?, &mut bytes)?;
            Some((Fingerprint::from_bytes(bytes), at + DIGITS + 1))
        }
        _ => None,
    }
}

/// The canonical line starting at `start` of `text`, read in one forward
/// pass: the record [`parse_record`] makes of it and the index after its
/// `\n`. `None` defers the line to [`parse_body_line`] — it is not
/// canonical, [`parse_record`] rejects one of its values, or it ends too
/// close to the end of `text` to load a word ahead.
#[inline]
pub(crate) fn scan_record(text: &str, start: usize) -> Option<(RecordRef<'_>, usize)> {
    let b = text.as_bytes();
    let (ts_us, at) = scan_decimal(b, start)?;
    let (pid, name) = scan_decimal(b, at)?;
    let name_end = scan_name(b, name)?;
    let (lba, at) = scan_decimal(b, name_end + 1)?;
    let (nblocks, at) = scan_decimal(b, at)?;
    let op = match b.get(at..at + 2)? {
        [b'W' | b'w', b' '] => IoOp::Write,
        [b'R' | b'r', b' '] => IoOp::Read,
        _ => return None,
    };
    let (major, at) = scan_decimal(b, at + 2)?;
    let (minor, at) = scan_decimal(b, at)?;
    let (hash, next) = scan_hash(text, at)?;
    // What `parse_record` refuses is left to it, for its error.
    let nblocks = u32::try_from(nblocks)
        .ok()
        .filter(|n| (1..=MAX_RECORD_BLOCKS).contains(n))?;
    lba.checked_add(u64::from(nblocks))?;
    u32::try_from(major).ok()?;
    u32::try_from(minor).ok()?;
    let record = RecordRef {
        ts_us,
        pid: u32::try_from(pid).ok()?,
        process: text.get(name..name_end)?,
        lba,
        nblocks,
        op,
        hash,
    };
    Some((record, next))
}

/// Parse a whole trace body into owned records in file order, or the
/// first bad line's error; `#`-prefixed lines and blank lines are
/// skipped.
pub fn parse_str(body: &str) -> PodResult<Vec<BlockRecord>> {
    BodyRecords::new(body, 0)
        .map(|r| r.map(|r| r.to_record()))
        .collect()
}

/// Two ASCII digits for each value below 100.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0u8; 2]; 100];
    let mut i = 0;
    while i < 100 {
        pairs[i] = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
        i += 1;
    }
    pairs
};

/// Append `v` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[(v % 100) as usize]);
        v /= 100;
    }
    if v >= 10 {
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[v as usize]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append one record in the canonical dialect, with its newline.
fn push_record(out: &mut Vec<u8>, r: &RecordRef<'_>) {
    push_decimal(out, r.ts_us);
    out.push(b' ');
    push_decimal(out, r.pid.into());
    out.push(b' ');
    out.extend_from_slice(r.process.as_bytes());
    out.push(b' ');
    push_decimal(out, r.lba);
    out.push(b' ');
    push_decimal(out, r.nblocks.into());
    if r.op.is_write() {
        out.extend_from_slice(b" W 8 0 ");
        out.extend_from_slice(&r.hash.hex_digits());
        out.push(b'\n');
    } else {
        out.extend_from_slice(b" R 8 0 *\n");
    }
}

/// Render a whole trace body.
pub fn format_records(records: &[RecordRef<'_>]) -> String {
    let mut out = Vec::with_capacity(records.len() * 96);
    for r in records {
        push_record(&mut out, r);
    }
    // ASCII around each process name, which is a `str`.
    String::from_utf8(out).expect("FIU text is UTF-8")
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
        let out = format_records(&recs.iter().map(BlockRecord::borrowed).collect::<Vec<_>>());
        let again = parse_str(&out).expect("reparse");
        assert_eq!(recs, again);
    }
}
