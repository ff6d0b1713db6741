//! Content fingerprints.
//!
//! A `Fingerprint` identifies the *content* of one 4 KiB chunk. In
//! trace replay it is carried in the trace record, exactly as the FIU
//! traces carry one MD5 per block (§IV-A), so it is 128 bits wide: the
//! width of that column. A 64-digit (SHA-256) column is read at its
//! first 128 bits. Two chunks are duplicates iff their fingerprints are
//! equal — like the paper (and every production dedup system) we treat
//! hash collisions as impossible.
//!
//! The width is the host's representation only. What the simulated
//! system pays per index entry is modeled separately
//! ([`INDEX_ENTRY_BYTES`]), so no report depends on it; every trace,
//! index, cache and store table holding fingerprints does.

use core::fmt;
use core::hash::{Hash, Hasher};

/// Number of bytes in a fingerprint: 128 bits, the width of the FIU
/// traces' MD5 column. A wider hash is read at its first 128 bits.
pub const FINGERPRINT_BYTES: usize = 16;

/// Modeled in-memory footprint of one hash-index entry in the simulated
/// system: 32 B SHA-256 fingerprint + 8 B PBA + 4 B count + ~20 B of
/// map/LRU overhead. A modeled cost that sizes the Index table and the
/// ghost index against the read cache, not the host's key size (a host
/// [`Fingerprint`] is 16 B); changing it would move every report.
pub const INDEX_ENTRY_BYTES: u64 = 64;

/// A 128-bit content fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; FINGERPRINT_BYTES]);

// Every trace chunk, store slot and cache key holds one: keep it at
// the MD5 width.
const _: () = assert!(size_of::<Fingerprint>() == 16);

/// Hashes by the 64-bit prefix alone, in one `write_u64`: the bytes are
/// already a hash, so feeding a hasher all 16 (plus the length prefix
/// the derive adds) buys no spread and costs a multiply per byte under
/// FNV on every index and ghost-index operation. `Eq` still compares
/// all 16 bytes, so equal fingerprints hash equally and prefix
/// collisions only share a bucket.
impl Hash for Fingerprint {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.prefix_u64());
    }
}

impl Fingerprint {
    /// The all-zero fingerprint. Used as the canonical fingerprint of a
    /// zero-filled chunk in synthetic traces.
    pub const ZERO: Fingerprint = Fingerprint([0u8; FINGERPRINT_BYTES]);

    /// Construct from raw bytes.
    #[inline]
    pub const fn from_bytes(bytes: [u8; FINGERPRINT_BYTES]) -> Self {
        Self(bytes)
    }

    /// Build a fingerprint that encodes a synthetic 64-bit content id.
    ///
    /// Trace generators label each distinct chunk content with a
    /// `content_id`; this expands the id into a full-width fingerprint by
    /// a splittable mix (SplitMix64 finalizer on the second lane), so
    /// that the bytes look hash-like while remaining a pure function of
    /// the id. Distinct ids map to distinct fingerprints.
    pub fn from_content_id(content_id: u64) -> Self {
        #[inline]
        fn splitmix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut out = [0u8; FINGERPRINT_BYTES];
        // Lane 0 carries the raw id so the mapping is trivially injective
        // (and the `Hash` prefix is the id); lane 1 is mixed so the value
        // looks like a digest.
        out[0..8].copy_from_slice(&content_id.to_le_bytes());
        out[8..16].copy_from_slice(&splitmix(content_id ^ 0xA5A5_A5A5_A5A5_A5A5).to_le_bytes());
        Self(out)
    }

    /// Recover the synthetic content id from a fingerprint produced by
    /// [`Fingerprint::from_content_id`].
    #[inline]
    pub fn content_id(&self) -> u64 {
        u64::from_le_bytes(self.0[0..8].try_into().expect("8 bytes"))
    }

    /// Raw bytes.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; FINGERPRINT_BYTES] {
        &self.0
    }

    /// First eight bytes folded to a `u64`, useful as a cheap pre-hash
    /// for sharding.
    #[inline]
    pub fn prefix_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[0..8].try_into().expect("8 bytes"))
    }

    /// Lowercase hex rendering of the full fingerprint.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(FINGERPRINT_BYTES * 2);
        self.push_hex(&mut s);
        s
    }

    /// Append the lowercase hex rendering to `out` (no intermediate
    /// `String`; the FIU writer emits one per written block).
    pub fn push_hex(&self, out: &mut String) {
        let mut buf = [0u8; FINGERPRINT_BYTES * 2];
        for (pair, b) in buf.chunks_exact_mut(2).zip(&self.0) {
            pair[0] = HEX_DIGITS[(b >> 4) as usize];
            pair[1] = HEX_DIGITS[(b & 0x0f) as usize];
        }
        out.push_str(core::str::from_utf8(&buf).expect("hex digits are ASCII"));
    }

    /// Parse a fingerprint from a hex string (32 hex digits).
    pub fn from_hex(hex: &str) -> Option<Self> {
        let mut out = [0u8; FINGERPRINT_BYTES];
        decode_hex(hex.trim(), &mut out)?;
        Some(Self(out))
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`HEX_VALUE`].
const NOT_HEX: u8 = 0xff;

/// Value of every byte read as a hex digit (either case).
const HEX_VALUE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decode exactly `2 * dst.len()` hex digits (either case) into `dst`;
/// `None` on any other length or any non-hex byte.
pub fn decode_hex(hex: &str, dst: &mut [u8]) -> Option<()> {
    let hex = hex.as_bytes();
    if hex.len() != dst.len() * 2 {
        return None;
    }
    for (pair, out) in hex.chunks_exact(2).zip(dst) {
        let (hi, lo) = (HEX_VALUE[pair[0] as usize], HEX_VALUE[pair[1] as usize]);
        if hi == NOT_HEX || lo == NOT_HEX {
            return None;
        }
        *out = (hi << 4) | lo;
    }
    Some(())
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short prefix is enough to tell fingerprints apart in logs.
        write!(
            f,
            "Fp({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_id_roundtrip() {
        for id in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let fp = Fingerprint::from_content_id(id);
            assert_eq!(fp.content_id(), id);
        }
    }

    #[test]
    fn distinct_ids_distinct_fingerprints() {
        let a = Fingerprint::from_content_id(1);
        let b = Fingerprint::from_content_id(2);
        assert_ne!(a, b);
    }

    #[test]
    fn same_id_same_fingerprint() {
        assert_eq!(
            Fingerprint::from_content_id(777),
            Fingerprint::from_content_id(777)
        );
    }

    #[test]
    fn hex_roundtrip() {
        let fp = Fingerprint::from_content_id(123_456_789);
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::from_hex(&hex), Some(fp));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Fingerprint::from_hex(""), None);
        assert_eq!(Fingerprint::from_hex("zz"), None);
        let almost = "a".repeat(31);
        assert_eq!(Fingerprint::from_hex(&almost), None);
        assert_eq!(
            Fingerprint::from_hex(&"a".repeat(64)),
            None,
            "a SHA-256 width"
        );
        let bad_char = format!("{}g", "a".repeat(31));
        assert_eq!(Fingerprint::from_hex(&bad_char), None);
    }

    #[test]
    fn hex_matches_the_formatter_and_reads_either_case() {
        let fp = Fingerprint::from_content_id(0xFEED_F00D);
        let reference: String = fp.as_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(fp.to_hex(), reference);
        assert_eq!(Fingerprint::from_hex(&reference.to_uppercase()), Some(fp));
        let mut md5 = [0u8; 16];
        assert_eq!(decode_hex(&reference[..32], &mut md5), Some(()));
        assert_eq!(md5, fp.as_bytes()[..16]);
        assert_eq!(decode_hex(&reference[..30], &mut md5), None);
        assert_eq!(decode_hex(&"é".repeat(16), &mut md5), None, "non-ASCII");
    }

    #[test]
    fn from_hex_accepts_surrounding_whitespace() {
        let fp = Fingerprint::from_content_id(5);
        let padded = format!("  {}\n", fp.to_hex());
        assert_eq!(Fingerprint::from_hex(&padded), Some(fp));
    }

    #[test]
    fn zero_fingerprint_is_zero_id() {
        assert_eq!(Fingerprint::ZERO.content_id(), 0);
        // But from_content_id(0) is NOT all-zero beyond the first lane —
        // the mixed lane distinguishes "synthetic id 0" from the canonical
        // zero-chunk fingerprint.
        assert_ne!(Fingerprint::from_content_id(0), Fingerprint::ZERO);
    }

    #[test]
    fn debug_is_short() {
        let s = format!("{:?}", Fingerprint::from_content_id(9));
        assert!(s.starts_with("Fp("));
        assert!(s.len() < 20);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn content_id_roundtrip_holds(id in any::<u64>()) {
                prop_assert_eq!(Fingerprint::from_content_id(id).content_id(), id);
            }

            #[test]
            fn hex_roundtrip_holds(id in any::<u64>()) {
                let fp = Fingerprint::from_content_id(id);
                prop_assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
            }

            #[test]
            fn distinct_ids_never_collide(a in any::<u64>(), b in any::<u64>()) {
                prop_assume!(a != b);
                prop_assert_ne!(
                    Fingerprint::from_content_id(a),
                    Fingerprint::from_content_id(b)
                );
            }

            #[test]
            fn prefix_matches_first_lane(id in any::<u64>()) {
                prop_assert_eq!(Fingerprint::from_content_id(id).prefix_u64(), id);
            }
        }
    }
}
