//! FNV-1a 64-bit — a tiny, fast, non-cryptographic hash.
//!
//! Used for sharding concurrent tables and as a deterministic
//! `std::hash::Hasher` replacement where we need run-to-run stable
//! hashing (the default SipHash is randomly keyed per process, which
//! would make simulation runs non-reproducible if iteration order ever
//! leaked into results).
//!
//! Content fingerprints are not computed here: trace replay carries
//! each chunk's fingerprint in the trace record, and the stack charges
//! the paper's hashing cost (32 µs per 4 KiB chunk, §IV-A) as
//! simulated latency on the write path.

use core::hash::{BuildHasherDefault, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a over a byte slice.
#[inline]
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `std::hash::Hasher` implementation of FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Fast path for u64 keys (LBAs, PBAs, content ids).
        self.write(&v.to_le_bytes());
    }
}

/// Deterministic `BuildHasher` for `HashMap`/`HashSet`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn known_vectors() {
        // Reference values for FNV-1a 64 from the canonical test suite.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_matches_oneshot() {
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn incremental_writes_match() {
        let mut h = FnvHasher::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn usable_in_hashmap() {
        let mut m: HashMap<u64, u32, FnvBuildHasher> = HashMap::default();
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(&1), Some(&10));
        assert_eq!(m.get(&2), Some(&20));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = {
            let mut h = FnvHasher::default();
            h.write_u64(0xDEADBEEF);
            h.finish()
        };
        let b = {
            let mut h = FnvHasher::default();
            h.write_u64(0xDEADBEEF);
            h.finish()
        };
        assert_eq!(a, b);
    }
}
