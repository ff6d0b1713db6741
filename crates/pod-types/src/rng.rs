//! Deterministic random streams: SplitMix64 and xoshiro256++.
//!
//! Every synthetic trace, fault decision and property-test case in the
//! workspace draws from these two generators, so a seed names the same
//! workload on every platform and every run. The streams are fixed by
//! the known-answer table in `tests/streams.rs`: a change to any draw
//! fails it.

/// SplitMix64's increment, the 64-bit golden ratio.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea & Flood): a counter stepped by the golden
/// ratio and passed through a 64-bit finalizer.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream whose first draw steps `seed` once.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The first draw of a SplitMix64 stream seeded at `x`: a stateless
/// 64-bit mixer.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    SplitMix64::new(x).next_u64()
}

/// xoshiro256++ (Blackman & Vigna), its state expanded from a 64-bit
/// seed through SplitMix64 as its authors recommend.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..span` by Lemire's multiply-shift; the bias is
    /// below 2^-64 per draw, far under anything a simulation observes.
    /// A draw over `lo..hi` is `lo + below(hi - lo)`.
    ///
    /// # Panics
    /// Panics if `span` is zero.
    #[inline]
    pub fn below(&mut self, span: u64) -> u64 {
        assert!(span > 0, "cannot sample empty range");
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval_and_spread() {
        let mut r = Rng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds_and_is_roughly_uniform() {
        let mut r = Rng::seed_from_u64(4);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as i64 - 10_000).abs() < 1_000, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut r = Rng::seed_from_u64(5);
        let _ = r.below(0);
    }
}
