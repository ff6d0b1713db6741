//! Sampling distributions for the workload generator.
//!
//! Implemented in-repo (rather than pulling `rand_distr`) to stay within
//! the approved dependency list: Zipf by inversion of a precomputed CDF
//! table through a guide table (O(1) expected per draw), exponential by
//! inversion, and a cumulative-weight discrete sampler.

use pod_types::rng::Rng;

/// Zipf(θ) sampler over ranks `0..n`. Rank 0 is the most popular.
///
/// Uses the standard inversion on a precomputed harmonic normaliser; for
/// the n values used here (≤ a few million) setup is a one-time O(n) cost
/// paid per generator. Sampling is O(1) expected through a guide table
/// of `m = n.next_power_of_two()` entries: `guide[j]` is the first rank
/// whose CDF reaches `j / m`, so a draw `u` starts at `guide[⌊u·m⌋]` and
/// scans forward. `m` is a power of two, so `u·m` and `j / m` are exact
/// and every draw lands on the rank a binary search of the CDF finds.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<usize>,
}

impl Zipf {
    /// Create a Zipf distribution over `n` ranks with exponent `theta`
    /// (`theta == 0` is uniform; ~0.8–1.2 models storage popularity).
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(theta >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against fp rounding leaving the last bucket slightly < 1.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let m = n.next_power_of_two();
        let step = 1.0 / m as f64;
        let mut guide = Vec::with_capacity(m);
        let mut rank = 0;
        for j in 0..m {
            let floor = j as f64 * step;
            while cdf[rank] < floor {
                rank += 1;
            }
            guide.push(rank);
        }
        Self { cdf, guide }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw a rank in `0..n`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank(rng.f64())
    }

    /// The rank `u ∈ [0, 1)` inverts to: the first whose CDF reaches `u`.
    fn rank(&self, u: f64) -> usize {
        let mut i = self.guide[(u * self.guide.len() as f64) as usize];
        while self.cdf[i] < u {
            i += 1;
        }
        i
    }
}

/// Exponential inter-arrival sampler with the given mean (µs).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Exponential with `mean` (must be positive and finite).
    pub fn new(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        Self { mean }
    }

    /// Draw a sample by inversion.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.f64();
        // Clamp away from 0 to avoid ln(0).
        -self.mean * (1.0 - u).max(f64::MIN_POSITIVE).ln()
    }
}

/// Weighted discrete sampler over arbitrary items.
#[derive(Debug, Clone)]
pub struct Discrete<T: Clone> {
    items: Vec<T>,
    cdf: Vec<f64>,
}

impl<T: Clone> Discrete<T> {
    /// Build from `(item, weight)` pairs. Weights need not sum to 1.
    ///
    /// # Panics
    /// Panics if empty or total weight is not positive.
    pub fn new(pairs: &[(T, f64)]) -> Self {
        assert!(!pairs.is_empty(), "discrete distribution needs items");
        let mut items = Vec::with_capacity(pairs.len());
        let mut cdf = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (item, w) in pairs {
            assert!(*w >= 0.0, "weights must be non-negative");
            acc += w;
            items.push(item.clone());
            cdf.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        for v in &mut cdf {
            *v /= acc;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { items, cdf }
    }

    /// Draw one item.
    pub fn sample(&self, rng: &mut Rng) -> T {
        let u = rng.f64();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.items.len() - 1);
        self.items[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[99] * 5);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 5_000.0).abs() < 500.0,
                "uniform-ish: {counts:?}"
            );
        }
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(5, 1.2);
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(z.sample(&mut r) < 5);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn exponential_mean_converges() {
        let e = Exponential::new(250.0);
        let mut r = rng();
        let total: f64 = (0..100_000).map(|_| e.sample(&mut r)).sum();
        let mean = total / 100_000.0;
        assert!((mean - 250.0).abs() < 10.0, "mean {mean}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let e = Exponential::new(10.0);
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(e.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(&[("a", 3.0), ("b", 1.0)]);
        let mut r = rng();
        let a_count = (0..40_000).filter(|_| d.sample(&mut r) == "a").count();
        assert!((a_count as f64 - 30_000.0).abs() < 1_000.0, "{a_count}");
    }

    #[test]
    fn discrete_zero_weight_items_never_drawn() {
        let d = Discrete::new(&[(1u32, 0.0), (2, 1.0)]);
        let mut r = rng();
        for _ in 0..1_000 {
            assert_eq!(d.sample(&mut r), 2);
        }
    }

    #[test]
    fn determinism_with_same_seed() {
        let z = Zipf::new(50, 0.9);
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn zipf_guide_table_inverts_like_a_binary_search() {
        for (n, theta) in [(1, 1.0), (5, 1.2), (100, 0.0), (1_000, 0.9), (8_192, 1.1)] {
            let z = Zipf::new(n, theta);
            let search = |u: f64| z.cdf.partition_point(|&c| c < u).min(n - 1);
            let m = z.guide.len();
            assert_eq!(m, n.next_power_of_two());
            // Every guide boundary `j / m`, the largest draw below it,
            // each CDF value and the draw just below it, and the largest
            // draw `1 - ε`.
            let ulp = 1.0 / (1u64 << 53) as f64;
            let boundaries = (0..m).map(|j| j as f64 / m as f64);
            let below = (1..m).map(|j| j as f64 / m as f64 - ulp);
            let at_cdf = z.cdf.iter().flat_map(|&c| [c, c - ulp]);
            let mut rng = Rng::seed_from_u64(n as u64);
            let drawn = (0..1_000).map(|_| rng.f64());
            for u in boundaries
                .chain(below)
                .chain(at_cdf)
                .chain([0.0, 1.0 - ulp])
                .chain(drawn)
                .filter(|u| (0.0..1.0).contains(u))
            {
                assert_eq!(z.rank(u), search(u), "n {n}, theta {theta}, u {u:e}");
            }
        }
    }
}
