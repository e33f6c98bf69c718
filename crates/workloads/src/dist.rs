//! Collection-size and key distributions for workload generation.

use rand::{Rng, RngCore};

/// A distribution over collection sizes.
///
/// # Examples
///
/// ```
/// use cs_workloads::SizeDist;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let d = SizeDist::Uniform(10, 20);
/// for _ in 0..100 {
///     let s = d.sample(&mut rng);
///     assert!((10..=20).contains(&s));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every instance has exactly this size.
    Fixed(usize),
    /// Uniform over `[lo, hi]` (inclusive).
    Uniform(usize, usize),
    /// Mostly `[small_lo, small_hi]`, with probability `large_prob` of
    /// `[large_lo, large_hi]` — the "widely ranging sizes" shape that makes
    /// adaptive variants eligible (paper §3.2).
    Bimodal {
        /// Lower bound of the common small sizes.
        small_lo: usize,
        /// Upper bound of the common small sizes.
        small_hi: usize,
        /// Lower bound of the rare large sizes.
        large_lo: usize,
        /// Upper bound of the rare large sizes.
        large_hi: usize,
        /// Probability of drawing from the large range.
        large_prob: f64,
    },
}

impl SizeDist {
    /// Draws a size.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            SizeDist::Bimodal {
                small_lo,
                small_hi,
                large_lo,
                large_hi,
                large_prob,
            } => {
                if rng.gen_bool(large_prob) {
                    rng.gen_range(large_lo..=large_hi)
                } else {
                    rng.gen_range(small_lo..=small_hi)
                }
            }
        }
    }

    /// Largest size this distribution can produce.
    pub fn max(&self) -> usize {
        match *self {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform(_, hi) => hi,
            SizeDist::Bimodal { large_hi, .. } => large_hi,
        }
    }
}

/// A Zipf (power-law) distribution over the keys `0..n` — the skewed
/// key-popularity shape of caches and session stores, where a handful of
/// hot keys absorb most of the traffic. Used by the concurrent load
/// generator so contended shards and hot-key effects are represented.
///
/// Sampling inverts a precomputed CDF with a binary search: O(n) memory at
/// construction, O(log n) per sample, no floating-point accumulation on the
/// sampling path.
///
/// # Examples
///
/// ```
/// use cs_workloads::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let zipf = Zipf::new(1_000, 1.1);
/// let hot = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
/// assert!(hot > 4_000, "the 1% hottest keys draw most samples, got {hot}");
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution over `0..n` with exponent `s` (`s = 0` is
    /// uniform; larger is more skewed; ~0.99–1.1 matches YCSB-style key
    /// popularity).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty key space");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of keys in the distribution's support.
    pub fn key_space(&self) -> usize {
        self.cdf.len()
    }

    /// Draws a key in `0..n`; key `0` is the hottest.
    pub fn sample(&self, rng: &mut impl RngCore) -> u64 {
        // 53 uniform mantissa bits -> f64 in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(SizeDist::Fixed(7).sample(&mut rng), 7);
        assert_eq!(SizeDist::Fixed(7).max(), 7);
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = SizeDist::Uniform(3, 9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!((3..=9).contains(&s));
            seen_lo |= s == 3;
            seen_hi |= s == 9;
        }
        assert!(seen_lo && seen_hi, "bounds must be reachable");
    }

    #[test]
    fn zipf_covers_space_and_skews_to_low_ranks() {
        let mut rng = StdRng::seed_from_u64(3);
        let zipf = Zipf::new(100, 1.0);
        assert_eq!(zipf.key_space(), 100);
        let mut counts = [0u32; 100];
        for _ in 0..50_000 {
            let k = zipf.sample(&mut rng) as usize;
            assert!(k < 100, "sample out of range: {k}");
            counts[k] += 1;
        }
        assert!(counts[0] > counts[50], "rank 0 must beat rank 50");
        assert!(counts[0] > counts[99], "rank 0 must beat rank 99");
        // Harmonic(100) ~ 5.19: rank 0 carries ~19% of the mass.
        assert!(counts[0] > 7_000, "rank 0 drew only {}", counts[0]);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let mut rng = StdRng::seed_from_u64(9);
        let zipf = Zipf::new(10, 0.0);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (1_500..2_500).contains(&c),
                "uniform key {i} drew {c} of 20000"
            );
        }
    }

    #[test]
    fn bimodal_produces_both_modes() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = SizeDist::Bimodal {
            small_lo: 2,
            small_hi: 10,
            large_lo: 100,
            large_hi: 200,
            large_prob: 0.2,
        };
        let samples: Vec<usize> = (0..2000).map(|_| d.sample(&mut rng)).collect();
        let large = samples.iter().filter(|&&s| s >= 100).count();
        assert!(large > 200 && large < 600, "got {large} large of 2000");
        assert_eq!(d.max(), 200);
    }
}
