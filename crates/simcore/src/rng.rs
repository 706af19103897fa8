//! Seeded randomness for deterministic simulations.
//!
//! Only `rand`'s uniform primitives are used. The shaped distributions
//! are implemented here, so the workspace does not need `rand_distr`:
//! [`SimRng::exponential`] by inversion, and a Zipf rank by walking a
//! [`Zipf`] table that is prepared once per key space. A shaped draw
//! takes one uniform from the stream, and what a distribution can
//! compute ahead of time is computed once: scenario clients draw once
//! per request.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::SimDuration;

/// A seeded random source with the distributions SysProf's workload
/// generators require.
///
/// All experiments take a seed so results are reproducible; independent
/// subsystems should [`fork`](SimRng::fork) their own streams so adding
/// draws to one does not perturb another.
///
/// # Example
///
/// ```
/// use simcore::SimRng;
/// let mut a = SimRng::seed(7);
/// let mut b = SimRng::seed(7);
/// assert_eq!(a.uniform_u64(0, 100), b.uniform_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream. The child is a deterministic
    /// function of the parent state and `salt`.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let s = self.inner.gen::<u64>() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed(s)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_u64 requires lo < hi, got [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed value with the given mean (inverse rate),
    /// via inversion sampling.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        // 1 - U is in (0, 1], so ln never sees zero.
        -mean * (1.0 - self.unit_f64()).ln()
    }

    /// Exponentially distributed duration with the given mean. Used for
    /// Poisson arrival processes (inter-arrival times).
    pub fn exponential_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// A Zipf-distributed rank in `[0, n)` for a table of `n` ranks: one
    /// [`unit_f64`] scaled by the table's norm, less each rank's weight
    /// in turn until it is used up. `O(n)` worst case, with no `powf`.
    ///
    /// [`unit_f64`]: SimRng::unit_f64
    pub fn zipf(&mut self, table: &Zipf) -> usize {
        let mut target = self.unit_f64() * table.norm;
        for (rank, w) in table.weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return rank;
            }
        }
        table.weights.len() - 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.inner.gen_range(0..=i);
            slice.swap(i, j);
        }
    }
}

/// The weights of a Zipf distribution over ranks `0..n` with skew `s`:
/// rank `k - 1` weighs `1 / k^s`. Build one per key space and draw from
/// it with [`SimRng::zipf`].
///
/// # Example
///
/// ```
/// use simcore::{SimRng, Zipf};
/// let keys = Zipf::new(64, 1.2);
/// let mut rng = SimRng::seed(7);
/// assert!(rng.zipf(&keys) < 64);
/// ```
#[derive(Debug)]
pub struct Zipf {
    weights: Box<[f64]>,
    /// The weights' sum, added up in rank order.
    norm: f64,
}

impl Zipf {
    /// Prepares the weights for `n` ranks with skew `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf requires n > 0");
        assert!(
            s.is_finite() && s >= 0.0,
            "zipf skew must be non-negative, got {s}"
        );
        let weights: Box<[f64]> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let norm = weights.iter().sum();
        Zipf { weights, norm }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sampler before [`Zipf`], verbatim: it recomputed the norm and
    /// every weight with `powf` on each draw. The table must give the
    /// same rank from the same stream position.
    fn reference_zipf(rng: &mut SimRng, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf requires n > 0");
        assert!(
            s.is_finite() && s >= 0.0,
            "zipf skew must be non-negative, got {s}"
        );
        let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut target = rng.unit_f64() * norm;
        for k in 1..=n {
            target -= 1.0 / (k as f64).powf(s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = SimRng::seed(42);
        let mut b = SimRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn forked_streams_are_independent_and_deterministic() {
        let mut parent1 = SimRng::seed(1);
        let mut parent2 = SimRng::seed(1);
        let mut c1 = parent1.fork(9);
        let mut c2 = parent2.fork(9);
        assert_eq!(c1.uniform_u64(0, 1 << 60), c2.uniform_u64(0, 1 << 60));
        // Different salts give different streams (overwhelmingly likely).
        let mut parent3 = SimRng::seed(1);
        let mut c3 = parent3.fork(10);
        let draws1: Vec<u64> = (0..8).map(|_| c1.uniform_u64(0, 1 << 60)).collect();
        let draws3: Vec<u64> = (0..8).map(|_| c3.uniform_u64(0, 1 << 60)).collect();
        assert_ne!(draws1, draws3);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed(7);
        let n = 20_000;
        let mean = 4.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.15, "observed mean {observed}");
    }

    #[test]
    fn zipf_rank_zero_most_popular() {
        let mut rng = SimRng::seed(10);
        let table = Zipf::new(5, 1.0);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[rng.zipf(&table)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
    }

    #[test]
    fn zipf_zero_skew_is_uniformish() {
        let mut rng = SimRng::seed(11);
        let table = Zipf::new(4, 0.0);
        let mut counts = [0usize; 4];
        for _ in 0..8_000 {
            counts[rng.zipf(&table)] += 1;
        }
        for c in counts {
            assert!((c as i64 - 2000).abs() < 300, "{counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zipf requires n > 0")]
    fn zipf_rejects_an_empty_key_space() {
        Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "zipf skew must be non-negative")]
    fn zipf_rejects_a_non_finite_skew() {
        Zipf::new(4, f64::NAN);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed(12);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_empty_range() {
        SimRng::seed(0).uniform_u64(5, 5);
    }

    proptest! {
        #[test]
        fn prop_exponential_nonnegative(seed in any::<u64>(), mean in 0.001f64..1e6) {
            let mut rng = SimRng::seed(seed);
            let v = rng.exponential(mean);
            prop_assert!(v.is_finite() && v >= 0.0);
        }

        #[test]
        fn prop_zipf_in_range(seed in any::<u64>(), n in 1usize..200, s in 0.0f64..3.0) {
            let mut rng = SimRng::seed(seed);
            prop_assert!(rng.zipf(&Zipf::new(n, s)) < n);
        }

        #[test]
        fn prop_zipf_table_is_the_old_sampler(
            seed in any::<u64>(),
            n in 1usize..200,
            s in 0.0f64..3.0,
        ) {
            // n = 1 is a single key (fanout's): it still takes its draw.
            for n in [1, n] {
                let table = Zipf::new(n, s);
                let mut a = SimRng::seed(seed);
                let mut b = SimRng::seed(seed);
                for _ in 0..8 {
                    prop_assert_eq!(a.zipf(&table), reference_zipf(&mut b, n, s));
                    // One uniform per draw: both streams stand at the same place.
                    prop_assert_eq!(a.unit_f64().to_bits(), b.unit_f64().to_bits());
                }
            }
        }

        #[test]
        fn prop_chance_extremes(seed in any::<u64>()) {
            let mut rng = SimRng::seed(seed);
            prop_assert!(!rng.chance(0.0));
            prop_assert!(rng.chance(1.0));
        }
    }
}
