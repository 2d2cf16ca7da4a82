//! Seeded random streams and the distributions used by the paper's models.
//!
//! The paper assumes Poisson signal arrivals, exponentially distributed
//! signal durations (rate µ) and exponentially distributed iterative
//! geolocation computation times (rate ν). All sampling goes through
//! [`SimRng`] so that every stochastic component of the workspace is
//! reproducible from a single seed, and so that independent model components
//! can be given independent sub-streams ([`SimRng::fork`]).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Derives the seed of substream `stream_id` from `base_seed`.
///
/// The mixing is a SplitMix64-style finalizer over
/// `base_seed + stream_id · γ + γ` (γ the golden-ratio increment), so
/// nearby stream ids map to statistically unrelated seeds. This is a pure
/// function of its arguments: replication *i* receives the same stream no
/// matter which worker thread — or how many worker threads — the
/// replication engine ([`crate::par::Replicator`]) schedules it on.
#[must_use]
#[inline]
pub fn substream_seed(base_seed: u64, stream_id: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random stream for simulation models.
///
/// # Examples
///
/// ```
/// use oaq_sim::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    #[must_use]
    #[inline]
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Splits off an independent child stream.
    ///
    /// The child is seeded from the parent's output, so forking advances the
    /// parent stream; two forks taken in sequence are distinct.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.inner.next_u64())
    }

    /// The counter-based substream `stream_id` of `base_seed`
    /// (see [`substream_seed`]).
    ///
    /// Unlike [`SimRng::fork`], which advances the parent and therefore
    /// depends on how many forks were taken before it, a substream is
    /// addressed purely by its id — the derivation Monte Carlo replication
    /// *i* uses under both the serial loop and the parallel
    /// [`crate::par::Replicator`].
    ///
    /// # Examples
    ///
    /// ```
    /// use oaq_sim::SimRng;
    /// let mut a = SimRng::substream(7, 42);
    /// let mut b = SimRng::substream(7, 42);
    /// assert_eq!(a.unit(), b.unit());
    /// ```
    #[must_use]
    #[inline]
    pub fn substream(base_seed: u64, stream_id: u64) -> SimRng {
        SimRng::seed_from(substream_seed(base_seed, stream_id))
    }

    /// A uniform draw in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// A uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "bad range");
        if lo == hi {
            return lo;
        }
        self.inner.random_range(lo..hi)
    }

    /// An exponential draw with the given `rate` (mean `1/rate`), by
    /// inversion: `-ln(1-U)/rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate.is_finite() && rate > 0.0, "rate must be > 0");
        let u: f64 = self.unit();
        -(1.0 - u).ln() / rate
    }

    /// A standard normal draw (Box–Muller, one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        // Marsaglia polar method avoids trig and rejects u==0 naturally.
        loop {
            let u = 2.0 * self.unit() - 1.0;
            let v = 2.0 * self.unit() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * ((-2.0 * s.ln()) / s).sqrt();
            }
        }
    }

    /// A normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev.is_finite() && std_dev >= 0.0, "bad std_dev");
        mean + std_dev * self.standard_normal()
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.inner.random_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn forks_are_distinct_and_deterministic() {
        let mut parent1 = SimRng::seed_from(9);
        let mut parent2 = SimRng::seed_from(9);
        let mut c1 = parent1.fork();
        let mut d1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.unit(), c2.unit(), "same fork order, same stream");
        assert_ne!(c1.unit(), d1.unit(), "sibling forks differ");
    }

    #[test]
    fn exp_mean_is_close() {
        let mut rng = SimRng::seed_from(2);
        let n = 200_000;
        let rate = 0.5;
        let mean: f64 = (0..n).map(|_| rng.exp(rate)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean} should be ~2.0");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(rng.uniform(5.0, 5.0), 5.0, "degenerate range returns lo");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from(4);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(1.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05);
        assert!((var - 4.0).abs() < 0.1);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn index_in_range() {
        let mut rng = SimRng::seed_from(7);
        for _ in 0..1000 {
            assert!(rng.index(5) < 5);
        }
    }

    #[test]
    #[should_panic(expected = "rate must be > 0")]
    fn exp_rejects_zero_rate() {
        let _ = SimRng::seed_from(0).exp(0.0);
    }

    #[test]
    fn substreams_are_pure_and_distinct() {
        assert_eq!(substream_seed(9, 4), substream_seed(9, 4));
        assert_ne!(substream_seed(9, 4), substream_seed(9, 5));
        assert_ne!(substream_seed(9, 4), substream_seed(10, 4));
        let mut a = SimRng::substream(9, 4);
        let mut b = SimRng::substream(9, 4);
        let mut c = SimRng::substream(9, 5);
        let x = a.unit();
        assert_eq!(x, b.unit());
        assert_ne!(x, c.unit());
    }

    #[test]
    fn substreams_ignore_parent_state() {
        // Forks depend on draw history; substreams must not.
        let mut parent = SimRng::seed_from(1);
        let before = SimRng::substream(33, 7).unit();
        let _ = parent.fork();
        let after = SimRng::substream(33, 7).unit();
        assert_eq!(before, after);
    }
}
