//! Streaming moment estimation (Welford's algorithm).

/// Accumulates observations and reports mean, variance, extrema.
///
/// Uses Welford's numerically stable online update, so it is safe for long
/// runs with millions of observations.
///
/// # Examples
///
/// ```
/// use oaq_sim::stats::Tally;
/// let mut t = Tally::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     t.record(x);
/// }
/// assert_eq!(t.mean(), 2.5);
/// assert_eq!(t.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Tally {
    /// Creates an empty tally.
    #[must_use]
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; zero with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest observation, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Merges another tally into this one (parallel reduction).
    pub fn merge(&mut self, other: &Tally) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_closed_form() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(2.0));
        assert_eq!(t.max(), Some(9.0));
    }

    #[test]
    fn empty_tally_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Tally::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Tally::new();
        let mut b = Tally::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-10);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Tally::new();
        a.record(1.0);
        let before = a.clone();
        a.merge(&Tally::new());
        assert_eq!(a, before);
        let mut e = Tally::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Tally::new().record(f64::NAN);
    }
}
