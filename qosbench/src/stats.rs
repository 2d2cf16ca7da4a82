//! The statistics every reported figure rests on.

use crate::rng::Rng;

/// A timing is reported at its median and at the highest percentile that
/// still leaves this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// An interactive round trip this long or longer is a stall: a delayed-ACK
/// or scheduler wait, not work.
pub const STALL_MS: f64 = 20.0;

/// Zero-based index of the nearest-rank `pct`-th percentile in a sorted
/// sample of `n` values: the smallest index `i` with `(i + 1) / n ≥ pct / 100`.
///
/// # Panics
///
/// Panics on an empty sample or `pct` outside `1..=100`.
pub fn rank_index(n: usize, pct: usize) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    (pct * n).div_ceil(100) - 1
}

/// Samples strictly above the `pct`-th percentile's rank.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - 1 - rank_index(n, pct)
}

/// Whether a sample of `n` supports reporting the `pct`-th percentile.
pub fn supports(n: usize, pct: usize) -> bool {
    n > 0 && beyond(n, pct) >= MIN_BEYOND
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted[rank_index(sorted.len(), pct)]
}

/// Median of `values` (sorts them in place).
pub fn median(values: &mut [f64]) -> f64 {
    sort(values);
    percentile(values, 50)
}

/// Median of `values`, or zero when there are none (a layer the workload
/// does not reach).
pub fn median_or_zero(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(&mut values)
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Whether an interactive round trip of `ms` milliseconds is a stall.
pub fn is_stall(ms: f64) -> bool {
    ms >= STALL_MS
}

/// Share of round trips (milliseconds) that are stalls.
pub fn stall_frac(ms: &[f64]) -> f64 {
    ms.iter().filter(|&&x| is_stall(x)).count() as f64 / ms.len() as f64
}

/// A fixed-size uniform sample of an unbounded stream (Algorithm R). Its
/// memory is allocated and touched up front, so the benchmark's own
/// bookkeeping does not grow with the throughput it measures.
#[derive(Debug)]
pub struct Reservoir {
    kept: Vec<f64>,
    len: usize,
    seen: u64,
    rng: Rng,
}

impl Reservoir {
    pub fn new(capacity: usize, seed: u64) -> Self {
        Reservoir {
            // Non-zero fill writes every page now, not as samples arrive.
            kept: vec![f64::NAN; capacity],
            len: 0,
            seen: 0,
            rng: Rng::stream(seed, 0x5A3),
        }
    }

    pub fn record(&mut self, x: f64) {
        self.seen += 1;
        if self.len < self.kept.len() {
            self.kept[self.len] = x;
            self.len += 1;
        } else {
            let j = self.rng.next_u64() % self.seen;
            if let Some(slot) = self.kept.get_mut(j as usize) {
                *slot = x;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn sample(&self) -> &[f64] {
        &self.kept[..self.len]
    }
}

/// A percentile summary of one or more reservoirs, each sample weighted
/// by how many stream values it stands for.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Stream values offered.
    pub seen: u64,
    /// Samples the percentiles were read from.
    pub kept: usize,
    pub p50: f64,
    pub p90: f64,
}

impl Summary {
    pub fn of(parts: &[&Reservoir]) -> Summary {
        let mut weighted: Vec<(f64, f64)> = parts
            .iter()
            .filter(|r| r.len > 0)
            .flat_map(|r| {
                let w = r.seen as f64 / r.len as f64;
                r.sample().iter().map(move |&x| (x, w))
            })
            .collect();
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        Summary {
            seen: parts.iter().map(|r| r.seen).sum(),
            kept: weighted.len(),
            p50: weighted_percentile(&weighted, 50),
            p90: weighted_percentile(&weighted, 90),
        }
    }

    /// Whether the p90 has at least [`MIN_BEYOND`] samples beyond it.
    pub fn p90_supported(&self) -> bool {
        supports(self.kept, 90)
    }
}

/// The smallest value whose cumulative weight reaches `pct`% of the total,
/// over `(value, weight)` pairs sorted by value; with equal weights this is
/// the nearest-rank percentile. `NaN` for an empty sample.
pub fn weighted_percentile(sorted: &[(f64, f64)], pct: usize) -> f64 {
    let total: f64 = sorted.iter().map(|p| p.1).sum();
    let target = total * pct as f64 / 100.0;
    let mut acc = 0.0;
    for &(x, w) in sorted {
        acc += w;
        if acc >= target * (1.0 - 1e-12) {
            return x;
        }
    }
    sorted.last().map_or(f64::NAN, |p| p.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_index_is_nearest_rank() {
        assert_eq!(rank_index(1, 50), 0);
        assert_eq!(rank_index(1, 90), 0);
        assert_eq!(rank_index(10, 50), 4);
        assert_eq!(rank_index(10, 90), 8);
        assert_eq!(rank_index(11, 50), 5);
        assert_eq!(rank_index(100, 90), 89);
        assert_eq!(rank_index(101, 90), 90);
        assert_eq!(rank_index(100, 100), 99);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        assert_eq!(beyond(99, 90), 9);
        assert!(!supports(99, 90));
        assert_eq!(beyond(100, 90), 10);
        assert!(supports(100, 90));
        assert!(supports(230, 90));
        assert!(!supports(0, 90));
        assert!(supports(20, 50));
        assert!(!supports(19, 50));
    }

    #[test]
    fn stall_classifier_boundary() {
        assert!(!is_stall(19.999));
        assert!(is_stall(20.0));
        assert!(is_stall(44.0));
        assert!(!is_stall(0.031));
        assert_eq!(stall_frac(&[44.0, 43.9, 0.03, 20.0]), 0.75);
    }

    #[test]
    fn reservoir_keeps_everything_until_full_then_stays_bounded() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..50 {
            r.record(f64::from(i));
        }
        assert_eq!(r.sample().len(), 50);
        for i in 50..10_000 {
            r.record(f64::from(i));
        }
        assert_eq!(r.sample().len(), 100);
        assert_eq!(r.seen(), 10_000);
        let s = Summary::of(&[&r]);
        assert!((3_000.0..7_000.0).contains(&s.p50), "{}", s.p50);
    }

    #[test]
    fn summary_weights_reservoirs_by_stream_length() {
        // One reservoir saw 9000 ones (kept 100), the other 1000 twos (kept
        // all 100): 90% of the stream is 1, so the p50 is 1 and the p90 the
        // last 1.
        let mut a = Reservoir::new(100, 1);
        for _ in 0..9_000 {
            a.record(1.0);
        }
        let mut b = Reservoir::new(100, 2);
        for _ in 0..100 {
            b.record(2.0);
        }
        for _ in 0..900 {
            b.record(2.0);
        }
        let s = Summary::of(&[&a, &b]);
        assert_eq!(s.seen, 10_000);
        assert_eq!(s.p50, 1.0);
        assert_eq!(s.p90, 1.0);
        // Equal weights reduce to the nearest rank.
        let pairs: Vec<(f64, f64)> = (1..=10).map(|i| (f64::from(i), 1.0)).collect();
        assert_eq!(weighted_percentile(&pairs, 90), 9.0);
        assert_eq!(weighted_percentile(&pairs, 50), 5.0);
    }
}
