//! Streaming quantile estimation (the P² algorithm).
//!
//! Jain & Chlamtac's P² algorithm estimates a single quantile of a stream
//! in O(1) space by maintaining five markers whose positions are adjusted
//! with piecewise-parabolic interpolation. Used for alert-latency
//! percentiles in the protocol experiments, where storing every episode's
//! latency would dominate memory.

/// A streaming estimator of one quantile.
///
/// # Examples
///
/// ```
/// use oaq_sim::stats::P2Quantile;
/// let mut q = P2Quantile::new(0.5);
/// // A scrambled permutation of 0..=1000 (P², like any fixed-size sketch,
/// // is least accurate on fully sorted input).
/// for i in 0..=1000u32 {
///     q.record(f64::from((i * 7919) % 1001));
/// }
/// let med = q.estimate().unwrap();
/// assert!((med - 500.0).abs() < 20.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (estimates of the quantile positions).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    count: usize,
    /// First five observations, used for initialization.
    initial: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// The target quantile.
    #[must_use]
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Number of observations so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial
                    .sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }
        // Find the cell containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            2
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }
        // Adjust the three interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let step_up = self.positions[i + 1] - self.positions[i] > 1.0;
            let step_down = self.positions[i - 1] - self.positions[i] < -1.0;
            if (d >= 1.0 && step_up) || (d <= -1.0 && step_down) {
                let s = d.signum();
                let parabolic = self.parabolic(i, s);
                if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                    self.heights[i] = parabolic;
                } else {
                    self.heights[i] = self.linear(i, s);
                }
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + s / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + s) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - s) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Merges another estimator for the *same* quantile into this one
    /// (parallel reduction).
    ///
    /// P², like any constant-space sketch, cannot merge exactly; this uses
    /// the standard marker-pooling heuristic. When either side is still in
    /// its initialization phase (< 5 observations) its raw observations are
    /// simply replayed — exact. Otherwise the extreme markers take the
    /// min/max, the interior marker heights combine as count-weighted
    /// averages, and positions/desired positions add — deterministic and
    /// order-stable, with accuracy comparable to a single estimator fed
    /// both streams.
    ///
    /// # Panics
    ///
    /// Panics if the two estimators target different quantiles.
    pub fn merge(&mut self, other: &P2Quantile) {
        assert!(
            (self.p - other.p).abs() < 1e-12,
            "quantile targets must match to merge"
        );
        if other.count == 0 {
            return;
        }
        if other.initial.len() < 5 {
            for &x in &other.initial {
                self.record(x);
            }
            return;
        }
        if self.initial.len() < 5 {
            let mut merged = other.clone();
            for &x in &self.initial {
                merged.record(x);
            }
            *self = merged;
            return;
        }
        let (c1, c2) = (self.count as f64, other.count as f64);
        let total = c1 + c2;
        self.heights[0] = self.heights[0].min(other.heights[0]);
        self.heights[4] = self.heights[4].max(other.heights[4]);
        for i in 1..4 {
            self.heights[i] = (self.heights[i] * c1 + other.heights[i] * c2) / total;
        }
        // Positions and desired positions both start from the same
        // 5-observation base, counted once after pooling.
        let base_pos = [1.0, 2.0, 3.0, 4.0, 5.0];
        let base_desired = [
            1.0,
            1.0 + 2.0 * self.p,
            1.0 + 4.0 * self.p,
            3.0 + 2.0 * self.p,
            5.0,
        ];
        for i in 0..5 {
            self.positions[i] += other.positions[i] - base_pos[i];
            self.desired[i] += other.desired[i] - base_desired[i];
        }
        self.count += other.count;
    }

    /// The current quantile estimate; `None` before five observations.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            // Exact small-sample quantile.
            let mut v = self.initial.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            let idx = ((v.len() as f64 - 1.0) * self.p).round() as usize;
            return Some(v[idx]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5);
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100_000 {
            q.record(rng.uniform(0.0, 10.0));
        }
        let m = q.estimate().unwrap();
        assert!((m - 5.0).abs() < 0.1, "median {m}");
    }

    #[test]
    fn p95_of_exponential_stream() {
        let mut q = P2Quantile::new(0.95);
        let mut rng = SimRng::seed_from(2);
        for _ in 0..200_000 {
            q.record(rng.exp(1.0));
        }
        // True p95 = ln(20) ≈ 2.996.
        let e = q.estimate().unwrap();
        assert!((e - 2.996).abs() < 0.1, "p95 {e}");
    }

    #[test]
    fn small_samples_are_exact_order_statistics() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        for x in [5.0, 1.0, 3.0] {
            q.record(x);
        }
        assert_eq!(q.estimate(), Some(3.0));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn monotone_under_shifted_streams() {
        let run = |shift: f64| {
            let mut q = P2Quantile::new(0.9);
            let mut rng = SimRng::seed_from(3);
            for _ in 0..50_000 {
                q.record(rng.uniform(0.0, 1.0) + shift);
            }
            q.estimate().unwrap()
        };
        assert!(run(10.0) > run(0.0) + 9.5);
    }

    #[test]
    fn extremes_track_min_max_cells() {
        let mut q = P2Quantile::new(0.5);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, -10.0, 100.0] {
            q.record(x);
        }
        let m = q.estimate().unwrap();
        assert!(
            (1.0..=5.0).contains(&m),
            "median {m} unaffected by outliers"
        );
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn degenerate_quantile_rejected() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        P2Quantile::new(0.5).record(f64::NAN);
    }

    #[test]
    fn merged_sketches_track_the_pooled_quantile() {
        let mut a = P2Quantile::new(0.5);
        let mut b = P2Quantile::new(0.5);
        let mut whole = P2Quantile::new(0.5);
        let mut rng = SimRng::seed_from(11);
        for i in 0..100_000 {
            let x = rng.uniform(0.0, 10.0);
            whole.record(x);
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        let merged = a.estimate().unwrap();
        assert!((merged - 5.0).abs() < 0.2, "merged median {merged}");
    }

    #[test]
    fn merging_small_sides_replays_exactly() {
        let mut a = P2Quantile::new(0.5);
        let mut b = P2Quantile::new(0.5);
        for x in [1.0, 2.0] {
            a.record(x);
        }
        for x in [3.0, 4.0] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.estimate(), Some(3.0), "exact small-sample order stat");
        // Small-into-large is also well-defined.
        let mut big = P2Quantile::new(0.5);
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            big.record(rng.uniform(0.0, 1.0));
        }
        let mut small = P2Quantile::new(0.5);
        small.record(0.5);
        small.merge(&big);
        assert_eq!(small.count(), 1001);
    }

    #[test]
    #[should_panic(expected = "quantile targets must match")]
    fn merge_rejects_mismatched_targets() {
        let mut a = P2Quantile::new(0.5);
        a.merge(&P2Quantile::new(0.9));
    }
}
