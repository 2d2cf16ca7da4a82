//! Target coverage geometry and signal episodes.
//!
//! The scenario the paper's model formulates: a target on the center line
//! of one plane's footprint trajectory. Satellite `j` (of `k`, evenly
//! phased) covers the target during `[j·Tr + n·θ, j·Tr + n·θ + Tc]`. The
//! functions here answer the geometric questions the protocol asks:
//! who covers the target now, and when does a given satellite next arrive.
//!
//! The paper's footnote 3 stresses that the algorithm does **not** assume
//! the coordination chain coincides with one plane — any set of satellites
//! whose footprints sweep the target works. [`CoverageGeometry::with_offsets`]
//! models that general case (e.g. two interleaved degraded planes); the
//! `new` constructor is the evenly-phased single-plane special case the
//! analytic model evaluates.

use std::ops::Range;

/// `x mod θ` in `[0, θ)` (up to the rounding of the negative-side wrap).
fn wrap(x: f64, theta: f64) -> f64 {
    let raw = x % theta;
    if raw < 0.0 {
        raw + theta
    } else {
        raw
    }
}

/// Center-line coverage geometry of the satellites sweeping one target.
///
/// Satellite `j` covers the target during `[offset_j + n·θ, offset_j +
/// n·θ + dur_j]`. For the single-plane center-line scenario all durations
/// equal Tc; targets off the center line (or satellites of other planes)
/// get shorter windows — see [`CoverageGeometry::with_windows`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageGeometry {
    /// Per-satellite `(window start offset, window duration)`.
    windows: Vec<(f64, f64)>,
    theta: f64,
    /// Satellite indices sorted by (offset, index) — precomputed once so
    /// the per-recruit visit-order queries are allocation-free.
    order: Vec<usize>,
    /// Inverse of `order`: `pos[sat]` is `sat`'s rank in the sweep.
    pos: Vec<usize>,
    /// The longest window duration: only satellites whose offset lies
    /// within this much before `t mod θ` can cover the target at `t`.
    max_dur: f64,
}

impl CoverageGeometry {
    /// Creates the geometry for `k` evenly-phased satellites of one plane:
    /// `offset_j = j·θ/k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `0 < tc < theta` fails.
    #[must_use]
    pub fn new(k: usize, theta: f64, tc: f64) -> Self {
        assert!(k >= 1, "need at least one satellite");
        let offsets = (0..k).map(|j| theta * j as f64 / k as f64).collect();
        CoverageGeometry::with_offsets(offsets, theta, tc)
    }

    /// Creates a general geometry from per-satellite window-start offsets
    /// (wrapped into `[0, θ)`) sharing one window duration `tc`, e.g. the
    /// merged sweep of two planes.
    ///
    /// # Panics
    ///
    /// Panics on an empty offset list, non-finite offsets, or unless
    /// `0 < tc < theta`.
    #[must_use]
    pub fn with_offsets(offsets: Vec<f64>, theta: f64, tc: f64) -> Self {
        let windows = offsets.into_iter().map(|o| (o, tc)).collect();
        CoverageGeometry::with_windows(windows, theta)
    }

    /// Creates the fully general geometry: per-satellite window starts and
    /// durations (e.g. derived from a real constellation for a target off
    /// the track center lines). Offsets are wrapped into `[0, θ)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty list, non-finite values, or a duration outside
    /// `(0, θ)`.
    #[must_use]
    pub fn with_windows(windows: Vec<(f64, f64)>, theta: f64) -> Self {
        assert!(!windows.is_empty(), "need at least one satellite");
        assert!(theta.is_finite() && theta > 0.0, "theta must be positive");
        let mut max_dur = 0.0f64;
        let windows: Vec<(f64, f64)> = windows
            .into_iter()
            .map(|(o, d)| {
                assert!(o.is_finite(), "offsets must be finite");
                assert!(
                    d.is_finite() && d > 0.0 && d < theta,
                    "window durations must be in (0, θ)"
                );
                max_dur = max_dur.max(d);
                (wrap(o, theta), d)
            })
            .collect();
        let mut order: Vec<usize> = (0..windows.len()).collect();
        // (offset, index) is a total order, so the unstable sort is exact.
        order.sort_unstable_by(|&a, &b| {
            windows[a]
                .0
                .partial_cmp(&windows[b].0)
                .expect("offsets are finite")
                .then(a.cmp(&b))
        });
        let mut pos = vec![0usize; windows.len()];
        for (rank, &sat) in order.iter().enumerate() {
            pos[sat] = rank;
        }
        CoverageGeometry {
            windows,
            theta,
            order,
            pos,
            max_dur,
        }
    }

    /// Number of satellites.
    #[must_use]
    pub fn k(&self) -> usize {
        self.windows.len()
    }

    /// Mean revisit spacing `θ/k` (the exact spacing for evenly-phased
    /// constructions).
    #[must_use]
    pub fn tr(&self) -> f64 {
        self.theta / self.windows.len() as f64
    }

    /// The per-satellite `(offset, duration)` windows.
    #[must_use]
    pub fn windows(&self) -> &[(f64, f64)] {
        &self.windows
    }

    /// The window-start offsets.
    #[must_use]
    pub fn offsets(&self) -> Vec<f64> {
        self.windows.iter().map(|&(o, _)| o).collect()
    }

    /// Phase of satellite `j`'s coverage pattern at time `t`:
    /// `(t − offset_j) mod θ`, in `[0, θ)`.
    fn phase(&self, sat: usize, t: f64) -> f64 {
        wrap(t - self.windows[sat].0, self.theta)
    }

    /// `true` when satellite `j`'s footprint covers the target at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k`.
    #[must_use]
    pub fn is_covering(&self, sat: usize, t: f64) -> bool {
        assert!(sat < self.k(), "satellite index out of range");
        self.phase(sat, t) < self.windows[sat].1
    }

    /// Satellites covering the target at `t`, in arrival order (most
    /// recently arrived last). Tests every satellite: the reference the
    /// range query in [`covering_summary`](CoverageGeometry::covering_summary)
    /// is checked against.
    #[must_use]
    pub fn covering_at(&self, t: f64) -> Vec<usize> {
        let mut sats: Vec<(f64, usize)> = (0..self.k())
            .filter(|&j| self.is_covering(j, t))
            .map(|j| (self.phase(j, t), j))
            .collect();
        // Largest phase = arrived earliest; sort descending so the freshest
        // arrival is last.
        sats.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("phases are finite"));
        sats.into_iter().map(|(_, j)| j).collect()
    }

    /// Count and freshest member of the covering set at `t`, restricted to
    /// satellites accepted by `keep` — equivalent to filtering
    /// [`covering_at`](CoverageGeometry::covering_at)`(t)` by `keep` and
    /// taking `(len, last)`, but without allocating. "Freshest" is the most
    /// recently arrived satellite: smallest phase, ties resolved to the
    /// highest index (matching `covering_at`'s stable descending sort).
    ///
    /// Costs O(log k + c), where c is the number of satellites whose
    /// window start lies within the longest window duration before `t`:
    /// only those are tested, and `keep` is called only for covering ones.
    #[must_use]
    pub fn covering_summary<F: Fn(usize) -> bool>(
        &self,
        t: f64,
        keep: F,
    ) -> (usize, Option<usize>) {
        let mut count = 0usize;
        let mut best: Option<(f64, usize)> = None;
        for ranks in self.candidate_ranks(t) {
            for &j in &self.order[ranks] {
                // Geometry first: it is cheaper than a typical `keep`
                // (fault query), and only covering satellites pay for the
                // filter.
                let p = self.phase(j, t);
                if p >= self.windows[j].1 || !keep(j) {
                    continue;
                }
                count += 1;
                // Candidates arrive in rank order, not index order, so the
                // tie-break is spelled out rather than left to the loop.
                if best.is_none_or(|(bp, bj)| p < bp || (p == bp && j > bj)) {
                    best = Some((p, j));
                }
            }
        }
        (count, best.map(|(_, j)| j))
    }

    /// At most two ranges of `order` that together hold every satellite
    /// covering the target at `t`: the ranks whose offset lies in the
    /// circular window `(t mod θ − D − m, t mod θ + m]`, D the longest
    /// window duration. The margin m covers the rounding of `phase`
    /// (`t − offset` loses up to an ulp of `t`), so widening the window by
    /// it only adds candidates that the exact `phase` test rejects. A
    /// window that spans the whole ring is returned as the whole ring.
    fn candidate_ranks(&self, t: f64) -> [Range<usize>; 2] {
        let k = self.order.len();
        let margin = 1e-6 * self.theta + 4.0 * f64::EPSILON * t.abs();
        if self.max_dur + 2.0 * margin >= self.theta {
            return [0..k, 0..0];
        }
        let now = wrap(t, self.theta);
        let (lo, hi) = (now - self.max_dur - margin, now + margin);
        // Ranks whose offset is `<= x`: offsets ascend along `order`.
        let upto = |x: f64| self.order.partition_point(|&j| self.windows[j].0 <= x);
        let wrapped = if lo < 0.0 {
            upto(lo + self.theta)..k
        } else if hi >= self.theta {
            0..upto(hi - self.theta)
        } else {
            0..0
        };
        [upto(lo)..upto(hi), wrapped]
    }

    /// The start of satellite `j`'s first coverage window at or after `t`.
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k`.
    #[must_use]
    pub fn next_arrival(&self, sat: usize, t: f64) -> f64 {
        assert!(sat < self.k(), "satellite index out of range");
        let p = self.phase(sat, t);
        if p == 0.0 {
            t
        } else {
            t + (self.theta - p)
        }
    }

    /// The earliest instant in `[from, until]` at which any satellite in
    /// `alive` covers the target, or `None`.
    #[must_use]
    pub fn earliest_coverage(&self, alive: &[bool], from: f64, until: f64) -> Option<f64> {
        assert_eq!(alive.len(), self.k(), "alive mask length mismatch");
        let mut best: Option<f64> = None;
        for (j, &is_alive) in alive.iter().enumerate() {
            if !is_alive {
                continue;
            }
            let t = if self.is_covering(j, from) {
                from
            } else {
                self.next_arrival(j, from)
            };
            if t <= until {
                best = Some(best.map_or(t, |b: f64| b.min(t)));
            }
        }
        best
    }

    /// The satellite that will next bring its footprint to the target after
    /// satellite `sat`'s window — the paper's "peer expected to visit the
    /// target next". With even phasing that is the ring successor; in
    /// general it is the satellite with the smallest positive offset gap.
    #[must_use]
    pub fn next_visitor(&self, sat: usize) -> usize {
        self.visitor_at(sat, 1)
    }

    /// The `steps`-th next visitor after `sat` in visit order.
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k`.
    #[must_use]
    pub fn visitor_at(&self, sat: usize, steps: usize) -> usize {
        assert!(sat < self.k(), "sat must be in the visit order");
        self.order[(self.pos[sat] + steps) % self.order.len()]
    }

    /// Satellite indices in the order their windows sweep the target
    /// (ascending offset; ties by index). Precomputed at construction, so
    /// this is a free borrow.
    #[must_use]
    pub fn visit_order(&self) -> &[usize] {
        &self.order
    }

    /// The previous visitor before `sat` in visit order.
    ///
    /// # Panics
    ///
    /// Panics if `sat >= k`.
    #[must_use]
    pub fn prev_visitor(&self, sat: usize) -> usize {
        self.visitor_at(sat, self.k() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(k: usize) -> CoverageGeometry {
        CoverageGeometry::new(k, 90.0, 9.0)
    }

    #[test]
    fn window_boundaries() {
        let g = reference(10); // Tr = 9 = Tc: tangent
        assert!(g.is_covering(0, 0.0));
        assert!(g.is_covering(0, 8.999));
        assert!(!g.is_covering(0, 9.0), "window is half-open");
        assert!(g.is_covering(1, 9.0), "next satellite takes over exactly");
    }

    #[test]
    fn overlap_has_two_covering_in_beta() {
        let g = reference(12); // Tr = 7.5, overlap L2 = 1.5
                               // At t = 8.0: sat 0 covers [0, 9), sat 1 covers [7.5, 16.5): both.
        let c = g.covering_at(8.0);
        assert_eq!(c, vec![0, 1], "earliest arrival first");
        // At t = 5: only sat 0.
        assert_eq!(g.covering_at(5.0), vec![0]);
    }

    #[test]
    fn underlap_has_gaps() {
        let g = reference(9); // Tr = 10, gap 1 min per period
        assert!(g.covering_at(9.5).is_empty());
        assert_eq!(g.covering_at(10.0), vec![1]);
    }

    #[test]
    fn next_arrival_wraps_period() {
        let g = reference(10);
        assert_eq!(g.next_arrival(0, 0.0), 0.0);
        assert!((g.next_arrival(0, 1.0) - 90.0).abs() < 1e-9);
        assert!((g.next_arrival(3, 0.0) - 27.0).abs() < 1e-9);
        assert!((g.next_arrival(1, 89.0) - 99.0).abs() < 1e-9);
    }

    #[test]
    fn earliest_coverage_skips_dead_satellites() {
        let g = reference(9);
        let mut alive = vec![true; 9];
        // In the gap at t = 9.5, next coverage is sat 1 at t = 10.
        assert_eq!(g.earliest_coverage(&alive, 9.5, 50.0), Some(10.0));
        alive[1] = false;
        assert_eq!(g.earliest_coverage(&alive, 9.5, 50.0), Some(20.0));
        assert_eq!(g.earliest_coverage(&[false; 9], 9.5, 50.0), None);
    }

    #[test]
    fn earliest_coverage_respects_horizon() {
        let g = reference(9);
        let alive = vec![true; 9];
        assert_eq!(g.earliest_coverage(&alive, 9.5, 9.9), None);
    }

    #[test]
    fn next_visitor_is_ring_successor() {
        let g = reference(10);
        assert_eq!(g.next_visitor(3), 4);
        assert_eq!(g.next_visitor(9), 0);
    }

    #[test]
    fn interleaved_planes_merge_their_sweeps() {
        // Two degraded planes of 5 satellites each (Tr = 18 alone:
        // deep underlap) interleaved half a spacing apart: the combined
        // sweep revisits every 9 minutes — tangent coverage recovered.
        let offsets: Vec<f64> = (0..5)
            .flat_map(|j| [18.0 * j as f64, 18.0 * j as f64 + 9.0])
            .collect();
        let g = CoverageGeometry::with_offsets(offsets, 90.0, 9.0);
        assert_eq!(g.k(), 10);
        // Continuous coverage: at any instant someone covers.
        for i in 0..90 {
            assert!(
                !g.covering_at(i as f64 + 0.5).is_empty(),
                "gap at t = {}",
                i as f64 + 0.5
            );
        }
        // Visit order follows ascending offsets (0, 9, 18, 27, ...), which
        // happens to match index order for this flat_map construction.
        assert_eq!(g.visit_order(), (0..10).collect::<Vec<usize>>());
        assert_eq!(g.next_visitor(0), 1, "cross-plane successor");
        assert_eq!(g.next_visitor(1), 2, "back to the first plane");
    }

    #[test]
    fn uneven_offsets_route_by_arrival_not_index() {
        // Offsets deliberately out of index order.
        let g = CoverageGeometry::with_offsets(vec![40.0, 0.0, 20.0], 90.0, 9.0);
        assert_eq!(g.visit_order(), vec![1, 2, 0]);
        assert_eq!(g.next_visitor(1), 2);
        assert_eq!(g.next_visitor(2), 0);
        assert_eq!(g.next_visitor(0), 1, "wraps to the earliest offset");
        assert_eq!(g.prev_visitor(1), 0);
    }

    #[test]
    fn negative_offsets_wrap() {
        let g = CoverageGeometry::with_offsets(vec![-10.0, 5.0], 90.0, 9.0);
        assert!((g.offsets()[0] - 80.0).abs() < 1e-12);
        assert_eq!(g.windows().len(), 2);
    }

    #[test]
    fn per_satellite_durations_are_respected() {
        // Sat 0: window [0, 9); sat 1: a short side-lobe pass [12, 14).
        let g = CoverageGeometry::with_windows(vec![(0.0, 9.0), (12.0, 2.0)], 90.0);
        assert!(g.is_covering(0, 5.0));
        assert!(!g.is_covering(1, 5.0));
        assert!(g.is_covering(1, 13.0));
        assert!(!g.is_covering(1, 14.5), "short window already over");
    }

    #[test]
    fn covering_at_orders_by_arrival() {
        let g = reference(14); // heavy overlap: Tr ≈ 6.43, Tc = 9
        let c = g.covering_at(7.0); // sat 0 [0,9), sat 1 [6.43, 15.43)
        assert_eq!(c, vec![0, 1]);
    }

    #[test]
    fn covering_summary_matches_filtered_covering_at() {
        // Tie-heavy case: interleaved equal offsets force the tie-break
        // (highest index among equal phases) to matter.
        let g = CoverageGeometry::with_offsets(vec![0.0, 20.0, 0.0, 20.0, 40.0], 90.0, 25.0);
        for step in 0..180 {
            let t = step as f64 * 0.5;
            for mask in 0u32..32 {
                let keep = |j: usize| mask & (1 << j) != 0;
                let filtered: Vec<usize> =
                    g.covering_at(t).into_iter().filter(|&j| keep(j)).collect();
                let (count, freshest) = g.covering_summary(t, keep);
                assert_eq!(count, filtered.len(), "t={t} mask={mask:b}");
                assert_eq!(freshest, filtered.last().copied(), "t={t} mask={mask:b}");
            }
        }
    }
}
