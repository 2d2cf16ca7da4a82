//! Per-engine observability: admission, cache and latency counters.
//!
//! Counters live behind one [`parking_lot::Mutex`] and are mutated on the
//! hot paths (admission, solve, completion); [`Metrics::snapshot`]
//! clones a consistent view out. Aggregates reuse `oaq-sim`'s statistics
//! accumulators ([`Tally`], [`P2Quantile`]) rather than reinventing
//! streaming moments and percentiles.

use oaq_sim::stats::{Counter, P2Quantile, Tally};
use parking_lot::Mutex;

/// A P² quantile estimator hardened against pathological inputs.
///
/// The raw [`P2Quantile`] panics on NaN and lets ±∞ corrupt its marker
/// heights, and its sub-five-sample "exact" estimate is noise for tail
/// quantiles (the p99 of three observations is just the maximum). This
/// wrapper ignores non-finite samples (counting them separately) and
/// withholds the estimate (`None`) until five finite observations have
/// arrived — callers like the SLO shedder must see *no* estimate rather
/// than a garbage one.
#[derive(Debug)]
pub struct RobustQuantile {
    inner: P2Quantile,
    ignored: u64,
}

impl RobustQuantile {
    /// An estimator for the `p`-quantile.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        RobustQuantile {
            inner: P2Quantile::new(p),
            ignored: 0,
        }
    }

    /// Records one observation; non-finite samples are ignored (and
    /// counted in [`Self::ignored`]) instead of poisoning the markers.
    pub fn record(&mut self, x: f64) {
        if x.is_finite() {
            self.inner.record(x);
        } else {
            self.ignored += 1;
        }
    }

    /// The current estimate; `None` until five finite observations.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        if self.inner.count() < 5 {
            None
        } else {
            self.inner.estimate()
        }
    }

    /// Finite observations recorded so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.inner.count()
    }

    /// Non-finite samples dropped so far.
    #[must_use]
    pub fn ignored(&self) -> u64 {
        self.ignored
    }
}

/// The mutable counter state, guarded by [`Metrics`].
#[derive(Debug)]
struct MetricsInner {
    submitted: Counter,
    served: Counter,
    rejected: Counter,
    result_cache_hits: Counter,
    coalesced: Counter,
    pk_solves: Counter,
    pk_cache_hits: Counter,
    eval_panics: Counter,
    deadline_expired: Counter,
    quota_rejected: Counter,
    shed: Counter,
    solve: StageLatency,
    end_to_end: StageLatency,
}

/// Streaming latency statistics for one pipeline stage (seconds).
#[derive(Debug)]
struct StageLatency {
    tally: Tally,
    p50: RobustQuantile,
    p95: RobustQuantile,
    p99: RobustQuantile,
}

impl StageLatency {
    fn new() -> Self {
        StageLatency {
            tally: Tally::new(),
            p50: RobustQuantile::new(0.50),
            p95: RobustQuantile::new(0.95),
            p99: RobustQuantile::new(0.99),
        }
    }

    fn record(&mut self, seconds: f64) {
        if !seconds.is_finite() {
            // Keep every aggregate consistent: drop the sample entirely
            // (the quantile wrappers would drop it anyway; a non-finite
            // value must not reach the Tally min/max/mean either).
            return;
        }
        self.tally.record(seconds);
        self.p50.record(seconds);
        self.p95.record(seconds);
        self.p99.record(seconds);
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.tally.count(),
            mean: self.tally.mean(),
            min: self.tally.min().unwrap_or(f64::NAN),
            max: self.tally.max().unwrap_or(f64::NAN),
            p50: self.p50.estimate().unwrap_or(f64::NAN),
            p95: self.p95.estimate().unwrap_or(f64::NAN),
            p99: self.p99.estimate().unwrap_or(f64::NAN),
        }
    }
}

/// Thread-safe engine metrics.
#[derive(Debug)]
pub struct Metrics {
    inner: Mutex<MetricsInner>,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            inner: Mutex::new(MetricsInner {
                submitted: Counter::new(),
                served: Counter::new(),
                rejected: Counter::new(),
                result_cache_hits: Counter::new(),
                coalesced: Counter::new(),
                pk_solves: Counter::new(),
                pk_cache_hits: Counter::new(),
                eval_panics: Counter::new(),
                deadline_expired: Counter::new(),
                quota_rejected: Counter::new(),
                shed: Counter::new(),
                solve: StageLatency::new(),
                end_to_end: StageLatency::new(),
            }),
        }
    }

    /// A query was admitted: a cache hit, a follower or a solving leader.
    pub fn on_submitted(&self) {
        self.inner.lock().submitted.increment();
    }

    /// A query was turned away at admission.
    pub fn on_rejected(&self) {
        self.inner.lock().rejected.increment();
    }

    /// A query was answered directly — computed by its leader or served
    /// from the result cache. Coalesced followers count under
    /// [`Self::on_coalesced`] instead, so once every call has returned,
    /// `submitted == served + coalesced`.
    pub fn on_served(&self) {
        self.inner.lock().served.increment();
    }

    /// A query was answered straight from the completed-result cache.
    pub fn on_result_cache_hit(&self) {
        self.inner.lock().result_cache_hits.increment();
    }

    /// A query joined an identical in-flight computation instead of
    /// starting its own.
    pub fn on_coalesced(&self) {
        self.inner.lock().coalesced.increment();
    }

    /// A capacity CTMC solve actually ran.
    pub fn on_pk_solve(&self) {
        self.inner.lock().pk_solves.increment();
    }

    /// A capacity distribution was reused from the `P(k)` cache.
    pub fn on_pk_cache_hit(&self) {
        self.inner.lock().pk_cache_hits.increment();
    }

    /// A panic was caught while evaluating a query; the query's waiters
    /// received [`crate::QueryError::EvalPanicked`].
    pub fn on_eval_panic(&self) {
        self.inner.lock().eval_panics.increment();
    }

    /// A query's serving deadline expired (shed before the solve or
    /// detected after it); its waiters received
    /// [`crate::QueryError::DeadlineExceeded`].
    pub fn on_deadline_expired(&self) {
        self.inner.lock().deadline_expired.increment();
    }

    /// A submission was rejected by a per-tenant quota (rate or queue
    /// share). Also counted under [`Self::on_rejected`].
    pub fn on_quota_rejected(&self) {
        self.inner.lock().quota_rejected.increment();
    }

    /// A submission was shed by the SLO breach controller. Also counted
    /// under [`Self::on_rejected`].
    pub fn on_shed(&self) {
        self.inner.lock().shed.increment();
    }

    /// The current end-to-end p99 latency estimate, seconds — the SLO
    /// shedder's input. `None` until five finite observations.
    #[must_use]
    pub fn e2e_p99(&self) -> Option<f64> {
        self.inner.lock().end_to_end.p99.estimate()
    }

    /// Records the pure compute time of one query.
    pub fn record_solve(&self, seconds: f64) {
        self.inner.lock().solve.record(seconds);
    }

    /// Records submission-to-answer latency of one query.
    pub fn record_end_to_end(&self, seconds: f64) {
        self.inner.lock().end_to_end.record(seconds);
    }

    /// A consistent copy of every counter and latency aggregate.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            submitted: inner.submitted.count(),
            served: inner.served.count(),
            rejected: inner.rejected.count(),
            result_cache_hits: inner.result_cache_hits.count(),
            coalesced: inner.coalesced.count(),
            pk_solves: inner.pk_solves.count(),
            pk_cache_hits: inner.pk_cache_hits.count(),
            eval_panics: inner.eval_panics.count(),
            deadline_expired: inner.deadline_expired.count(),
            quota_rejected: inner.quota_rejected.count(),
            shed: inner.shed.count(),
            shed_probability: 0.0,
            queue_wait: LatencySnapshot::EMPTY,
            solve: inner.solve.snapshot(),
            end_to_end: inner.end_to_end.snapshot(),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of the engine's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSnapshot {
    /// Queries admitted: cache hits, followers and solving leaders.
    pub submitted: u64,
    /// Queries answered directly (computed by their leader or a
    /// result-cache hit); excludes coalesced followers, so once every
    /// call has returned, `submitted == served + coalesced`.
    pub served: u64,
    /// Queries refused at admission (quota, shed or shutting down).
    pub rejected: u64,
    /// Queries answered from the completed-result cache.
    pub result_cache_hits: u64,
    /// Queries coalesced onto an identical in-flight computation.
    pub coalesced: u64,
    /// Capacity CTMC solves actually performed.
    pub pk_solves: u64,
    /// Capacity distributions reused from the `P(k)` cache.
    pub pk_cache_hits: u64,
    /// Panics caught during evaluation (each answered its waiters with
    /// [`crate::QueryError::EvalPanicked`]).
    pub eval_panics: u64,
    /// Queries whose serving deadline expired before an answer was
    /// delivered.
    pub deadline_expired: u64,
    /// Submissions rejected by per-tenant quotas (subset of `rejected`).
    pub quota_rejected: u64,
    /// Submissions shed under SLO breach (subset of `rejected`).
    pub shed: u64,
    /// The SLO shedder's current rejection probability (a gauge, filled
    /// in by [`crate::Engine::metrics`]; `0.0` straight from
    /// [`Metrics::snapshot`]).
    pub shed_probability: f64,
    /// Always empty ([`LatencySnapshot::EMPTY`]): every leader solves on
    /// its caller's thread, so no query waits in a queue. Kept only for
    /// readers that still take its p50.
    pub queue_wait: LatencySnapshot,
    /// Pure compute time per query.
    pub solve: LatencySnapshot,
    /// Submission-to-answer latency.
    pub end_to_end: LatencySnapshot,
}

/// Summary statistics of one latency stage (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Minimum (NaN when empty).
    pub min: f64,
    /// Maximum (NaN when empty).
    pub max: f64,
    /// Streaming median estimate.
    pub p50: f64,
    /// Streaming 95th-percentile estimate.
    pub p95: f64,
    /// Streaming 99th-percentile estimate.
    pub p99: f64,
}

impl LatencySnapshot {
    /// A stage with no observations: count and mean `0`, the rest NaN.
    pub const EMPTY: LatencySnapshot = LatencySnapshot {
        count: 0,
        mean: 0.0,
        min: f64::NAN,
        max: f64::NAN,
        p50: f64::NAN,
        p95: f64::NAN,
        p99: f64::NAN,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.on_submitted();
        m.on_submitted();
        m.on_rejected();
        m.on_served();
        m.on_result_cache_hit();
        m.on_coalesced();
        m.on_pk_solve();
        m.on_pk_cache_hit();
        let s = m.snapshot();
        assert_eq!(s.submitted, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.served, 1);
        assert_eq!(s.result_cache_hits, 1);
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.pk_solves, 1);
        assert_eq!(s.pk_cache_hits, 1);
    }

    #[test]
    fn latency_stages_track_percentiles() {
        let m = Metrics::new();
        // Scrambled order: P² marker adjustment assumes non-sorted input.
        for i in 0..100u32 {
            let v = f64::from(i * 37 % 100 + 1);
            m.record_solve(v / 1000.0);
            m.record_end_to_end(v / 500.0);
        }
        let s = m.snapshot();
        assert_eq!(s.solve.count, 100);
        assert!((s.solve.mean - 0.0505).abs() < 1e-9);
        assert!(s.solve.p50 > 0.03 && s.solve.p50 < 0.07);
        assert!(s.solve.p95 >= s.solve.p50);
        assert!(s.solve.p99 >= s.solve.p95);
        assert!(s.end_to_end.max >= s.end_to_end.min);
        assert_eq!(s.queue_wait.count, 0);
    }

    #[test]
    fn robust_quantile_withholds_small_sample_estimates() {
        let mut q = RobustQuantile::new(0.99);
        assert_eq!(q.estimate(), None, "empty estimator has no estimate");
        for x in [1.0, 2.0, 3.0, 4.0] {
            q.record(x);
            assert_eq!(q.estimate(), None, "below five observations: None");
        }
        q.record(5.0);
        let p99 = q.estimate().expect("five observations unlock the estimate");
        assert!((1.0..=5.0).contains(&p99));
    }

    #[test]
    fn robust_quantile_ignores_non_finite_samples() {
        let mut q = RobustQuantile::new(0.5);
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            q.record(x); // the raw P² estimator would panic or corrupt
        }
        assert_eq!(q.count(), 0);
        assert_eq!(q.ignored(), 3);
        assert_eq!(q.estimate(), None);
        for x in [10.0, 20.0, 30.0, 40.0, 50.0] {
            q.record(x);
            q.record(f64::NAN);
        }
        assert_eq!(q.count(), 5);
        assert_eq!(q.ignored(), 8);
        let est = q.estimate().unwrap();
        assert!(est.is_finite() && (10.0..=50.0).contains(&est), "{est}");
    }

    #[test]
    fn stage_latency_survives_hostile_samples() {
        let m = Metrics::new();
        m.record_end_to_end(f64::NAN);
        m.record_end_to_end(f64::INFINITY);
        let s = m.snapshot();
        assert_eq!(s.end_to_end.count, 0, "non-finite samples never land");
        assert_eq!(m.e2e_p99(), None);
        for i in 0..10 {
            m.record_end_to_end(f64::from(i) / 100.0);
        }
        let p99 = m.e2e_p99().expect("enough finite samples now");
        assert!(p99.is_finite());
        assert!(m.snapshot().end_to_end.max <= 0.09 + 1e-12);
    }

    #[test]
    fn fault_counters_accumulate() {
        let m = Metrics::new();
        m.on_eval_panic();
        m.on_deadline_expired();
        m.on_deadline_expired();
        m.on_quota_rejected();
        m.on_shed();
        let s = m.snapshot();
        assert_eq!(s.eval_panics, 1);
        assert_eq!(s.deadline_expired, 2);
        assert_eq!(s.quota_rejected, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(s.shed_probability, 0.0, "gauge is engine-filled");
    }
}
