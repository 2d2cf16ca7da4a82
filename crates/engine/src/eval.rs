//! Query evaluation — the single code path shared by the engine's cached
//! pipeline and the naive direct route.
//!
//! Bit-identity is structural, not numerical: [`direct_eval`] solves
//! `P(k)` and immediately feeds it to [`eval_with_pk`], while the engine
//! solves (or cache-hits) `P(k)` separately and feeds the *same* function.
//! Both routes execute identical floating-point operations in identical
//! order, so a cache hit is indistinguishable from a recompute down to the
//! last bit.

use oaq_analytic::Scheme;

use crate::error::EngineError;
use crate::query::{Measure, QosQuery};

/// The answer to a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QosValue {
    /// A scalar measure: `P(Y ≥ y)`, `P(Y = y | k)` or an OAQ−BAQ gap.
    Scalar(f64),
    /// A distribution: `P(K = k)` for `k = 0..=capacity`.
    Distribution(Vec<f64>),
}

impl QosValue {
    /// The scalar payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a distribution.
    #[must_use]
    pub fn scalar(&self) -> f64 {
        match self {
            QosValue::Scalar(x) => *x,
            QosValue::Distribution(_) => panic!("expected a scalar, got a distribution"),
        }
    }

    /// The distribution payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a scalar.
    #[must_use]
    pub fn distribution(&self) -> &[f64] {
        match self {
            QosValue::Distribution(d) => d,
            QosValue::Scalar(_) => panic!("expected a distribution, got a scalar"),
        }
    }
}

/// Evaluates `query` from scratch, single-threaded, no caching. The
/// reference the engine is tested against.
///
/// # Errors
///
/// Propagates capacity-solver failures.
pub fn direct_eval(query: &QosQuery) -> Result<QosValue, EngineError> {
    if query.measure().needs_capacity_solve() {
        let pk = query.capacity_params().distribution()?;
        Ok(eval_with_pk(query, &pk))
    } else {
        Ok(eval_cheap(query))
    }
}

/// Evaluates a capacity-dependent measure against a borrowed `P(k)`
/// (`pk[k] = P(K = k)`). The engine calls this with a cached solve;
/// [`direct_eval`] calls it with a fresh one.
///
/// # Panics
///
/// Panics if the measure is [`Measure::ConditionalQos`] (which needs no
/// `P(k)` — route it through [`eval_cheap`]).
#[must_use]
pub fn eval_with_pk(query: &QosQuery, pk: &[f64]) -> QosValue {
    let cfg = query.evaluation_config();
    match query.measure() {
        Measure::QosAtLeast { scheme, y } => QosValue::Scalar(
            cfg.qos_distribution_with_pk(scheme, pk)
                .p_at_least(usize::from(y)),
        ),
        Measure::CapacityDistribution => QosValue::Distribution(pk.to_vec()),
        Measure::OaqBaqGap { y } => {
            let oaq = cfg
                .qos_distribution_with_pk(Scheme::Oaq, pk)
                .p_at_least(usize::from(y));
            let baq = cfg
                .qos_distribution_with_pk(Scheme::Baq, pk)
                .p_at_least(usize::from(y));
            QosValue::Scalar(oaq - baq)
        }
        Measure::ConditionalQos { .. } | Measure::EmitterTracking { .. } => {
            panic!("measure bypasses the capacity layer")
        }
    }
}

/// Evaluates a measure that needs no capacity solve — the pure G-function
/// layer.
///
/// # Panics
///
/// Panics if the measure needs `P(k)`.
#[must_use]
pub fn eval_cheap(query: &QosQuery) -> QosValue {
    match query.measure() {
        Measure::ConditionalQos { scheme, k, y } => QosValue::Scalar(
            query
                .evaluation_config()
                .conditional(scheme, k)
                .p(usize::from(y)),
        ),
        Measure::EmitterTracking {
            emitters,
            passes,
            seed,
        } => {
            // The tracking workload pins the plane at the replenishment
            // threshold k = η, so the revisit interval is Tr[η] = θ/η.
            let spec = query.spec();
            let revisit = spec.theta / f64::from(spec.eta);
            let report = oaq_core::fullstack::run_emitter_batch(
                spec.theta,
                spec.tc,
                revisit,
                emitters,
                passes,
                u64::from(seed),
            );
            QosValue::Scalar(report.mean_reported_error_km)
        }
        _ => panic!("measure requires the capacity solve"),
    }
}

/// The engine's pluggable evaluation back end.
///
/// The engine owns admission, coalescing and both cache layers;
/// an `Evaluator` is only the *leaf* compute — the `P(k)` solve and the
/// two G-function evaluation paths. The default methods delegate to the
/// real analytic stack, so implementors override exactly the behaviour
/// they want to change. Fault-injection harnesses (the `engine_faults`
/// bench) wrap these methods with seeded panics and latency spikes; the
/// engine's supervision layer must convert every such fault into a typed
/// answer without losing a query.
///
/// Contract: an evaluator that *returns* must return exactly what the
/// default path returns (the bit-identity property is tested against
/// [`direct_eval`]); injected faults must panic or delay, never perturb
/// values.
pub trait Evaluator: Send + Sync {
    /// Solves the capacity distribution `P(k)` for the query's
    /// (λ, φ, η) scenario.
    ///
    /// # Errors
    ///
    /// Propagates capacity-solver failures.
    fn solve_pk(&self, query: &QosQuery) -> Result<Vec<f64>, EngineError> {
        query
            .capacity_params()
            .distribution()
            .map_err(EngineError::from)
    }

    /// Evaluates a capacity-dependent measure against a solved `P(k)`.
    fn eval_with_pk(&self, query: &QosQuery, pk: &[f64]) -> QosValue {
        eval_with_pk(query, pk)
    }

    /// Evaluates a measure that needs no capacity solve.
    fn eval_cheap(&self, query: &QosQuery) -> QosValue {
        eval_cheap(query)
    }
}

impl std::fmt::Debug for dyn Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn Evaluator")
    }
}

/// The production evaluator: the real analytic stack, no overrides.
#[derive(Debug, Default, Clone, Copy)]
pub struct DefaultEvaluator;

impl Evaluator for DefaultEvaluator {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySpec;

    #[test]
    fn direct_eval_matches_analytic_stack() {
        let q = QuerySpec::paper_defaults(
            1e-5,
            Measure::QosAtLeast {
                scheme: Scheme::Oaq,
                y: 2,
            },
        )
        .build()
        .unwrap();
        let v = direct_eval(&q).unwrap().scalar();
        let expected = oaq_analytic::EvaluationConfig::paper_defaults(1e-5)
            .qos_distribution(Scheme::Oaq)
            .unwrap()
            .p_at_least(2);
        assert_eq!(v, expected, "must be bit-identical, not just close");
    }

    #[test]
    fn gap_is_positive_and_consistent() {
        let q = QuerySpec::paper_defaults(5e-5, Measure::OaqBaqGap { y: 2 })
            .build()
            .unwrap();
        let gap = direct_eval(&q).unwrap().scalar();
        assert!(gap > 0.0, "OAQ dominates BAQ: {gap}");
        let pk = q.capacity_params().distribution().unwrap();
        assert_eq!(eval_with_pk(&q, &pk).scalar(), gap);
    }

    #[test]
    fn capacity_distribution_is_proper() {
        let q = QuerySpec::paper_defaults(5e-5, Measure::CapacityDistribution)
            .build()
            .unwrap();
        let v = direct_eval(&q).unwrap();
        let d = v.distribution();
        assert_eq!(d.len(), 15);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn extreme_lambda_phi_products_from_the_wire() {
        // λ and φ each pass `QuerySpec::build` while λφ does not fit an
        // f64: an underflowed λφ still answers a full plane, an
        // overflowed one is a typed error before any series runs.
        let spec = |lambda, phi| {
            let mut s = QuerySpec::paper_defaults(lambda, Measure::CapacityDistribution);
            s.phi = phi;
            s.build().unwrap()
        };
        let tiny = direct_eval(&spec(1e-200, 1e-150)).unwrap();
        assert_eq!(tiny.distribution()[14], 1.0);
        assert!(tiny.distribution()[..14].iter().all(|&x| x == 0.0));
        for (lambda, phi) in [(1e300, 1e10), (1e300, 1e8)] {
            assert!(
                matches!(
                    direct_eval(&spec(lambda, phi)),
                    Err(EngineError::Solver(oaq_san::ctmc::CtmcError::Solver(
                        oaq_san::solver::SolverError::InvalidInput(_)
                    )))
                ),
                "lambda={lambda}, phi={phi}"
            );
        }
    }

    #[test]
    fn conditional_skips_capacity_and_matches_paper_value() {
        // P(Y = 3 | k = 12) at tau = 5, mu = 0.5: 0.44 OAQ vs 0.20 BAQ.
        let mut spec = QuerySpec::paper_defaults(
            1e-5,
            Measure::ConditionalQos {
                scheme: Scheme::Oaq,
                k: 12,
                y: 3,
            },
        );
        spec.mu = 0.5;
        let oaq = direct_eval(&spec.build().unwrap()).unwrap().scalar();
        spec.measure = Measure::ConditionalQos {
            scheme: Scheme::Baq,
            k: 12,
            y: 3,
        };
        let baq = direct_eval(&spec.build().unwrap()).unwrap().scalar();
        assert!((oaq - 0.44).abs() < 0.01, "OAQ: {oaq}");
        assert!((baq - 0.20).abs() < 0.01, "BAQ: {baq}");
    }

    #[test]
    fn emitter_tracking_measure_matches_fullstack_batch() {
        let q = QuerySpec::paper_defaults(
            5e-5,
            Measure::EmitterTracking {
                emitters: 6,
                passes: 2,
                seed: 31,
            },
        )
        .build()
        .unwrap();
        let v = direct_eval(&q).unwrap().scalar();
        let expected =
            oaq_core::fullstack::run_emitter_batch(90.0, 9.0, 9.0, 6, 2, 31).mean_reported_error_km;
        assert_eq!(
            v.to_bits(),
            expected.to_bits(),
            "engine route must be bit-identical to the fullstack workload"
        );
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn delta_eff_shrinks_the_answer() {
        let base = QuerySpec::paper_defaults(
            5e-5,
            Measure::QosAtLeast {
                scheme: Scheme::Oaq,
                y: 3,
            },
        );
        let mut delayed = base;
        delayed.delta_eff = 2.0;
        let full = direct_eval(&base.build().unwrap()).unwrap().scalar();
        let cut = direct_eval(&delayed.build().unwrap()).unwrap().scalar();
        assert!(cut < full, "losing deadline must cost QoS: {cut} vs {full}");
    }
}
