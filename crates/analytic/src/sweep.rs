//! Parameter sweeps regenerating the paper's figures.
//!
//! Every sweep validates its inputs up front and returns a typed
//! [`SweepError`] — a NaN λ or a τ ≤ 0 is rejected before it can reach the
//! quadrature (where it would silently poison every integral) or the CTMC
//! solver (where it would panic deep in a model assertion).
//!
//! Every sweep runs its grid serially: a row is one P(k) solve of about
//! 10 µs, so a paper grid of ten rows costs less than handing it to a
//! worker pool. On the first failing row the sweep returns that row's
//! error.

use oaq_san::ctmc::CtmcError;

use crate::capacity::CapacityParams;
use crate::compose::{EvaluationConfig, Scheme};
use crate::params::{require_int_in_range, require_positive, ParamError};
use crate::qos::QosParams;

/// Errors from a figure sweep: either a rejected input parameter or a
/// downstream capacity-solver failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepError {
    /// An input failed validation before any solve was attempted.
    Param(ParamError),
    /// The capacity CTMC solve failed.
    Solver(CtmcError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Param(e) => write!(f, "invalid sweep input: {e}"),
            SweepError::Solver(e) => write!(f, "capacity solver failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Param(e) => Some(e),
            SweepError::Solver(e) => Some(e),
        }
    }
}

impl From<ParamError> for SweepError {
    fn from(e: ParamError) -> Self {
        SweepError::Param(e)
    }
}

impl From<CtmcError> for SweepError {
    fn from(e: CtmcError) -> Self {
        SweepError::Solver(e)
    }
}

fn check_axis(name: &'static str, values: &[f64]) -> Result<(), ParamError> {
    for &v in values {
        require_positive(name, v)?;
    }
    Ok(())
}

/// One row of a Figure 7 sweep: `P(K = k)` at a failure rate λ.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityRow {
    /// Failure rate λ (per hour).
    pub lambda: f64,
    /// `P(K = k)` for `k = 0..=capacity`.
    pub p_k: Vec<f64>,
}

/// One row of a Figure 8/9-style sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosRow {
    /// The swept abscissa (λ, τ or 1/µ depending on the sweep).
    pub x: f64,
    /// `P(Y ≥ 1)`.
    pub p_ge_1: f64,
    /// `P(Y ≥ 2)`.
    pub p_ge_2: f64,
    /// `P(Y ≥ 3)` = `P(Y = 3)`.
    pub p_ge_3: f64,
}

/// The λ grid the paper plots: 1e-5 to 1e-4 in steps of 1e-5.
#[must_use]
pub fn paper_lambda_grid() -> Vec<f64> {
    (1..=10).map(|i| 1e-5 * f64::from(i)).collect()
}

/// Figure 7: the capacity distribution over the λ grid (η = 10,
/// φ = 30000 h).
///
/// # Errors
///
/// Rejects non-finite or out-of-domain inputs; propagates capacity-solver
/// failures.
pub fn figure7(lambdas: &[f64], phi: f64, eta: u32) -> Result<Vec<CapacityRow>, SweepError> {
    check_axis("lambda", lambdas)?;
    require_positive("phi", phi)?;
    require_int_in_range("eta", eta, 1, 13)?;
    lambdas
        .iter()
        .map(|&lambda| {
            Ok(CapacityRow {
                lambda,
                p_k: CapacityParams::reference(lambda, phi, eta).distribution()?,
            })
        })
        .collect()
}

/// Figure 8: `P(Y = 3)` as a function of λ for one scheme and signal rate
/// µ, with η = 12 (the paper's Figure 8 setting).
///
/// # Errors
///
/// Rejects non-finite or out-of-domain inputs; propagates capacity-solver
/// failures.
pub fn figure8(scheme: Scheme, mu: f64, lambdas: &[f64]) -> Result<Vec<QosRow>, SweepError> {
    require_positive("mu", mu)?;
    check_axis("lambda", lambdas)?;
    lambdas
        .iter()
        .map(|&lambda| {
            let cfg = EvaluationConfig {
                theta: 90.0,
                tc: 9.0,
                qos: QosParams::paper_defaults(mu),
                capacity: CapacityParams::reference(lambda, 30_000.0, 12),
            };
            let d = cfg.qos_distribution(scheme)?;
            Ok(QosRow {
                x: lambda,
                p_ge_1: d.p_at_least(1),
                p_ge_2: d.p_at_least(2),
                p_ge_3: d.p_at_least(3),
            })
        })
        .collect()
}

/// Figure 9: `P(Y ≥ y)` as a function of λ (τ = 5, µ = 0.2, η = 10).
///
/// # Errors
///
/// Rejects non-finite or out-of-domain inputs; propagates capacity-solver
/// failures.
pub fn figure9(scheme: Scheme, lambdas: &[f64]) -> Result<Vec<QosRow>, SweepError> {
    check_axis("lambda", lambdas)?;
    lambdas
        .iter()
        .map(|&lambda| {
            let d = EvaluationConfig::paper_defaults(lambda).qos_distribution(scheme)?;
            Ok(QosRow {
                x: lambda,
                p_ge_1: d.p_at_least(1),
                p_ge_2: d.p_at_least(2),
                p_ge_3: d.p_at_least(3),
            })
        })
        .collect()
}

/// The in-text τ sweep: QoS vs deadline at fixed λ ("how OAQ exploits the
/// time allowance").
///
/// # Errors
///
/// Rejects non-finite or out-of-domain inputs; propagates capacity-solver
/// failures.
pub fn tau_sweep(scheme: Scheme, lambda: f64, taus: &[f64]) -> Result<Vec<QosRow>, SweepError> {
    require_positive("lambda", lambda)?;
    check_axis("tau", taus)?;
    taus.iter()
        .map(|&tau| {
            let mut cfg = EvaluationConfig::paper_defaults(lambda);
            cfg.qos.tau = tau;
            let d = cfg.qos_distribution(scheme)?;
            Ok(QosRow {
                x: tau,
                p_ge_1: d.p_at_least(1),
                p_ge_2: d.p_at_least(2),
                p_ge_3: d.p_at_least(3),
            })
        })
        .collect()
}

/// The in-text mean-signal-duration sweep: QoS vs `1/µ` at fixed λ ("OAQ
/// treats a longer signal as extended opportunity").
///
/// # Errors
///
/// Rejects non-finite or out-of-domain inputs; propagates capacity-solver
/// failures.
pub fn duration_sweep(
    scheme: Scheme,
    lambda: f64,
    mean_durations: &[f64],
) -> Result<Vec<QosRow>, SweepError> {
    require_positive("lambda", lambda)?;
    check_axis("mean_duration", mean_durations)?;
    mean_durations
        .iter()
        .map(|&dur| {
            let mut cfg = EvaluationConfig::paper_defaults(lambda);
            cfg.qos.mu = 1.0 / dur;
            let d = cfg.qos_distribution(scheme)?;
            Ok(QosRow {
                x: dur,
                p_ge_1: d.p_at_least(1),
                p_ge_2: d.p_at_least(2),
                p_ge_3: d.p_at_least(3),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lambda_grid_matches_paper_axis() {
        let g = paper_lambda_grid();
        assert_eq!(g.len(), 10);
        assert!((g[0] - 1e-5).abs() < 1e-18);
        assert!((g[9] - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn figure7_rows_are_distributions() {
        let rows = figure7(&[1e-5, 1e-4], 30_000.0, 10).unwrap();
        for row in rows {
            let total: f64 = row.p_k.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "λ = {}", row.lambda);
        }
    }

    #[test]
    fn figure8_mu_sensitivity() {
        // Paper: µ 0.5 → 0.2 raises OAQ's P(Y = 3) by up to 38%, and BAQ is
        // insensitive.
        let grid = [1e-5, 5e-5, 1e-4];
        let oaq_02 = figure8(Scheme::Oaq, 0.2, &grid).unwrap();
        let oaq_05 = figure8(Scheme::Oaq, 0.5, &grid).unwrap();
        let baq_02 = figure8(Scheme::Baq, 0.2, &grid).unwrap();
        let baq_05 = figure8(Scheme::Baq, 0.5, &grid).unwrap();
        let mut max_gain: f64 = 0.0;
        for i in 0..grid.len() {
            assert!(oaq_02[i].p_ge_3 > oaq_05[i].p_ge_3);
            assert!((baq_02[i].p_ge_3 - baq_05[i].p_ge_3).abs() < 1e-12);
            max_gain = max_gain.max(oaq_02[i].p_ge_3 / oaq_05[i].p_ge_3 - 1.0);
        }
        assert!(
            max_gain > 0.25 && max_gain < 0.55,
            "paper reports up to 38% gain, got {:.0}%",
            max_gain * 100.0
        );
    }

    #[test]
    fn tau_sweep_is_monotone_for_oaq() {
        let rows = tau_sweep(Scheme::Oaq, 5e-5, &[1.0, 2.0, 4.0, 6.0, 8.0]).unwrap();
        for w in rows.windows(2) {
            assert!(w[1].p_ge_2 >= w[0].p_ge_2 - 1e-12);
        }
    }

    #[test]
    fn sweeps_reject_poisoned_inputs_with_typed_errors() {
        // NaN λ must never reach the quadrature.
        assert!(matches!(
            figure9(Scheme::Oaq, &[1e-5, f64::NAN]),
            Err(SweepError::Param(ParamError::NonFinite {
                name: "lambda",
                ..
            }))
        ));
        assert!(matches!(
            figure7(&[1e-5], -1.0, 10),
            Err(SweepError::Param(ParamError::NonPositive {
                name: "phi",
                ..
            }))
        ));
        assert!(matches!(
            figure7(&[1e-5], 30_000.0, 14),
            Err(SweepError::Param(ParamError::IntOutOfRange {
                name: "eta",
                ..
            }))
        ));
        assert!(matches!(
            figure8(Scheme::Baq, f64::INFINITY, &[1e-5]),
            Err(SweepError::Param(ParamError::NonFinite { name: "mu", .. }))
        ));
        assert!(matches!(
            tau_sweep(Scheme::Oaq, 1e-5, &[5.0, 0.0]),
            Err(SweepError::Param(ParamError::NonPositive {
                name: "tau",
                ..
            }))
        ));
        assert!(matches!(
            duration_sweep(Scheme::Oaq, -1e-5, &[5.0]),
            Err(SweepError::Param(ParamError::NonPositive { .. }))
        ));
    }

    #[test]
    fn duration_sweep_grows_oaq_gain() {
        let durations = [1.0, 2.0, 5.0, 10.0, 20.0];
        let oaq = duration_sweep(Scheme::Oaq, 5e-5, &durations).unwrap();
        let baq = duration_sweep(Scheme::Baq, 5e-5, &durations).unwrap();
        let gain_short = oaq[0].p_ge_2 - baq[0].p_ge_2;
        let gain_long = oaq[4].p_ge_2 - baq[4].p_ge_2;
        assert!(
            gain_long > gain_short,
            "longer signals must widen the OAQ advantage: {gain_short} vs {gain_long}"
        );
    }
}
