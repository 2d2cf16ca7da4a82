//! Erlang phase-type approximation of deterministic delays.
//!
//! UltraSAN solves models with deterministic activities directly; our exact
//! numerical path is a CTMC solver, which requires exponential stages. An
//! `Erlang(m, m/T)` delay has mean `T` and coefficient of variation
//! `1/√m`, so as `m` grows it converges (in distribution) to the
//! deterministic delay `T`. The plane model's Markov variant uses a stage
//! place advanced by a single exponential activity at the rate given here;
//! experiment E11 (ablation) sweeps `m`.

/// Per-stage rate of the Erlang(m) approximation of a deterministic `mean`.
///
/// # Panics
///
/// Panics if `shape == 0` or `mean <= 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(oaq_san::phase_type::erlang_stage_rate(10, 5.0), 2.0);
/// ```
#[must_use]
pub fn erlang_stage_rate(shape: u32, mean: f64) -> f64 {
    assert!(shape > 0, "shape must be >= 1");
    assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
    shape as f64 / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_rate_preserves_mean() {
        // mean = shape / rate.
        let rate = erlang_stage_rate(8, 4.0);
        assert!((8.0 / rate - 4.0).abs() < 1e-12);
    }
}
