//! Exact orbital-plane capacity distribution P(k) — Figure 7.
//!
//! Under the scheduled ground-spare deployment policy, every deterministic
//! cycle of length φ begins with the plane restored to full complement, so
//! cycles are regeneration cycles and
//!
//! ```text
//! P(K = k)  =  (1/φ) ∫₀^φ P(K(t) = k) dt
//! ```
//!
//! where `K(t)` is the within-cycle capacity process: a pure death process
//! (failures at rate k·λ, the first `spares` failures absorbed by in-orbit
//! spares) pinned at the threshold η by the threshold-triggered policy.
//! The integral is computed exactly, to the 1e-12 series tolerance, by the
//! interval form of uniformization over the small death-process CTMC, via
//! `oaq-san`: with `N ~ Poisson(Λφ)` and iterates `vⱼ = p₀Pʲ` of the
//! uniformized chain,
//!
//! ```text
//! (1/φ) ∫₀^φ p(t) dt  =  Σⱼ P(N > j)/(Λφ) · vⱼ ,
//! ```
//!
//! one scalar weight per series term, with no quadrature error (de Souza e
//! Silva & Gail, JACM 1989).

use crate::params::{require_int_in_range, require_positive, ParamError};
use oaq_san::ctmc::CtmcError;
use oaq_san::plane::{CapacitySolve, PlaneModelConfig, SparePolicy};

/// Parameters of the capacity model (time unit: hours).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityParams {
    /// Full active capacity (14).
    pub capacity: u32,
    /// In-orbit spares (2).
    pub spares: u32,
    /// Per-satellite failure rate λ, per hour.
    pub lambda: f64,
    /// Scheduled-deployment period φ, hours.
    pub phi: f64,
    /// Threshold η at which ground replenishment pins the plane.
    pub eta: u32,
}

impl CapacityParams {
    /// Reference plane (14 + 2 spares).
    ///
    /// # Panics
    ///
    /// Panics on non-positive λ/φ or `eta >= capacity`.
    #[must_use]
    pub fn reference(lambda: f64, phi: f64, eta: u32) -> Self {
        let p = CapacityParams {
            capacity: 14,
            spares: 2,
            lambda,
            phi,
            eta,
        };
        p.validate();
        p
    }

    /// A generalized plane (any Walker design), validated up front — the
    /// non-panicking constructor external callers should use.
    ///
    /// # Errors
    ///
    /// A typed [`ParamError`] naming the offending parameter: `capacity`
    /// in `1..=` [`MAX_PLANE_CAPACITY`](Self::MAX_PLANE_CAPACITY), `eta`
    /// in `1..capacity`, `spares` bounded by the capacity, and positive
    /// finite λ/φ.
    pub fn new(
        capacity: u32,
        spares: u32,
        lambda: f64,
        phi: f64,
        eta: u32,
    ) -> Result<Self, ParamError> {
        require_int_in_range("capacity", capacity, 1, Self::MAX_PLANE_CAPACITY)?;
        require_int_in_range("spares", spares, 0, Self::MAX_PLANE_CAPACITY)?;
        require_int_in_range("eta", eta, 1, capacity - 1)?;
        require_positive("lambda", lambda)?;
        require_positive("phi", phi)?;
        Ok(CapacityParams {
            capacity,
            spares,
            lambda,
            phi,
            eta,
        })
    }

    /// Largest per-plane active complement [`Self::new`] accepts — far
    /// above any flown design, but small enough that the within-cycle
    /// death chain (`capacity − eta + spares + 1` states at most) stays
    /// comfortably inside the CTMC exploration budget.
    pub const MAX_PLANE_CAPACITY: u32 = 4096;

    fn validate(&self) {
        assert!(
            self.lambda.is_finite() && self.lambda > 0.0,
            "lambda must be positive"
        );
        assert!(
            self.phi.is_finite() && self.phi > 0.0,
            "phi must be positive"
        );
        assert!(self.eta < self.capacity, "eta must be below capacity");
    }

    /// The equivalent `oaq-san` plane configuration (pin-at-threshold).
    #[must_use]
    pub fn plane_config(&self) -> PlaneModelConfig {
        PlaneModelConfig {
            capacity: self.capacity,
            spares: self.spares,
            lambda: self.lambda,
            phi: self.phi,
            eta: self.eta,
            policy: SparePolicy::PinAtThreshold,
        }
    }

    /// Explores the within-cycle death process into a reusable
    /// [`CapacitySolve`] — the expensive half of [`Self::distribution`],
    /// independent of φ. A serving layer that sweeps φ (or composes many
    /// QoS measures over one failure scenario) should hold on to the solve
    /// and call [`CapacitySolve::distribution_over`] per horizon.
    ///
    /// # Errors
    ///
    /// Propagates CTMC exploration failures.
    pub fn solve(&self) -> Result<CapacitySolve, CtmcError> {
        self.validate();
        self.plane_config().capacity_solve(10_000)
    }

    /// Computes `P(K = k)` for `k = 0..=capacity` (entries below η are
    /// exactly zero under the pinning policy) by the exact interval-weight
    /// integral of the module docs, to the 1e-12 series tolerance.
    ///
    /// # Errors
    ///
    /// Propagates CTMC solver failures (the model itself is a few dozen
    /// states, so exploration cannot realistically overflow).
    pub fn distribution(&self) -> Result<Vec<f64>, CtmcError> {
        self.solve()?.distribution_over(self.phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaq_san::plane::PlaneModelConfig;
    use oaq_san::sim::SteadyStateOptions;

    const PHI: f64 = 30_000.0;

    #[test]
    fn distribution_is_proper_and_pinned() {
        let p = CapacityParams::reference(5e-5, PHI, 10);
        let d = p.distribution().unwrap();
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (k, &p) in d.iter().enumerate().take(10) {
            assert_eq!(p, 0.0, "k = {k} unreachable under pinning");
        }
    }

    #[test]
    fn figure7_shape_full_capacity_dominates_at_low_lambda() {
        let d = CapacityParams::reference(1e-5, PHI, 10)
            .distribution()
            .unwrap();
        assert!(d[14] > 0.6, "P(14) = {}", d[14]);
        assert!(d[10] < 0.1, "P(10) = {}", d[10]);
    }

    #[test]
    fn figure7_shape_threshold_dominates_at_high_lambda() {
        let d = CapacityParams::reference(1e-4, PHI, 10)
            .distribution()
            .unwrap();
        assert!(d[10] > 0.5, "P(10) = {}", d[10]);
        assert!(d[10] > d[14], "threshold overtakes full capacity");
    }

    #[test]
    fn p_threshold_is_monotone_in_lambda() {
        let mut last = 0.0;
        for i in 1..=10 {
            let lambda = 1e-5 * f64::from(i);
            let d = CapacityParams::reference(lambda, PHI, 10)
                .distribution()
                .unwrap();
            assert!(d[10] >= last - 1e-9, "lambda = {lambda}");
            last = d[10];
        }
    }

    #[test]
    fn closed_form_matches_san_simulation() {
        // The independent check the paper could not do: our exact
        // regeneration-cycle integral vs the full SAN (deterministic clock)
        // long-run simulation.
        let lambda = 5e-5;
        let exact = CapacityParams::reference(lambda, PHI, 10)
            .distribution()
            .unwrap();
        let sim = PlaneModelConfig::reference(lambda, PHI, 10)
            .build_sim()
            .capacity_distribution_sim(&SteadyStateOptions {
                warmup: 5.0 * PHI,
                horizon: 600.0 * PHI,
                seed: 21,
            });
        for k in 10..=14 {
            assert!(
                (exact[k] - sim[k]).abs() < 0.02,
                "k={k}: exact {} vs sim {}",
                exact[k],
                sim[k]
            );
        }
    }

    #[test]
    fn shorter_cycle_raises_full_capacity_mass() {
        let long = CapacityParams::reference(5e-5, 30_000.0, 10)
            .distribution()
            .unwrap();
        let short = CapacityParams::reference(5e-5, 10_000.0, 10)
            .distribution()
            .unwrap();
        assert!(short[14] > long[14]);
    }

    #[test]
    #[should_panic(expected = "eta must be below capacity")]
    fn bad_eta_rejected() {
        let _ = CapacityParams::reference(1e-5, PHI, 20);
    }

    #[test]
    fn typed_new_matches_reference() {
        let typed = CapacityParams::new(14, 2, 5e-5, PHI, 10).unwrap();
        assert_eq!(typed, CapacityParams::reference(5e-5, PHI, 10));
    }

    #[test]
    fn typed_new_rejects_each_bad_parameter() {
        use crate::params::ParamError;
        assert!(matches!(
            CapacityParams::new(0, 2, 5e-5, PHI, 10),
            Err(ParamError::IntOutOfRange {
                name: "capacity",
                ..
            })
        ));
        assert!(matches!(
            CapacityParams::new(14, 2, 5e-5, PHI, 14),
            Err(ParamError::IntOutOfRange { name: "eta", .. })
        ));
        assert!(matches!(
            CapacityParams::new(14, 2, 0.0, PHI, 10),
            Err(ParamError::NonPositive { name: "lambda", .. })
        ));
        assert!(matches!(
            CapacityParams::new(14, 2, 5e-5, f64::NAN, 10),
            Err(ParamError::NonFinite { name: "phi", .. })
        ));
        assert!(matches!(
            CapacityParams::new(CapacityParams::MAX_PLANE_CAPACITY + 1, 2, 5e-5, PHI, 10),
            Err(ParamError::IntOutOfRange {
                name: "capacity",
                ..
            })
        ));
    }

    #[test]
    fn typed_new_solves_a_non_reference_design() {
        // A Starlink-like plane: 22 active + 2 spares, pin at 18.
        let p = CapacityParams::new(22, 2, 5e-5, PHI, 18).unwrap();
        let d = p.distribution().unwrap();
        assert_eq!(d.len(), 23);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (k, &mass) in d.iter().enumerate().take(18) {
            assert_eq!(mass, 0.0, "k = {k} unreachable under pinning");
        }
        assert!(d[22] > 0.0);
    }

    #[test]
    fn reusable_solve_is_bit_identical_to_distribution() {
        let p = CapacityParams::reference(5e-5, PHI, 10);
        let direct = p.distribution().unwrap();
        let solve = p.solve().unwrap();
        // Same solve, many horizons: the φ = PHI row must match the
        // one-shot path bit for bit (a serving-layer cache hit may never
        // change an answer).
        for _ in 0..3 {
            assert_eq!(solve.distribution_over(PHI).unwrap(), direct);
        }
    }
}
