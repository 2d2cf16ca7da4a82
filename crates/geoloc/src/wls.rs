//! Damped Gauss–Newton iterative weighted least squares.
//!
//! The estimator behind sequential localization: given any mix of
//! [`Observation`]s (Doppler, TOA, …) it refines the state vector
//! `x = [latitude (rad), longitude (rad), carrier frequency (Hz)]` by
//! solving the weighted normal equations `(JᵀWJ + λD) δ = JᵀW r` with
//! Levenberg–Marquardt damping, and reports the posterior covariance
//! `(JᵀWJ)⁻¹` from which the paper's "estimated error" (TC-1) is derived.
//!
//! ## Fast path vs reference baseline
//!
//! The Monte-Carlo layers call this solver thousands of times per run, so
//! the normal equations are served by two implementations:
//!
//! * [`WlsSolver::solve_obs`] — the monomorphized fast path: `3 × 3`
//!   normal equations assembled into [`oaq_linalg::SMat`] stack kernels
//!   (zero heap allocation per iteration), residuals cached in reusable
//!   scratch buffers so each accepted cost evaluation doubles as the next
//!   assembly's residual pass.
//! * [`WlsSolver::solve_heap`] — the original heap-[`Matrix`],
//!   dynamic-dispatch implementation, kept as the reference baseline
//!   (mirroring the `_dense` convention of the uniformization kernel).
//!
//! Both perform the identical arithmetic in the identical order, so their
//! results agree *bit for bit* — asserted by the property tests and
//! re-asserted in-bench by `geoloc_kernel` (E19). [`WlsSolver::solve`]
//! (the `&dyn` API) is a thin wrapper over the fast path.

use oaq_linalg::{Cholesky, LinalgError, Matrix, SCholesky, SLu, SMat};
use oaq_orbit::geo::EARTH_RADIUS;
use oaq_orbit::GroundPoint;

use crate::emitter::Emitter;

/// Dimension of the estimation state `[lat, lon, f0]`.
pub const STATE_DIM: usize = 3;

/// Central-difference steps of the finite-difference reference Jacobian
/// [`Observation::jacobian_row_fd`], per state component. Public so tests
/// and benches can reconstruct the FD roundoff floor `ε·|f(x)|/step` when
/// judging analytic-vs-FD agreement.
pub const FD_STEPS: [f64; STATE_DIM] = [3e-5, 3e-5, 1e2];

/// A single scalar measurement usable by the WLS solver.
///
/// Implementors provide the predicted value and its gradient; the solver
/// works with residuals `observed − predicted`.
pub trait Observation {
    /// Predicted measurement value at state `x`.
    fn predict(&self, x: &[f64; STATE_DIM]) -> f64;

    /// Observed (noisy) measurement value.
    fn observed(&self) -> f64;

    /// Measurement standard deviation (same unit as the value).
    fn sigma(&self) -> f64;

    /// Gradient of the prediction with respect to the state, by central
    /// finite differences with per-component steps suited to
    /// radians/radians/hertz.
    ///
    /// This is the *reference baseline* every implementor keeps for free:
    /// analytic [`Observation::jacobian_row`] overrides (Doppler, TOA) are
    /// validated against it, and the `geoloc_kernel` bench reports the
    /// analytic-vs-FD max-abs-diff.
    fn jacobian_row_fd(&self, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM] {
        // Steps balance central-difference truncation against f64 roundoff
        // on carrier-scale (~4e8 Hz) predictions: 3e-5 rad ≈ 190 m on the
        // ground; predictions are linear in f0 so its step can be large.
        let mut row = [0.0; STATE_DIM];
        for (j, step) in FD_STEPS.iter().enumerate() {
            let mut hi = *x;
            let mut lo = *x;
            hi[j] += step;
            lo[j] -= step;
            row[j] = (self.predict(&hi) - self.predict(&lo)) / (2.0 * step);
        }
        row
    }

    /// Gradient of the prediction with respect to the state. The default
    /// implementation falls back to the finite-difference reference
    /// [`Observation::jacobian_row_fd`]; measurement models with closed-form
    /// gradients override this (6 fewer `predict` calls per row).
    fn jacobian_row(&self, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM] {
        self.jacobian_row_fd(x)
    }

    /// Weight `1/σ²`.
    fn weight(&self) -> f64 {
        let s = self.sigma();
        1.0 / (s * s)
    }
}

/// Forwarding impl so slices of references solve without an extra adapter
/// (this is what lets the `&dyn` API be a thin wrapper over the
/// monomorphized fast path).
impl<O: Observation + ?Sized> Observation for &O {
    fn predict(&self, x: &[f64; STATE_DIM]) -> f64 {
        (**self).predict(x)
    }
    fn observed(&self) -> f64 {
        (**self).observed()
    }
    fn sigma(&self) -> f64 {
        (**self).sigma()
    }
    fn jacobian_row_fd(&self, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM] {
        (**self).jacobian_row_fd(x)
    }
    fn jacobian_row(&self, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM] {
        (**self).jacobian_row(x)
    }
    fn weight(&self) -> f64 {
        (**self).weight()
    }
}

/// Forwarding impl for boxed observations: `SequentialLocalizer` stores
/// `Box<dyn Observation + Send>` and solves over them directly, with no
/// per-estimate reference-list rebuild.
impl<O: Observation + ?Sized> Observation for Box<O> {
    fn predict(&self, x: &[f64; STATE_DIM]) -> f64 {
        (**self).predict(x)
    }
    fn observed(&self) -> f64 {
        (**self).observed()
    }
    fn sigma(&self) -> f64 {
        (**self).sigma()
    }
    fn jacobian_row_fd(&self, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM] {
        (**self).jacobian_row_fd(x)
    }
    fn jacobian_row(&self, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM] {
        (**self).jacobian_row(x)
    }
    fn weight(&self) -> f64 {
        (**self).weight()
    }
}

/// Adapter forcing the finite-difference reference Jacobian of the wrapped
/// observation, overriding any analytic implementation.
///
/// Used by benches and tests to reconstruct the pre-analytic estimator
/// behavior (the "heap-dyn + FD" baseline of E19).
#[derive(Debug, Clone, Copy)]
pub struct FdJacobian<O>(pub O);

impl<O: Observation> Observation for FdJacobian<O> {
    fn predict(&self, x: &[f64; STATE_DIM]) -> f64 {
        self.0.predict(x)
    }
    fn observed(&self) -> f64 {
        self.0.observed()
    }
    fn sigma(&self) -> f64 {
        self.0.sigma()
    }
    fn jacobian_row(&self, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM] {
        self.0.jacobian_row_fd(x)
    }
    fn weight(&self) -> f64 {
        self.0.weight()
    }
}

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// Fewer observations than state parameters.
    Underdetermined {
        /// Number of observations supplied.
        observations: usize,
    },
    /// The normal equations were singular even under maximum damping.
    Degenerate(LinalgError),
    /// The iteration failed to reduce the cost within the iteration budget.
    NoConvergence {
        /// Final (best) cost reached.
        cost: f64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Underdetermined { observations } => {
                write!(
                    f,
                    "underdetermined: {observations} observations for {STATE_DIM} states"
                )
            }
            SolveError::Degenerate(e) => write!(f, "degenerate normal equations: {e}"),
            SolveError::NoConvergence { cost } => {
                write!(f, "no convergence (final cost {cost:.3e})")
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Degenerate(e) => Some(e),
            _ => None,
        }
    }
}

/// A converged WLS estimate.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Estimated state `[lat (rad), lon (rad), f0 (Hz)]`.
    pub state: [f64; STATE_DIM],
    /// Posterior covariance `(JᵀWJ)⁻¹` at the solution.
    pub covariance: Matrix,
    /// Final weighted cost `rᵀWr`.
    pub cost: f64,
    /// Gauss–Newton iterations used.
    pub iterations: u32,
}

impl Estimate {
    /// The estimated emitter position.
    ///
    /// # Panics
    ///
    /// Panics if the latitude component left its valid range (the solver
    /// clamps it, so this indicates misuse of the struct).
    #[must_use]
    pub fn position(&self) -> GroundPoint {
        Emitter::state_to_point(&self.state)
    }

    /// Great-circle distance from the estimate to `truth`, in km.
    #[must_use]
    pub fn position_error_km(&self, truth: &GroundPoint) -> f64 {
        self.position().great_circle_distance(truth).value()
    }

    /// The 1-σ horizontal error radius implied by the covariance, in km:
    /// `√(σ_N² + σ_E²)` with `σ_N = σ_lat·R`, `σ_E = σ_lon·R·cos(lat)`.
    ///
    /// This is the quantity OAQ's termination condition TC-1 compares to an
    /// accuracy threshold.
    #[must_use]
    pub fn error_radius_km(&self) -> f64 {
        let r = EARTH_RADIUS.value();
        let var_n = self.covariance[(0, 0)] * r * r;
        let cos_lat = self.state[0].cos();
        let var_e = self.covariance[(1, 1)] * (r * cos_lat).powi(2);
        (var_n + var_e).sqrt()
    }
}

/// Prior information carried into an incremental solve: the quadratic cost
/// `(x − anchor)ᵀ Λ (x − anchor)` summarizing already-incorporated
/// measurements linearized at their fold-time states.
#[derive(Debug, Clone, Copy)]
pub struct InformationPrior {
    /// Accumulated information matrix `Λ = Σ w JᵀJ`.
    pub info: SMat<STATE_DIM>,
    /// The state the prior is anchored at (the previous solution, where
    /// the folded measurements' gradient vanishes).
    pub anchor: [f64; STATE_DIM],
}

/// Levenberg–Marquardt iteration budget per solve.
pub(crate) const MAX_ITERATIONS: u32 = 50;
/// Converged once the scaled step norm falls below this.
pub(crate) const STEP_TOLERANCE: f64 = 1e-10;
/// Starting Levenberg–Marquardt damping λ.
pub(crate) const INITIAL_DAMPING: f64 = 1e-3;

/// The damped Gauss–Newton (Levenberg–Marquardt) WLS solver. It has no
/// settings: the iteration budget, step tolerance and initial damping are
/// the module constants every solve (and the batched solver) shares.
#[derive(Debug, Clone, Copy, Default)]
pub struct WlsSolver;

impl WlsSolver {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        WlsSolver
    }

    fn cost(obs: &[&dyn Observation], x: &[f64; STATE_DIM]) -> f64 {
        obs.iter()
            .map(|o| {
                let r = o.observed() - o.predict(x);
                o.weight() * r * r
            })
            .sum()
    }

    /// Weighted cost plus residual capture: sums `w r²` in exactly the
    /// iterator-fold order of [`WlsSolver::cost`] while recording each
    /// residual, so one pass serves both the acceptance test and the next
    /// assembly.
    fn cost_into<O: Observation>(obs: &[O], x: &[f64; STATE_DIM], resid: &mut Vec<f64>) -> f64 {
        resid.clear();
        let mut total = 0.0;
        for o in obs {
            let r = o.observed() - o.predict(x);
            resid.push(r);
            total += o.weight() * r * r;
        }
        total
    }

    /// Quadratic prior cost `(x − anchor)ᵀ Λ (x − anchor)`.
    fn prior_cost(prior: &InformationPrior, x: &[f64; STATE_DIM]) -> f64 {
        let mut d = [0.0; STATE_DIM];
        for i in 0..STATE_DIM {
            d[i] = x[i] - prior.anchor[i];
        }
        let ld = prior.info.mul_vec(&d);
        let mut total = 0.0;
        for i in 0..STATE_DIM {
            total += d[i] * ld[i];
        }
        total
    }

    /// Solves for the state starting from `x0` (thin wrapper over the
    /// monomorphized stack fast path, instantiated at `O = &dyn
    /// Observation`).
    ///
    /// # Errors
    ///
    /// * [`SolveError::Underdetermined`] with fewer than [`STATE_DIM`]
    ///   observations.
    /// * [`SolveError::Degenerate`] when the measurement geometry leaves the
    ///   normal equations singular.
    /// * [`SolveError::NoConvergence`] if the damped iteration cannot reduce
    ///   the cost.
    pub fn solve(
        &self,
        observations: &[&dyn Observation],
        x0: [f64; STATE_DIM],
    ) -> Result<Estimate, SolveError> {
        self.solve_obs(observations, x0)
    }

    /// The monomorphized zero-allocation fast path: normal equations
    /// assembled into stack kernels, residuals reused between the cost
    /// evaluation and the assembly. Bit-identical to
    /// [`WlsSolver::solve_heap`] for equal inputs.
    ///
    /// # Errors
    ///
    /// As [`WlsSolver::solve`].
    pub fn solve_obs<O: Observation>(
        &self,
        observations: &[O],
        x0: [f64; STATE_DIM],
    ) -> Result<Estimate, SolveError> {
        if observations.len() < STATE_DIM {
            return Err(SolveError::Underdetermined {
                observations: observations.len(),
            });
        }
        self.solve_core(observations, None, x0)
    }

    /// Incremental solve: minimizes the prior's quadratic cost plus the
    /// weighted residuals of `observations` (measurements *not yet* folded
    /// into the prior). The caller is responsible for the combined system
    /// being observable (prior + new measurements ≥ [`STATE_DIM`]
    /// constraints); a deficient geometry surfaces as
    /// [`SolveError::Degenerate`].
    ///
    /// # Errors
    ///
    /// As [`WlsSolver::solve`] except [`SolveError::Underdetermined`],
    /// which the caller screens for.
    pub fn solve_obs_with_prior<O: Observation>(
        &self,
        observations: &[O],
        prior: &InformationPrior,
        x0: [f64; STATE_DIM],
    ) -> Result<Estimate, SolveError> {
        self.solve_core(observations, Some(prior), x0)
    }

    /// Covariance from the final information matrix, shared by both solve
    /// paths (part of the bit-identity contract).
    ///
    /// The plain inverse is used whenever it exists, leaving
    /// well-conditioned solves untouched. Geometry that is numerically
    /// singular at working precision while every coordinate still carries
    /// information — the single-pass Doppler ambiguity, whose exact
    /// analytic rows cancel to machine precision where finite-difference
    /// roundoff used to blur the deficiency past the pivot test — is
    /// re-inverted in Jacobi-equilibrated (correlation) form with an
    /// escalating diagonal ridge: the variance along the near-null
    /// direction is effectively infinite and comes back enormous but
    /// finite, which is exactly what TC-1 thresholding needs from an
    /// ambiguous fix. Equilibration also removes the rad²-vs-Hz² unit
    /// disparity (~10 orders of magnitude on the diagonal) that makes the
    /// raw matrix hostile to a max-norm-relative pivot threshold.
    /// Structurally deficient systems — a non-positive diagonal entry, no
    /// information at all about some coordinate — still surface as
    /// [`SolveError::Degenerate`].
    pub(crate) fn covariance_from_information(info: &Matrix) -> Result<Matrix, SolveError> {
        let err = match info.inverse() {
            Ok(cov) => return Ok(cov),
            Err(e) => e,
        };
        let mut scale = [0.0; STATE_DIM];
        for (d, s) in scale.iter_mut().enumerate() {
            let v = info[(d, d)];
            if !v.is_finite() || v <= 0.0 {
                return Err(SolveError::Degenerate(err));
            }
            *s = v.sqrt();
        }
        let mut corr = Matrix::zeros(STATE_DIM, STATE_DIM);
        for a in 0..STATE_DIM {
            for b in 0..STATE_DIM {
                corr[(a, b)] = info[(a, b)] / (scale[a] * scale[b]);
            }
        }
        for exp in [-14, -12, -10, -8] {
            let mut ridged = corr.clone();
            for d in 0..STATE_DIM {
                ridged[(d, d)] += 10f64.powi(exp);
            }
            if let Ok(inv) = ridged.inverse() {
                let mut cov = Matrix::zeros(STATE_DIM, STATE_DIM);
                for a in 0..STATE_DIM {
                    for b in 0..STATE_DIM {
                        cov[(a, b)] = inv[(a, b)] / (scale[a] * scale[b]);
                    }
                }
                return Ok(cov);
            }
        }
        Err(SolveError::Degenerate(err))
    }

    /// [`WlsSolver::covariance_from_information`] over the stack
    /// information matrix: the happy path inverts via [`oaq_linalg::SLu`]
    /// — bit-identical to [`Matrix::inverse`], without the heap factor
    /// and per-column solve allocations that dominate the batched solver's
    /// per-track fixed cost. A singular information matrix (the identical
    /// pivot threshold) falls back to the heap route and its
    /// ridged-correlation retries.
    pub(crate) fn covariance_from_sinfo(info: &SMat<STATE_DIM>) -> Result<Matrix, SolveError> {
        if let Ok(lu) = SLu::factor(info) {
            return Ok(lu.inverse().to_matrix());
        }
        Self::covariance_from_information(&info.to_matrix())
    }

    /// Shared damped Gauss–Newton core over stack kernels. With
    /// `prior = None` this performs exactly the operations of
    /// [`WlsSolver::solve_heap`] in the same order (the bit-identity
    /// contract); with a prior it adds the prior's information to the
    /// normal equations and its quadratic term to the cost.
    fn solve_core<O: Observation>(
        &self,
        observations: &[O],
        prior: Option<&InformationPrior>,
        x0: [f64; STATE_DIM],
    ) -> Result<Estimate, SolveError> {
        let mut x = x0;
        let mut lambda = INITIAL_DAMPING;
        // Reusable scratch: residuals at the current iterate, and a second
        // buffer for trial steps (swapped in on acceptance).
        let mut resid = Vec::with_capacity(observations.len());
        let mut resid_trial = Vec::with_capacity(observations.len());
        let mut cost = Self::cost_into(observations, &x, &mut resid);
        if let Some(p) = prior {
            cost += Self::prior_cost(p, &x);
        }
        let mut iterations = 0;
        let mut converged = false;
        let mut info = SMat::<STATE_DIM>::zeros();
        let mut last_info: Option<SMat<STATE_DIM>> = None;

        while iterations < MAX_ITERATIONS && !converged {
            iterations += 1;
            // Assemble H = [Λ +] JᵀWJ and g = [Λ(anchor − x) +] JᵀWr,
            // reusing the residuals captured by the last cost evaluation.
            let mut jtwr = [0.0; STATE_DIM];
            match prior {
                Some(p) => {
                    info = p.info;
                    let mut d = [0.0; STATE_DIM];
                    for i in 0..STATE_DIM {
                        d[i] = p.anchor[i] - x[i];
                    }
                    jtwr = p.info.mul_vec(&d);
                }
                None => info.set_zero(),
            }
            for (o, &r) in observations.iter().zip(&resid) {
                let row = o.jacobian_row(&x);
                let w = o.weight();
                debug_assert!(
                    w.is_finite() && w > 0.0,
                    "observation weight must be positive and finite (is sigma > 0?)"
                );
                for a in 0..STATE_DIM {
                    jtwr[a] += w * row[a] * r;
                    for b in 0..STATE_DIM {
                        info[(a, b)] += w * row[a] * row[b];
                    }
                }
            }
            last_info = Some(info);

            // Levenberg–Marquardt inner loop: grow damping until the step
            // reduces the cost.
            let mut accepted = false;
            for _ in 0..12 {
                let mut damped = info;
                for d in 0..STATE_DIM {
                    // Marquardt scaling keeps the damping meaningful across
                    // the wildly different parameter units.
                    damped[(d, d)] += lambda * info[(d, d)].max(1e-30);
                }
                let delta = match SCholesky::factor(&damped) {
                    Ok(ch) => ch.solve(&jtwr),
                    Err(e) => {
                        if lambda > 1e8 {
                            return Err(SolveError::Degenerate(e));
                        }
                        lambda *= 10.0;
                        continue;
                    }
                };
                let mut x_new = x;
                for (xi, di) in x_new.iter_mut().zip(&delta) {
                    *xi += di;
                }
                // Keep latitude physical.
                x_new[0] = x_new[0].clamp(
                    -std::f64::consts::FRAC_PI_2 + 1e-9,
                    std::f64::consts::FRAC_PI_2 - 1e-9,
                );
                let mut new_cost = Self::cost_into(observations, &x_new, &mut resid_trial);
                if let Some(p) = prior {
                    new_cost += Self::prior_cost(p, &x_new);
                }
                if new_cost <= cost {
                    // Scaled step norm for convergence: radians vs hertz.
                    let step = (delta[0].powi(2) + delta[1].powi(2)).sqrt()
                        + delta[2].abs() / x[2].abs().max(1.0);
                    x = x_new;
                    cost = new_cost;
                    std::mem::swap(&mut resid, &mut resid_trial);
                    lambda = (lambda * 0.3).max(1e-12);
                    accepted = true;
                    if step < STEP_TOLERANCE {
                        converged = true;
                    }
                    break;
                }
                lambda *= 10.0;
            }
            if !accepted {
                // Damping maxed out without improvement: we are at a local
                // minimum (or the model cannot fit better).
                break;
            }
        }

        let info = last_info.expect("at least one iteration ran");
        let covariance = Self::covariance_from_sinfo(&info)?;
        Ok(Estimate {
            state: x,
            covariance,
            cost,
            iterations,
        })
    }

    /// The heap-allocating, dynamic-dispatch reference implementation —
    /// the estimator as it existed before the stack kernels, kept (like
    /// the uniformization `_dense` paths) as the baseline the fast path is
    /// bench-compared and bit-identity-checked against.
    ///
    /// # Errors
    ///
    /// As [`WlsSolver::solve`].
    pub fn solve_heap(
        &self,
        observations: &[&dyn Observation],
        x0: [f64; STATE_DIM],
    ) -> Result<Estimate, SolveError> {
        if observations.len() < STATE_DIM {
            return Err(SolveError::Underdetermined {
                observations: observations.len(),
            });
        }
        let mut x = x0;
        let mut lambda = INITIAL_DAMPING;
        let mut cost = Self::cost(observations, &x);
        let mut iterations = 0;
        let mut converged = false;
        let mut last_jtwj: Option<Matrix> = None;

        while iterations < MAX_ITERATIONS && !converged {
            iterations += 1;
            // Assemble JᵀWJ and JᵀWr.
            let mut jtwj = Matrix::zeros(STATE_DIM, STATE_DIM);
            let mut jtwr = [0.0; STATE_DIM];
            for o in observations {
                let row = o.jacobian_row(&x);
                let w = o.weight();
                debug_assert!(
                    w.is_finite() && w > 0.0,
                    "observation weight must be positive and finite (is sigma > 0?)"
                );
                let r = o.observed() - o.predict(&x);
                for a in 0..STATE_DIM {
                    jtwr[a] += w * row[a] * r;
                    for b in 0..STATE_DIM {
                        jtwj[(a, b)] += w * row[a] * row[b];
                    }
                }
            }
            last_jtwj = Some(jtwj.clone());

            // Levenberg–Marquardt inner loop: grow damping until the step
            // reduces the cost.
            let mut accepted = false;
            for _ in 0..12 {
                let mut damped = jtwj.clone();
                for d in 0..STATE_DIM {
                    // Marquardt scaling keeps the damping meaningful across
                    // the wildly different parameter units.
                    damped[(d, d)] += lambda * jtwj[(d, d)].max(1e-30);
                }
                let delta = match Cholesky::factor(&damped).and_then(|ch| ch.solve(&jtwr)) {
                    Ok(d) => d,
                    Err(e) => {
                        if lambda > 1e8 {
                            return Err(SolveError::Degenerate(e));
                        }
                        lambda *= 10.0;
                        continue;
                    }
                };
                let mut x_new = x;
                for (xi, di) in x_new.iter_mut().zip(&delta) {
                    *xi += di;
                }
                // Keep latitude physical.
                x_new[0] = x_new[0].clamp(
                    -std::f64::consts::FRAC_PI_2 + 1e-9,
                    std::f64::consts::FRAC_PI_2 - 1e-9,
                );
                let new_cost = Self::cost(observations, &x_new);
                if new_cost <= cost {
                    // Scaled step norm for convergence: radians vs hertz.
                    let step = (delta[0].powi(2) + delta[1].powi(2)).sqrt()
                        + delta[2].abs() / x[2].abs().max(1.0);
                    x = x_new;
                    cost = new_cost;
                    lambda = (lambda * 0.3).max(1e-12);
                    accepted = true;
                    if step < STEP_TOLERANCE {
                        converged = true;
                    }
                    break;
                }
                lambda *= 10.0;
            }
            if !accepted {
                // Damping maxed out without improvement: we are at a local
                // minimum (or the model cannot fit better).
                break;
            }
        }

        let jtwj = last_jtwj.expect("at least one iteration ran");
        let covariance = Self::covariance_from_information(&jtwj)?;
        Ok(Estimate {
            state: x,
            covariance,
            cost,
            iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linear pseudo-observation `y = a·x + noise` for solver unit tests.
    struct LinearObs {
        a: [f64; STATE_DIM],
        y: f64,
        sigma: f64,
    }

    impl Observation for LinearObs {
        fn predict(&self, x: &[f64; STATE_DIM]) -> f64 {
            self.a.iter().zip(x).map(|(ai, xi)| ai * xi).sum()
        }
        fn observed(&self) -> f64 {
            self.y
        }
        fn sigma(&self) -> f64 {
            self.sigma
        }
    }

    fn linear_problem(truth: [f64; 3], sigmas: [f64; 3]) -> Vec<LinearObs> {
        let rows: [[f64; 3]; 4] = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
        ];
        rows.iter()
            .enumerate()
            .map(|(i, a)| LinearObs {
                a: *a,
                y: a.iter().zip(&truth).map(|(ai, ti)| ai * ti).sum(),
                sigma: sigmas[i % 3],
            })
            .collect()
    }

    #[test]
    fn linear_system_recovered_exactly() {
        let truth = [0.5, -0.2, 100.0];
        let obs = linear_problem(truth, [1.0, 1.0, 1.0]);
        let refs: Vec<&dyn Observation> = obs.iter().map(|o| o as &dyn Observation).collect();
        let est = WlsSolver::new().solve(&refs, [0.0, 0.0, 1.0]).unwrap();
        for (e, t) in est.state.iter().zip(&truth) {
            assert!((e - t).abs() < 1e-6, "{e} vs {t}");
        }
        assert!(est.cost < 1e-10);
    }

    #[test]
    fn monomorphized_path_recovers_without_refs() {
        // The generic fast path over owned observations: no &dyn list.
        let truth = [0.5, -0.2, 100.0];
        let obs = linear_problem(truth, [1.0, 1.0, 1.0]);
        let est = WlsSolver::new().solve_obs(&obs, [0.0, 0.0, 1.0]).unwrap();
        for (e, t) in est.state.iter().zip(&truth) {
            assert!((e - t).abs() < 1e-6, "{e} vs {t}");
        }
    }

    #[test]
    fn fast_path_is_bit_identical_to_heap_reference() {
        let truth = [0.4, 0.1, 4.0e8];
        let obs = linear_problem(truth, [0.5, 2.0, 1.0]);
        let refs: Vec<&dyn Observation> = obs.iter().map(|o| o as &dyn Observation).collect();
        let x0 = [0.1, 0.0, 3.9e8];
        let fast = WlsSolver::new().solve_obs(&obs, x0).unwrap();
        let heap = WlsSolver::new().solve_heap(&refs, x0).unwrap();
        assert_eq!(fast.iterations, heap.iterations);
        assert_eq!(fast.cost.to_bits(), heap.cost.to_bits());
        for (f, h) in fast.state.iter().zip(&heap.state) {
            assert_eq!(f.to_bits(), h.to_bits(), "{f} vs {h}");
        }
        for i in 0..STATE_DIM {
            for j in 0..STATE_DIM {
                assert_eq!(
                    fast.covariance[(i, j)].to_bits(),
                    heap.covariance[(i, j)].to_bits()
                );
            }
        }
    }

    #[test]
    fn prior_solve_fuses_information() {
        // Old measurements pinned x0/x1; the prior must carry that into a
        // solve that only observes x2.
        let old = linear_problem([0.5, -0.2, 100.0], [1.0, 1.0, 1.0]);
        let solver = WlsSolver::new();
        let old_est = solver.solve_obs(&old, [0.0, 0.0, 1.0]).unwrap();
        let mut info = SMat::<STATE_DIM>::zeros();
        for o in &old {
            info.rank1_update(o.weight(), &o.jacobian_row(&old_est.state));
        }
        let prior = InformationPrior {
            info,
            anchor: old_est.state,
        };
        let new = [LinearObs {
            a: [0.0, 0.0, 1.0],
            y: 100.0,
            sigma: 0.1,
        }];
        let est = solver
            .solve_obs_with_prior(&new, &prior, old_est.state)
            .unwrap();
        assert!((est.state[0] - 0.5).abs() < 1e-6, "prior holds x0");
        assert!((est.state[1] + 0.2).abs() < 1e-6, "prior holds x1");
        assert!((est.state[2] - 100.0).abs() < 1e-6);
    }

    #[test]
    fn fd_adapter_restores_reference_jacobian() {
        let o = LinearObs {
            a: [2.0, -1.0, 0.5],
            y: 1.0,
            sigma: 1.0,
        };
        let x = [0.3, 0.2, 10.0];
        let fd = FdJacobian(&o).jacobian_row(&x);
        let reference = o.jacobian_row_fd(&x);
        assert_eq!(fd, reference);
    }

    #[test]
    fn ambiguous_geometry_gets_enormous_but_finite_covariance() {
        // x0 and x1 are only ever observed through their sum — the system
        // is exactly singular, but every coordinate carries information
        // (positive diagonal), so the equilibrated-ridge fallback must
        // return a huge variance along the unresolved direction instead of
        // erroring (the single-pass ambiguity case, in miniature).
        let obs: Vec<LinearObs> = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
            .iter()
            .map(|a| LinearObs {
                a: *a,
                y: 1.0,
                sigma: 1.0,
            })
            .collect();
        let refs: Vec<&dyn Observation> = obs.iter().map(|o| o as &dyn Observation).collect();
        let x0 = [0.2, 0.3, 1.0];
        let fast = WlsSolver::new().solve_obs(&obs, x0).unwrap();
        let heap = WlsSolver::new().solve_heap(&refs, x0).unwrap();
        assert!(fast.covariance[(0, 0)].is_finite());
        assert!(
            fast.covariance[(0, 0)] > 1e6,
            "unresolved direction must have enormous variance: {}",
            fast.covariance[(0, 0)]
        );
        // The fully observed coordinate stays well-determined.
        assert!(
            fast.covariance[(2, 2)] < 10.0,
            "{}",
            fast.covariance[(2, 2)]
        );
        // The fallback is part of the bit-identity contract.
        for i in 0..STATE_DIM {
            for j in 0..STATE_DIM {
                assert_eq!(
                    fast.covariance[(i, j)].to_bits(),
                    heap.covariance[(i, j)].to_bits()
                );
            }
        }
    }

    #[test]
    fn underdetermined_rejected() {
        let obs = linear_problem([0.0; 3], [1.0; 3]);
        let refs: Vec<&dyn Observation> = obs[..2].iter().map(|o| o as &dyn Observation).collect();
        assert!(matches!(
            WlsSolver::new().solve(&refs, [0.0; 3]),
            Err(SolveError::Underdetermined { observations: 2 })
        ));
    }

    #[test]
    fn degenerate_geometry_detected() {
        // Three copies of the same row: rank-1 normal equations.
        let obs: Vec<LinearObs> = (0..3)
            .map(|_| LinearObs {
                a: [1.0, 0.0, 0.0],
                y: 1.0,
                sigma: 1.0,
            })
            .collect();
        let refs: Vec<&dyn Observation> = obs.iter().map(|o| o as &dyn Observation).collect();
        let r = WlsSolver::new().solve(&refs, [0.0; 3]);
        assert!(matches!(r, Err(SolveError::Degenerate(_))), "{r:?}");
        let heap = WlsSolver::new().solve_heap(&refs, [0.0; 3]);
        assert!(matches!(heap, Err(SolveError::Degenerate(_))), "{heap:?}");
    }

    #[test]
    fn covariance_scales_with_noise() {
        let truth = [0.1, 0.2, 10.0];
        let low = linear_problem(truth, [0.1, 0.1, 0.1]);
        let high = linear_problem(truth, [10.0, 10.0, 10.0]);
        let solve = |obs: &[LinearObs]| {
            let refs: Vec<&dyn Observation> = obs.iter().map(|o| o as &dyn Observation).collect();
            WlsSolver::new().solve(&refs, [0.0; 3]).unwrap()
        };
        let e_low = solve(&low);
        let e_high = solve(&high);
        assert!(e_high.covariance[(0, 0)] > e_low.covariance[(0, 0)] * 100.0);
    }

    #[test]
    fn weights_downrank_noisy_observations() {
        // Two conflicting observations of x0; the tight one must dominate.
        let obs = [
            LinearObs {
                a: [1.0, 0.0, 0.0],
                y: 1.0,
                sigma: 0.01,
            },
            LinearObs {
                a: [1.0, 0.0, 0.0],
                y: 2.0,
                sigma: 1.0,
            },
            LinearObs {
                a: [0.0, 1.0, 0.0],
                y: 0.0,
                sigma: 1.0,
            },
            LinearObs {
                a: [0.0, 0.0, 1.0],
                y: 0.0,
                sigma: 1.0,
            },
        ];
        let refs: Vec<&dyn Observation> = obs.iter().map(|o| o as &dyn Observation).collect();
        let est = WlsSolver::new().solve(&refs, [0.0; 3]).unwrap();
        assert!((est.state[0] - 1.0).abs() < 0.01, "got {}", est.state[0]);
    }

    #[test]
    fn display_of_errors() {
        let e = SolveError::Underdetermined { observations: 1 };
        assert!(e.to_string().contains("underdetermined"));
    }
}
