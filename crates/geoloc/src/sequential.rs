//! Sequential localization: accumulate passes, re-solve, track error.
//!
//! This is the computational core of the paper's QoS-enhancement loop: each
//! satellite that joins the coordination contributes its measurements, the
//! estimate is recomputed from the accumulated set, and the resulting
//! *estimated error* is what termination condition TC-1 compares against an
//! accuracy threshold.
//!
//! Two re-solve strategies are offered:
//!
//! * [`SequentialLocalizer::estimate`] — batch: re-solves over *all*
//!   accumulated measurements (cost grows with the chain length), solving
//!   directly over the boxed storage through the monomorphized fast path —
//!   no per-estimate `Vec<&dyn Observation>` rebuild.
//! * [`SequentialLocalizer::estimate_incremental`] — information-filter
//!   style: measurements already incorporated are summarized by an
//!   [`InformationPrior`] anchored at the previous solution, and each
//!   chain extension solves only over the *new* measurements plus that
//!   prior. When the solution moves further from the anchor than the
//!   linearization can support, the localizer transparently falls back to
//!   a full batch re-solve and rebuilds the prior (this is what happens
//!   when a second pass collapses the single-pass ground-track ambiguity).

use oaq_linalg::SMat;

use crate::wls::{Estimate, InformationPrior, Observation, SolveError, WlsSolver, STATE_DIM};

/// How far (in the solver's scaled step norm — radians plus relative
/// frequency) an incremental solution may move from the prior's anchor
/// before [`SequentialLocalizer::estimate_incremental`] falls back to a
/// full batch re-solve. `1e-3` (≈ 6 km on the ground) keeps routine chain
/// extensions incremental while forcing relinearization on ambiguity
/// collapses.
const RELINEARIZATION_THRESHOLD: f64 = 1e-3;

/// Prior state carried between incremental estimates.
#[derive(Debug, Clone, Copy)]
struct IncrementalState {
    /// How many leading observations are folded into `info`.
    folded: usize,
    /// Accumulated information `Σ w JᵀJ`, linearized at fold time.
    info: SMat<STATE_DIM>,
    /// The solution the information is anchored at.
    anchor: [f64; STATE_DIM],
}

/// Accumulates measurement passes and re-estimates after each.
///
/// See the crate-level example for end-to-end use.
pub struct SequentialLocalizer {
    observations: Vec<Box<dyn Observation + Send>>,
    passes: Vec<usize>,
    initial_guess: [f64; STATE_DIM],
    solver: WlsSolver,
    history: Vec<Estimate>,
    incremental: Option<IncrementalState>,
}

impl std::fmt::Debug for SequentialLocalizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SequentialLocalizer")
            .field("observations", &self.observations.len())
            .field("passes", &self.passes.len())
            .field("estimates", &self.history.len())
            .finish()
    }
}

impl SequentialLocalizer {
    /// Creates a localizer that will start its first solve from
    /// `initial_guess` (e.g. the footprint center of the detecting
    /// satellite).
    #[must_use]
    pub fn new(initial_guess: [f64; STATE_DIM]) -> Self {
        SequentialLocalizer {
            observations: Vec::new(),
            passes: Vec::new(),
            initial_guess,
            solver: WlsSolver::new(),
            history: Vec::new(),
            incremental: None,
        }
    }

    /// Adds one pass worth of measurements.
    pub fn add_pass<O>(&mut self, pass: Vec<O>)
    where
        O: Observation + Send + 'static,
    {
        self.passes.push(pass.len());
        self.observations.extend(
            pass.into_iter()
                .map(|o| Box::new(o) as Box<dyn Observation + Send>),
        );
    }

    /// Total measurements accumulated.
    #[must_use]
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// Re-solves over all accumulated measurements, warm-starting from the
    /// previous estimate when one exists. Solves directly over the boxed
    /// storage (monomorphized fast path) — no reference-list rebuild.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying WLS solve.
    pub fn estimate(&mut self) -> Result<Estimate, SolveError> {
        let start = self.history.last().map_or(self.initial_guess, |e| e.state);
        let est = self.solver.solve_obs(&self.observations, start)?;
        self.history.push(est.clone());
        Ok(est)
    }

    /// Re-solves incrementally: only the measurements added since the last
    /// incremental estimate enter the iteration; everything older is
    /// summarized by an [`InformationPrior`] anchored at the previous
    /// solution and folded in by rank-1 updates. Warm-starts from the
    /// anchor.
    ///
    /// Falls back to a full batch re-solve (and rebuilds the prior) when
    /// the solution moves further from the anchor than a fixed scaled step
    /// of `1e-3` (≈ 6 km on the ground), so
    /// accuracy-critical transitions — e.g. a second pass collapsing the
    /// single-pass ambiguity — are never served by a stale linearization.
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying WLS solve.
    pub fn estimate_incremental(&mut self) -> Result<Estimate, SolveError> {
        let (est, extend) = match self.incremental {
            // First estimate: nothing folded yet — plain batch solve.
            None => (
                self.solver
                    .solve_obs(&self.observations, self.initial_guess)?,
                false,
            ),
            Some(ref inc) => {
                let prior = InformationPrior {
                    info: inc.info,
                    anchor: inc.anchor,
                };
                let est = self.solver.solve_obs_with_prior(
                    &self.observations[inc.folded..],
                    &prior,
                    inc.anchor,
                )?;
                let step = ((est.state[0] - inc.anchor[0]).powi(2)
                    + (est.state[1] - inc.anchor[1]).powi(2))
                .sqrt()
                    + (est.state[2] - inc.anchor[2]).abs() / inc.anchor[2].abs().max(1.0);
                if step > RELINEARIZATION_THRESHOLD {
                    // The prior's linearization no longer covers the move:
                    // re-solve from scratch, warm-started at the fresher of
                    // the two states.
                    (self.solver.solve_obs(&self.observations, est.state)?, false)
                } else {
                    (est, true)
                }
            }
        };
        // Rebuild / extend the information summary at the new solution.
        let refreshed = if extend {
            // Extend: fold only the new measurements into the prior.
            let inc = self.incremental.as_ref().expect("extend implies a prior");
            let mut info = inc.info;
            for o in &self.observations[inc.folded..] {
                info.rank1_update(o.weight(), &o.jacobian_row(&est.state));
            }
            IncrementalState {
                folded: self.observations.len(),
                info,
                anchor: est.state,
            }
        } else {
            // First solve or relinearization: fold everything.
            let mut info = SMat::<STATE_DIM>::zeros();
            for o in &self.observations {
                info.rank1_update(o.weight(), &o.jacobian_row(&est.state));
            }
            IncrementalState {
                folded: self.observations.len(),
                info,
                anchor: est.state,
            }
        };
        self.incremental = Some(refreshed);
        self.history.push(est.clone());
        Ok(est)
    }

    /// The pre-fast-path reference behavior: rebuilds a
    /// `Vec<&dyn Observation>` and solves through the heap/dynamic-dispatch
    /// baseline. Kept for bench comparison and bit-identity regression
    /// tests against [`SequentialLocalizer::estimate`].
    ///
    /// # Errors
    ///
    /// Propagates [`SolveError`] from the underlying WLS solve.
    pub fn estimate_heap_dyn(&mut self) -> Result<Estimate, SolveError> {
        let start = self.history.last().map_or(self.initial_guess, |e| e.state);
        let refs: Vec<&dyn Observation> = self
            .observations
            .iter()
            .map(|b| b.as_ref() as &dyn Observation)
            .collect();
        let est = self.solver.solve_heap(&refs, start)?;
        self.history.push(est.clone());
        Ok(est)
    }

    /// The estimates produced so far, in order.
    #[must_use]
    pub fn history(&self) -> &[Estimate] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::Emitter;
    use crate::scenario::PassScenario;
    use oaq_orbit::units::Degrees;
    use oaq_orbit::GroundPoint;
    use oaq_sim::SimRng;

    fn emitter() -> Emitter {
        Emitter::new(
            GroundPoint::from_degrees(Degrees(30.0), Degrees(20.0)),
            400.0e6,
        )
    }

    #[test]
    fn sequential_passes_reduce_error() {
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut rng = SimRng::seed_from(11);
        let mut loc = SequentialLocalizer::new(e.initial_guess_nearby(1.0));

        let mut actual_errors = Vec::new();
        let mut reported_errors = Vec::new();
        for pass in 0..3 {
            loc.add_pass(scenario.synthesize_pass(pass, &mut rng));
            let est = loc.estimate().expect("solve");
            actual_errors.push(est.position_error_km(&e.position()));
            reported_errors.push(est.error_radius_km());
        }
        assert!(
            actual_errors[1] < actual_errors[0],
            "second pass improves: {actual_errors:?}"
        );
        assert!(
            reported_errors[2] < reported_errors[0],
            "reported error shrinks: {reported_errors:?}"
        );
        assert_eq!(loc.num_observations(), 27);
    }

    #[test]
    fn reported_error_is_credible() {
        // Over several seeds the actual error should rarely exceed a few
        // multiples of the reported 1-σ radius.
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut within = 0;
        let n = 10;
        for seed in 0..n {
            let mut rng = SimRng::seed_from(100 + seed);
            let mut loc = SequentialLocalizer::new(e.initial_guess_nearby(0.8));
            loc.add_pass(scenario.synthesize_pass(0, &mut rng));
            loc.add_pass(scenario.synthesize_pass(1, &mut rng));
            let est = loc.estimate().expect("solve");
            if est.position_error_km(&e.position()) <= 4.0 * est.error_radius_km() {
                within += 1;
            }
        }
        assert!(within >= n - 2, "only {within}/{n} within 4 sigma");
    }

    #[test]
    fn estimate_without_passes_is_underdetermined() {
        let e = emitter();
        let mut loc = SequentialLocalizer::new(e.initial_guess_nearby(1.0));
        assert!(matches!(
            loc.estimate(),
            Err(SolveError::Underdetermined { observations: 0 })
        ));
    }

    #[test]
    fn history_accumulates() {
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut rng = SimRng::seed_from(3);
        let mut loc = SequentialLocalizer::new(e.initial_guess_nearby(1.0));
        loc.add_pass(scenario.synthesize_pass(0, &mut rng));
        loc.estimate().unwrap();
        loc.add_pass(scenario.synthesize_pass(1, &mut rng));
        loc.estimate().unwrap();
        assert_eq!(loc.history().len(), 2);
    }

    #[test]
    fn single_center_line_pass_is_ambiguous() {
        // Pass 0 overflies the emitter dead-center, so the Doppler curve has
        // no first-order cross-track sensitivity — the literature's
        // "ambiguity problem". The reported uncertainty must be honest about
        // it (enormous), and a second, offset pass must collapse it.
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut rng = SimRng::seed_from(42);
        let mut loc = SequentialLocalizer::new(e.initial_guess_nearby(0.8));
        loc.add_pass(scenario.synthesize_pass(0, &mut rng));
        let one = loc.estimate().unwrap().error_radius_km();
        loc.add_pass(scenario.synthesize_pass(1, &mut rng));
        let two = loc.estimate().unwrap().error_radius_km();
        assert!(
            one > 100.0,
            "degenerate geometry must report huge error, got {one}"
        );
        assert!(
            two < one / 10.0,
            "offset pass collapses ambiguity: {one} -> {two}"
        );
    }

    #[test]
    fn mixed_doppler_and_toa_improves_over_doppler_alone() {
        // Use the well-conditioned two-pass base, then add a TOA pass.
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let solve_with = |use_toa: bool, seed: u64| -> f64 {
            let mut rng = SimRng::seed_from(seed);
            let mut loc = SequentialLocalizer::new(e.initial_guess_nearby(0.8));
            loc.add_pass(scenario.synthesize_pass(0, &mut rng));
            loc.add_pass(scenario.synthesize_pass(1, &mut rng));
            if use_toa {
                loc.add_pass(scenario.synthesize_toa_pass(1, 0.5, &mut rng));
            }
            loc.estimate().unwrap().error_radius_km()
        };
        // Reported uncertainty must shrink when adding an independent
        // modality, whatever the noise realization.
        assert!(solve_with(true, 42) < solve_with(false, 42));
    }

    #[test]
    fn debug_is_informative() {
        let loc = SequentialLocalizer::new([0.5, 0.5, 4.0e8]);
        let s = format!("{loc:?}");
        assert!(s.contains("SequentialLocalizer"));
    }

    #[test]
    fn fast_estimate_is_bit_identical_to_heap_dyn_reference() {
        // Two localizers fed identical measurement streams: the boxed
        // fast-path estimate must reproduce the pre-PR heap/dyn reference
        // bit for bit at every chain length.
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut rng_a = SimRng::seed_from(5);
        let mut rng_b = SimRng::seed_from(5);
        let mut fast = SequentialLocalizer::new(e.initial_guess_nearby(1.0));
        let mut heap = SequentialLocalizer::new(e.initial_guess_nearby(1.0));
        for pass in 0..3 {
            fast.add_pass(scenario.synthesize_pass(pass, &mut rng_a));
            heap.add_pass(scenario.synthesize_pass(pass, &mut rng_b));
            let f = fast.estimate().expect("fast solve");
            let h = heap.estimate_heap_dyn().expect("heap solve");
            assert_eq!(f.iterations, h.iterations);
            assert_eq!(f.cost.to_bits(), h.cost.to_bits());
            for (a, b) in f.state.iter().zip(&h.state) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn incremental_estimate_agrees_with_batch() {
        // After the ambiguity-collapsing second pass (which triggers the
        // relinearization fallback), further chain extensions are served
        // incrementally and must stay within solver tolerance of the batch
        // answer.
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut rng_a = SimRng::seed_from(9);
        let mut rng_b = SimRng::seed_from(9);
        let mut inc = SequentialLocalizer::new(e.initial_guess_nearby(0.8));
        let mut batch = SequentialLocalizer::new(e.initial_guess_nearby(0.8));
        for pass in 0..4 {
            inc.add_pass(scenario.synthesize_pass(pass % 2, &mut rng_a));
            batch.add_pass(scenario.synthesize_pass(pass % 2, &mut rng_b));
            let i = inc.estimate_incremental().expect("incremental solve");
            let b = batch.estimate().expect("batch solve");
            // Positions agree to well under the reported error radius.
            let d = i.position().great_circle_distance(&b.position()).value();
            assert!(
                d <= 0.05 * b.error_radius_km().max(0.1),
                "pass {pass}: incremental drifted {d} km from batch \
                 (radius {})",
                b.error_radius_km()
            );
        }
        assert_eq!(inc.history().len(), 4);
    }

    #[test]
    fn incremental_first_pass_matches_batch_exactly() {
        // With no prior yet, the incremental path IS the batch path.
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut rng_a = SimRng::seed_from(13);
        let mut rng_b = SimRng::seed_from(13);
        let mut inc = SequentialLocalizer::new(e.initial_guess_nearby(1.0));
        let mut batch = SequentialLocalizer::new(e.initial_guess_nearby(1.0));
        inc.add_pass(scenario.synthesize_pass(1, &mut rng_a));
        batch.add_pass(scenario.synthesize_pass(1, &mut rng_b));
        let i = inc.estimate_incremental().unwrap();
        let b = batch.estimate().unwrap();
        for (a, c) in i.state.iter().zip(&b.state) {
            assert_eq!(a.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn incremental_resolves_single_pass_ambiguity() {
        // The scenario of `single_center_line_pass_is_ambiguous`, through
        // the incremental path: the fallback relinearization must collapse
        // the error just like a batch re-solve does.
        let e = emitter();
        let scenario = PassScenario::reference(&e);
        let mut rng = SimRng::seed_from(42);
        let mut loc = SequentialLocalizer::new(e.initial_guess_nearby(0.8));
        loc.add_pass(scenario.synthesize_pass(0, &mut rng));
        let one = loc.estimate_incremental().unwrap().error_radius_km();
        loc.add_pass(scenario.synthesize_pass(1, &mut rng));
        let two = loc.estimate_incremental().unwrap().error_radius_km();
        assert!(one > 100.0, "degenerate geometry reports huge error: {one}");
        assert!(
            two < one / 10.0,
            "fallback collapses ambiguity: {one} -> {two}"
        );
    }
}
