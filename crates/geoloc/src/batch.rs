//! Structure-of-arrays batched WLS: many independent emitter tracks per
//! solve call.
//!
//! The many-emitter tracking workload solves thousands of small (3-state)
//! WLS problems per step. Solving them one [`crate::wls::WlsSolver::solve_obs`]
//! call at a time leaves two costs on the table:
//!
//! * every `predict`/`jacobian_row` call recomputes the trial-state
//!   geometry (trig of the hypothesized latitude/longitude) even though it
//!   is identical for all observations of a track at a given trial state —
//!   [`BatchObservation`] hoists it to once per (track, trial state);
//! * residuals, weights, and Jacobian rows live in short-lived per-solve
//!   allocations — [`BatchSolver`] stores them as flat structure-of-arrays
//!   columns over *all* tracks (CSR offsets delimiting each track's range),
//!   reused across calls, so the inner loops are branch-free passes over
//!   contiguous `f64` slices the compiler can autovectorize.
//!
//! ## Bit-identity contract
//!
//! Per track, [`BatchSolver::solve_all`] performs exactly the operations of
//! [`crate::wls::WlsSolver::solve_obs`] in exactly the same order: the
//! hoisted kernels reproduce the un-hoisted ones bit for bit (asserted by
//! the Doppler tests), weights are `1/σ²` computed once instead of per
//! iteration (a pure function of σ, so the same value), and the
//! accumulation order of the normal equations per observation is unchanged.
//! Batched results are therefore **bit-identical** to the looped solver —
//! asserted by the property tests here and re-asserted in-bench by
//! `geoloc_batch` (E22).

use oaq_linalg::{SCholesky, SMat};

use crate::wls::{
    Estimate, Observation, SolveError, WlsSolver, INITIAL_DAMPING, MAX_ITERATIONS, STATE_DIM,
    STEP_TOLERANCE,
};

/// An [`Observation`] whose prediction and gradient split into a
/// per-trial-state part (the "geometry", shared by every observation of a
/// track) and a cheap per-observation part.
///
/// Contract: for any state `x`,
/// `predict_hoisted(&Self::geom(&x), &x)` must equal `predict(&x)` **bit
/// for bit**, and likewise for the Jacobian row — the batch solver relies
/// on this to stay bit-identical to the looped path.
pub trait BatchObservation: Observation + Sized {
    /// The hoisted per-trial-state geometry.
    type Geom;

    /// The structure-of-arrays store for this observation type's
    /// per-observation constants (the batch solver's hot-loop input).
    type Soa: SoaColumns<Self, Geom = Self::Geom>;

    /// Computes the shared geometry at trial state `x`.
    fn geom(x: &[f64; STATE_DIM]) -> Self::Geom;

    /// [`Observation::predict`] with the geometry precomputed.
    fn predict_hoisted(&self, geom: &Self::Geom, x: &[f64; STATE_DIM]) -> f64;

    /// [`Observation::jacobian_row`] with the geometry precomputed.
    fn jacobian_row_hoisted(&self, geom: &Self::Geom, x: &[f64; STATE_DIM]) -> [f64; STATE_DIM];
}

/// Structure-of-arrays storage for one observation type: the constants of
/// each observation decomposed into contiguous `f64` columns, plus the two
/// column kernels the batched solver's inner loop runs over them.
///
/// The kernels are where the SoA layout pays: each output element is an
/// independent element-wise function of the columns (no cross-element
/// accumulation), so the compiler can autovectorize the `sqrt`/`div`
/// chains that dominate the per-observation cost. Contract: element `k` of
/// `predict_into` must equal `predict_hoisted` of observation `k` **bit
/// for bit** (likewise `jacobian_into` vs `jacobian_row_hoisted`) — IEEE
/// element-wise SIMD lanes are bitwise identical to scalar ops, so
/// vectorization never breaks the batch/looped identity.
pub trait SoaColumns<O>: Clone + Default + std::fmt::Debug {
    /// The hoisted per-trial-state geometry (same as the observation's).
    type Geom;

    /// Clears all columns, keeping capacity.
    fn clear(&mut self);

    /// Appends one observation's constants to the columns.
    fn push(&mut self, o: &O);

    /// Writes `predict_hoisted(obs[k], geom, x)` to `out[k - lo]` for
    /// `k` in `lo..hi`.
    fn predict_into(
        &self,
        lo: usize,
        hi: usize,
        geom: &Self::Geom,
        x: &[f64; STATE_DIM],
        out: &mut [f64],
    );

    /// Writes `jacobian_row_hoisted(obs[k], geom, x)` to
    /// `(row_lat, row_lon, row_f0)[k - lo]` for `k` in `lo..hi`.
    #[allow(clippy::too_many_arguments)]
    fn jacobian_into(
        &self,
        lo: usize,
        hi: usize,
        geom: &Self::Geom,
        x: &[f64; STATE_DIM],
        row_lat: &mut [f64],
        row_lon: &mut [f64],
        row_f0: &mut [f64],
    );
}

/// Batched WLS solver over many independent tracks.
///
/// Push one track per emitter ([`BatchSolver::push_track`]), then
/// [`BatchSolver::solve_all`]. The solver owns its scratch; reuse one
/// instance across steps ([`BatchSolver::clear`]) to amortize allocation.
///
/// ## Memory layout
///
/// ```text
///             track 0      track 1    track 2
///           ┌───────────┬───────────┬─────────┐
/// soa       │ ········· │ ········· │ ······· │   O::Soa kinematic columns
/// observed  │ y y y y y │ y y y y y │ y y y y │ ┐
/// weight    │ w w w w w │ w w w w w │ w w w w │ │ SoA columns,
/// pred      │ p p p p p │ p p p p p │ p p p p │ │ contiguous across
/// resid     │ r r r r r │ r r r r r │ r r r r │ │ tracks, reused
/// row_lat   │ j j j j j │ j j j j j │ j j j j │ │ across solve calls
/// row_lon   │ j j j j j │ j j j j j │ j j j j │ │
/// row_f0    │ j j j j j │ j j j j j │ j j j j │ ┘
///           └───────────┴───────────┴─────────┘
/// offsets:    0           5           10        14   (CSR)
/// ```
#[derive(Debug, Clone)]
pub struct BatchSolver<O: BatchObservation> {
    /// The observations' per-type constants as SoA columns.
    soa: O::Soa,
    /// SoA columns of the observations (len = total observation count).
    observed: Vec<f64>,
    weight: Vec<f64>,
    /// CSR delimiters: track `e` owns observations `offsets[e]..offsets[e+1]`.
    offsets: Vec<usize>,
    /// Per-track initial states.
    x0: Vec<[f64; STATE_DIM]>,
    // Scratch columns, sized lazily by solve_all and reused across calls.
    pred: Vec<f64>,
    resid: Vec<f64>,
    resid_trial: Vec<f64>,
    row_lat: Vec<f64>,
    row_lon: Vec<f64>,
    row_f0: Vec<f64>,
}

impl<O: BatchObservation> Default for BatchSolver<O> {
    fn default() -> Self {
        Self::new(WlsSolver::new())
    }
}

impl<O: BatchObservation> BatchSolver<O> {
    /// Creates an empty batch that reproduces `WlsSolver`'s solves bit
    /// for bit (the solver has no settings; both share its iteration
    /// budget, tolerance and damping constants).
    #[must_use]
    pub fn new(_: WlsSolver) -> Self {
        BatchSolver {
            soa: O::Soa::default(),
            observed: Vec::new(),
            weight: Vec::new(),
            offsets: vec![0],
            x0: Vec::new(),
            pred: Vec::new(),
            resid: Vec::new(),
            resid_trial: Vec::new(),
            row_lat: Vec::new(),
            row_lon: Vec::new(),
            row_f0: Vec::new(),
        }
    }

    /// Removes all tracks, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.soa.clear();
        self.observed.clear();
        self.weight.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.x0.clear();
    }

    /// Number of tracks currently queued.
    #[must_use]
    pub fn tracks(&self) -> usize {
        self.x0.len()
    }

    /// Total observation count across all tracks.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.observed.len()
    }

    /// True when no tracks are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x0.is_empty()
    }

    /// Appends one track: its initial state and all its observations.
    /// Returns the track's index within the batch (its slot in the
    /// [`BatchSolver::solve_all`] result).
    pub fn push_track(
        &mut self,
        x0: [f64; STATE_DIM],
        observations: impl IntoIterator<Item = O>,
    ) -> usize {
        for o in observations {
            self.observed.push(o.observed());
            let w = o.weight();
            debug_assert!(
                w.is_finite() && w > 0.0,
                "observation weight must be positive and finite (is sigma > 0?)"
            );
            self.weight.push(w);
            self.soa.push(&o);
        }
        self.offsets.push(self.observed.len());
        self.x0.push(x0);
        self.x0.len() - 1
    }

    /// Solves every queued track, returning one result per track in push
    /// order. Tracks are independent: a degenerate track yields its error
    /// in its slot without disturbing the others.
    pub fn solve_all(&mut self) -> Vec<Result<Estimate, SolveError>> {
        let n = self.observed.len();
        self.pred.resize(n, 0.0);
        self.resid.resize(n, 0.0);
        self.resid_trial.resize(n, 0.0);
        self.row_lat.resize(n, 0.0);
        self.row_lon.resize(n, 0.0);
        self.row_f0.resize(n, 0.0);
        (0..self.x0.len()).map(|e| self.solve_track(e)).collect()
    }

    /// One track through the damped Gauss–Newton core: exactly the
    /// operations of `WlsSolver::solve_core` (prior-less path) in the same
    /// order, with the trial-state geometry hoisted and the residual/row
    /// buffers taken from the flat columns.
    fn solve_track(&mut self, e: usize) -> Result<Estimate, SolveError> {
        let (lo, hi) = (self.offsets[e], self.offsets[e + 1]);
        if hi - lo < STATE_DIM {
            return Err(SolveError::Underdetermined {
                observations: hi - lo,
            });
        }
        let soa = &self.soa;
        let observed = &self.observed[lo..hi];
        let weight = &self.weight[lo..hi];
        let pred = &mut self.pred[lo..hi];
        let (mut resid, mut resid_trial) = (
            &mut self.resid[lo..hi] as &mut [f64],
            &mut self.resid_trial[lo..hi] as &mut [f64],
        );
        let row_lat = &mut self.row_lat[lo..hi];
        let row_lon = &mut self.row_lon[lo..hi];
        let row_f0 = &mut self.row_f0[lo..hi];
        let m = hi - lo;

        // cost_into with the geometry hoisted: the predictions come from
        // the vectorizable column kernel, then residual and cost follow in
        // solve_core's summation order.
        let cost_into =
            |x: &[f64; STATE_DIM], geom: &O::Geom, resid: &mut [f64], pred: &mut [f64]| -> f64 {
                soa.predict_into(lo, hi, geom, x, pred);
                let mut total = 0.0;
                for k in 0..m {
                    let r = observed[k] - pred[k];
                    resid[k] = r;
                    total += weight[k] * r * r;
                }
                total
            };

        let mut x = self.x0[e];
        let mut lambda = INITIAL_DAMPING;
        let mut geom = O::geom(&x);
        let mut cost = cost_into(&x, &geom, resid, pred);
        let mut iterations = 0;
        let mut converged = false;
        let mut info = SMat::<STATE_DIM>::zeros();
        let mut last_info: Option<SMat<STATE_DIM>> = None;

        while iterations < MAX_ITERATIONS && !converged {
            iterations += 1;
            // Fill the Jacobian columns (the autovectorizable pass), then
            // accumulate the normal equations in solve_core's
            // per-observation order.
            soa.jacobian_into(lo, hi, &geom, &x, row_lat, row_lon, row_f0);
            let mut jtwr = [0.0; STATE_DIM];
            info.set_zero();
            for k in 0..m {
                let row = [row_lat[k], row_lon[k], row_f0[k]];
                let (w, r) = (weight[k], resid[k]);
                for a in 0..STATE_DIM {
                    jtwr[a] += w * row[a] * r;
                    for b in 0..STATE_DIM {
                        info[(a, b)] += w * row[a] * row[b];
                    }
                }
            }
            last_info = Some(info);

            // Levenberg–Marquardt inner loop, unchanged from solve_core.
            let mut accepted = false;
            for _ in 0..12 {
                let mut damped = info;
                for d in 0..STATE_DIM {
                    damped[(d, d)] += lambda * info[(d, d)].max(1e-30);
                }
                let delta = match SCholesky::factor(&damped) {
                    Ok(ch) => ch.solve(&jtwr),
                    Err(err) => {
                        if lambda > 1e8 {
                            return Err(SolveError::Degenerate(err));
                        }
                        lambda *= 10.0;
                        continue;
                    }
                };
                let mut x_new = x;
                for (xi, di) in x_new.iter_mut().zip(&delta) {
                    *xi += di;
                }
                x_new[0] = x_new[0].clamp(
                    -std::f64::consts::FRAC_PI_2 + 1e-9,
                    std::f64::consts::FRAC_PI_2 - 1e-9,
                );
                let geom_new = O::geom(&x_new);
                let new_cost = cost_into(&x_new, &geom_new, resid_trial, pred);
                if new_cost <= cost {
                    let step = (delta[0].powi(2) + delta[1].powi(2)).sqrt()
                        + delta[2].abs() / x[2].abs().max(1.0);
                    x = x_new;
                    geom = geom_new;
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
                break;
            }
        }

        let info = last_info.expect("at least one iteration ran");
        let covariance = WlsSolver::covariance_from_sinfo(&info)?;
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
    use crate::doppler::DopplerMeasurement;
    use crate::emitter::Emitter;
    use crate::scenario::PassScenario;
    use oaq_orbit::units::Degrees;
    use oaq_orbit::GroundPoint;
    use oaq_sim::SimRng;
    use proptest::prelude::*;

    fn track(
        lat_deg: f64,
        lon_deg: f64,
        passes: usize,
        seed: u64,
    ) -> ([f64; STATE_DIM], Vec<DopplerMeasurement>) {
        let emitter = Emitter::new(
            GroundPoint::from_degrees(Degrees(lat_deg), Degrees(lon_deg)),
            400.0e6,
        );
        let scenario = PassScenario::reference(&emitter);
        let mut rng = SimRng::seed_from(seed);
        let mut obs = Vec::new();
        for pass in 0..passes {
            obs.extend(scenario.synthesize_pass(pass, &mut rng));
        }
        (emitter.initial_guess_nearby(1.0), obs)
    }

    fn assert_estimates_bit_identical(batched: &Estimate, looped: &Estimate) {
        assert_eq!(batched.iterations, looped.iterations);
        assert_eq!(batched.cost.to_bits(), looped.cost.to_bits());
        for (b, l) in batched.state.iter().zip(&looped.state) {
            assert_eq!(b.to_bits(), l.to_bits(), "{b} vs {l}");
        }
        for i in 0..STATE_DIM {
            for j in 0..STATE_DIM {
                assert_eq!(
                    batched.covariance[(i, j)].to_bits(),
                    looped.covariance[(i, j)].to_bits()
                );
            }
        }
    }

    #[test]
    fn batched_solve_is_bit_identical_to_looped() {
        let solver = WlsSolver::new();
        let mut batch = BatchSolver::new(solver);
        let specs = [
            (30.0, 10.0, 2, 41u64),
            (-12.0, 150.0, 3, 42),
            (55.0, -80.0, 1, 43),
            (0.5, 0.0, 4, 44),
        ];
        let mut tracks = Vec::new();
        for (lat, lon, passes, seed) in specs {
            let (x0, obs) = track(lat, lon, passes, seed);
            batch.push_track(x0, obs.iter().copied());
            tracks.push((x0, obs));
        }
        let results = batch.solve_all();
        assert_eq!(results.len(), tracks.len());
        for ((x0, obs), batched) in tracks.iter().zip(&results) {
            let looped = solver.solve_obs(obs, *x0);
            match (batched, &looped) {
                (Ok(b), Ok(l)) => assert_estimates_bit_identical(b, l),
                (b, l) => panic!("outcome mismatch: {b:?} vs {l:?}"),
            }
        }
    }

    #[test]
    fn underdetermined_track_errors_without_disturbing_neighbors() {
        let solver = WlsSolver::new();
        let (x0, obs) = track(30.0, 10.0, 2, 7);
        let mut batch = BatchSolver::new(solver);
        batch.push_track(x0, obs[..2].iter().copied());
        batch.push_track(x0, obs.iter().copied());
        let results = batch.solve_all();
        assert!(matches!(
            results[0],
            Err(SolveError::Underdetermined { observations: 2 })
        ));
        let looped = solver.solve_obs(&obs, x0).unwrap();
        assert_estimates_bit_identical(results[1].as_ref().unwrap(), &looped);
    }

    #[test]
    fn clear_reuses_capacity_and_resets_tracks() {
        let (x0, obs) = track(30.0, 10.0, 1, 3);
        let mut batch = BatchSolver::new(WlsSolver::new());
        batch.push_track(x0, obs.iter().copied());
        assert_eq!(batch.tracks(), 1);
        assert_eq!(batch.observations(), obs.len());
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.observations(), 0);
        batch.push_track(x0, obs.iter().copied());
        let r = batch.solve_all();
        let looped = WlsSolver::new().solve_obs(&obs, x0).unwrap();
        assert_estimates_bit_identical(r[0].as_ref().unwrap(), &looped);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_batches_agree_with_looped_solver(
            seed in any::<u64>(),
            specs in prop::collection::vec(
                (-55.0f64..55.0, -170.0f64..170.0, 1usize..4),
                1..6,
            ),
        ) {
            let solver = WlsSolver::new();
            let mut batch = BatchSolver::new(solver);
            let mut tracks = Vec::new();
            for (i, (lat, lon, passes)) in specs.iter().enumerate() {
                let (x0, obs) = track(*lat, *lon, *passes, seed.wrapping_add(i as u64));
                batch.push_track(x0, obs.iter().copied());
                tracks.push((x0, obs));
            }
            let results = batch.solve_all();
            for ((x0, obs), batched) in tracks.iter().zip(&results) {
                match (batched, solver.solve_obs(obs, *x0)) {
                    (Ok(b), Ok(l)) => {
                        // Bit identity is the contract; it subsumes the
                        // issue's ≤1e-12 km agreement bound.
                        prop_assert_eq!(b.cost.to_bits(), l.cost.to_bits());
                        prop_assert_eq!(b.iterations, l.iterations);
                        for (bs, ls) in b.state.iter().zip(&l.state) {
                            prop_assert_eq!(bs.to_bits(), ls.to_bits());
                        }
                        prop_assert_eq!(
                            b.error_radius_km().to_bits(),
                            l.error_radius_km().to_bits()
                        );
                    }
                    (Err(b), Err(l)) => prop_assert_eq!(format!("{b}"), format!("{l}")),
                    (b, l) => prop_assert!(false, "outcome mismatch: {:?} vs {:?}", b, l),
                }
            }
        }
    }
}
