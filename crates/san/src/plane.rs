//! The paper's orbital-plane availability model (Figure 7's P(k)).
//!
//! One orbital plane holds `capacity` active satellites plus in-orbit
//! `spares`. Satellites fail independently at rate λ each; a failure
//! consumes a spare while any remain, then reduces the active capacity `k`.
//! The constellation is protected by two ground-spare deployment policies
//! (paper Section 4.1):
//!
//! * **Scheduled deployment** — every φ hours (deterministic) the plane is
//!   restored to its full complement.
//! * **Threshold-triggered deployment at k = η** — the paper does not fully
//!   specify the mechanics; we model it as one-for-one replenishment that
//!   pins the plane at `k = η` until the next scheduled restore
//!   ([`SparePolicy::PinAtThreshold`]). This is the reading that reproduces
//!   Figure 7's reported shape: P(η) negligible at λ = 1e-5 and rapidly
//!   dominant as λ grows. The alternative reading — a full restore
//!   launched after a deployment delay — is also implemented
//!   ([`SparePolicy::FullRestoreAfterDelay`]) and compared in the ablation
//!   experiment (E11).
//!
//! Time unit: **hours** (matching the paper's λ and φ).

use crate::ctmc::{Ctmc, CtmcError};
use crate::model::{Delay, Marking, PlaceId, SanBuilder, SanModel};
use crate::phase_type::erlang_stage_rate;
use crate::sim::{steady_state_distribution, SteadyStateOptions};

/// How ground spares respond to the threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SparePolicy {
    /// Failures at `k = η` (with in-orbit spares exhausted) are replaced
    /// one-for-one from the ground, pinning the plane at the threshold until
    /// the scheduled restore.
    PinAtThreshold,
    /// Hitting `k = η` triggers a full-restore launch that completes after a
    /// random delay (Erlang-distributed; shape 1 is exponential). Failures
    /// continue during the delay.
    FullRestoreAfterDelay {
        /// Mean launch-to-restore delay in hours.
        mean_delay_hours: f64,
        /// Erlang shape of the delay distribution.
        erlang_shape: u32,
    },
}

/// Parameters of one orbital plane's availability model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneModelConfig {
    /// Full active capacity (14 in the reference design).
    pub capacity: u32,
    /// In-orbit spares (2 in the reference design).
    pub spares: u32,
    /// Per-satellite failure rate, per hour.
    pub lambda: f64,
    /// Scheduled ground-spare deployment period φ, hours.
    pub phi: f64,
    /// Threshold capacity η.
    pub eta: u32,
    /// Threshold-policy mechanics.
    pub policy: SparePolicy,
}

impl PlaneModelConfig {
    /// The reference plane (14 + 2) with the pin-at-threshold policy.
    ///
    /// # Panics
    ///
    /// Panics on non-positive λ or φ, or `eta >= capacity`.
    #[must_use]
    pub fn reference(lambda: f64, phi: f64, eta: u32) -> Self {
        let cfg = PlaneModelConfig {
            capacity: 14,
            spares: 2,
            lambda,
            phi,
            eta,
            policy: SparePolicy::PinAtThreshold,
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(
            self.lambda.is_finite() && self.lambda > 0.0,
            "lambda must be positive"
        );
        assert!(
            self.phi.is_finite() && self.phi > 0.0,
            "phi must be positive"
        );
        assert!(self.eta < self.capacity, "threshold must be below capacity");
        assert!(self.capacity > 0, "capacity must be positive");
        if let SparePolicy::FullRestoreAfterDelay {
            mean_delay_hours,
            erlang_shape,
        } = self.policy
        {
            assert!(
                mean_delay_hours.is_finite() && mean_delay_hours > 0.0,
                "delay must be positive"
            );
            assert!(erlang_shape > 0, "Erlang shape must be >= 1");
        }
    }

    /// Builds the simulation variant (deterministic scheduled-restore
    /// clock).
    #[must_use]
    pub fn build_sim(&self) -> PlaneModel {
        self.build(RestoreClock::Deterministic)
    }

    /// Builds the Markov variant: the deterministic clock becomes an
    /// Erlang(`erlang_shape`) stage chain so the model is a CTMC.
    ///
    /// # Panics
    ///
    /// Panics if `erlang_shape == 0`.
    #[must_use]
    pub fn build_markov(&self, erlang_shape: u32) -> PlaneModel {
        assert!(erlang_shape > 0, "Erlang shape must be >= 1");
        self.build(RestoreClock::ErlangStages(erlang_shape))
    }

    fn build(&self, clock: RestoreClock) -> PlaneModel {
        self.validate();
        let cfg = *self;
        let mut b = SanBuilder::new();
        let active = b.add_place("active", cfg.capacity);
        let spares = b.add_place("spares", cfg.spares);

        // --- Satellite failures -----------------------------------------
        let failure_enabled = move |m: &Marking| {
            let k = m.tokens(active);
            if k == 0 {
                return false;
            }
            match cfg.policy {
                // Failures at the pinned threshold are replaced instantly:
                // model them as disabled (they would be CTMC self-loops).
                SparePolicy::PinAtThreshold => m.tokens(spares) > 0 || k > cfg.eta,
                SparePolicy::FullRestoreAfterDelay { .. } => true,
            }
        };
        // Failures strike active satellites (rate k·λ); dormant in-orbit
        // spares are assumed not to fail, consistent with the paper's
        // "14 active plus 2 in-orbit spares" accounting.
        let lambda = cfg.lambda;
        let failure_rate = move |m: &Marking| lambda * f64::from(m.tokens(active));
        b.add_activity(
            "satellite_failure",
            Delay::exponential_with(failure_rate),
            failure_enabled,
            move |m| {
                if m.tokens(spares) > 0 {
                    // The failed unit is replaced in place by an in-orbit
                    // spare; active capacity is preserved.
                    m.remove_tokens(spares, 1);
                } else {
                    m.remove_tokens(active, 1);
                }
            },
        );

        // --- Scheduled ground-spare deployment (period φ) -----------------
        let restore = move |m: &mut Marking| {
            m.set_tokens(active, cfg.capacity);
            m.set_tokens(spares, cfg.spares);
        };
        let mut stage_place = None;
        match clock {
            RestoreClock::Deterministic => {
                b.add_activity(
                    "scheduled_restore",
                    Delay::deterministic(cfg.phi),
                    |_| true,
                    restore,
                );
            }
            RestoreClock::ErlangStages(shape) => {
                let stage = b.add_place("restore_stage", 0);
                stage_place = Some(stage);
                let rate = erlang_stage_rate(shape, cfg.phi);
                b.add_activity(
                    "restore_stage_tick",
                    Delay::exponential_rate(rate),
                    |_| true,
                    move |m| {
                        let s = m.tokens(stage) + 1;
                        if s >= shape {
                            m.set_tokens(stage, 0);
                            restore(m);
                        } else {
                            m.set_tokens(stage, s);
                        }
                    },
                );
            }
        }

        // --- Threshold-triggered launch (full-restore variant) -----------
        if let SparePolicy::FullRestoreAfterDelay {
            mean_delay_hours,
            erlang_shape,
        } = cfg.policy
        {
            let launch_stage = b.add_place("launch_stage", 0);
            let rate = erlang_stage_rate(erlang_shape, mean_delay_hours);
            let below_threshold =
                move |m: &Marking| m.tokens(active) <= cfg.eta && m.tokens(spares) == 0;
            b.add_activity(
                "launch_stage_tick",
                Delay::exponential_rate(rate),
                below_threshold,
                move |m| {
                    let s = m.tokens(launch_stage) + 1;
                    if s >= erlang_shape {
                        m.set_tokens(launch_stage, 0);
                        restore(m);
                    } else {
                        m.set_tokens(launch_stage, s);
                    }
                },
            );
        }

        PlaneModel {
            model: b.build(),
            active,
            spares,
            stage_place,
            config: cfg,
        }
    }
}

impl PlaneModelConfig {
    /// Builds and explores the *within-cycle* capacity process — the pinned
    /// pure-death CTMC between two scheduled restores, with no restore
    /// clock — into a [`CapacitySolve`] that can be reused for any horizon
    /// φ and shared across threads (`CapacitySolve` is `Send + Sync`).
    ///
    /// This is the expensive half of the Figure 7 regeneration-cycle
    /// integral `P(k) = (1/φ)∫₀^φ P(K(t)=k) dt`: state-space exploration
    /// and generator construction depend only on (capacity, spares, λ, η),
    /// so a serving layer can solve once per failure scenario and evaluate
    /// [`CapacitySolve::distribution_over`] for many deployment periods.
    ///
    /// # Errors
    ///
    /// Propagates CTMC exploration failures (state budget).
    ///
    /// # Panics
    ///
    /// Panics unless the policy is [`SparePolicy::PinAtThreshold`] (the
    /// full-restore variant's within-cycle process is not a pure death
    /// process, so the regeneration-cycle reading does not apply).
    pub fn capacity_solve(&self, max_states: usize) -> Result<CapacitySolve, CtmcError> {
        self.validate();
        assert!(
            self.policy == SparePolicy::PinAtThreshold,
            "capacity_solve requires the pin-at-threshold policy"
        );
        let cfg = *self;
        let mut b = SanBuilder::new();
        let active = b.add_place("active", cfg.capacity);
        let spares = b.add_place("spares", cfg.spares);
        let lambda = cfg.lambda;
        b.add_activity(
            "satellite_failure",
            Delay::exponential_with(move |m: &Marking| lambda * f64::from(m.tokens(active))),
            move |m: &Marking| {
                m.tokens(active) > 0 && (m.tokens(spares) > 0 || m.tokens(active) > cfg.eta)
            },
            move |m: &mut Marking| {
                if m.tokens(spares) > 0 {
                    m.remove_tokens(spares, 1);
                } else {
                    m.remove_tokens(active, 1);
                }
            },
        );
        let ctmc = Ctmc::explore(&b.build(), max_states)?;
        Ok(CapacitySolve {
            ctmc,
            actives: vec![active],
            classes: cfg.capacity as usize + 1,
        })
    }

    /// Builds and explores the **exact joint** within-cycle chain of
    /// `num_planes` identical planes: one (active, spares) place pair and
    /// one failure activity per plane, classified by the *total* active
    /// count. The state space is the `num_planes`-fold product of the
    /// single-plane chain (7ⁿ states at the paper's 14 + 2 design), so this
    /// is only feasible for a handful of planes — it exists as the ground
    /// truth the product-form decomposition ([`product_form_pk`]) is
    /// cross-checked against.
    ///
    /// # Errors
    ///
    /// Propagates CTMC exploration failures (state budget).
    ///
    /// # Panics
    ///
    /// Panics if `num_planes == 0`, or unless the policy is
    /// [`SparePolicy::PinAtThreshold`] (as [`Self::capacity_solve`]).
    pub fn joint_capacity_solve(
        &self,
        num_planes: usize,
        max_states: usize,
    ) -> Result<CapacitySolve, CtmcError> {
        self.validate();
        assert!(num_planes > 0, "need at least one plane");
        assert!(
            self.policy == SparePolicy::PinAtThreshold,
            "joint_capacity_solve requires the pin-at-threshold policy"
        );
        let cfg = *self;
        let mut b = SanBuilder::new();
        let mut actives = Vec::with_capacity(num_planes);
        for p in 0..num_planes {
            let active = b.add_place(format!("active_{p}"), cfg.capacity);
            let spares = b.add_place(format!("spares_{p}"), cfg.spares);
            actives.push(active);
            let lambda = cfg.lambda;
            b.add_activity(
                format!("satellite_failure_{p}"),
                Delay::exponential_with(move |m: &Marking| lambda * f64::from(m.tokens(active))),
                move |m: &Marking| {
                    m.tokens(active) > 0 && (m.tokens(spares) > 0 || m.tokens(active) > cfg.eta)
                },
                move |m: &mut Marking| {
                    if m.tokens(spares) > 0 {
                        m.remove_tokens(spares, 1);
                    } else {
                        m.remove_tokens(active, 1);
                    }
                },
            );
        }
        let ctmc = Ctmc::explore(&b.build(), max_states)?;
        Ok(CapacitySolve {
            ctmc,
            actives,
            classes: num_planes * cfg.capacity as usize + 1,
        })
    }
}

/// A reusable capacity solve: the explored within-cycle CTMC of one plane
/// (see [`PlaneModelConfig::capacity_solve`]) or of a small joint group of
/// planes ([`PlaneModelConfig::joint_capacity_solve`], classified by total
/// active count). Holds no closures over external state, so it is
/// `Send + Sync` and can back a multi-threaded serving layer; one solve
/// answers `P(k)` for any horizon φ.
#[derive(Debug)]
pub struct CapacitySolve {
    ctmc: Ctmc,
    actives: Vec<PlaceId>,
    classes: usize,
}

impl CapacitySolve {
    /// Number of reachable within-cycle states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.ctmc.num_states()
    }

    /// The underlying within-cycle CTMC.
    #[must_use]
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// The capacity distribution `P(K = k)`, `k = 0..=capacity`, for a
    /// regeneration cycle of length `phi` hours: the exact regeneration-cycle
    /// integral, by the interval form of uniformization over the sparse
    /// kernel (see [`crate::solver::TransientKernel::time_average_many`]).
    ///
    /// # Errors
    ///
    /// Rejects a non-finite / non-positive `phi` with a typed
    /// [`CtmcError::Solver`]; propagates solver failures.
    pub fn distribution_over(&self, phi: f64) -> Result<Vec<f64>, CtmcError> {
        let avg = self.ctmc.time_average(phi)?;
        Ok(self.classify(&avg))
    }

    /// Capacity distributions for *many* cycle lengths at once: every φ
    /// rides one shared iterate sequence, so a φ-sweep costs a single
    /// matvec sweep. Each row is bit-identical to the corresponding
    /// [`Self::distribution_over`] call.
    ///
    /// # Errors
    ///
    /// As [`Self::distribution_over`], applied to every φ.
    pub fn distributions_over(&self, phis: &[f64]) -> Result<Vec<Vec<f64>>, CtmcError> {
        let averages = self
            .ctmc
            .kernel()?
            .time_average_many(&self.ctmc.initial_distribution(), phis)?;
        Ok(averages.iter().map(|avg| self.classify(avg)).collect())
    }

    /// Number of capacity classes (`total capacity + 1`).
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.classes
    }

    /// Capacity distributions `P(K(tₛ) = k)` at every Simpson node of
    /// `[0, phi]` — the per-node marginals the product-form assembly
    /// convolves *before* integrating (the convolution is nonlinear in the
    /// per-plane distributions, so it must happen inside the integral).
    ///
    /// # Errors
    ///
    /// As [`Self::distribution_over`].
    fn node_class_distributions(
        &self,
        phi: f64,
        panels: usize,
        tol: f64,
    ) -> Result<Vec<Vec<f64>>, CtmcError> {
        let m = simpson_panels(phi, panels)?;
        let h = phi / m as f64;
        let times: Vec<f64> = (0..=m).map(|s| h * s as f64).collect();
        let rows =
            self.ctmc
                .kernel()?
                .transient_batch(&self.ctmc.initial_distribution(), &times, tol)?;
        Ok(rows.iter().map(|r| self.classify(r)).collect())
    }

    fn classify(&self, avg: &[f64]) -> Vec<f64> {
        self.ctmc.classify_distribution(
            avg,
            |m| {
                self.actives
                    .iter()
                    .map(|&a| m.tokens(a) as usize)
                    .sum::<usize>()
            },
            self.classes,
        )
    }
}

/// Validates `(phi, panels)` and returns the (even) Simpson panel count.
fn simpson_panels(phi: f64, panels: usize) -> Result<usize, CtmcError> {
    if !(phi.is_finite() && phi > 0.0) {
        return Err(CtmcError::Solver(crate::solver::SolverError::InvalidInput(
            format!("bad horizon {phi}"),
        )));
    }
    if panels == 0 {
        return Err(CtmcError::Solver(crate::solver::SolverError::InvalidInput(
            "Simpson quadrature needs at least one panel".to_string(),
        )));
    }
    Ok(panels.max(2).next_multiple_of(2))
}

/// Poisson-series tolerance of the product-form and joint P(k) paths.
///
/// Tighter than the 1e-12 of the time-average kernel: the product and joint
/// paths take *different* uniformization routes (per-plane Λ vs joint Λ),
/// so their truncation errors do not cancel in the cross-check the way two
/// paths over one route would. Solving each transient an order of magnitude
/// past the agreement bar keeps the assembled distributions within 1e-12 of
/// each other.
const PRODUCT_FORM_TOL: f64 = 1e-13;

/// The constellation-level capacity distribution `P(K₁ + … + K_q = k)` over
/// one regeneration cycle, assembled by **per-plane product form**: plane
/// failure processes are mutually independent and restores are synchronized
/// (one shared scheduled-deployment epoch), so at every instant `t` the
/// joint capacity distribution is the convolution of the per-plane
/// marginals, and
///
/// ```text
/// P(K = k) = (1/φ) ∫₀^φ (p₁(t) ∗ … ∗ p_q(t))(k) dt .
/// ```
///
/// Each *distinct* solve's Simpson-node marginals are computed once (one
/// shared-iterate sweep per plane CTMC); repeated references — the
/// homogeneous-constellation case — reuse them, so a 72-plane Starlink
/// shell costs one 7-state solve plus convolutions instead of a 7⁷²-state
/// joint chain. Passing a single [`PlaneModelConfig::joint_capacity_solve`]
/// reference evaluates the exact joint chain under the *same* quadrature,
/// which is how the decomposition is cross-checked at paper scale.
///
/// # Errors
///
/// Rejects an empty `solves` slice, `panels == 0` and non-finite /
/// non-positive `phi` with a typed [`CtmcError::Solver`]; propagates
/// transient-solver failures.
pub fn product_form_pk(
    solves: &[&CapacitySolve],
    phi: f64,
    panels: usize,
) -> Result<Vec<f64>, CtmcError> {
    if solves.is_empty() {
        return Err(CtmcError::Solver(crate::solver::SolverError::InvalidInput(
            "product form needs at least one plane solve".to_string(),
        )));
    }
    let m = simpson_panels(phi, panels)?;
    // One transient sweep per *distinct* solve (pointer identity): the
    // homogeneous case solves its plane CTMC once however many planes ride.
    let mut cache: Vec<(*const CapacitySolve, Vec<Vec<f64>>)> = Vec::new();
    let mut node_rows: Vec<usize> = Vec::with_capacity(solves.len());
    for &solve in solves {
        let key = std::ptr::from_ref(solve);
        let idx = match cache.iter().position(|(k, _)| std::ptr::eq(*k, key)) {
            Some(i) => i,
            None => {
                let rows = solve.node_class_distributions(phi, m, PRODUCT_FORM_TOL)?;
                cache.push((key, rows));
                cache.len() - 1
            }
        };
        node_rows.push(idx);
    }
    let total_classes: usize = solves.iter().map(|s| s.classes - 1).sum::<usize>() + 1;
    let h = phi / m as f64;
    let mut acc = vec![0.0; total_classes];
    for s in 0..=m {
        // Convolve the per-plane marginals at this node, then integrate.
        let mut conv = cache[node_rows[0]].1[s].clone();
        for &idx in &node_rows[1..] {
            conv = convolve(&conv, &cache[idx].1[s]);
        }
        let w = simpson_weight(s, m) * h / 3.0 / phi;
        for (a, x) in acc.iter_mut().zip(&conv) {
            *a += w * x;
        }
    }
    Ok(oaq_linalg::vec_ops::normalize_prob(&acc).unwrap_or(acc))
}

/// Discrete convolution of two probability vectors.
fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

fn simpson_weight(s: usize, m: usize) -> f64 {
    if s == 0 || s == m {
        1.0
    } else if s % 2 == 1 {
        4.0
    } else {
        2.0
    }
}

#[derive(Debug, Clone, Copy)]
enum RestoreClock {
    Deterministic,
    ErlangStages(u32),
}

/// A built plane model with handles to its places.
#[derive(Debug)]
pub struct PlaneModel {
    model: SanModel,
    active: PlaceId,
    spares: PlaceId,
    stage_place: Option<PlaceId>,
    config: PlaneModelConfig,
}

impl PlaneModel {
    /// The underlying SAN.
    #[must_use]
    pub fn san(&self) -> &SanModel {
        &self.model
    }

    /// The configuration the model was built from.
    #[must_use]
    pub fn config(&self) -> &PlaneModelConfig {
        &self.config
    }

    /// The place holding the active-satellite count `k`.
    #[must_use]
    pub fn active_place(&self) -> PlaceId {
        self.active
    }

    /// The place holding the remaining in-orbit spares.
    #[must_use]
    pub fn spares_place(&self) -> PlaceId {
        self.spares
    }

    /// Active capacity `k` in a marking.
    #[must_use]
    pub fn capacity_of(&self, m: &Marking) -> u32 {
        m.tokens(self.active)
    }

    /// Estimates `P(K = k)` for `k = 0..=capacity` by long-run simulation.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent options (see
    /// [`steady_state_distribution`]).
    #[must_use]
    pub fn capacity_distribution_sim(&self, options: &SteadyStateOptions) -> Vec<f64> {
        let active = self.active;
        steady_state_distribution(
            &self.model,
            move |m| m.tokens(active) as usize,
            self.config.capacity as usize + 1,
            options,
        )
    }

    /// Computes `P(K = k)` exactly for the Markov variant.
    ///
    /// # Errors
    ///
    /// Fails on models built with [`PlaneModelConfig::build_sim`] (the
    /// deterministic clock is not Markovian) or if exploration exceeds
    /// `max_states`.
    pub fn capacity_distribution_markov(&self, max_states: usize) -> Result<Vec<f64>, CtmcError> {
        let ctmc = Ctmc::explore(&self.model, max_states)?;
        let pi = ctmc.stationary()?;
        let active = self.active;
        Ok(ctmc.classify_distribution(
            &pi,
            |m| m.tokens(active) as usize,
            self.config.capacity as usize + 1,
        ))
    }

    /// Whether this model has the Erlang stage clock (Markov variant).
    #[must_use]
    pub fn is_markovian(&self) -> bool {
        self.stage_place.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PHI: f64 = 30_000.0;

    fn sim_opts(seed: u64) -> SteadyStateOptions {
        SteadyStateOptions {
            warmup: 5.0 * PHI,
            horizon: 400.0 * PHI,
            seed,
        }
    }

    #[test]
    fn distribution_sums_to_one_and_respects_threshold() {
        let cfg = PlaneModelConfig::reference(5e-5, PHI, 10);
        let dist = cfg.build_sim().capacity_distribution_sim(&sim_opts(1));
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (k, &p) in dist.iter().enumerate().take(10) {
            assert_eq!(p, 0.0, "pinning forbids k={k}");
        }
    }

    #[test]
    fn low_failure_rate_keeps_full_capacity() {
        let cfg = PlaneModelConfig::reference(1e-6, PHI, 10);
        let dist = cfg.build_sim().capacity_distribution_sim(&sim_opts(2));
        assert!(dist[14] > 0.95, "P(14) = {}", dist[14]);
    }

    #[test]
    fn high_failure_rate_pins_at_threshold() {
        let cfg = PlaneModelConfig::reference(1e-4, PHI, 10);
        let dist = cfg.build_sim().capacity_distribution_sim(&sim_opts(3));
        assert!(
            dist[10] > dist[14],
            "threshold should dominate: P(10)={} P(14)={}",
            dist[10],
            dist[14]
        );
        assert!(dist[10] > 0.5, "P(10) = {}", dist[10]);
    }

    #[test]
    fn markov_variant_matches_simulation() {
        let cfg = PlaneModelConfig::reference(5e-5, PHI, 10);
        let sim_dist = cfg.build_sim().capacity_distribution_sim(&sim_opts(4));
        let markov = cfg.build_markov(25);
        assert!(markov.is_markovian());
        let exact = markov.capacity_distribution_markov(50_000).unwrap();
        for k in 10..=14 {
            assert!(
                (sim_dist[k] - exact[k]).abs() < 0.03,
                "k={k}: sim {} vs markov {}",
                sim_dist[k],
                exact[k]
            );
        }
    }

    #[test]
    fn full_restore_policy_allows_below_threshold() {
        let cfg = PlaneModelConfig {
            capacity: 14,
            spares: 2,
            lambda: 2e-4,
            phi: PHI,
            eta: 10,
            policy: SparePolicy::FullRestoreAfterDelay {
                mean_delay_hours: 2000.0,
                erlang_shape: 1,
            },
        };
        let dist = cfg.build_sim().capacity_distribution_sim(&sim_opts(5));
        let below: f64 = dist[..10].iter().sum();
        assert!(below > 0.0, "launch delay exposes k < eta");
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spare_consumption_shields_capacity() {
        // With spares, brief capacity excursions below 14 require 3+
        // failures inside one cycle; compare against a spare-less plane.
        let with_spares = PlaneModelConfig::reference(2e-5, PHI, 10);
        let without = PlaneModelConfig {
            spares: 0,
            ..with_spares
        };
        let d_with = with_spares
            .build_sim()
            .capacity_distribution_sim(&sim_opts(6));
        let d_without = without.build_sim().capacity_distribution_sim(&sim_opts(6));
        assert!(
            d_with[14] > d_without[14] + 0.05,
            "spares must raise P(14): {} vs {}",
            d_with[14],
            d_without[14]
        );
    }

    #[test]
    fn sim_and_markov_reject_mismatched_solvers() {
        let cfg = PlaneModelConfig::reference(5e-5, PHI, 10);
        let sim_model = cfg.build_sim();
        assert!(!sim_model.is_markovian());
        assert!(sim_model.capacity_distribution_markov(10_000).is_err());
    }

    #[test]
    #[should_panic(expected = "threshold must be below capacity")]
    fn invalid_threshold_rejected() {
        let _ = PlaneModelConfig::reference(1e-5, PHI, 14);
    }

    #[test]
    fn capacity_solve_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CapacitySolve>();
        assert_send_sync::<SanModel>();
    }

    #[test]
    fn capacity_solve_reuses_across_horizons() {
        let solve = PlaneModelConfig::reference(5e-5, PHI, 10)
            .capacity_solve(10_000)
            .unwrap();
        // One within-cycle state per (active, spares) reachable pair:
        // (14,2), (14,1), (14,0), then 13..=10 with no spares.
        assert_eq!(solve.num_states(), 7);
        let long = solve.distribution_over(30_000.0).unwrap();
        let short = solve.distribution_over(10_000.0).unwrap();
        for d in [&long, &short] {
            let total: f64 = d.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        assert!(short[14] > long[14], "shorter cycles keep the plane fuller");
    }

    #[test]
    fn capacity_solve_shared_across_threads() {
        let solve = PlaneModelConfig::reference(5e-5, PHI, 10)
            .capacity_solve(10_000)
            .unwrap();
        let baseline = solve.distribution_over(PHI).unwrap();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| solve.distribution_over(PHI).unwrap()))
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), baseline, "solves are bit-identical");
            }
        });
    }

    #[test]
    fn distribution_over_rejects_bad_phi() {
        let solve = PlaneModelConfig::reference(5e-5, PHI, 10)
            .capacity_solve(10_000)
            .unwrap();
        for bad in [
            solve.distribution_over(-PHI),
            solve.distribution_over(f64::NAN),
            solve.distribution_over(0.0),
            solve.distribution_over(f64::INFINITY),
        ] {
            assert!(
                matches!(bad, Err(CtmcError::Solver(_))),
                "typed rejection expected, got {bad:?}"
            );
        }
    }

    #[test]
    fn distributions_over_matches_per_phi_calls_bitwise() {
        let solve = PlaneModelConfig::reference(5e-5, PHI, 10)
            .capacity_solve(10_000)
            .unwrap();
        let phis = [5_000.0, 10_000.0, 30_000.0];
        let rows = solve.distributions_over(&phis).unwrap();
        for (&phi, row) in phis.iter().zip(&rows) {
            assert_eq!(row, &solve.distribution_over(phi).unwrap());
        }
    }

    /// `P(K = c)` in closed form: the plane stays at capacity `c` until
    /// `spares + 1` failures at rate `a = cλ`, so
    /// `P(K = c) = (1/(aφ)) Σ_{j=0..spares} P(Pois(aφ) > j)`.
    fn full_capacity_closed_form(cfg: &PlaneModelConfig) -> f64 {
        let x = f64::from(cfg.capacity) * cfg.lambda * cfg.phi;
        let mut pmf = (-x).exp();
        let mut cdf = 0.0;
        let mut sum = 0.0;
        for j in 0..=cfg.spares {
            if j > 0 {
                pmf *= x / f64::from(j);
            }
            cdf += pmf;
            sum += 1.0 - cdf;
        }
        sum / x
    }

    const ORACLE_LAMBDAS: [f64; 4] = [1e-5, 2e-5, 5e-5, 1e-4];
    const ORACLE_PHIS: [f64; 5] = [3e3, 1e4, 3e4, 1e5, 3e5];

    #[test]
    fn full_capacity_class_matches_closed_form() {
        // An oracle independent of any quadrature: every (λ, φ, η) of the
        // grid, up to Λφ = 420 series terms.
        for lambda in ORACLE_LAMBDAS {
            for phi in ORACLE_PHIS {
                for eta in [8, 10, 12] {
                    let cfg = PlaneModelConfig::reference(lambda, phi, eta);
                    let d = cfg
                        .capacity_solve(10_000)
                        .unwrap()
                        .distribution_over(phi)
                        .unwrap();
                    let expected = full_capacity_closed_form(&cfg);
                    assert!(
                        (d[14] - expected).abs() <= 1e-12,
                        "lambda={lambda}, phi={phi}, eta={eta}: {} vs {expected}",
                        d[14]
                    );
                }
            }
        }
        let at_420 = PlaneModelConfig::reference(1e-4, 3e5, 10);
        assert!((full_capacity_closed_form(&at_420) - 3.0 / 420.0).abs() < 1e-12);
    }

    #[test]
    fn product_form_matches_joint_solve_at_paper_scale() {
        // The decomposition's ground truth: 2 and 3 paper-scale planes,
        // exact joint chain (49 / 343 states) vs per-plane convolution.
        let cfg = PlaneModelConfig::reference(5e-5, PHI, 10);
        let plane = cfg.capacity_solve(10_000).unwrap();
        for planes in [2usize, 3] {
            let joint = cfg.joint_capacity_solve(planes, 10_000).unwrap();
            assert_eq!(joint.num_states(), 7usize.pow(planes as u32));
            assert_eq!(joint.num_classes(), planes * 14 + 1);
            let exact = product_form_pk(&[&joint], PHI, 64).unwrap();
            let refs: Vec<&CapacitySolve> = (0..planes).map(|_| &plane).collect();
            let product = product_form_pk(&refs, PHI, 64).unwrap();
            assert_eq!(product.len(), exact.len());
            for (k, (p, e)) in product.iter().zip(&exact).enumerate() {
                assert!(
                    (p - e).abs() <= 1e-12,
                    "{planes} planes, k={k}: product {p} vs joint {e}"
                );
            }
        }
    }

    #[test]
    fn product_form_single_plane_converges_to_time_average_path() {
        // Two different quadratures of one integral: Simpson on the
        // per-node transients must converge onto the exact interval
        // weights. Its O(h⁴) error needs 32768 panels at Λφ = 420.
        for (lambda, phi, panels, bound) in [
            (1e-5, 3e3, 4096, 1e-11),
            (5e-5, 3e4, 4096, 1e-11),
            (1e-4, 3e4, 4096, 1e-11),
            (1e-4, 3e5, 32768, 2e-12),
        ] {
            let solve = PlaneModelConfig::reference(lambda, phi, 10)
                .capacity_solve(10_000)
                .unwrap();
            let nodewise = product_form_pk(&[&solve], phi, panels).unwrap();
            let exact = solve.distribution_over(phi).unwrap();
            for (k, (a, b)) in nodewise.iter().zip(&exact).enumerate() {
                assert!(
                    (a - b).abs() <= bound,
                    "lambda={lambda}, phi={phi}, k={k}: Simpson {a} vs exact {b}"
                );
            }
        }
    }

    #[test]
    fn product_form_is_proper_and_pinned_above_total_threshold() {
        let cfg = PlaneModelConfig::reference(1e-4, PHI, 10);
        let plane = cfg.capacity_solve(10_000).unwrap();
        let pk = product_form_pk(&[&plane, &plane, &plane, &plane], PHI, 64).unwrap();
        assert_eq!(pk.len(), 4 * 14 + 1);
        let total: f64 = pk.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        for (k, &p) in pk.iter().enumerate().take(4 * 10) {
            assert_eq!(p, 0.0, "pinning forbids total k = {k}");
        }
        assert!(pk[4 * 14] > 0.0);
    }

    #[test]
    fn product_form_rejects_bad_inputs() {
        let solve = PlaneModelConfig::reference(5e-5, PHI, 10)
            .capacity_solve(10_000)
            .unwrap();
        for bad in [
            product_form_pk(&[], PHI, 64),
            product_form_pk(&[&solve], f64::NAN, 64),
            product_form_pk(&[&solve], 0.0, 64),
            product_form_pk(&[&solve], PHI, 0),
        ] {
            assert!(matches!(bad, Err(CtmcError::Solver(_))), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "pin-at-threshold")]
    fn joint_solve_rejects_full_restore_policy() {
        let cfg = PlaneModelConfig {
            policy: SparePolicy::FullRestoreAfterDelay {
                mean_delay_hours: 2000.0,
                erlang_shape: 1,
            },
            ..PlaneModelConfig::reference(1e-5, PHI, 10)
        };
        let _ = cfg.joint_capacity_solve(2, 10_000);
    }

    #[test]
    #[should_panic(expected = "pin-at-threshold")]
    fn capacity_solve_rejects_full_restore_policy() {
        let cfg = PlaneModelConfig {
            policy: SparePolicy::FullRestoreAfterDelay {
                mean_delay_hours: 2000.0,
                erlang_shape: 1,
            },
            ..PlaneModelConfig::reference(1e-5, PHI, 10)
        };
        let _ = cfg.capacity_solve(10_000);
    }
}
