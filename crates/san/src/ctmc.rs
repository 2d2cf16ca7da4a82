//! CTMC extraction from all-exponential SAN models.

use std::collections::HashMap;
use std::sync::OnceLock;

use oaq_linalg::Matrix;

use crate::model::{ActivityId, Delay, Marking, SanModel};
use crate::solver::{self, IterateTable, SolverError, TransientKernel};

/// Errors from state-space exploration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CtmcError {
    /// The model contains a non-exponential timed activity; the CTMC path
    /// cannot represent it (see [`crate::phase_type`]).
    NonMarkovianActivity {
        /// The offending activity's name.
        activity: String,
    },
    /// Exploration exceeded the state budget.
    StateSpaceTooLarge {
        /// The configured limit.
        limit: usize,
    },
    /// A downstream numerical failure.
    Solver(SolverError),
}

impl std::fmt::Display for CtmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtmcError::NonMarkovianActivity { activity } => {
                write!(f, "activity '{activity}' is not exponential")
            }
            CtmcError::StateSpaceTooLarge { limit } => {
                write!(f, "state space exceeds {limit} states")
            }
            CtmcError::Solver(e) => write!(f, "solver failure: {e}"),
        }
    }
}

impl std::error::Error for CtmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtmcError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolverError> for CtmcError {
    fn from(e: SolverError) -> Self {
        CtmcError::Solver(e)
    }
}

/// An explicit continuous-time Markov chain extracted from a SAN.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug)]
pub struct Ctmc {
    states: Vec<Marking>,
    generator: Matrix,
    initial_index: usize,
    /// The sparse uniformization kernel and the table of its iterates from
    /// the initial marking, built on first transient use and shared by
    /// every subsequent solve (and thread).
    table: OnceLock<IterateTable>,
}

impl Ctmc {
    /// Explores the reachable marking space of `model` (breadth-first from
    /// the initial marking) and builds the generator matrix.
    ///
    /// # Errors
    ///
    /// * [`CtmcError::NonMarkovianActivity`] if a reachable marking enables
    ///   a deterministic or Erlang activity.
    /// * [`CtmcError::StateSpaceTooLarge`] past `max_states`.
    pub fn explore(model: &SanModel, max_states: usize) -> Result<Self, CtmcError> {
        let initial = model.initial_marking();
        let mut index: HashMap<Marking, usize> = HashMap::from([(initial.clone(), 0)]);
        let mut states = vec![initial];
        let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
        let mut frontier = vec![0usize];
        while let Some(si) = frontier.pop() {
            let marking = states[si].clone();
            for a in model.enabled_activities(&marking) {
                let rate = Self::activity_rate(model, a, &marking)?;
                let mut next = marking.clone();
                model.fire(a, &mut next);
                let ni = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = states.len();
                        if i >= max_states {
                            return Err(CtmcError::StateSpaceTooLarge { limit: max_states });
                        }
                        index.insert(next.clone(), i);
                        states.push(next);
                        frontier.push(i);
                        i
                    }
                };
                if ni != si {
                    transitions.push((si, ni, rate));
                }
                // Self-loops contribute nothing to the generator.
            }
        }
        let n = states.len();
        let mut q = Matrix::zeros(n.max(1), n.max(1));
        for (i, j, r) in transitions {
            q[(i, j)] += r;
            q[(i, i)] -= r;
        }
        Ok(Ctmc {
            states,
            generator: q,
            initial_index: 0,
            table: OnceLock::new(),
        })
    }

    /// The shared [`TransientKernel`] over this chain's generator, built
    /// once (the generator is immutable, so the CSR form never changes).
    ///
    /// # Errors
    ///
    /// Propagates generator validation failures.
    pub fn kernel(&self) -> Result<&TransientKernel, CtmcError> {
        Ok(self.table()?.kernel())
    }

    /// The kernel with its append-only table of iterates `p₀Pʲ` from the
    /// initial marking, which every transient solve of this chain replays
    /// (bit for bit what a fresh series from `p₀` computes).
    fn table(&self) -> Result<&IterateTable, CtmcError> {
        if let Some(t) = self.table.get() {
            return Ok(t);
        }
        let built = IterateTable::new(
            TransientKernel::new(&self.generator)?,
            self.initial_distribution(),
        );
        // A racing thread may have installed its own copy; both were built
        // from the same generator by the same deterministic code, so which
        // one wins is unobservable.
        Ok(self.table.get_or_init(|| built))
    }

    /// Iterates the table holds now, and at most.
    #[cfg(test)]
    pub(crate) fn table_extent(&self) -> (usize, usize) {
        self.table.get().map_or((0, 0), IterateTable::extent)
    }

    fn activity_rate(
        model: &SanModel,
        activity: ActivityId,
        marking: &Marking,
    ) -> Result<f64, CtmcError> {
        match &model.activities[activity.0].delay {
            Delay::Exponential(rate) => Ok(rate(marking)),
            _ => Err(CtmcError::NonMarkovianActivity {
                activity: model.activity_name(activity).to_string(),
            }),
        }
    }

    /// Number of reachable states.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The marking of state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> &Marking {
        &self.states[i]
    }

    /// The generator matrix `Q`.
    #[must_use]
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// The initial distribution (a point mass on the initial marking).
    #[must_use]
    pub fn initial_distribution(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.states.len()];
        p[self.initial_index] = 1.0;
        p
    }

    /// Stationary distribution over states.
    ///
    /// # Errors
    ///
    /// Propagates solver failures (e.g. reducible chains).
    pub fn stationary(&self) -> Result<Vec<f64>, CtmcError> {
        Ok(solver::stationary_distribution(&self.generator)?)
    }

    /// Transient distribution at time `t`, starting from the initial
    /// marking. Replays the cached iterate table.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn transient(&self, t: f64) -> Result<Vec<f64>, CtmcError> {
        Ok(self.transient_batch(&[t], 1e-12)?.pop().expect("one time"))
    }

    /// Transient distributions at every time in `times`, from the initial
    /// marking, accurate to `tol` (see
    /// [`TransientKernel::transient_batch`]), replayed from the iterate
    /// table. Each entry is bit-identical to the corresponding single-time
    /// call.
    ///
    /// # Errors
    ///
    /// Propagates solver failures; rejects negative or non-finite times
    /// and a `tol` outside `(0, 1)`.
    pub fn transient_batch(&self, times: &[f64], tol: f64) -> Result<Vec<Vec<f64>>, CtmcError> {
        Ok(self.table()?.transient_batch(times, tol)?)
    }

    /// Expected fraction of time in each state over `[0, horizon]`, from the
    /// initial marking: the exact interval form of uniformization (see
    /// [`TransientKernel::time_average_many`]), replayed from the iterate
    /// table.
    ///
    /// # Errors
    ///
    /// * [`SolverError::InvalidInput`] (wrapped in [`CtmcError::Solver`])
    ///   for a non-finite / non-positive horizon, or one whose series
    ///   overflows.
    /// * Propagates other solver failures.
    pub fn time_average(&self, horizon: f64) -> Result<Vec<f64>, CtmcError> {
        Ok(self.table()?.time_average(horizon)?)
    }

    /// Expected instantaneous reward `Σᵢ p[i]·reward(state i)` under a state
    /// distribution `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p.len()` differs from the state count.
    #[must_use]
    pub fn expected_reward(&self, p: &[f64], reward: impl Fn(&Marking) -> f64) -> f64 {
        assert_eq!(p.len(), self.states.len(), "distribution length mismatch");
        p.iter()
            .zip(&self.states)
            .map(|(pi, s)| pi * reward(s))
            .sum()
    }

    /// Aggregates a state distribution into classes via `classify`.
    ///
    /// # Panics
    ///
    /// Panics if `classify` emits a class `>= classes` or `p` has the wrong
    /// length.
    #[must_use]
    pub fn classify_distribution(
        &self,
        p: &[f64],
        classify: impl Fn(&Marking) -> usize,
        classes: usize,
    ) -> Vec<f64> {
        assert_eq!(p.len(), self.states.len(), "distribution length mismatch");
        let mut out = vec![0.0; classes];
        for (pi, s) in p.iter().zip(&self.states) {
            let c = classify(s);
            assert!(c < classes, "class {c} out of range");
            out[c] += pi;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Delay, SanBuilder};

    fn birth_death() -> (SanModel, crate::model::PlaceId) {
        let mut b = SanBuilder::new();
        let n = b.add_place("n", 0);
        b.add_activity(
            "arrive",
            Delay::exponential_rate(1.0),
            move |m| m.tokens(n) < 3,
            move |m| m.add_tokens(n, 1),
        );
        b.add_activity(
            "serve",
            Delay::exponential_with(move |m| 2.0 * f64::from(m.tokens(n).min(1))),
            move |m| m.tokens(n) > 0,
            move |m| m.remove_tokens(n, 1),
        );
        (b.build(), n)
    }

    #[test]
    fn explores_exact_state_count() {
        let (model, _) = birth_death();
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        assert_eq!(ctmc.num_states(), 4);
    }

    #[test]
    fn stationary_matches_closed_form() {
        let (model, n) = birth_death();
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        let pi = ctmc.stationary().unwrap();
        let by_tokens = ctmc.classify_distribution(&pi, |m| m.tokens(n) as usize, 4);
        let expected = [8.0 / 15.0, 4.0 / 15.0, 2.0 / 15.0, 1.0 / 15.0];
        for (p, e) in by_tokens.iter().zip(&expected) {
            assert!((p - e).abs() < 1e-12, "{p} vs {e}");
        }
    }

    #[test]
    fn transient_starts_at_initial() {
        let (model, _) = birth_death();
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        let p = ctmc.transient(0.0).unwrap();
        assert_eq!(p[0], 1.0);
    }

    #[test]
    fn ctmc_agrees_with_simulation() {
        let (model, n) = birth_death();
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        let pi = ctmc.stationary().unwrap();
        let exact = ctmc.classify_distribution(&pi, |m| m.tokens(n) as usize, 4);
        let simulated = crate::sim::steady_state_distribution(
            &model,
            |m| m.tokens(n) as usize,
            4,
            &crate::sim::SteadyStateOptions {
                warmup: 200.0,
                horizon: 50_000.0,
                seed: 17,
            },
        );
        for (e, s) in exact.iter().zip(&simulated) {
            assert!((e - s).abs() < 0.01, "exact {e} vs simulated {s}");
        }
    }

    #[test]
    fn deterministic_activity_rejected() {
        let mut b = SanBuilder::new();
        let p = b.add_place("p", 0);
        b.add_activity(
            "det",
            Delay::deterministic(5.0),
            |_| true,
            move |m| m.add_tokens(p, 1),
        );
        let model = b.build();
        assert!(matches!(
            Ctmc::explore(&model, 10),
            Err(CtmcError::NonMarkovianActivity { .. })
        ));
    }

    #[test]
    fn state_budget_enforced() {
        let mut b = SanBuilder::new();
        let p = b.add_place("p", 0);
        b.add_activity(
            "grow",
            Delay::exponential_rate(1.0),
            |_| true,
            move |m| m.add_tokens(p, 1),
        );
        let model = b.build();
        assert!(matches!(
            Ctmc::explore(&model, 50),
            Err(CtmcError::StateSpaceTooLarge { limit: 50 })
        ));
    }

    #[test]
    fn self_loops_do_not_corrupt_generator() {
        // An activity whose effect is a no-op in some marking.
        let mut b = SanBuilder::new();
        let p = b.add_place("p", 1);
        b.add_activity(
            "toggle_or_nothing",
            Delay::exponential_rate(3.0),
            |_| true,
            move |m| {
                if m.tokens(p) == 1 {
                    m.set_tokens(p, 0);
                } else {
                    m.set_tokens(p, 1);
                }
            },
        );
        let model = b.build();
        let ctmc = Ctmc::explore(&model, 10).unwrap();
        let pi = ctmc.stationary().unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_average_rejects_bad_horizon() {
        let (model, _) = birth_death();
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        for bad in [
            ctmc.time_average(0.0),
            ctmc.time_average(f64::NAN),
            ctmc.time_average(-1.0),
        ] {
            assert!(
                matches!(bad, Err(CtmcError::Solver(SolverError::InvalidInput(_)))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn transient_batch_matches_single_calls_bitwise() {
        let (model, _) = birth_death();
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        let times = [0.0, 0.3, 1.0, 10.0];
        let batch = ctmc.transient_batch(&times, 1e-12).unwrap();
        for (&t, row) in times.iter().zip(&batch) {
            assert_eq!(row, &ctmc.transient(t).unwrap());
        }
    }

    #[test]
    fn expected_reward_weights_states() {
        let (model, n) = birth_death();
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        let pi = ctmc.stationary().unwrap();
        let mean_tokens = ctmc.expected_reward(&pi, |m| f64::from(m.tokens(n)));
        // Σ k π_k = (0·8 + 1·4 + 2·2 + 3·1)/15 = 11/15.
        assert!((mean_tokens - 11.0 / 15.0).abs() < 1e-12);
    }
}
