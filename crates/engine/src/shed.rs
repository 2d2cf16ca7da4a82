//! SLO-aware load shedding with hysteresis.
//!
//! The shedder watches the engine's streaming end-to-end p99 latency
//! (the P² estimator in [`crate::metrics`]) against a configured SLO and
//! probabilistically rejects *new non-cached* work while the tail is in
//! breach. Control is a bounded additive-increase / multiplicative-
//! decrease loop with a hysteresis band:
//!
//! * `p99 > slo` — shed probability ramps up additively (fast reaction);
//! * `p99 < recover_fraction · slo` — probability decays multiplicatively
//!   (slow, monotone recovery);
//! * in between — the probability holds, so the shedder does not flap at
//!   the boundary.
//!
//! The accept/shed coin is a counter-indexed SplitMix64 draw
//! ([`oaq_sim::SimRng::substream`]), so a given engine run sheds the same
//! submission indices for the same latency history — no wall-clock
//! entropy enters the decision itself.

use oaq_sim::SimRng;
use parking_lot::Mutex;

/// Shedder tuning. `Default` disables shedding (`slo_p99_s = ∞`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPolicy {
    /// The end-to-end p99 target, seconds. `f64::INFINITY` disables the
    /// shedder entirely.
    pub slo_p99_s: f64,
    /// Additive step the shed probability gains per breaching submission.
    pub ramp: f64,
    /// Multiplicative factor applied per recovered submission.
    pub decay: f64,
    /// Recovery threshold as a fraction of the SLO: decay only starts
    /// once `p99 < recover_fraction · slo` (the hysteresis band).
    pub recover_fraction: f64,
    /// Upper bound on the shed probability — some work always gets
    /// through, so the p99 estimate keeps refreshing.
    pub max_probability: f64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            slo_p99_s: f64::INFINITY,
            ramp: 0.02,
            decay: 0.95,
            recover_fraction: 0.8,
            max_probability: 0.9,
        }
    }
}

impl ShedPolicy {
    /// A policy shedding against `slo_p99_s` with the default loop gains.
    #[must_use]
    pub fn with_slo(slo_p99_s: f64) -> Self {
        ShedPolicy {
            slo_p99_s,
            ..ShedPolicy::default()
        }
    }

    /// Whether the shedder can ever reject.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.slo_p99_s.is_finite()
    }
}

#[derive(Debug)]
struct ShedState {
    probability: f64,
    tick: u64,
}

/// The hysteretic shedder. One per engine; consulted on every
/// cache-missing submission.
#[derive(Debug)]
pub(crate) struct Shedder {
    policy: ShedPolicy,
    seed: u64,
    state: Mutex<ShedState>,
}

impl Shedder {
    pub(crate) fn new(policy: ShedPolicy, seed: u64) -> Self {
        Shedder {
            policy,
            seed,
            state: Mutex::new(ShedState {
                probability: 0.0,
                tick: 0,
            }),
        }
    }

    /// Updates the control loop with the current p99 estimate and decides
    /// whether to shed this submission. `None` (fewer than five
    /// observations) never sheds — the engine must not reject on garbage
    /// estimates.
    pub(crate) fn should_shed(&self, p99_s: Option<f64>) -> bool {
        if !self.policy.is_enabled() {
            return false;
        }
        let mut state = self.state.lock();
        state.tick += 1;
        match p99_s {
            Some(p99) if p99 > self.policy.slo_p99_s => {
                state.probability =
                    (state.probability + self.policy.ramp).min(self.policy.max_probability);
            }
            Some(p99) if p99 < self.policy.recover_fraction * self.policy.slo_p99_s => {
                state.probability *= self.policy.decay;
                if state.probability < 1e-3 {
                    state.probability = 0.0;
                }
            }
            // Inside the hysteresis band (or no estimate yet): hold.
            _ => {}
        }
        if state.probability <= 0.0 {
            return false;
        }
        let mut coin = SimRng::substream(self.seed, state.tick);
        coin.unit() < state.probability
    }

    /// Whether this shedder can ever reject — when not, admission skips
    /// reading the p99 estimate (and the metrics lock behind it).
    pub(crate) fn is_enabled(&self) -> bool {
        self.policy.is_enabled()
    }

    /// The current shed probability (a gauge for metrics snapshots).
    pub(crate) fn probability(&self) -> f64 {
        self.state.lock().probability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shedder(slo: f64) -> Shedder {
        Shedder::new(ShedPolicy::with_slo(slo), 42)
    }

    #[test]
    fn disabled_policy_never_sheds() {
        let s = Shedder::new(ShedPolicy::default(), 1);
        for _ in 0..1000 {
            assert!(!s.should_shed(Some(1e9)));
        }
        assert_eq!(s.probability(), 0.0);
    }

    #[test]
    fn no_estimate_never_sheds() {
        let s = shedder(0.010);
        for _ in 0..1000 {
            assert!(!s.should_shed(None), "garbage-free: no p99, no shedding");
        }
    }

    #[test]
    fn breach_ramps_up_and_sheds_a_bounded_fraction() {
        let s = shedder(0.010);
        let shed: usize = (0..2000).filter(|_| s.should_shed(Some(0.050))).count();
        let p = s.probability();
        assert!(p > 0.5, "sustained breach must ramp the probability: {p}");
        assert!(
            p <= ShedPolicy::default().max_probability + 1e-12,
            "probability is capped: {p}"
        );
        assert!(shed > 500, "a breaching engine must actually shed: {shed}");
        assert!(shed < 2000, "the cap keeps some work flowing: {shed}");
    }

    #[test]
    fn recovery_is_hysteretic() {
        let s = shedder(0.010);
        for _ in 0..200 {
            let _ = s.should_shed(Some(0.050));
        }
        let breached = s.probability();
        assert!(breached > 0.5);
        // Inside the band (0.8·slo ≤ p99 ≤ slo): probability must hold.
        for _ in 0..200 {
            let _ = s.should_shed(Some(0.009));
        }
        assert!(
            (s.probability() - breached).abs() < 1e-12,
            "the hysteresis band holds the probability"
        );
        // Well below the band: multiplicative decay back to zero.
        for _ in 0..400 {
            let _ = s.should_shed(Some(0.001));
        }
        assert_eq!(s.probability(), 0.0, "full recovery reaches exactly zero");
        assert!(!s.should_shed(Some(0.001)));
    }

    #[test]
    fn decisions_are_deterministic_per_seed_and_history() {
        let run = |seed: u64| -> Vec<bool> {
            let s = Shedder::new(ShedPolicy::with_slo(0.010), seed);
            (0..500).map(|_| s.should_shed(Some(0.020))).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same history, same sheds");
        assert_ne!(run(7), run(8), "the coin depends on the seed");
    }
}
