//! Link delay and loss models.

use oaq_sim::{SimDuration, SimRng};

/// Validates a per-message loss probability, the single source of truth for
/// every config in the workspace that carries one (`LinkSpec`,
/// `oaq_core::ProtocolConfig`, `oaq_membership::MembershipConfig`).
///
/// Probability 1 is rejected: it would make every send a silent no-op,
/// which is never what a model wants — use a [`crate::fault::FaultPlan`] to
/// kill a node or outage an edge instead.
///
/// # Errors
///
/// Returns [`InvalidLossProbability`] if `p` is not in `[0, 1)` (NaN
/// included).
pub fn validate_loss_probability(p: f64) -> Result<f64, InvalidLossProbability> {
    if (0.0..1.0).contains(&p) {
        Ok(p)
    } else {
        Err(InvalidLossProbability(p))
    }
}

/// A loss probability outside `[0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvalidLossProbability(pub f64);

impl std::fmt::Display for InvalidLossProbability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "loss probability {} not in [0,1)", self.0)
    }
}

impl std::error::Error for InvalidLossProbability {}

/// Parameters of a two-state Gilbert–Elliott bursty-loss channel.
///
/// The channel alternates between a *good* and a *bad* (burst) state, with
/// per-message transition probabilities; each message is then lost with the
/// current state's loss probability. Burst lengths are geometric with mean
/// `1 / exit_burst` messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// P(good → bad) evaluated per message.
    pub enter_burst: f64,
    /// P(bad → good) evaluated per message.
    pub exit_burst: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A convenient burst channel: lossless good state, `loss_bad` in
    /// bursts, with the given per-message entry probability and mean burst
    /// length (messages).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLinkSpec`] when any derived probability is invalid
    /// (see [`GilbertElliott::validate`]).
    pub fn bursts(
        enter_burst: f64,
        mean_burst_len: f64,
        loss_bad: f64,
    ) -> Result<Self, InvalidLinkSpec> {
        if !(mean_burst_len.is_finite() && mean_burst_len >= 1.0) {
            return Err(InvalidLinkSpec(format!(
                "mean burst length must be >= 1, got {mean_burst_len}"
            )));
        }
        let ge = GilbertElliott {
            enter_burst,
            exit_burst: 1.0 / mean_burst_len,
            loss_good: 0.0,
            loss_bad,
        };
        ge.validate()?;
        Ok(ge)
    }

    /// Checks all four probabilities.
    ///
    /// `enter_burst`/`exit_burst`/`loss_bad` live in `[0, 1]`; `loss_good`
    /// in `[0, 1)` (a good state losing everything is a misconfiguration).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLinkSpec`] naming the offending field.
    pub fn validate(&self) -> Result<(), InvalidLinkSpec> {
        let unit = |name: &str, v: f64| {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(InvalidLinkSpec(format!("{name} {v} not in [0,1]")))
            }
        };
        unit("enter_burst", self.enter_burst)?;
        unit("exit_burst", self.exit_burst)?;
        unit("loss_bad", self.loss_bad)?;
        validate_loss_probability(self.loss_good)
            .map_err(|e| InvalidLinkSpec(format!("loss_good: {e}")))?;
        Ok(())
    }

    /// The stationary (long-run) fraction of messages lost.
    #[must_use]
    pub fn stationary_loss(&self) -> f64 {
        let denom = self.enter_burst + self.exit_burst;
        if denom == 0.0 {
            // The chain never leaves its initial good state.
            return self.loss_good;
        }
        let pi_bad = self.enter_burst / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// How a link loses messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Each message is lost independently with probability `p`.
    Iid {
        /// Per-message loss probability.
        p: f64,
    },
    /// Bursty loss from a two-state Markov channel; the chain state lives
    /// per edge in [`LossState`] (a [`LinkSpec`] stays a stateless spec).
    GilbertElliott(GilbertElliott),
}

/// Per-edge channel state for sampling a [`LossModel`].
///
/// For i.i.d. loss this is stateless; for Gilbert–Elliott it carries the
/// current Markov state. One `LossState` per (undirected) edge gives each
/// crosslink its own independent burst process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossState {
    in_burst: bool,
}

impl LossState {
    /// A channel starting in the good state.
    #[must_use]
    pub fn new() -> Self {
        LossState::default()
    }

    /// Samples whether one message is lost, advancing the chain first.
    ///
    /// RNG discipline: i.i.d. mode draws at most once (and not at all when
    /// `p == 0`), identical to the historical `LinkSpec::sample_loss`;
    /// Gilbert–Elliott mode always draws exactly twice (transition, then
    /// loss), so the consumed stream depends only on the number of calls.
    pub fn sample(&mut self, model: &LossModel, rng: &mut SimRng) -> bool {
        match *model {
            LossModel::Iid { p } => p > 0.0 && rng.chance(p),
            LossModel::GilbertElliott(ge) => {
                let flip = if self.in_burst {
                    ge.exit_burst
                } else {
                    ge.enter_burst
                };
                if rng.chance(flip) {
                    self.in_burst = !self.in_burst;
                }
                let p = if self.in_burst {
                    ge.loss_bad
                } else {
                    ge.loss_good
                };
                rng.chance(p)
            }
        }
    }
}

/// Per-hop link behavior: a uniformly distributed delay in
/// `[min_delay, max_delay]` and a loss model (i.i.d. or bursty).
///
/// The paper's protocol analysis depends only on δ, the *maximum*
/// inter-satellite message-delivery delay (it appears in TC-2's local
/// threshold `τ − (nδ + Tg)`), so the delay distribution is bounded by
/// construction and [`LinkSpec::max_delay`] is exactly that δ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    min_delay: f64,
    max_delay: f64,
    loss: LossModel,
}

/// Error constructing a [`LinkSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidLinkSpec(String);

impl std::fmt::Display for InvalidLinkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid link spec: {}", self.0)
    }
}

impl std::error::Error for InvalidLinkSpec {}

impl LinkSpec {
    /// Creates a lossless link with delay in `[min_delay, max_delay]`
    /// minutes.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLinkSpec`] when `0 ≤ min ≤ max` is violated or the
    /// bounds are non-finite.
    pub fn new(min_delay: f64, max_delay: f64) -> Result<Self, InvalidLinkSpec> {
        if !(min_delay.is_finite() && max_delay.is_finite()) {
            return Err(InvalidLinkSpec("delays must be finite".to_string()));
        }
        if min_delay < 0.0 || min_delay > max_delay {
            return Err(InvalidLinkSpec(format!(
                "need 0 <= min <= max, got [{min_delay}, {max_delay}]"
            )));
        }
        Ok(LinkSpec {
            min_delay,
            max_delay,
            loss: LossModel::Iid { p: 0.0 },
        })
    }

    /// A fixed-delay lossless link.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or non-finite.
    #[must_use]
    pub fn fixed(delay: f64) -> Self {
        LinkSpec::new(delay, delay).expect("fixed delay must be non-negative and finite")
    }

    /// Sets i.i.d. per-message loss with probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLinkSpec`] if `p` is outside `[0, 1)` (see
    /// [`validate_loss_probability`]).
    pub fn with_loss(mut self, p: f64) -> Result<Self, InvalidLinkSpec> {
        let p = validate_loss_probability(p).map_err(|e| InvalidLinkSpec(e.to_string()))?;
        self.loss = LossModel::Iid { p };
        Ok(self)
    }

    /// Sets Gilbert–Elliott bursty loss.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidLinkSpec`] when `ge` fails
    /// [`GilbertElliott::validate`].
    pub fn with_bursty_loss(mut self, ge: GilbertElliott) -> Result<Self, InvalidLinkSpec> {
        ge.validate()?;
        self.loss = LossModel::GilbertElliott(ge);
        Ok(self)
    }

    /// The maximum delay δ this link can impose.
    #[must_use]
    pub fn max_delay(&self) -> SimDuration {
        SimDuration::new(self.max_delay)
    }

    /// The minimum delay.
    #[must_use]
    pub fn min_delay(&self) -> SimDuration {
        SimDuration::new(self.min_delay)
    }

    /// The loss model.
    #[must_use]
    pub fn loss_model(&self) -> &LossModel {
        &self.loss
    }

    /// Samples one message delay.
    pub fn sample_delay(&self, rng: &mut SimRng) -> SimDuration {
        if self.min_delay == self.max_delay {
            return SimDuration::new(self.min_delay);
        }
        SimDuration::new(rng.uniform(self.min_delay, self.max_delay))
    }

    /// Samples whether one message is lost on a *stateless* channel.
    ///
    /// Exact historical behavior for i.i.d. loss. For a bursty link this
    /// uses a throwaway good-state [`LossState`]; channels that must
    /// remember burst state across messages (i.e. every edge of a
    /// [`crate::Network`]) sample through a persistent `LossState` instead.
    pub fn sample_loss(&self, rng: &mut SimRng) -> bool {
        LossState::new().sample(&self.loss, rng)
    }
}

impl Default for LinkSpec {
    /// A lossless link with delay uniform in `[0.02, 0.10]` minutes
    /// (1.2–6 s), a plausible crosslink store-and-forward budget; its
    /// `max_delay` is the δ = 0.1 min used throughout the workspace's
    /// default protocol configuration.
    fn default() -> Self {
        LinkSpec::new(0.02, 0.10).expect("default bounds are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_respect_bounds() {
        let spec = LinkSpec::new(0.05, 0.2).unwrap();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let d = spec.sample_delay(&mut rng).as_minutes();
            assert!((0.05..=0.2).contains(&d));
        }
    }

    #[test]
    fn fixed_delay_is_deterministic() {
        let spec = LinkSpec::fixed(0.1);
        let mut rng = SimRng::seed_from(2);
        assert_eq!(spec.sample_delay(&mut rng).as_minutes(), 0.1);
        assert_eq!(spec.max_delay().as_minutes(), 0.1);
    }

    #[test]
    fn loss_rate_is_respected() {
        let spec = LinkSpec::fixed(0.1).with_loss(0.3).unwrap();
        let mut rng = SimRng::seed_from(3);
        let lost = (0..10_000).filter(|_| spec.sample_loss(&mut rng)).count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn lossless_never_drops() {
        let spec = LinkSpec::fixed(0.1);
        let mut rng = SimRng::seed_from(4);
        assert!((0..100).all(|_| !spec.sample_loss(&mut rng)));
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(LinkSpec::new(-0.1, 0.2).is_err());
        assert!(LinkSpec::new(0.3, 0.2).is_err());
        assert!(LinkSpec::new(0.0, f64::NAN).is_err());
        assert!(LinkSpec::fixed(0.1).with_loss(1.0).is_err());
        assert!(LinkSpec::fixed(0.1).with_loss(-0.1).is_err());
    }

    #[test]
    fn error_display() {
        let e = LinkSpec::new(2.0, 1.0).unwrap_err();
        assert!(e.to_string().contains("invalid link spec"));
    }

    #[test]
    fn loss_probability_validator_is_shared() {
        assert_eq!(validate_loss_probability(0.0), Ok(0.0));
        assert_eq!(validate_loss_probability(0.999), Ok(0.999));
        assert!(validate_loss_probability(1.0).is_err());
        assert!(validate_loss_probability(-0.01).is_err());
        assert!(validate_loss_probability(f64::NAN).is_err());
        let msg = validate_loss_probability(1.5).unwrap_err().to_string();
        assert!(msg.contains("not in [0,1)"), "{msg}");
    }

    #[test]
    fn gilbert_elliott_losses_cluster_in_bursts() {
        // Rare long bursts that drop everything: losses must be far more
        // correlated with the previous message's fate than i.i.d. loss at
        // the same marginal rate.
        let ge = GilbertElliott::bursts(0.02, 20.0, 1.0).unwrap();
        let spec = LinkSpec::fixed(0.1).with_bursty_loss(ge).unwrap();
        let mut state = LossState::new();
        let mut rng = SimRng::seed_from(5);
        let outcomes: Vec<bool> = (0..20_000)
            .map(|_| state.sample(spec.loss_model(), &mut rng))
            .collect();
        let rate = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        let expected = ge.stationary_loss();
        assert!((rate - expected).abs() < 0.05, "rate {rate} vs {expected}");
        // P(lost | previous lost) >> marginal rate.
        let mut after_loss = 0usize;
        let mut after_loss_lost = 0usize;
        for w in outcomes.windows(2) {
            if w[0] {
                after_loss += 1;
                if w[1] {
                    after_loss_lost += 1;
                }
            }
        }
        let cond = after_loss_lost as f64 / after_loss as f64;
        assert!(cond > 2.0 * rate, "cond {cond} vs marginal {rate}");
    }

    #[test]
    fn gilbert_elliott_stationary_loss() {
        let ge = GilbertElliott {
            enter_burst: 0.1,
            exit_burst: 0.3,
            loss_good: 0.0,
            loss_bad: 0.8,
        };
        // π_bad = 0.1 / 0.4 = 0.25 → marginal 0.2.
        assert!((ge.stationary_loss() - 0.2).abs() < 1e-12);
        assert!(LinkSpec::fixed(0.1).with_bursty_loss(ge).is_ok());
    }

    #[test]
    fn gilbert_elliott_validation() {
        assert!(GilbertElliott::bursts(-0.1, 5.0, 1.0).is_err());
        assert!(GilbertElliott::bursts(0.1, 0.5, 1.0).is_err());
        assert!(GilbertElliott::bursts(0.1, 5.0, 1.5).is_err());
        let bad_good = GilbertElliott {
            enter_burst: 0.1,
            exit_burst: 0.5,
            loss_good: 1.0,
            loss_bad: 1.0,
        };
        assert!(bad_good.validate().is_err());
        assert!(LinkSpec::fixed(0.1).with_bursty_loss(bad_good).is_err());
    }

    #[test]
    fn iid_sampling_draw_discipline_is_stable() {
        // p == 0 must not consume randomness (seed-sensitive callers rely
        // on it), p > 0 consumes exactly one draw per message.
        let lossless = LinkSpec::fixed(0.1);
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        for _ in 0..10 {
            let _ = lossless.sample_loss(&mut a);
        }
        assert_eq!(a.unit(), b.unit());
    }
}
