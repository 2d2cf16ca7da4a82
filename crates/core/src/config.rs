//! Protocol configuration.

use oaq_net::link::GilbertElliott;
use oaq_net::{validate_loss_probability, RetryPolicy};
use oaq_sim::SimDuration;

/// The QoS-enhancement scheme to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Opportunity-adaptive QoS enhancement: withhold, coordinate, iterate
    /// within the window of opportunity.
    Oaq,
    /// The basic fault-adaptive baseline: deliver right after the initial
    /// computation; no coordination.
    Baq,
}

/// How the abstract protocol models geolocation accuracy.
///
/// The full estimator lives in `oaq-geoloc` (see [`crate::fullstack`]);
/// for Monte-Carlo protocol studies an abstract per-iteration error model
/// keeps episodes cheap. The defaults reflect the sequential-localization
/// literature's shape: large single-pass ambiguity, strong collapse with a
/// second (offset) pass, best with simultaneous dual coverage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyModel {
    /// Reported 1-σ error after a single-satellite computation, km.
    pub single_pass_km: f64,
    /// Multiplicative error reduction per additional sequential pass.
    pub sequential_factor: f64,
    /// Reported error for a simultaneous dual-coverage result, km.
    pub simultaneous_km: f64,
}

impl Default for AccuracyModel {
    fn default() -> Self {
        AccuracyModel {
            single_pass_km: 50.0,
            sequential_factor: 0.15,
            simultaneous_km: 1.0,
        }
    }
}

impl AccuracyModel {
    /// The reported error for a result built from `chain_length` sequential
    /// passes (or a simultaneous pair).
    ///
    /// # Panics
    ///
    /// Panics if `chain_length == 0` for a non-simultaneous result.
    #[must_use]
    pub fn error_km(&self, chain_length: usize, simultaneous: bool) -> f64 {
        if simultaneous {
            return self.simultaneous_km;
        }
        assert!(chain_length >= 1, "need at least one pass");
        self.single_pass_km * self.sequential_factor.powi(chain_length as i32 - 1)
    }
}

/// Parameters of the membership-assisted recruitment extension (built on
/// `oaq-membership`, the paper's stated follow-on direction).
///
/// When enabled, a coordinating satellite consults its membership view
/// before recruiting: peers whose failure is older than the service's
/// `detection_latency` are known-failed group-wide and are skipped in ring
/// order (reachable thanks to crosslink chords up to `max_skip` positions).
/// The protocol simulator models the service's *converged output*; the
/// service itself — heartbeats, gossip, rehabilitation — lives in the
/// `oaq-membership` crate, whose `detection_bound()` justifies the latency
/// used here (see the umbrella integration tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipHints {
    /// Time (minutes) after a failure by which every survivor knows it.
    pub detection_latency: f64,
    /// Crosslink chord reach: how many ring positions a request can skip.
    pub max_skip: usize,
}

impl Default for MembershipHints {
    fn default() -> Self {
        // A 1-minute heartbeat with 3x suspicion and a half-ring gossip
        // sweep detects well inside ~12 minutes for a 14-satellite plane.
        MembershipHints {
            detection_latency: 12.0,
            max_skip: 3,
        }
    }
}

/// Full parameter set for one protocol scenario (single plane, worst-case
/// center-line target — the situation the paper's analytic model
/// formulates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Active satellites in the plane, `k`.
    pub k: usize,
    /// Orbit period θ, minutes.
    pub theta: f64,
    /// Coverage time Tc, minutes.
    pub tc: f64,
    /// Alert-delivery deadline τ, minutes (measured from initial
    /// detection).
    pub tau: f64,
    /// Iterative-computation completion rate ν (per minute).
    pub nu: f64,
    /// Maximum inter-satellite message delay δ, minutes.
    pub delta: f64,
    /// Crosslink per-message loss probability (`[0, 1)`).
    pub message_loss: f64,
    /// Bursty (Gilbert–Elliott) crosslink loss; when set it replaces the
    /// i.i.d. `message_loss` as the link's loss process.
    pub bursty_loss: Option<GilbertElliott>,
    /// Reliable-delivery retry budget for coordination requests:
    /// retransmissions beyond the first try. `0` = the paper's plain
    /// fire-and-forget send.
    pub retry_budget: u32,
    /// Per-try acknowledgement timeout (minutes) when `retry_budget > 0`.
    /// Should exceed one round trip, i.e. 2δ.
    pub retry_timeout: f64,
    /// Budgeted maximum geolocation computation time Tg, minutes: the
    /// constant in TC-2's local threshold. It is a budget, not a bound:
    /// computation times are sampled Exp(ν) and can exceed it. The by-τ
    /// guarantee needs the detector's own first computation to end by τ,
    /// which nothing here enforces (at ν = 1, τ = 5 it fails in about
    /// 0.6 % of episodes; see `tests/by_tau_boundary.rs`).
    pub tg: f64,
    /// TC-1: stop expanding once the reported error drops below this, km.
    pub error_threshold_km: Option<f64>,
    /// The scheme under evaluation.
    pub scheme: Scheme,
    /// Use the backward-messaging variant (Sn+1 responsible for Sn's
    /// result) instead of the "coordination done" chain.
    pub backward_messaging: bool,
    /// Membership-assisted recruitment (extension; `None` = the paper's
    /// plain protocol).
    pub membership: Option<MembershipHints>,
    /// The abstract accuracy model.
    pub accuracy: AccuracyModel,
}

impl ProtocolConfig {
    /// The paper's evaluation configuration for a plane with `k` active
    /// satellites: θ = 90, Tc = 9, τ = 5, ν = 30, with a crosslink budget
    /// δ = 0.1 min and Tg = 0.5 min, no TC-1 threshold (the analytic model
    /// has none), done-chain messaging.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn reference(k: usize, scheme: Scheme) -> Self {
        let cfg = ProtocolConfig {
            k,
            theta: 90.0,
            tc: 9.0,
            tau: 5.0,
            nu: 30.0,
            delta: 0.1,
            message_loss: 0.0,
            bursty_loss: None,
            retry_budget: 0,
            retry_timeout: 0.25,
            tg: 0.5,
            error_threshold_km: None,
            scheme,
            backward_messaging: false,
            membership: None,
            accuracy: AccuracyModel::default(),
        };
        cfg.validate();
        cfg
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters (zero capacity, non-positive
    /// times, Tc ≥ θ, or δ/Tg budgets that leave TC-2 no room).
    ///
    /// Passing validation does not by itself give the by-τ guarantee: it
    /// checks only `δ_eff + Tg < τ`. The guarantee also needs the
    /// detector's own Exp(ν) computation to end by τ (see [`Self::tg`]).
    pub fn validate(&self) {
        assert!(self.k >= 1, "need at least one satellite");
        assert!(self.theta > 0.0 && self.theta.is_finite(), "bad theta");
        assert!(self.tc > 0.0 && self.tc < self.theta, "need 0 < Tc < theta");
        assert!(self.tau > 0.0 && self.tau.is_finite(), "bad tau");
        assert!(self.nu > 0.0 && self.nu.is_finite(), "bad nu");
        assert!(self.delta >= 0.0 && self.delta.is_finite(), "bad delta");
        validate_loss_probability(self.message_loss)
            .unwrap_or_else(|e| panic!("message_loss: {e}"));
        if let Some(ge) = self.bursty_loss {
            ge.validate().unwrap_or_else(|e| panic!("bursty_loss: {e}"));
        }
        if self.retry_budget > 0 {
            assert!(
                self.retry_timeout > 0.0 && self.retry_timeout.is_finite(),
                "retry_timeout must be positive when retrying"
            );
        }
        assert!(self.tg >= 0.0 && self.tg.is_finite(), "bad Tg");
        assert!(
            self.delta_eff() + self.tg < self.tau,
            "TC-2 budget nδ_eff + Tg must leave room below tau"
        );
        if let Some(e) = self.error_threshold_km {
            assert!(e > 0.0 && e.is_finite(), "bad error threshold");
        }
        if let Some(h) = self.membership {
            assert!(
                h.detection_latency >= 0.0 && h.detection_latency.is_finite(),
                "bad detection latency"
            );
            assert!(h.max_skip >= 1, "chords must reach at least one peer");
        }
    }

    /// Revisit time `Tr[k] = θ/k`.
    #[must_use]
    pub fn tr(&self) -> f64 {
        self.theta / self.k as f64
    }

    /// The reliable-delivery policy implied by `retry_budget` and
    /// `retry_timeout`.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        if self.retry_budget == 0 {
            RetryPolicy::none()
        } else {
            RetryPolicy::new(self.retry_budget, SimDuration::new(self.retry_timeout))
        }
    }

    /// δ_eff: the effective worst-case message delay the termination
    /// conditions must budget for. Without retries this is δ itself; with a
    /// retry budget it is [`RetryPolicy::effective_delay`], and every
    /// occurrence of δ in the paper's TC arithmetic (TC-2's
    /// `τ − (nδ + T_g)`, the wait-timeout `τ − (n−1)δ`) uses this value.
    #[must_use]
    pub fn delta_eff(&self) -> f64 {
        self.retry_policy()
            .effective_delay(SimDuration::new(self.delta))
            .as_minutes()
    }

    /// `true` when adjacent footprints overlap (`Tr[k] < Tc`).
    #[must_use]
    pub fn is_overlapping(&self) -> bool {
        self.tr() < self.tc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_paper_regimes() {
        assert!(ProtocolConfig::reference(14, Scheme::Oaq).is_overlapping());
        assert!(ProtocolConfig::reference(11, Scheme::Oaq).is_overlapping());
        assert!(!ProtocolConfig::reference(10, Scheme::Oaq).is_overlapping());
    }

    #[test]
    fn accuracy_model_shrinks_with_chain() {
        let a = AccuracyModel::default();
        assert!(a.error_km(2, false) < a.error_km(1, false));
        assert!(a.error_km(3, false) < a.error_km(2, false));
        assert!(a.error_km(1, true) < a.error_km(2, false));
        assert_eq!(a.error_km(9, true), a.simultaneous_km);
    }

    #[test]
    #[should_panic(expected = "at least one pass")]
    fn zero_chain_rejected() {
        let _ = AccuracyModel::default().error_km(0, false);
    }

    #[test]
    #[should_panic(expected = "at least one satellite")]
    fn zero_capacity_rejected() {
        let _ = ProtocolConfig::reference(0, Scheme::Oaq);
    }

    #[test]
    #[should_panic(expected = "leave room below tau")]
    fn hopeless_budgets_rejected() {
        let mut cfg = ProtocolConfig::reference(10, Scheme::Oaq);
        cfg.tg = 10.0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "message_loss")]
    fn invalid_loss_rejected_via_shared_validator() {
        let mut cfg = ProtocolConfig::reference(10, Scheme::Oaq);
        cfg.message_loss = 1.0;
        cfg.validate();
    }

    #[test]
    fn delta_eff_folds_retries_into_tc_arithmetic() {
        let mut cfg = ProtocolConfig::reference(12, Scheme::Oaq);
        assert_eq!(cfg.delta_eff(), cfg.delta, "no retries: δ_eff = δ");
        cfg.retry_budget = 3;
        cfg.retry_timeout = 0.25;
        assert!((cfg.delta_eff() - 3.0 * 0.35).abs() < 1e-12);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "leave room below tau")]
    fn retry_budget_exceeding_tau_rejected() {
        // δ_eff = 8 × (0.5 + 0.1) = 4.8; with Tg = 0.5 that overruns τ = 5.
        let mut cfg = ProtocolConfig::reference(12, Scheme::Oaq);
        cfg.retry_budget = 8;
        cfg.retry_timeout = 0.5;
        cfg.validate();
    }
}
