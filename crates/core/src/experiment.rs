//! Monte-Carlo estimation of the conditional QoS distribution.
//!
//! Experiment E9: the empirical `P(Y = y | k)` produced by the *protocol
//! simulation* is compared against the closed-form `oaq-analytic` model —
//! two fully independent derivations of the same quantity (the paper only
//! has the analytic one).

use oaq_sim::par::{Executor, Merge, Replicator};
use oaq_sim::rng::substream_seed;

use crate::config::ProtocolConfig;
use crate::protocol::{Episode, EpisodeScratch};
use crate::qos_level::QosLevel;

/// Monte-Carlo options.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloOptions {
    /// Number of signal episodes.
    pub episodes: usize,
    /// Signal termination rate µ (durations are Exp(µ), minutes).
    pub mu: f64,
    /// Base RNG seed.
    pub seed: u64,
}

/// The empirical conditional QoS distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosEstimate {
    /// `P(Y = y | k)` for `y = 0..=3`.
    pub p: [f64; 4],
    /// Episodes simulated.
    pub episodes: usize,
    /// Fraction of episodes whose alert met the deadline (conditioned on
    /// detection).
    pub timeliness: f64,
    /// Mean crosslink messages per episode.
    pub mean_messages: f64,
    /// Mean alert latency (delivery time − detection-window start) over
    /// detected episodes, minutes. OAQ trades latency for quality — the
    /// imprecise-computation flavor the paper notes in Section 3.3.
    pub mean_alert_latency: f64,
}

impl QosEstimate {
    /// `P(Y ≥ y | k)`.
    ///
    /// # Panics
    ///
    /// Panics if `y > 3`.
    #[must_use]
    pub fn p_at_least(&self, y: usize) -> f64 {
        assert!(y <= 3, "QoS levels are 0..=3");
        self.p[y..].iter().sum()
    }

    /// The 95% Monte-Carlo half-width for a probability estimate `p̂`.
    #[must_use]
    pub fn ci95(&self, p_hat: f64) -> f64 {
        1.96 * (p_hat * (1.0 - p_hat) / self.episodes as f64).sqrt()
    }
}

/// Per-chunk partial sums for the QoS estimator. Integer fields merge
/// exactly; alert latencies are kept per episode (chunks concatenate in
/// ascending replication order under the ordered merge) and summed once,
/// sequentially, at the end — so the float reduction order is independent
/// of both the worker count *and* the chunk size.
#[derive(Debug, Clone, Default)]
struct QosSink {
    counts: [u64; 4],
    timely: u64,
    detected: u64,
    messages: u64,
    latencies: Vec<f64>,
}

impl Merge for QosSink {
    fn merge(&mut self, other: &Self) {
        self.counts.merge(&other.counts);
        self.timely.merge(&other.timely);
        self.detected.merge(&other.detected);
        self.messages.merge(&other.messages);
        self.latencies.merge(&other.latencies);
    }
}

/// Estimates `P(Y = y | k)` by simulating `episodes` independent signals.
///
/// Signal births are uniform over one revisit period (PASTA) and durations
/// exponential with rate `mu`, matching the analytic model's assumptions.
/// Equivalent to [`estimate_conditional_qos_par`] with one worker.
///
/// # Panics
///
/// Panics if `episodes == 0` or `mu <= 0`, or on invalid `cfg`.
#[must_use]
pub fn estimate_conditional_qos(cfg: &ProtocolConfig, opts: &MonteCarloOptions) -> QosEstimate {
    estimate_conditional_qos_par(cfg, opts, 1)
}

/// Estimates `P(Y = y | k)`, fanning episodes out on `exec` (a bare
/// worker count converts; `0` = one per core).
///
/// Episode `i` draws its birth time and duration from the counter-based
/// substream `(opts.seed, i)` and seeds its protocol run from the same
/// substream value (offset by one so the episode's internal stream is
/// decorrelated from the arrival draws). Every tally merges exactly and
/// latencies are summed once in episode order, so the estimate is a pure
/// function of `(cfg, opts)`: no worker count, chunk override or steal
/// schedule changes it.
///
/// # Panics
///
/// Panics if `episodes == 0` or `mu <= 0`, or on invalid `cfg`.
#[must_use]
pub fn estimate_conditional_qos_par(
    cfg: &ProtocolConfig,
    opts: &MonteCarloOptions,
    exec: impl Into<Executor>,
) -> QosEstimate {
    assert!(opts.episodes > 0, "need at least one episode");
    assert!(opts.mu.is_finite() && opts.mu > 0.0, "mu must be positive");
    cfg.validate();
    let sink = Replicator::new(exec).run_scratch(
        opts.episodes as u64,
        opts.seed,
        QosSink::default,
        EpisodeScratch::new,
        |i, rng, scratch, sink| {
            // Offset births away from t = 0 so pre-birth coverage history
            // is well-defined for every satellite.
            let birth = cfg.theta + rng.uniform(0.0, cfg.tr());
            let duration = rng.exp(opts.mu);
            let episode_seed = substream_seed(opts.seed, i).wrapping_add(1);
            let out = Episode::new(cfg, episode_seed).run_scratch(birth, duration, scratch);
            sink.counts[out.level.as_y()] += 1;
            sink.messages += out.messages_sent;
            if out.level > QosLevel::Missed {
                sink.detected += 1;
                if out.deadline_met {
                    sink.timely += 1;
                }
                if let Some(at) = out.delivered_at {
                    sink.latencies.push(at - birth);
                }
            }
        },
    );
    let n = opts.episodes as f64;
    QosEstimate {
        p: [
            sink.counts[0] as f64 / n,
            sink.counts[1] as f64 / n,
            sink.counts[2] as f64 / n,
            sink.counts[3] as f64 / n,
        ],
        episodes: opts.episodes,
        timeliness: if sink.detected == 0 {
            1.0
        } else {
            sink.timely as f64 / sink.detected as f64
        },
        mean_messages: sink.messages as f64 / n,
        mean_alert_latency: if sink.detected == 0 {
            0.0
        } else {
            // Sequential fold in episode order: chunk- and worker-invariant.
            sink.latencies.iter().sum::<f64>() / sink.detected as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn opts(mu: f64, episodes: usize) -> MonteCarloOptions {
        MonteCarloOptions {
            episodes,
            mu,
            seed: 1234,
        }
    }

    #[test]
    fn distribution_is_proper_and_timely() {
        let cfg = ProtocolConfig::reference(10, Scheme::Oaq);
        let est = estimate_conditional_qos(&cfg, &opts(0.2, 2000));
        let total: f64 = est.p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(
            est.timeliness > 0.999,
            "fault-free runs must always meet the deadline, got {}",
            est.timeliness
        );
    }

    #[test]
    fn oaq_beats_baq_in_underlap() {
        let oaq = estimate_conditional_qos(
            &ProtocolConfig::reference(10, Scheme::Oaq),
            &opts(0.2, 3000),
        );
        let baq = estimate_conditional_qos(
            &ProtocolConfig::reference(10, Scheme::Baq),
            &opts(0.2, 3000),
        );
        assert!(
            oaq.p_at_least(2) > 0.25,
            "OAQ P(Y>=2) = {}",
            oaq.p_at_least(2)
        );
        assert_eq!(baq.p[2], 0.0, "BAQ cannot reach sequential dual");
        assert!(oaq.mean_messages > baq.mean_messages);
        assert!(
            oaq.mean_alert_latency > baq.mean_alert_latency,
            "OAQ trades latency for quality: {} vs {}",
            oaq.mean_alert_latency,
            baq.mean_alert_latency
        );
    }

    #[test]
    fn tangent_case_has_no_misses() {
        // k = 10: L2 = 0, no coverage gap.
        let est = estimate_conditional_qos(
            &ProtocolConfig::reference(10, Scheme::Oaq),
            &opts(0.5, 1500),
        );
        assert_eq!(est.p[0], 0.0);
    }

    #[test]
    fn gap_case_misses_some_targets() {
        // k = 9: 1-minute gaps; with µ = 2.0 (30-second signals) some die
        // inside the gap.
        let est =
            estimate_conditional_qos(&ProtocolConfig::reference(9, Scheme::Oaq), &opts(2.0, 1500));
        assert!(est.p[0] > 0.01, "expected misses, got {}", est.p[0]);
    }

    #[test]
    fn estimates_are_reproducible() {
        let cfg = ProtocolConfig::reference(12, Scheme::Oaq);
        let a = estimate_conditional_qos(&cfg, &opts(0.5, 500));
        let b = estimate_conditional_qos(&cfg, &opts(0.5, 500));
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_never_changes_the_estimate() {
        let cfg = ProtocolConfig::reference(9, Scheme::Oaq);
        let serial = estimate_conditional_qos(&cfg, &opts(0.5, 400));
        for workers in [2, 4] {
            let par = estimate_conditional_qos_par(&cfg, &opts(0.5, 400), workers);
            assert_eq!(par, serial, "{workers} workers");
        }
    }

    #[test]
    fn chunk_override_never_changes_the_estimate() {
        let cfg = ProtocolConfig::reference(9, Scheme::Oaq);
        let serial = estimate_conditional_qos(&cfg, &opts(0.5, 400));
        for chunk in [1u64, 13, 400, 10_000] {
            let exec = Executor::new(2).with_chunk(Some(chunk));
            let par = estimate_conditional_qos_par(&cfg, &opts(0.5, 400), exec);
            assert_eq!(par, serial, "chunk {chunk}");
        }
    }

    #[test]
    fn forced_steals_never_change_the_estimate() {
        let cfg = ProtocolConfig::reference(9, Scheme::Oaq);
        let serial = estimate_conditional_qos(&cfg, &opts(0.5, 400));
        for workers in [2, 4] {
            for chunk in [None, Some(16u64), Some(7)] {
                let exec = Executor::new(workers)
                    .with_chunk(chunk)
                    .with_forced_steals(true);
                let stressed = estimate_conditional_qos_par(&cfg, &opts(0.5, 400), exec);
                assert_eq!(stressed, serial, "{workers} workers, chunk {chunk:?}");
            }
        }
    }

    #[test]
    fn ci_shrinks_with_episodes() {
        let cfg = ProtocolConfig::reference(12, Scheme::Oaq);
        let small = estimate_conditional_qos(&cfg, &opts(0.5, 200));
        let large = estimate_conditional_qos(&cfg, &opts(0.5, 2000));
        assert!(large.ci95(0.5) < small.ci95(0.5));
    }
}
