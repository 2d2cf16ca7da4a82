//! The application-oriented QoS spectrum (paper Table 1).

/// The quality level of a delivered geolocation result.
///
/// Ordered: comparisons follow the paper's spectrum, so
/// `QosLevel::SequentialDual > QosLevel::Single`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosLevel {
    /// `Y = 0`: the target escaped surveillance entirely.
    Missed,
    /// `Y = 1`: a single-coverage (preliminary) result.
    Single,
    /// `Y = 2`: sequential multiple coverage — two or more satellites
    /// revisited the signal consecutively (OAQ's contribution in the
    /// underlapping regime).
    SequentialDual,
    /// `Y = 3`: simultaneous multiple coverage — the best quality the
    /// constellation can deliver.
    SimultaneousDual,
}

impl QosLevel {
    /// The numeric level `y ∈ {0, 1, 2, 3}`.
    #[must_use]
    pub fn as_y(self) -> usize {
        match self {
            QosLevel::Missed => 0,
            QosLevel::Single => 1,
            QosLevel::SequentialDual => 2,
            QosLevel::SimultaneousDual => 3,
        }
    }
}

impl std::fmt::Display for QosLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QosLevel::Missed => "missed",
            QosLevel::Single => "single",
            QosLevel::SequentialDual => "sequential-dual",
            QosLevel::SimultaneousDual => "simultaneous-dual",
        };
        f.write_str(s)
    }
}

/// Everything recorded about one signal episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeOutcome {
    /// Quality of the best result the ground received by the deadline.
    pub level: QosLevel,
    /// When the (first qualifying) alert reached the ground, minutes from
    /// episode start; `None` when the target was missed.
    pub delivered_at: Option<f64>,
    /// `true` when an alert (of any quality) reached the ground no later
    /// than `t0 + τ` — the protocol's timeliness guarantee. Vacuously true
    /// for missed targets (no detection means no obligation).
    pub deadline_met: bool,
    /// Number of satellites whose measurements contributed to the delivered
    /// result.
    pub chain_length: usize,
    /// Crosslink messages sent during the episode.
    pub messages_sent: u64,
    /// Whether the detecting satellite `S1` had been released (received
    /// "coordination done" or timed out) by the deadline.
    pub s1_released: bool,
    /// The 1-σ error radius reported with the delivered result, km
    /// (from the configured accuracy model).
    pub reported_error_km: Option<f64>,
    /// When the signal was first detected (minutes), `None` for an escaped
    /// target. The protocol's τ deadline runs from this instant.
    pub detected_at: Option<f64>,
    /// The detecting satellite `S1`, `None` for an escaped target.
    pub detector: Option<usize>,
}

impl EpisodeOutcome {
    /// An outcome for a target that escaped surveillance.
    #[must_use]
    pub fn missed() -> Self {
        EpisodeOutcome {
            level: QosLevel::Missed,
            delivered_at: None,
            deadline_met: true,
            chain_length: 0,
            messages_sent: 0,
            s1_released: true,
            reported_error_km: None,
            detected_at: None,
            detector: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_spectrum() {
        assert!(QosLevel::SimultaneousDual > QosLevel::SequentialDual);
        assert!(QosLevel::SequentialDual > QosLevel::Single);
        assert!(QosLevel::Single > QosLevel::Missed);
    }

    #[test]
    fn display_names() {
        assert_eq!(QosLevel::SimultaneousDual.to_string(), "simultaneous-dual");
        assert_eq!(QosLevel::Missed.to_string(), "missed");
    }

    #[test]
    fn missed_outcome_shape() {
        let o = EpisodeOutcome::missed();
        assert_eq!(o.level, QosLevel::Missed);
        assert_eq!(o.delivered_at, None);
        assert_eq!(o.chain_length, 0);
    }
}
