//! Per-satellite protocol state.

use oaq_sim::EventHandle;

/// Where a satellite stands in the current coordination episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SatellitePhase {
    /// Not involved (yet).
    Idle,
    /// Received a coordination request; waiting for its footprint to reach
    /// the target.
    AwaitingArrival,
    /// Performing an accuracy-improvement iteration.
    Computing,
    /// Sent a coordination request upstream; waiting for "coordination
    /// done" until the local timeout `τ − (n−1)δ`.
    WaitingForDone {
        /// Handle of the scheduled timeout (cancelled when "done" arrives).
        timeout: EventHandle,
    },
    /// Released: received "done", timed out, or finalized itself.
    Released,
}

/// The mutable per-satellite record the protocol keeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SatelliteState {
    /// Protocol phase.
    pub phase: SatellitePhase,
    /// Ordinal position in the coordination chain (1 = the detector),
    /// `None` while uninvolved.
    pub chain_pos: Option<usize>,
    /// Who recruited this satellite (the "coordination done" target); the
    /// ring predecessor only when no peers were skipped.
    pub requester: Option<usize>,
    /// Measurement passes accumulated in the result this satellite holds.
    pub passes: usize,
    /// Whether this satellite's own measurement was simultaneous with its
    /// predecessor's (overlapping footprints, signal alive under both).
    pub simultaneous: bool,
    /// Reported error of the result this satellite holds, km.
    pub reported_error_km: Option<f64>,
    /// `true` once the satellite has gone fail-silent.
    pub failed: bool,
}

impl SatelliteState {
    /// A healthy, uninvolved satellite.
    #[must_use]
    pub fn new() -> Self {
        SatelliteState {
            phase: SatellitePhase::Idle,
            chain_pos: None,
            requester: None,
            passes: 0,
            simultaneous: false,
            reported_error_km: None,
            failed: false,
        }
    }

    /// `true` when the satellite can sense, compute and communicate.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        !self.failed
    }

    /// Marks the satellite released (episode over, from its perspective).
    pub fn release(&mut self) {
        self.phase = SatellitePhase::Released;
    }

    /// `true` once released.
    #[must_use]
    pub fn is_released(&self) -> bool {
        matches!(self.phase, SatellitePhase::Released)
    }
}

impl Default for SatelliteState {
    fn default() -> Self {
        SatelliteState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut s = SatelliteState::new();
        assert!(s.is_alive());
        assert!(!s.is_released());
        assert_eq!(s.phase, SatellitePhase::Idle);
        s.chain_pos = Some(1);
        s.release();
        assert!(s.is_released());
    }

    #[test]
    fn failure_flag() {
        let mut s = SatelliteState::new();
        s.failed = true;
        assert!(!s.is_alive());
    }

    #[test]
    fn default_matches_new() {
        let a = SatelliteState::default();
        let b = SatelliteState::new();
        assert_eq!(a.chain_pos, b.chain_pos);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.requester, b.requester);
        assert_eq!(a.phase, b.phase);
    }

    #[test]
    fn release_is_idempotent() {
        let mut s = SatelliteState::new();
        s.release();
        s.release();
        assert!(s.is_released());
    }
}
