//! Bridge from real constellation geometry to protocol coverage windows.
//!
//! The analytic model and the Monte-Carlo experiments use the idealized
//! center-line pattern (`CoverageGeometry::new`); this module derives the
//! *actual* coverage windows of a ground target from an `oaq-orbit`
//! constellation — every satellite of every plane whose footprint sweeps
//! the target contributes a window with its true start and duration — so
//! the OAQ protocol can be exercised against the real multi-plane geometry
//! at any latitude.

use oaq_orbit::plane::SatelliteId;
use oaq_orbit::units::Minutes;
use oaq_orbit::{Constellation, GroundPoint};

use crate::signal::CoverageGeometry;

/// A derived scenario: the coverage geometry over one target plus the
/// identity of each participating satellite.
#[derive(Debug, Clone)]
pub struct DerivedScenario {
    /// The protocol-facing coverage geometry (index `i` is satellite
    /// `participants[i]`).
    pub geometry: CoverageGeometry,
    /// Which physical satellite each geometry index corresponds to.
    pub participants: Vec<SatelliteId>,
}

impl DerivedScenario {
    /// Derives the coverage pattern of `target` from the constellation's
    /// actual geometry over one orbital period.
    ///
    /// For each active satellite the footprint coverage of the target is
    /// scanned over `[0, θ)` at `step` resolution and refined by bisection;
    /// satellites that never cover the target are excluded. Satellites
    /// whose single pass wraps the period boundary are handled. Returns
    /// `None` if no satellite ever covers the target (out of constellation
    /// reach).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not in `(0, θ)`.
    #[must_use]
    pub fn from_constellation(
        constellation: &Constellation,
        target: &GroundPoint,
        step: Minutes,
    ) -> Option<Self> {
        let theta = constellation.period().value();
        assert!(
            step.value() > 0.0 && step.value() < theta,
            "step must be in (0, θ)"
        );
        let fp = constellation.footprint();
        let mut windows = Vec::new();
        let mut participants = Vec::new();
        for plane in constellation.planes() {
            for pos in 0..plane.active_count() {
                let id = plane.satellites()[pos];
                let phase = plane.satellite_phase(pos);
                let covered = |t: f64| -> bool {
                    let center = plane
                        .orbit()
                        .subsatellite_point(phase, Minutes(t.rem_euclid(theta)));
                    fp.covers(&center, target)
                };
                if let Some((start, dur)) = single_window(&covered, theta, step.value()) {
                    windows.push((start, dur));
                    participants.push(id);
                }
            }
        }
        if windows.is_empty() {
            return None;
        }
        Some(DerivedScenario {
            geometry: CoverageGeometry::with_windows(windows, theta),
            participants,
        })
    }

    /// Number of satellites participating in the pattern.
    #[must_use]
    pub fn k(&self) -> usize {
        self.participants.len()
    }

    /// The participating satellite for geometry index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn satellite(&self, i: usize) -> SatelliteId {
        self.participants[i]
    }
}

/// Finds the (assumed single, possibly period-wrapping) coverage window of
/// a periodic indicator over `[0, theta)`: returns `(start, duration)`.
fn single_window(covered: &dyn Fn(f64) -> bool, theta: f64, step: f64) -> Option<(f64, f64)> {
    // Locate an uncovered anchor so a wrapping window is seen contiguously.
    let mut anchor = None;
    let mut t = 0.0;
    while t < theta {
        if !covered(t) {
            anchor = Some(t);
            break;
        }
        t += step;
    }
    let anchor = anchor?; // covered at every sample: degenerate, exclude
                          // Scan one full period from the anchor for the rise and fall.
    let mut rise: Option<f64> = None;
    let mut fall: Option<f64> = None;
    let mut prev = anchor;
    let mut prev_cov = false;
    let mut s = step;
    while s <= theta + step {
        let now = anchor + s;
        let cov = covered(now);
        if cov != prev_cov {
            let crossing = refine(covered, prev, now);
            if cov {
                rise = Some(crossing);
            } else {
                fall = Some(crossing);
                break; // single-window assumption: first fall ends it
            }
        }
        prev = now;
        prev_cov = cov;
        s += step;
    }
    let rise = rise?;
    let fall = fall.unwrap_or(anchor + theta); // still covered at wrap end
    let dur = fall - rise;
    if dur <= 0.0 {
        return None;
    }
    Some((rise.rem_euclid(theta), dur.min(theta * 0.999)))
}

fn refine(covered: &dyn Fn(f64) -> bool, mut lo: f64, mut hi: f64) -> f64 {
    let lo_cov = covered(lo);
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if covered(mid) == lo_cov {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProtocolConfig, Scheme};
    use crate::protocol::Episode;
    use crate::qos_level::QosLevel;
    use oaq_orbit::units::{Degrees, Radians};

    fn target_on_plane0() -> GroundPoint {
        // The ascending ground track of plane 0 (RAAN 0, non-rotating
        // earth) crosses 30°N at lon = atan2(cos i · sin u, cos u) with
        // u = asin(sin 30 / sin 85).
        let i = Degrees(85.0).to_radians().value();
        let u = (Degrees(30.0).to_radians().value().sin() / i.sin()).asin();
        let lon = (i.cos() * u.sin()).atan2(u.cos());
        GroundPoint::new(Degrees(30.0).to_radians(), Radians(lon))
    }

    #[test]
    fn reference_constellation_derives_a_rich_pattern() {
        let c = Constellation::reference();
        let scenario = DerivedScenario::from_constellation(&c, &target_on_plane0(), Minutes(0.05))
            .expect("full constellation covers everything");
        // At least plane 0's 14 satellites participate; adjacent planes may
        // add side-lobe windows.
        assert!(scenario.k() >= 14, "only {} participants", scenario.k());
        // Center-line passes last ~Tc = 9 min.
        let max_dur = scenario
            .geometry
            .windows()
            .iter()
            .map(|&(_, d)| d)
            .fold(0.0f64, f64::max);
        assert!((max_dur - 9.0).abs() < 0.2, "longest window {max_dur}");
        // Plane 0 contributes exactly 14 of the participants.
        let plane0 = scenario
            .participants
            .iter()
            .filter(|id| id.plane == 0)
            .count();
        assert_eq!(plane0, 14);
    }

    #[test]
    fn derived_geometry_runs_the_protocol_end_to_end() {
        let c = Constellation::reference();
        let scenario = DerivedScenario::from_constellation(&c, &target_on_plane0(), Minutes(0.05))
            .expect("covered");
        let mut cfg = ProtocolConfig::reference(scenario.k(), Scheme::Oaq);
        cfg.theta = 90.0;
        // A long signal in the real full-constellation pattern must reach
        // simultaneous dual coverage (the pattern is overlap-rich).
        let out = Episode::new(&cfg, 5)
            .with_geometry(scenario.geometry.clone())
            .run(10.0, 60.0);
        assert_eq!(out.level, QosLevel::SimultaneousDual);
        assert!(out.deadline_met);
    }

    #[test]
    fn degraded_plane_weakens_the_derived_pattern() {
        let mut c = Constellation::reference();
        for _ in 0..6 {
            c.plane_mut(0).fail_one();
        }
        let scenario = DerivedScenario::from_constellation(&c, &target_on_plane0(), Minutes(0.05))
            .expect("still covered");
        let plane0 = scenario
            .participants
            .iter()
            .filter(|id| id.plane == 0)
            .count();
        assert_eq!(plane0, 10, "degraded plane contributes its k = 10");
    }

    #[test]
    fn unreachable_target_returns_none() {
        // A single tiny plane with a small footprint cannot cover the far
        // side of the globe... use a 1-plane constellation and a target
        // well off its track.
        let c = oaq_orbit::WalkerConfig {
            pattern: oaq_orbit::WalkerPattern::Star,
            planes: 1,
            satellites_per_plane: 4,
            spares_per_plane: 2,
            phasing_factor: 0,
            inclination: Degrees(10.0),
            period: Minutes(90.0),
            coverage_time: Minutes(2.0),
            earth_rotation: false,
        }
        .try_build()
        .unwrap();
        let target = GroundPoint::from_degrees(Degrees(80.0), Degrees(0.0));
        assert!(DerivedScenario::from_constellation(&c, &target, Minutes(0.05)).is_none());
    }
}
