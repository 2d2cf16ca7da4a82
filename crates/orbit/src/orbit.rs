//! Circular-orbit propagation and ground tracks.

use crate::geo::GroundPoint;
use crate::units::{Minutes, Radians};

/// Sidereal rotation rate of the earth in radians per minute.
pub const EARTH_ROTATION_RATE: f64 = std::f64::consts::TAU / (23.0 * 60.0 + 56.0 + 4.0 / 60.0);

/// A circular orbit described by inclination, RAAN and period, propagated by
/// a phase angle measured from the ascending node.
///
/// The OAQ evaluation needs only sub-satellite ground tracks (footprint
/// centers), so the propagator works directly on the unit sphere; no
/// perturbations are modeled. Earth rotation can be switched off to analyze
/// repeat tracks over a fixed ground location, which is the frame the paper's
/// timing diagrams (Figure 6) are drawn in.
///
/// # Examples
///
/// ```
/// use oaq_orbit::orbit::CircularOrbit;
/// use oaq_orbit::units::{Degrees, Minutes, Radians};
///
/// let orbit = CircularOrbit::new(Degrees(60.0).to_radians(), Radians(0.0), Minutes(90.0))
///     .with_earth_rotation(false);
/// let p = orbit.subsatellite_point(Radians(0.0), Minutes(22.5)); // quarter orbit
/// assert!((p.lat().to_degrees().value() - 60.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircularOrbit {
    inclination: Radians,
    raan: Radians,
    period: Minutes,
    earth_rotation: bool,
}

impl CircularOrbit {
    /// Creates an orbit.
    ///
    /// # Panics
    ///
    /// Panics if the period is not strictly positive or the inclination is
    /// outside `[0, π]`.
    #[must_use]
    pub fn new(inclination: Radians, raan: Radians, period: Minutes) -> Self {
        assert!(
            period.value() > 0.0 && period.is_finite(),
            "period must be positive"
        );
        assert!(
            (0.0..=std::f64::consts::PI + 1e-12).contains(&inclination.value()),
            "inclination out of [0, π]"
        );
        CircularOrbit {
            inclination,
            raan,
            period,
            earth_rotation: true,
        }
    }

    /// Enables or disables earth rotation in the ground-track frame.
    #[must_use]
    pub fn with_earth_rotation(mut self, on: bool) -> Self {
        self.earth_rotation = on;
        self
    }

    /// Orbital period.
    #[must_use]
    pub fn period(&self) -> Minutes {
        self.period
    }

    /// Orbit inclination.
    #[must_use]
    pub fn inclination(&self) -> Radians {
        self.inclination
    }

    /// Right ascension of the ascending node.
    #[must_use]
    pub fn raan(&self) -> Radians {
        self.raan
    }

    /// Mean motion in radians per minute.
    #[must_use]
    pub fn mean_motion(&self) -> f64 {
        std::f64::consts::TAU / self.period.value()
    }

    /// Phase angle (argument of latitude) at time `t` for a satellite with
    /// initial phase `phase0` at `t = 0`.
    #[must_use]
    pub fn phase_at(&self, phase0: Radians, t: Minutes) -> Radians {
        Radians(phase0.value() + self.mean_motion() * t.value()).wrap_two_pi()
    }

    /// Sub-satellite ground point at time `t`.
    #[must_use]
    pub fn subsatellite_point(&self, phase0: Radians, t: Minutes) -> GroundPoint {
        let u = self.phase_at(phase0, t).value();
        let i = self.inclination.value();
        let lat = (i.sin() * u.sin()).clamp(-1.0, 1.0).asin();
        let mut lon = self.raan.value() + (i.cos() * u.sin()).atan2(u.cos());
        if self.earth_rotation {
            lon -= EARTH_ROTATION_RATE * t.value();
        }
        GroundPoint::new(Radians(lat), Radians(lon))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Degrees;

    fn polar_orbit() -> CircularOrbit {
        CircularOrbit::new(Degrees(90.0).to_radians(), Radians(0.0), Minutes(90.0))
            .with_earth_rotation(false)
    }

    #[test]
    fn equatorial_crossing_at_ascending_node() {
        let p = polar_orbit().subsatellite_point(Radians(0.0), Minutes(0.0));
        assert!(p.lat().value().abs() < 1e-12);
        assert!(p.lon().value().abs() < 1e-12);
    }

    #[test]
    fn polar_orbit_reaches_pole() {
        let p = polar_orbit().subsatellite_point(Radians(0.0), Minutes(22.5));
        assert!((p.lat().to_degrees().value() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn period_returns_to_start_without_rotation() {
        let orbit = CircularOrbit::new(Degrees(55.0).to_radians(), Radians(0.3), Minutes(90.0))
            .with_earth_rotation(false);
        let a = orbit.subsatellite_point(Radians(0.7), Minutes(0.0));
        let b = orbit.subsatellite_point(Radians(0.7), Minutes(90.0));
        assert!(a.central_angle(&b).value() < 1e-9);
    }

    #[test]
    fn earth_rotation_shifts_track_west() {
        let orbit = CircularOrbit::new(Degrees(90.0).to_radians(), Radians(0.0), Minutes(90.0));
        let b = orbit.subsatellite_point(Radians(0.0), Minutes(90.0));
        // After one orbit the earth has rotated ~22.56° east, so the track
        // appears shifted west by that amount.
        let expected = -EARTH_ROTATION_RATE * 90.0;
        assert!((b.lon().value() - expected).abs() < 1e-9);
    }

    #[test]
    fn max_latitude_equals_inclination() {
        let orbit = CircularOrbit::new(Degrees(63.4).to_radians(), Radians(0.0), Minutes(90.0))
            .with_earth_rotation(false);
        let max_lat = (0..=720)
            .map(|s| orbit.subsatellite_point(Radians(0.0), Minutes(f64::from(s) / 8.0)))
            .map(|p| p.lat().to_degrees().value())
            .fold(f64::MIN, f64::max);
        assert!((max_lat - 63.4).abs() < 0.01);
    }

    #[test]
    fn phase_wraps() {
        let orbit = polar_orbit();
        let u = orbit.phase_at(Radians(0.0), Minutes(135.0)); // 1.5 orbits
        assert!((u.value() - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = CircularOrbit::new(Radians(0.0), Radians(0.0), Minutes(0.0));
    }
}
