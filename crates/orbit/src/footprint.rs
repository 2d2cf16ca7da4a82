//! Satellite footprints and coverage time.

use crate::geo::GroundPoint;
use crate::units::{Minutes, Radians};

/// A satellite's coverage cone projected on the earth: every ground point
/// within `half_angle` (earth-central angle) of the sub-satellite point is
/// covered.
///
/// The paper's *coverage time* Tc — the longest time a ground point on the
/// track center line stays inside one footprint — relates the footprint size
/// to the orbit period θ by `Tc = θ · half_angle / π` (the center crosses a
/// diameter of `2·half_angle` at angular rate `2π/θ`). The reference
/// constellation's Tc = 9 min with θ = 90 min corresponds to an 18° central
/// half-angle.
///
/// # Examples
///
/// ```
/// use oaq_orbit::footprint::Footprint;
/// use oaq_orbit::units::Minutes;
///
/// let fp = Footprint::from_coverage_time(Minutes(9.0), Minutes(90.0));
/// assert!((fp.half_angle().to_degrees().value() - 18.0).abs() < 1e-9);
/// assert!((fp.coverage_time(Minutes(90.0)).value() - 9.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    half_angle: Radians,
}

impl Footprint {
    /// Creates a footprint from an earth-central half-angle.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < half_angle < π/2`.
    #[must_use]
    pub fn from_half_angle(half_angle: Radians) -> Self {
        assert!(
            half_angle.value() > 0.0 && half_angle.value() < std::f64::consts::FRAC_PI_2,
            "half angle must be in (0, π/2)"
        );
        Footprint { half_angle }
    }

    /// Creates the footprint whose center-line coverage time is `tc` for an
    /// orbit of period `theta`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tc < theta/2`.
    #[must_use]
    pub fn from_coverage_time(tc: Minutes, theta: Minutes) -> Self {
        assert!(
            tc.value() > 0.0 && tc.value() < theta.value() / 2.0,
            "coverage time must be in (0, θ/2)"
        );
        Footprint::from_half_angle(Radians(std::f64::consts::PI * (tc / theta)))
    }

    /// The earth-central half-angle.
    #[must_use]
    pub fn half_angle(&self) -> Radians {
        self.half_angle
    }

    /// Center-line coverage time for an orbit of period `theta`.
    #[must_use]
    pub fn coverage_time(&self, theta: Minutes) -> Minutes {
        Minutes(theta.value() * self.half_angle.value() / std::f64::consts::PI)
    }

    /// `true` when `target` is inside the footprint centered at `center`.
    #[must_use]
    pub fn covers(&self, center: &GroundPoint, target: &GroundPoint) -> bool {
        center.central_angle(target).value() <= self.half_angle.value() + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Degrees;

    #[test]
    fn reference_footprint_is_18_degrees() {
        let fp = Footprint::from_coverage_time(Minutes(9.0), Minutes(90.0));
        assert!((fp.half_angle().to_degrees().value() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn covers_is_reflexive_and_bounded() {
        let fp = Footprint::from_half_angle(Degrees(10.0).to_radians());
        let c = GroundPoint::from_degrees(Degrees(30.0), Degrees(0.0));
        assert!(fp.covers(&c, &c));
        let inside = GroundPoint::from_degrees(Degrees(39.0), Degrees(0.0));
        let outside = GroundPoint::from_degrees(Degrees(41.0), Degrees(0.0));
        assert!(fp.covers(&c, &inside));
        assert!(!fp.covers(&c, &outside));
    }

    #[test]
    fn coverage_time_scales_with_period() {
        let fp = Footprint::from_half_angle(Degrees(18.0).to_radians());
        assert!((fp.coverage_time(Minutes(180.0)).value() - 18.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "coverage time must be in")]
    fn absurd_coverage_time_rejected() {
        let _ = Footprint::from_coverage_time(Minutes(60.0), Minutes(90.0));
    }
}
