//! Spherical-earth geodesy.

use crate::units::{Degrees, Km, Radians};

/// Mean earth radius in kilometers (spherical model).
pub const EARTH_RADIUS: Km = Km(6371.0);

/// A point on the earth's surface (geocentric latitude/longitude).
///
/// # Examples
///
/// ```
/// use oaq_orbit::geo::GroundPoint;
/// use oaq_orbit::units::Degrees;
///
/// let la = GroundPoint::from_degrees(Degrees(34.05), Degrees(-118.24));
/// let ny = GroundPoint::from_degrees(Degrees(40.71), Degrees(-74.01));
/// let d = la.great_circle_distance(&ny);
/// assert!((d.value() - 3940.0).abs() < 50.0); // ~3944 km on a sphere
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundPoint {
    lat: Radians,
    lon: Radians,
}

impl GroundPoint {
    /// Creates a point from latitude/longitude in radians.
    ///
    /// Longitude is wrapped into `(-π, π]`.
    ///
    /// # Panics
    ///
    /// Panics if latitude is outside `[-π/2, π/2]` or either value is
    /// non-finite.
    #[must_use]
    pub fn new(lat: Radians, lon: Radians) -> Self {
        assert!(lat.is_finite() && lon.is_finite(), "non-finite coordinate");
        assert!(
            lat.value().abs() <= std::f64::consts::FRAC_PI_2 + 1e-12,
            "latitude out of range: {}",
            lat
        );
        GroundPoint {
            lat,
            lon: lon.wrap_pi(),
        }
    }

    /// Creates a point from degrees.
    #[must_use]
    pub fn from_degrees(lat: Degrees, lon: Degrees) -> Self {
        GroundPoint::new(lat.to_radians(), lon.to_radians())
    }

    /// Latitude in radians.
    #[must_use]
    pub fn lat(&self) -> Radians {
        self.lat
    }

    /// Longitude in radians, in `(-π, π]`.
    #[must_use]
    pub fn lon(&self) -> Radians {
        self.lon
    }

    /// Central angle between two points (haversine, numerically stable for
    /// small separations).
    #[must_use]
    pub fn central_angle(&self, other: &GroundPoint) -> Radians {
        let dlat = (other.lat - self.lat).value();
        let dlon = (other.lon - self.lon).wrap_pi().value();
        let a = (dlat / 2.0).sin().powi(2)
            + self.lat.cos() * other.lat.cos() * (dlon / 2.0).sin().powi(2);
        Radians(2.0 * a.sqrt().min(1.0).asin())
    }

    /// Great-circle surface distance.
    #[must_use]
    pub fn great_circle_distance(&self, other: &GroundPoint) -> Km {
        EARTH_RADIUS * self.central_angle(other).value()
    }

    /// The unit position vector in earth-centered coordinates
    /// (x toward lon 0 on the equator, z toward the north pole).
    #[must_use]
    pub fn unit_vector(&self) -> [f64; 3] {
        [
            self.lat.cos() * self.lon.cos(),
            self.lat.cos() * self.lon.sin(),
            self.lat.sin(),
        ]
    }

    /// Reconstructs a point from a (not necessarily unit) direction vector.
    ///
    /// # Panics
    ///
    /// Panics on the zero vector.
    #[must_use]
    pub fn from_vector(v: [f64; 3]) -> Self {
        let n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        assert!(n > 0.0, "zero direction vector");
        let lat = Radians((v[2] / n).clamp(-1.0, 1.0).asin());
        let lon = Radians(v[1].atan2(v[0]));
        GroundPoint::new(lat, lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn distance_to_self_is_zero() {
        let p = GroundPoint::from_degrees(Degrees(30.0), Degrees(45.0));
        assert_eq!(p.great_circle_distance(&p), Km(0.0));
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = GroundPoint::from_degrees(Degrees(0.0), Degrees(0.0));
        let b = GroundPoint::from_degrees(Degrees(0.0), Degrees(180.0));
        let d = a.great_circle_distance(&b);
        assert!((d.value() - PI * EARTH_RADIUS.value()).abs() < 1e-6);
    }

    #[test]
    fn pole_to_equator_is_quarter_circle() {
        let pole = GroundPoint::new(Radians(FRAC_PI_2), Radians(0.0));
        let eq = GroundPoint::new(Radians(0.0), Radians(2.0));
        assert!((pole.central_angle(&eq).value() - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn unit_vector_roundtrip() {
        for (lat, lon) in [(10.0, 20.0), (-45.0, 170.0), (89.0, -1.0)] {
            let p = GroundPoint::from_degrees(Degrees(lat), Degrees(lon));
            let q = GroundPoint::from_vector(p.unit_vector());
            assert!(p.central_angle(&q).value() < 1e-10);
        }
    }

    #[test]
    fn longitude_wraps() {
        let p = GroundPoint::from_degrees(Degrees(0.0), Degrees(270.0));
        assert!((p.lon().to_degrees().value() + 90.0).abs() < 1e-9);
    }

    #[test]
    fn central_angle_symmetric() {
        let a = GroundPoint::from_degrees(Degrees(12.0), Degrees(34.0));
        let b = GroundPoint::from_degrees(Degrees(-5.0), Degrees(120.0));
        assert!((a.central_angle(&b).value() - b.central_angle(&a).value()).abs() < 1e-14);
    }

    #[test]
    #[should_panic(expected = "latitude out of range")]
    fn invalid_latitude_rejected() {
        let _ = GroundPoint::new(Radians(2.0), Radians(0.0));
    }
}
