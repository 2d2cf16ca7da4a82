//! Orbital planes: active satellites, in-orbit spares, failures and the
//! paper's phasing adjustment.

use crate::geo::GroundPoint;
use crate::orbit::CircularOrbit;
use crate::units::{Minutes, Radians};

/// Identifier of a satellite slot within a plane (stable across rephasing;
/// replaced satellites get fresh ids via a generation counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatelliteId {
    /// Plane index within the constellation.
    pub plane: usize,
    /// Unique (per-plane) satellite number, monotone over replacements.
    pub number: u32,
}

/// What happened when a satellite failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureOutcome {
    /// An in-orbit spare was deployed; active capacity is unchanged.
    SpareDeployed,
    /// Spares were exhausted; capacity dropped and survivors rephased.
    CapacityReduced {
        /// Active satellites remaining after the failure.
        remaining: usize,
    },
    /// The plane had no active satellites to fail.
    PlaneEmpty,
}

/// A ring of satellites sharing one orbit.
///
/// Models exactly the failure semantics of the paper's Section 2: each plane
/// starts with `design_capacity` active satellites and `spares` in-orbit
/// spares; a failure consumes a spare if one remains (capacity unchanged),
/// otherwise the plane undergoes a *phasing adjustment* — the `k` survivors
/// redistribute evenly, so the revisit time becomes `Tr[k] = θ / k`.
///
/// # Examples
///
/// ```
/// use oaq_orbit::plane::OrbitalPlane;
/// use oaq_orbit::orbit::CircularOrbit;
/// use oaq_orbit::units::{Degrees, Minutes, Radians};
///
/// let orbit = CircularOrbit::new(Degrees(85.0).to_radians(), Radians(0.0), Minutes(90.0));
/// let mut plane = OrbitalPlane::new(0, orbit, 14, 2);
/// assert!((plane.revisit_time().value() - 90.0 / 14.0).abs() < 1e-12);
/// for _ in 0..6 {
///     plane.fail_one();
/// }
/// // Two failures absorbed by spares, four reduce capacity: k = 10.
/// assert_eq!(plane.active_count(), 10);
/// assert!((plane.revisit_time().value() - 9.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct OrbitalPlane {
    index: usize,
    orbit: CircularOrbit,
    design_capacity: usize,
    satellites: Vec<SatelliteId>,
    spares_remaining: usize,
    next_number: u32,
    phase_reference: Radians,
}

impl OrbitalPlane {
    /// Creates a plane at full capacity.
    ///
    /// # Panics
    ///
    /// Panics if `design_capacity == 0`.
    #[must_use]
    pub fn new(index: usize, orbit: CircularOrbit, design_capacity: usize, spares: usize) -> Self {
        assert!(design_capacity > 0, "a plane needs at least one satellite");
        let satellites = (0..design_capacity as u32)
            .map(|number| SatelliteId {
                plane: index,
                number,
            })
            .collect();
        OrbitalPlane {
            index,
            orbit,
            design_capacity,
            satellites,
            spares_remaining: spares,
            next_number: design_capacity as u32,
            phase_reference: Radians(0.0),
        }
    }

    /// Offsets every satellite's phase (used to stagger planes).
    #[must_use]
    pub fn with_phase_reference(mut self, phase: Radians) -> Self {
        self.phase_reference = phase;
        self
    }

    /// Plane index within the constellation.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shared orbit.
    #[must_use]
    pub fn orbit(&self) -> &CircularOrbit {
        &self.orbit
    }

    /// Number of active satellites `k`.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.satellites.len()
    }

    /// In-orbit spares not yet consumed.
    #[must_use]
    pub fn spares_remaining(&self) -> usize {
        self.spares_remaining
    }

    /// Design (full) active capacity.
    #[must_use]
    pub fn design_capacity(&self) -> usize {
        self.design_capacity
    }

    /// Active satellite ids, in ring order.
    #[must_use]
    pub fn satellites(&self) -> &[SatelliteId] {
        &self.satellites
    }

    /// The revisit time `Tr[k] = θ / k` after phasing adjustment.
    ///
    /// # Panics
    ///
    /// Panics if the plane is empty.
    #[must_use]
    pub fn revisit_time(&self) -> Minutes {
        let k = self.active_count();
        assert!(k > 0, "revisit time undefined for an empty plane");
        Minutes(self.orbit.period().value() / k as f64)
    }

    /// Phase (argument of latitude at `t = 0`) of the satellite at ring
    /// position `pos`, after even redistribution.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    #[must_use]
    pub fn satellite_phase(&self, pos: usize) -> Radians {
        let k = self.active_count();
        assert!(pos < k, "satellite position out of range");
        Radians(self.phase_reference.value() + std::f64::consts::TAU * pos as f64 / k as f64)
            .wrap_two_pi()
    }

    /// Sub-satellite points of all active satellites at time `t`.
    #[must_use]
    pub fn subsatellite_points(&self, t: Minutes) -> Vec<(SatelliteId, GroundPoint)> {
        (0..self.active_count())
            .map(|pos| {
                (
                    self.satellites[pos],
                    self.orbit.subsatellite_point(self.satellite_phase(pos), t),
                )
            })
            .collect()
    }

    /// Fails one satellite: consumes a spare if available, otherwise removes
    /// a satellite (position `victim % k`) and rephases survivors.
    pub fn fail_one_at(&mut self, victim: usize) -> FailureOutcome {
        if self.satellites.is_empty() {
            return FailureOutcome::PlaneEmpty;
        }
        if self.spares_remaining > 0 {
            self.spares_remaining -= 1;
            // The failed unit is replaced in place by the spare; identity of
            // the slot changes but capacity does not.
            let pos = victim % self.satellites.len();
            self.satellites[pos] = SatelliteId {
                plane: self.index,
                number: self.next_number,
            };
            self.next_number += 1;
            return FailureOutcome::SpareDeployed;
        }
        let pos = victim % self.satellites.len();
        self.satellites.remove(pos);
        FailureOutcome::CapacityReduced {
            remaining: self.satellites.len(),
        }
    }

    /// Fails the satellite at ring position 0 (deterministic convenience).
    pub fn fail_one(&mut self) -> FailureOutcome {
        self.fail_one_at(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Degrees;

    fn plane() -> OrbitalPlane {
        let orbit = CircularOrbit::new(Degrees(85.0).to_radians(), Radians(0.0), Minutes(90.0))
            .with_earth_rotation(false);
        OrbitalPlane::new(3, orbit, 14, 2)
    }

    #[test]
    fn spares_absorb_first_failures() {
        let mut p = plane();
        assert_eq!(p.fail_one(), FailureOutcome::SpareDeployed);
        assert_eq!(p.fail_one(), FailureOutcome::SpareDeployed);
        assert_eq!(p.active_count(), 14);
        assert_eq!(p.spares_remaining(), 0);
        assert_eq!(
            p.fail_one(),
            FailureOutcome::CapacityReduced { remaining: 13 }
        );
    }

    #[test]
    fn revisit_time_grows_with_failures() {
        let mut p = plane();
        let t14 = p.revisit_time();
        for _ in 0..3 {
            p.fail_one();
        }
        let t13 = p.revisit_time();
        assert!(t13 > t14);
        assert!((t13.value() - 90.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn phases_stay_even_after_failure() {
        let mut p = plane();
        for _ in 0..5 {
            p.fail_one();
        }
        let k = p.active_count();
        assert_eq!(k, 11);
        let gap = std::f64::consts::TAU / k as f64;
        for pos in 0..k - 1 {
            let d = p.satellite_phase(pos + 1).value() - p.satellite_phase(pos).value();
            assert!((d - gap).abs() < 1e-12);
        }
    }

    #[test]
    fn replacement_ids_are_fresh() {
        let mut p = plane();
        let before: Vec<_> = p.satellites().to_vec();
        p.fail_one_at(5);
        let after = p.satellites();
        assert_ne!(before[5], after[5]);
        assert_eq!(after[5].number, 14);
        assert_eq!(after[5].plane, 3);
    }

    #[test]
    fn subsatellite_points_match_active_count() {
        let p = plane();
        let pts = p.subsatellite_points(Minutes(12.0));
        assert_eq!(pts.len(), 14);
    }

    #[test]
    fn empty_plane_failure_reports() {
        let orbit = CircularOrbit::new(Radians(1.0), Radians(0.0), Minutes(90.0));
        let mut p = OrbitalPlane::new(0, orbit, 1, 0);
        assert_eq!(
            p.fail_one(),
            FailureOutcome::CapacityReduced { remaining: 0 }
        );
        assert_eq!(p.fail_one(), FailureOutcome::PlaneEmpty);
    }
}
