//! The full constellation: a set of orbital planes sharing a footprint model.
//!
//! Designs are described by a parameterized Walker pattern
//! ([`WalkerConfig`]): `planes` evenly-RAAN-spaced orbital planes of
//! `satellites_per_plane` satellites each, with the inter-plane phasing set
//! by the Walker phasing factor `f` — adjacent planes' satellites are
//! offset by `2π·f/T` (T total satellites). A **star** pattern spreads the
//! ascending nodes over half the equator (near-polar seams touching, the
//! paper's reference design and Iridium); a **delta** pattern spreads them
//! over the full equator (inclined shells such as Starlink). Named
//! real-design presets live in [`Preset`].

use std::f64::consts::{PI, TAU};

use crate::footprint::Footprint;
use crate::geo::GroundPoint;
use crate::orbit::CircularOrbit;
use crate::plane::{OrbitalPlane, SatelliteId};
use crate::units::{Degrees, Minutes, Radians};

/// A rejected constellation parameter (mirrors the typed `ParamError`
/// pattern of `oaq-analytic`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ConstellationError {
    /// An integer parameter lies outside its inclusive range.
    IntOutOfRange {
        /// Parameter name (e.g. `"planes"`).
        name: &'static str,
        /// The offending value.
        value: usize,
        /// Inclusive lower bound.
        min: usize,
        /// Inclusive upper bound.
        max: usize,
    },
    /// A duration is NaN, infinite or not strictly positive.
    NonPositive {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The value lies outside its **open** domain interval.
    OutOfOpenRange {
        /// Parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
        /// Exclusive lower bound.
        min: f64,
        /// Exclusive upper bound.
        max: f64,
    },
    /// The coverage time is incompatible with the orbit period (the
    /// footprint geometry needs `0 < Tc < θ/2`).
    CoverageIncompatible {
        /// Single-satellite coverage time, minutes.
        tc: f64,
        /// Orbit period, minutes.
        theta: f64,
    },
}

impl std::fmt::Display for ConstellationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ConstellationError::IntOutOfRange {
                name,
                value,
                min,
                max,
            } => write!(f, "{name} must lie in {min}..={max}, got {value}"),
            ConstellationError::NonPositive { name, value } => {
                write!(f, "{name} must be positive and finite, got {value}")
            }
            ConstellationError::OutOfOpenRange {
                name,
                value,
                min,
                max,
            } => write!(
                f,
                "{name} must lie strictly inside ({min}, {max}), got {value}"
            ),
            ConstellationError::CoverageIncompatible { tc, theta } => {
                write!(f, "coverage time {tc} must lie in (0, {}/2)", theta)
            }
        }
    }
}

impl std::error::Error for ConstellationError {}

/// How the ascending nodes are spread around the equator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WalkerPattern {
    /// RAANs spread over π: near-polar "star" (Iridium, the paper's
    /// reference design). Adjacent planes counter-rotate across the seam.
    Star,
    /// RAANs spread over 2π: inclined "delta" / rosette (Starlink).
    Delta,
}

/// A parameterized Walker constellation `i: T/P/F`.
///
/// # Examples
///
/// ```
/// use oaq_orbit::constellation::{WalkerConfig, WalkerPattern};
/// use oaq_orbit::units::{Degrees, Minutes};
///
/// let c = WalkerConfig {
///     pattern: WalkerPattern::Delta,
///     planes: 6,
///     satellites_per_plane: 11,
///     spares_per_plane: 1,
///     phasing_factor: 2,
///     inclination: Degrees(86.4),
///     period: Minutes(100.4),
///     coverage_time: Minutes(10.0),
///     earth_rotation: false,
/// }
/// .try_build()
/// .unwrap();
/// assert_eq!(c.total_active(), 66);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkerConfig {
    /// Star (RAANs over π) or delta (RAANs over 2π).
    pub pattern: WalkerPattern,
    /// Number of orbital planes `P ≥ 1`.
    pub planes: usize,
    /// Active satellites per plane `S ≥ 1`.
    pub satellites_per_plane: usize,
    /// In-orbit spares per plane.
    pub spares_per_plane: usize,
    /// Walker phasing factor `F ∈ 0..P`: satellites in adjacent planes are
    /// phase-offset by `2π·F/T` with `T = P·S`.
    pub phasing_factor: usize,
    /// Orbit inclination, strictly inside (0°, 180°).
    pub inclination: Degrees,
    /// Orbit period θ.
    pub period: Minutes,
    /// Single-satellite coverage time Tc (sets the footprint size); the
    /// footprint geometry needs `0 < Tc < θ/2`.
    pub coverage_time: Minutes,
    /// Whether ground tracks drift with earth rotation.
    pub earth_rotation: bool,
}

impl WalkerConfig {
    /// Total satellites `T = P·S` (active complement, spares excluded).
    #[must_use]
    pub fn total_satellites(&self) -> usize {
        self.planes * self.satellites_per_plane
    }

    /// Validates every parameter, returning the first violation.
    ///
    /// # Errors
    ///
    /// A typed [`ConstellationError`] naming the offending parameter:
    /// `planes ≥ 1`, `satellites_per_plane ≥ 1`, `phasing_factor < planes`,
    /// inclination strictly inside (0°, 180°), positive finite period, and
    /// a coverage time compatible with the period.
    pub fn validate(&self) -> Result<(), ConstellationError> {
        const MAX_DIMENSION: usize = 10_000;
        let int_in = |name, value, min, max| {
            if (min..=max).contains(&value) {
                Ok(())
            } else {
                Err(ConstellationError::IntOutOfRange {
                    name,
                    value,
                    min,
                    max,
                })
            }
        };
        int_in("planes", self.planes, 1, MAX_DIMENSION)?;
        int_in(
            "satellites_per_plane",
            self.satellites_per_plane,
            1,
            MAX_DIMENSION,
        )?;
        int_in("spares_per_plane", self.spares_per_plane, 0, MAX_DIMENSION)?;
        int_in("phasing_factor", self.phasing_factor, 0, self.planes - 1)?;
        let inc = self.inclination.value();
        if !(inc.is_finite() && inc > 0.0 && inc < 180.0) {
            return Err(ConstellationError::OutOfOpenRange {
                name: "inclination",
                value: inc,
                min: 0.0,
                max: 180.0,
            });
        }
        let theta = self.period.value();
        if !(theta.is_finite() && theta > 0.0) {
            return Err(ConstellationError::NonPositive {
                name: "period",
                value: theta,
            });
        }
        let tc = self.coverage_time.value();
        if !(tc.is_finite() && tc > 0.0 && tc < theta / 2.0) {
            return Err(ConstellationError::CoverageIncompatible { tc, theta });
        }
        Ok(())
    }

    /// Builds the constellation: plane `p` gets RAAN `span·p/P` (span π for
    /// star, 2π for delta) and phase reference `2π·F·p/T`.
    ///
    /// # Errors
    ///
    /// As [`Self::validate`].
    pub fn try_build(&self) -> Result<Constellation, ConstellationError> {
        self.validate()?;
        let footprint = Footprint::from_coverage_time(self.coverage_time, self.period);
        let raan_span = match self.pattern {
            WalkerPattern::Star => PI,
            WalkerPattern::Delta => TAU,
        };
        let total = self.total_satellites();
        let planes = (0..self.planes)
            .map(|p| {
                let raan = Radians(raan_span * p as f64 / self.planes as f64);
                let orbit = CircularOrbit::new(self.inclination.to_radians(), raan, self.period)
                    .with_earth_rotation(self.earth_rotation);
                let stagger = Radians(TAU * (self.phasing_factor * p) as f64 / total as f64);
                OrbitalPlane::new(p, orbit, self.satellites_per_plane, self.spares_per_plane)
                    .with_phase_reference(stagger)
            })
            .collect();
        Ok(Constellation {
            planes,
            footprint,
            period: self.period,
        })
    }
}

/// Named real-design Walker presets.
///
/// The figures are representative public values (plane/satellite counts,
/// inclination, orbit period for the shell altitude); the coverage times
/// are chosen so every reachable capacity stays inside the analytic
/// model's dual-coverage domain (`Tr[k] > Tc/2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// Starlink shell 1: delta, 72 × 22 at 53°, ~550 km (θ ≈ 95.6 min).
    Starlink,
    /// OneWeb: polar star, 18 × 36 at 87.9°, ~1200 km (θ ≈ 109 min).
    OneWeb,
    /// Iridium NEXT: polar star, 6 × 11 at 86.4°, ~780 km (θ ≈ 100.4 min).
    IridiumNext,
    /// Kepler: near-polar star, 7 × 20 at 97.7°, ~575 km (θ ≈ 96 min).
    Kepler,
}

impl Preset {
    /// All presets, in display order.
    #[must_use]
    pub fn all() -> [Preset; 4] {
        [
            Preset::Starlink,
            Preset::OneWeb,
            Preset::IridiumNext,
            Preset::Kepler,
        ]
    }

    /// A short stable identifier (used in reports and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Preset::Starlink => "starlink",
            Preset::OneWeb => "oneweb",
            Preset::IridiumNext => "iridium_next",
            Preset::Kepler => "kepler",
        }
    }

    /// The preset's Walker parameters.
    #[must_use]
    pub fn config(self) -> WalkerConfig {
        match self {
            Preset::Starlink => WalkerConfig {
                pattern: WalkerPattern::Delta,
                planes: 72,
                satellites_per_plane: 22,
                spares_per_plane: 2,
                phasing_factor: 17,
                inclination: Degrees(53.0),
                period: Minutes(95.6),
                coverage_time: Minutes(6.0),
                earth_rotation: false,
            },
            Preset::OneWeb => WalkerConfig {
                pattern: WalkerPattern::Star,
                planes: 18,
                satellites_per_plane: 36,
                spares_per_plane: 2,
                phasing_factor: 1,
                inclination: Degrees(87.9),
                period: Minutes(109.0),
                coverage_time: Minutes(4.5),
                earth_rotation: false,
            },
            Preset::IridiumNext => WalkerConfig {
                pattern: WalkerPattern::Star,
                planes: 6,
                satellites_per_plane: 11,
                spares_per_plane: 1,
                phasing_factor: 1,
                inclination: Degrees(86.4),
                period: Minutes(100.4),
                coverage_time: Minutes(10.0),
                earth_rotation: false,
            },
            Preset::Kepler => WalkerConfig {
                pattern: WalkerPattern::Star,
                planes: 7,
                satellites_per_plane: 20,
                spares_per_plane: 1,
                phasing_factor: 2,
                inclination: Degrees(97.7),
                period: Minutes(96.0),
                coverage_time: Minutes(6.0),
                earth_rotation: false,
            },
        }
    }

    /// Builds the preset constellation.
    ///
    /// # Panics
    ///
    /// Never in practice — every preset configuration validates.
    #[must_use]
    pub fn build(self) -> Constellation {
        self.config()
            .try_build()
            .expect("preset configurations are valid")
    }
}

/// A multi-plane LEO constellation.
///
/// [`Constellation::reference`] builds the paper's JPL RF-geolocation
/// design: 7 planes × (14 active + 2 in-orbit spares), θ = 90 min,
/// Tc = 9 min. Custom designs are built from a [`WalkerConfig`].
///
/// # Examples
///
/// ```
/// use oaq_orbit::Constellation;
/// let c = Constellation::reference();
/// assert_eq!(c.total_active(), 98);
/// assert_eq!(c.total_with_spares(), 112);
/// ```
#[derive(Debug, Clone)]
pub struct Constellation {
    planes: Vec<OrbitalPlane>,
    footprint: Footprint,
    period: Minutes,
}

impl Constellation {
    /// The paper's reference RF-geolocation constellation:
    /// a star pattern of 7 × (14 + 2 spares), F = 1, 85°, θ = 90 min,
    /// Tc = 9 min.
    ///
    /// # Panics
    ///
    /// Never in practice — the reference configuration validates.
    #[must_use]
    pub fn reference() -> Self {
        WalkerConfig {
            pattern: WalkerPattern::Star,
            planes: 7,
            satellites_per_plane: 14,
            spares_per_plane: 2,
            phasing_factor: 1,
            inclination: Degrees(85.0),
            period: Minutes(90.0),
            coverage_time: Minutes(9.0),
            earth_rotation: false,
        }
        .try_build()
        .expect("the reference configuration is valid")
    }

    /// Number of planes.
    #[must_use]
    pub fn num_planes(&self) -> usize {
        self.planes.len()
    }

    /// Immutable access to plane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn plane(&self, i: usize) -> &OrbitalPlane {
        &self.planes[i]
    }

    /// Mutable access to plane `i` (to inject failures / deployments).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn plane_mut(&mut self, i: usize) -> &mut OrbitalPlane {
        &mut self.planes[i]
    }

    /// Iterates over planes.
    pub fn planes(&self) -> impl Iterator<Item = &OrbitalPlane> {
        self.planes.iter()
    }

    /// Total active satellites across planes.
    #[must_use]
    pub fn total_active(&self) -> usize {
        self.planes.iter().map(OrbitalPlane::active_count).sum()
    }

    /// Total satellites including unconsumed in-orbit spares.
    #[must_use]
    pub fn total_with_spares(&self) -> usize {
        self.total_active()
            + self
                .planes
                .iter()
                .map(OrbitalPlane::spares_remaining)
                .sum::<usize>()
    }

    /// The common footprint model.
    #[must_use]
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// The common orbit period θ.
    #[must_use]
    pub fn period(&self) -> Minutes {
        self.period
    }

    /// Single-satellite coverage time Tc.
    #[must_use]
    pub fn coverage_time(&self) -> Minutes {
        self.footprint.coverage_time(self.period)
    }

    /// All satellites whose footprints cover `target` at time `t`.
    #[must_use]
    pub fn covering_satellites(&self, target: &GroundPoint, t: Minutes) -> Vec<SatelliteId> {
        let mut out = Vec::new();
        for plane in &self.planes {
            for (id, center) in plane.subsatellite_points(t) {
                if self.footprint.covers(&center, target) {
                    out.push(id);
                }
            }
        }
        out
    }

    /// Number of distinct satellites covering `target` at `t`.
    #[must_use]
    pub fn coverage_multiplicity(&self, target: &GroundPoint, t: Minutes) -> usize {
        self.covering_satellites(target, t).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Degrees;

    #[test]
    fn reference_matches_paper_parameters() {
        let c = Constellation::reference();
        assert_eq!(c.num_planes(), 7);
        assert_eq!(c.total_active(), 98);
        assert_eq!(c.total_with_spares(), 112);
        assert!((c.coverage_time().value() - 9.0).abs() < 1e-9);
        assert!((c.period().value() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn full_reference_covers_equator_and_midlatitudes() {
        let c = Constellation::reference();
        // Sample points along 0° and 30°N; with 98 active satellites the
        // paper states full earth coverage.
        for lat in [0.0, 30.0, 60.0] {
            for lon_step in 0..24 {
                let p = GroundPoint::from_degrees(Degrees(lat), Degrees(lon_step as f64 * 15.0));
                let mut covered = false;
                // A point may be momentarily uncovered at one instant but the
                // paper's claim is about the constellation sweep; check a few
                // instants within one revisit period.
                for i in 0..8 {
                    let t = Minutes(90.0 / 14.0 * i as f64 / 8.0);
                    if c.coverage_multiplicity(&p, t) >= 1 {
                        covered = true;
                        break;
                    }
                }
                assert!(
                    covered,
                    "point at lat {lat} lon {} never covered",
                    lon_step * 15
                );
            }
        }
    }

    #[test]
    fn high_latitudes_see_more_overlap_than_equator() {
        let c = Constellation::reference();
        let count_at = |lat: f64| -> usize {
            let mut multi = 0;
            for lon_step in 0..36 {
                let p = GroundPoint::from_degrees(Degrees(lat), Degrees(lon_step as f64 * 10.0));
                for i in 0..6 {
                    let t = Minutes(90.0 / 14.0 * i as f64 / 6.0);
                    if c.coverage_multiplicity(&p, t) >= 2 {
                        multi += 1;
                    }
                }
            }
            multi
        };
        assert!(
            count_at(70.0) > count_at(0.0),
            "overlap should concentrate at high latitude"
        );
    }

    #[test]
    fn walker_customization() {
        let c = WalkerConfig {
            planes: 3,
            satellites_per_plane: 5,
            spares_per_plane: 0,
            ..Preset::Kepler.config()
        }
        .try_build()
        .unwrap();
        assert_eq!(c.total_active(), 15);
        assert_eq!(c.total_with_spares(), 15);
    }

    #[test]
    fn presets_have_expected_totals() {
        let expect = [
            (Preset::Starlink, 72, 1584, 1584 + 144),
            (Preset::OneWeb, 18, 648, 648 + 36),
            (Preset::IridiumNext, 6, 66, 66 + 6),
            (Preset::Kepler, 7, 140, 140 + 7),
        ];
        for (preset, planes, active, with_spares) in expect {
            let c = preset.build();
            assert_eq!(c.num_planes(), planes, "{}", preset.name());
            assert_eq!(c.total_active(), active, "{}", preset.name());
            assert_eq!(c.total_with_spares(), with_spares, "{}", preset.name());
            assert_eq!(preset.config().total_satellites(), active);
        }
    }

    #[test]
    fn star_and_delta_raan_spans_differ() {
        let mut cfg = Preset::IridiumNext.config();
        let star = cfg.try_build().unwrap();
        cfg.pattern = WalkerPattern::Delta;
        let delta = cfg.try_build().unwrap();
        let last = cfg.planes - 1;
        let span = |c: &Constellation| c.plane(last).orbit().raan().value();
        assert!((span(&star) - PI * last as f64 / cfg.planes as f64).abs() < 1e-12);
        assert!((span(&delta) - TAU * last as f64 / cfg.planes as f64).abs() < 1e-12);
    }

    #[test]
    fn walker_validation_rejects_each_bad_parameter() {
        let good = Preset::Kepler.config();
        assert!(good.validate().is_ok());

        let mut c = good;
        c.planes = 0;
        assert!(matches!(
            c.validate(),
            Err(ConstellationError::IntOutOfRange { name: "planes", .. })
        ));

        c = good;
        c.satellites_per_plane = 0;
        assert!(matches!(
            c.validate(),
            Err(ConstellationError::IntOutOfRange {
                name: "satellites_per_plane",
                ..
            })
        ));

        c = good;
        c.phasing_factor = c.planes;
        assert!(matches!(
            c.validate(),
            Err(ConstellationError::IntOutOfRange {
                name: "phasing_factor",
                ..
            })
        ));

        for bad_inc in [0.0, 180.0, -10.0, f64::NAN] {
            c = good;
            c.inclination = Degrees(bad_inc);
            assert!(
                matches!(
                    c.validate(),
                    Err(ConstellationError::OutOfOpenRange {
                        name: "inclination",
                        ..
                    })
                ),
                "inclination {bad_inc} accepted"
            );
        }

        c = good;
        c.period = Minutes(0.0);
        assert!(matches!(
            c.validate(),
            Err(ConstellationError::NonPositive { name: "period", .. })
        ));

        c = good;
        c.coverage_time = Minutes(c.period.value());
        assert!(matches!(
            c.validate(),
            Err(ConstellationError::CoverageIncompatible { .. })
        ));
    }

    #[test]
    fn constellation_error_displays_parameter_name() {
        let err = ConstellationError::IntOutOfRange {
            name: "planes",
            value: 0,
            min: 1,
            max: 10_000,
        };
        assert!(err.to_string().contains("planes"));
        let err = ConstellationError::OutOfOpenRange {
            name: "inclination",
            value: 180.0,
            min: 0.0,
            max: 180.0,
        };
        assert!(err.to_string().contains("inclination"));
    }

    #[test]
    fn plane_mut_allows_degradation() {
        let mut c = Constellation::reference();
        for _ in 0..6 {
            c.plane_mut(2).fail_one();
        }
        assert_eq!(c.plane(2).active_count(), 10);
        assert_eq!(c.total_active(), 94);
    }
}
