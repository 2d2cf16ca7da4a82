//! Earth-coverage analysis by grid sampling.
//!
//! Reproduces the qualitative geometry claims of the paper's Figure 1
//! discussion: the ratio of overlapped to single coverage is lowest at the
//! equator and rises toward the poles, and at ~30° latitude the track
//! center line is the least-overlapped location.

use crate::constellation::Constellation;
use crate::geo::GroundPoint;
use crate::revisit::{classify, coverage_gap, overlap_fraction, revisit_time, Regime};
use crate::units::{Degrees, Minutes};

/// Per-plane geometric summary of a constellation design: the quantities
/// the analytic QoS stack consumes (`Tr[k]`, `Tc`, regime, overlap
/// fraction), generalized from the paper's 7 × 14 constants to whatever the
/// builder produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignGeometry {
    /// Plane index.
    pub plane: usize,
    /// Active satellites `k` in the plane.
    pub capacity: usize,
    /// Revisit time `Tr[k] = θ/k`.
    pub revisit: Minutes,
    /// Single-satellite coverage time `Tc`.
    pub coverage_time: Minutes,
    /// Overlapping vs underlapping.
    pub regime: Regime,
    /// Fraction of the revisit period with dual center-line coverage.
    pub overlap_fraction: f64,
    /// Center-line gap per revisit period (zero when overlapping).
    pub coverage_gap: Minutes,
}

/// Summarizes every plane of a constellation.
///
/// # Examples
///
/// ```
/// use oaq_orbit::coverage::design_geometry;
/// use oaq_orbit::revisit::Regime;
/// use oaq_orbit::Constellation;
/// let rows = design_geometry(&Constellation::reference());
/// assert_eq!(rows.len(), 7);
/// assert_eq!(rows[0].regime, Regime::Overlapping);
/// assert!((rows[0].overlap_fraction - 0.4).abs() < 1e-12);
/// ```
#[must_use]
pub fn design_geometry(c: &Constellation) -> Vec<DesignGeometry> {
    let tc = c.coverage_time();
    c.planes()
        .map(|plane| {
            let k = plane.active_count().max(1);
            let tr = revisit_time(c.period(), k);
            DesignGeometry {
                plane: plane.index(),
                capacity: plane.active_count(),
                revisit: tr,
                coverage_time: tc,
                regime: classify(tr, tc),
                overlap_fraction: overlap_fraction(tr, tc),
                coverage_gap: coverage_gap(tr, tc),
            }
        })
        .collect()
}

/// Summary of coverage over a latitude circle, averaged over sample times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatitudeBandCoverage {
    /// The sampled latitude.
    pub latitude: Degrees,
    /// Fraction of (point, time) samples covered by at least one satellite.
    pub covered_fraction: f64,
    /// Fraction of (point, time) samples covered by two or more satellites.
    pub overlapped_fraction: f64,
    /// Mean number of covering satellites per sample.
    pub mean_multiplicity: f64,
}

/// Grid-sampling coverage analyzer.
///
/// # Examples
///
/// ```
/// use oaq_orbit::{Constellation, coverage::CoverageAnalysis};
/// let c = Constellation::reference();
/// let cov = CoverageAnalysis::new(36, 8).latitude_band(&c, oaq_orbit::Degrees(30.0));
/// assert!(cov.covered_fraction > 0.95);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CoverageAnalysis {
    longitude_samples: usize,
    time_samples: usize,
}

impl CoverageAnalysis {
    /// Creates an analyzer sampling `longitude_samples` points per latitude
    /// circle at `time_samples` instants spread over one revisit period.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn new(longitude_samples: usize, time_samples: usize) -> Self {
        assert!(
            longitude_samples > 0 && time_samples > 0,
            "sample counts must be positive"
        );
        CoverageAnalysis {
            longitude_samples,
            time_samples,
        }
    }

    /// Analyzes coverage along one latitude circle.
    #[must_use]
    pub fn latitude_band(&self, c: &Constellation, latitude: Degrees) -> LatitudeBandCoverage {
        // Spread sample instants over the densest plane's revisit period so
        // the time average is over one full geometric cycle.
        let max_k = c
            .planes()
            .map(crate::plane::OrbitalPlane::active_count)
            .max()
            .unwrap_or(1)
            .max(1);
        let period = c.period().value() / max_k as f64;
        let mut covered = 0usize;
        let mut overlapped = 0usize;
        let mut multiplicity_sum = 0usize;
        let total = self.longitude_samples * self.time_samples;
        for li in 0..self.longitude_samples {
            let lon = Degrees(360.0 * li as f64 / self.longitude_samples as f64 - 180.0);
            let p = GroundPoint::from_degrees(latitude, lon);
            for ti in 0..self.time_samples {
                let t = Minutes(period * ti as f64 / self.time_samples as f64);
                let m = c.coverage_multiplicity(&p, t);
                multiplicity_sum += m;
                if m >= 1 {
                    covered += 1;
                }
                if m >= 2 {
                    overlapped += 1;
                }
            }
        }
        LatitudeBandCoverage {
            latitude,
            covered_fraction: covered as f64 / total as f64,
            overlapped_fraction: overlapped as f64 / total as f64,
            mean_multiplicity: multiplicity_sum as f64 / total as f64,
        }
    }
}

impl Default for CoverageAnalysis {
    fn default() -> Self {
        CoverageAnalysis::new(72, 12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_rises_toward_poles() {
        let c = Constellation::reference();
        let an = CoverageAnalysis::new(24, 6);
        let eq = an.latitude_band(&c, Degrees(0.0));
        let hi = an.latitude_band(&c, Degrees(75.0));
        assert!(
            hi.overlapped_fraction > eq.overlapped_fraction,
            "poleward overlap {} should exceed equatorial {}",
            hi.overlapped_fraction,
            eq.overlapped_fraction
        );
        assert!(hi.mean_multiplicity > eq.mean_multiplicity);
    }

    #[test]
    fn full_constellation_covers_everything_it_samples() {
        let c = Constellation::reference();
        let an = CoverageAnalysis::new(24, 4);
        for lat in [0.0, 30.0, 55.0] {
            let band = an.latitude_band(&c, Degrees(lat));
            assert!(
                band.covered_fraction > 0.9,
                "lat {lat}: covered fraction {}",
                band.covered_fraction
            );
        }
    }

    #[test]
    fn degraded_plane_reduces_coverage() {
        let mut c = Constellation::reference();
        let an = CoverageAnalysis::new(24, 6);
        let before = an.latitude_band(&c, Degrees(30.0)).mean_multiplicity;
        for p in 0..7 {
            for _ in 0..6 {
                c.plane_mut(p).fail_one();
            }
        }
        let after = an.latitude_band(&c, Degrees(30.0)).mean_multiplicity;
        assert!(after < before, "degradation must reduce multiplicity");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_samples_rejected() {
        let _ = CoverageAnalysis::new(0, 4);
    }

    #[test]
    fn design_geometry_follows_degradation() {
        let mut c = Constellation::reference();
        // First two failures consume the in-orbit spares; six more drop the
        // active complement from 14 to 8.
        for _ in 0..8 {
            c.plane_mut(3).fail_one();
        }
        let rows = design_geometry(&c);
        assert_eq!(rows.len(), 7);
        // Untouched plane: k = 14, overlapping with 40% dual coverage.
        assert_eq!(rows[0].capacity, 14);
        assert_eq!(rows[0].regime, Regime::Overlapping);
        assert!((rows[0].overlap_fraction - 0.4).abs() < 1e-12);
        assert_eq!(rows[0].coverage_gap.value(), 0.0);
        // Degraded plane: k = 8 → Tr = 11.25 ≥ Tc = 9, underlapping.
        assert_eq!(rows[3].capacity, 8);
        assert_eq!(rows[3].regime, Regime::Underlapping);
        assert_eq!(rows[3].overlap_fraction, 0.0);
        assert!((rows[3].coverage_gap.value() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn design_geometry_covers_walker_presets() {
        for preset in crate::constellation::Preset::all() {
            let c = preset.build();
            let rows = design_geometry(&c);
            assert_eq!(rows.len(), c.num_planes(), "{}", preset.name());
            for row in &rows {
                // Every preset is chosen to sit in the overlapping regime at
                // full strength (the analytic model's domain).
                assert_eq!(row.regime, Regime::Overlapping, "{}", preset.name());
                assert!(row.overlap_fraction > 0.0 && row.overlap_fraction <= 1.0);
            }
        }
    }
}
