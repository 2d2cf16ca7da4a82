//! Property-based tests of geodesy and constellation geometry invariants.

use std::f64::consts::TAU;

use oaq_orbit::constellation::{WalkerConfig, WalkerPattern};
use oaq_orbit::footprint::Footprint;
use oaq_orbit::geo::GroundPoint;
use oaq_orbit::orbit::CircularOrbit;
use oaq_orbit::revisit::{classify, min_overlapping_capacity, revisit_time, Regime};
use oaq_orbit::units::{Degrees, Minutes, Radians};
use proptest::prelude::*;

/// A random valid Walker configuration (small enough to build quickly).
fn walker_config() -> impl Strategy<Value = WalkerConfig> {
    (
        (any::<bool>(), 1usize..12, 1usize..24),
        (0usize..3, 0usize..12, 10.0f64..170.0, 85.0f64..150.0),
    )
        .prop_map(
            |((star, planes, sats), (spares, f_raw, inc, period))| WalkerConfig {
                pattern: if star {
                    WalkerPattern::Star
                } else {
                    WalkerPattern::Delta
                },
                planes,
                satellites_per_plane: sats,
                spares_per_plane: spares,
                phasing_factor: f_raw % planes,
                inclination: Degrees(inc),
                period: Minutes(period),
                coverage_time: Minutes(period / 25.0),
                earth_rotation: false,
            },
        )
}

fn ground_point() -> impl Strategy<Value = GroundPoint> {
    (-89.9f64..89.9, -180.0f64..180.0)
        .prop_map(|(lat, lon)| GroundPoint::from_degrees(Degrees(lat), Degrees(lon)))
}

proptest! {
    #[test]
    fn central_angle_triangle_inequality(a in ground_point(), b in ground_point(), c in ground_point()) {
        let ab = a.central_angle(&b).value();
        let bc = b.central_angle(&c).value();
        let ac = a.central_angle(&c).value();
        prop_assert!(ac <= ab + bc + 1e-9);
    }

    #[test]
    fn central_angle_symmetry_and_identity(a in ground_point(), b in ground_point()) {
        prop_assert!((a.central_angle(&b).value() - b.central_angle(&a).value()).abs() < 1e-12);
        prop_assert!(a.central_angle(&a).value() < 1e-12);
    }

    #[test]
    fn unit_vector_roundtrip(p in ground_point()) {
        let q = GroundPoint::from_vector(p.unit_vector());
        prop_assert!(p.central_angle(&q).value() < 1e-9);
    }

    #[test]
    fn ground_track_latitude_bounded_by_inclination(
        inc_deg in 10.0f64..90.0,
        phase in 0.0f64..std::f64::consts::TAU,
        t in 0.0f64..500.0,
    ) {
        let orbit = CircularOrbit::new(
            Degrees(inc_deg).to_radians(),
            Radians(0.0),
            Minutes(90.0),
        )
        .with_earth_rotation(false);
        let p = orbit.subsatellite_point(Radians(phase), Minutes(t));
        prop_assert!(p.lat().to_degrees().value().abs() <= inc_deg + 1e-6);
    }

    #[test]
    fn footprint_coverage_time_roundtrips(tc in 0.5f64..40.0, theta in 85.0f64..200.0) {
        prop_assume!(tc < theta / 2.0);
        let fp = Footprint::from_coverage_time(Minutes(tc), Minutes(theta));
        prop_assert!((fp.coverage_time(Minutes(theta)).value() - tc).abs() < 1e-9);
    }

    #[test]
    fn walker_total_satellite_count(cfg in walker_config()) {
        let c = cfg.try_build().unwrap();
        prop_assert_eq!(c.num_planes(), cfg.planes);
        prop_assert_eq!(c.total_active(), cfg.planes * cfg.satellites_per_plane);
        prop_assert_eq!(
            c.total_with_spares(),
            cfg.planes * (cfg.satellites_per_plane + cfg.spares_per_plane)
        );
    }

    #[test]
    fn walker_phasing_offsets_close_the_ring(cfg in walker_config()) {
        // Consecutive planes differ by the constant Walker stagger step
        // 2π·f/T, and the steps telescope to zero (mod 2π) around the
        // closed ring of planes.
        let c = cfg.try_build().unwrap();
        let step = (TAU * cfg.phasing_factor as f64 / cfg.total_satellites() as f64)
            .rem_euclid(TAU);
        let phase = |p: usize| c.plane(p).satellite_phase(0).value();
        let mut ring_sum = 0.0;
        for p in 0..cfg.planes {
            let next = (p + 1) % cfg.planes;
            let d = phase(next) - phase(p);
            ring_sum += d;
            if next != 0 {
                let dw = d.rem_euclid(TAU);
                let err = (dw - step).abs().min(TAU - (dw - step).abs());
                prop_assert!(err < 1e-9, "plane {p}: offset step {dw} vs {step}");
            }
        }
        let wrapped = ring_sum.rem_euclid(TAU);
        prop_assert!(
            !(1e-9..=TAU - 1e-9).contains(&wrapped),
            "ring sum {ring_sum} does not close mod 2π"
        );
    }

    #[test]
    fn walker_raan_spacing_and_inclination(cfg in walker_config()) {
        // Star patterns spread ascending nodes over π, delta over 2π, in
        // equal increments; every plane keeps the configured inclination.
        let c = cfg.try_build().unwrap();
        let span = match cfg.pattern {
            WalkerPattern::Star => TAU / 2.0,
            WalkerPattern::Delta => TAU,
        };
        for p in 0..cfg.planes {
            let orbit = c.plane(p).orbit();
            let expect = span * p as f64 / cfg.planes as f64;
            prop_assert!((orbit.raan().value() - expect).abs() < 1e-12);
            prop_assert!(
                (orbit.inclination().value() - cfg.inclination.to_radians().value()).abs()
                    < 1e-12
            );
        }
    }

    #[test]
    fn regime_threshold_is_consistent(theta_i in 60u32..200, tc_i in 2u32..30) {
        let theta = Minutes(f64::from(theta_i));
        let tc = Minutes(f64::from(tc_i));
        prop_assume!(tc.value() < theta.value() / 2.0);
        let kmin = min_overlapping_capacity(theta, tc);
        prop_assert_eq!(classify(revisit_time(theta, kmin), tc), Regime::Overlapping);
        if kmin > 1 {
            prop_assert_eq!(
                classify(revisit_time(theta, kmin - 1), tc),
                Regime::Underlapping
            );
        }
    }
}
