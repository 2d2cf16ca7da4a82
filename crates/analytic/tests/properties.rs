//! Property-based tests of the analytic QoS model.

use oaq_analytic::capacity::CapacityParams;
use oaq_analytic::geometry::PlaneGeometry;
use oaq_analytic::qos::{conditional_qos, g2_oaq, g3_baq, g3_oaq, QosParams, Scheme};
use oaq_san::plane::{PlaneModelConfig, SparePolicy};
use proptest::prelude::*;

fn params() -> impl Strategy<Value = QosParams> {
    (0.2f64..8.0, 0.05f64..2.0, 5.0f64..60.0).prop_map(|(tau, mu, nu)| QosParams { tau, mu, nu })
}

proptest! {
    #[test]
    fn conditional_distribution_is_proper(k in 5u32..20, q in params(), scheme_oaq in any::<bool>()) {
        let scheme = if scheme_oaq { Scheme::Oaq } else { Scheme::Baq };
        let c = conditional_qos(scheme, &PlaneGeometry::reference(k), &q);
        let total: f64 = c.as_array().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for y in 0..4 {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c.p(y)), "p({y}) = {}", c.p(y));
        }
        // CCDF is non-increasing in y.
        for y in 0..3 {
            prop_assert!(c.p_at_least(y) >= c.p_at_least(y + 1) - 1e-12);
        }
    }

    #[test]
    fn oaq_weakly_dominates_baq(k in 5u32..20, q in params()) {
        let g = PlaneGeometry::reference(k);
        let oaq = conditional_qos(Scheme::Oaq, &g, &q);
        let baq = conditional_qos(Scheme::Baq, &g, &q);
        for y in 1..4 {
            prop_assert!(
                oaq.p_at_least(y) >= baq.p_at_least(y) - 1e-12,
                "y={y}: OAQ {} < BAQ {}",
                oaq.p_at_least(y),
                baq.p_at_least(y)
            );
        }
    }

    #[test]
    fn g3_monotone_in_tau_and_signal_length(k in 11u32..20, mu in 0.05f64..2.0, nu in 5.0f64..60.0) {
        let g = PlaneGeometry::reference(k);
        let mut last = 0.0;
        for tau_i in 1..=16 {
            let q = QosParams { tau: 0.5 * f64::from(tau_i), mu, nu };
            let v = g3_oaq(&g, &q);
            prop_assert!(v >= last - 1e-12);
            prop_assert!(v >= g3_baq(&g, &q) - 1e-12);
            last = v;
        }
        // Longer signals (smaller mu) help.
        let q_short = QosParams { tau: 5.0, mu: mu * 2.0, nu };
        let q_long = QosParams { tau: 5.0, mu, nu };
        prop_assert!(g3_oaq(&g, &q_long) >= g3_oaq(&g, &q_short) - 1e-12);
    }

    #[test]
    fn g2_vanishes_in_overlap_and_g3_in_underlap(k in 5u32..20, q in params()) {
        let g = PlaneGeometry::reference(k);
        if g.is_overlapping() {
            prop_assert_eq!(g2_oaq(&g, &q), 0.0);
        } else {
            prop_assert_eq!(g3_oaq(&g, &q), 0.0);
            prop_assert_eq!(g3_baq(&g, &q), 0.0);
        }
    }

    #[test]
    fn geometry_identities(k in 1u32..=19) {
        let g = PlaneGeometry::reference(k);
        // L1 − L2 is the single-coverage stretch; it is Tc in underlap and
        // 2Tr − Tc in overlap; both are within (0, L1].
        let alpha = g.l1() - g.l2();
        prop_assert!(alpha > 0.0 && alpha <= g.l1() + 1e-12);
        if !g.is_overlapping() {
            prop_assert!((alpha - g.tc()).abs() < 1e-9);
        }
    }

    #[test]
    fn p_k_depends_on_the_plane_shape_and_lambda_phi_alone(
        log_lambda in -5.0f64..-4.0,
        log_phi in 3.5f64..5.5,
        eta in 8u32..=12,
    ) {
        // The oracle of the shape table: the chain explored at the query's
        // own λ over φ against the shared λ = 1 shape over λφ, at (λ, φ)
        // and at every rescaled (cλ, φ/c). Every rate is k·λ, so the
        // answers agree up to the rounding of Λ and Λφ.
        let (lambda, phi) = (10f64.powf(log_lambda), 10f64.powf(log_phi));
        for (capacity, spares, eta) in [(14, 2, eta), (22, 2, 18)] {
            let per_lambda = PlaneModelConfig {
                capacity,
                spares,
                lambda,
                phi,
                eta,
                policy: SparePolicy::PinAtThreshold,
            }
            .capacity_solve(10_000)
            .unwrap()
            .distribution_over(phi)
            .unwrap();
            for c in [1.0, 0.5, 2.0, 3.0, 10.0] {
                let shared = CapacityParams::new(capacity, spares, c * lambda, phi / c, eta)
                    .unwrap()
                    .distribution()
                    .unwrap();
                for (k, (a, b)) in per_lambda.iter().zip(&shared).enumerate() {
                    prop_assert!(
                        (a - b).abs() <= 1e-13,
                        "{capacity}+{spares}@{eta}, lambda={lambda}, phi={phi}, c={c}, k={k}: \
                         {a} vs {b}"
                    );
                }
            }
        }
    }
}
