//! Property-based tests: SAN solvers and the plane availability model.

use oaq_linalg::Matrix;
use oaq_san::ctmc::Ctmc;
use oaq_san::model::{Delay, SanBuilder, SanModel};
use oaq_san::plane::{product_form_pk, PlaneModelConfig, SparePolicy};
use oaq_san::solver::{
    stationary_distribution, transient_distribution, transient_distribution_dense, TransientKernel,
};
use proptest::prelude::*;

/// A random irreducible birth–death generator on `n` states.
fn birth_death_generator(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(0.1f64..5.0, 2 * (n - 1)).prop_map(move |rates| {
        let mut q = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            let up = rates[i];
            let down = rates[n - 1 + i];
            q[(i, i + 1)] += up;
            q[(i, i)] -= up;
            q[(i + 1, i)] += down;
            q[(i + 1, i + 1)] -= down;
        }
        q
    })
}

/// `(1/T)∫₀ᵀ p(t) dt` by the deviation-matrix identity
/// `∫₀ᵀ p(t) dt = Tπ + (p₀ − p(T))·Z`, `Z = (1π − Q)⁻¹`: a dense linear
/// solve plus one dense transient, independent of any series quadrature.
fn time_average_by_deviation_matrix(q: &Matrix, p0: &[f64], horizon: f64) -> Vec<f64> {
    let n = q.rows();
    let pi = stationary_distribution(q).unwrap();
    let pt = transient_distribution_dense(q, p0, horizon, 1e-14).unwrap();
    // y (1π − Q) = p₀ − p(T)  ⇔  (1π − Q)ᵀ yᵀ = (p₀ − p(T))ᵀ.
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(j, i)] = pi[j] - q[(i, j)];
        }
    }
    let d: Vec<f64> = p0.iter().zip(&pt).map(|(a, b)| a - b).collect();
    let y = a.solve(&d).unwrap();
    pi.iter().zip(&y).map(|(p, y)| p + y / horizon).collect()
}

fn birth_death_model(arrive: f64, serve: f64, cap: u32) -> SanModel {
    let mut b = SanBuilder::new();
    let n = b.add_place("n", 0);
    b.add_activity(
        "arrive",
        Delay::exponential_rate(arrive),
        move |m| m.tokens(n) < cap,
        move |m| m.add_tokens(n, 1),
    );
    b.add_activity(
        "serve",
        Delay::exponential_rate(serve),
        move |m| m.tokens(n) > 0,
        move |m| m.remove_tokens(n, 1),
    );
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn stationary_satisfies_balance(q in birth_death_generator(5)) {
        let pi = stationary_distribution(&q).unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let flow = q.vec_mul(&pi).unwrap();
        for f in flow {
            prop_assert!(f.abs() < 1e-9, "piQ component {f}");
        }
    }

    #[test]
    fn transient_is_a_distribution_at_all_times(
        q in birth_death_generator(4),
        t in 0.0f64..20.0,
    ) {
        let p = transient_distribution(&q, &[1.0, 0.0, 0.0, 0.0], t, 1e-12).unwrap();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| x >= -1e-12));
    }

    #[test]
    fn transient_converges_to_stationary(q in birth_death_generator(4)) {
        let pi = stationary_distribution(&q).unwrap();
        let p = transient_distribution(&q, &[1.0, 0.0, 0.0, 0.0], 500.0, 1e-12).unwrap();
        for (a, b) in p.iter().zip(&pi) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn sparse_kernel_matches_dense_transient(
        q in birth_death_generator(5),
        t in 0.0f64..50.0,
    ) {
        // The shared-iterate CSR kernel and the dense per-time-point
        // reference must agree to 1e-12 on arbitrary generators.
        let p0 = [1.0, 0.0, 0.0, 0.0, 0.0];
        let sparse = transient_distribution(&q, &p0, t, 1e-12).unwrap();
        let dense = transient_distribution_dense(&q, &p0, t, 1e-12).unwrap();
        for (s, d) in sparse.iter().zip(&dense) {
            prop_assert!((s - d).abs() <= 1e-12, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn time_average_matches_deviation_matrix_identity(
        q in birth_death_generator(4),
        horizon in 0.1f64..30.0,
    ) {
        let p0 = [1.0, 0.0, 0.0, 0.0];
        let kernel = TransientKernel::new(&q).unwrap();
        let exact = kernel.time_average(&p0, horizon).unwrap();
        let oracle = time_average_by_deviation_matrix(&q, &p0, horizon);
        for (e, o) in exact.iter().zip(&oracle) {
            prop_assert!((e - o).abs() <= 1e-12, "interval form {e} vs identity {o}");
        }
    }

    #[test]
    fn transient_batch_is_batch_invariant(
        q in birth_death_generator(4),
        times in prop::collection::vec(0.0f64..30.0, 1..6),
    ) {
        // Each time point's answer is bit-identical whether it is solved
        // alone or as part of an arbitrary batch.
        let p0 = [1.0, 0.0, 0.0, 0.0];
        let kernel = TransientKernel::new(&q).unwrap();
        let batch = kernel.transient_batch(&p0, &times, 1e-12).unwrap();
        for (&t, row) in times.iter().zip(&batch) {
            let alone = kernel.transient(&p0, t, 1e-12).unwrap();
            prop_assert_eq!(row, &alone, "t = {}", t);
        }
    }

    #[test]
    fn ctmc_stationary_matches_detailed_balance(
        arrive in 0.2f64..3.0,
        serve in 0.2f64..3.0,
    ) {
        // Birth–death chains satisfy detailed balance: π_{k+1}/π_k = λ/µ.
        let model = birth_death_model(arrive, serve, 4);
        let ctmc = Ctmc::explore(&model, 100).unwrap();
        let pi = ctmc.stationary().unwrap();
        let rho = arrive / serve;
        for k in 0..4 {
            let ratio = pi[k + 1] / pi[k];
            prop_assert!((ratio - rho).abs() < 1e-6 * rho.max(1.0), "k={k}: {ratio} vs {rho}");
        }
    }

    #[test]
    fn steady_state_detection_matches_full_transient_batch(
        q in birth_death_generator(5),
        times in prop::collection::vec(0.0f64..50_000.0, 1..6),
    ) {
        // The steady-state-detecting path and the full-iteration (PR 3)
        // path must agree to 1e-12 at every horizon, including horizons
        // deep past mixing where detection short-circuits the loop.
        let p0 = [1.0, 0.0, 0.0, 0.0, 0.0];
        let kernel = TransientKernel::new(&q).unwrap();
        let detected = kernel.transient_batch(&p0, &times, 1e-12).unwrap();
        let full = kernel.transient_batch_full(&p0, &times, 1e-12).unwrap();
        for ((d_row, f_row), &t) in detected.iter().zip(&full).zip(&times) {
            for (d, f) in d_row.iter().zip(f_row) {
                prop_assert!((d - f).abs() <= 1e-12, "t = {t}: detected {d} vs full {f}");
            }
        }
    }

    #[test]
    fn steady_state_detection_matches_full_time_average(
        q in birth_death_generator(4),
        horizons in prop::collection::vec(0.1f64..1000.0, 1..4),
    ) {
        // Horizons are bounded so the comparison stays meaningful: the
        // full-iteration reference accumulates one weighted addition per
        // matvec, so its own summation rounding grows like Λ·φ·ε and
        // crosses 1e-12 near Λ·φ ≈ 1e4 — beyond that the detected path
        // (which serves converged tails in one fused addition) is the
        // *cleaner* of the two and the diff measures reference noise, not
        // detection error.
        let p0 = [0.0, 1.0, 0.0, 0.0];
        let kernel = TransientKernel::new(&q).unwrap();
        let detected = kernel.time_average_many(&p0, &horizons).unwrap();
        let full = kernel.time_average_many_full(&p0, &horizons).unwrap();
        for ((d_row, f_row), &h) in detected.iter().zip(&full).zip(&horizons) {
            for (d, f) in d_row.iter().zip(f_row) {
                prop_assert!((d - f).abs() <= 1e-12, "phi = {h}: detected {d} vs full {f}");
            }
        }
    }

    #[test]
    fn product_form_matches_joint_solve(
        lambda_e in 1u32..10,
        eta in 9u32..12,
        phi_k in 1u32..4,
    ) {
        // The per-plane convolution decomposition must agree with the
        // exact joint chain over random paper-scale scenarios.
        let phi = 10_000.0 * f64::from(phi_k);
        let cfg = PlaneModelConfig {
            capacity: 14,
            spares: 2,
            lambda: f64::from(lambda_e) * 1e-5,
            phi,
            eta,
            policy: SparePolicy::PinAtThreshold,
        };
        let plane = cfg.capacity_solve(10_000).unwrap();
        let joint = cfg.joint_capacity_solve(2, 10_000).unwrap();
        let product = product_form_pk(&[&plane, &plane], phi, 64).unwrap();
        let exact = product_form_pk(&[&joint], phi, 64).unwrap();
        prop_assert_eq!(product.len(), exact.len());
        for (k, (p, e)) in product.iter().zip(&exact).enumerate() {
            prop_assert!((p - e).abs() <= 1e-12, "k = {k}: product {p} vs joint {e}");
        }
    }

    #[test]
    fn plane_markov_distribution_is_proper(
        lambda_e in 1u32..10,
        eta in 9u32..12,
    ) {
        let lambda = f64::from(lambda_e) * 1e-5;
        let cfg = PlaneModelConfig::reference(lambda, 30_000.0, eta);
        let d = cfg.build_markov(8).capacity_distribution_markov(100_000).unwrap();
        prop_assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (k, &p) in d.iter().enumerate().take(eta as usize) {
            prop_assert_eq!(p, 0.0, "pinning forbids k = {}", k);
        }
        prop_assert!(d[14] > 0.0);
    }
}
