//! Property-based tests of the linear-algebra kernels.

use oaq_linalg::{Cholesky, CsrMatrix, Matrix, SCholesky, SMat};
use proptest::prelude::*;

/// A well-conditioned square matrix: diagonally dominant by construction.
fn dominant_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(prop::collection::vec(-1.0f64..1.0, n), n).prop_map(move |rows| {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = rows[i][j];
            }
            m[(i, i)] += n as f64 + 1.0;
        }
        m
    })
}

fn vector(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0f64..10.0, n)
}

proptest! {
    #[test]
    fn lu_solve_has_small_residual(a in dominant_matrix(5), b in vector(5)) {
        let x = a.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-9, "residual {}", (axi - bi).abs());
        }
    }

    #[test]
    fn inverse_roundtrips(a in dominant_matrix(4)) {
        let inv = a.inverse().unwrap();
        let prod = (&a * &inv).unwrap();
        let diff = (&prod - &Matrix::identity(4)).unwrap();
        prop_assert!(diff.max_norm() < 1e-9);
    }

    #[test]
    fn det_of_product_is_product_of_dets(a in dominant_matrix(3), b in dominant_matrix(3)) {
        let ab = (&a * &b).unwrap();
        let lhs = ab.det().unwrap();
        let rhs = a.det().unwrap() * b.det().unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0));
    }

    #[test]
    fn transpose_is_involution(a in dominant_matrix(4)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn cholesky_matches_lu_on_spd(a in dominant_matrix(4), b in vector(4)) {
        // AᵀA + I is symmetric positive definite.
        let at = a.transpose();
        let spd = (&(&at * &a).unwrap() + &Matrix::identity(4)).unwrap();
        let x_ch = Cholesky::factor(&spd).unwrap().solve(&b).unwrap();
        let x_lu = spd.solve(&b).unwrap();
        for (c, l) in x_ch.iter().zip(&x_lu) {
            prop_assert!((c - l).abs() < 1e-8);
        }
    }

    #[test]
    fn csr_roundtrips_through_dense(a in dominant_matrix(5)) {
        let csr = CsrMatrix::from_dense(&a);
        prop_assert_eq!(csr.to_dense(), a);
    }

    #[test]
    fn csr_matvecs_match_dense(a in dominant_matrix(5), x in vector(5)) {
        // Structural zeros contribute exactly 0.0 to every dense sum, so
        // the CSR products equal the dense ones, not merely approximate
        // them.
        let csr = CsrMatrix::from_dense(&a);
        prop_assert_eq!(csr.mul_vec(&x).unwrap(), a.mul_vec(&x).unwrap());
        prop_assert_eq!(csr.vec_mul(&x).unwrap(), a.vec_mul(&x).unwrap());
    }

    #[test]
    fn csr_matvec_is_deterministic(a in dominant_matrix(4), x in vector(4)) {
        let csr = CsrMatrix::from_dense(&a);
        let once = csr.vec_mul(&x).unwrap();
        for _ in 0..3 {
            let again = csr.vec_mul(&x).unwrap();
            prop_assert!(once.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn stack_cholesky_factor_is_bit_identical_to_heap(a in dominant_matrix(4)) {
        // AᵀA + I is symmetric positive definite.
        let at = a.transpose();
        let spd = (&(&at * &a).unwrap() + &Matrix::identity(4)).unwrap();
        let heap = Cholesky::factor(&spd).unwrap();
        let stack = SCholesky::factor(&SMat::<4>::from_matrix(&spd).unwrap()).unwrap();
        for i in 0..4 {
            for j in 0..=i {
                prop_assert_eq!(
                    stack.l(i, j).to_bits(),
                    heap.factor_l()[(i, j)].to_bits(),
                    "L[{},{}]: {} vs {}", i, j, stack.l(i, j), heap.factor_l()[(i, j)]
                );
            }
        }
    }

    #[test]
    fn stack_cholesky_solve_is_bit_identical_to_heap(a in dominant_matrix(4), b in vector(4)) {
        let at = a.transpose();
        let spd = (&(&at * &a).unwrap() + &Matrix::identity(4)).unwrap();
        let heap = Cholesky::factor(&spd).unwrap().solve(&b).unwrap();
        let rhs = [b[0], b[1], b[2], b[3]];
        let stack = SCholesky::factor(&SMat::<4>::from_matrix(&spd).unwrap())
            .unwrap()
            .solve(&rhs);
        for (h, s) in heap.iter().zip(&stack) {
            prop_assert_eq!(h.to_bits(), s.to_bits(), "{} vs {}", h, s);
        }
    }

    #[test]
    fn stack_rank1_accumulation_matches_heap_assembly(
        rows in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 3), 1..12),
        weights in prop::collection::vec(0.01f64..10.0, 12),
    ) {
        // Incremental rank-1 accumulation (the sequential-WLS update) vs the
        // heap-matrix batch nested-loop assembly, bit for bit.
        let mut inc = SMat::<3>::zeros();
        let mut batch = Matrix::zeros(3, 3);
        for (v, w) in rows.iter().zip(&weights) {
            inc.rank1_update(*w, &[v[0], v[1], v[2]]);
            for a in 0..3 {
                for b in 0..3 {
                    batch[(a, b)] += w * v[a] * v[b];
                }
            }
        }
        for a in 0..3 {
            for b in 0..3 {
                prop_assert_eq!(inc[(a, b)].to_bits(), batch[(a, b)].to_bits());
            }
        }
    }

    #[test]
    fn vec_mul_matches_transpose_mul_vec(a in dominant_matrix(4), x in vector(4)) {
        let left = a.vec_mul(&x).unwrap();
        let right = a.transpose().mul_vec(&x).unwrap();
        for (l, r) in left.iter().zip(&right) {
            prop_assert!((l - r).abs() < 1e-10);
        }
    }
}
