//! LU factorization with partial pivoting.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A packed LU factorization `P A = L U` of a square matrix.
///
/// # Examples
///
/// ```
/// use oaq_linalg::{Lu, Matrix};
/// # fn main() -> Result<(), oaq_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = Lu::factor(&a)?;
/// let x = lu.solve(&[2.0, 3.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// assert!((x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    packed: Matrix,
    perm: Vec<usize>,
    sign: f64,
}

pub(crate) const PIVOT_EPS: f64 = 1e-13;

impl Lu {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidShape`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot (relative to the matrix scale)
    ///   vanishes.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::InvalidShape(
                "LU requires a square matrix".to_string(),
            ));
        }
        let n = a.rows();
        let mut m = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = a.max_norm().max(1.0);
        for k in 0..n {
            // Select pivot row.
            let mut p = k;
            let mut best = m[(k, k)].abs();
            for i in (k + 1)..n {
                let v = m[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= PIVOT_EPS * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let tmp = m[(k, j)];
                    m[(k, j)] = m[(p, j)];
                    m[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = m[(k, k)];
            for i in (k + 1)..n {
                let factor = m[(i, k)] / pivot;
                m[(i, k)] = factor;
                for j in (k + 1)..n {
                    let delta = factor * m[(k, j)];
                    m[(i, j)] -= delta;
                }
            }
        }
        Ok(Lu {
            packed: m,
            perm,
            sign,
        })
    }

    /// Solves `A x = b` using the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len()` differs from
    /// the factored dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.packed.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution on the permuted RHS (L has unit diagonal).
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[self.perm[i]];
            for j in 0..i {
                sum -= self.packed[(i, j)] * y[j];
            }
            y[i] = sum;
        }
        // Back substitution with U.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.packed[(i, j)] * x[j];
            }
            x[i] = sum / self.packed[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the factored matrix.
    #[must_use]
    pub fn det(&self) -> f64 {
        let n = self.packed.rows();
        (0..n).fold(self.sign, |acc, i| acc * self.packed[(i, i)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .unwrap()
            .iter()
            .zip(b)
            .map(|(ax, bb)| (ax - bb).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn solves_with_pivoting() {
        let a = Matrix::from_rows(&[&[1e-20_f64, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, 2.0]])
            .unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(Lu::factor(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a).unwrap_err(),
            LinalgError::InvalidShape(_)
        ));
    }

    #[test]
    fn det_tracks_permutation_sign() {
        // Swapping two rows of the identity gives det = -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = Lu::factor(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_rhs_length_errors() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn random_like_system_roundtrips() {
        // A well-conditioned 5x5 system built from a simple formula.
        let a = Matrix::from_fn(5, 5, |i, j| {
            if i == j {
                10.0
            } else {
                ((i * 3 + j * 7) % 5) as f64 - 2.0
            }
        });
        let x_true = [1.0, -2.0, 3.0, 0.5, -0.25];
        let b = a.mul_vec(&x_true).unwrap();
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }
}
