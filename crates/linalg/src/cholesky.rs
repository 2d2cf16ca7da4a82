//! Cholesky factorization for symmetric positive-definite systems.
//!
//! Weighted least-squares normal equations `(Jᵀ W J) δ = Jᵀ W r` are SPD, so
//! the geolocation estimator in `oaq-geoloc` solves them through this path.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A lower-triangular Cholesky factor `A = L Lᵀ`.
///
/// # Examples
///
/// ```
/// use oaq_linalg::{Cholesky, Matrix};
/// # fn main() -> Result<(), oaq_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::factor(&a)?;
/// let x = ch.solve(&[2.0, 1.0])?;
/// assert!((x[0] - 0.5).abs() < 1e-12);
/// assert!((x[1] - 0.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factors a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper triangle
    /// is checked to a loose tolerance.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidShape`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is
    ///   non-positive or the matrix is visibly asymmetric.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::InvalidShape(
                "Cholesky requires a square matrix".to_string(),
            ));
        }
        let n = a.rows();
        let scale = a.max_norm().max(1.0);
        for i in 0..n {
            for j in (i + 1)..n {
                if (a[(i, j)] - a[(j, i)]).abs() > 1e-8 * scale {
                    return Err(LinalgError::NotPositiveDefinite);
                }
            }
        }
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 1e-14 * scale {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on RHS length mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * y[j];
            }
            y[i] = sum / self.l[(i, i)];
        }
        // Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }

    /// The lower-triangular factor `L`.
    #[must_use]
    pub fn factor_l(&self) -> &Matrix {
        &self.l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_reconstructs() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.factor_l();
        let recon = (l * &l.transpose()).unwrap();
        assert!((&recon - &a).unwrap().max_norm() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]).unwrap();
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x_ch = Cholesky::factor(&a).unwrap().solve(&b).unwrap();
        let x_lu = a.solve(&b).unwrap();
        for (c, l) in x_ch.iter().zip(&x_lu) {
            assert!((c - l).abs() < 1e-12);
        }
    }

    #[test]
    fn wrong_rhs_errors() {
        let ch = Cholesky::factor(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&[1.0, 2.0, 3.0]).is_err());
    }
}
