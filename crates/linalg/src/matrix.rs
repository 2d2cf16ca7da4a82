//! Row-major dense matrix.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::error::LinalgError;
use crate::lu::Lu;

/// A dense, row-major `f64` matrix.
///
/// # Examples
///
/// ```
/// use oaq_linalg::Matrix;
/// # fn main() -> Result<(), oaq_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let b = &a * &a;
/// assert_eq!(b?[(2, 2)], 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] for empty input or ragged rows,
    /// and [`LinalgError::NonFinite`] if any entry is NaN or infinite.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::InvalidShape("empty matrix".to_string()));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::InvalidShape(format!(
                    "ragged row: expected {cols} columns, got {}",
                    r.len()
                )));
            }
            for &x in *r {
                if !x.is_finite() {
                    return Err(LinalgError::NonFinite);
                }
                data.push(x);
            }
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a function of `(row, col)`.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Checked element access.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// Vector–matrix product `xᵀ A` (used by CTMC stationary solves).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                left: (1, x.len()),
                right: self.shape(),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, o) in out.iter_mut().enumerate() {
                *o += xi * self[(i, j)];
            }
        }
        Ok(out)
    }

    /// Scales every entry by `s`.
    #[must_use]
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * s).collect(),
        }
    }

    /// Solves `A x = b` by LU with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] for singular systems and
    /// [`LinalgError::DimensionMismatch`] for shape errors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        Lu::factor(self)?.solve(b)
    }

    /// Determinant via LU.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] for non-square matrices.
    pub fn det(&self) -> Result<f64, LinalgError> {
        if !self.is_square() {
            return Err(LinalgError::InvalidShape(
                "determinant requires a square matrix".to_string(),
            ));
        }
        match Lu::factor(self) {
            Ok(lu) => Ok(lu.det()),
            Err(LinalgError::Singular) => Ok(0.0),
            Err(e) => Err(e),
        }
    }

    /// Matrix inverse via LU.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if not invertible.
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let lu = Lu::factor(self)?;
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = lu.solve(&e)?;
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }

    /// Max-absolute-entry norm.
    #[must_use]
    pub fn max_norm(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Result<Matrix, LinalgError>;
    fn add(self, rhs: &Matrix) -> Self::Output {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        })
    }
}

impl Sub for &Matrix {
    type Output = Result<Matrix, LinalgError>;
    fn sub(self, rhs: &Matrix) -> Self::Output {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        })
    }
}

impl Mul for &Matrix {
    type Output = Result<Matrix, LinalgError>;
    fn mul(self, rhs: &Matrix) -> Self::Output {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!((&a * &i).unwrap(), a);
        assert_eq!((&i * &a).unwrap(), a);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidShape(_)));
    }

    #[test]
    fn non_finite_rejected() {
        let err = Matrix::from_rows(&[&[f64::INFINITY]]).unwrap_err();
        assert_eq!(err, LinalgError::NonFinite);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn mul_vec_and_vec_mul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(a.vec_mul(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
        assert!(a.vec_mul(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn det_of_singular_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(a.det().unwrap(), 0.0);
    }

    #[test]
    fn det_known_value() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((a.det().unwrap() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = (&a * &inv).unwrap();
        let diff = (&prod - &Matrix::identity(2)).unwrap();
        assert!(diff.max_norm() < 1e-12);
    }

    #[test]
    fn singular_inverse_errors() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert_eq!(a.inverse().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn add_sub_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        assert_eq!(
            (&a + &b).unwrap(),
            Matrix::from_rows(&[&[4.0, 6.0]]).unwrap()
        );
        assert_eq!(
            (&b - &a).unwrap(),
            Matrix::from_rows(&[&[2.0, 2.0]]).unwrap()
        );
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!((&a + &b).is_err());
        assert!((&a * &b).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]).unwrap();
        assert_eq!(a.max_norm(), 4.0);
    }

    #[test]
    fn get_checked() {
        let a = Matrix::identity(2);
        assert_eq!(a.get(1, 1), Some(1.0));
        assert_eq!(a.get(2, 0), None);
    }

    #[test]
    fn display_has_rows() {
        let s = format!("{}", Matrix::identity(2));
        assert_eq!(s.lines().count(), 2);
    }
}
