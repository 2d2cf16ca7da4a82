//! Compressed sparse row (CSR) matrix.
//!
//! Sized for the CTMC transient kernels in `oaq-san`: generator and
//! uniformized transition matrices of birth–death-like chains are
//! tridiagonal-ish, so a dense O(n²) matvec wastes almost all of its work
//! once planes grow past the paper's 14-satellite reference. The CSR
//! matvec is O(nnz) and — critically for the serving engine's bit-identity
//! guarantee — **deterministic**: entries within a row are stored in
//! strictly ascending column order and every product accumulates in that
//! fixed order, so repeated calls (from any number of threads) produce
//! bit-identical results.

use crate::error::LinalgError;
use crate::matrix::Matrix;

/// A sparse `f64` matrix in compressed-sparse-row form.
///
/// Invariants (upheld by every constructor):
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, non-decreasing;
/// * within each row, column indices are strictly increasing;
/// * all stored values are finite.
///
/// # Examples
///
/// ```
/// use oaq_linalg::CsrMatrix;
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
/// assert_eq!(a.nnz(), 2);
/// assert_eq!(a.vec_mul(&[1.0, 1.0]).unwrap(), vec![3.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate coordinates are summed (in triplet order, so the result is
    /// deterministic for a given input sequence); entries whose final sum
    /// is exactly `0.0` are dropped.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidShape`] for a zero dimension or an
    ///   out-of-range index.
    /// * [`LinalgError::NonFinite`] for NaN/∞ values.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, LinalgError> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidShape(
                "matrix dimensions must be positive".to_string(),
            ));
        }
        for &(i, j, v) in triplets {
            if i >= rows || j >= cols {
                return Err(LinalgError::InvalidShape(format!(
                    "triplet ({i}, {j}) out of bounds for {rows}x{cols}"
                )));
            }
            if !v.is_finite() {
                return Err(LinalgError::NonFinite);
            }
        }
        // Stable sort by (row, col) keeps duplicate summation order equal
        // to triplet order — deterministic for a given input.
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut entries: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (i, j, v) in sorted {
            match entries.last_mut() {
                Some((pi, pj, pv)) if *pi == i && *pj == j => *pv += v,
                _ => entries.push((i, j, v)),
            }
        }
        for (i, j, v) in entries {
            if v == 0.0 {
                continue;
            }
            row_ptr[i + 1] += 1;
            col_idx.push(j);
            values.push(v);
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Converts a dense matrix, keeping every non-zero entry.
    #[must_use]
    pub fn from_dense(m: &Matrix) -> Self {
        let mut row_ptr = vec![0usize; m.rows() + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    row_ptr[i + 1] += 1;
                    col_idx.push(j);
                    values.push(v);
                }
            }
        }
        for i in 0..m.rows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrMatrix {
            rows: m.rows(),
            cols: m.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Expands back to a dense matrix.
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row_entries(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j)] = v;
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

    /// Number of stored (non-zero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries stored: `nnz / (rows · cols)`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// The stored entry at `(i, j)`, or `0.0` for structural zeros; `None`
    /// out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        if i >= self.rows || j >= self.cols {
            return None;
        }
        let (cols, vals) = self.row_entries(i);
        Some(match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        })
    }

    /// Column indices and values of row `i` (ascending column order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.rows, "row {i} out of bounds");
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Matrix–vector product `A x`. Row sums accumulate in ascending
    /// column order — deterministic across calls and threads.
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
            .map(|i| {
                let (cols, vals) = self.row_entries(i);
                cols.iter().zip(vals).map(|(&j, &v)| v * x[j]).sum()
            })
            .collect())
    }

    /// Vector–matrix product `xᵀ A` — the distribution-propagation step of
    /// the CTMC transient kernel. Scatters row by row in ascending row
    /// order (columns ascending within each row), so the floating-point
    /// accumulation order is fixed: repeated calls are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows`.
    pub fn vec_mul(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = vec![0.0; self.cols];
        self.vec_mul_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Self::vec_mul`] into a caller-owned buffer: `out` is overwritten
    /// with `xᵀ A`, with the same accumulation order (so the same bits),
    /// and nothing is allocated. An iteration that propagates a
    /// distribution many times keeps two buffers and swaps them.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != rows` or
    /// `out.len() != cols`.
    pub fn vec_mul_into(&self, x: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                left: (1, x.len()),
                right: self.shape(),
            });
        }
        if out.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: (1, out.len()),
                right: (self.cols, 1),
            });
        }
        out.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let (cols, vals) = self.row_entries(i);
            for (&j, &v) in cols.iter().zip(vals) {
                out[j] += xi * v;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sorted_summed_and_zeros_dropped() {
        let a = CsrMatrix::from_triplets(
            2,
            3,
            &[
                (1, 2, 4.0),
                (0, 0, 1.0),
                (1, 2, -1.0),
                (0, 1, 5.0),
                (0, 1, -5.0),
            ],
        )
        .unwrap();
        assert_eq!(a.nnz(), 2, "duplicates summed, exact zeros dropped");
        assert_eq!(a.get(0, 0), Some(1.0));
        assert_eq!(a.get(0, 1), Some(0.0));
        assert_eq!(a.get(1, 2), Some(3.0));
        assert_eq!(a.get(2, 0), None);
    }

    #[test]
    fn rejects_bad_triplets() {
        assert!(matches!(
            CsrMatrix::from_triplets(0, 2, &[]),
            Err(LinalgError::InvalidShape(_))
        ));
        assert!(matches!(
            CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]),
            Err(LinalgError::InvalidShape(_))
        ));
        assert_eq!(
            CsrMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]),
            Err(LinalgError::NonFinite)
        );
    }

    #[test]
    fn dense_roundtrip() {
        let d = Matrix::from_rows(&[&[0.0, 2.0, 0.0], &[1.0, 0.0, -3.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 3);
        assert!((s.density() - 0.5).abs() < 1e-15);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn matvec_matches_dense() {
        let d = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert_eq!(s.vec_mul(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
        assert!(s.mul_vec(&[1.0]).is_err());
        assert!(s.vec_mul(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn vec_mul_is_bit_stable_across_calls() {
        let s = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 0.3),
                (0, 1, 0.7),
                (1, 0, 0.1),
                (1, 1, 0.2),
                (1, 2, 0.7),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let x = [0.25, 0.5, 0.25];
        let first = s.vec_mul(&x).unwrap();
        for _ in 0..10 {
            assert_eq!(s.vec_mul(&x).unwrap(), first);
        }
    }

    #[test]
    fn vec_mul_into_matches_vec_mul_bitwise() {
        let s = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 0.3),
                (0, 3, 0.7),
                (1, 0, 0.1),
                (1, 1, 0.2),
                (1, 2, 0.7),
                (2, 2, 1.0 / 3.0),
                (2, 3, 2.0 / 3.0),
            ],
        )
        .unwrap();
        let x = [0.1, 0.0, 0.9];
        // A stale buffer must be overwritten, not accumulated into.
        let mut out = vec![f64::NAN; 4];
        s.vec_mul_into(&x, &mut out).unwrap();
        let fresh = s.vec_mul(&x).unwrap();
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fresh.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(s.vec_mul_into(&x, &mut [0.0; 3]).is_err());
        assert!(s.vec_mul_into(&[1.0], &mut out).is_err());
    }

    #[test]
    fn row_entries_are_ascending() {
        let s = CsrMatrix::from_triplets(1, 5, &[(0, 4, 1.0), (0, 0, 1.0), (0, 2, 1.0)]).unwrap();
        let (cols, _) = s.row_entries(0);
        assert_eq!(cols, &[0, 2, 4]);
    }
}
