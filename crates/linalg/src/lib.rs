//! # oaq-linalg — small dense linear algebra
//!
//! A self-contained dense linear-algebra toolkit sized for the needs of this
//! workspace: the iterative weighted least-squares geolocation estimator in
//! `oaq-geoloc` (normal equations, Cholesky — served zero-allocation by the
//! const-generic [`stack`] kernels, with the heap path kept as the
//! bit-identical reference), and the CTMC steady-state and transient solvers
//! in `oaq-san` (LU with partial pivoting, linear solves, and a CSR sparse
//! type for the uniformization transient kernel).
//!
//! No external numerical dependencies; everything is `f64`, row-major and
//! bounds-checked.
//!
//! ## Example
//!
//! ```
//! use oaq_linalg::Matrix;
//!
//! # fn main() -> Result<(), oaq_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let x = a.solve(&[1.0, 2.0])?;
//! assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
//! assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops mirror the textbook factorization algorithms; iterator
// rewrites obscure the pivot/column structure.
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod error;
mod lu;
mod matrix;
mod sparse;
pub mod stack;
pub mod vec_ops;

pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use sparse::CsrMatrix;
pub use stack::{SCholesky, SLu, SMat, SVec};
