//! # pim-linalg
//!
//! Self-contained dense linear algebra kernels for the DATE 2014
//! sensitivity-weighted passivity enforcement reproduction.
//!
//! The macromodeling flow implemented in the sibling crates needs a fairly
//! specific set of numerical primitives:
//!
//! * complex arithmetic ([`Complex64`]) and dense real / complex matrices
//!   ([`Mat`], [`CMat`]);
//! * LU factorization with partial pivoting for linear solves and inverses
//!   ([`lu`]);
//! * Householder QR and linear least squares for the Vector Fitting
//!   identification steps ([`qr`]);
//! * eigenvalues of real non-symmetric matrices (pole relocation, rational
//!   zeros, Hamiltonian passivity tests) via Hessenberg reduction and the
//!   Francis double-shift QR iteration ([`schur`], [`eig`]);
//! * singular value decomposition of small complex matrices (scattering
//!   matrices at a frequency point) via one-sided Jacobi ([`svd`]);
//! * Lyapunov / Sylvester solvers for controllability Gramians
//!   ([`lyapunov`]).
//!
//! These are implemented from scratch (no BLAS/LAPACK, no `nalgebra`) so the
//! whole reproduction is pure Rust and every numerical path is testable in
//! isolation. The implementations target the moderate problem sizes of the
//! reproduction (state dimensions of a few hundred at most) rather than
//! HPC-scale performance.
//!
//! ## Example
//!
//! ```
//! use pim_linalg::{Mat, eig::eigenvalues};
//!
//! # fn main() -> Result<(), pim_linalg::LinalgError> {
//! // Companion matrix of z^2 - 3z + 2 = (z-1)(z-2)
//! let a = Mat::from_rows(&[&[3.0, -2.0], &[1.0, 0.0]]);
//! let mut ev: Vec<f64> = eigenvalues(&a)?.iter().map(|e| e.re).collect();
//! ev.sort_by(|x, y| x.total_cmp(y));
//! assert!((ev[0] - 1.0).abs() < 1e-12 && (ev[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cmat;
pub mod complex;
pub mod eig;
pub mod hessenberg;
pub mod lu;
pub mod lyapunov;
pub mod mat;
pub mod qr;
pub mod schur;
pub mod svd;

pub use cmat::CMat;
pub use complex::Complex64;
pub use mat::Mat;

use std::error::Error;
use std::fmt;

/// Errors produced by the linear algebra kernels.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Two operands have incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Human readable description of the operation that failed.
        context: &'static str,
        /// Dimensions of the left operand (rows, cols).
        left: (usize, usize),
        /// Dimensions of the right operand (rows, cols).
        right: (usize, usize),
    },
    /// A matrix that must be square is not.
    NotSquare {
        /// Human readable description of the operation that failed.
        context: &'static str,
        /// Actual dimensions (rows, cols).
        dims: (usize, usize),
    },
    /// A factorization or solve encountered a (numerically) singular matrix.
    Singular {
        /// Human readable description of the operation that failed.
        context: &'static str,
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    NonConvergence {
        /// Human readable description of the algorithm that failed.
        context: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input arguments are invalid (empty matrix, negative tolerance, ...).
    InvalidArgument {
        /// Human readable description of the problem.
        context: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { context, left, right } => write!(
                f,
                "dimension mismatch in {context}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { context, dims } => {
                write!(f, "matrix must be square in {context}: got {}x{}", dims.0, dims.1)
            }
            LinalgError::Singular { context } => {
                write!(f, "singular matrix encountered in {context}")
            }
            LinalgError::NonConvergence { context, iterations } => {
                write!(f, "{context} did not converge after {iterations} iterations")
            }
            LinalgError::InvalidArgument { context } => {
                write!(f, "invalid argument: {context}")
            }
        }
    }
}

impl Error for LinalgError {}

/// Result alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Returns `true` when two floating point numbers agree within an absolute
/// *or* relative tolerance of `tol`.
///
/// This is the comparison helper used by the test suites of all the crates in
/// the workspace; it is exported here so the tolerance logic is defined once.
///
/// ```
/// assert!(pim_linalg::approx_eq(1.0, 1.0 + 1e-13, 1e-10));
/// assert!(!pim_linalg::approx_eq(1.0, 1.1, 1e-10));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    diff <= tol || diff <= tol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_absolute_and_relative() {
        assert!(approx_eq(0.0, 1e-12, 1e-10));
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-12), 1e-10));
        assert!(!approx_eq(1.0, 2.0, 1e-10));
    }

    #[test]
    fn error_display_is_informative() {
        let e = LinalgError::DimensionMismatch { context: "matmul", left: (2, 3), right: (4, 5) };
        let s = format!("{e}");
        assert!(s.contains("matmul") && s.contains("2x3") && s.contains("4x5"));
        let e = LinalgError::Singular { context: "lu solve" };
        assert!(format!("{e}").contains("singular"));
    }
}
