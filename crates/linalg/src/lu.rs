//! LU factorization with partial pivoting of a real or complex square
//! matrix, with linear solves and inverses.
//!
//! The loaded-impedance transformation of the PDN flow (eq. 2 of the paper)
//! requires repeated inversion of small complex matrices; the Hamiltonian
//! assembly and the constrained quadratic program factor real ones.

use crate::{LinalgError, Matrix, Result, Scalar};

/// LU factorization (with partial pivoting) of a square matrix.
///
/// The factorization satisfies `P·A = L·U`, where `P` is the row permutation
/// encoded by `perm`.
#[derive(Debug, Clone)]
pub struct Lu<T> {
    lu: Matrix<T>,
    perm: Vec<usize>,
}

impl<T: Scalar> Lu<T> {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot is exactly zero.
    pub fn new(a: &Matrix<T>) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { context: "Lu::new", dims: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting: pick the largest magnitude entry in column k.
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in (k + 1)..n {
                if lu[(i, k)].abs() > max {
                    max = lu[(i, k)].abs();
                    p = i;
                }
            }
            // audit:allow(float-eq): exact-zero pivot column means structural singularity
            if max == 0.0 {
                return Err(LinalgError::Singular { context: "Lu::new" });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
            }
            // Rank-1 update of the trailing block, row by row on contiguous
            // slices (the pivot row and each target row are disjoint).
            let data = lu.as_mut_slice();
            let (top, bottom) = data.split_at_mut((k + 1) * n);
            let pivot_row = &top[k * n + k..(k + 1) * n];
            let pivot = pivot_row[0];
            for row in bottom.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                for (r, &p) in row[(k + 1)..].iter_mut().zip(&pivot_row[1..]) {
                    *r -= factor * p;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len()` differs from
    /// the matrix dimension.
    pub fn solve_vec(&self, b: &[T]) -> Result<Vec<T>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Lu::solve_vec",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        let mut x: Vec<T> = (0..n).map(|i| b[self.perm[i]]).collect();
        self.substitute(&mut x);
        Ok(x)
    }

    /// Forward/back substitution on a permuted right-hand side (in place).
    fn substitute(&self, x: &mut [T]) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        // Forward substitution with unit lower-triangular L.
        for i in 0..n {
            let row = &lu[i * n..i * n + i];
            let mut acc = x[i];
            for (&l, &xj) in row.iter().zip(x.iter()) {
                acc -= l * xj;
            }
            x[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = &lu[i * n..(i + 1) * n];
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= row[j] * x[j];
            }
            x[i] = acc / row[i];
        }
    }

    /// Solves `A·X = B` for a matrix right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when row counts differ.
    pub fn solve(&self, b: &Matrix<T>) -> Result<Matrix<T>> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "Lu::solve",
                left: (n, n),
                right: b.shape(),
            });
        }
        let mut x = Matrix::zeros(n, b.cols());
        let mut col = vec![T::ZERO; n];
        for j in 0..b.cols() {
            // Gather the permuted column without an extra allocation.
            for (i, dst) in col.iter_mut().enumerate() {
                *dst = b[(self.perm[i], j)];
            }
            self.substitute(&mut col);
            for i in 0..n {
                x[(i, j)] = col[i];
            }
        }
        Ok(x)
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve failures.
    pub fn inverse(&self) -> Result<Matrix<T>> {
        self.solve(&Matrix::identity(self.dim()))
    }
}

impl Lu<f64> {
    /// Cheap condition-number estimate from the pivot spread:
    /// `max_i |u_ii| / min_i |u_ii|` of the factored `U`.
    ///
    /// For the symmetric positive-definite Gramian of the enforcement QP
    /// this tracks the true 2-norm condition number to within a modest
    /// factor — good enough to detect a near-singular Gramian that would
    /// blow up the perturbation step. Returns `f64::INFINITY` when a diagonal entry
    /// underflows to zero.
    pub fn condition_estimate(&self) -> f64 {
        let n = self.dim();
        let mut max = 0.0_f64;
        let mut min = f64::INFINITY;
        for i in 0..n {
            let u = self.lu[(i, i)].abs();
            max = max.max(u);
            min = min.min(u);
        }
        // audit:allow(float-eq): exact-zero diagonal makes the condition estimate infinite
        if min == 0.0 {
            return f64::INFINITY;
        }
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CMat, Complex64, Mat};

    #[test]
    fn real_solve_and_inverse() {
        let a = Mat::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]]);
        let b = Mat::col_vector(&[10.0, 12.0]);
        let x = a.solve(&b).unwrap();
        assert!((a.matmul(&x).unwrap().max_abs_diff(&b)) < 1e-12);
        let inv = a.inverse().unwrap();
        assert!(a.matmul(&inv).unwrap().max_abs_diff(&Mat::identity(2)) < 1e-12);
    }

    #[test]
    fn real_errors() {
        let s = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(s.inverse(), Err(LinalgError::Singular { .. })));
        assert!(matches!(Lu::new(&Mat::zeros(2, 3)), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn condition_estimate_tracks_diagonal_spread() {
        let well = Lu::new(&Mat::identity(3)).unwrap();
        assert_eq!((well.condition_estimate()).to_bits(), 1.0f64.to_bits());
        let skewed = Lu::new(&Mat::from_diag(&[1.0, 1e-12])).unwrap();
        let cond = skewed.condition_estimate();
        assert!((cond - 1e12).abs() / 1e12 < 1e-9, "cond {cond}");
        let tiny = Lu::new(&Mat::from_diag(&[1.0, 1e-300])).unwrap();
        assert!(tiny.condition_estimate() > 1e290);
    }

    #[test]
    fn real_solve_random_system_residual() {
        // A fixed pseudo-random well-conditioned system.
        let n = 12;
        let a = Mat::from_fn(n, n, |i, j| {
            let v = ((i * 31 + j * 17 + 7) % 23) as f64 / 23.0 - 0.5;
            if i == j {
                v + 5.0
            } else {
                v
            }
        });
        let xs = Mat::from_fn(n, 3, |i, j| (i + j) as f64 * 0.1 - 0.4);
        let b = a.matmul(&xs).unwrap();
        let x = a.solve(&b).unwrap();
        assert!(x.max_abs_diff(&xs) < 1e-10);
    }

    #[test]
    fn complex_solve_and_inverse() {
        let i = Complex64::I;
        let a = CMat::from_rows(&[
            &[Complex64::new(2.0, 1.0), Complex64::new(0.0, -1.0)],
            &[Complex64::new(1.0, 0.0), Complex64::new(3.0, 2.0)],
        ]);
        let b = CMat::col_vector(&[Complex64::ONE, i]);
        let x = a.solve(&b).unwrap();
        assert!(a.matmul(&x).unwrap().max_abs_diff(&b) < 1e-12);
        let inv = a.inverse().unwrap();
        assert!(a.matmul(&inv).unwrap().max_abs_diff(&CMat::identity(2)) < 1e-12);
    }

    #[test]
    fn complex_errors() {
        let z = CMat::zeros(2, 2);
        assert!(matches!(Lu::new(&z), Err(LinalgError::Singular { .. })));
        assert!(matches!(Lu::new(&CMat::zeros(2, 3)), Err(LinalgError::NotSquare { .. })));
        let a = CMat::identity(2);
        let lu = Lu::new(&a).unwrap();
        assert!(lu.solve_vec(&[Complex64::ONE]).is_err());
        assert!(lu.solve(&CMat::zeros(3, 1)).is_err());
    }

    #[test]
    fn complex_larger_system_residual() {
        let n = 10;
        let a = CMat::from_fn(n, n, |i, j| {
            let re = ((i * 13 + j * 7 + 3) % 17) as f64 / 17.0 - 0.5;
            let im = ((i * 5 + j * 11 + 1) % 19) as f64 / 19.0 - 0.5;
            let mut z = Complex64::new(re, im);
            if i == j {
                z += Complex64::new(4.0, 0.0);
            }
            z
        });
        let inv = a.inverse().unwrap();
        let err = a.matmul(&inv).unwrap().max_abs_diff(&CMat::identity(n));
        assert!(err < 1e-11, "residual {err}");
    }
}
