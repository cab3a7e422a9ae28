//! Householder QR factorization and linear least squares.
//!
//! Vector Fitting assembles (possibly large and moderately ill-conditioned)
//! overdetermined real linear systems; they are solved here through a
//! Householder QR factorization without explicit formation of `Q`, which is
//! both faster and more accurate than normal equations.

use crate::{LinalgError, Mat, Result};

/// Householder QR factorization of an `m × n` real matrix with `m ≥ n`.
///
/// The factor `R` (upper triangular `n × n`) and the Householder reflectors
/// are stored compactly; [`QrFactor::solve_least_squares`] applies the
/// reflectors to a right-hand side and back-substitutes.
///
/// The packed factorization is stored **column-major**: the Householder
/// elimination and the reflector applications walk whole columns, so this
/// layout makes every inner loop a contiguous slice operation (the dominant
/// cost of the Vector Fitting regression solves).
#[derive(Debug, Clone)]
pub struct QrFactor {
    /// Packed factorization, column-major (`column j` at `j*rows..(j+1)*rows`):
    /// R in the upper triangle, reflector vectors below.
    qr: Vec<f64>,
    /// Scalar coefficients of the Householder reflectors.
    tau: Vec<f64>,
    rows: usize,
    cols: usize,
}

/// Dot product with four independent accumulators, so the reduction
/// vectorizes despite strict floating-point evaluation order per lane.
#[inline]
fn dot4(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0_f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let (x, y) = (&a[4 * i..4 * i + 4], &b[4 * i..4 * i + 4]);
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0;
    for i in 4 * chunks..a.len() {
        tail += a[i] * b[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Euclidean norm via a vectorized sum of squares, falling back to a scaled
/// accumulation when the plain sum over- or underflows. `hypot` per element
/// would be robust too, but costs a slow libm call per entry and dominated
/// the factorization profile.
#[inline]
fn nrm2(v: &[f64]) -> f64 {
    let sumsq = dot4(v, v);
    if sumsq.is_finite() && sumsq > f64::MIN_POSITIVE {
        sumsq.sqrt()
    } else {
        let max = v.iter().fold(0.0_f64, |m, x| m.max(x.abs()));
        // audit:allow(float-eq): exact-zero column norm means a zero Householder vector
        if max == 0.0 {
            return 0.0;
        }
        let inv = 1.0 / max;
        let s: f64 = v
            .iter()
            .map(|x| {
                let y = x * inv;
                y * y
            })
            .sum();
        max * s.sqrt()
    }
}

impl QrFactor {
    /// Factorizes `a` (which must have at least as many rows as columns).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] when `m < n` or the matrix is
    /// empty.
    pub fn new(a: &Mat) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::InvalidArgument { context: "QrFactor::new: empty matrix" });
        }
        if m < n {
            return Err(LinalgError::InvalidArgument {
                context: "QrFactor::new: system must have at least as many rows as columns",
            });
        }
        // Transpose into column-major working storage.
        let mut qr = vec![0.0; m * n];
        for (j, col) in qr.chunks_exact_mut(m).enumerate() {
            for (dst, src) in col.iter_mut().zip(a.col_iter(j)) {
                *dst = src;
            }
        }
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Columns k (the pivot) and k+1.. (the remainder) as disjoint
            // contiguous slices.
            let (head, rest) = qr.split_at_mut((k + 1) * m);
            let colk = &mut head[k * m..];
            // Householder vector for column k, rows k..m.
            let norm = nrm2(&colk[k..]);
            // audit:allow(float-eq): exact-zero column norm leaves the reflector identity
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if colk[k] >= 0.0 { -norm } else { norm };
            // v = x - alpha * e1, stored normalized so v[k] = 1.
            let v0 = colk[k] - alpha;
            for v in &mut colk[(k + 1)..] {
                *v /= v0;
            }
            tau[k] = -v0 / alpha;
            colk[k] = alpha;
            // Apply reflector to remaining columns: A <- (I - tau v v^T) A.
            let v_tail = &colk[(k + 1)..];
            for colj in rest.chunks_exact_mut(m) {
                let mut dot = colj[k] + dot4(v_tail, &colj[(k + 1)..]);
                dot *= tau[k];
                colj[k] -= dot;
                for (cj, &vi) in colj[(k + 1)..].iter_mut().zip(v_tail) {
                    *cj -= dot * vi;
                }
            }
        }
        Ok(QrFactor { qr, tau, rows: m, cols: n })
    }

    /// Entry `(i, j)` of the packed factorization.
    #[inline]
    fn packed(&self, i: usize, j: usize) -> f64 {
        self.qr[j * self.rows + i]
    }

    /// Returns the upper-triangular factor `R` (`n × n`).
    pub fn r(&self) -> Mat {
        Mat::from_fn(self.cols, self.cols, |i, j| if j >= i { self.packed(i, j) } else { 0.0 })
    }

    /// Applies `Qᵀ` to a vector of length `m`.
    fn apply_qt(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.apply_qt_in_place(&mut y);
        y
    }

    /// Applies `Qᵀ` to a vector of length `m`, in place.
    ///
    /// This exposes the Householder reflectors for callers that factor a
    /// shared column block once and transform many additional columns
    /// against it (the Vector Fitting pole-relocation compression).
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from the factored row count.
    pub fn apply_qt_in_place(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.rows, "apply_qt_in_place length mismatch");
        for k in 0..self.cols {
            // audit:allow(float-eq): tau is stored as literal 0.0 for identity reflectors
            if self.tau[k] == 0.0 {
                continue;
            }
            let v_tail = &self.qr[k * self.rows + k + 1..(k + 1) * self.rows];
            let mut dot = y[k] + dot4(v_tail, &y[(k + 1)..]);
            dot *= self.tau[k];
            y[k] -= dot;
            for (yi, &vi) in y[(k + 1)..].iter_mut().zip(v_tail) {
                *yi -= dot * vi;
            }
        }
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Solves the least squares problem `min ‖A·x − b‖₂`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != m` and
    /// [`LinalgError::Singular`] if `R` has a (numerically) zero diagonal
    /// entry, indicating rank deficiency.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "QrFactor::solve_least_squares",
                left: (self.rows, self.cols),
                right: (b.len(), 1),
            });
        }
        let y = self.apply_qt(b);
        let mut x = vec![0.0; self.cols];
        let max_abs = self.qr.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let tol = f64::EPSILON * self.rows as f64 * max_abs;
        for i in (0..self.cols).rev() {
            let mut acc = y[i];
            for (j, xj) in x.iter().enumerate().skip(i + 1) {
                acc -= self.packed(i, j) * xj;
            }
            let d = self.packed(i, i);
            if d.abs() <= tol {
                return Err(LinalgError::Singular { context: "QrFactor::solve_least_squares" });
            }
            x[i] = acc / d;
        }
        Ok(x)
    }
}

/// Least squares with column equilibration and (optional) Tikhonov
/// regularization: solves `min ‖A·x − b‖² + λ²‖Dx‖²` where `D` rescales every
/// column of `A` to unit norm and `λ = lambda_rel · ‖A‖`.
///
/// Column scaling makes the solve robust to the extreme dynamic ranges of
/// frequency-domain regression matrices (kHz–GHz bases), and the
/// regularization returns a small-norm solution when the problem is rank
/// deficient (e.g. an over-parameterized Vector Fitting scaling function)
/// instead of failing.
///
/// # Errors
///
/// See [`QrFactor::new`]; with `lambda_rel > 0` the solve itself cannot be
/// rank deficient.
pub fn lstsq_scaled(a: &Mat, b: &[f64], lambda_rel: f64) -> Result<Vec<f64>> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::InvalidArgument { context: "lstsq_scaled: empty matrix" });
    }
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            context: "lstsq_scaled",
            left: (m, n),
            right: (b.len(), 1),
        });
    }
    // Column norms via row-wise sum-of-squares accumulation (unit fallback
    // for identically zero columns). Columns whose plain sum of squares
    // over- or underflows are recomputed through the scaled `nrm2` path.
    let mut norms = vec![0.0_f64; n];
    for row in a.as_slice().chunks_exact(n) {
        for (s, &v) in norms.iter_mut().zip(row) {
            *s += v * v;
        }
    }
    let mut colbuf = Vec::new();
    for (j, nj) in norms.iter_mut().enumerate() {
        if nj.is_finite() && *nj > f64::MIN_POSITIVE {
            *nj = nj.sqrt();
        } else {
            colbuf.clear();
            colbuf.extend(a.col_iter(j));
            let norm = nrm2(&colbuf);
            *nj = if norm == 0.0 { 1.0 } else { norm }; // audit:allow(float-eq): exact-zero column norm falls back to unit scaling
        }
    }
    let extra = if lambda_rel > 0.0 { n } else { 0 };
    let lambda = lambda_rel;
    let mut scaled = Mat::zeros(m + extra, n);
    for i in 0..m {
        for j in 0..n {
            scaled[(i, j)] = a[(i, j)] / norms[j];
        }
    }
    let mut rhs = vec![0.0; m + extra];
    rhs[..m].copy_from_slice(b);
    if extra > 0 {
        for j in 0..n {
            scaled[(m + j, j)] = lambda;
        }
    }
    let y = QrFactor::new(&scaled)?.solve_least_squares(&rhs)?;
    Ok(y.iter().zip(&norms).map(|(v, nj)| v / nj).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_system_exact_solution() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = vec![1.0, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = QrFactor::new(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_consistent_system() {
        // Fit y = 2 + 3 t exactly through points that lie on the line.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Mat::from_fn(ts.len(), 2, |i, j| if j == 0 { 1.0 } else { ts[i] });
        let b: Vec<f64> = ts.iter().map(|t| 2.0 + 3.0 * t).collect();
        let x = QrFactor::new(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_inconsistent_minimizes_residual() {
        // Classic regression: the QR solution must match the normal equations.
        let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = vec![0.1, 0.9, 2.2, 2.9];
        let x = QrFactor::new(&a).unwrap().solve_least_squares(&b).unwrap();
        // Normal equations solution computed analytically.
        let ata = a.transpose().matmul(&a).unwrap();
        let atb = a.transpose().matvec(&b).unwrap();
        let x_ne = ata.solve(&Mat::col_vector(&atb)).unwrap();
        assert!((x[0] - x_ne[(0, 0)]).abs() < 1e-10);
        assert!((x[1] - x_ne[(1, 0)]).abs() < 1e-10);
        // Perturbing the solution must not reduce the residual.
        let residual = |x: &[f64]| -> f64 {
            a.matvec(x).unwrap().iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum()
        };
        assert!(residual(&[x[0] + 1e-3, x[1]]) >= residual(&x));
    }

    #[test]
    fn r_factor_is_upper_triangular_and_consistent() {
        let a = Mat::from_fn(6, 3, |i, j| ((i * 7 + j * 3 + 1) % 11) as f64 - 5.0);
        let f = QrFactor::new(&a).unwrap();
        let r = f.r();
        for i in 0..3 {
            for j in 0..i {
                assert_eq!((r[(i, j)]).to_bits(), 0.0f64.to_bits());
            }
        }
        // R^T R = A^T A, since Q has orthonormal columns.
        let ata = a.transpose().matmul(&a).unwrap();
        let rtr = r.transpose().matmul(&r).unwrap();
        assert!(rtr.max_abs_diff(&ata) < 1e-10 * ata.max_abs());
    }

    #[test]
    fn rank_deficient_is_detected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let r = QrFactor::new(&a).unwrap().solve_least_squares(&[1.0, 2.0, 3.0]);
        assert!(matches!(r, Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn argument_validation() {
        assert!(QrFactor::new(&Mat::zeros(2, 3)).is_err());
        let f = QrFactor::new(&Mat::identity(3)).unwrap();
        assert!(f.solve_least_squares(&[1.0]).is_err());
    }

    #[test]
    fn moderately_large_wellconditioned_problem() {
        let m = 120;
        let n = 20;
        let a = Mat::from_fn(m, n, |i, j| {
            ((i as f64 + 1.0) * 0.05).powi(j as i32 % 4) + if i % n == j { 2.0 } else { 0.0 }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = QrFactor::new(&a).unwrap().solve_least_squares(&b).unwrap();
        let err: f64 = x.iter().zip(&x_true).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "max error {err}");
    }
}
#[cfg(test)]
mod scaled_tests {
    use super::*;

    #[test]
    fn scaled_solve_matches_plain_solve_when_well_posed() {
        let a = Mat::from_rows(&[&[1.0, 1e8], &[1.0, 2e8], &[1.0, 3e8], &[1.0, 4e8]]);
        let x_true = [2.0, 3e-8];
        let b = a.matvec(&x_true).unwrap();
        let x = lstsq_scaled(&a, &b, 0.0).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9 && (x[1] - 3e-8).abs() < 1e-16);
    }

    #[test]
    fn regularized_solve_handles_rank_deficiency() {
        // Two identical columns: plain QR solve fails, regularized succeeds
        // and splits the coefficient between the columns.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = vec![2.0, 4.0, 6.0];
        assert!(QrFactor::new(&a).unwrap().solve_least_squares(&b).is_err());
        let x = lstsq_scaled(&a, &b, 1e-8).unwrap();
        assert!((x[0] + x[1] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn scaled_solve_survives_extreme_column_magnitudes() {
        // A column whose squared entries overflow f64: the equilibration must
        // fall back to the scaled norm instead of producing inf/NaN scaling.
        let big = 1e160;
        let a = Mat::from_rows(&[&[1.0, big], &[1.0, 2.0 * big], &[1.0, 3.0 * big]]);
        let x_true = [2.0, 1.0 / big];
        let b = a.matvec(&x_true).unwrap();
        let x = lstsq_scaled(&a, &b, 0.0).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-9, "x0 {}", x[0]);
        assert!((x[1] - 1.0 / big).abs() < 1e-9 / big, "x1 {}", x[1]);
        // And a column far below the underflow threshold of the plain sum.
        let tiny = 1e-170;
        let a = Mat::from_rows(&[&[1.0, tiny], &[1.0, 2.0 * tiny], &[1.0, 3.0 * tiny]]);
        let x_true = [0.5, 1.0 / tiny];
        let b = a.matvec(&x_true).unwrap();
        let x = lstsq_scaled(&a, &b, 0.0).unwrap();
        assert!((x[0] - 0.5).abs() < 1e-9, "x0 {}", x[0]);
        assert!((x[1] * tiny - 1.0).abs() < 1e-9, "x1 {}", x[1]);
    }

    #[test]
    fn scaled_solve_argument_validation() {
        assert!(lstsq_scaled(&Mat::zeros(0, 0), &[], 0.0).is_err());
        assert!(lstsq_scaled(&Mat::identity(2), &[1.0], 0.0).is_err());
        // Zero column with regularization gives a zero coefficient.
        let a = Mat::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[1.0, 0.0]]);
        let x = lstsq_scaled(&a, &[1.0, 2.0, 1.0], 1e-10).unwrap();
        assert!(x[1].abs() < 1e-8);
    }
}
