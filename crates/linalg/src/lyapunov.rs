//! Sylvester and Lyapunov equation solvers (Bartels–Stewart on the complex
//! Schur form).
//!
//! Controllability Gramians — the weights of the perturbation norm in the
//! passivity enforcement loop (eq. 10–11 and 19–20 of the paper) — are
//! solutions of the Lyapunov equation `A·P + P·Aᵀ + B·Bᵀ = 0`.

use crate::schur::complex_schur;
use crate::{CMat, Complex64, LinalgError, Mat, Result};

/// Solves the complex Sylvester equation `A·X + X·B = C`.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] on
/// malformed input and [`LinalgError::Singular`] when the spectra of `A` and
/// `−B` intersect (no unique solution).
pub fn solve_sylvester_complex(a: &CMat, b: &CMat, c: &CMat) -> Result<CMat> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "solve_sylvester: A", dims: a.shape() });
    }
    if !b.is_square() {
        return Err(LinalgError::NotSquare { context: "solve_sylvester: B", dims: b.shape() });
    }
    let n = a.rows();
    let m = b.rows();
    if c.shape() != (n, m) {
        return Err(LinalgError::DimensionMismatch {
            context: "solve_sylvester: C",
            left: (n, m),
            right: c.shape(),
        });
    }
    if n == 0 || m == 0 {
        return Ok(CMat::zeros(n, m));
    }

    let sa = complex_schur(a)?;
    let sb = complex_schur(b)?;
    let ta = &sa.t;
    let tb = &sb.t;
    // Transform the right-hand side: C~ = U_A^H · C · U_B.
    let ct = sa.u.hermitian().matmul(c)?.matmul(&sb.u)?;

    // Solve T_A·Y + Y·T_B = C~ column by column (both factors upper
    // triangular); the right-hand-side buffer is reused across columns.
    let mut y = CMat::zeros(n, m);
    let scale = ta.max_abs().max(tb.max_abs()).max(f64::MIN_POSITIVE);
    let mut rhs = vec![Complex64::ZERO; n];
    for k in 0..m {
        // Right-hand side for column k: c~_k − Σ_{j<k} T_B[j,k]·y_j.
        for (dst, src) in rhs.iter_mut().zip(ct.col_iter(k)) {
            *dst = src;
        }
        for j in 0..k {
            let t_jk = tb[(j, k)];
            // audit:allow(float-eq): exact-zero coefficient skips a no-op accumulation
            if t_jk.abs() == 0.0 {
                continue;
            }
            for (r, yij) in rhs.iter_mut().zip(y.col_iter(j)) {
                *r -= t_jk * yij;
            }
        }
        // Back substitution with the upper-triangular matrix T_A + T_B[k,k]·I.
        let lambda = tb[(k, k)];
        for i in (0..n).rev() {
            let mut acc = rhs[i];
            for j in (i + 1)..n {
                acc -= ta[(i, j)] * y[(j, k)];
            }
            let d = ta[(i, i)] + lambda;
            if d.abs() <= f64::EPSILON * scale * 4.0 {
                return Err(LinalgError::Singular {
                    context: "solve_sylvester: spectra of A and -B intersect",
                });
            }
            y[(i, k)] = acc / d;
        }
    }

    // Back transform: X = U_A · Y · U_B^H.
    sa.u.matmul(&y)?.matmul(&sb.u.hermitian())
}

/// Solves the real Sylvester equation `A·X + X·B = C`.
///
/// Internally uses the complex Schur path and returns the real part of the
/// (unique, hence real) solution.
///
/// # Errors
///
/// See [`solve_sylvester_complex`].
pub fn solve_sylvester(a: &Mat, b: &Mat, c: &Mat) -> Result<Mat> {
    let x = solve_sylvester_complex(&a.to_complex(), &b.to_complex(), &c.to_complex())?;
    Ok(x.real())
}

/// Solves the continuous-time Lyapunov equation `A·X + X·Aᵀ + Q = 0`.
///
/// For a Hurwitz `A` and symmetric positive semi-definite `Q` the solution is
/// symmetric positive semi-definite; the returned matrix is explicitly
/// symmetrized to remove roundoff asymmetry.
///
/// # Errors
///
/// See [`solve_sylvester_complex`].
///
/// ```
/// use pim_linalg::{Mat, lyapunov::solve_lyapunov};
/// # fn main() -> Result<(), pim_linalg::LinalgError> {
/// let a = Mat::from_diag(&[-1.0, -2.0]);
/// let q = Mat::identity(2);
/// let x = solve_lyapunov(&a, &q)?;
/// // For diagonal A: X_ii = q_ii / (-2 a_ii)
/// assert!((x[(0, 0)] - 0.5).abs() < 1e-12);
/// assert!((x[(1, 1)] - 0.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_lyapunov(a: &Mat, q: &Mat) -> Result<Mat> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "solve_lyapunov: A", dims: a.shape() });
    }
    if q.shape() != a.shape() {
        return Err(LinalgError::DimensionMismatch {
            context: "solve_lyapunov: Q",
            left: a.shape(),
            right: q.shape(),
        });
    }
    let mut x = solve_sylvester(a, &a.transpose(), &q.scaled(-1.0))?;
    // Symmetrize in place.
    let n = x.rows();
    for i in 0..n {
        for j in (i + 1)..n {
            let avg = 0.5 * (x[(i, j)] + x[(j, i)]);
            x[(i, j)] = avg;
            x[(j, i)] = avg;
        }
    }
    Ok(x)
}

/// Controllability Gramian `P` of the pair `(A, B)`: the solution of
/// `A·P + P·Aᵀ + B·Bᵀ = 0`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `B` has a different row
/// count than `A`, plus the errors of [`solve_lyapunov`].
pub fn controllability_gramian(a: &Mat, b: &Mat) -> Result<Mat> {
    if b.rows() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            context: "controllability_gramian",
            left: a.shape(),
            right: b.shape(),
        });
    }
    let bbt = b.matmul(&b.transpose())?;
    solve_lyapunov(a, &bbt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_stable(n: usize, seed: u64) -> Mat {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        Mat::from_fn(n, n, |i, j| {
            let v = next();
            if i == j {
                v - 3.0
            } else {
                v * 0.5
            }
        })
    }

    #[test]
    fn sylvester_residual_random() {
        for n in [2usize, 4, 7] {
            let a = random_stable(n, 11 + n as u64);
            let b = random_stable(n, 77 + n as u64);
            let c = Mat::from_fn(n, n, |i, j| (i as f64 - j as f64) * 0.3 + 1.0);
            let x = solve_sylvester(&a, &b, &c).unwrap();
            let resid = &(&a.matmul(&x).unwrap() + &x.matmul(&b).unwrap()) - &c;
            assert!(resid.max_abs() < 1e-9, "residual {}", resid.max_abs());
        }
    }

    #[test]
    fn sylvester_rectangular_solution() {
        let a = random_stable(3, 5);
        let b = random_stable(5, 6);
        let c = Mat::from_fn(3, 5, |i, j| (i + j) as f64);
        let x = solve_sylvester(&a, &b, &c).unwrap();
        assert_eq!(x.shape(), (3, 5));
        let resid = &(&a.matmul(&x).unwrap() + &x.matmul(&b).unwrap()) - &c;
        assert!(resid.max_abs() < 1e-9);
    }

    #[test]
    fn lyapunov_residual_and_symmetry() {
        for n in [2usize, 5, 9] {
            let a = random_stable(n, 100 + n as u64);
            let b = Mat::from_fn(n, 2, |i, j| (i as f64 * 0.7 - j as f64).cos());
            let p = controllability_gramian(&a, &b).unwrap();
            assert!(p.is_symmetric(1e-10));
            let resid = &(&a.matmul(&p).unwrap() + &p.matmul(&a.transpose()).unwrap())
                + &b.matmul(&b.transpose()).unwrap();
            assert!(resid.max_abs() < 1e-9, "residual {}", resid.max_abs());
            // Gramian of a controllable stable system should be PSD.
            let e = crate::eig::symmetric_eig(&p).unwrap();
            assert!(e.values[0] > -1e-10);
        }
    }

    #[test]
    fn lyapunov_known_diagonal_solution() {
        let a = Mat::from_diag(&[-1.0, -0.5]);
        let q = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]);
        let x = solve_lyapunov(&a, &q).unwrap();
        assert!((x[(0, 0)] - 1.0).abs() < 1e-12);
        assert!((x[(1, 1)] - 3.0).abs() < 1e-12);
        assert!(x[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn singular_when_spectra_overlap() {
        // A and -B share the eigenvalue 1 -> no unique solution.
        let a = Mat::from_diag(&[1.0, 2.0]);
        let b = Mat::from_diag(&[-1.0, -5.0]);
        let c = Mat::identity(2);
        assert!(matches!(solve_sylvester(&a, &b, &c), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn argument_validation() {
        let a = Mat::identity(2);
        assert!(solve_lyapunov(&a, &Mat::zeros(3, 3)).is_err());
        assert!(solve_lyapunov(&Mat::zeros(2, 3), &Mat::zeros(2, 2)).is_err());
        assert!(controllability_gramian(&a, &Mat::zeros(3, 1)).is_err());
        assert!(solve_sylvester(&a, &a, &Mat::zeros(1, 1)).is_err());
    }

    #[test]
    fn gramian_energy_interpretation_single_pole() {
        // Single pole system: dx/dt = -a x + u, gramian = 1/(2a).
        let a = Mat::from_diag(&[-4.0]);
        let b = Mat::col_vector(&[1.0]);
        let p = controllability_gramian(&a, &b).unwrap();
        assert!((p[(0, 0)] - 1.0 / 8.0).abs() < 1e-13);
    }
}
