//! Singular value decomposition of complex matrices by the one-sided Jacobi
//! method.
//!
//! The passivity characterization of a scattering macromodel is a sweep of
//! `σ_max(S(jω))` over frequency, and the linearized passivity constraints of
//! the enforcement loop need both the singular values and the associated
//! left/right singular vectors. The matrices involved are small (P×P with P
//! the port count), so the simple and very accurate one-sided Jacobi
//! iteration is a good fit.

use crate::{CMat, Complex64, LinalgError, Result};

/// Singular value decomposition `A = U·Σ·Vᴴ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (`m × r`, orthonormal columns), `r = min(m, n)`.
    pub u: CMat,
    /// Singular values in descending order (`r` entries, non-negative).
    pub singular_values: Vec<f64>,
    /// Right singular vectors (`n × r`, orthonormal columns).
    pub v: CMat,
}

impl Svd {
    /// Largest singular value (`0.0` for an empty decomposition).
    pub fn sigma_max(&self) -> f64 {
        self.singular_values.first().copied().unwrap_or(0.0)
    }

    /// Reconstructs `U·Σ·Vᴴ` (diagnostic helper).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the matrix products.
    pub fn reconstruct(&self) -> Result<CMat> {
        let r = self.singular_values.len();
        let sigma = CMat::from_fn(r, r, |i, j| {
            if i == j {
                Complex64::from_real(self.singular_values[i])
            } else {
                Complex64::ZERO
            }
        });
        self.u.matmul(&sigma)?.matmul(&self.v.hermitian())
    }
}

/// Maximum number of Jacobi sweeps before declaring non-convergence.
const MAX_SWEEPS: usize = 60;

/// Computes the singular value decomposition of a complex matrix by one-sided
/// Jacobi rotations applied to the columns.
///
/// Works for any shape; when `m < n` the decomposition of `Aᴴ` is computed
/// internally and the factors are swapped.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] for empty input and
/// [`LinalgError::NonConvergence`] if the sweep limit is exhausted.
///
/// ```
/// use pim_linalg::{CMat, Complex64, svd::svd};
/// # fn main() -> Result<(), pim_linalg::LinalgError> {
/// let a = CMat::from_diag(&[Complex64::new(0.0, 3.0), Complex64::new(4.0, 0.0)]);
/// let d = svd(&a)?;
/// assert!((d.singular_values[0] - 4.0).abs() < 1e-12);
/// assert!((d.singular_values[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn svd(a: &CMat) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::InvalidArgument { context: "svd: empty matrix" });
    }
    if m < n {
        // Decompose the Hermitian transpose and swap factors.
        let d = svd(&a.hermitian())?;
        return Ok(Svd { u: d.v, singular_values: d.singular_values, v: d.u });
    }

    // Work on a copy of A; V accumulates the right rotations.
    let mut w = a.clone();
    let mut v = CMat::identity(n);
    let scale = w.max_abs().max(f64::MIN_POSITIVE);
    let tol = f64::EPSILON * (m as f64).sqrt();

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off_diagonal = false;
        for p in 0..n {
            for q in (p + 1)..n {
                // Column inner products.
                let mut app = 0.0_f64;
                let mut aqq = 0.0_f64;
                let mut apq = Complex64::ZERO;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp.abs_sq();
                    aqq += wq.abs_sq();
                    apq += wp.conj() * wq;
                }
                if apq.abs() <= tol * (app * aqq).sqrt() + f64::EPSILON * scale * scale {
                    continue;
                }
                off_diagonal = true;
                // 2x2 Hermitian eigenproblem [[app, apq], [apq^*, aqq]].
                // Factor out the phase of apq to reduce to a real rotation.
                let alpha = apq.abs();
                let phase = apq.scale(1.0 / alpha); // e^{i·arg(apq)}
                let theta = (aqq - app) / (2.0 * alpha);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotation: new_p = c·p - s·phase^*·q ; new_q = s·phase·p + c·q
                // (the unit-modulus factor `phase` aligns the column inner
                // product with the real axis so a real Jacobi angle applies).
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = wp.scale(c) - phase.conj() * wq.scale(s);
                    w[(i, q)] = phase * wp.scale(s) + wq.scale(c);
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = vp.scale(c) - phase.conj() * vq.scale(s);
                    v[(i, q)] = phase * vp.scale(s) + vq.scale(c);
                }
            }
        }
        if !off_diagonal {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NonConvergence {
            context: "svd Jacobi sweeps",
            iterations: MAX_SWEEPS,
        });
    }

    // Singular values are the column norms of W; U is W with normalized columns.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> =
        (0..n).map(|j| (0..m).map(|i| w[(i, j)].abs_sq()).sum::<f64>().sqrt()).collect();
    order.sort_by(|&x, &y| norms[y].total_cmp(&norms[x]));

    let mut u = CMat::zeros(m, n);
    let mut vv = CMat::zeros(n, n);
    let mut singular_values = Vec::with_capacity(n);
    let max_norm = norms.iter().fold(0.0_f64, |a, &b| a.max(b));
    let rank_tol = f64::EPSILON * (m.max(n) as f64) * max_norm;
    for (dst, &src) in order.iter().enumerate() {
        let sv = norms[src];
        singular_values.push(sv);
        if sv > rank_tol {
            for i in 0..m {
                u[(i, dst)] = w[(i, src)].scale(1.0 / sv);
            }
        } else {
            // Degenerate (numerically null) column: the direction stored in W
            // is dominated by roundoff. Rebuild an orthonormal completion by
            // Gram-Schmidt of canonical basis vectors against the columns
            // already placed in U.
            'candidates: for e in 0..m {
                let mut cand = vec![Complex64::ZERO; m];
                cand[e] = Complex64::ONE;
                for j in 0..dst {
                    let mut proj = Complex64::ZERO;
                    for i in 0..m {
                        proj += u[(i, j)].conj() * cand[i];
                    }
                    for i in 0..m {
                        let d = proj * u[(i, j)];
                        cand[i] -= d;
                    }
                }
                let nrm = cand.iter().map(|z| z.abs_sq()).sum::<f64>().sqrt();
                if nrm > 0.5 {
                    for i in 0..m {
                        u[(i, dst)] = cand[i].scale(1.0 / nrm);
                    }
                    break 'candidates;
                }
            }
        }
        for i in 0..n {
            vv[(i, dst)] = v[(i, src)];
        }
    }
    Ok(Svd { u, singular_values, v: vv })
}

/// Convenience wrapper returning only the singular values (descending).
///
/// # Errors
///
/// See [`svd`].
pub fn singular_values(a: &CMat) -> Result<Vec<f64>> {
    Ok(svd(a)?.singular_values)
}

/// Convenience wrapper returning only the largest singular value.
///
/// # Errors
///
/// See [`svd`].
pub fn sigma_max(a: &CMat) -> Result<f64> {
    Ok(svd(a)?.sigma_max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    fn random_cmat(m: usize, n: usize, seed: u64) -> CMat {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        CMat::from_fn(m, n, |_, _| Complex64::new(next(), next()))
    }

    fn check_svd(a: &CMat, d: &Svd, tol: f64) {
        let r = d.singular_values.len();
        assert_eq!(r, a.rows().min(a.cols()));
        // Descending, non-negative.
        assert!(d.singular_values.windows(2).all(|w| w[0] >= w[1] - 1e-15));
        assert!(d.singular_values.iter().all(|&s| s >= 0.0));
        // Orthonormal columns.
        let uu = d.u.hermitian().matmul(&d.u).unwrap();
        assert!(uu.max_abs_diff(&CMat::identity(r)) < tol, "U not orthonormal");
        let vv = d.v.hermitian().matmul(&d.v).unwrap();
        assert!(vv.max_abs_diff(&CMat::identity(r)) < tol, "V not orthonormal");
        // Reconstruction.
        assert!(d.reconstruct().unwrap().max_abs_diff(a) < tol * 10.0);
    }

    #[test]
    fn svd_of_random_square_and_rectangular() {
        for (m, n) in [(1, 1), (2, 2), (4, 4), (6, 3), (3, 6), (8, 8), (10, 4)] {
            let a = random_cmat(m, n, (m * 31 + n) as u64);
            let d = svd(&a).unwrap();
            check_svd(&a, &d, 1e-10);
        }
    }

    #[test]
    fn singular_values_of_real_diagonal() {
        let a = Mat::from_diag(&[-5.0, 2.0, 0.0]).to_complex();
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 2.0).abs() < 1e-12);
        assert!(s[2].abs() < 1e-12);
    }

    #[test]
    fn sigma_max_of_unitary_matrix_is_one() {
        // A unitary 2x2 matrix: all singular values are exactly 1.
        let t = std::f64::consts::FRAC_PI_3;
        let a = CMat::from_rows(&[
            &[Complex64::new(t.cos(), 0.0), Complex64::new(t.sin(), 0.0)],
            &[Complex64::new(-t.sin(), 0.0), Complex64::new(t.cos(), 0.0)],
        ]);
        let s = singular_values(&a).unwrap();
        assert!((s[0] - 1.0).abs() < 1e-12 && (s[1] - 1.0).abs() < 1e-12);
        assert!((sigma_max(&a).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_matches_eigenvalues_of_gram_matrix() {
        let a = random_cmat(5, 5, 777);
        let d = svd(&a).unwrap();
        // The squared singular values are the eigenvalues of A^H A (Hermitian).
        let gram = a.hermitian().matmul(&a).unwrap();
        // Use the trace identity: sum sigma_i^2 = tr(A^H A).
        let sum_sq: f64 = d.singular_values.iter().map(|s| s * s).sum();
        assert!((sum_sq - gram.trace().re).abs() < 1e-10);
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-1 outer product.
        let u = CMat::col_vector(&[Complex64::new(1.0, 0.0), Complex64::new(0.0, 2.0)]);
        let v = CMat::col_vector(&[Complex64::new(3.0, 0.0), Complex64::new(0.0, -1.0)]);
        let a = u.matmul(&v.hermitian()).unwrap();
        let d = svd(&a).unwrap();
        assert!(d.singular_values[1] < 1e-12);
        check_svd(&a, &d, 1e-10);
    }

    #[test]
    fn svd_rejects_empty() {
        assert!(svd(&CMat::zeros(0, 0)).is_err());
    }
}
