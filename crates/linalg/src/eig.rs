//! Eigenvalue computations built on top of the Schur decomposition, plus a
//! cyclic Jacobi eigensolver for real symmetric matrices.

use crate::schur::complex_schur_eigenvalues;
use crate::{CMat, Complex64, LinalgError, Mat, Result};

/// Eigenvalues of a real square matrix (possibly complex, returned as
/// [`Complex64`]).
///
/// # Errors
///
/// See [`complex_schur`](crate::schur::complex_schur).
///
/// ```
/// use pim_linalg::{Mat, eig::eigenvalues};
/// # fn main() -> Result<(), pim_linalg::LinalgError> {
/// let a = Mat::from_rows(&[&[0.0, 1.0], &[-2.0, -3.0]]);
/// let mut ev: Vec<f64> = eigenvalues(&a)?.iter().map(|e| e.re).collect();
/// ev.sort_by(f64::total_cmp);
/// assert!((ev[0] + 2.0).abs() < 1e-10 && (ev[1] + 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn eigenvalues(a: &Mat) -> Result<Vec<Complex64>> {
    // Hessenberg reduction in real arithmetic (a quarter of the complex
    // flops, identical result on real input), then the eigenvalue-only
    // complex QR iteration directly on the reduced form.
    let h = crate::hessenberg::hessenberg_real_h_only(a)?;
    crate::schur::hessenberg_eigenvalues(h.to_complex())
}

/// Eigenvalues of a complex square matrix.
///
/// # Errors
///
/// See [`complex_schur`](crate::schur::complex_schur).
pub fn eigenvalues_complex(a: &CMat) -> Result<Vec<Complex64>> {
    complex_schur_eigenvalues(a)
}

/// Spectral radius (largest eigenvalue magnitude) of a real square matrix.
///
/// # Errors
///
/// See [`eigenvalues`].
pub fn spectral_radius(a: &Mat) -> Result<f64> {
    Ok(eigenvalues(a)?.iter().fold(0.0_f64, |m, e| m.max(e.abs())))
}

/// Eigendecomposition of a real symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymmetricEig {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthogonal eigenvector matrix; column `j` corresponds to `values[j]`.
    pub vectors: Mat,
}

/// Eigendecomposition of a real symmetric matrix by the cyclic Jacobi method.
///
/// The input is symmetrized as `(A + Aᵀ)/2`; use it only for matrices that are
/// symmetric up to roundoff (Gramians, normal matrices of least-squares
/// problems, ...).
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NonConvergence`] if the sweep limit is exhausted.
pub fn symmetric_eig(a: &Mat) -> Result<SymmetricEig> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "symmetric_eig", dims: a.shape() });
    }
    let n = a.rows();
    let mut m = Mat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut v = Mat::identity(n);
    if n <= 1 {
        let values = if n == 1 { vec![m[(0, 0)]] } else { vec![] };
        return Ok(SymmetricEig { values, vectors: v });
    }
    let max_sweeps = 60;
    for _sweep in 0..max_sweeps {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() <= 1e-14 * m.frobenius_norm().max(f64::MIN_POSITIVE) {
            let mut idx: Vec<usize> = (0..n).collect();
            let diag: Vec<f64> = (0..n).map(|i| m[(i, i)]).collect();
            idx.sort_by(|&x, &y| diag[x].total_cmp(&diag[y]));
            let values: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
            let vectors = Mat::from_fn(n, n, |r, c| v[(r, idx[c])]);
            return Ok(SymmetricEig { values, vectors });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Apply rotation to rows/columns p and q.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::NonConvergence {
        context: "symmetric_eig Jacobi sweeps",
        iterations: max_sweeps,
    })
}

/// Returns `true` if the symmetric matrix `a` is positive definite, judged by
/// its smallest eigenvalue exceeding `-tol · max(|λ|)`.
///
/// # Errors
///
/// See [`symmetric_eig`].
pub fn is_positive_definite(a: &Mat, tol: f64) -> Result<bool> {
    let e = symmetric_eig(a)?;
    if e.values.is_empty() {
        return Ok(true);
    }
    let max_abs = e.values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    Ok(e.values[0] > -tol * max_abs.max(1e-300))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigenvalues_of_companion_matrix() {
        // x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        let a = Mat::from_rows(&[&[6.0, -11.0, 6.0], &[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]);
        let mut ev: Vec<f64> = eigenvalues(&a).unwrap().iter().map(|e| e.re).collect();
        ev.sort_by(|x, y| x.total_cmp(y));
        assert!((ev[0] - 1.0).abs() < 1e-9);
        assert!((ev[1] - 2.0).abs() < 1e-9);
        assert!((ev[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn complex_eigenvalues_come_in_conjugate_pairs_for_real_input() {
        let a = Mat::from_rows(&[&[0.0, 1.0, 0.0], &[-1.0, -0.2, 0.5], &[0.3, 0.0, -2.0]]);
        let ev = eigenvalues(&a).unwrap();
        let sum_im: f64 = ev.iter().map(|e| e.im).sum();
        assert!(sum_im.abs() < 1e-10, "imaginary parts must cancel for real matrices");
        let trace: f64 = ev.iter().map(|e| e.re).sum();
        assert!((trace - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn spectral_radius_of_scaled_identity() {
        let a = Mat::identity(4).scaled(-2.5);
        assert!((spectral_radius(&a).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn symmetric_eig_diagonalizes() {
        let a = Mat::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]);
        let e = symmetric_eig(&a).unwrap();
        // Reconstruct A = V D V^T
        let d = Mat::from_diag(&e.values);
        let back = e.vectors.matmul(&d).unwrap().matmul(&e.vectors.transpose()).unwrap();
        assert!(back.max_abs_diff(&a) < 1e-10);
        // Ascending order
        assert!(e.values.windows(2).all(|w| w[0] <= w[1]));
        // Orthogonality
        let vtv = e.vectors.transpose().matmul(&e.vectors).unwrap();
        assert!(vtv.max_abs_diff(&Mat::identity(3)) < 1e-12);
    }

    #[test]
    fn symmetric_eig_known_values() {
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = symmetric_eig(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn positive_definiteness_check() {
        let spd = Mat::from_rows(&[&[2.0, -1.0], &[-1.0, 2.0]]);
        assert!(is_positive_definite(&spd, 1e-12).unwrap());
        let indef = Mat::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]);
        assert!(!is_positive_definite(&indef, 1e-12).unwrap());
        assert!(is_positive_definite(&Mat::zeros(0, 0), 1e-12).unwrap());
    }

    #[test]
    fn rejects_non_square() {
        assert!(symmetric_eig(&Mat::zeros(2, 3)).is_err());
        assert!(eigenvalues(&Mat::zeros(1, 2)).is_err());
    }

    #[test]
    fn eigenvalues_complex_matrix() {
        let a = CMat::from_diag(&[Complex64::new(1.0, 2.0), Complex64::new(-3.0, 0.5)]);
        let ev = eigenvalues_complex(&a).unwrap();
        let mut re: Vec<f64> = ev.iter().map(|e| e.re).collect();
        re.sort_by(|x, y| x.total_cmp(y));
        assert!((re[0] + 3.0).abs() < 1e-12 && (re[1] - 1.0).abs() < 1e-12);
    }
}
