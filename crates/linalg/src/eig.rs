//! Eigenvalues of real matrices, built on the Hessenberg reduction and the
//! Schur iteration.

use crate::{Complex64, Mat, Result};

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
    // Hessenberg reduction at the real field (a quarter of the complex
    // flops, the same result bit for bit), then the eigenvalue-only complex
    // QR iteration directly on the reduced form.
    let h = crate::hessenberg::hessenberg(a, None)?;
    crate::schur::hessenberg_eigenvalues(h.to_complex())
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
    fn rejects_non_square() {
        assert!(eigenvalues(&Mat::zeros(1, 2)).is_err());
    }
}
