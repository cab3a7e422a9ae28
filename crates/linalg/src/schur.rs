//! Complex Schur decomposition `A = U·T·Uᴴ` via the single-shift (Wilkinson)
//! QR iteration on the Hessenberg form.
//!
//! The Schur form carries the Bartels–Stewart solution of Lyapunov equations
//! for Gramian-weighted perturbation norms, and its diagonal relocates the
//! poles of Vector Fitting and the magnitude fit (from the real Hessenberg
//! form, whose exact zeros below the subdiagonal leave this module's own
//! reduction nothing to rotate). Other real spectra, the Hamiltonian
//! passivity test's among them, come from the real Francis iteration of
//! [`crate::eig::eigenvalues`].

use crate::hessenberg::{hessenberg, Givens};
use crate::{CMat, Complex64, LinalgError, Result};

/// Complex Schur decomposition of a square matrix.
#[derive(Debug, Clone)]
pub struct Schur {
    /// Upper-triangular Schur factor; its diagonal carries the eigenvalues.
    pub t: CMat,
    /// Unitary Schur vectors, `A = U·T·Uᴴ`.
    pub u: CMat,
}

impl Schur {
    /// Eigenvalues read off the diagonal of `T`.
    pub fn eigenvalues(&self) -> Vec<Complex64> {
        (0..self.t.rows()).map(|i| self.t[(i, i)]).collect()
    }
}

/// Maximum QR iterations allowed per eigenvalue before declaring failure.
const MAX_ITER_PER_EIGENVALUE: usize = 60;

/// Computes the complex Schur decomposition of a complex square matrix.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input,
/// [`LinalgError::InvalidArgument`] when an entry is NaN or infinite, and
/// [`LinalgError::NonConvergence`] if the QR iteration stalls.
///
/// ```
/// use pim_linalg::{CMat, Complex64, schur::complex_schur};
///
/// # fn main() -> Result<(), pim_linalg::LinalgError> {
/// let a = CMat::from_rows(&[
///     &[Complex64::new(0.0, 0.0), Complex64::new(-1.0, 0.0)],
///     &[Complex64::new(1.0, 0.0), Complex64::new(0.0, 0.0)],
/// ]);
/// let s = complex_schur(&a)?;
/// let mut ev = s.eigenvalues();
/// ev.sort_by(|a, b| a.im.total_cmp(&b.im));
/// assert!((ev[0].im + 1.0).abs() < 1e-12 && (ev[1].im - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn complex_schur(a: &CMat) -> Result<Schur> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "complex_schur", dims: a.shape() });
    }
    if !a.as_slice().iter().all(|z| z.is_finite()) {
        return Err(LinalgError::InvalidArgument {
            context: "complex_schur: non-finite matrix entry",
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Schur { t: CMat::zeros(0, 0), u: CMat::zeros(0, 0) });
    }
    let mut u = CMat::identity(n);
    let mut t = hessenberg(a, Some(&mut u))?;
    qr_iterate(&mut t, &mut u)?;
    // Clean the strictly lower triangle (roundoff only).
    for i in 0..n {
        for j in 0..i {
            t[(i, j)] = Complex64::ZERO;
        }
    }
    Ok(Schur { t, u })
}

/// Single-shift QR iteration driving a Hessenberg matrix to triangular form,
/// accumulating the rotations into `u`.
fn qr_iterate(t: &mut CMat, u: &mut CMat) -> Result<()> {
    let n = t.rows();
    if n <= 1 {
        return Ok(());
    }
    let norm_scale = t.max_abs().max(f64::MIN_POSITIVE);
    let eps = f64::EPSILON;
    let mut hi = n - 1;
    let mut iter_this_eig = 0usize;
    let mut total_iter = 0usize;
    let total_budget = MAX_ITER_PER_EIGENVALUE * n.max(4);
    let mut rotations: Vec<(usize, Givens<Complex64>)> = Vec::with_capacity(n);

    loop {
        // Deflate negligible subdiagonal entries.
        for i in 1..=hi {
            let threshold = eps * (t[(i - 1, i - 1)].abs() + t[(i, i)].abs()).max(norm_scale * eps);
            if t[(i, i - 1)].abs() <= threshold {
                t[(i, i - 1)] = Complex64::ZERO;
            }
        }
        // Shrink the active block from the bottom while subdiagonals are zero.
        // audit:allow(float-eq): deflation requires a bitwise-zero subdiagonal, set by the iteration
        while hi > 0 && t[(hi, hi - 1)].abs() == 0.0 {
            hi -= 1;
            iter_this_eig = 0;
        }
        if hi == 0 {
            break;
        }
        // Find the top of the active (unreduced) block.
        let mut lo = hi;
        // audit:allow(float-eq): active block ends at the bitwise-zero subdiagonal
        while lo > 0 && t[(lo, lo - 1)].abs() != 0.0 {
            lo -= 1;
        }

        iter_this_eig += 1;
        total_iter += 1;
        if total_iter > total_budget {
            return Err(LinalgError::NonConvergence {
                context: "complex_schur QR iteration",
                iterations: total_iter,
            });
        }

        // Wilkinson shift from the trailing 2x2 block, replaced by ad-hoc
        // exceptional shifts after a stall — LAPACK (`zlahqr`) style, at
        // stalled-iteration counts 10 and 20 (mod 30). Two *different*
        // exceptional shifts are used so a cycle that survives one of them
        // is broken by the other: the dat1-damped shift keeps the iteration
        // near the trailing eigenvalue (effective when eigenvalues cluster
        // on a circle, e.g. Hamiltonian spectra hugging the imaginary
        // axis), while the magnitude shift jumps far from the cluster.
        let stall = iter_this_eig % 30;
        let shift = if stall == 10 {
            // zlahqr's exceptional shift: dat1·|subdiag| + trailing entry.
            t[(hi, hi)] + Complex64::from_real(0.75 * t[(hi, hi - 1)].abs())
        } else if stall == 20 {
            Complex64::from_real(t[(hi, hi - 1)].abs() + t[(hi, hi)].abs())
        } else {
            wilkinson_shift(t[(hi - 1, hi - 1)], t[(hi - 1, hi)], t[(hi, hi - 1)], t[(hi, hi)])
        };

        // Explicit single-shift QR sweep on the active block [lo, hi],
        // applied to the full rows and columns of `T`.
        for i in lo..=hi {
            t[(i, i)] -= shift;
        }
        rotations.clear();
        for k in lo..hi {
            let g = Givens::compute(t[(k, k)], t[(k + 1, k)]);
            g.apply_left(t, k, k + 1, k, n);
            t[(k + 1, k)] = Complex64::ZERO;
            rotations.push((k, g));
        }
        for &(k, g) in &rotations {
            g.apply_right(t, k, k + 1, 0, (k + 2).min(hi + 1));
            g.apply_right(u, k, k + 1, 0, n);
        }
        for i in lo..=hi {
            t[(i, i)] += shift;
        }
    }
    Ok(())
}

/// Wilkinson shift: the eigenvalue of the 2×2 matrix `[[a, b], [c, d]]`
/// closest to `d`.
fn wilkinson_shift(a: Complex64, b: Complex64, c: Complex64, d: Complex64) -> Complex64 {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = (tr * tr - det.scale(4.0)).sqrt();
    let l1 = (tr + disc).scale(0.5);
    let l2 = (tr - disc).scale(0.5);
    if (l1 - d).abs() < (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mat;

    fn random_cmat(n: usize, seed: u64) -> CMat {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        CMat::from_fn(n, n, |_, _| Complex64::new(next(), next()))
    }

    fn check_schur(a: &CMat, s: &Schur, tol: f64) {
        let n = a.rows();
        // T upper triangular
        for i in 0..n {
            for j in 0..i {
                assert!(s.t[(i, j)].abs() < tol, "T not triangular at ({i},{j})");
            }
        }
        // U unitary
        let uu = s.u.hermitian().matmul(&s.u).unwrap();
        assert!(uu.max_abs_diff(&CMat::identity(n)) < tol, "U not unitary");
        // A = U T U^H
        let back = s.u.matmul(&s.t).unwrap().matmul(&s.u.hermitian()).unwrap();
        assert!(
            back.max_abs_diff(a) < tol * 10.0,
            "reconstruction failed: {}",
            back.max_abs_diff(a)
        );
    }

    #[test]
    fn schur_of_random_complex_matrices() {
        for n in [1usize, 2, 3, 4, 6, 10, 16] {
            let a = random_cmat(n, 7 + n as u64);
            let s = complex_schur(&a).unwrap();
            check_schur(&a, &s, 1e-9);
        }
    }

    #[test]
    fn schur_of_real_matrix_with_known_spectrum() {
        // Block diagonal with eigenvalues {2, -3, 1±2i}
        let a = Mat::from_rows(&[
            &[2.0, 0.0, 0.0, 0.0],
            &[0.0, -3.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 2.0],
            &[0.0, 0.0, -2.0, 1.0],
        ]);
        let s = complex_schur(&a.to_complex()).unwrap();
        let mut re: Vec<f64> = s.eigenvalues().iter().map(|e| e.re).collect();
        re.sort_by(|x, y| x.total_cmp(y));
        assert!((re[0] + 3.0).abs() < 1e-10);
        assert!((re[1] - 1.0).abs() < 1e-10 && (re[2] - 1.0).abs() < 1e-10);
        assert!((re[3] - 2.0).abs() < 1e-10);
        let mut im: Vec<f64> = s.eigenvalues().iter().map(|e| e.im).collect();
        im.sort_by(|x, y| x.total_cmp(y));
        assert!((im[0] + 2.0).abs() < 1e-10 && (im[3] - 2.0).abs() < 1e-10);
    }

    /// The fits read their zeros off `complex_schur` of a real Hessenberg
    /// form. The real reduction leaves exact zeros below the subdiagonal, so
    /// the complex reduction inside `complex_schur` rotates nothing: `T`
    /// starts as the real form itself and the Schur vectors as the identity.
    #[test]
    fn a_real_hessenberg_form_passes_the_reduction_unrotated() {
        for n in [1usize, 2, 5, 12, 24] {
            let mut state = 31 + n as u64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
            };
            let h = hessenberg(&Mat::from_fn(n, n, |_, _| next()), None).unwrap().to_complex();
            let mut q = CMat::identity(n);
            let again = hessenberg(&h, Some(&mut q)).unwrap();
            let bits = |m: &CMat| -> Vec<(u64, u64)> {
                m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            assert_eq!(bits(&again), bits(&h), "n={n}");
            assert_eq!(bits(&q), bits(&CMat::identity(n)), "n={n}");
            check_schur(&h, &complex_schur(&h).unwrap(), 1e-9);
        }
    }

    #[test]
    fn schur_preserves_trace_and_determinant() {
        let a = random_cmat(8, 99);
        let s = complex_schur(&a).unwrap();
        let tr_t: Complex64 = s.eigenvalues().into_iter().sum();
        assert!((tr_t - a.trace()).abs() < 1e-9);
    }

    #[test]
    fn schur_of_defective_matrix() {
        // Jordan block: eigenvalue 1 with multiplicity 3 (defective).
        let a = Mat::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[0.0, 0.0, 1.0]]);
        let s = complex_schur(&a.to_complex()).unwrap();
        for ev in s.eigenvalues() {
            assert!((ev.re - 1.0).abs() < 1e-6 && ev.im.abs() < 1e-6);
        }
        check_schur(&a.to_complex(), &s, 1e-8);
    }

    #[test]
    fn schur_of_rotation_like_matrix_finds_imaginary_pair() {
        // Skew-symmetric: eigenvalues ±5i.
        let a = Mat::from_rows(&[&[0.0, 5.0], &[-5.0, 0.0]]);
        let s = complex_schur(&a.to_complex()).unwrap();
        let mut im: Vec<f64> = s.eigenvalues().iter().map(|e| e.im).collect();
        im.sort_by(|x, y| x.total_cmp(y));
        assert!((im[0] + 5.0).abs() < 1e-10 && (im[1] - 5.0).abs() < 1e-10);
        for ev in s.eigenvalues() {
            assert!(ev.re.abs() < 1e-10);
        }
    }

    #[test]
    fn cyclic_permutation_matrices_converge_via_exceptional_shifts() {
        // Regression for the stalled-QR class behind the 3×3-board /
        // order-18 Hamiltonian failure (ROADMAP PR 3 note): eigenvalues
        // uniformly spread on a circle. The Wilkinson shift of the trailing
        // 2×2 of a cyclic permutation matrix is identically zero, so the
        // plain single-shift iteration cycles without deflating — only the
        // LAPACK-style ad-hoc shifts at stalled-iteration counts 10/20
        // break the symmetry. The eigenvalues are the n-th roots of unity.
        for n in [4usize, 8, 12, 16, 24] {
            let mut c = CMat::zeros(n, n);
            for i in 0..n {
                c[(i, (i + 1) % n)] = Complex64::from_real(1.0);
            }
            let s = complex_schur(&c).unwrap_or_else(|e| panic!("n={n}: {e}"));
            for ev in s.eigenvalues() {
                assert!((ev.abs() - 1.0).abs() < 1e-9, "n={n}: |{ev:?}| off the unit circle");
            }
            check_schur(&c, &s, 1e-9);
        }
    }

    #[test]
    fn non_finite_entries_are_rejected_at_once() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for entry in [Complex64::new(bad, 0.0), Complex64::new(0.5, bad)] {
                let mut a = random_cmat(10, 3);
                a[(4, 6)] = entry;
                let result = complex_schur(&a);
                assert!(
                    matches!(result, Err(LinalgError::InvalidArgument { .. })),
                    "{entry:?}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn rejects_non_square_and_handles_empty() {
        assert!(complex_schur(&CMat::zeros(2, 3)).is_err());
        let s = complex_schur(&CMat::zeros(0, 0)).unwrap();
        assert_eq!(s.eigenvalues().len(), 0);
    }

    #[test]
    fn larger_matrix_eigenvalue_sum_matches_trace() {
        let n = 30;
        let a = random_cmat(n, 1234);
        let s = complex_schur(&a).unwrap();
        check_schur(&a, &s, 1e-8);
        let sum: Complex64 = s.eigenvalues().into_iter().sum();
        assert!((sum - a.trace()).abs() < 1e-8);
    }
}
