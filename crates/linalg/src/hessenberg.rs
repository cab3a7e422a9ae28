//! Reduction of a square matrix to upper Hessenberg form by a unitary
//! similarity transformation (orthogonal on real input), used as the first
//! stage of the Schur iteration.

use crate::{LinalgError, Matrix, Result, Scalar};

/// A Givens rotation acting on a pair of rows/columns.
///
/// The rotation is `G = [[c, s], [-s̄, c]]` with real `c ≥ 0` and
/// `c² + |s|² = 1`, chosen so that `G·[x, y]ᵀ = [r, 0]ᵀ`.
#[derive(Debug, Clone, Copy)]
pub struct Givens<T> {
    /// Real cosine component.
    pub c: f64,
    /// Sine component.
    pub s: T,
}

impl<T: Scalar> Givens<T> {
    /// Computes the rotation annihilating `y` against `x`.
    pub fn compute(x: T, y: T) -> Self {
        let xa = x.abs();
        let ya = y.abs();
        // audit:allow(float-eq): exact-zero rotation component selects the trivial rotation
        if ya == 0.0 {
            return Givens { c: 1.0, s: T::ZERO };
        }
        // audit:allow(float-eq): exact-zero rotation component selects the axis-aligned rotation
        if xa == 0.0 {
            return Givens { c: 0.0, s: y.conj().scale(1.0 / ya) };
        }
        let norm = xa.hypot(ya);
        let c = xa / norm;
        // s = (x/|x|)·ȳ / norm  so that  c·x + s·y = x·norm/|x|.
        let s = x.scale(1.0 / xa) * y.conj().scale(1.0 / norm);
        Givens { c, s }
    }

    /// Applies the rotation to rows `i` and `k` of `m` (left multiplication),
    /// over columns `col_from..col_to`.
    pub fn apply_left(
        &self,
        m: &mut Matrix<T>,
        i: usize,
        k: usize,
        col_from: usize,
        col_to: usize,
    ) {
        let (c, s) = (self.c, self.s);
        let sc = s.conj();
        let (row_i, row_k) = m.two_rows_mut(i, k);
        for (a, b) in row_i[col_from..col_to].iter_mut().zip(&mut row_k[col_from..col_to]) {
            let (va, vb) = (*a, *b);
            *a = va.scale(c) + s * vb;
            *b = vb.scale(c) - sc * va;
        }
    }

    /// Applies the conjugate-transposed rotation to columns `i` and `k` of `m`
    /// (right multiplication by `Gᴴ`), over rows `row_from..row_to`.
    pub fn apply_right(
        &self,
        m: &mut Matrix<T>,
        i: usize,
        k: usize,
        row_from: usize,
        row_to: usize,
    ) {
        let (c, s) = (self.c, self.s);
        let sc = s.conj();
        let cols = m.cols();
        let data = m.as_mut_slice();
        for row in data[row_from * cols..row_to * cols].chunks_exact_mut(cols) {
            let (a, b) = (row[i], row[k]);
            row[i] = a.scale(c) + sc * b;
            row[k] = b.scale(c) - s * a;
        }
    }
}

/// Reduces `a` to upper Hessenberg form `H = Qᴴ·A·Q` by a sequence of Givens
/// similarity rotations and returns `H`.
///
/// With `q = Some(m)` every rotation is also applied to `m` from the right,
/// so `m` becomes `m·Q`: pass the identity to obtain `Q`. The
/// eigenvalue-only path passes `None` and skips that work. On real input
/// every rotation is real, so the real reduction equals the complex one on
/// the same matrix bit for bit at a quarter of the flops.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] when `a` is not square and
/// [`LinalgError::DimensionMismatch`] when `q` differs from `a` in shape.
///
/// ```
/// use pim_linalg::{CMat, Complex64, hessenberg::hessenberg};
///
/// # fn main() -> Result<(), pim_linalg::LinalgError> {
/// let a = CMat::from_fn(4, 4, |i, j| Complex64::new((i * 4 + j) as f64, (i as f64) - (j as f64)));
/// let mut q = CMat::identity(4);
/// let h = hessenberg(&a, Some(&mut q))?;
/// // Entries below the first subdiagonal are zero.
/// assert!(h[(3, 0)].abs() < 1e-12 && h[(2, 0)].abs() < 1e-12);
/// // Similarity: Q H Q^H = A
/// let back = q.matmul(&h)?.matmul(&q.hermitian())?;
/// assert!(back.max_abs_diff(&a) < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn hessenberg<T: Scalar>(a: &Matrix<T>, mut q: Option<&mut Matrix<T>>) -> Result<Matrix<T>> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "hessenberg", dims: a.shape() });
    }
    if let Some(q) = q.as_deref() {
        if q.shape() != a.shape() {
            return Err(LinalgError::DimensionMismatch {
                context: "hessenberg: Q",
                left: a.shape(),
                right: q.shape(),
            });
        }
    }
    let n = a.rows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        for i in ((k + 2)..n).rev() {
            // audit:allow(float-eq): only a bitwise-zero subdiagonal entry may be skipped without fill-in
            if h[(i, k)].abs() == 0.0 {
                continue;
            }
            let g = Givens::compute(h[(i - 1, k)], h[(i, k)]);
            g.apply_left(&mut h, i - 1, i, k, n);
            h[(i, k)] = T::ZERO;
            g.apply_right(&mut h, i - 1, i, 0, n);
            if let Some(q) = q.as_deref_mut() {
                g.apply_right(q, i - 1, i, 0, n);
            }
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CMat, Complex64, Mat};

    fn is_hessenberg(h: &CMat, tol: f64) -> bool {
        for i in 0..h.rows() {
            for j in 0..h.cols() {
                if i > j + 1 && h[(i, j)].abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    fn random_like(n: usize, seed: u64) -> CMat {
        // Deterministic pseudo-random fill (no RNG dependency needed here).
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        CMat::from_fn(n, n, |_, _| Complex64::new(next(), next()))
    }

    #[test]
    fn givens_annihilates_second_entry() {
        let x = Complex64::new(1.0, 2.0);
        let y = Complex64::new(-0.5, 0.7);
        let g = Givens::compute(x, y);
        let r1 = x.scale(g.c) + g.s * y;
        let r2 = y.scale(g.c) - g.s.conj() * x;
        assert!(r2.abs() < 1e-14);
        assert!((r1.abs() - (x.abs_sq() + y.abs_sq()).sqrt()).abs() < 1e-12);
        // Unitarity: c^2 + |s|^2 = 1
        assert!((g.c * g.c + g.s.abs_sq() - 1.0).abs() < 1e-14);
        // Degenerate cases
        let g0 = Givens::compute(x, Complex64::ZERO);
        assert_eq!((g0.c).to_bits(), 1.0f64.to_bits());
        let g1 = Givens::compute(Complex64::ZERO, y);
        assert!((g1.c).abs() < 1e-15);
    }

    #[test]
    fn hessenberg_structure_and_similarity() {
        for n in [1usize, 2, 3, 5, 8, 12] {
            let a = random_like(n, 42 + n as u64);
            let mut q = CMat::identity(n);
            let h = hessenberg(&a, Some(&mut q)).unwrap();
            assert!(is_hessenberg(&h, 1e-12), "not Hessenberg for n={n}");
            // Q unitary
            let qtq = q.hermitian().matmul(&q).unwrap();
            assert!(qtq.max_abs_diff(&CMat::identity(n)) < 1e-11);
            // Similarity preserved
            let back = q.matmul(&h).unwrap().matmul(&q.hermitian()).unwrap();
            assert!(back.max_abs_diff(&a) < 1e-10, "similarity broken for n={n}");
            // The reduction does not depend on whether Q is accumulated.
            assert_eq!(hessenberg(&a, None).unwrap(), h);
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(hessenberg(&CMat::zeros(2, 3), None).is_err());
        let mut q = CMat::identity(3);
        assert!(hessenberg(&CMat::identity(2), Some(&mut q)).is_err());
    }

    #[test]
    fn real_reduction_matches_complex_kernel_bitwise() {
        for n in [1usize, 2, 4, 9, 16] {
            let mut state = 77 + n as u64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
            };
            let a = Mat::from_fn(n, n, |_, _| next());
            let h_real = hessenberg(&a, None).unwrap();
            let h_cplx = hessenberg(&a.to_complex(), None).unwrap();
            assert_eq!(
                h_cplx.imag().max_abs().to_bits(),
                0.0f64.to_bits(),
                "imaginary drift for n={n}"
            );
            assert_eq!(
                h_real.max_abs_diff(&h_cplx.real()).to_bits(),
                0.0f64.to_bits(),
                "real drift for n={n}"
            );
        }
        assert!(hessenberg(&Mat::zeros(2, 3), None).is_err());
    }

    #[test]
    fn already_hessenberg_is_untouched_in_structure() {
        let n = 6;
        let a = CMat::from_fn(n, n, |i, j| {
            if i <= j + 1 {
                Complex64::new((i + 2 * j) as f64, 1.0)
            } else {
                Complex64::ZERO
            }
        });
        let mut q = CMat::identity(n);
        let h = hessenberg(&a, Some(&mut q)).unwrap();
        assert!(is_hessenberg(&h, 1e-13));
        assert!(q.max_abs_diff(&CMat::identity(n)) < 1e-13);
    }
}
