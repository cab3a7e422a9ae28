//! Reduction of a complex square matrix to upper Hessenberg form by a unitary
//! similarity transformation, used as the first stage of the Schur iteration.

use crate::{CMat, Complex64, LinalgError, Mat, Result};

/// A complex Givens rotation acting on a pair of rows/columns.
///
/// The rotation is `G = [[c, s], [-s̄, c]]` with real `c ≥ 0` and
/// `c² + |s|² = 1`, chosen so that `G·[x, y]ᵀ = [r, 0]ᵀ`.
#[derive(Debug, Clone, Copy)]
pub struct Givens {
    /// Real cosine component.
    pub c: f64,
    /// Complex sine component.
    pub s: Complex64,
}

impl Givens {
    /// Computes the rotation annihilating `y` against `x`.
    pub fn compute(x: Complex64, y: Complex64) -> Givens {
        let xa = x.abs();
        let ya = y.abs();
        // audit:allow(float-eq): exact-zero rotation component selects the trivial rotation
        if ya == 0.0 {
            return Givens { c: 1.0, s: Complex64::ZERO };
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
    pub fn apply_left(&self, m: &mut CMat, i: usize, k: usize, col_from: usize, col_to: usize) {
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
    pub fn apply_right(&self, m: &mut CMat, i: usize, k: usize, row_from: usize, row_to: usize) {
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

/// Result of a Hessenberg reduction `A = Q·H·Qᴴ`.
#[derive(Debug, Clone)]
pub struct Hessenberg {
    /// Upper Hessenberg factor.
    pub h: CMat,
    /// Unitary transformation accumulating the applied rotations.
    pub q: CMat,
}

/// Reduces `a` to upper Hessenberg form by a sequence of Givens similarity
/// rotations.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] when `a` is not square.
///
/// ```
/// use pim_linalg::{CMat, Complex64, hessenberg::hessenberg};
///
/// # fn main() -> Result<(), pim_linalg::LinalgError> {
/// let a = CMat::from_fn(4, 4, |i, j| Complex64::new((i * 4 + j) as f64, (i as f64) - (j as f64)));
/// let hes = hessenberg(&a)?;
/// // Entries below the first subdiagonal are zero.
/// assert!(hes.h[(3, 0)].abs() < 1e-12 && hes.h[(2, 0)].abs() < 1e-12);
/// // Similarity: Q H Q^H = A
/// let back = hes.q.matmul(&hes.h)?.matmul(&hes.q.hermitian())?;
/// assert!(back.max_abs_diff(&a) < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn hessenberg(a: &CMat) -> Result<Hessenberg> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "hessenberg", dims: a.shape() });
    }
    let n = a.rows();
    let mut h = a.clone();
    let mut q = CMat::identity(n);
    for k in 0..n.saturating_sub(2) {
        for i in ((k + 2)..n).rev() {
            // audit:allow(float-eq): only a bitwise-zero subdiagonal entry may be skipped without fill-in
            if h[(i, k)].abs() == 0.0 {
                continue;
            }
            let g = Givens::compute(h[(i - 1, k)], h[(i, k)]);
            g.apply_left(&mut h, i - 1, i, k, n);
            h[(i, k)] = Complex64::ZERO;
            g.apply_right(&mut h, i - 1, i, 0, n);
            g.apply_right(&mut q, i - 1, i, 0, n);
        }
    }
    Ok(Hessenberg { h, q })
}

/// Reduces a **real** square matrix to upper Hessenberg form in real
/// arithmetic, without accumulating the orthogonal transformation.
///
/// Real Givens rotations cost a quarter of the complex flops, and on real
/// input the rotation parameters and every update match the complex kernel
/// exactly (all imaginary parts are identically zero there), so feeding the
/// result into the complex QR iteration yields the same eigenvalues as the
/// all-complex pipeline — this is the fast first stage behind
/// [`crate::eig::eigenvalues`] for real matrices such as the Hamiltonian
/// passivity test matrices.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] when `a` is not square.
pub fn hessenberg_real_h_only(a: &Mat) -> Result<Mat> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "hessenberg", dims: a.shape() });
    }
    let n = a.rows();
    let mut h = a.clone();
    if n <= 2 {
        return Ok(h);
    }
    for k in 0..(n - 2) {
        for i in ((k + 2)..n).rev() {
            let y = h[(i, k)];
            // audit:allow(float-eq): exact-zero entry needs no rotation; mirrors Givens::compute
            if y == 0.0 {
                continue;
            }
            let x = h[(i - 1, k)];
            // Rotation parameters mirroring Givens::compute on real input.
            // audit:allow(float-eq): exact-zero pivot selects the swap rotation, as in Givens::compute
            let (c, s) = if x == 0.0 {
                (0.0, y * (1.0 / y.abs()))
            } else {
                let xa = x.abs();
                let norm = xa.hypot(y.abs());
                (xa / norm, (x * (1.0 / xa)) * (y * (1.0 / norm)))
            };
            // Left application to rows i-1, i over columns k..n.
            {
                let data = h.as_mut_slice();
                let (top, bottom) = data.split_at_mut(i * n);
                let row_a = &mut top[(i - 1) * n + k..i * n];
                let row_b = &mut bottom[k..n];
                for (a, b) in row_a.iter_mut().zip(row_b.iter_mut()) {
                    let (va, vb) = (*a, *b);
                    *a = va * c + s * vb;
                    *b = vb * c - s * va;
                }
            }
            h[(i, k)] = 0.0;
            // Right application to columns i-1, i over all rows.
            let data = h.as_mut_slice();
            for row in data.chunks_exact_mut(n) {
                let (va, vb) = (row[i - 1], row[i]);
                row[i - 1] = va * c + s * vb;
                row[i] = vb * c - s * va;
            }
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let hes = hessenberg(&a).unwrap();
            assert!(is_hessenberg(&hes.h, 1e-12), "not Hessenberg for n={n}");
            // Q unitary
            let qtq = hes.q.hermitian().matmul(&hes.q).unwrap();
            assert!(qtq.max_abs_diff(&CMat::identity(n)) < 1e-11);
            // Similarity preserved
            let back = hes.q.matmul(&hes.h).unwrap().matmul(&hes.q.hermitian()).unwrap();
            assert!(back.max_abs_diff(&a) < 1e-10, "similarity broken for n={n}");
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(hessenberg(&CMat::zeros(2, 3)).is_err());
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
            let h_real = hessenberg_real_h_only(&a).unwrap();
            let h_cplx = hessenberg(&a.to_complex()).unwrap().h;
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
        assert!(hessenberg_real_h_only(&Mat::zeros(2, 3)).is_err());
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
        let hes = hessenberg(&a).unwrap();
        assert!(is_hessenberg(&hes.h, 1e-13));
        assert!(hes.q.max_abs_diff(&CMat::identity(n)) < 1e-13);
    }
}
