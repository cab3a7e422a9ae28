//! Eigenvalues of real matrices: the real Givens Hessenberg reduction, then
//! Francis's double-shift QR iteration in real arithmetic.

use crate::hessenberg::hessenberg;
use crate::{Complex64, LinalgError, Mat, Result};

/// Maximum QR sweeps allowed per eigenvalue before declaring failure (the
/// budget of the complex Schur iteration).
const MAX_ITER_PER_EIGENVALUE: usize = 60;

/// Eigenvalues of a real square matrix (possibly complex, returned as
/// [`Complex64`]).
///
/// The matrix is reduced to Hessenberg form by real Givens rotations, and
/// the eigenvalues are read off by Francis's double-shift QR iteration in
/// real arithmetic (EISPACK `hqr`; Golub & Van Loan, *Matrix Computations*,
/// §7.5). Real eigenvalues carry `im == +0.0`, and the two eigenvalues of a
/// 2×2 diagonal block with complex roots are returned as an exact conjugate
/// pair.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input,
/// [`LinalgError::InvalidArgument`] when an entry is NaN or infinite, and
/// [`LinalgError::NonConvergence`] if the iteration exhausts its budget.
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
    if !a.is_square() {
        return Err(LinalgError::NotSquare { context: "eigenvalues", dims: a.shape() });
    }
    // A NaN or infinite entry would otherwise run the QR iteration to its
    // budget and surface as a convergence failure.
    if !a.as_slice().iter().all(|x| x.is_finite()) {
        return Err(LinalgError::InvalidArgument {
            context: "eigenvalues: non-finite matrix entry",
        });
    }
    francis_eigenvalues(hessenberg(a, None)?)
}

/// Francis's double-shift QR iteration on an upper Hessenberg matrix,
/// eigenvalues only. Every 3×3 Householder reflector of the bulge chase acts
/// on the active block alone: rows above the block and columns right of it
/// never feed back into the block's eigenvalues.
fn francis_eigenvalues(mut h: Mat) -> Result<Vec<Complex64>> {
    let n = h.rows();
    let mut ev = vec![Complex64::ZERO; n];
    // Deflation scale where both neighbouring diagonal entries are zero.
    let norm = h.as_slice().iter().map(|x| x.abs()).sum::<f64>();
    let budget = MAX_ITER_PER_EIGENVALUE * n.max(4);
    let mut sweeps = 0usize;
    let mut its = 0usize;
    // The active block is rows and columns `l..=hi`, and `h[..=hi, ..=hi]`
    // holds every eigenvalue not yet found.
    let mut end = n;
    while end > 0 {
        let hi = end - 1;
        let mut l = hi;
        while l > 0 {
            let s = h[(l - 1, l - 1)].abs() + h[(l, l)].abs();
            let s = if s > 0.0 { s } else { norm };
            if h[(l, l - 1)].abs() <= f64::EPSILON * s {
                h[(l, l - 1)] = 0.0;
                break;
            }
            l -= 1;
        }
        if l == hi {
            ev[hi] = Complex64::new(h[(hi, hi)], 0.0);
            end -= 1;
            its = 0;
            continue;
        }
        if l + 1 == hi {
            let (e1, e2) = two_by_two_eigenvalues(
                h[(hi - 1, hi - 1)],
                h[(hi - 1, hi)],
                h[(hi, hi - 1)],
                h[(hi, hi)],
            );
            ev[hi - 1] = e1;
            ev[hi] = e2;
            end -= 2;
            its = 0;
            continue;
        }
        sweeps += 1;
        if sweeps > budget {
            return Err(LinalgError::NonConvergence {
                context: "Francis QR iteration",
                iterations: sweeps,
            });
        }
        // The double shift is the pair of eigenvalues of the trailing 2×2
        // block, held as `x`, `y` and `w = h[hi,hi-1]·h[hi-1,hi]`: the
        // shift polynomial is `λ² − (x + y)λ + (xy − w)`. After a stall of 10
        // and 20 (mod 30) sweeps, EISPACK's exceptional shift (roots
        // `h[hi,hi] + (0.75 ± 0.66i)·s`) breaks a cycle that the trailing
        // block's own shifts cannot, as on the cyclic permutation matrices.
        let (x, y, w) = if its % 30 == 10 || its % 30 == 20 {
            let s = h[(hi, hi - 1)].abs() + h[(hi - 1, hi - 2)].abs();
            let x = h[(hi, hi)] + 0.75 * s;
            (x, x, -0.4375 * s * s)
        } else {
            (h[(hi, hi)], h[(hi - 1, hi - 1)], h[(hi, hi - 1)] * h[(hi - 1, hi)])
        };
        its += 1;
        // Start the bulge at the lowest `m` whose first-column reflector
        // leaves `h[m,m-1]` negligible: two consecutive small subdiagonal
        // entries split the block as well as one zero entry does.
        let mut m = hi - 2;
        let (mut p, mut q, mut r);
        loop {
            let z = h[(m, m)];
            let (rx, sy) = (x - z, y - z);
            p = (rx * sy - w) / h[(m + 1, m)] + h[(m, m + 1)];
            q = h[(m + 1, m + 1)] - z - rx - sy;
            r = h[(m + 2, m + 1)];
            let s = p.abs() + q.abs() + r.abs();
            p /= s;
            q /= s;
            r /= s;
            if m == l {
                break;
            }
            let u = h[(m, m - 1)].abs() * (q.abs() + r.abs());
            let v = p.abs() * (h[(m - 1, m - 1)].abs() + z.abs() + h[(m + 1, m + 1)].abs());
            if u <= f64::EPSILON * v {
                break;
            }
            m -= 1;
        }
        for i in m + 2..=hi {
            h[(i, i - 2)] = 0.0;
            if i != m + 2 {
                h[(i, i - 3)] = 0.0;
            }
        }
        chase_bulge(&mut h, l, m, hi, (p, q, r));
    }
    Ok(ev)
}

/// One double-shift QR sweep on the active block `l..=hi`: the reflector
/// built from the first column `(p, q, r)` at row `m` creates the bulge,
/// and 3×3 (the last one 2×2) Householder reflectors chase it off the
/// bottom. Rows are updated over columns `k..=hi` and columns over rows
/// `l..=min(k + 3, hi)`.
fn chase_bulge(h: &mut Mat, l: usize, m: usize, hi: usize, first: (f64, f64, f64)) {
    let n = h.cols();
    let (mut p, mut q, mut r) = first;
    for k in m..hi {
        let notlast = k + 1 != hi;
        let mut scale = 1.0;
        if k != m {
            p = h[(k, k - 1)];
            q = h[(k + 1, k - 1)];
            r = if notlast { h[(k + 2, k - 1)] } else { 0.0 };
            scale = p.abs() + q.abs() + r.abs();
            // audit:allow(float-eq): an exactly zero bulge column needs no reflector
            if scale == 0.0 {
                continue;
            }
            p /= scale;
            q /= scale;
            r /= scale;
        }
        let s = (p * p + q * q + r * r).sqrt().copysign(p);
        if k != m {
            h[(k, k - 1)] = -s * scale;
        } else if l != m {
            h[(k, k - 1)] = -h[(k, k - 1)];
        }
        p += s;
        let (x, y, z) = (p / s, q / s, r / s);
        q /= p;
        r /= p;
        // Row modification over columns k..=hi.
        let a = h.as_mut_slice();
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let row0 = &mut upper[k * n + k..=k * n + hi];
        let (row1, row2) = lower.split_at_mut(n);
        let row1 = &mut row1[k..=hi];
        if notlast {
            let row2 = &mut row2[k..=hi];
            for ((a0, a1), a2) in row0.iter_mut().zip(row1.iter_mut()).zip(row2.iter_mut()) {
                let t = *a0 + q * *a1 + r * *a2;
                *a0 -= t * x;
                *a1 -= t * y;
                *a2 -= t * z;
            }
        } else {
            for (a0, a1) in row0.iter_mut().zip(row1.iter_mut()) {
                let t = *a0 + q * *a1;
                *a0 -= t * x;
                *a1 -= t * y;
            }
        }
        // Column modification over rows l..=min(k + 3, hi).
        for row in a[l * n..(hi.min(k + 3) + 1) * n].chunks_exact_mut(n) {
            let c = &mut row[k..];
            if notlast {
                let t = x * c[0] + y * c[1] + z * c[2];
                c[0] -= t;
                c[1] -= t * q;
                c[2] -= t * r;
            } else {
                let t = x * c[0] + y * c[1];
                c[0] -= t;
                c[1] -= t * q;
            }
        }
    }
}

/// Eigenvalues of the 2×2 block `[[a, b], [c, d]]` as EISPACK `hqr` forms
/// them: a complex pair as an exact conjugate pair, a real pair with
/// `im == +0.0` and the smaller root taken from the product of the roots.
fn two_by_two_eigenvalues(a: f64, b: f64, c: f64, d: f64) -> (Complex64, Complex64) {
    let p = 0.5 * (a - d);
    let disc = p * p + b * c;
    let root = disc.abs().sqrt();
    if disc >= 0.0 {
        let z = p + root.copysign(p);
        let big = d + z;
        // audit:allow(float-eq): both roots equal `d` exactly when `p` and the discriminant vanish
        let small = if z == 0.0 { big } else { d - b * c / z };
        (Complex64::new(big, 0.0), Complex64::new(small, 0.0))
    } else {
        (Complex64::new(d + p, root), Complex64::new(d + p, -root))
    }
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

    /// Deterministic pseudo-random real matrix with entries in [-0.5, 0.5).
    fn random_mat(n: usize, seed: u64) -> Mat {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64) - 0.5
        };
        Mat::from_fn(n, n, |_, _| next())
    }

    #[test]
    fn real_input_yields_exact_conjugate_pairs_and_positive_zero_imaginary_parts() {
        for n in [2usize, 3, 7, 16, 31, 40] {
            for seed in 0..4u64 {
                let ev = eigenvalues(&random_mat(n, 1000 * n as u64 + seed)).unwrap();
                assert_eq!(ev.len(), n);
                for e in &ev {
                    if e.im.abs() > 0.0 {
                        let conj = (e.re.to_bits(), (-e.im).to_bits());
                        assert!(
                            ev.iter().any(|f| (f.re.to_bits(), f.im.to_bits()) == conj),
                            "n={n} seed={seed}: conjugate of {e:?} missing"
                        );
                    } else {
                        assert_eq!(e.im.to_bits(), 0, "n={n} seed={seed}: real root {e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn cyclic_permutation_matrices_converge_via_exceptional_shifts() {
        // The trailing 2×2 block of a cyclic permutation matrix yields shifts
        // that leave the iteration cycling without deflation; only the
        // exceptional shifts at stalled counts 10 and 20 break the symmetry.
        // The eigenvalues are the n-th roots of unity.
        for n in [3usize, 4, 8, 12, 16, 24] {
            let mut c = Mat::zeros(n, n);
            for i in 0..n {
                c[(i, (i + 1) % n)] = 1.0;
            }
            let ev = eigenvalues(&c).unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(ev.len(), n);
            for e in ev {
                assert!((e.abs() - 1.0).abs() < 1e-9, "n={n}: |{e:?}| off the unit circle");
            }
        }
    }

    #[test]
    fn non_finite_entries_are_rejected_at_once() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = random_mat(12, 5);
            a[(7, 3)] = bad;
            let result = eigenvalues(&a);
            assert!(
                matches!(result, Err(LinalgError::InvalidArgument { .. })),
                "{bad}: {result:?}"
            );
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(eigenvalues(&Mat::zeros(1, 2)).is_err());
        assert!(eigenvalues(&Mat::zeros(0, 0)).unwrap().is_empty());
    }
}
