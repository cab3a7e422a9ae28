//! Singular values of complex matrices: the full decomposition by the
//! one-sided Jacobi method, and the largest singular value alone.
//!
//! The passivity characterization of a scattering macromodel is a sweep of
//! `σ_max(S(jω))` over frequency: [`sigma_max`] serves it with a values-only
//! kernel (Householder tridiagonalization of the Gram matrix and Sturm
//! bisection), which builds no singular vectors. The linearized passivity
//! constraints of the enforcement loop need the singular values together
//! with the associated left/right singular vectors, at a few frequencies:
//! [`svd`] serves them. The matrices involved are small (P×P with P the port
//! count), so the simple and very accurate one-sided Jacobi iteration is a
//! good fit there.

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

/// The largest singular value alone, without singular vectors.
///
/// `σ_max(A)² = λ_max(G)` for the Gram matrix `G` of the smaller side
/// (`AAᴴ` when `m ≤ n`, `AᴴA` otherwise). `A` is first scaled by a power of
/// two that brings its largest real or imaginary part into `[1, 2)`, which
/// is exact, so `G` neither overflows nor underflows and
/// `σ_max(2ᵏ·A) = 2ᵏ·σ_max(A)` bit for bit. Householder reflections reduce
/// `G` to a real symmetric tridiagonal (Golub & Van Loan, *Matrix
/// Computations*, 4th ed., §8.3); only the squared moduli of its
/// off-diagonal entries enter the Sturm count, so their phases are never
/// removed. `λ_max` is then bisected on Sturm counts (§8.4) from the
/// bracket `[max dᵢ, Gershgorin bound]` until the midpoint stops moving.
/// By Weyl's inequality the error in `λ_max` is of order `ε‖A‖²`, so
/// `σ_max` carries a relative error of order `ε`, as from the Jacobi
/// [`svd`].
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] for empty input and when an
/// entry is NaN or infinite.
///
/// ```
/// use pim_linalg::{CMat, Complex64, svd::sigma_max};
/// # fn main() -> Result<(), pim_linalg::LinalgError> {
/// let a = CMat::from_diag(&[Complex64::new(0.0, 3.0), Complex64::new(4.0, 0.0)]);
/// assert!((sigma_max(&a)? - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn sigma_max(a: &CMat) -> Result<f64> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::InvalidArgument { context: "sigma_max: empty matrix" });
    }
    // A NaN entry would fail every comparison of the Sturm count and read
    // as σ = 0, a sample that looks passive.
    if !a.as_slice().iter().all(|z| z.is_finite()) {
        return Err(LinalgError::InvalidArgument { context: "sigma_max: non-finite matrix entry" });
    }
    let largest = a.as_slice().iter().fold(0.0_f64, |acc, z| acc.max(z.re.abs()).max(z.im.abs()));
    // audit:allow(float-eq): exact zero matrix; every Gram entry would be 0
    if largest == 0.0 {
        return Ok(0.0);
    }
    let scale = power_of_two_reciprocal(largest);
    let (gram, r) = gram_of_smaller_side(a, scale);
    let (d, e2) = hermitian_tridiagonal(gram, r);
    Ok(largest_eigenvalue(&d, &e2).sqrt() / scale)
}

/// The power of two `2ᵏ` with `2ᵏ·x ∈ [1, 2)` for a positive normal `x`,
/// with `k` clamped so that `2ᵏ` is itself normal.
fn power_of_two_reciprocal(x: f64) -> f64 {
    let exponent = ((x.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    let k = (-exponent).clamp(-1022, 1023);
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The Gram matrix of the smaller side of `scale·A`, `r × r` row-major with
/// `r = min(m, n)`: `BBᴴ` for `B = scale·A` when `m ≤ n`, and for
/// `B = scale·Aᴴ` otherwise.
fn gram_of_smaller_side(a: &CMat, scale: f64) -> (Vec<Complex64>, usize) {
    let scaled =
        |b: &CMat| -> Vec<Complex64> { b.as_slice().iter().map(|z| z.scale(scale)).collect() };
    let (r, c, b) = if a.rows() <= a.cols() {
        (a.rows(), a.cols(), scaled(a))
    } else {
        (a.cols(), a.rows(), scaled(&a.hermitian()))
    };
    let mut g = vec![Complex64::ZERO; r * r];
    for i in 0..r {
        let bi = &b[i * c..(i + 1) * c];
        for j in 0..=i {
            let bj = &b[j * c..(j + 1) * c];
            let s: Complex64 = bi.iter().zip(bj).map(|(&x, &y)| x * y.conj()).sum();
            g[i * r + j] = s;
            g[j * r + i] = s.conj();
        }
    }
    (g, r)
}

/// Reduces the Hermitian `r × r` row-major matrix `g` to a real symmetric
/// tridiagonal by Householder reflections, returning its diagonal and the
/// squared moduli of its subdiagonal.
///
/// Step `k` maps the column `x = g[k+1.., k]` onto a multiple of the first
/// unit vector, whose modulus is `‖x‖`: the squared subdiagonal entry is
/// `‖x‖²` whatever phase the reflection leaves on it.
fn hermitian_tridiagonal(mut g: Vec<Complex64>, r: usize) -> (Vec<f64>, Vec<f64>) {
    let mut d = vec![0.0; r];
    let mut e2 = vec![0.0; r - 1];
    let mut v = vec![Complex64::ZERO; r];
    let mut w = vec![Complex64::ZERO; r];
    for k in 0..r - 1 {
        d[k] = g[k * r + k].re;
        let x0 = g[(k + 1) * r + k];
        let tail: f64 = (k + 2..r).map(|i| g[i * r + k].abs_sq()).sum();
        e2[k] = x0.abs_sq() + tail;
        // audit:allow(float-eq): x is already a multiple of the unit vector
        if tail == 0.0 {
            continue;
        }
        // v = x + (x₀/|x₀|)·‖x‖·e₁, H = I − τ·v·vᴴ with τ = 2/‖v‖²: adding
        // the norm along x₀'s own phase never cancels.
        let (x0_abs, alpha) = (x0.abs_sq().sqrt(), e2[k].sqrt());
        v[k + 1] = if x0_abs > 0.0 {
            x0.scale((x0_abs + alpha) / x0_abs)
        } else {
            Complex64::from_real(alpha)
        };
        for i in k + 2..r {
            v[i] = g[i * r + k];
        }
        let tau = 2.0 / ((x0_abs + alpha) * (x0_abs + alpha) + tail);
        // Trailing block update H·G·H = G − v·wᴴ − w·vᴴ with p = τ·G·v and
        // w = p − (τ/2)(vᴴp)·v (vᴴp is real for a Hermitian G).
        for i in k + 1..r {
            let row = &g[i * r + k + 1..(i + 1) * r];
            w[i] = row.iter().zip(&v[k + 1..]).map(|(&gij, &vj)| gij * vj).sum::<Complex64>() * tau;
        }
        let vp: f64 = (k + 1..r).map(|i| (v[i].conj() * w[i]).re).sum();
        let half = 0.5 * tau * vp;
        for i in k + 1..r {
            w[i] -= v[i].scale(half);
        }
        for i in k + 1..r {
            for j in k + 1..r {
                g[i * r + j] -= v[i] * w[j].conj() + w[i] * v[j].conj();
            }
        }
    }
    d[r - 1] = g[(r - 1) * r + r - 1].re;
    (d, e2)
}

/// The largest eigenvalue of the real symmetric tridiagonal with diagonal
/// `d` and squared subdiagonal `e2`, by bisection on Sturm counts.
///
/// The bracket is `[max dᵢ, max(dᵢ + |eᵢ₋₁| + |eᵢ|)]`: every diagonal entry
/// is a Rayleigh quotient, and the Gershgorin discs hold the spectrum. The
/// midpoint replaces `hi` when every eigenvalue lies below it and `lo`
/// otherwise, until it equals one of the two.
fn largest_eigenvalue(d: &[f64], e2: &[f64]) -> f64 {
    let radius = |i: usize| {
        let above = if i > 0 { e2[i - 1].sqrt() } else { 0.0 };
        above + e2.get(i).map_or(0.0, |x| x.sqrt())
    };
    let mut lo = d.iter().fold(f64::NEG_INFINITY, |acc, &x| acc.max(x));
    let mut hi = d.iter().enumerate().map(|(i, &di)| di + radius(i)).fold(lo, f64::max);
    // The smallest pivot magnitude the count admits (LAPACK `dstebz`'s
    // `pivmin`): a pivot below it counts as negative.
    let pivmin = f64::MIN_POSITIVE * e2.iter().fold(1.0_f64, |acc, &x| acc.max(x));
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            return mid;
        }
        if all_eigenvalues_below(d, e2, mid, pivmin) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// `true` when every eigenvalue of the tridiagonal lies below `x`: the
/// Sturm count (the number of negative pivots of `T − x·I = LDLᵀ`) equals
/// the dimension. Stops at the first non-negative pivot.
fn all_eigenvalues_below(d: &[f64], e2: &[f64], x: f64, pivmin: f64) -> bool {
    let mut q = 1.0;
    for (i, &di) in d.iter().enumerate() {
        q = di - x - if i > 0 { e2[i - 1] / q } else { 0.0 };
        if q.abs() < pivmin {
            q = -pivmin;
        }
        if q >= 0.0 {
            return false;
        }
    }
    true
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

    #[test]
    fn sigma_max_of_zero_scalar_and_unitary_matrices() {
        assert_eq!(sigma_max(&CMat::zeros(3, 2)).unwrap().to_bits(), 0.0_f64.to_bits());
        let five = sigma_max(&CMat::from_diag(&[Complex64::new(3.0, -4.0)])).unwrap();
        assert_eq!(five.to_bits(), 5.0_f64.to_bits());
        let z = Complex64::new(-0.7, 2.9e-3);
        let s = sigma_max(&CMat::from_diag(&[z])).unwrap();
        assert!((s - z.abs()).abs() <= 2.0 * f64::EPSILON * z.abs(), "{s} vs {}", z.abs());
        // The unitary DFT matrices: every singular value is 1, and the
        // entries carry roundoff (and complex phases) from n = 3 on.
        for n in 3..=9 {
            let u = CMat::from_fn(n, n, |j, k| {
                let theta = -2.0 * std::f64::consts::PI * (j * k) as f64 / n as f64;
                Complex64::from_polar(1.0 / (n as f64).sqrt(), theta)
            });
            let s = sigma_max(&u).unwrap();
            assert!((s - 1.0).abs() <= 4.0 * f64::EPSILON, "n = {n}: {s}");
        }
    }

    #[test]
    fn sigma_max_rejects_empty_and_non_finite_input() {
        for a in [CMat::zeros(0, 3), CMat::zeros(2, 0)] {
            assert!(matches!(sigma_max(&a), Err(LinalgError::InvalidArgument { .. })));
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for z in [Complex64::new(bad, 0.0), Complex64::new(0.5, bad)] {
                let mut a = random_cmat(3, 3, 5);
                a[(1, 2)] = z;
                assert!(
                    matches!(sigma_max(&a), Err(LinalgError::InvalidArgument { .. })),
                    "{z} must be rejected"
                );
            }
        }
    }
}
