//! Property-based tests for the dense linear algebra kernels.

use pim_linalg::eig::eigenvalues;
use pim_linalg::lyapunov::controllability_gramian;
use pim_linalg::qr::QrFactor;
use pim_linalg::schur::complex_schur;
use pim_linalg::svd::{sigma_max, svd};
use pim_linalg::{CMat, Complex64, Mat};
use proptest::prelude::*;

/// Strategy: a well-conditioned (diagonally dominant) real square matrix.
fn dominant_matrix(n: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |v| {
        Mat::from_fn(n, n, |i, j| {
            let x = v[i * n + j];
            if i == j {
                x + n as f64 + 1.0
            } else {
                x
            }
        })
    })
}

/// Strategy: a Hurwitz (stable) real matrix built as `M - (ρ(M)+margin)·I`.
fn stable_matrix(n: usize) -> impl Strategy<Value = Mat> {
    prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |v| {
        let m = Mat::from_fn(n, n, |i, j| v[i * n + j]);
        let shift = n as f64 + 1.0;
        Mat::from_fn(n, n, |i, j| m[(i, j)] - if i == j { shift } else { 0.0 })
    })
}

fn complex_matrix(m: usize, n: usize) -> impl Strategy<Value = CMat> {
    prop::collection::vec(-1.0f64..1.0, 2 * m * n).prop_map(move |v| {
        CMat::from_fn(m, n, |i, j| Complex64::new(v[2 * (i * n + j)], v[2 * (i * n + j) + 1]))
    })
}

/// Naive triple-loop reference product for the blocked real kernel.
fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a[(i, k)] * b[(k, j)];
            }
        }
    }
    out
}

/// Naive triple-loop reference product for the blocked complex kernel.
fn naive_cmatmul(a: &CMat, b: &CMat) -> CMat {
    let mut out = CMat::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            for j in 0..b.cols() {
                out[(i, j)] += a[(i, k)] * b[(k, j)];
            }
        }
    }
    out
}

/// `true` when `got` and `want` hold the same values as multisets, within
/// `tol`: each entry of `got` is matched to the nearest unmatched entry of
/// `want`.
fn same_multiset(got: &[Complex64], want: &[Complex64], tol: f64) -> bool {
    let mut unmatched = want.to_vec();
    got.len() == want.len()
        && got.iter().all(|g| {
            let nearest = unmatched
                .iter()
                .enumerate()
                .map(|(k, w)| (k, (*g - *w).abs()))
                .min_by(|x, y| x.1.total_cmp(&y.1));
            match nearest {
                Some((k, d)) if d <= tol => {
                    unmatched.swap_remove(k);
                    true
                }
                _ => false,
            }
        })
}

/// The real Francis iteration against the complex Schur form of the same
/// matrix, within `1e-9·(1 + max|a_ij|)`.
fn matches_complex_oracle(a: &Mat) -> bool {
    let real = eigenvalues(a).unwrap();
    let oracle = complex_schur(&a.to_complex()).unwrap().eigenvalues();
    same_multiset(&real, &oracle, 1e-9 * (1.0 + a.max_abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn real_francis_eigenvalues_match_the_complex_schur_oracle(
        n in 1usize..41,
        v in prop::collection::vec(-1.0f64..1.0, 40 * 40),
        dominant in dominant_matrix(12),
    ) {
        prop_assert!(matches_complex_oracle(&Mat::from_fn(n, n, |i, j| v[i * 40 + j])));
        prop_assert!(matches_complex_oracle(&dominant));
    }

    #[test]
    fn blocked_matmul_matches_naive_reference(
        dims in (1usize..33, 1usize..33, 1usize..33),
        va in prop::collection::vec(-1.0f64..1.0, 33 * 33),
        vb in prop::collection::vec(-1.0f64..1.0, 33 * 33),
    ) {
        let (m, k, n) = dims;
        let a = Mat::from_fn(m, k, |i, j| va[i * 33 + j]);
        let b = Mat::from_fn(k, n, |i, j| vb[i * 33 + j]);
        let reference = naive_matmul(&a, &b);
        let fast = a.matmul(&b).unwrap();
        prop_assert!(fast.max_abs_diff(&reference) < 1e-12);
        // matmul_into overwrites whatever the output buffer held before.
        let mut out = Mat::filled(m, n, 7.5);
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn blocked_complex_matmul_matches_naive_reference(
        dims in (1usize..33, 1usize..33, 1usize..33),
        va in prop::collection::vec(-1.0f64..1.0, 2 * 33 * 33),
        vb in prop::collection::vec(-1.0f64..1.0, 2 * 33 * 33),
    ) {
        let (m, k, n) = dims;
        let a = CMat::from_fn(m, k, |i, j| {
            Complex64::new(va[2 * (i * 33 + j)], va[2 * (i * 33 + j) + 1])
        });
        let b = CMat::from_fn(k, n, |i, j| {
            Complex64::new(vb[2 * (i * 33 + j)], vb[2 * (i * 33 + j) + 1])
        });
        let reference = naive_cmatmul(&a, &b);
        let fast = a.matmul(&b).unwrap();
        prop_assert!(fast.max_abs_diff(&reference) < 1e-12);
        let mut out = CMat::identity(m.max(n)).block(0, 0, m, n);
        a.matmul_into(&b, &mut out).unwrap();
        prop_assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn lu_solve_reconstructs_rhs(a in dominant_matrix(5), x in prop::collection::vec(-2.0f64..2.0, 5)) {
        let b = a.matvec(&x).unwrap();
        let sol = a.solve(&Mat::col_vector(&b)).unwrap();
        for i in 0..5 {
            prop_assert!((sol[(i, 0)] - x[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity(a in dominant_matrix(4)) {
        let inv = a.inverse().unwrap();
        let err = a.matmul(&inv).unwrap().max_abs_diff(&Mat::identity(4));
        prop_assert!(err < 1e-9);
    }

    #[test]
    fn lstsq_residual_is_orthogonal_to_columns(
        v in prop::collection::vec(-1.0f64..1.0, 8 * 3),
        b in prop::collection::vec(-1.0f64..1.0, 8),
    ) {
        let a = Mat::from_fn(8, 3, |i, j| v[i * 3 + j] + if i % 3 == j { 2.0 } else { 0.0 });
        let x = QrFactor::new(&a).unwrap().solve_least_squares(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        // Normal equations: A^T r = 0 at the least squares optimum.
        let atr = a.transpose().matvec(&r).unwrap();
        for v in atr {
            prop_assert!(v.abs() < 1e-8);
        }
    }

    #[test]
    fn eigenvalue_sum_matches_trace(a in dominant_matrix(6)) {
        let ev = eigenvalues(&a).unwrap();
        let sum_re: f64 = ev.iter().map(|e| e.re).sum();
        let sum_im: f64 = ev.iter().map(|e| e.im).sum();
        prop_assert!((sum_re - a.trace()).abs() < 1e-7 * a.trace().abs().max(1.0));
        prop_assert!(sum_im.abs() < 1e-7);
    }

    #[test]
    fn schur_reconstructs_input(a in complex_matrix(5, 5)) {
        let s = complex_schur(&a).unwrap();
        let back = s.u.matmul(&s.t).unwrap().matmul(&s.u.hermitian()).unwrap();
        prop_assert!(back.max_abs_diff(&a) < 1e-8);
    }

    #[test]
    fn svd_reconstruction_and_operator_norm_bound(a in complex_matrix(4, 6)) {
        let d = svd(&a).unwrap();
        prop_assert!(d.reconstruct().unwrap().max_abs_diff(&a) < 1e-9);
        // The operator 2-norm bounds the scaled Frobenius norm from below.
        let fro = a.frobenius_norm();
        prop_assert!(d.sigma_max() <= fro + 1e-12);
        prop_assert!(d.sigma_max() * 2.0 >= fro / (4.0f64.min(6.0)).sqrt() - 1e-12);
    }

    #[test]
    fn values_only_sigma_max_matches_the_jacobi_svd(
        dims in (1usize..11, 1usize..11),
        va in prop::collection::vec(-1.0f64..1.0, 2 * 10 * 10),
        vu in prop::collection::vec(-1.0f64..1.0, 2 * 10),
        vv in prop::collection::vec(-1.0f64..1.0, 2 * 10),
    ) {
        let (m, n) = dims;
        let entry = |v: &[f64], k: usize| Complex64::new(v[2 * k], v[2 * k + 1]);
        let random = CMat::from_fn(m, n, |i, j| entry(&va, i * 10 + j));
        // The PDN regime, S ≈ −I with σ clustered at 1, and a rank-one
        // matrix, whose Gram matrix has one nonzero eigenvalue.
        let pdn = CMat::from_fn(m, m, |i, j| {
            let e = entry(&va, i * 10 + j).scale(2e-3);
            if i == j { e - Complex64::ONE } else { e }
        });
        let rank_one = CMat::from_fn(m, n, |i, j| entry(&vu, i) * entry(&vv, j).conj());
        for a in [&random, &random.hermitian(), &pdn, &rank_one, &rank_one.hermitian()] {
            let (fast, oracle) = (sigma_max(a).unwrap(), svd(a).unwrap().sigma_max());
            prop_assert!(
                (fast - oracle).abs() <= 1e-14 * oracle,
                "{}x{}: {fast} vs {oracle}", a.rows(), a.cols()
            );
        }
    }

    #[test]
    fn values_only_sigma_max_scales_exactly_by_powers_of_two(a in complex_matrix(4, 6)) {
        // The kernel prescales by a power of two, so scaling the input by
        // one scales the result bit for bit, far beyond where the Gram
        // matrix of the unscaled entries would underflow or overflow.
        let sigma = sigma_max(&a).unwrap();
        for k in [-400, 400] {
            let factor = 2f64.powi(k);
            let scaled = sigma_max(&a.scaled_real(factor)).unwrap();
            prop_assert!(scaled.to_bits() == (sigma * factor).to_bits(), "2^{k}: {scaled} vs {sigma}");
        }
    }

    #[test]
    fn gramian_is_positive_semidefinite(a in stable_matrix(4), bv in prop::collection::vec(-1.0f64..1.0, 4)) {
        let b = Mat::col_vector(&bv);
        let p = controllability_gramian(&a, &b).unwrap();
        let e = eigenvalues(&p).unwrap();
        prop_assert!(e.iter().all(|l| l.re > -1e-9));
        // Residual of the Lyapunov equation.
        let resid = &(&a.matmul(&p).unwrap() + &p.matmul(&a.transpose()).unwrap())
            + &b.matmul(&b.transpose()).unwrap();
        prop_assert!(resid.max_abs() < 1e-8);
    }
}
