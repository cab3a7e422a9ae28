//! Property-based tests on the realization invariants.

use pim_linalg::{CMat, Complex64, Mat};
use pim_statespace::{PoleResidueModel, StateSpace};
use proptest::prelude::*;

/// Strategy: a random stable 2-port pole-residue model with one real pole and
/// one complex pair.
fn random_model() -> impl Strategy<Value = PoleResidueModel> {
    (
        0.1f64..5.0,
        0.5f64..50.0,
        prop::collection::vec(-10.0f64..10.0, 8),
        prop::collection::vec(-1.0f64..1.0, 4),
    )
        .prop_map(|(sig, om, res, d)| {
            let p_real = Complex64::new(-sig * 10.0, 0.0);
            let p = Complex64::new(-sig, om);
            let r_real = CMat::from_fn(2, 2, |i, j| Complex64::from_real(res[i * 2 + j]));
            let r_c = CMat::from_fn(2, 2, |i, j| {
                Complex64::new(res[4 + i * 2 + j], res[(i * 2 + j + 2) % 4])
            });
            PoleResidueModel::new(
                vec![p_real, p, p.conj()],
                vec![r_real, r_c.clone(), r_c.conj()],
                Mat::from_fn(2, 2, |i, j| 0.3 * d[i * 2 + j]),
            )
            .unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn full_realization_matches_model(model in random_model(), omega in 0.0f64..100.0) {
        let sys = StateSpace::from_pole_residue(&model).unwrap();
        let h_pr = model.evaluate_at_omega(omega).unwrap();
        let h_ss = sys.evaluate_at_omega(omega).unwrap();
        prop_assert!(h_ss.max_abs_diff(&h_pr) < 1e-8 * h_pr.max_abs().max(1.0));
    }

    #[test]
    fn element_realization_matches_model(model in random_model(), omega in 0.0f64..100.0) {
        for i in 0..2 {
            for j in 0..2 {
                let sys = StateSpace::from_pole_residue_element(&model, i, j).unwrap();
                let a = model.evaluate_at_omega(omega).unwrap()[(i, j)];
                let b = sys.evaluate_at_omega(omega).unwrap()[(0, 0)];
                prop_assert!((a - b).abs() < 1e-8 * a.abs().max(1.0));
            }
        }
    }

    #[test]
    fn realization_poles_match_model_poles(model in random_model()) {
        let sys = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let mut got = sys.poles().unwrap();
        let mut want = model.poles().to_vec();
        let by_re_im = |a: &Complex64, b: &Complex64| a.re.total_cmp(&b.re).then(a.im.total_cmp(&b.im));
        got.sort_by(by_re_im);
        want.sort_by(by_re_im);
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((*g - *w).abs() < 1e-6 * w.abs().max(1.0));
        }
    }

    #[test]
    fn conjugate_symmetry_of_frequency_response(model in random_model(), omega in 0.1f64..100.0) {
        let h_pos = model.evaluate_at_omega(omega).unwrap();
        let h_neg = model.evaluate(Complex64::from_imag(-omega)).unwrap();
        prop_assert!(h_neg.max_abs_diff(&h_pos.conj()) < 1e-10 * h_pos.max_abs().max(1.0));
    }
}
