//! Controllability Gramians and the frequency-weighted Gramians used by the
//! sensitivity-weighted perturbation norm.

use crate::{Result, StateSpace};
use pim_linalg::lyapunov::controllability_gramian;
use pim_linalg::Mat;

/// Controllability Gramian `P` of a state-space system: the solution of
/// `A·P + P·Aᵀ + B·Bᵀ = 0` (eq. 11 of the paper).
///
/// # Errors
///
/// Propagates Lyapunov solver failures (the system must be asymptotically
/// stable for the Gramian to exist).
pub fn controllability(sys: &StateSpace) -> Result<Mat> {
    Ok(controllability_gramian(sys.a(), sys.b())?)
}

/// The partitioned, frequency-weighted controllability Gramian of eq. (19):
/// given the SISO realization of a matrix element `S_ij(s)` and of the
/// sensitivity weight `Ξ̃(s)`, forms the cascade `S_ij(s)·Ξ̃(s)` (eq. 18),
/// computes its controllability Gramian, and returns the upper-left
/// `n_ij × n_ij` block `P^Ξ,11` that weights perturbations of `c_ij`
/// (eq. 20).
///
/// # Errors
///
/// Returns [`StateSpaceError::InvalidModel`](crate::StateSpaceError) if
/// either system is not SISO and propagates Lyapunov solver failures.
pub fn weighted_element_gramian(element: &StateSpace, weight: &StateSpace) -> Result<Mat> {
    let cascade = element.cascade_siso(weight)?;
    let full = controllability(&cascade)?;
    Ok(full.block(0, 0, element.order(), element.order()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_linalg::approx_eq;

    fn first_order(pole: f64, gain: f64) -> StateSpace {
        StateSpace::new(
            Mat::from_diag(&[pole]),
            Mat::col_vector(&[1.0]),
            Mat::row_vector(&[gain]),
            Mat::from_diag(&[0.0]),
        )
        .unwrap()
    }

    #[test]
    fn controllability_of_first_order_system() {
        // P = b^2 / (2|a|)
        let sys = first_order(-4.0, 3.0);
        let p = controllability(&sys).unwrap();
        assert!(approx_eq(p[(0, 0)], 1.0 / 8.0, 1e-12));
    }

    #[test]
    fn perturbation_norm_matches_l2_norm_of_impulse_response() {
        // For H(s) = c/(s+a), the impulse response is c e^{-at} and
        // ||H||_2^2 = c^2/(2a). Perturbing c by dc changes the norm by
        // dc^2/(2a), which must equal tr(dc P dc^T).
        let a = 2.5;
        let sys = first_order(-a, 1.0);
        let p = controllability(&sys).unwrap();
        let dc = Mat::row_vector(&[0.3]);
        let n = dc.matmul(&p).unwrap().matmul(&dc.transpose()).unwrap().trace();
        assert!(approx_eq(n, 0.3 * 0.3 / (2.0 * a), 1e-12));
    }

    #[test]
    fn weighted_gramian_reduces_to_plain_gramian_for_unit_weight() {
        let sys = first_order(-3.0, 2.0);
        // Unit weight: W(s) = 1 (zero-order dynamics represented by a fast,
        // negligible pole with zero residue and d = 1).
        let unit = StateSpace::new(
            Mat::from_diag(&[-1e9]),
            Mat::col_vector(&[0.0]),
            Mat::row_vector(&[0.0]),
            Mat::from_diag(&[1.0]),
        )
        .unwrap();
        let pw = weighted_element_gramian(&sys, &unit).unwrap();
        let p = controllability(&sys).unwrap();
        assert!(pw.max_abs_diff(&p) < 1e-10);
    }

    #[test]
    fn weighted_gramian_scales_quadratically_with_constant_weight() {
        let sys = first_order(-1.0, 1.0);
        let make_const = |k: f64| {
            StateSpace::new(
                Mat::from_diag(&[-1e9]),
                Mat::col_vector(&[0.0]),
                Mat::row_vector(&[0.0]),
                Mat::from_diag(&[k]),
            )
            .unwrap()
        };
        let p1 = weighted_element_gramian(&sys, &make_const(1.0)).unwrap();
        let p3 = weighted_element_gramian(&sys, &make_const(3.0)).unwrap();
        // ||W·dS||^2 with constant W = 3 is 9x the unweighted norm.
        assert!(approx_eq(p3[(0, 0)], 9.0 * p1[(0, 0)], 1e-9));
    }

    #[test]
    fn weighted_gramian_emphasizes_the_weighted_band() {
        // Element with a low-frequency pole; weight is a low-pass filter.
        // A low-pass weight must produce a larger (1,1) Gramian entry than a
        // high-pass weight of identical peak gain, because the element's
        // energy is concentrated at low frequency.
        let sys = first_order(-1.0, 1.0);
        let low_pass = StateSpace::new(
            Mat::from_diag(&[-10.0]),
            Mat::col_vector(&[1.0]),
            Mat::row_vector(&[10.0]),
            Mat::from_diag(&[0.0]),
        )
        .unwrap();
        let high_pass = StateSpace::new(
            Mat::from_diag(&[-10.0]),
            Mat::col_vector(&[1.0]),
            Mat::row_vector(&[-10.0]),
            Mat::from_diag(&[1.0]),
        )
        .unwrap();
        let p_lp = weighted_element_gramian(&sys, &low_pass).unwrap();
        let p_hp = weighted_element_gramian(&sys, &high_pass).unwrap();
        assert!(p_lp[(0, 0)] > p_hp[(0, 0)]);
    }

    #[test]
    fn gramian_fails_when_poles_are_symmetric_about_the_imaginary_axis() {
        // A has eigenvalues +1 and -1: the Lyapunov operator is singular and
        // no Gramian exists.
        let sys = StateSpace::new(
            Mat::from_diag(&[1.0, -1.0]),
            Mat::from_rows(&[&[1.0], &[1.0]]),
            Mat::row_vector(&[1.0, 1.0]),
            Mat::from_diag(&[0.0]),
        )
        .unwrap();
        assert!(controllability(&sys).is_err());
    }
}
