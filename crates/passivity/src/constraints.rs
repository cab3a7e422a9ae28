//! Linearization of the local passivity constraints (eq. 8 of the paper).
//!
//! At a frequency `ω_ν` where a singular value `σ_i(jω_ν)` of the scattering
//! matrix exceeds (or approaches) one, a first-order expansion with respect
//! to a perturbation `δC` of the state-space output matrix gives
//!
//! ```text
//! δσ_i ≈ Re( u_iᴴ · δS(jω_ν) · v_i ),   δS_ij(jω) = δc_ij · φ(jω),
//! φ(jω) = (jωI − A_e)⁻¹ b_e,
//! ```
//!
//! where `(u_i, v_i)` are the singular vectors and `(A_e, b_e)` the common
//! per-element realization of the macromodel. Stacking the coefficients over
//! all matrix elements yields one row of the constraint system
//! `F·vec(δC) ≤ g` used by the quadratic program of eq. (9).

use crate::{PassivityError, Result};
use pim_linalg::lu::Lu;
use pim_linalg::svd::svd;
use pim_linalg::{Complex64, Mat};
use pim_statespace::{pole_blocks, PoleBlock, PoleResidueModel, StateSpace};

/// The linearized passivity constraint system `F·x ≤ g`, where the unknown
/// vector `x` stacks the per-element output-row perturbations `δc_ij`
/// (element `(i, j)` occupies the slice `[(i·P + j)·N, (i·P + j + 1)·N)`).
#[derive(Debug, Clone)]
pub struct ConstraintSystem {
    /// Constraint coefficient matrix (one row per constrained singular value
    /// and frequency).
    pub f: Mat,
    /// Right-hand side: the available singular-value headroom `1 − δ − σ_i`.
    pub g: Vec<f64>,
}

impl ConstraintSystem {
    /// Number of constraint rows.
    pub fn rows(&self) -> usize {
        self.g.len()
    }
}

/// Builds the linearized constraint system for the given macromodel at the
/// listed frequencies.
///
/// For every frequency, all singular values larger than `sigma_threshold`
/// contribute one constraint forcing the perturbed singular value below
/// `1 − margin`. The per-frequency `φ(jω)` and SVDs are computed first, so
/// `F` is allocated once at its final `m × P²N` size and its rows are
/// written in place.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] for an empty frequency list and
/// propagates numerical failures.
pub fn build_constraints(
    model: &PoleResidueModel,
    element_realization: &StateSpace,
    omegas: &[f64],
    sigma_threshold: f64,
    margin: f64,
) -> Result<ConstraintSystem> {
    if omegas.is_empty() {
        return Err(PassivityError::InvalidInput(
            "constraint construction requires at least one frequency".into(),
        ));
    }
    if !(margin >= 0.0) || margin >= 1.0 {
        return Err(PassivityError::InvalidInput(format!(
            "margin must lie in [0, 1), got {margin}"
        )));
    }
    let ports = model.ports();
    let n_states = element_realization.order();
    let cols = ports * ports * n_states;
    let constrained = |sigma: f64| !(sigma <= sigma_threshold);

    // The shifted matrix jωI − A_e differs between frequencies only on the
    // diagonal: build the negated A once and patch the diagonal per ω.
    let neg_a = element_realization.a().to_complex().scaled_real(-1.0);
    let b_cplx = element_realization.b().to_complex();
    let mut points = Vec::with_capacity(omegas.len());
    for &omega in omegas {
        // φ(jω) = (jωI − A_e)⁻¹ b_e  (shared by every matrix element).
        let s = Complex64::from_imag(omega);
        let mut si_a = neg_a.clone();
        for i in 0..n_states {
            si_a[(i, i)] += s;
        }
        let phi = Lu::new(&si_a)?.solve(&b_cplx)?;
        let s_matrix = model.evaluate_at_omega(omega).map_err(PassivityError::StateSpace)?;
        points.push((phi, svd(&s_matrix)?));
    }

    let rows = points
        .iter()
        .map(|(_, d)| d.singular_values.iter().filter(|&&sigma| constrained(sigma)).count())
        .sum();
    let mut f = Mat::zeros(rows, cols);
    let mut g: Vec<f64> = Vec::with_capacity(rows);
    for (phi, decomposition) in &points {
        let (u, v) = (&decomposition.u, &decomposition.v);
        for (idx, &sigma) in decomposition.singular_values.iter().enumerate() {
            if !constrained(sigma) {
                continue;
            }
            let r = g.len();
            let row = &mut f.as_mut_slice()[r * cols..(r + 1) * cols];
            for i in 0..ports {
                for j in 0..ports {
                    let scale = u[(i, idx)].conj() * v[(j, idx)];
                    let base = (i * ports + j) * n_states;
                    for m in 0..n_states {
                        row[base + m] += (scale * phi[(m, 0)]).re;
                    }
                }
            }
            g.push(1.0 - margin - sigma);
        }
    }
    Ok(ConstraintSystem { f, g })
}

/// Applies a stacked perturbation vector (as produced by the quadratic
/// program) to a pole–residue model, returning the perturbed model.
///
/// The mapping follows the per-element realization convention of
/// [`StateSpace::from_pole_residue_element`]: for a real pole the residue
/// perturbation equals the corresponding `δc` entry, for a complex pair the
/// two entries are `2·Re(δR)` and `2·Im(δR)`.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] on a length mismatch and
/// propagates model reconstruction failures.
pub fn apply_perturbation(model: &PoleResidueModel, delta: &[f64]) -> Result<PoleResidueModel> {
    let ports = model.ports();
    let n = model.order();
    if delta.len() != ports * ports * n {
        return Err(PassivityError::InvalidInput(format!(
            "perturbation vector has {} entries, expected {}",
            delta.len(),
            ports * ports * n
        )));
    }
    let blocks = pole_blocks(model.poles())?;
    let mut residues = model.residues().to_vec();
    for i in 0..ports {
        for j in 0..ports {
            let dc = &delta[(i * ports + j) * n..];
            for &block in &blocks {
                match block {
                    PoleBlock::Real(m) => {
                        residues[m][(i, j)] += Complex64::from_real(dc[m]);
                    }
                    PoleBlock::Pair(m) => {
                        let dr = Complex64::new(0.5 * dc[m], 0.5 * dc[m + 1]);
                        residues[m][(i, j)] += dr;
                        residues[m + 1][(i, j)] += dr.conj();
                    }
                }
            }
        }
    }
    Ok(PoleResidueModel::new(model.poles().to_vec(), residues, model.d().clone())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_linalg::CMat;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn violating_two_port() -> PoleResidueModel {
        let p = c(-60.0, 900.0);
        let r =
            CMat::from_fn(2, 2, |i, j| c(20.0 + 5.0 * (i + j) as f64, 8.0 - 2.0 * (i + j) as f64));
        PoleResidueModel::new(
            vec![p, p.conj(), c(-2000.0, 0.0)],
            vec![r.clone(), r.conj(), CMat::from_diag(&[c(100.0, 0.0), c(80.0, 0.0)])],
            Mat::from_fn(2, 2, |i, j| if i == j { 0.8 } else { 0.05 }),
        )
        .unwrap()
    }

    #[test]
    fn constraint_rows_predict_sigma_change() {
        let model = violating_two_port();
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let omega = 900.0;
        let cons = build_constraints(&model, &element, &[omega], 0.0, 0.0).unwrap();
        assert!(cons.rows() >= 1);
        let unknowns = cons.f.cols();
        assert_eq!(unknowns, 4 * 3);
        // Take a small random-ish perturbation and verify the first-order
        // prediction of the largest singular value change.
        let delta: Vec<f64> = (0..unknowns).map(|k| 1e-5 * ((k % 7) as f64 - 3.0)).collect();
        let predicted_change: f64 = (0..unknowns).map(|k| cons.f[(0, k)] * delta[k]).sum();
        let sigma_before = crate::check::sigma_max_at(&model, omega).unwrap();
        let perturbed = apply_perturbation(&model, &delta).unwrap();
        let sigma_after = crate::check::sigma_max_at(&perturbed, omega).unwrap();
        let actual_change = sigma_after - sigma_before;
        assert!(
            (predicted_change - actual_change).abs() < 0.05 * actual_change.abs().max(1e-9),
            "prediction {predicted_change} vs actual {actual_change}"
        );
    }

    #[test]
    fn headroom_is_negative_for_violations() {
        let model = violating_two_port();
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let cons = build_constraints(&model, &element, &[900.0], 1.0, 0.0).unwrap();
        // Only violated singular values are constrained with threshold 1.0,
        // and their headroom 1 - sigma is negative.
        assert!(cons.g.iter().all(|&x| x < 0.0));
    }

    #[test]
    fn threshold_filters_constraints() {
        let model = violating_two_port();
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let all = build_constraints(&model, &element, &[900.0], 0.0, 0.0).unwrap();
        let only_big = build_constraints(&model, &element, &[900.0], 1.0, 0.0).unwrap();
        assert!(all.rows() >= only_big.rows());
        assert!(build_constraints(&model, &element, &[], 0.0, 0.0).is_err());
        assert!(build_constraints(&model, &element, &[900.0], 0.0, 1.5).is_err());
    }

    #[test]
    fn apply_perturbation_round_trip_on_zero() {
        let model = violating_two_port();
        let zero = vec![0.0; 4 * 3];
        let same = apply_perturbation(&model, &zero).unwrap();
        for (a, b) in model.residues().iter().zip(same.residues()) {
            assert!(a.max_abs_diff(b) < 1e-15);
        }
        assert!(apply_perturbation(&model, &[0.0; 5]).is_err());
    }

    #[test]
    fn perturbation_preserves_conjugate_residue_structure() {
        let model = violating_two_port();
        let delta: Vec<f64> = (0..12).map(|k| (k as f64) * 1e-3).collect();
        let perturbed = apply_perturbation(&model, &delta).unwrap();
        // The model constructor validates conjugate pairing, so reaching this
        // point means the structure was preserved; also check stability and
        // that something actually changed.
        assert!(perturbed.is_stable());
        let changed = model.residues()[0].max_abs_diff(&perturbed.residues()[0]);
        assert!(changed > 0.0);
    }
}
