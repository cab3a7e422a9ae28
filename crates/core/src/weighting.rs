//! Construction of the sensitivity-weighted perturbation norm
//! (eq. 14–21 of the paper).

use crate::{CoreError, Result};
use pim_passivity::enforce::PerturbationNorm;
use pim_passivity::norm::{NormBuilder, NormKind};
use pim_passivity::PassivityError;
use pim_statespace::gramian::weighted_element_gramian;
use pim_statespace::{PoleResidueModel, StateSpace};
use pim_vectfit::SensitivityModel;

/// Builds the sensitivity-weighted perturbation norm `‖δS‖²_Ξ = ‖Ξ̃·δS‖²₂`
/// for a macromodel.
///
/// The paper realizes the cascade `S_ij(s)·Ξ̃(s)` of eq. (18) for every
/// matrix element; the `(1,1)` block of its controllability Gramian
/// (eq. 19) weights the `δc_ij` perturbation (eq. 20), and the element
/// contributions add up to the norm of eq. (21). Because the macromodel
/// uses common poles, all elements share the same `(A_e, b_e)` pair, hence
/// the same weighted Gramian: it is computed once, and the norm holds that
/// one matrix.
///
/// # Errors
///
/// Propagates realization and Lyapunov solver failures.
///
/// ```
/// use pim_linalg::{CMat, Complex64, Mat};
/// use pim_statespace::PoleResidueModel;
/// use pim_vectfit::{fit_magnitude, MagnitudeFitConfig};
/// use pim_core::sensitivity_weighted_norm;
///
/// # fn main() -> Result<(), pim_core::CoreError> {
/// let model = PoleResidueModel::new(
///     vec![Complex64::new(-1e3, 0.0)],
///     vec![CMat::from_diag(&[Complex64::new(400.0, 0.0)])],
///     Mat::from_diag(&[0.4]),
/// )?;
/// // A flat (constant) sensitivity weight.
/// let omegas: Vec<f64> = (0..40).map(|k| 10f64.powf(1.0 + 0.1 * k as f64)).collect();
/// let xi = fit_magnitude(&omegas, &vec![2.0; 40], &MagnitudeFitConfig { order: 2 })?;
/// let norm = sensitivity_weighted_norm(&model, &xi)?;
/// assert_eq!(norm.gramians().shape(), (1, 1));
/// # Ok(())
/// # }
/// ```
pub fn sensitivity_weighted_norm(
    model: &PoleResidueModel,
    sensitivity: &SensitivityModel,
) -> Result<PerturbationNorm> {
    let element = StateSpace::from_pole_residue_element(model, 0, 0)?;
    let weight = sensitivity.state_space()?;
    Ok(PerturbationNorm::from_gramian(weighted_element_gramian(&element, &weight)?)?)
}

/// [`NormBuilder`] for the paper's sensitivity-weighted norm: captures the
/// weighting model `Ξ̃(s)` and instantiates the cascade-Gramian norm of
/// eq. (19)–(21) for any macromodel handed to [`NormBuilder::build`].
///
/// This is the pluggable counterpart of [`sensitivity_weighted_norm`], for
/// callers that hand norm construction around as a [`NormBuilder`].
#[derive(Debug, Clone)]
pub struct SensitivityWeightedNorm {
    weighting: SensitivityModel,
}

impl SensitivityWeightedNorm {
    /// Wraps a fitted weighting model `Ξ̃(s)`.
    pub fn new(weighting: SensitivityModel) -> Self {
        SensitivityWeightedNorm { weighting }
    }
}

impl NormBuilder for SensitivityWeightedNorm {
    fn kind(&self) -> NormKind {
        NormKind::SensitivityWeighted
    }

    fn build(&self, model: &PoleResidueModel) -> pim_passivity::Result<PerturbationNorm> {
        sensitivity_weighted_norm(model, &self.weighting).map_err(core_to_passivity)
    }
}

fn core_to_passivity(e: CoreError) -> PassivityError {
    match e {
        CoreError::Passivity(p) => p,
        CoreError::StateSpace(s) => PassivityError::StateSpace(s),
        CoreError::Linalg(l) => PassivityError::Linalg(l),
        other => PassivityError::InvalidInput(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_linalg::{approx_eq, CMat, Complex64, Mat};
    use pim_statespace::gramian::controllability;
    use pim_vectfit::{fit_magnitude, MagnitudeFitConfig};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn two_port_model() -> PoleResidueModel {
        let p = c(-5e3, 8e4);
        let r = CMat::from_fn(2, 2, |i, j| c(1e3 + 100.0 * (i + j) as f64, 50.0));
        PoleResidueModel::new(
            vec![c(-1e3, 0.0), p, p.conj()],
            vec![
                CMat::from_fn(2, 2, |i, j| c(500.0 * (1 + i + j) as f64, 0.0)),
                r.clone(),
                r.conj(),
            ],
            Mat::from_fn(2, 2, |i, j| if i == j { 0.3 } else { 0.05 }),
        )
        .unwrap()
    }

    fn flat_weight(value: f64) -> SensitivityModel {
        let omegas: Vec<f64> = (0..60).map(|k| 10f64.powf(k as f64 * 0.1)).collect();
        fit_magnitude(&omegas, &vec![value; 60], &MagnitudeFitConfig { order: 2 }).unwrap()
    }

    fn lowpass_weight() -> SensitivityModel {
        // |Ξ| large below 1e4 rad/s, small above.
        let omegas: Vec<f64> = (0..80).map(|k| 10f64.powf(1.0 + k as f64 * 0.075)).collect();
        let mags: Vec<f64> = omegas.iter().map(|w| 10.0 / (1.0 + w / 1e4)).collect();
        fit_magnitude(&omegas, &mags, &MagnitudeFitConfig { order: 4 }).unwrap()
    }

    #[test]
    fn flat_weight_scales_the_standard_gramian() {
        let model = two_port_model();
        let weight = flat_weight(1.0);
        let norm1 = sensitivity_weighted_norm(&model, &weight).unwrap();
        let norm3 = sensitivity_weighted_norm(&model, &flat_weight(3.0)).unwrap();
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let plain = controllability(&element).unwrap();
        // |Ξ| = 1 reproduces the standard Gramian, |Ξ| = 3 scales it by 9.
        let g1 = norm1.gramians();
        let g3 = norm3.gramians();
        assert!(g1.max_abs_diff(&plain) < 0.05 * plain.max_abs());
        for i in 0..g1.rows() {
            for j in 0..g1.cols() {
                assert!(
                    approx_eq(g3[(i, j)], 9.0 * g1[(i, j)], 0.1),
                    "scaling mismatch at ({i},{j}): {} vs {}",
                    g3[(i, j)],
                    9.0 * g1[(i, j)]
                );
            }
        }
        // The norm holds the one cascade Gramian every element shares
        // (common poles), bit for bit.
        let cascade = weighted_element_gramian(&element, &weight.state_space().unwrap()).unwrap();
        assert_eq!(g1.shape(), cascade.shape());
        for (a, b) in g1.as_slice().iter().zip(cascade.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lowpass_weight_penalizes_low_frequency_perturbations() {
        // With a low-pass sensitivity weight, a perturbation direction that
        // mainly changes the low-frequency response (the real pole at
        // -1e3 rad/s) must cost more than one affecting the resonant pair at
        // 8e4 rad/s, relative to the unweighted norm.
        let model = two_port_model();
        let weighted = sensitivity_weighted_norm(&model, &lowpass_weight()).unwrap();
        let element = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let plain = controllability(&element).unwrap();
        let gw = weighted.gramians();
        // Direction e0 excites the real (low-frequency) pole; e1/e2 the pair.
        let cost = |g: &Mat, dir: &[f64]| -> f64 {
            let gv = g.matvec(dir).unwrap();
            dir.iter().zip(&gv).map(|(a, b)| a * b).sum()
        };
        let low_dir = [1.0, 0.0, 0.0];
        let high_dir = [0.0, 1.0, 0.0];
        let ratio_weighted = cost(gw, &low_dir) / cost(gw, &high_dir);
        let ratio_plain = cost(&plain, &low_dir) / cost(&plain, &high_dir);
        assert!(
            ratio_weighted > 3.0 * ratio_plain,
            "weighted {ratio_weighted} vs plain {ratio_plain}"
        );
    }

    #[test]
    fn builder_matches_the_direct_construction() {
        let model = two_port_model();
        let weight = lowpass_weight();
        let direct = sensitivity_weighted_norm(&model, &weight).unwrap();
        let builder = SensitivityWeightedNorm::new(weight);
        assert_eq!(builder.kind(), NormKind::SensitivityWeighted);
        let built = builder.build(&model).unwrap();
        assert_eq!(built.states(), direct.states());
        assert_eq!((built.gramians().max_abs_diff(direct.gramians())).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn norm_dimensions_match_model() {
        let model = two_port_model();
        let norm = sensitivity_weighted_norm(&model, &flat_weight(1.0)).unwrap();
        assert_eq!(norm.states(), 3);
        let v = norm.evaluate(&[1e-3; 2 * 2 * 3]).unwrap();
        assert!(v > 0.0);
    }
}
