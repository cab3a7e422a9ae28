//! The end-to-end PDN macromodeling flow of the paper.
//!
//! Given tabulated scattering data and the nominal termination scheme, the
//! flow performs:
//!
//! 1. standard (unweighted) Vector Fitting — the conventional baseline;
//! 2. computation of the first-order sensitivity `Ξ_k` of the target
//!    impedance (eq. 5) and of the corresponding fitting weights (eq. 6);
//! 3. sensitivity-weighted Vector Fitting;
//! 4. Magnitude Vector Fitting of `Ξ_k` into the weighting model `Ξ̃(s)`
//!    (eq. 15–17);
//! 5. passivity assessment of the weighted model and, when violations exist,
//!    passivity enforcement with the sensitivity-weighted norm (eq. 18–21),
//!    which delivers the model, and with the standard L2 norm, which only
//!    draws the comparison the paper uses to demonstrate the accuracy loss
//!    of unweighted enforcement (Fig. 5).
//!
//! [`crate::pipeline::Pipeline`] runs it; this module holds its
//! configuration, its report and the model evaluation.

use crate::recovery::{AccuracyContract, ContractConfig};
use crate::Result;
use pim_passivity::enforce::{EnforcementConfig, EnforcementOutcome};
use pim_pdn::{target_impedance, TargetImpedance, TerminationNetwork};
use pim_rfdata::{metrics, NetworkData, ParameterKind};
use pim_statespace::PoleResidueModel;
use pim_vectfit::{SensitivityModel, VfConfig, VfResult};

/// Configuration of the full flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Vector Fitting configuration (order, iterations, ...), shared by the
    /// standard and the weighted fit.
    pub vf: VfConfig,
    /// Order `n_w` of the sensitivity weighting model (paper: 8).
    pub sensitivity_order: usize,
    /// Passivity enforcement configuration (shared by the weighted and the
    /// baseline enforcement).
    pub enforcement: EnforcementConfig,
    /// The accuracy contract attached to delivered models (see
    /// [`crate::recovery::ContractConfig`]).
    pub contract: ContractConfig,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            vf: VfConfig { n_poles: 18, n_iterations: 6 },
            sensitivity_order: 8,
            enforcement: EnforcementConfig::default(),
            contract: ContractConfig::default(),
        }
    }
}

/// Accuracy summary of one macromodel against the reference data.
#[derive(Debug, Clone)]
pub struct ModelEvaluation {
    /// RMS error in the scattering representation (eq. 4, normalized).
    pub scattering_rms_error: f64,
    /// Relative RMS error of the target impedance with respect to the
    /// nominal (data-based) target impedance.
    pub impedance_relative_error: f64,
    /// The macromodel-based target impedance.
    pub impedance: TargetImpedance,
}

/// Full report of the macromodeling flow.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Target impedance computed from the raw data (the reference curve of
    /// Figs. 2 and 5).
    pub nominal_impedance: TargetImpedance,
    /// The sensitivity samples `Ξ_k`.
    pub sensitivity: Vec<f64>,
    /// The normalized fitting weights derived from the sensitivity.
    pub weights: Vec<f64>,
    /// The rational weighting model `Ξ̃(s)`.
    pub sensitivity_model: SensitivityModel,
    /// The standard (unweighted) Vector Fitting result.
    pub standard_fit: VfResult,
    /// The sensitivity-weighted Vector Fitting result.
    pub weighted_fit: VfResult,
    /// Worst singular value of the weighted model before enforcement.
    pub sigma_max_before: f64,
    /// Outcome of the sensitivity-weighted passivity enforcement (`None` when
    /// the weighted model was already passive).
    pub weighted_enforcement: Option<EnforcementOutcome>,
    /// Outcome of the standard-norm passivity enforcement on the same model
    /// (`None` when the model was already passive). A `NotConverged` failure
    /// is reported as `None` as well — the baseline is only a comparison
    /// curve.
    pub standard_enforcement: Option<EnforcementOutcome>,
    /// Evaluation of the standard (unweighted) fitted model.
    pub standard_model_eval: ModelEvaluation,
    /// Evaluation of the weighted fitted model (before enforcement).
    pub weighted_model_eval: ModelEvaluation,
    /// Evaluation of the final sensitivity-weighted passive model.
    pub weighted_passive_eval: ModelEvaluation,
    /// Evaluation of the standard-norm passive model, when available.
    pub standard_passive_eval: Option<ModelEvaluation>,
    /// The accuracy contract of the delivered model, including the
    /// recovery rung that delivered it. [`Pipeline::report`] always attaches
    /// it, so it is always `Some`.
    ///
    /// [`Pipeline::report`]: crate::pipeline::Pipeline::report
    pub contract: Option<AccuracyContract>,
}

impl FlowReport {
    /// The final deliverable of the flow: the passive, sensitivity-weighted
    /// macromodel (the weighted fit itself when it was already passive).
    pub fn final_model(&self) -> &PoleResidueModel {
        match &self.weighted_enforcement {
            Some(out) => &out.model,
            None => &self.weighted_fit.model,
        }
    }
}

/// Evaluates a macromodel against the reference data and the nominal
/// termination scheme: scattering RMS error plus target-impedance error.
///
/// # Errors
///
/// Propagates sampling, conversion and impedance computation failures.
pub fn evaluate_model(
    model: &PoleResidueModel,
    data: &NetworkData,
    network: &TerminationNetwork,
    observation_port: usize,
    nominal: &TargetImpedance,
) -> Result<ModelEvaluation> {
    let sampled = model.sample(data.grid(), ParameterKind::Scattering, data.z_ref())?;
    let scattering_rms_error = metrics::rms_error(&sampled, data)?;
    let impedance = target_impedance(&sampled, network, observation_port)?;
    let impedance_relative_error = metrics::relative_rms_error(&nominal.values, &impedance.values)?;
    Ok(ModelEvaluation { scattering_rms_error, impedance_relative_error, impedance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::scenario::ScenarioPreset;
    use pim_passivity::check::assess_with_sampling;
    use pim_passivity::grid::FrequencyGrid;

    /// The trimmed fixture-class configuration at the default order 18.
    fn quick_config() -> FlowConfig {
        crate::corpus::corpus_flow_config(18)
    }

    #[test]
    fn flow_reproduces_the_paper_claims_on_the_reduced_scenario() {
        let sc = ScenarioPreset::Reduced.build().unwrap();
        let config = quick_config();
        let report = Pipeline::from_scenario(&sc, config.clone()).unwrap().report().unwrap();

        // Claim 1 (Fig. 1 / Fig. 2): the standard model is accurate in the
        // scattering representation but the weighted model tracks the target
        // impedance better.
        assert!(report.standard_model_eval.scattering_rms_error < 1e-2);
        assert!(
            report.weighted_model_eval.impedance_relative_error
                < report.standard_model_eval.impedance_relative_error,
            "weighted fit ({}) must beat standard fit ({}) on the target impedance",
            report.weighted_model_eval.impedance_relative_error,
            report.standard_model_eval.impedance_relative_error
        );
        assert!(report.weighted_model_eval.impedance_relative_error < 0.15);

        // Claim 2 (Fig. 3): the sensitivity decreases over the band and the
        // weighting model tracks it where it matters.
        let xi_low = report.sensitivity[1];
        let xi_high = *report.sensitivity.last().unwrap();
        assert!(xi_low > 10.0 * xi_high);

        // Claim 3 (Fig. 4 / Fig. 5): the final weighted-enforcement model is
        // passive and keeps the target impedance accurate.
        let final_eval = &report.weighted_passive_eval;
        assert!(final_eval.impedance_relative_error < 0.6);
        let final_assessment = assess_with_sampling(
            pim_runtime::global(),
            report.final_model(),
            &FrequencyGrid::from_omegas(&sc.data.grid().omegas()),
            config.enforcement.sampling.as_ref(),
        )
        .unwrap();
        // The enforcement loop certifies passivity on its own (denser)
        // sweep plus the Hamiltonian test; re-assessing on the coarser data
        // grid may expose residual violations at the numerical-tolerance
        // level between constrained frequencies, so allow a 1e-3 band.
        assert!(
            final_assessment.sigma_max <= 1.0 + 1e-3,
            "final model must be (practically) passive, sigma_max = {}",
            final_assessment.sigma_max
        );
        if let Some(out) = &report.weighted_enforcement {
            assert!(out.report.passive, "enforcement must certify passivity on its own sweep");
        }

        // Claim 4: when the weighted model needs enforcement and the
        // standard-norm baseline is available, the weighted enforcement
        // preserves the target impedance at least as well.
        if let (Some(_), Some(std_eval)) =
            (&report.weighted_enforcement, &report.standard_passive_eval)
        {
            assert!(
                final_eval.impedance_relative_error < std_eval.impedance_relative_error,
                "weighted enforcement ({}) must beat standard enforcement ({})",
                final_eval.impedance_relative_error,
                std_eval.impedance_relative_error
            );
        }

        // Bookkeeping invariants.
        assert_eq!(report.weights.len(), sc.data.len());
        assert!(report.weights.iter().all(|&w| w > 0.0 && w <= 1.0));
        assert_eq!(report.sensitivity.len(), sc.data.len());
    }

    #[test]
    fn flow_rejects_non_scattering_data() {
        let sc = ScenarioPreset::Reduced.build().unwrap();
        let zdata = sc.data.to_impedance().unwrap();
        assert!(
            Pipeline::from_data(&zdata, &sc.network, sc.observation_port, quick_config()).is_err()
        );
    }

    #[test]
    fn flow_rejects_non_finite_samples() {
        let sc = ScenarioPreset::Reduced.build().unwrap();
        for bad in [f64::NAN, f64::INFINITY] {
            let corrupted = sc
                .data
                .map_matrices(|k, m| {
                    let mut m = m.clone();
                    if k == 10 {
                        m[(0, 0)].re = bad;
                    }
                    Ok(m)
                })
                .unwrap();
            let port = sc.observation_port;
            match Pipeline::from_data(&corrupted, &sc.network, port, quick_config()) {
                Err(crate::CoreError::InvalidInput(msg)) => {
                    assert!(msg.contains("sample 10"), "{bad}: {msg}")
                }
                other => panic!("{bad}: expected InvalidInput, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn flow_rejects_an_audit_grid_below_two_points() {
        let sc = ScenarioPreset::Reduced.build().unwrap();
        let mut no_audit = quick_config();
        no_audit.contract.audit_multiplier = 0;
        let mut no_sweep = quick_config();
        no_sweep.enforcement.sweep_points = 0;
        for config in [no_audit, no_sweep] {
            assert!(matches!(
                Pipeline::from_scenario(&sc, config),
                Err(crate::CoreError::InvalidInput(_))
            ));
        }
    }
}
