//! The staged, observable macromodeling pipeline.
//!
//! [`Pipeline`] runs the flow of [`crate::flow`] as typed stages, each
//! returning an owned artifact:
//!
//! ```text
//! Pipeline::from_scenario(..) / from_data(..)
//!     .sensitivity()         -> SensitivityArtifact        (Ξ_k, weights, Z_nominal)
//!     .fit(FitKind::..)      -> FitArtifact                (standard / weighted VF)
//!     .weighting_model()     -> SensitivityModel           (Ξ̃(s), eq. 15–17)
//!     .assess()              -> AssessmentArtifact         (Hamiltonian + sweep)
//!     .enforce(NormKind::..) -> Option<EnforcementOutcome> (norm + perturbation loop;
//!                                                           None when already passive)
//!     .report()              -> FlowReport                 (everything, assembled)
//! ```
//!
//! The stages up to the assessment compute lazily and cache their
//! successes: calling [`Pipeline::enforce`] first runs whatever
//! prerequisites are missing (weighted fit, weighting model, assessment),
//! and re-requesting one of those artifacts returns the cached value without
//! recomputation. A failed stage is not cached; asking for it again runs it
//! again. Enforcement is never cached: every [`Pipeline::enforce`] call runs
//! its loop and reports its events. A [`FlowObserver`]
//! attached with [`Pipeline::with_observer`] sees stage boundaries and every
//! enforcement iteration; observers never change numerics. The sampling
//! policy of the assessment and of every enforcement grid is
//! [`FlowConfig::enforcement`]`.sampling` (adaptive by default).
//!
//! [`Pipeline::report`] runs the sensitivity-weighted enforcement and the
//! standard-norm baseline **at once**, as the two items of one
//! [`pim_runtime::ThreadPool::par_map`], and, only when the weighted pass
//! runs out of budget or stalls, the reduced-order retry of
//! [`crate::recovery`] once. Every enforcement stage — the primary pass, the
//! standard baseline and the retry — runs in two halves: a `self`-free half
//! that builds the stage's norm (after the retry's reduced-order refit) and
//! runs the loop, which returns its iterations with its result, and one
//! private emitter that replays those iterations, labeled with the norm,
//! and delivers the done or failed event (with the diagnostics on
//! failure). Each stage starts before its norm is built, so its span covers
//! the Gramian solves and the retry's refit. The observer sees the serial
//! order — the weighted pass's events, the retry's, then the baseline's —
//! for every thread count.

use crate::flow::{evaluate_model, FlowConfig, FlowReport};
use crate::observer::{FlowObserver, Stage};
use crate::recovery::{AccuracyContract, RecoveryRung};
use crate::scenario::StandardScenario;
use crate::weighting::sensitivity_weighted_norm;
use crate::{CoreError, Result};
use pim_passivity::check::{
    assess_on, assess_with_crossings, assess_with_sampling, PassivityReport,
};
use pim_passivity::enforce::{
    enforce_passivity, EnforcementConfig, EnforcementOutcome, PerturbationNorm,
};
use pim_passivity::grid::{FixedLog, FrequencyGrid};
use pim_passivity::norm::NormKind;
use pim_passivity::PassivityError;
use pim_pdn::sensitivity::sensitivity_to_weights;
use pim_pdn::{analytic_sensitivity, target_impedance, TargetImpedance, TerminationNetwork};
use pim_rfdata::{NetworkData, ParameterKind};
use pim_statespace::PoleResidueModel;
use pim_vectfit::{
    fit_magnitude, vector_fit, MagnitudeFitConfig, SensitivityModel, VfConfig, VfResult,
};

/// Which least-squares metric a fitting stage minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FitKind {
    /// Plain (unweighted) Vector Fitting — the conventional baseline.
    Standard,
    /// Sensitivity-weighted Vector Fitting (weights of eq. 6).
    Weighted,
}

/// Artifact of the sensitivity stage.
#[derive(Debug, Clone)]
pub struct SensitivityArtifact {
    /// Target impedance computed from the raw data (the reference curve).
    pub nominal_impedance: TargetImpedance,
    /// The sensitivity samples `Ξ_k` (eq. 5).
    pub sensitivity: Vec<f64>,
    /// The normalized fitting weights derived from the sensitivity (eq. 6).
    pub weights: Vec<f64>,
}

/// Artifact of a fitting stage.
#[derive(Debug, Clone)]
pub struct FitArtifact {
    /// The Vector Fitting result (model + error summaries).
    pub result: VfResult,
}

/// Artifact of the passivity-assessment stage.
#[derive(Debug, Clone)]
pub struct AssessmentArtifact {
    /// Full assessment of the weighted macromodel on the data grid; its
    /// `sigma_max` is the worst singular value before any enforcement.
    pub report: PassivityReport,
}

/// The `self`-free half of an enforcement stage: builds the norm of
/// `model` — sensitivity-weighted by `weighting`, standard without — and
/// runs the loop. On [`PassivityError::NotConverged`] the best-so-far model
/// is audited on the contract grid, so the diagnostics carry its own
/// `σ_max`. It shares no mutable state, so the primary pass and the
/// standard baseline can run at once.
fn run_stage(
    model: &PoleResidueModel,
    weighting: Option<&SensitivityModel>,
    band_max_omega: f64,
    config: &EnforcementConfig,
    audit_grid: &FrequencyGrid,
) -> Result<EnforcementOutcome> {
    let norm = match weighting {
        Some(weighting) => sensitivity_weighted_norm(model, weighting)?,
        None => PerturbationNorm::standard(model)?,
    };
    let mut result = enforce_passivity(model, &norm, band_max_omega, config);
    if let Err(PassivityError::NotConverged { best, diagnostics }) = &mut result {
        diagnostics.best_sigma_max = assess_on(best, audit_grid).ok().map(|a| a.sigma_max);
    }
    Ok(result?)
}

/// The staged macromodeling pipeline (see the module docs for the stage
/// graph).
pub struct Pipeline<'a> {
    data: &'a NetworkData,
    network: &'a TerminationNetwork,
    observation_port: usize,
    config: FlowConfig,
    observer: Option<&'a mut dyn FlowObserver>,
    sensitivity: Option<SensitivityArtifact>,
    standard_fit: Option<VfResult>,
    weighted_fit: Option<VfResult>,
    weighting: Option<SensitivityModel>,
    assessment: Option<AssessmentArtifact>,
}

impl<'a> Pipeline<'a> {
    /// Creates a pipeline over tabulated scattering data and a termination
    /// scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the data is not in the
    /// scattering representation, when a sample holds a NaN or infinite
    /// entry, or when the contract's audit grid (`sweep_points ×
    /// audit_multiplier` points) would have fewer than two points.
    pub fn from_data(
        data: &'a NetworkData,
        network: &'a TerminationNetwork,
        observation_port: usize,
        config: FlowConfig,
    ) -> Result<Self> {
        if data.kind() != ParameterKind::Scattering {
            return Err(CoreError::InvalidInput("the flow requires scattering data".into()));
        }
        if let Some(k) =
            data.matrices().iter().position(|m| m.as_slice().iter().any(|z| !z.is_finite()))
        {
            return Err(CoreError::InvalidInput(format!(
                "scattering sample {k} (f = {} Hz) has a non-finite entry",
                data.grid().freqs_hz()[k]
            )));
        }
        if config.enforcement.sweep_points.saturating_mul(config.contract.audit_multiplier) < 2 {
            return Err(CoreError::InvalidInput(
                "the audit grid (sweep_points x audit_multiplier) needs at least two points".into(),
            ));
        }
        Ok(Pipeline {
            data,
            network,
            observation_port,
            config,
            observer: None,
            sensitivity: None,
            standard_fit: None,
            weighted_fit: None,
            weighting: None,
            assessment: None,
        })
    }

    /// Creates a pipeline over an assembled [`StandardScenario`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::from_data`].
    pub fn from_scenario(scenario: &'a StandardScenario, config: FlowConfig) -> Result<Self> {
        Pipeline::from_data(&scenario.data, &scenario.network, scenario.observation_port, config)
    }

    /// Attaches an observer; stage boundaries and enforcement iterations are
    /// reported to it. Observation never changes numerics.
    #[must_use]
    pub fn with_observer(mut self, observer: &'a mut dyn FlowObserver) -> Self {
        self.observer = Some(observer);
        self
    }

    fn stage_start(&mut self, stage: Stage) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_stage_start(stage);
        }
    }

    fn stage_done(&mut self, stage: Stage) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_stage_done(stage);
        }
    }

    /// Sensitivity stage: nominal target impedance, sensitivity samples
    /// `Ξ_k` and normalized fitting weights.
    ///
    /// # Errors
    ///
    /// Propagates impedance and sensitivity computation failures.
    pub fn sensitivity(&mut self) -> Result<SensitivityArtifact> {
        // Relative floor on the normalized weights, so that no frequency is
        // weighted exactly zero.
        const WEIGHT_FLOOR: f64 = 1e-2;
        if self.sensitivity.is_none() {
            self.stage_start(Stage::Sensitivity);
            let nominal_impedance =
                target_impedance(self.data, self.network, self.observation_port)?;
            let sensitivity = analytic_sensitivity(self.data, self.network, self.observation_port)?;
            let weights = sensitivity_to_weights(&sensitivity, WEIGHT_FLOOR)?;
            self.sensitivity =
                Some(SensitivityArtifact { nominal_impedance, sensitivity, weights });
            self.stage_done(Stage::Sensitivity);
        }
        Ok(self.sensitivity.clone().expect("sensitivity artifact just cached"))
    }

    /// Fitting stage: Vector Fitting of the scattering data under the given
    /// metric. The weighted fit pulls the sensitivity stage in on demand.
    ///
    /// # Errors
    ///
    /// Propagates fitting failures (and, for [`FitKind::Weighted`], failures
    /// of the sensitivity stage).
    pub fn fit(&mut self, kind: FitKind) -> Result<FitArtifact> {
        let cached = match kind {
            FitKind::Standard => self.standard_fit.is_some(),
            FitKind::Weighted => self.weighted_fit.is_some(),
        };
        if !cached {
            let weights = match kind {
                FitKind::Standard => None,
                FitKind::Weighted => Some(self.sensitivity()?.weights),
            };
            self.stage_start(Stage::Fit(kind));
            let result = vector_fit(self.data, weights.as_deref(), &self.config.vf)?;
            match kind {
                FitKind::Standard => self.standard_fit = Some(result),
                FitKind::Weighted => self.weighted_fit = Some(result),
            }
            self.stage_done(Stage::Fit(kind));
        }
        let result = match kind {
            FitKind::Standard => self.standard_fit.clone(),
            FitKind::Weighted => self.weighted_fit.clone(),
        };
        Ok(FitArtifact { result: result.expect("fit artifact just cached") })
    }

    /// Weighting-model stage: Magnitude Vector Fitting of the sensitivity
    /// samples into the stable minimum-phase model `Ξ̃(s)` (eq. 15–17). The
    /// DC point is skipped — `ω = 0` is degenerate under the `x = ω²`
    /// mapping.
    ///
    /// # Errors
    ///
    /// Propagates magnitude-fit failures (and sensitivity-stage failures).
    pub fn weighting_model(&mut self) -> Result<SensitivityModel> {
        if self.weighting.is_none() {
            let sens = self.sensitivity()?;
            self.stage_start(Stage::WeightingModel);
            let omegas = self.data.grid().omegas();
            let (fit_omegas, fit_xi): (Vec<f64>, Vec<f64>) = omegas
                .iter()
                .zip(&sens.sensitivity)
                .filter(|(&w, _)| w > 0.0)
                .map(|(&w, &x)| (w, x))
                .unzip();
            let model = fit_magnitude(
                &fit_omegas,
                &fit_xi,
                &MagnitudeFitConfig { order: self.config.sensitivity_order },
            )?;
            self.weighting = Some(model);
            self.stage_done(Stage::WeightingModel);
        }
        Ok(self.weighting.clone().expect("weighting model just cached"))
    }

    /// Assessment stage: Hamiltonian test plus singular-value sweep of the
    /// weighted macromodel on the data grid, refined by the configured
    /// sampling strategy (`config.enforcement.sampling`).
    ///
    /// # Errors
    ///
    /// Propagates assessment failures (and weighted-fit failures).
    pub fn assess(&mut self) -> Result<AssessmentArtifact> {
        if self.assessment.is_none() {
            let fit = self.fit(FitKind::Weighted)?;
            self.stage_start(Stage::Assessment);
            let omegas = self.data.grid().omegas();
            let report = assess_with_sampling(
                pim_runtime::global(),
                &fit.result.model,
                &FrequencyGrid::from_omegas(&omegas),
                self.config.enforcement.sampling.as_ref(),
            )?;
            self.assessment = Some(AssessmentArtifact { report });
            self.stage_done(Stage::Assessment);
        }
        Ok(self.assessment.clone().expect("assessment just cached"))
    }

    /// Enforcement stage under the given norm.
    ///
    /// Returns `None` when the assessed model is already passive. Every call
    /// runs the loop and reports its stage and iterations to the observer
    /// again; only the prerequisites (weighted fit, weighting model,
    /// assessment) are cached.
    ///
    /// # Errors
    ///
    /// Propagates norm-construction and enforcement failures (including
    /// [`PassivityError::NotConverged`] when the loop runs out of budget or
    /// stalls; its diagnostics carry the best-so-far model's audit `σ_max`).
    pub fn enforce(&mut self, kind: NormKind) -> Result<Option<EnforcementOutcome>> {
        let weighting = match kind {
            NormKind::Standard => None,
            NormKind::SensitivityWeighted => Some(self.weighting_model()?),
        };
        if self.assess()?.report.passive {
            return Ok(None);
        }
        let stage = Stage::Enforcement(kind);
        self.stage_start(stage);
        let model = &self.weighted_fit.as_ref().expect("assess caches the weighted fit").model;
        let result = run_stage(
            model,
            weighting.as_ref(),
            self.data.grid().max_omega(),
            &self.config.enforcement,
            &self.audit_grid(),
        );
        self.emit_stage(stage, result).map(Some)
    }

    /// The `&mut self` half of an enforcement stage — the primary pass, the
    /// standard baseline or the reduced-order retry — whose start was
    /// already reported: replays the run's iterations in order from its
    /// result, labeled with the enforced norm (the retry always enforces the
    /// sensitivity-weighted one), and then either the done event or the
    /// failed event and, on [`PassivityError::NotConverged`], the
    /// diagnostics. Any other error carries no iterations, so its stage
    /// reports only its start and its failure.
    fn emit_stage(
        &mut self,
        stage: Stage,
        result: Result<EnforcementOutcome>,
    ) -> Result<EnforcementOutcome> {
        let label = match stage {
            Stage::Enforcement(kind) => kind,
            // The reduced-order retry.
            _ => NormKind::SensitivityWeighted,
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            let diagnostics = match &result {
                Err(CoreError::Passivity(PassivityError::NotConverged { diagnostics, .. })) => {
                    Some(diagnostics.as_ref())
                }
                _ => None,
            };
            let trace = match (&result, diagnostics) {
                (Ok(outcome), _) => outcome.trace.as_slice(),
                (Err(_), Some(diagnostics)) => diagnostics.trace.as_slice(),
                (Err(_), None) => &[],
            };
            for event in trace {
                obs.on_enforcement_iteration(label, event);
            }
            if result.is_ok() {
                obs.on_stage_done(stage);
            } else {
                obs.on_stage_failed(stage);
            }
            if let Some(diagnostics) = diagnostics {
                obs.on_enforcement_diagnostics(label, diagnostics);
            }
        }
        result
    }

    /// The dense fixed-log audit grid of the accuracy contract:
    /// `sweep_points × audit_multiplier` points up to the data band edge —
    /// frequencies the enforcement never constrained (the corpus
    /// certification gate sweeps the identical grid).
    fn audit_grid(&self) -> FrequencyGrid {
        FrequencyGrid::enforcement_log(
            self.data.grid().max_omega(),
            self.config.enforcement.sweep_points * self.config.contract.audit_multiplier,
        )
    }

    /// The reduced-order retry of [`crate::recovery`], run once after the
    /// primary weighted pass did not converge: the weighted fit is redone
    /// two poles lower (never below order 6) and enforced under the
    /// sensitivity-weighted norm, a tightened adaptive QP damping cap and an
    /// extended iteration budget. The stage starts before the refit. Returns
    /// `None` when the order cannot be reduced or the retry does not
    /// converge either.
    fn run_reduced_order_retry(&mut self) -> Result<Option<EnforcementOutcome>> {
        // Adaptive QP damping cap of the retry; the primary pass keeps its
        // own, much looser, cap.
        const MAX_CONDITION: f64 = 1e6;
        // Outer iterations added to the configured budget.
        const EXTRA_ITERATIONS: usize = 40;
        // Poles removed by the refit, and the order it never refits below.
        const ORDER_REDUCTION: usize = 2;
        const MIN_ORDER: usize = 6;

        let n_poles = self.config.vf.n_poles.saturating_sub(ORDER_REDUCTION).max(MIN_ORDER);
        if n_poles >= self.config.vf.n_poles {
            return Ok(None);
        }
        let weighting = self.weighting_model()?;
        let weights = self.sensitivity()?.weights;
        let vf = VfConfig { n_poles, ..self.config.vf.clone() };
        let mut config = self.config.enforcement.clone();
        config.max_iterations += EXTRA_ITERATIONS;
        config.qp.max_condition = config.qp.max_condition.min(MAX_CONDITION);
        let stage = Stage::Recovery(RecoveryRung::ReducedOrder);
        self.stage_start(stage);
        let result =
            vector_fit(self.data, Some(&weights), &vf).map_err(CoreError::from).and_then(|fit| {
                let band_max_omega = self.data.grid().max_omega();
                run_stage(&fit.model, Some(&weighting), band_max_omega, &config, &self.audit_grid())
            });
        match self.emit_stage(stage, result) {
            Ok(outcome) => Ok(Some(outcome)),
            Err(CoreError::Passivity(PassivityError::NotConverged { .. })) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Evaluates an arbitrary macromodel against this pipeline's data and
    /// nominal impedance (scattering RMS error + target-impedance error).
    ///
    /// # Errors
    ///
    /// Propagates sampling and impedance computation failures.
    pub fn evaluate(
        &mut self,
        model: &pim_statespace::PoleResidueModel,
    ) -> Result<crate::flow::ModelEvaluation> {
        let sens = self.sensitivity()?;
        evaluate_model(
            model,
            self.data,
            self.network,
            self.observation_port,
            &sens.nominal_impedance,
        )
    }

    /// Runs every remaining stage and assembles the full [`FlowReport`].
    ///
    /// The weighted enforcement must succeed: when the primary pass returns
    /// [`PassivityError::NotConverged`], the reduced-order retry runs once
    /// and the rung that delivers is recorded in the accuracy contract. When the
    /// fit needs enforcement, the standard-norm baseline runs too; it is
    /// only a comparison curve and tolerates `NotConverged` (reported as
    /// `None`). The primary pass and the baseline start from the same fit
    /// and share no state, so they run at once on [`pim_runtime::global`].
    /// Their events still arrive in the serial order — the weighted pass's,
    /// the retry's, then the baseline's — and the numbers are bit-identical
    /// to the serial run (`PIM_THREADS=1`) and to [`Pipeline::enforce`]
    /// calls made one after the other. When the weighted pass fails for good
    /// the baseline is discarded unreported. The contract audit runs inside
    /// the [`Stage::Evaluation`] stage.
    ///
    /// # Errors
    ///
    /// Propagates failures of the individual stages; when neither the
    /// primary pass nor the retry converges, the primary pass's
    /// `NotConverged`.
    pub fn report(&mut self) -> Result<FlowReport> {
        let sens = self.sensitivity()?;
        let standard_fit = self.fit(FitKind::Standard)?.result;
        let weighted_fit = self.fit(FitKind::Weighted)?.result;
        let sensitivity_model = self.weighting_model()?;
        let assessment = self.assess()?;

        let (weighted_enforcement, rung, standard_enforcement) = if assessment.report.passive {
            (None, RecoveryRung::Primary, None)
        } else {
            self.enforce_both(&weighted_fit.model, &sensitivity_model)?
        };

        self.stage_start(Stage::Evaluation);
        let evaluate = |model: &PoleResidueModel| {
            evaluate_model(
                model,
                self.data,
                self.network,
                self.observation_port,
                &sens.nominal_impedance,
            )
        };
        let standard_model_eval = evaluate(&standard_fit.model)?;
        let weighted_model_eval = evaluate(&weighted_fit.model)?;
        // The final passive model is borrowed, not cloned: enforcement
        // artifacts are owned values already. Its Hamiltonian crossings are
        // known from the last report of that same model: the loop's final
        // verification, or the assessment stage when no loop ran.
        let (weighted_passive_model, crossings) = match &weighted_enforcement {
            Some(out) => (&out.model, &out.report.hamiltonian_crossings),
            None => (&weighted_fit.model, &assessment.report.hamiltonian_crossings),
        };
        let weighted_passive_eval = evaluate(weighted_passive_model)?;
        let standard_passive_eval =
            standard_enforcement.as_ref().map(|out| evaluate(&out.model)).transpose()?;

        // The accuracy contract: audit the delivered model on a dense
        // fixed-log grid it was never constrained on, and pair the result
        // with the target-impedance error and the rung that delivered.
        let audit_grid = self.audit_grid();
        let audit = assess_with_crossings(
            pim_runtime::global(),
            weighted_passive_model,
            crossings,
            &audit_grid,
            &FixedLog,
        )?;
        let contract = AccuracyContract {
            rung,
            audit_sigma_max: audit.sigma_max,
            audit_points: audit_grid.len(),
            sigma_tolerance: self.config.contract.sigma_tolerance,
            impedance_error: weighted_passive_eval.impedance_relative_error,
        };
        self.stage_done(Stage::Evaluation);

        Ok(FlowReport {
            nominal_impedance: sens.nominal_impedance,
            sensitivity: sens.sensitivity,
            weights: sens.weights,
            sensitivity_model,
            standard_fit,
            weighted_fit,
            sigma_max_before: assessment.report.sigma_max,
            weighted_enforcement,
            standard_enforcement,
            standard_model_eval,
            weighted_model_eval,
            weighted_passive_eval,
            standard_passive_eval,
            contract: Some(contract),
        })
    }

    /// The enforcement stages of [`Pipeline::report`] on a fit that is not
    /// passive. The sensitivity-weighted primary pass and the standard-norm
    /// baseline, each building its own norm, run as the two items of one
    /// `par_map`. The weighted stage starts live, so a stage timer spans the
    /// concurrent section. Then the weighted pass's events are delivered, the
    /// reduced-order retry runs on the caller when that pass did not
    /// converge, and the baseline's events follow. When the weighted pass and
    /// the retry both fail, or the pass fails otherwise, the baseline is
    /// dropped unreported, as if it had never run.
    fn enforce_both(
        &mut self,
        model: &PoleResidueModel,
        weighting: &SensitivityModel,
    ) -> Result<(Option<EnforcementOutcome>, RecoveryRung, Option<EnforcementOutcome>)> {
        let weighted = Stage::Enforcement(NormKind::SensitivityWeighted);
        let standard = Stage::Enforcement(NormKind::Standard);
        self.stage_start(weighted);
        let (band_max_omega, audit_grid) = (self.data.grid().max_omega(), self.audit_grid());
        let config = &self.config.enforcement;
        // The weighting of each pass's norm: the weighted pass, then the
        // standard baseline.
        let runs = pim_runtime::global().par_map(&[Some(weighting), None], |_, &weighting| {
            run_stage(model, weighting, band_max_omega, config, &audit_grid)
        });
        let [weighted_run, standard_run]: [Result<EnforcementOutcome>; 2] =
            runs.try_into().expect("par_map returns one run per pass");

        // The weighted pass delivers the model, through the reduced-order
        // retry when the primary pass does not converge; when the retry does
        // not either, the primary failure stands.
        let (weighted_outcome, rung) = match self.emit_stage(weighted, weighted_run) {
            Ok(outcome) => (outcome, RecoveryRung::Primary),
            Err(primary @ CoreError::Passivity(PassivityError::NotConverged { .. })) => {
                match self.run_reduced_order_retry()? {
                    Some(outcome) => (outcome, RecoveryRung::ReducedOrder),
                    None => return Err(primary),
                }
            }
            Err(e) => return Err(e),
        };

        // The baseline is only a comparison curve: a NotConverged failure is
        // reported as absent rather than failing the flow.
        self.stage_start(standard);
        let standard_outcome = match self.emit_stage(standard, standard_run) {
            Ok(outcome) => Some(outcome),
            Err(CoreError::Passivity(PassivityError::NotConverged { .. })) => None,
            Err(e) => return Err(e),
        };
        Ok((Some(weighted_outcome), rung, standard_outcome))
    }
}
