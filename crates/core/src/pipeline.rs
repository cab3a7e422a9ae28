//! The staged, observable macromodeling pipeline.
//!
//! [`Pipeline`] runs the flow of [`crate::flow`] as typed stages, each
//! returning an owned artifact:
//!
//! ```text
//! Pipeline::from_scenario(..) / from_data(..)
//!     .sensitivity()       -> SensitivityArtifact   (Ξ_k, weights, Z_nominal)
//!     .fit(FitKind::..)    -> FitArtifact           (standard / weighted VF)
//!     .weighting_model()   -> SensitivityModel      (Ξ̃(s), eq. 15–17)
//!     .assess()            -> AssessmentArtifact    (Hamiltonian + sweep)
//!     .enforce(NormKind::..) -> EnforcementArtifact (perturbation loop)
//!     .report()            -> FlowReport            (everything, assembled)
//! ```
//!
//! Stages compute lazily and cache: calling [`Pipeline::enforce`] first runs
//! whatever prerequisites are missing (weighted fit, weighting model,
//! assessment), and re-requesting an artifact returns the cached value
//! without recomputation. A [`FlowObserver`] attached with
//! [`Pipeline::with_observer`] sees stage boundaries and every enforcement
//! iteration; observers never change numerics. The sampling policy of the
//! assessment and of every enforcement grid is
//! [`FlowConfig::enforcement`]`.sampling` (adaptive by default).
//!
//! [`Pipeline::sweep`] is the batch entry point: it evaluates a list of
//! [`ScenarioPreset`]s end-to-end and returns one [`FlowReport`] per
//! scenario.

use crate::flow::{evaluate_model, FlowConfig, FlowReport};
use crate::observer::{FlowObserver, Stage, TraceObserver};
use crate::recovery::{AccuracyContract, RecoveryReport, RecoveryRung, RungAttempt};
use crate::scenario::{ScenarioPreset, StandardScenario};
use crate::weighting::SensitivityWeightedNorm;
use crate::{CoreError, Result};
use pim_passivity::check::{assess_on, assess_with_sampling, PassivityReport};
use pim_passivity::enforce::{
    enforce_passivity, EnforcementConfig, EnforcementIteration, EnforcementObserver,
    EnforcementOutcome, PerturbationNorm,
};
use pim_passivity::grid::FrequencyGrid;
use pim_passivity::norm::{NormBuilder, NormKind, StandardNorm};
use pim_passivity::{NotConvergedDiagnostics, PassivityError};
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
    /// Which metric the fit minimized.
    pub kind: FitKind,
    /// The Vector Fitting result (model + error summaries).
    pub result: VfResult,
}

/// Artifact of the passivity-assessment stage.
#[derive(Debug, Clone)]
pub struct AssessmentArtifact {
    /// Full assessment of the weighted macromodel on the data grid.
    pub report: PassivityReport,
    /// Worst singular value before any enforcement.
    pub sigma_max_before: f64,
    /// Upper edge of the data band in rad/s (the enforcement sweep limit).
    pub band_max_omega: f64,
}

/// Artifact of an enforcement stage.
#[derive(Debug, Clone)]
pub struct EnforcementArtifact {
    /// The norm family the enforcement minimized.
    pub norm: NormKind,
    /// The enforcement outcome; `None` when the assessed model was already
    /// passive and the loop never ran.
    pub outcome: Option<EnforcementOutcome>,
}

/// One entry of a [`Pipeline::sweep`] run.
#[derive(Debug, Clone)]
pub struct SweepEntry {
    /// The preset the scenario was built from.
    pub preset: ScenarioPreset,
    /// The full flow report for that scenario.
    pub report: FlowReport,
    /// The stage/enforcement-iteration trace recorded while this preset ran.
    ///
    /// Presets execute concurrently, so a single caller-supplied
    /// [`FlowObserver`] cannot receive their events without interleaving;
    /// instead every preset records into its own [`TraceObserver`] buffer
    /// and the buffers are merged at join, in preset order — events stay
    /// per-preset and in delivery order.
    pub trace: TraceObserver,
}

/// Forwards per-iteration enforcement events to a [`FlowObserver`], labeled
/// with the norm being enforced.
struct NormLabeled<'x> {
    inner: &'x mut dyn FlowObserver,
    norm: NormKind,
}

impl EnforcementObserver for NormLabeled<'_> {
    fn on_enforcement_iteration(&mut self, event: &EnforcementIteration) {
        self.inner.on_enforcement_iteration(self.norm, event);
    }
}

/// Runs the enforcement loop, forwarding its iterations to `observer` (when
/// attached) labeled with `label`.
fn enforce_labeled(
    observer: Option<&mut (dyn FlowObserver + '_)>,
    label: NormKind,
    model: &PoleResidueModel,
    norm: &PerturbationNorm,
    band_max_omega: f64,
    config: &EnforcementConfig,
) -> pim_passivity::Result<EnforcementOutcome> {
    let mut labeled = observer.map(|inner| NormLabeled { inner, norm: label });
    let observer = labeled.as_mut().map(|l| l as &mut dyn EnforcementObserver);
    enforce_passivity(model, norm, band_max_omega, config, observer)
}

/// A pinned deterministic `NotConverged` failure: the loop would only
/// repeat it, so replays are served from this cache. The diagnostics are
/// enriched at cache time with the best-so-far model's own audit `σ_max`
/// (computed once, on the contract audit grid), so a replayed failure is as
/// debuggable as the original.
struct FailedEnforcement {
    kind: NormKind,
    iterations: usize,
    sigma_max: f64,
    best: Option<Box<PoleResidueModel>>,
    diagnostics: Box<NotConvergedDiagnostics>,
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
    enforcements: Vec<(NormKind, EnforcementArtifact)>,
    failed_enforcements: Vec<FailedEnforcement>,
    /// Cached recovery-ladder outcome: `Some((report, Some(outcome)))` when
    /// a rung delivered, `Some((report, None))` when the ladder was
    /// exhausted, `None` when it never engaged. Deterministic, so it is
    /// never re-run.
    recovery: Option<(RecoveryReport, Option<EnforcementOutcome>)>,
}

impl<'a> Pipeline<'a> {
    /// Creates a pipeline over tabulated scattering data and a termination
    /// scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the data is not in the
    /// scattering representation.
    pub fn from_data(
        data: &'a NetworkData,
        network: &'a TerminationNetwork,
        observation_port: usize,
        config: FlowConfig,
    ) -> Result<Self> {
        if data.kind() != ParameterKind::Scattering {
            return Err(CoreError::InvalidInput("the flow requires scattering data".into()));
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
            enforcements: Vec::new(),
            failed_enforcements: Vec::new(),
            recovery: None,
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

    /// The flow configuration this pipeline runs with.
    pub fn config(&self) -> &FlowConfig {
        &self.config
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

    fn stage_failed(&mut self, stage: Stage) {
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_stage_failed(stage);
        }
    }

    /// Sensitivity stage: nominal target impedance, sensitivity samples
    /// `Ξ_k` and normalized fitting weights.
    ///
    /// # Errors
    ///
    /// Propagates impedance and sensitivity computation failures.
    pub fn sensitivity(&mut self) -> Result<SensitivityArtifact> {
        if self.sensitivity.is_none() {
            self.stage_start(Stage::Sensitivity);
            let nominal_impedance =
                target_impedance(self.data, self.network, self.observation_port)?;
            let sensitivity = analytic_sensitivity(self.data, self.network, self.observation_port)?;
            let weights = sensitivity_to_weights(&sensitivity, self.config.weight_floor)?;
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
        Ok(FitArtifact { kind, result: result.expect("fit artifact just cached") })
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
                &MagnitudeFitConfig { order: self.config.sensitivity_order, ..Default::default() },
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
            let band_max_omega = self.data.grid().max_omega();
            let report = assess_with_sampling(
                pim_runtime::global(),
                &fit.result.model,
                &FrequencyGrid::from_omegas(&omegas),
                self.config.enforcement.sampling.as_ref(),
            )?;
            let sigma_max_before = report.sigma_max;
            self.assessment = Some(AssessmentArtifact { report, sigma_max_before, band_max_omega });
            self.stage_done(Stage::Assessment);
        }
        Ok(self.assessment.clone().expect("assessment just cached"))
    }

    /// Enforcement stage under the given norm.
    ///
    /// Returns an artifact with `outcome: None` when the assessed model is
    /// already passive.
    ///
    /// Successful artifacts are cached per [`NormKind`], and so are
    /// [`PassivityError::NotConverged`] failures (the loop is deterministic,
    /// so a re-run could only repeat the failure): re-enforcing with the
    /// same kind returns the cached result without re-running the loop or
    /// re-emitting observer events. Other errors are not cached.
    ///
    /// # Errors
    ///
    /// Propagates norm-construction and enforcement failures (including
    /// [`PassivityError::NotConverged`] when the iteration budget runs out).
    pub fn enforce(&mut self, kind: NormKind) -> Result<EnforcementArtifact> {
        match kind {
            NormKind::Standard => self.enforce_with(&StandardNorm),
            NormKind::SensitivityWeighted => {
                // Build the weighting model first so the builder can capture
                // it; cached after the first call.
                let weighting = self.weighting_model()?;
                self.enforce_with(&SensitivityWeightedNorm::new(weighting))
            }
        }
    }

    /// [`Pipeline::enforce`] under the norm `builder` builds, cached by its
    /// [`NormBuilder::kind`].
    fn enforce_with(&mut self, builder: &dyn NormBuilder) -> Result<EnforcementArtifact> {
        let kind = builder.kind();
        if let Some((_, artifact)) = self.enforcements.iter().find(|(k, _)| *k == kind) {
            return Ok(artifact.clone());
        }
        if let Some(failed) = self.failed_enforcements.iter().find(|f| f.kind == kind) {
            return Err(CoreError::Passivity(PassivityError::NotConverged {
                iterations: failed.iterations,
                sigma_max: failed.sigma_max,
                best: failed.best.clone(),
                diagnostics: failed.diagnostics.clone(),
            }));
        }
        let assessment = self.assess()?;
        if assessment.report.passive {
            let artifact = EnforcementArtifact { norm: kind, outcome: None };
            self.enforcements.push((kind, artifact.clone()));
            return Ok(artifact);
        }
        let norm = builder
            .build(&self.weighted_fit.as_ref().expect("assess caches the weighted fit").model)?;
        self.stage_start(Stage::Enforcement(kind));
        // Split-borrow: the model lives in `self.weighted_fit`, the observer
        // in `self.observer`; the field borrows are disjoint.
        let result = enforce_labeled(
            self.observer.as_deref_mut(),
            kind,
            &self.weighted_fit.as_ref().expect("cached above").model,
            &norm,
            assessment.band_max_omega,
            &self.config.enforcement,
        );
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                // Tell the observer the iterations it saw belong to a failed
                // attempt, and pin deterministic non-convergence so a retry
                // does not re-run the loop (and double the recorded trace).
                self.stage_failed(Stage::Enforcement(kind));
                if let PassivityError::NotConverged {
                    iterations,
                    sigma_max,
                    ref best,
                    ref diagnostics,
                } = e
                {
                    // Audit the best-so-far model once at cache time, so
                    // both this error and every replay expose its own
                    // audit-grid sigma_max instead of the loop-sweep value.
                    let mut diagnostics = diagnostics.clone();
                    if let Some(best_model) = best.as_deref() {
                        if let Ok(audit) = assess_on(best_model, &self.audit_grid()) {
                            diagnostics.best_sigma_max = Some(audit.sigma_max);
                        }
                    }
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_enforcement_diagnostics(kind, &diagnostics);
                    }
                    self.failed_enforcements.push(FailedEnforcement {
                        kind,
                        iterations,
                        sigma_max,
                        best: best.clone(),
                        diagnostics: diagnostics.clone(),
                    });
                    return Err(CoreError::Passivity(PassivityError::NotConverged {
                        iterations,
                        sigma_max,
                        best: best.clone(),
                        diagnostics,
                    }));
                }
                return Err(e.into());
            }
        };
        self.stage_done(Stage::Enforcement(kind));
        let artifact = EnforcementArtifact { norm: kind, outcome: Some(outcome) };
        self.enforcements.push((kind, artifact.clone()));
        Ok(artifact)
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

    /// The weighted enforcement with the recovery ladder behind it: on a
    /// [`PassivityError::NotConverged`] primary failure the pipeline retries
    /// under the escalation policy of [`crate::recovery`] — regularized,
    /// then reduced order — and returns the first rung that delivers,
    /// together with the [`RecoveryReport`] recording every attempt.
    ///
    /// Returns `(outcome, None)` on the happy path (the ladder never
    /// engaged; `outcome` is `None` when the model was already passive).
    ///
    /// # Errors
    ///
    /// When the ladder is exhausted, the primary `NotConverged` failure
    /// (with its cache-time-audited diagnostics) is returned;
    /// non-deterministic rung failures propagate as-is.
    pub fn enforce_recovered(
        &mut self,
    ) -> Result<(Option<EnforcementOutcome>, Option<RecoveryReport>)> {
        if let Some((report, outcome)) = self.recovery.clone() {
            return match outcome {
                Some(out) => Ok((Some(out), Some(report))),
                // Exhausted ladder: replay the pinned primary failure.
                None => Err(self
                    .enforce(NormKind::SensitivityWeighted)
                    .expect_err("an exhausted ladder implies a cached primary failure")),
            };
        }
        match self.enforce(NormKind::SensitivityWeighted) {
            Ok(artifact) => Ok((artifact.outcome, None)),
            Err(CoreError::Passivity(PassivityError::NotConverged { .. })) => {
                let (report, outcome) = self.run_recovery_ladder()?;
                self.recovery = Some((report.clone(), outcome.clone()));
                match outcome {
                    Some(out) => Ok((Some(out), Some(report))),
                    None => Err(self
                        .enforce(NormKind::SensitivityWeighted)
                        .expect_err("the primary failure is cached")),
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Climbs the recovery ladder: regularized → reduced order. Each rung
    /// runs the full enforcement loop under the sensitivity-weighted norm,
    /// a tightened adaptive QP damping cap and an extended iteration budget;
    /// the first passive model wins. Deterministic — the caller caches the
    /// result.
    fn run_recovery_ladder(&mut self) -> Result<(RecoveryReport, Option<EnforcementOutcome>)> {
        // Adaptive QP damping cap of every rung; the primary pass keeps its
        // own, much looser, cap.
        const MAX_CONDITION: f64 = 1e6;
        // Outer iterations added to the configured budget on every rung.
        const EXTRA_ITERATIONS: usize = 40;
        // Poles removed by the reduced-order rung, and the order it never
        // refits below.
        const ORDER_REDUCTION: usize = 2;
        const MIN_ORDER: usize = 6;

        let band = self.assess()?.band_max_omega;
        let builder = SensitivityWeightedNorm::new(self.weighting_model()?);
        let base_model =
            self.weighted_fit.as_ref().expect("assess caches the weighted fit").model.clone();
        let mut cfg: EnforcementConfig = self.config.enforcement.clone();
        cfg.max_iterations += EXTRA_ITERATIONS;
        cfg.qp.max_condition = cfg.qp.max_condition.min(MAX_CONDITION);

        let reduced_order = self.config.vf.n_poles.saturating_sub(ORDER_REDUCTION).max(MIN_ORDER);
        let mut rungs = vec![RecoveryRung::Regularized];
        if reduced_order < self.config.vf.n_poles {
            rungs.push(RecoveryRung::ReducedOrder);
        }

        let label = NormKind::SensitivityWeighted;
        let mut attempts = Vec::new();
        for rung in rungs {
            // Materialize the rung's model and norm.
            let model = if rung == RecoveryRung::ReducedOrder {
                let weights = self.sensitivity()?.weights;
                let vf = VfConfig { n_poles: reduced_order, ..self.config.vf.clone() };
                vector_fit(self.data, Some(&weights), &vf)?.model
            } else {
                base_model.clone()
            };
            let norm = builder.build(&model).map_err(CoreError::Passivity)?;
            self.stage_start(Stage::Recovery(rung));
            let result =
                enforce_labeled(self.observer.as_deref_mut(), label, &model, &norm, band, &cfg);
            match result {
                Ok(outcome) => {
                    self.stage_done(Stage::Recovery(rung));
                    attempts.push(RungAttempt {
                        rung,
                        converged: true,
                        iterations: outcome.iterations,
                        sigma_max: outcome.report.sigma_max,
                        detail: format!(
                            "converged in {} iteration(s), sigma_max {:.9}",
                            outcome.iterations, outcome.report.sigma_max
                        ),
                    });
                    return Ok((RecoveryReport { attempts, delivered: Some(rung) }, Some(outcome)));
                }
                Err(PassivityError::NotConverged {
                    iterations, sigma_max, diagnostics, ..
                }) => {
                    self.stage_failed(Stage::Recovery(rung));
                    if let Some(obs) = self.observer.as_deref_mut() {
                        obs.on_enforcement_diagnostics(label, &diagnostics);
                    }
                    attempts.push(RungAttempt {
                        rung,
                        converged: false,
                        iterations,
                        sigma_max,
                        detail: diagnostics.to_string(),
                    });
                }
                Err(e) => {
                    self.stage_failed(Stage::Recovery(rung));
                    return Err(e.into());
                }
            }
        }
        Ok((RecoveryReport { attempts, delivered: None }, None))
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
    /// The weighted enforcement must succeed (through the recovery ladder
    /// when the primary pass diverges); the standard baseline is only a
    /// comparison curve and tolerates [`PassivityError::NotConverged`]
    /// (reported as `None`).
    ///
    /// # Errors
    ///
    /// Propagates failures of the individual stages.
    pub fn report(&mut self) -> Result<FlowReport> {
        let sens = self.sensitivity()?;
        let standard_fit = self.fit(FitKind::Standard)?.result;
        let weighted_fit = self.fit(FitKind::Weighted)?.result;
        let sensitivity_model = self.weighting_model()?;
        let assessment = self.assess()?;

        let (weighted_enforcement, recovery) = self.enforce_recovered()?;
        let standard_enforcement =
            if !assessment.report.passive && self.config.run_standard_enforcement {
                // The baseline is only a comparison curve: a NotConverged failure
                // is reported as absent rather than failing the flow.
                match self.enforce(NormKind::Standard) {
                    Ok(artifact) => artifact.outcome,
                    Err(CoreError::Passivity(PassivityError::NotConverged { .. })) => None,
                    Err(e) => return Err(e),
                }
            } else {
                None
            };

        self.stage_start(Stage::Evaluation);
        let standard_model_eval = evaluate_model(
            &standard_fit.model,
            self.data,
            self.network,
            self.observation_port,
            &sens.nominal_impedance,
        )?;
        let weighted_model_eval = evaluate_model(
            &weighted_fit.model,
            self.data,
            self.network,
            self.observation_port,
            &sens.nominal_impedance,
        )?;
        // The final passive model is borrowed, not cloned: enforcement
        // artifacts are owned values already.
        let weighted_passive_model = match &weighted_enforcement {
            Some(out) => &out.model,
            None => &weighted_fit.model,
        };
        let weighted_passive_eval = evaluate_model(
            weighted_passive_model,
            self.data,
            self.network,
            self.observation_port,
            &sens.nominal_impedance,
        )?;
        let standard_passive_eval = match &standard_enforcement {
            Some(out) => Some(evaluate_model(
                &out.model,
                self.data,
                self.network,
                self.observation_port,
                &sens.nominal_impedance,
            )?),
            None => None,
        };
        self.stage_done(Stage::Evaluation);

        // The accuracy contract: audit the delivered model on a dense
        // fixed-log grid it was never constrained on, and pair the result
        // with the target-impedance error and the rung that delivered.
        let audit_grid = self.audit_grid();
        let audit = assess_on(weighted_passive_model, &audit_grid).map_err(CoreError::Passivity)?;
        let contract = AccuracyContract {
            rung: recovery.as_ref().and_then(|r| r.delivered).unwrap_or(RecoveryRung::Primary),
            audit_sigma_max: audit.sigma_max,
            audit_points: audit_grid.len(),
            sigma_tolerance: self.config.contract.sigma_tolerance,
            impedance_error: weighted_passive_eval.impedance_relative_error,
            max_impedance_error: self.config.contract.max_impedance_error,
        };

        Ok(FlowReport {
            nominal_impedance: sens.nominal_impedance,
            sensitivity: sens.sensitivity,
            weights: sens.weights,
            sensitivity_model,
            standard_fit,
            weighted_fit,
            sigma_max_before: assessment.sigma_max_before,
            weighted_enforcement,
            standard_enforcement,
            standard_model_eval,
            weighted_model_eval,
            weighted_passive_eval,
            standard_passive_eval,
            recovery,
            contract: Some(contract),
        })
    }

    /// Batch runner: builds every preset scenario and runs the full flow on
    /// each, returning one [`FlowReport`] (plus its recorded trace) per
    /// preset.
    ///
    /// Presets run **concurrently** on the [`pim_runtime::global`] pool —
    /// each produces owned artifacts, so the only shared state is the
    /// configuration. Entries are collected by preset index and every preset
    /// records observer events into its own buffer (see
    /// [`SweepEntry::trace`]), which makes the parallel sweep bit-identical
    /// to the serial one for every `PIM_THREADS` (`1` forces the serial
    /// path); the integration suite pins this at the float-bit level.
    ///
    /// # Errors
    ///
    /// Propagates scenario-construction and flow failures of any preset;
    /// when several presets fail, the error of the lowest preset index is
    /// reported regardless of scheduling order.
    pub fn sweep(presets: &[ScenarioPreset], config: &FlowConfig) -> Result<Vec<SweepEntry>> {
        Pipeline::sweep_with(pim_runtime::global(), presets, config)
    }

    /// [`Pipeline::sweep`] on an explicit [`pim_runtime::ThreadPool`] (the
    /// determinism test suites compare pools of different sizes bit for
    /// bit).
    ///
    /// # Errors
    ///
    /// See [`Pipeline::sweep`].
    pub fn sweep_with(
        pool: &pim_runtime::ThreadPool,
        presets: &[ScenarioPreset],
        config: &FlowConfig,
    ) -> Result<Vec<SweepEntry>> {
        pool.par_map(presets, |_, &preset| -> Result<SweepEntry> {
            let scenario = preset.build()?;
            let mut trace = TraceObserver::new();
            let report = Pipeline::from_scenario(&scenario, config.clone())?
                .with_observer(&mut trace)
                .report()?;
            Ok(SweepEntry { preset, report, trace })
        })
        .into_iter()
        .collect()
    }
}
