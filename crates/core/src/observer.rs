//! Observation hooks for the staged macromodeling pipeline.
//!
//! A [`FlowObserver`] attached to a [`crate::pipeline::Pipeline`] receives a
//! callback when each stage starts and finishes, plus one event per outer
//! passivity-enforcement iteration, labeled with the [`NormKind`] being
//! enforced. The pipeline replays those events from the record each
//! enforcement run returns
//! ([`pim_passivity::enforce::EnforcementOutcome::trace`], or the trace in
//! the `NotConverged` diagnostics). Observers are purely diagnostic:
//! running a pipeline with or without one produces bit-identical results.
//!
//! [`TraceObserver`] is the ready-made recording observer behind the
//! `iterations_report` diagnostic of the Fig. 5 anomaly investigation: it
//! keeps the full stage log and the weighted-vs-standard per-iteration
//! `σ_max` / perturbation-norm traces.

use crate::pipeline::FitKind;
use crate::recovery::RecoveryRung;
use pim_passivity::enforce::EnforcementIteration;
use pim_passivity::{NormKind, NotConvergedDiagnostics};
use std::fmt;

/// One stage of the macromodeling pipeline, as reported to observers.
///
/// The derived order is declaration order; it exists so stages can key
/// deterministic ordered containers, not to imply an execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Nominal target impedance, sensitivity samples and fitting weights.
    Sensitivity,
    /// Vector Fitting of the scattering data (standard or weighted metric).
    Fit(FitKind),
    /// Magnitude Vector Fitting of the sensitivity into `Ξ̃(s)`.
    WeightingModel,
    /// Passivity assessment of the weighted macromodel.
    Assessment,
    /// Iterative passivity enforcement under the named norm.
    Enforcement(NormKind),
    /// The reduced-order retry of a diverged weighted enforcement (see
    /// [`crate::recovery`]).
    Recovery(RecoveryRung),
    /// Accuracy evaluation of the fitted / enforced models.
    Evaluation,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Sensitivity => f.write_str("sensitivity"),
            Stage::Fit(FitKind::Standard) => f.write_str("fit(standard)"),
            Stage::Fit(FitKind::Weighted) => f.write_str("fit(weighted)"),
            Stage::WeightingModel => f.write_str("weighting-model"),
            Stage::Assessment => f.write_str("assessment"),
            Stage::Enforcement(kind) => write!(f, "enforcement({kind})"),
            Stage::Recovery(rung) => write!(f, "recovery({rung})"),
            Stage::Evaluation => f.write_str("evaluation"),
        }
    }
}

/// Observer of a staged pipeline run.
///
/// All methods have no-op defaults, so an implementation only overrides the
/// events it cares about. The hooks are observational only — they cannot
/// change what the pipeline computes.
pub trait FlowObserver {
    /// A stage is about to run (not called when its cached artifact is
    /// reused).
    fn on_stage_start(&mut self, stage: Stage) {
        let _ = stage;
    }

    /// A stage finished and its artifact is cached.
    fn on_stage_done(&mut self, stage: Stage) {
        let _ = stage;
    }

    /// A stage that had started failed with an error (e.g. a non-converging
    /// enforcement). Events already delivered for the stage belong to the
    /// failed attempt: an enforcement stage that failed with `NotConverged`
    /// delivered its iterations before this event and delivers its
    /// diagnostics after it. An enforcement stage that ends in any other
    /// error — an infeasible QP, the QP step cap, a linear-algebra failure,
    /// or a failure to build its norm or the retry's refit — delivers no
    /// iterations.
    fn on_stage_failed(&mut self, stage: Stage) {
        let _ = stage;
    }

    /// One outer enforcement iteration completed under the given norm.
    ///
    /// A stage's iteration events arrive in iteration order, after its start
    /// event and before its done or failed event. They are replayed from the
    /// record the stage's loop returns, once it has returned, not while it
    /// runs: [`Pipeline::report`] runs the weighted pass and the standard
    /// baseline at once and then replays both stages' events in the serial
    /// order, so the events of two stages never interleave.
    ///
    /// [`Pipeline::report`]: crate::pipeline::Pipeline::report
    fn on_enforcement_iteration(&mut self, norm: NormKind, event: &EnforcementIteration) {
        let _ = (norm, event);
    }

    /// An enforcement attempt (primary, baseline or retry) failed
    /// with `NotConverged`; the diagnostics carry the step control state,
    /// the `σ_max` trajectory tail and the best-so-far model's audit
    /// `σ_max`, so failures are debuggable without a rerun.
    fn on_enforcement_diagnostics(
        &mut self,
        norm: NormKind,
        diagnostics: &NotConvergedDiagnostics,
    ) {
        let _ = (norm, diagnostics);
    }
}

/// A recording [`FlowObserver`]: keeps the stage log and the per-norm
/// enforcement iteration traces.
///
/// Per iteration the traces carry the `σ_max` before and after, the
/// perturbation-norm increment, the backtracking step and the constraint
/// count: the quantities that compare the weighted and the standard loop
/// (Fig. 5).
#[derive(Debug, Clone, Default)]
pub struct TraceObserver {
    /// Stages that started, in order.
    pub started: Vec<Stage>,
    /// Stages that completed, in order.
    pub completed: Vec<Stage>,
    /// Stages that started but failed, in order. An enforcement trace whose
    /// stage appears here belongs to a failed (e.g. non-converged) run.
    pub failed: Vec<Stage>,
    /// Every enforcement iteration, labeled with the norm that produced it.
    pub iterations: Vec<(NormKind, EnforcementIteration)>,
    /// Post-mortems of failed enforcement attempts (primary and retry),
    /// labeled with the norm that diverged.
    pub diagnostics: Vec<(NormKind, NotConvergedDiagnostics)>,
}

impl TraceObserver {
    /// An empty trace.
    pub fn new() -> Self {
        TraceObserver::default()
    }

    /// The iteration trace recorded under the given norm, in order.
    pub fn trace(&self, norm: NormKind) -> Vec<&EnforcementIteration> {
        self.iterations.iter().filter(|(k, _)| *k == norm).map(|(_, ev)| ev).collect()
    }

    /// The working-grid size of every iteration under the given norm, in
    /// order — the per-iteration grid-growth trajectory. Under the default
    /// adaptive sampling it grows well beyond the fixed baseline as the
    /// bisection chases sub-grid violation bands.
    pub fn grid_growth(&self, norm: NormKind) -> Vec<usize> {
        self.trace(norm).iter().map(|ev| ev.grid_points).collect()
    }
}

impl FlowObserver for TraceObserver {
    fn on_stage_start(&mut self, stage: Stage) {
        self.started.push(stage);
    }

    fn on_stage_done(&mut self, stage: Stage) {
        self.completed.push(stage);
    }

    fn on_stage_failed(&mut self, stage: Stage) {
        self.failed.push(stage);
    }

    fn on_enforcement_iteration(&mut self, norm: NormKind, event: &EnforcementIteration) {
        self.iterations.push((norm, *event));
    }

    fn on_enforcement_diagnostics(
        &mut self,
        norm: NormKind,
        diagnostics: &NotConvergedDiagnostics,
    ) {
        self.diagnostics.push((norm, diagnostics.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_display_distinctly() {
        let stages = [
            Stage::Sensitivity,
            Stage::Fit(FitKind::Standard),
            Stage::Fit(FitKind::Weighted),
            Stage::WeightingModel,
            Stage::Assessment,
            Stage::Enforcement(NormKind::Standard),
            Stage::Enforcement(NormKind::SensitivityWeighted),
            Stage::Recovery(RecoveryRung::ReducedOrder),
            Stage::Evaluation,
        ];
        let labels: Vec<String> = stages.iter().map(|s| s.to_string()).collect();
        for (i, a) in labels.iter().enumerate() {
            for b in labels.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn trace_observer_records_and_filters() {
        let mut obs = TraceObserver::new();
        obs.on_stage_start(Stage::Sensitivity);
        obs.on_stage_done(Stage::Sensitivity);
        let ev = EnforcementIteration {
            iteration: 1,
            sigma_before: 1.2,
            sigma_after: 1.05,
            step: 1.0,
            norm_increment: 3.0,
            constraints: 4,
            grid_points: 201,
            qp_lambda: 0.0,
        };
        obs.on_enforcement_iteration(NormKind::SensitivityWeighted, &ev);
        obs.on_enforcement_iteration(NormKind::Standard, &ev);
        obs.on_stage_failed(Stage::Enforcement(NormKind::Standard));
        let diag = NotConvergedDiagnostics {
            bottomed_out: 3,
            sigma_max: 1.3,
            trace: vec![EnforcementIteration { step: 0.0625, ..ev }],
            ..Default::default()
        };
        obs.on_enforcement_diagnostics(NormKind::Standard, &diag);
        assert_eq!(obs.started, vec![Stage::Sensitivity]);
        assert_eq!(obs.completed, vec![Stage::Sensitivity]);
        assert_eq!(obs.failed, vec![Stage::Enforcement(NormKind::Standard)]);
        assert_eq!(obs.trace(NormKind::SensitivityWeighted).len(), 1);
        assert_eq!(obs.trace(NormKind::Standard).len(), 1);
        assert_eq!(obs.grid_growth(NormKind::Standard), vec![201]);
        assert_eq!(obs.diagnostics.len(), 1);
        assert_eq!(obs.diagnostics[0].0, NormKind::Standard);
        assert_eq!(obs.diagnostics[0].1, diag);
    }
}
