//! Integration tests of the staged `Pipeline` API: stage-order and caching
//! invariance of the report, the preset sweep, and the Fig. 5
//! enforcement-trace regression fixture.

use pim_repro::core_flow::{
    CoreError, FitKind, FlowConfig, FlowObserver, FlowReport, ModelEvaluation, Pipeline,
    RecoveryRung, ScenarioPreset, Stage, StandardScenario, TraceObserver,
};
use pim_repro::linalg::{CMat, Complex64, Mat};
use pim_repro::passivity::check::{assess_on, hamiltonian_crossings};
use pim_repro::passivity::enforce::EnforcementIteration;
use pim_repro::passivity::grid::FrequencyGrid;
use pim_repro::passivity::{EnforcementOutcome, NormKind, NotConvergedDiagnostics, PassivityError};
use pim_repro::runtime::ThreadPool;
use pim_repro::statespace::{PoleResidueModel, StateSpace};

/// The trimmed configuration the in-crate flow tests use: identical
/// numerics class, fraction of the runtime — shared with the figure
/// harness so the fixture below is always recorded under the same config.
fn quick_config() -> FlowConfig {
    pim_bench::fixture_flow_config()
}

fn assert_f64_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

fn assert_complex_bits(a: Complex64, b: Complex64, what: &str) {
    assert_f64_bits(a.re, b.re, what);
    assert_f64_bits(a.im, b.im, what);
}

fn assert_slice_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_f64_bits(*x, *y, &format!("{what}[{i}]"));
    }
}

fn assert_mat_bits(a: &Mat, b: &Mat, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_f64_bits(a[(i, j)], b[(i, j)], &format!("{what}[({i},{j})]"));
        }
    }
}

fn assert_cmat_bits(a: &CMat, b: &CMat, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            assert_complex_bits(a[(i, j)], b[(i, j)], &format!("{what}[({i},{j})]"));
        }
    }
}

fn assert_model_bits(a: &PoleResidueModel, b: &PoleResidueModel, what: &str) {
    assert_eq!(a.poles().len(), b.poles().len(), "{what}: pole count");
    for (i, (x, y)) in a.poles().iter().zip(b.poles()).enumerate() {
        assert_complex_bits(*x, *y, &format!("{what}: pole {i}"));
    }
    for (i, (x, y)) in a.residues().iter().zip(b.residues()).enumerate() {
        assert_cmat_bits(x, y, &format!("{what}: residue {i}"));
    }
    assert_mat_bits(a.d(), b.d(), &format!("{what}: D"));
}

fn assert_eval_bits(a: &ModelEvaluation, b: &ModelEvaluation, what: &str) {
    assert_f64_bits(a.scattering_rms_error, b.scattering_rms_error, &format!("{what}: S rms"));
    assert_f64_bits(
        a.impedance_relative_error,
        b.impedance_relative_error,
        &format!("{what}: Z error"),
    );
    assert_slice_bits(&a.impedance.freqs_hz, &b.impedance.freqs_hz, &format!("{what}: Z freqs"));
    for (i, (x, y)) in a.impedance.values.iter().zip(&b.impedance.values).enumerate() {
        assert_complex_bits(*x, *y, &format!("{what}: Z[{i}]"));
    }
}

fn assert_iteration_bits(a: &EnforcementIteration, b: &EnforcementIteration, what: &str) {
    assert_eq!(a.iteration, b.iteration, "{what}: index");
    assert_eq!(a.constraints, b.constraints, "{what}: constraints");
    assert_eq!(a.grid_points, b.grid_points, "{what}: grid points");
    assert_f64_bits(a.sigma_before, b.sigma_before, &format!("{what}: sigma_before"));
    assert_f64_bits(a.sigma_after, b.sigma_after, &format!("{what}: sigma_after"));
    assert_f64_bits(a.step, b.step, &format!("{what}: step"));
    assert_f64_bits(a.norm_increment, b.norm_increment, &format!("{what}: norm increment"));
    assert_f64_bits(a.qp_lambda, b.qp_lambda, &format!("{what}: qp lambda"));
}

/// Asserts that iteration events (as an observer received them) equal a
/// run's trace, in order and bit for bit.
fn assert_iterations_bits<'a>(
    events: impl IntoIterator<Item = &'a EnforcementIteration>,
    trace: &[EnforcementIteration],
    what: &str,
) {
    let events: Vec<&EnforcementIteration> = events.into_iter().collect();
    assert_eq!(events.len(), trace.len(), "{what}: iteration count");
    for (i, (a, b)) in events.into_iter().zip(trace).enumerate() {
        assert_iteration_bits(a, b, &format!("{what}: iteration {i}"));
    }
}

fn assert_enforcement_bits(
    a: &Option<EnforcementOutcome>,
    b: &Option<EnforcementOutcome>,
    what: &str,
) {
    assert_eq!(a.is_some(), b.is_some(), "{what}: presence");
    if let (Some(x), Some(y)) = (a, b) {
        assert_iterations_bits(&x.trace, &y.trace, &format!("{what}: trace"));
        assert_model_bits(&x.model, &y.model, &format!("{what}: model"));
        assert_eq!(x.report.passive, y.report.passive, "{what}: passive flag");
        assert_f64_bits(x.report.sigma_max, y.report.sigma_max, &format!("{what}: sigma_max"));
    }
}

fn assert_report_bits(a: &FlowReport, b: &FlowReport) {
    assert_slice_bits(&a.nominal_impedance.freqs_hz, &b.nominal_impedance.freqs_hz, "Z freqs");
    for (i, (x, y)) in
        a.nominal_impedance.values.iter().zip(&b.nominal_impedance.values).enumerate()
    {
        assert_complex_bits(*x, *y, &format!("nominal Z[{i}]"));
    }
    assert_slice_bits(&a.sensitivity, &b.sensitivity, "sensitivity");
    assert_slice_bits(&a.weights, &b.weights, "weights");
    assert_model_bits(a.sensitivity_model.model(), b.sensitivity_model.model(), "Xi model");
    assert_model_bits(&a.standard_fit.model, &b.standard_fit.model, "standard fit");
    assert_f64_bits(a.standard_fit.rms_error, b.standard_fit.rms_error, "standard rms");
    assert_model_bits(&a.weighted_fit.model, &b.weighted_fit.model, "weighted fit");
    assert_f64_bits(a.weighted_fit.rms_error, b.weighted_fit.rms_error, "weighted rms");
    assert_f64_bits(
        a.weighted_fit.weighted_rms_error,
        b.weighted_fit.weighted_rms_error,
        "weighted wrms",
    );
    assert_f64_bits(a.sigma_max_before, b.sigma_max_before, "sigma_max_before");
    assert_enforcement_bits(&a.weighted_enforcement, &b.weighted_enforcement, "weighted enf");
    assert_enforcement_bits(&a.standard_enforcement, &b.standard_enforcement, "standard enf");
    assert_eval_bits(&a.standard_model_eval, &b.standard_model_eval, "standard eval");
    assert_eval_bits(&a.weighted_model_eval, &b.weighted_model_eval, "weighted eval");
    assert_eval_bits(&a.weighted_passive_eval, &b.weighted_passive_eval, "final eval");
    assert_eq!(
        a.standard_passive_eval.is_some(),
        b.standard_passive_eval.is_some(),
        "baseline eval presence"
    );
    if let (Some(x), Some(y)) = (&a.standard_passive_eval, &b.standard_passive_eval) {
        assert_eval_bits(x, y, "baseline eval");
    }
}

/// Running the stages by hand — in a scrambled order, with an observer
/// attached — and assembling the report must reproduce a plain
/// `report()` call's `FlowReport` bit for bit.
#[test]
fn staged_pipeline_is_bit_identical_to_a_plain_report() {
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let config = quick_config();
    let plain = Pipeline::from_scenario(&sc, config.clone()).unwrap().report().unwrap();

    let mut trace = TraceObserver::new();
    let staged = {
        let mut pipeline =
            Pipeline::from_scenario(&sc, config.clone()).unwrap().with_observer(&mut trace);
        // Deliberately not the report() order: enforcement first (pulling
        // in its prerequisites lazily), then the remaining stages from cache.
        let enf = pipeline.enforce(NormKind::SensitivityWeighted).unwrap();
        assert!(enf.is_some(), "reduced scenario needs enforcement");
        let _ = pipeline.weighting_model().unwrap();
        let _ = pipeline.fit(FitKind::Standard).unwrap();
        let _ = pipeline.fit(FitKind::Weighted).unwrap();
        let _ = pipeline.sensitivity().unwrap();
        let _ = pipeline.assess().unwrap();
        pipeline.report().unwrap()
    };
    assert_report_bits(&plain, &staged);

    // The observer saw the enforcement iterations of both norms, and they
    // are the traces of the outcomes in the report.
    let weighted = staged.weighted_enforcement.as_ref().unwrap();
    assert_iterations_bits(trace.trace(NormKind::SensitivityWeighted), &weighted.trace, "weighted");
    if let Some(std_out) = &staged.standard_enforcement {
        assert_iterations_bits(trace.trace(NormKind::Standard), &std_out.trace, "standard");
    }
    // Stage caching: the scrambled calls above must not have re-run any
    // stage — one start event per distinct stage.
    let mut seen = std::collections::BTreeSet::new();
    for stage in &trace.started {
        assert!(seen.insert(*stage), "stage {stage} ran twice");
    }
}

/// Artifacts returned early must match the assembled report (owned values,
/// not views that could drift).
#[test]
fn stage_artifacts_match_the_assembled_report() {
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let mut pipeline = Pipeline::from_scenario(&sc, quick_config()).unwrap();
    let sensitivity = pipeline.sensitivity().unwrap();
    let weighted = pipeline.fit(FitKind::Weighted).unwrap();
    let assessment = pipeline.assess().unwrap();
    let report = pipeline.report().unwrap();
    assert_slice_bits(&sensitivity.sensitivity, &report.sensitivity, "sensitivity artifact");
    assert_slice_bits(&sensitivity.weights, &report.weights, "weights artifact");
    assert_model_bits(&weighted.result.model, &report.weighted_fit.model, "weighted artifact");
    assert_f64_bits(assessment.report.sigma_max, report.sigma_max_before, "sigma artifact");
    assert!(!assessment.report.passive);
}

/// Compares two recorded sweep traces event for event (floats at the bit
/// level): the per-preset buffers merged at join must not depend on the
/// thread count.
fn assert_trace_bits(a: &TraceObserver, b: &TraceObserver, what: &str) {
    assert_eq!(a.started, b.started, "{what}: started stages");
    assert_eq!(a.completed, b.completed, "{what}: completed stages");
    assert_eq!(a.failed, b.failed, "{what}: failed stages");
    assert_eq!(a.iterations.len(), b.iterations.len(), "{what}: iteration count");
    for (i, ((ka, ea), (kb, eb))) in a.iterations.iter().zip(&b.iterations).enumerate() {
        assert_eq!(ka, kb, "{what}: norm of iteration {i}");
        assert_iteration_bits(ea, eb, &format!("{what}: iteration {i}"));
    }
}

/// The acceptance test of the parallel runtime: `Pipeline::sweep_with` over
/// the registry presets on a multi-thread pool must be **bit-identical** to
/// the serial sweep (float-bit `FlowReport` and trace comparison), and every
/// swept scenario must reproduce the paper's weighted-beats-standard fit
/// claim.
///
/// The preset list includes `Minimal` deliberately: its near-exact order-18
/// fits used to break the Hamiltonian eigensolve (QR non-convergence,
/// ROADMAP PR 3 note) before exceptional shifts — running it end-to-end
/// here is the flow-level regression for that fix (`quick_config` fits at
/// order 18). Its primary weighted pass sits on a roundoff edge: a 1e-13
/// relative change of the crossings decides whether the primary pass or the
/// reduced-order retry delivers, so the trace is reconciled run by run.
#[test]
fn parallel_sweep_is_bit_identical_to_serial_and_upholds_the_fit_claim() {
    let presets = [
        ScenarioPreset::Reduced,
        ScenarioPreset::DenseDecap,
        ScenarioPreset::MultiVrm,
        ScenarioPreset::BulkDecap,
        ScenarioPreset::Minimal,
    ];
    let serial = Pipeline::sweep_with(&ThreadPool::new(1), &presets, &quick_config()).unwrap();
    let parallel = Pipeline::sweep_with(&ThreadPool::new(4), &presets, &quick_config()).unwrap();
    assert_eq!(serial.len(), presets.len());
    assert_eq!(parallel.len(), presets.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.preset, p.preset);
        assert_report_bits(&s.report, &p.report);
        assert_trace_bits(&s.trace, &p.trace, s.preset.name());
    }
    for (entry, preset) in parallel.iter().zip(presets) {
        assert_eq!(entry.preset, preset);
        let r = &entry.report;
        let name = preset.name();
        // The merged per-preset trace reconciles with the report: one run
        // of events per weighted stage that started (the primary pass and
        // the retry when it fell through to it), each run numbered from 1;
        // every run but the last failed, and the last one delivered.
        let weighted_stage = |stage: &&Stage| {
            matches!(stage, Stage::Enforcement(NormKind::SensitivityWeighted) | Stage::Recovery(_))
        };
        let mut runs: Vec<usize> = Vec::new();
        for ev in entry.trace.trace(NormKind::SensitivityWeighted) {
            if ev.iteration == 1 {
                runs.push(0);
            }
            let run = runs.last_mut().expect("a weighted run starts at iteration 1");
            *run += 1;
            assert_eq!(ev.iteration, *run, "{name}: trace order");
        }
        let started = entry.trace.started.iter().filter(weighted_stage).count();
        let failed = entry.trace.failed.iter().filter(weighted_stage).count();
        assert_eq!(runs.len(), started, "{name}: one run per weighted stage that started");
        match &r.weighted_enforcement {
            Some(out) => {
                assert_eq!(runs.len(), failed + 1, "{name}: runs vs failed weighted stages");
                assert_eq!(runs.last(), Some(&out.trace.len()), "{name}: delivered run length");
                let events = entry.trace.trace(NormKind::SensitivityWeighted);
                let delivered = &events[events.len() - out.trace.len()..];
                assert_iterations_bits(delivered.iter().copied(), &out.trace, name);
            }
            None => assert!(runs.is_empty(), "{name}: no enforcement, no trace"),
        }
        // Fig. 1 claim: the standard fit is a good scattering fit.
        assert!(
            r.standard_model_eval.scattering_rms_error < 1e-2,
            "{name}: standard S rms {}",
            r.standard_model_eval.scattering_rms_error
        );
        // Fig. 2 claim: the weighted fit beats it on the target impedance.
        assert!(
            r.weighted_model_eval.impedance_relative_error
                < r.standard_model_eval.impedance_relative_error,
            "{name}: weighted fit ({}) must beat standard fit ({})",
            r.weighted_model_eval.impedance_relative_error,
            r.standard_model_eval.impedance_relative_error
        );
        // The delivered model is passive whenever enforcement ran.
        if let Some(out) = &r.weighted_enforcement {
            assert!(out.report.passive, "{name}: weighted enforcement must certify passivity");
        }
        assert!(
            r.weighted_passive_eval.impedance_relative_error.is_finite(),
            "{name}: final evaluation must be finite"
        );
    }
}

/// A `NotConverged` enforcement is reported to the observer as a failed
/// stage with one diagnostics event, and the diagnostics carry the audit
/// `σ_max` of the best-so-far model.
#[test]
fn not_converged_enforcement_is_marked_failed() {
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let mut config = quick_config();
    config.enforcement.max_iterations = 0; // force NotConverged immediately
    let mut trace = TraceObserver::new();
    let err = Pipeline::from_scenario(&sc, config)
        .unwrap()
        .with_observer(&mut trace)
        .enforce(NormKind::Standard)
        .unwrap_err();
    match err {
        CoreError::Passivity(PassivityError::NotConverged { diagnostics, .. }) => {
            assert!(diagnostics.trace.is_empty());
            assert!(diagnostics.best_sigma_max.is_some(), "{diagnostics}");
        }
        other => panic!("expected NotConverged, got {other}"),
    }
    assert_eq!(trace.failed, vec![Stage::Enforcement(NormKind::Standard)]);
    assert_eq!(trace.diagnostics.len(), 1);
    let (norm, diagnostics) = &trace.diagnostics[0];
    assert_eq!(*norm, NormKind::Standard);
    assert!(diagnostics.best_sigma_max.is_some());
}

/// The contract audit skips the eigensolve and reuses the crossings that
/// the delivered model's last report carries. Those crossings must be the
/// delivered model's own, and the audit `σ_max` must equal a full
/// `assess_on` audit's, bit for bit.
fn assert_audit_reuses_the_delivered_crossings(
    sc: &StandardScenario,
    config: &FlowConfig,
    report: &FlowReport,
) {
    let out = report.weighted_enforcement.as_ref().expect("a loop delivered the model");
    let sys = StateSpace::from_pole_residue(&out.model).unwrap();
    assert_slice_bits(
        &out.report.hamiltonian_crossings,
        &hamiltonian_crossings(&sys).unwrap(),
        "crossings of the delivered model",
    );
    let audit_grid = FrequencyGrid::enforcement_log(
        sc.data.grid().max_omega(),
        config.enforcement.sweep_points * config.contract.audit_multiplier,
    );
    let contract = report.contract.as_ref().expect("report() attaches the contract");
    assert_eq!(contract.audit_points, audit_grid.len());
    assert_f64_bits(
        contract.audit_sigma_max,
        assess_on(&out.model, &audit_grid).unwrap().sigma_max,
        "audit sigma_max",
    );
}

/// With no iteration budget, the primary weighted pass and the standard
/// baseline both fail at once: `report()` delivers through the reduced-order
/// retry (which adds 40 iterations), runs it once, records it in the
/// contract, and reports the failed baseline as absent.
#[test]
fn exhausted_primary_budget_is_delivered_by_the_reduced_order_retry() {
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let mut config = quick_config();
    config.enforcement.max_iterations = 0;
    let mut trace = TraceObserver::new();
    let report = Pipeline::from_scenario(&sc, config.clone())
        .unwrap()
        .with_observer(&mut trace)
        .report()
        .unwrap();
    let contract = report.contract.as_ref().expect("report() attaches the contract");
    assert_eq!(contract.rung, RecoveryRung::ReducedOrder);
    assert_audit_reuses_the_delivered_crossings(&sc, &config, &report);
    let outcome = report.weighted_enforcement.as_ref().expect("the retry delivers a model");
    assert_eq!(outcome.trace.len(), 5);
    assert_iterations_bits(trace.trace(NormKind::SensitivityWeighted), &outcome.trace, "retry");
    assert_eq!(
        trace.failed,
        vec![
            Stage::Enforcement(NormKind::SensitivityWeighted),
            Stage::Enforcement(NormKind::Standard)
        ]
    );
    let retry = Stage::Recovery(RecoveryRung::ReducedOrder);
    assert_eq!(trace.started.iter().filter(|&&s| s == retry).count(), 1);
    assert!(trace.completed.contains(&retry));
    assert!(report.standard_enforcement.is_none());
}

/// One observer callback, as delivered.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Start(Stage),
    Done(Stage),
    Failed(Stage),
    Iteration(NormKind, EnforcementIteration),
    Diagnostics(NormKind, NotConvergedDiagnostics),
}

/// Records every callback into one log in call order, so events of two
/// stages that interleaved would show (a [`TraceObserver`] keeps one vector
/// per kind and cannot).
#[derive(Default)]
struct EventLog(Vec<Event>);

impl FlowObserver for EventLog {
    fn on_stage_start(&mut self, stage: Stage) {
        self.0.push(Event::Start(stage));
    }

    fn on_stage_done(&mut self, stage: Stage) {
        self.0.push(Event::Done(stage));
    }

    fn on_stage_failed(&mut self, stage: Stage) {
        self.0.push(Event::Failed(stage));
    }

    fn on_enforcement_iteration(&mut self, norm: NormKind, event: &EnforcementIteration) {
        self.0.push(Event::Iteration(norm, *event));
    }

    fn on_enforcement_diagnostics(
        &mut self,
        norm: NormKind,
        diagnostics: &NotConvergedDiagnostics,
    ) {
        self.0.push(Event::Diagnostics(norm, diagnostics.clone()));
    }
}

/// `report()` runs the weighted pass and the standard baseline at once; it
/// must deliver what `enforce` delivers when the stages run one after the
/// other in the same order, bit for bit, with the same ordered event log.
/// Under `PIM_THREADS=1` both pipelines run serially, so the two test
/// passes pin the concurrent path against the serial one.
#[test]
fn report_equals_the_staged_serial_calls() {
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let mut concurrent = EventLog::default();
    let report = Pipeline::from_scenario(&sc, quick_config())
        .unwrap()
        .with_observer(&mut concurrent)
        .report()
        .unwrap();

    let mut serial = EventLog::default();
    let (weighted, standard, staged) = {
        let mut pipeline =
            Pipeline::from_scenario(&sc, quick_config()).unwrap().with_observer(&mut serial);
        // The prerequisites in report()'s order, then one pass after the
        // other; report() then reuses both cached passes.
        pipeline.sensitivity().unwrap();
        pipeline.fit(FitKind::Standard).unwrap();
        pipeline.fit(FitKind::Weighted).unwrap();
        pipeline.weighting_model().unwrap();
        pipeline.assess().unwrap();
        let weighted = pipeline.enforce(NormKind::SensitivityWeighted).unwrap();
        let standard = pipeline.enforce(NormKind::Standard).unwrap();
        (weighted, standard, pipeline.report().unwrap())
    };
    assert!(weighted.is_some() && standard.is_some(), "both passes run and converge");
    assert_enforcement_bits(&report.weighted_enforcement, &weighted, "weighted pass");
    assert_enforcement_bits(&report.standard_enforcement, &standard, "standard baseline");
    assert_report_bits(&report, &staged);
    assert_eq!(concurrent.0, serial.0, "ordered event log");
}

/// A primary weighted pass that runs out of budget after some iterations
/// replays them before its failure. In `report()`, where it runs beside the
/// standard baseline, the weighted events delivered before the
/// reduced-order retry starts are exactly the trace its `NotConverged`
/// diagnostics carry, and the retry's events are the delivered run's trace.
#[test]
fn a_failed_primary_pass_replays_its_iterations_before_the_retry() {
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let mut config = quick_config();
    // The primary pass needs 10 iterations (fig5_iterations.txt).
    config.enforcement.max_iterations = 3;
    let mut log = EventLog::default();
    let report =
        Pipeline::from_scenario(&sc, config).unwrap().with_observer(&mut log).report().unwrap();
    assert_eq!(report.contract.as_ref().unwrap().rung, RecoveryRung::ReducedOrder);

    let (weighted, retry) = (
        Stage::Enforcement(NormKind::SensitivityWeighted),
        Stage::Recovery(RecoveryRung::ReducedOrder),
    );
    let at = |event: Event| log.0.iter().position(|e| *e == event).expect("event delivered");
    let iterations = |events: &[Event]| -> Vec<EnforcementIteration> {
        events
            .iter()
            .map(|e| match e {
                Event::Iteration(NormKind::SensitivityWeighted, it) => *it,
                other => panic!("expected a weighted iteration, got {other:?}"),
            })
            .collect()
    };
    // Start(weighted), its iterations, Failed(weighted), its diagnostics,
    // then Start(retry).
    let primary = &log.0[at(Event::Start(weighted)) + 1..at(Event::Start(retry))];
    let [events @ .., Event::Failed(failed), Event::Diagnostics(NormKind::SensitivityWeighted, d)] =
        primary
    else {
        panic!("the primary pass must fail with diagnostics: {primary:?}");
    };
    assert_eq!(*failed, weighted);
    assert_eq!(d.trace.len(), 3, "the pass spends its budget");
    assert_iterations_bits(&iterations(events), &d.trace, "failed primary pass");

    let delivered = &log.0[at(Event::Start(retry)) + 1..at(Event::Done(retry))];
    let outcome = report.weighted_enforcement.as_ref().expect("the retry delivers a model");
    assert_iterations_bits(&iterations(delivered), &outcome.trace, "retry");
}

/// When the primary pass and the reduced-order retry both fail, `report()`
/// returns the primary pass's `NotConverged` with the best-so-far audit
/// `σ_max`, and the concurrently run baseline is discarded unreported: the
/// observer sees no `Enforcement(Standard)` event, as if it had never run.
#[test]
fn both_weighted_attempts_fail_and_the_baseline_is_not_reported() {
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let mut config = quick_config();
    // Order 6 is the retry's floor, so the retry returns at once.
    config.vf.n_poles = 6;
    config.enforcement.max_iterations = 0;
    let mut log = EventLog::default();
    let err = Pipeline::from_scenario(&sc, config).unwrap().with_observer(&mut log).report();
    match err {
        Err(CoreError::Passivity(PassivityError::NotConverged { diagnostics, .. })) => {
            assert!(diagnostics.trace.is_empty());
            assert!(diagnostics.best_sigma_max.is_some(), "{diagnostics}");
        }
        Err(other) => panic!("expected NotConverged, got {other}"),
        Ok(_) => panic!("expected NotConverged, got a report"),
    }
    let weighted = Stage::Enforcement(NormKind::SensitivityWeighted);
    let tail: Vec<&Event> = log.0.iter().skip_while(|e| **e != Event::Start(weighted)).collect();
    assert!(
        matches!(
            tail.as_slice(),
            [
                Event::Start(s),
                Event::Failed(f),
                Event::Diagnostics(NormKind::SensitivityWeighted, d),
            ] if *s == weighted && *f == weighted && d.best_sigma_max.is_some()
        ),
        "{tail:?}"
    );
    assert!(log.0.iter().all(|e| !matches!(
        e,
        Event::Start(Stage::Enforcement(NormKind::Standard) | Stage::Recovery(_))
            | Event::Iteration(NormKind::Standard, _)
    )));
}

/// Regression fixture for the Fig. 5 anomaly investigation: the weighted and
/// standard per-iteration enforcement traces on the reduced scenario, under
/// the default (adaptive) sampling. The delivered model must also pass its
/// contract's 16x audit — the default configuration delivers certified
/// models.
///
/// Regenerate with `PIM_REGEN_FIXTURE=1 cargo test --test pipeline fig5`
/// (running this test with the variable set rewrites the file); review the
/// diff before committing.
#[test]
fn fig5_iteration_traces_match_the_fixture() {
    const FIXTURE: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/fig5_iterations.txt");
    let sc = ScenarioPreset::Reduced.build().unwrap();
    let mut trace = TraceObserver::new();
    let report = Pipeline::from_scenario(&sc, quick_config())
        .unwrap()
        .with_observer(&mut trace)
        .report()
        .unwrap();
    let contract = report.contract.as_ref().expect("the default policy attaches a contract");
    assert!(
        contract.audit_sigma_max <= 1.0 + 1e-8,
        "the delivered model must pass its 16x audit: {contract}"
    );
    assert_audit_reuses_the_delivered_crossings(&sc, &quick_config(), &report);

    let mut lines = vec![
        "# norm iteration sigma_before sigma_after step norm_increment constraints".to_string(),
    ];
    for (kind, label) in
        [(NormKind::SensitivityWeighted, "weighted"), (NormKind::Standard, "standard")]
    {
        for ev in trace.trace(kind) {
            lines.push(format!(
                "{label} {} {:.12e} {:.12e} {:.6} {:.12e} {}",
                ev.iteration,
                ev.sigma_before,
                ev.sigma_after,
                ev.step,
                ev.norm_increment,
                ev.constraints
            ));
        }
    }
    let current = lines.join("\n") + "\n";

    if std::env::var_os("PIM_REGEN_FIXTURE").is_some() {
        std::fs::write(FIXTURE, &current).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing; regenerate with PIM_REGEN_FIXTURE=1");
    let exp_lines: Vec<&str> = expected.lines().collect();
    let cur_lines: Vec<&str> = current.lines().collect();
    assert_eq!(
        exp_lines.len(),
        cur_lines.len(),
        "trace length changed; regenerate the fixture if intentional\n{current}"
    );
    for (e, c) in exp_lines.iter().zip(&cur_lines).skip(1) {
        let ef: Vec<&str> = e.split_whitespace().collect();
        let cf: Vec<&str> = c.split_whitespace().collect();
        assert_eq!(ef.len(), cf.len(), "field count: {e} vs {c}");
        // norm label, iteration and constraint count are exact ...
        assert_eq!(ef[0], cf[0], "norm label: {e} vs {c}");
        assert_eq!(ef[1], cf[1], "iteration: {e} vs {c}");
        assert_eq!(ef[6], cf[6], "constraints: {e} vs {c}");
        // ... floats compare with a 1e-6 relative band (cross-platform libm).
        for idx in 2..6 {
            let a: f64 = ef[idx].parse().unwrap();
            let b: f64 = cf[idx].parse().unwrap();
            let tol = 1e-6 * a.abs().max(1e-12);
            assert!((a - b).abs() <= tol, "field {idx} drifted: {e} vs {c}");
        }
    }
}
