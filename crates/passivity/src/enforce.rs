//! The iterative passivity enforcement loop (eq. 9 of the paper).
//!
//! Each iteration locates the passivity violations of the current model
//! (Hamiltonian test + singular-value sweep), linearizes the local
//! constraints at the violation frequencies, solves the Gramian-weighted
//! quadratic program for the smallest perturbation of the output matrix that
//! removes the violations to first order, and applies it. The loop repeats
//! until the model is passive, the iteration budget is exhausted or the loop
//! stalls. Every model is assessed once on the working grid: the
//! backtracking search assesses each candidate, and the accepted candidate's
//! report is where the next iteration starts.
//!
//! Two step controls keep the linearized steps in check. Backtracking
//! halves a step that makes the worst singular value larger. Adaptive
//! Tikhonov damping of the QP (see [`crate::qp`]) tames a near-singular
//! Gramian; on healthy runs it never engages, so it leaves the numbers
//! bit-identical. A run stalls when backtracking bottoms out with
//! the worst singular value still growing on consecutive iterations: the
//! linearized QP is then pushing the model the wrong way, and more
//! iterations do not recover it. A run that stalls or reaches
//! `max_iterations` returns [`PassivityError::NotConverged`] with the best
//! model it saw.
//!
//! The perturbation norm is supplied by the caller through
//! [`PerturbationNorm`]: the plain controllability Gramian gives the standard
//! L2 enforcement of eq. (10)–(11), while the sensitivity-weighted Gramian of
//! eq. (19)–(21) (built by `pim-core`) gives the paper's method.

use crate::check::{assess_with_crossings, assess_with_sampling, PassivityReport};
use crate::constraints::{apply_perturbation, build_constraints};
use crate::grid::{Adaptive, FrequencyGrid, SamplingStrategy};
use crate::qp::{solve_block_qp_in_place, BlockQpFactors, QpOptions};
use crate::{NotConvergedDiagnostics, PassivityError, Result};
use pim_linalg::svd::svd;
use pim_linalg::{Complex64, Mat};
use pim_statespace::gramian::controllability;
use pim_statespace::{PoleResidueModel, StateSpace};
use std::sync::Arc;

/// The quadratic form defining the perturbation norm
/// `‖δS‖² = Σ_e δc_e·G·δc_eᵀ`. Every matrix element of a common-pole fit
/// shares one realization `(A_e, b_e)`, so one `N × N` Gramian `G` weights
/// them all; it depends only on the poles (and the sensitivity weight).
#[derive(Debug, Clone)]
pub struct PerturbationNorm {
    gramian: Mat,
}

impl PerturbationNorm {
    /// Builds a norm from an explicit `N × N` Gramian, `N` being the model
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] when the matrix is empty,
    /// not square or not finite.
    pub fn from_gramian(gramian: Mat) -> Result<Self> {
        if !gramian.is_square() || gramian.rows() == 0 {
            return Err(PassivityError::InvalidInput(format!(
                "the Gramian must be square and non-empty, got {}x{}",
                gramian.rows(),
                gramian.cols()
            )));
        }
        if !gramian.as_slice().iter().all(|v| v.is_finite()) {
            return Err(PassivityError::InvalidInput("the Gramian is not finite".into()));
        }
        Ok(PerturbationNorm { gramian })
    }

    /// The standard (unweighted) L2 norm of eq. (10): the plain
    /// controllability Gramian of the shared per-element realization.
    ///
    /// # Errors
    ///
    /// Propagates realization and Lyapunov failures.
    pub fn standard(model: &PoleResidueModel) -> Result<Self> {
        let element = StateSpace::from_pole_residue_element(model, 0, 0)?;
        Self::from_gramian(controllability(&element).map_err(PassivityError::StateSpace)?)
    }

    /// The Gramian `G`, `N × N`.
    pub fn gramians(&self) -> &Mat {
        &self.gramian
    }

    /// States per element (`N`).
    pub fn states(&self) -> usize {
        self.gramian.rows()
    }

    /// Evaluates the norm `Σ_e δc_e·G·δc_eᵀ` of a stacked perturbation
    /// vector, one `N`-long segment per element (diagnostic helper).
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] when the length is not a
    /// positive multiple of `N`.
    pub fn evaluate(&self, delta: &[f64]) -> Result<f64> {
        let states = self.states();
        if delta.is_empty() || !delta.len().is_multiple_of(states) {
            return Err(PassivityError::InvalidInput(format!(
                "perturbation vector has {} entries, expected a positive multiple of {states}",
                delta.len()
            )));
        }
        let mut total = 0.0;
        for seg in delta.chunks_exact(states) {
            let gs = self.gramian.matvec(seg)?;
            total += seg.iter().zip(&gs).map(|(a, b)| a * b).sum::<f64>();
        }
        Ok(total)
    }
}

/// Smallest backtracking fraction. A step that still grows `σ_max` at this
/// fraction is taken anyway and the next iteration re-linearizes. Exact QP
/// steps can overshoot the linearization by far more than 16×: on the
/// `Minimal` preset under the fixture configuration, the first improving
/// fraction is 1/64.
const MIN_STEP: f64 = 1.0 / 1024.0;

/// Consecutive bottomed-out-and-grew steps after which the loop stops as
/// stalled. A single one is left to the next re-linearization.
const STALL_AFTER: usize = 2;

/// Configuration of the enforcement loop.
#[derive(Debug, Clone)]
pub struct EnforcementConfig {
    /// Maximum number of outer perturbation iterations.
    pub max_iterations: usize,
    /// Safety margin below one imposed on the constrained singular values
    /// (the constraints read `σ + δσ ≤ 1 − margin`).
    pub sigma_margin: f64,
    /// Singular values above this threshold are constrained at every
    /// violation frequency (keeping slightly sub-unit singular values under
    /// control improves convergence).
    pub sigma_threshold: f64,
    /// Number of points of the baseline singular-value sweep.
    pub sweep_points: usize,
    /// The sampling strategy that builds the working sweep and refines every
    /// assessment of the loop, the 4× denser verification sweep's included
    /// (see [`crate::grid`]). The default [`Adaptive`] chases violation
    /// bands narrower than the grid spacing.
    pub sampling: Arc<dyn SamplingStrategy>,
    /// Options of the inner quadratic program.
    pub qp: QpOptions,
}

impl Default for EnforcementConfig {
    fn default() -> Self {
        EnforcementConfig {
            max_iterations: 30,
            sigma_margin: 1e-4,
            sigma_threshold: 0.999,
            sweep_points: 400,
            sampling: Arc::new(Adaptive),
            qp: QpOptions::default(),
        }
    }
}

/// One outer iteration of an enforcement run, recorded right after its
/// perturbation is accepted. A run returns its iterations in order: as
/// [`EnforcementOutcome::trace`], or, when it fails with
/// [`PassivityError::NotConverged`], as the diagnostics' `trace`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnforcementIteration {
    /// 1-based index of the iteration within the loop.
    pub iteration: usize,
    /// Worst singular value that triggered this iteration (before the
    /// perturbation).
    pub sigma_before: f64,
    /// Worst singular value of the accepted perturbed model, measured on the
    /// working sweep grid.
    pub sigma_after: f64,
    /// Backtracking step fraction actually taken (1.0 = full step).
    pub step: f64,
    /// Perturbation norm `‖δS‖²` added by this iteration.
    pub norm_increment: f64,
    /// Number of linearized singular-value constraints in the QP.
    pub constraints: usize,
    /// Number of points of the refined working grid the accepted
    /// candidate's assessment swept; that assessment is the report the next
    /// iteration starts from. Under [`Adaptive`] it grows well beyond the
    /// baseline as the bisection chases sub-grid features; under
    /// [`crate::grid::FixedLog`] it is the baseline.
    pub grid_points: usize,
    /// Relative Tikhonov λ of this iteration's QP when the adaptive damping
    /// had escalated it above the base λ (at least 1e-14 then), and 0 when
    /// it had not, as on every healthy run.
    pub qp_lambda: f64,
}

/// Result of a passivity enforcement run that delivered a passive model.
#[derive(Debug, Clone)]
pub struct EnforcementOutcome {
    /// The passive macromodel.
    pub model: PoleResidueModel,
    /// Final passivity report, on the dense verification grid.
    pub report: PassivityReport,
    /// Every outer iteration, in order; empty when the input model was
    /// already passive. Its length is the iteration count, the sum of its
    /// `norm_increment`s the accumulated perturbation norm `Σ ‖δS‖²`, and
    /// its `sigma_before`s followed by `report.sigma_max` the `σ_max`
    /// trajectory.
    pub trace: Vec<EnforcementIteration>,
}

/// Enforces asymptotic passivity by clipping the singular values of the
/// constant (feedthrough) term `D` to `limit`.
///
/// The perturbation loop only adjusts the output matrix `C`, which cannot
/// change the `ω → ∞` behaviour; if the fitted `D` is even marginally
/// non-contractive the loop could never terminate. This step removes such
/// violations up front with a minimal (spectral-norm optimal) correction of
/// `D`.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] for a non-positive limit and
/// propagates SVD failures.
pub fn enforce_asymptotic_passivity(
    model: &PoleResidueModel,
    limit: f64,
) -> Result<PoleResidueModel> {
    if !(limit > 0.0) {
        return Err(PassivityError::InvalidInput("the feedthrough limit must be positive".into()));
    }
    let decomposition = svd(&model.d().to_complex())?;
    if decomposition.sigma_max() <= limit {
        return Ok(model.clone());
    }
    let p = model.ports();
    let mut clipped = pim_linalg::CMat::zeros(p, p);
    for (idx, &sigma) in decomposition.singular_values.iter().enumerate() {
        let s = sigma.min(limit);
        // audit:allow(float-eq): exact-zero shift means the eigenvalue is already on the boundary
        if s == 0.0 {
            continue;
        }
        let u = &decomposition.u;
        let v = &decomposition.v;
        for i in 0..p {
            for j in 0..p {
                clipped[(i, j)] += u[(i, idx)] * v[(j, idx)].conj() * Complex64::from_real(s);
            }
        }
    }
    let d_new = clipped.real();
    Ok(PoleResidueModel::new(model.poles().to_vec(), model.residues().to_vec(), d_new)?)
}

/// Runs the iterative perturbation loop until the model is passive.
///
/// The asymptotic term is clipped first (see
/// [`enforce_asymptotic_passivity`]); the loop then perturbs only the
/// residues / output matrix as in the paper. The run returns every outer
/// iteration it made, as [`EnforcementOutcome::trace`] or inside the
/// `NotConverged` diagnostics.
///
/// # Errors
///
/// Returns [`PassivityError::NotConverged`] when the iteration budget is
/// exhausted or the loop stalls, and propagates numerical failures of the
/// inner steps.
pub fn enforce_passivity(
    model: &PoleResidueModel,
    norm: &PerturbationNorm,
    band_max_omega: f64,
    config: &EnforcementConfig,
) -> Result<EnforcementOutcome> {
    if norm.states() != model.order() {
        return Err(PassivityError::InvalidInput(format!(
            "norm was built for an order-{} model, got order {}",
            norm.states(),
            model.order()
        )));
    }
    if !(band_max_omega > 0.0 && band_max_omega.is_finite()) {
        return Err(PassivityError::InvalidInput(
            "band_max_omega must be positive and finite".into(),
        ));
    }
    if config.sweep_points < 10 {
        return Err(PassivityError::InvalidInput("sweep_points must be at least 10".into()));
    }

    // The loop assesses on two grids, both refined by the one sampling
    // strategy: the strategy's per-iteration working sweep, and a 4× denser
    // logarithmic grid that double-checks convergence and serves as the
    // final verification sweep (narrow violation bands can slip between the
    // points of the working sweep).
    let strategy = config.sampling.as_ref();
    let pool = pim_runtime::global();
    let sweep = strategy.working_grid(band_max_omega, config.sweep_points);
    let verify_sweep = FrequencyGrid::enforcement_log(band_max_omega, 4 * config.sweep_points);

    let mut current = enforce_asymptotic_passivity(model, 1.0 - config.sigma_margin)?;
    let mut trace: Vec<EnforcementIteration> = Vec::new();
    // Best-so-far (lowest worst singular value) model, handed back inside
    // `NotConverged` so a failed run still yields its most passive iterate.
    let mut best: Option<(f64, PoleResidueModel)> = None;
    // Consecutive bottomed-out-and-grew backtracking steps (the stall
    // trigger).
    let mut bottomed_growth = 0usize;

    // Quantities that are invariant across the outer iterations: the
    // perturbation only moves residues, never poles, so the shared
    // per-element realization `(A_e, b_e)` used by the constraint
    // linearization is fixed, and so is the Gramian — factor it once
    // instead of re-running LU per iteration. A near-singular Gramian gets
    // adaptive Tikhonov damping (decayed as the iterate improves); a
    // well-conditioned one factors bit-identically to the fixed path.
    let element = StateSpace::from_pole_residue_element(&current, 0, 0)?;
    let mut qp_factors = BlockQpFactors::new_adaptive(
        norm.gramians(),
        config.qp.regularization,
        config.qp.max_condition,
    )?;

    // The working-grid report of `current`. Only the input model is assessed
    // here; every later iterate is the candidate an iteration accepted, and
    // its report is handed over from the backtracking search.
    let mut report = assess_with_sampling(pool, &current, &sweep, strategy)?;
    loop {
        if report.passive {
            // Verify on the dense grid before declaring success; fall back to
            // the dense report (with its violation bands) otherwise. The
            // crossings depend on the model only, so the working report's
            // serve the dense grid too.
            let verification = assess_with_crossings(
                pool,
                &current,
                &report.hamiltonian_crossings,
                &verify_sweep,
                strategy,
            )?;
            if verification.passive {
                return Ok(EnforcementOutcome { model: current, report: verification, trace });
            }
            report = verification;
        }
        if best.as_ref().is_none_or(|(s, _)| report.sigma_max < *s) {
            best = Some((report.sigma_max, current.clone()));
        }
        if trace.len() >= config.max_iterations || bottomed_growth >= STALL_AFTER {
            let Some((_, best)) = best else { unreachable!("recorded just above") };
            return Err(PassivityError::NotConverged {
                best: Box::new(best),
                diagnostics: Box::new(NotConvergedDiagnostics {
                    bottomed_out: bottomed_growth,
                    sigma_max: report.sigma_max,
                    best_sigma_max: None,
                    trace,
                }),
            });
        }

        // Constraint frequencies: violation-band peaks, edges and midpoints,
        // plus the Hamiltonian crossings themselves.
        let mut freqs: Vec<f64> = Vec::new();
        for band in &report.bands {
            freqs.push(band.omega_peak);
            freqs.push(band.omega_low);
            freqs.push(band.omega_high);
            freqs.push(0.5 * (band.omega_low + band.omega_high));
        }
        for &w in &report.hamiltonian_crossings {
            freqs.push(w);
        }
        if freqs.is_empty() {
            // σ_max > 1 can also happen strictly at DC or at the asymptote.
            freqs.push(report.omega_at_sigma_max);
        }
        freqs.retain(|w| w.is_finite() && *w >= 0.0);
        freqs.sort_by(f64::total_cmp);
        freqs.dedup_by(|a, b| (*a - *b).abs() <= 1e-9 * a.abs().max(1.0));

        let cons = build_constraints(
            &current,
            &element,
            &freqs,
            config.sigma_threshold,
            config.sigma_margin,
        )?;
        let constraints = cons.rows();
        if constraints == 0 {
            return Err(PassivityError::InvalidInput(
                "violations were detected but no constraint could be formed; \
                 lower sigma_threshold"
                    .into(),
            ));
        }
        let qp_lambda =
            if qp_factors.is_damped() { qp_factors.applied_regularization() } else { 0.0 };
        // The QP whitens F in place: the loop never holds two copies of it.
        let delta = solve_block_qp_in_place(&qp_factors, cons.f, &cons.g)?.x;

        // Backtracking safeguard: the constraints are linearized, so a full
        // step can overshoot and make the worst singular value larger. Halve
        // the step until it no longer degrades the violation (or give up and
        // take the smallest step, letting the next iteration re-linearize).
        let mut step = 1.0_f64;
        loop {
            let scaled: Vec<f64> = delta.iter().map(|v| v * step).collect();
            let candidate = apply_perturbation(&current, &scaled)?;
            let candidate_report = assess_with_sampling(pool, &candidate, &sweep, strategy)?;
            let candidate_sigma = candidate_report.sigma_max;
            if candidate_sigma <= report.sigma_max * (1.0 + 1e-9) || step <= MIN_STEP {
                trace.push(EnforcementIteration {
                    iteration: trace.len() + 1,
                    sigma_before: report.sigma_max,
                    sigma_after: candidate_sigma,
                    step,
                    norm_increment: norm.evaluate(&scaled)?,
                    constraints,
                    grid_points: candidate_report.grid.len(),
                    qp_lambda,
                });
                // Backtracking bottomed out at the minimum step and the
                // violation still grew. One such step happens in healthy
                // runs (the next re-linearization recovers); `STALL_AFTER`
                // in a row stop the loop at the top of the next iteration.
                let grew = candidate_sigma > report.sigma_max * (1.0 + 1e-9);
                if step <= MIN_STEP && grew {
                    bottomed_growth += 1;
                } else {
                    bottomed_growth = 0;
                }

                // Adaptive damping decays once the iterate improves again,
                // so the converged perturbation is not biased by λ.
                if !grew {
                    qp_factors.decay()?;
                }

                current = candidate;
                report = candidate_report;
                break;
            }
            step *= 0.5;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::sigma_max_at;
    use pim_linalg::{CMat, Complex64};
    use pim_rfdata::metrics::relative_rms_error;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// A 1-port with a mild localized violation near 1000 rad/s.
    fn violating_one_port() -> PoleResidueModel {
        let p = c(-50.0, 1000.0);
        let r = c(30.0, 12.0);
        PoleResidueModel::new(
            vec![p, p.conj()],
            vec![CMat::from_diag(&[r]), CMat::from_diag(&[r.conj()])],
            Mat::from_diag(&[0.85]),
        )
        .unwrap()
    }

    /// A symmetric 2-port with violations.
    fn violating_two_port() -> PoleResidueModel {
        let p = c(-60.0, 900.0);
        let r =
            CMat::from_fn(2, 2, |i, j| c(22.0 + 5.0 * (i + j) as f64, 8.0 - 2.0 * (i + j) as f64));
        PoleResidueModel::new(
            vec![p, p.conj(), c(-3000.0, 0.0)],
            vec![r.clone(), r.conj(), CMat::from_diag(&[c(120.0, 0.0), c(100.0, 0.0)])],
            Mat::from_fn(2, 2, |i, j| if i == j { 0.8 } else { 0.05 }),
        )
        .unwrap()
    }

    #[test]
    fn enforcement_produces_a_passive_one_port() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let out = enforce_passivity(&model, &norm, 5000.0, &cfg).unwrap();
        assert!(out.report.passive);
        assert!(!out.trace.is_empty() && out.trace.len() <= cfg.max_iterations);
        assert!(out.report.sigma_max <= 1.0 + 1e-9);
        // The perturbed model keeps the original poles.
        for (a, b) in model.poles().iter().zip(out.model.poles()) {
            assert_eq!(a, b);
        }
        // The σ_max trajectory starts above 1, and the run perturbed the
        // model.
        assert!(out.trace[0].sigma_before > 1.0);
        assert!(out.trace.iter().map(|it| it.norm_increment).sum::<f64>() > 0.0);
    }

    #[test]
    fn enforcement_changes_the_response_only_mildly() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let out = enforce_passivity(&model, &norm, 5000.0, &cfg).unwrap();
        // Compare responses far from the violation: they must stay close.
        let omegas: Vec<f64> = (1..60).map(|k| k as f64 * 10.0).collect();
        let before: Vec<Complex64> =
            omegas.iter().map(|&w| model.evaluate_at_omega(w).unwrap()[(0, 0)]).collect();
        let after: Vec<Complex64> =
            omegas.iter().map(|&w| out.model.evaluate_at_omega(w).unwrap()[(0, 0)]).collect();
        let err = relative_rms_error(&before, &after).unwrap();
        assert!(err < 0.1, "relative deviation {err} too large");
    }

    #[test]
    fn enforcement_handles_two_port_and_preserves_symmetry() {
        let model = violating_two_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let out = enforce_passivity(&model, &norm, 6000.0, &cfg).unwrap();
        assert!(out.report.passive);
        // The model is reciprocal and so is the standard norm, so the QP's
        // constraints and minimizer are symmetric too: the loop keeps the
        // residues symmetric to rounding (about 2e-14 here) on its own.
        for r in out.model.residues() {
            assert!((r[(0, 1)] - r[(1, 0)]).abs() < 1e-9);
        }
    }

    #[test]
    fn already_passive_model_is_returned_unchanged() {
        let model = PoleResidueModel::new(
            vec![c(-100.0, 0.0)],
            vec![CMat::from_diag(&[c(40.0, 0.0)])],
            Mat::from_diag(&[0.2]),
        )
        .unwrap();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let out = enforce_passivity(&model, &norm, 1000.0, &EnforcementConfig::default()).unwrap();
        assert!(out.trace.is_empty());
        assert!(out.report.passive);
        for (a, b) in model.residues().iter().zip(out.model.residues()) {
            assert!(a.max_abs_diff(b) < 1e-15);
        }
    }

    #[test]
    fn iteration_budget_is_respected() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { max_iterations: 0, sweep_points: 100, ..Default::default() };
        match enforce_passivity(&model, &norm, 5000.0, &cfg) {
            Err(PassivityError::NotConverged { best, diagnostics }) => {
                assert!(diagnostics.trace.is_empty());
                assert!(diagnostics.sigma_max > 1.0);
                // Even a zero-budget failure hands back its best iterate
                // (here the asymptotically clipped input model).
                assert_eq!(best.poles().len(), model.poles().len());
                // The trajectory tail is the final sigma alone.
                assert_eq!(diagnostics.bottomed_out, 0);
                let rendered = diagnostics.to_string();
                let tail = format!("; sigma tail [{:.6}]", diagnostics.sigma_max);
                assert!(rendered.ends_with(&tail), "{rendered}");
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    /// Two runs of the same problem return bit-identical models and traces,
    /// and the trace numbers its iterations in order: each starts where the
    /// previous one ended, and a healthy run never damps its QP.
    #[test]
    fn a_run_is_deterministic_and_traces_every_iteration() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let a = enforce_passivity(&model, &norm, 5000.0, &cfg).unwrap();
        let b = enforce_passivity(&model, &norm, 5000.0, &cfg).unwrap();
        assert_traces_bits(&a.trace, &b.trace);
        for (x, y) in a.model.residues().iter().zip(b.model.residues()) {
            assert_eq!((x.max_abs_diff(y)).to_bits(), 0.0f64.to_bits());
        }
        assert!(!a.trace.is_empty());
        for (k, it) in a.trace.iter().enumerate() {
            assert_eq!(it.iteration, k + 1);
            assert!(it.step > 0.0 && it.step <= 1.0);
            assert!(it.constraints >= 1);
            assert_eq!(it.qp_lambda.to_bits(), 0.0f64.to_bits());
        }
        for pair in a.trace.windows(2) {
            assert_eq!(pair[1].sigma_before.to_bits(), pair[0].sigma_after.to_bits());
        }
    }

    /// Asserts two traces equal, floats bit for bit.
    fn assert_traces_bits(a: &[EnforcementIteration], b: &[EnforcementIteration]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let bits = |it: &EnforcementIteration| {
                [it.sigma_before, it.sigma_after, it.step, it.norm_increment, it.qp_lambda]
                    .map(f64::to_bits)
            };
            assert_eq!(
                (x.iteration, x.constraints, x.grid_points),
                (y.iteration, y.constraints, y.grid_points)
            );
            assert_eq!(bits(x), bits(y));
        }
    }

    /// Every model of a run is assessed once: the input model on the working
    /// grid, each backtracking candidate on the working grid, and the
    /// delivered model once more on the dense verification grid. Every
    /// assessment refines its grid exactly once, so a strategy that counts
    /// its `refine` calls counts the assessments.
    #[test]
    fn each_model_is_assessed_once() {
        use crate::grid::FrequencyGrid;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Debug, Default)]
        struct Counting {
            inner: Adaptive,
            refines: AtomicUsize,
        }
        impl SamplingStrategy for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn refine(
                &self,
                pool: &pim_runtime::ThreadPool,
                model: &PoleResidueModel,
                base: &FrequencyGrid,
                crossings: &[f64],
            ) -> Result<(FrequencyGrid, Vec<f64>)> {
                self.refines.fetch_add(1, Ordering::Relaxed);
                self.inner.refine(pool, model, base, crossings)
            }
        }
        let counting = Arc::new(Counting::default());
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig {
            sweep_points: 200,
            sampling: counting.clone(),
            ..Default::default()
        };
        let out = enforce_passivity(&model, &norm, 5000.0, &cfg).unwrap();
        assert!(!out.trace.is_empty(), "the invariant needs at least one iteration");
        // Backtracking tries the steps 1, 1/2, 1/4, ... down to the one it
        // accepts: 1 + log2(1/step) candidates per iteration.
        let candidates: usize =
            out.trace.iter().map(|ev| 1 + (1.0 / ev.step).log2().round() as usize).sum();
        assert_eq!(counting.refines.load(Ordering::Relaxed), 1 + candidates + 1);
    }

    #[test]
    fn budget_exhaustion_returns_the_best_model_on_a_skewed_norm() {
        // A pathologically skewed norm: one residue direction is almost free
        // (Gramian eigenvalue ~1e-12), so the QP pushes enormous
        // perturbations along it and the linearization overshoots. With the
        // adaptive damping off, the loop needs 7 iterations; a budget of 3
        // runs out mid-trajectory.
        let model = violating_one_port();
        let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1e-12]]);
        let norm = PerturbationNorm::from_gramian(g).unwrap();
        let cfg = EnforcementConfig {
            sweep_points: 100,
            max_iterations: 3,
            qp: QpOptions { max_condition: f64::INFINITY, ..Default::default() },
            ..Default::default()
        };
        match enforce_passivity(&model, &norm, 5000.0, &cfg) {
            Err(PassivityError::NotConverged { best, diagnostics }) => {
                let sigma_max = diagnostics.sigma_max;
                assert_eq!(diagnostics.trace.len(), cfg.max_iterations);
                assert!(sigma_max > 1.0);
                // The best-so-far model, re-assessed exactly as the loop
                // assessed its iterates (working grid + the configured
                // refinement), is no worse than either the start or the end
                // state.
                let working = cfg.sampling.working_grid(5000.0, cfg.sweep_points);
                let best_sigma = assess_with_sampling(
                    pim_runtime::global(),
                    &best,
                    &working,
                    cfg.sampling.as_ref(),
                )
                .unwrap()
                .sigma_max;
                let start_sigma = diagnostics.trace[0].sigma_before;
                assert!(
                    best_sigma <= sigma_max && best_sigma <= start_sigma,
                    "best-so-far ({best_sigma}) must be no worse than the start \
                     ({start_sigma}) or the end state ({sigma_max})"
                );
                // The post-mortem renders the trajectory tail: each
                // iteration's starting σ_max, then the final one.
                let tail: Vec<String> = diagnostics
                    .trace
                    .iter()
                    .map(|it| it.sigma_before)
                    .chain([sigma_max])
                    .map(|s| format!("{s:.6}"))
                    .collect();
                let rendered = diagnostics.to_string();
                let want = format!("; sigma tail [{}]", tail.join(", "));
                assert!(rendered.ends_with(&want), "{rendered}");
            }
            Ok(out) => panic!(
                "the skewed norm should exhaust the budget, but converged in {} iterations",
                out.trace.len()
            ),
            Err(e) => panic!("expected NotConverged, got {e}"),
        }
    }

    #[test]
    fn damping_engages_under_a_tight_cap_and_delivers_a_passive_model() {
        // The skewed norm of the budget-exhaustion test above, with adaptive
        // damping on under a condition cap tight enough for this
        // 1e12-condition Gramian. With exact QP steps the undamped loop
        // converges too (in 7 iterations), so this pins that the damping
        // engages, stays under its cap and still delivers a passive model,
        // not that it rescues a run that would otherwise fail.
        let model = violating_one_port();
        let g = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1e-12]]);
        let norm = PerturbationNorm::from_gramian(g).unwrap();
        let cfg = EnforcementConfig {
            sweep_points: 100,
            max_iterations: 60,
            qp: QpOptions { max_condition: 1e6, ..Default::default() },
            ..Default::default()
        };
        let out =
            enforce_passivity(&model, &norm, 5000.0, &cfg).expect("the damped loop must converge");
        assert!(out.report.passive);
        assert!(out.report.sigma_max <= 1.0 + 1e-9);
        // The damping actually engaged, from the first QP on, and decayed as
        // the iterate improved.
        let lambdas: Vec<f64> = out.trace.iter().map(|it| it.qp_lambda).collect();
        assert!(lambdas[0] > cfg.qp.regularization, "{lambdas:?}");
        assert!(lambdas.windows(2).all(|w| w[1] <= w[0]), "{lambdas:?}");
    }

    #[test]
    fn idle_damping_is_bit_identical_to_the_undamped_loop() {
        // On a healthy run the adaptive damping never escalates under the
        // default cap, so the loop must reproduce the damping-off loop bit
        // for bit — the guarantee that pins the committed fixtures.
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let robust = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let legacy = EnforcementConfig {
            sweep_points: 200,
            qp: QpOptions { max_condition: f64::INFINITY, ..Default::default() },
            ..Default::default()
        };
        let a = enforce_passivity(&model, &norm, 5000.0, &robust).unwrap();
        let b = enforce_passivity(&model, &norm, 5000.0, &legacy).unwrap();
        // The traces carry every iteration's σ_max, step, norm increment and
        // QP λ (zero: the damping never escalated).
        assert_traces_bits(&a.trace, &b.trace);
        assert!(a.trace.iter().all(|it| it.qp_lambda.to_bits() == 0.0f64.to_bits()));
        assert_eq!(a.report.sigma_max.to_bits(), b.report.sigma_max.to_bits());
        for (x, y) in a.model.residues().iter().zip(b.model.residues()) {
            assert_eq!((x.max_abs_diff(y)).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn norm_validation_and_evaluation() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        assert_eq!(norm.states(), 2);
        assert_eq!(norm.gramians().shape(), (2, 2));
        let v = norm.evaluate(&[1.0, 0.0]).unwrap();
        assert!(v > 0.0);
        // The one Gramian weights every N-long segment.
        let two = norm.evaluate(&[1.0, 0.0, 1.0, 0.0]).unwrap();
        assert_eq!(two.to_bits(), (v + v).to_bits());
        assert!(norm.evaluate(&[1.0]).is_err());
        assert!(norm.evaluate(&[]).is_err());
        assert!(PerturbationNorm::from_gramian(Mat::zeros(2, 3)).is_err());
        assert!(PerturbationNorm::from_gramian(Mat::zeros(0, 0)).is_err());
        assert!(PerturbationNorm::from_gramian(Mat::from_diag(&[1.0, f64::NAN])).is_err());
        // Mismatched norm vs model is rejected by the loop.
        let other = violating_two_port();
        assert!(enforce_passivity(&other, &norm, 100.0, &EnforcementConfig::default()).is_err());
        for band_edge in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(
                enforce_passivity(&model, &norm, band_edge, &EnforcementConfig::default()).is_err()
            );
        }
        let bad_cfg = EnforcementConfig { sweep_points: 3, ..Default::default() };
        assert!(enforce_passivity(&model, &norm, 100.0, &bad_cfg).is_err());
    }

    #[test]
    fn weighted_norm_changes_where_the_perturbation_lands() {
        // Weight one pole's states: G' = D·G·D with D scaling the states of
        // the resonant pair (states 0 and 1) by 10, so perturbing its
        // residues costs 100 times more. The enforcement should then move
        // that pole's residues less than under the standard norm.
        let model = violating_two_port();
        let standard = PerturbationNorm::standard(&model).unwrap();
        let d = [10.0, 10.0, 1.0];
        let g = standard.gramians();
        let heavy =
            PerturbationNorm::from_gramian(Mat::from_fn(3, 3, |i, j| d[i] * g[(i, j)] * d[j]))
                .unwrap();
        let cfg = EnforcementConfig { sweep_points: 150, max_iterations: 60, ..Default::default() };
        let out_std = enforce_passivity(&model, &standard, 6000.0, &cfg).unwrap();
        let out_w = enforce_passivity(&model, &heavy, 6000.0, &cfg).unwrap();
        assert!(out_std.report.passive && out_w.report.passive);
        // Largest change of the pair's residue over all matrix elements:
        // about 4.0 weighted against 29 standard here.
        let moved = |m: &PoleResidueModel| m.residues()[0].max_abs_diff(&model.residues()[0]);
        let (w, s) = (moved(&out_w.model), moved(&out_std.model));
        assert!(w < s, "weighting the pair's states must move its residues less: {w} vs {s}");
        let _ = sigma_max_at(&out_w.model, 900.0).unwrap();
    }
}

#[cfg(test)]
mod asymptotic_tests {
    use super::*;
    use pim_linalg::svd::sigma_max;
    use pim_linalg::{CMat, Complex64};

    #[test]
    fn clipping_reduces_feedthrough_singular_values() {
        let model = PoleResidueModel::new(
            vec![Complex64::new(-100.0, 0.0)],
            vec![CMat::from_diag(&[Complex64::new(10.0, 0.0), Complex64::new(5.0, 0.0)])],
            Mat::from_rows(&[&[1.05, 0.2], &[0.2, 0.7]]),
        )
        .unwrap();
        let before = sigma_max(&model.d().to_complex()).unwrap();
        assert!(before > 1.0);
        let clipped = enforce_asymptotic_passivity(&model, 0.999).unwrap();
        let after = sigma_max(&clipped.d().to_complex()).unwrap();
        assert!(after <= 0.999 + 1e-9, "after {after}");
        // The smaller singular value and the residues are untouched.
        assert!(clipped.residues()[0].max_abs_diff(&model.residues()[0]) < 1e-15);
        // An already-contractive D passes through unchanged.
        let same = enforce_asymptotic_passivity(&clipped, 0.999).unwrap();
        assert!(same.d().max_abs_diff(clipped.d()) < 1e-12);
        assert!(enforce_asymptotic_passivity(&model, 0.0).is_err());
    }
}
