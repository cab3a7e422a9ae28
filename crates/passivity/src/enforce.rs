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
//! Tikhonov damping of the QP (see [`crate::qp`]) tames near-singular
//! Gramian blocks; on healthy runs it never engages, so it leaves the
//! numbers bit-identical. A run stalls when backtracking bottoms out with
//! the worst singular value still growing on consecutive iterations: the
//! linearized QP is then pushing the model the wrong way, and more
//! iterations do not recover it. A run that stalls or reaches
//! `max_iterations` returns [`PassivityError::NotConverged`] with the best
//! model it saw.
//!
//! The perturbation norm is supplied by the caller through
//! [`PerturbationNorm`]: the plain controllability Gramians give the standard
//! L2 enforcement of eq. (10)–(11), while the sensitivity-weighted Gramians of
//! eq. (19)–(21) (built by `pim-core`) give the paper's method.

use crate::check::{assess_with_crossings, assess_with_sampling, PassivityReport};
use crate::constraints::{apply_perturbation, build_constraints};
use crate::grid::{Adaptive, SamplingStrategy};
use crate::qp::{solve_block_qp_factored, BlockQpFactors, QpOptions};
use crate::{NotConvergedDiagnostics, PassivityError, Result};
use pim_linalg::svd::svd;
use pim_linalg::{Complex64, Mat};
use pim_statespace::gramian::element_gramian;
use pim_statespace::{PoleResidueModel, StateSpace};
use std::sync::Arc;

/// The per-element quadratic forms defining the perturbation norm
/// `‖δS‖² = Σ_e δc_e G_e δc_eᵀ`.
#[derive(Debug, Clone)]
pub struct PerturbationNorm {
    /// One Gramian per matrix element, in row-major element order
    /// (`(i, j) → i·P + j`), each `N × N`.
    gramians: Vec<Mat>,
    ports: usize,
    states: usize,
}

impl PerturbationNorm {
    /// Builds a norm from explicit per-element Gramians (row-major element
    /// order, each `N × N` where `N` is the model order).
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] when the number or the size
    /// of the blocks is inconsistent.
    pub fn from_gramians(gramians: Vec<Mat>, ports: usize, states: usize) -> Result<Self> {
        if gramians.len() != ports * ports {
            return Err(PassivityError::InvalidInput(format!(
                "expected {} Gramian blocks, got {}",
                ports * ports,
                gramians.len()
            )));
        }
        if gramians.iter().any(|g| g.shape() != (states, states)) {
            return Err(PassivityError::InvalidInput(format!(
                "every Gramian block must be {states}x{states}"
            )));
        }
        Ok(PerturbationNorm { gramians, ports, states })
    }

    /// The standard (unweighted) L2 norm of eq. (10): every element is
    /// weighted by the plain controllability Gramian of the shared
    /// per-element realization.
    ///
    /// # Errors
    ///
    /// Propagates realization and Lyapunov failures.
    pub fn standard(model: &PoleResidueModel) -> Result<Self> {
        let ports = model.ports();
        let element = StateSpace::from_pole_residue_element(model, 0, 0)?;
        let p = element_gramian(&element).map_err(PassivityError::StateSpace)?;
        let states = element.order();
        Ok(PerturbationNorm { gramians: vec![p; ports * ports], ports, states })
    }

    /// The Gramian blocks (row-major element order).
    pub fn gramians(&self) -> &[Mat] {
        &self.gramians
    }

    /// Number of ports the norm was built for.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// States per element.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Evaluates the norm `Σ_e δc_e G_e δc_eᵀ` of a stacked perturbation
    /// vector (diagnostic helper).
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] on a length mismatch.
    pub fn evaluate(&self, delta: &[f64]) -> Result<f64> {
        if delta.len() != self.ports * self.ports * self.states {
            return Err(PassivityError::InvalidInput(format!(
                "perturbation vector has {} entries, expected {}",
                delta.len(),
                self.ports * self.ports * self.states
            )));
        }
        let mut total = 0.0;
        for (e, g) in self.gramians.iter().enumerate() {
            let seg = &delta[e * self.states..(e + 1) * self.states];
            let gs = g.matvec(seg)?;
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
    /// The sampling strategy that builds the working sweep, the convergence
    /// double-check grid and the final verification grid, and refines every
    /// per-iteration assessment (see [`crate::grid`]). The default
    /// [`Adaptive`] chases violation bands narrower than the grid spacing.
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
            sampling: Arc::new(Adaptive::default()),
            qp: QpOptions::default(),
        }
    }
}

/// Snapshot of one outer enforcement iteration, delivered to an
/// [`EnforcementObserver`] right after the iteration's perturbation is
/// accepted.
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
}

/// Per-iteration observer hook of the enforcement loop.
///
/// Implementations receive one [`EnforcementIteration`] per outer iteration;
/// the hook is purely observational — it cannot alter the loop, and running
/// with or without an observer produces bit-identical models.
pub trait EnforcementObserver {
    /// Called once per outer iteration, after the perturbation is applied.
    fn on_enforcement_iteration(&mut self, event: &EnforcementIteration);
}

/// What the adaptive QP damping did during a run. All-zero on healthy runs
/// — which is exactly the bit-identity guarantee of the fixtures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RobustnessInfo {
    /// Largest relative Tikhonov λ the adaptive QP damping applied.
    pub qp_lambda_max: f64,
    /// Largest post-damping Gramian condition estimate.
    pub qp_condition_max: f64,
    /// Number of Gramian blocks whose damping was escalated above the base.
    pub qp_damped_blocks: usize,
}

/// Result of a passivity enforcement run.
#[derive(Debug, Clone)]
pub struct EnforcementOutcome {
    /// The final (passive, unless the loop gave up) macromodel.
    pub model: PoleResidueModel,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Worst singular value after each iteration (starting with the initial
    /// model).
    pub sigma_max_history: Vec<f64>,
    /// Accumulated perturbation norm `Σ ‖δS‖²` over all iterations.
    pub accumulated_norm: f64,
    /// Final passivity report.
    pub report: PassivityReport,
    /// Adaptive-damping activity of the run.
    pub robustness: RobustnessInfo,
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
/// residues / output matrix as in the paper. An `observer`, when given,
/// receives one [`EnforcementIteration`] after each outer iteration;
/// numerics are identical with and without one.
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
    mut observer: Option<&mut dyn EnforcementObserver>,
) -> Result<EnforcementOutcome> {
    if norm.ports() != model.ports() || norm.states() != model.order() {
        return Err(PassivityError::InvalidInput(format!(
            "norm was built for a {}-port order-{} model, got {}-port order-{}",
            norm.ports(),
            norm.states(),
            model.ports(),
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

    // All three grids of the loop come from the one sampling strategy: the
    // per-iteration working sweep, and the denser double-check grid that
    // also serves as the final verification sweep (narrow violation bands
    // can slip between the points of the working sweep).
    let strategy = config.sampling.as_ref();
    let pool = pim_runtime::global();
    let sweep = strategy.working_grid(band_max_omega, config.sweep_points);
    let verify_sweep = strategy.verification_grid(band_max_omega, config.sweep_points);

    let mut current = enforce_asymptotic_passivity(model, 1.0 - config.sigma_margin)?;
    let mut history = Vec::new();
    let mut accumulated_norm = 0.0;
    let mut iterations = 0;
    // Best-so-far (lowest worst singular value) model, handed back inside
    // `NotConverged` so a failed run still yields its most passive iterate.
    let mut best: Option<(f64, PoleResidueModel)> = None;
    // Consecutive bottomed-out-and-grew backtracking steps (the stall
    // trigger).
    let mut bottomed_growth = 0usize;
    let mut robustness = RobustnessInfo::default();
    let mut last_step = 1.0_f64;

    // Quantities that are invariant across the outer iterations: the
    // perturbation only moves residues, never poles, so the shared
    // per-element realization `(A_e, b_e)` used by the constraint
    // linearization is fixed, and so are the Gramian weights — factor them
    // once instead of re-running LU per iteration. Near-singular blocks get
    // adaptive Tikhonov damping (decayed as the iterate improves);
    // well-conditioned blocks factor bit-identically to the fixed path.
    let element = StateSpace::from_pole_residue_element(&current, 0, 0)?;
    let mut qp_factors = BlockQpFactors::new_adaptive(
        norm.gramians(),
        config.qp.regularization,
        config.qp.max_condition,
    )?;
    record_qp_state(&mut robustness, &qp_factors);

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
                history.push(verification.sigma_max);
                return Ok(EnforcementOutcome {
                    model: current,
                    iterations,
                    sigma_max_history: history,
                    accumulated_norm,
                    report: verification,
                    robustness,
                });
            }
            report = verification;
        }
        history.push(report.sigma_max);
        if best.as_ref().is_none_or(|(s, _)| report.sigma_max < *s) {
            best = Some((report.sigma_max, current.clone()));
        }
        if iterations >= config.max_iterations || bottomed_growth >= STALL_AFTER {
            let Some((_, best)) = best else { unreachable!("recorded just above") };
            return Err(PassivityError::NotConverged {
                iterations,
                sigma_max: report.sigma_max,
                best: Box::new(best),
                diagnostics: Box::new(NotConvergedDiagnostics {
                    bottomed_out: bottomed_growth,
                    last_step,
                    sigma_tail: history[history.len().saturating_sub(8)..].to_vec(),
                    qp_lambda_max: robustness.qp_lambda_max,
                    qp_condition_max: robustness.qp_condition_max,
                    best_sigma_max: None,
                }),
            });
        }
        iterations += 1;

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
        if cons.rows() == 0 {
            return Err(PassivityError::InvalidInput(
                "violations were detected but no constraint could be formed; \
                 lower sigma_threshold"
                    .into(),
            ));
        }
        let delta = solve_block_qp_factored(&qp_factors, &cons.f, &cons.g, &config.qp)?.x;

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
                let norm_increment = norm.evaluate(&scaled)?;
                accumulated_norm += norm_increment;
                if let Some(obs) = observer.as_deref_mut() {
                    obs.on_enforcement_iteration(&EnforcementIteration {
                        iteration: iterations,
                        sigma_before: report.sigma_max,
                        sigma_after: candidate_sigma,
                        step,
                        norm_increment,
                        constraints: cons.rows(),
                        grid_points: candidate_report.grid.len(),
                    });
                }
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
                last_step = step;

                // Adaptive damping decays once the iterate improves again,
                // so the converged perturbation is not biased by λ.
                if !grew && qp_factors.damped_blocks() > 0 {
                    qp_factors.decay()?;
                }
                record_qp_state(&mut robustness, &qp_factors);

                current = candidate;
                report = candidate_report;
                break;
            }
            step *= 0.5;
        }
    }
}

/// Folds the current QP damping state into the run's [`RobustnessInfo`]
/// (maxima over the run; λ counts only when escalated above the base).
fn record_qp_state(robustness: &mut RobustnessInfo, factors: &BlockQpFactors) {
    robustness.qp_condition_max = robustness.qp_condition_max.max(factors.max_condition_estimate());
    robustness.qp_damped_blocks = robustness.qp_damped_blocks.max(factors.damped_blocks());
    if factors.damped_blocks() > 0 {
        robustness.qp_lambda_max =
            robustness.qp_lambda_max.max(factors.max_applied_regularization());
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
        let out = enforce_passivity(&model, &norm, 5000.0, &cfg, None).unwrap();
        assert!(out.report.passive);
        assert!(out.iterations >= 1 && out.iterations <= cfg.max_iterations);
        assert!(out.report.sigma_max <= 1.0 + 1e-9);
        // The perturbed model keeps the original poles.
        for (a, b) in model.poles().iter().zip(out.model.poles()) {
            assert_eq!(a, b);
        }
        // sigma_max history is non-increasing in its last step and starts >1.
        assert!(out.sigma_max_history[0] > 1.0);
        assert!(*out.sigma_max_history.last().unwrap() <= 1.0 + 1e-9);
        assert!(out.accumulated_norm > 0.0);
    }

    #[test]
    fn enforcement_changes_the_response_only_mildly() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let out = enforce_passivity(&model, &norm, 5000.0, &cfg, None).unwrap();
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
        let out = enforce_passivity(&model, &norm, 6000.0, &cfg, None).unwrap();
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
        let out =
            enforce_passivity(&model, &norm, 1000.0, &EnforcementConfig::default(), None).unwrap();
        assert_eq!(out.iterations, 0);
        assert!(out.report.passive);
        assert_eq!((out.accumulated_norm).to_bits(), 0.0f64.to_bits());
        for (a, b) in model.residues().iter().zip(out.model.residues()) {
            assert!(a.max_abs_diff(b) < 1e-15);
        }
    }

    #[test]
    fn iteration_budget_is_respected() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { max_iterations: 0, sweep_points: 100, ..Default::default() };
        match enforce_passivity(&model, &norm, 5000.0, &cfg, None) {
            Err(PassivityError::NotConverged { iterations, sigma_max, best, diagnostics }) => {
                assert_eq!(iterations, 0);
                assert!(sigma_max > 1.0);
                // Even a zero-budget failure hands back its best iterate
                // (here the asymptotically clipped input model).
                assert_eq!(best.poles().len(), model.poles().len());
                // The trajectory tail carries the final sigma.
                assert_eq!(diagnostics.bottomed_out, 0);
                assert_eq!(*diagnostics.sigma_tail.last().unwrap(), sigma_max);
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn observed_enforcement_is_bit_identical_and_reports_every_iteration() {
        struct Collect(Vec<EnforcementIteration>);
        impl EnforcementObserver for Collect {
            fn on_enforcement_iteration(&mut self, event: &EnforcementIteration) {
                self.0.push(*event);
            }
        }
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        let cfg = EnforcementConfig { sweep_points: 200, ..Default::default() };
        let plain = enforce_passivity(&model, &norm, 5000.0, &cfg, None).unwrap();
        let mut obs = Collect(Vec::new());
        let observed = enforce_passivity(&model, &norm, 5000.0, &cfg, Some(&mut obs)).unwrap();
        // Bit-identical outcome.
        assert_eq!(plain.iterations, observed.iterations);
        assert_eq!(plain.accumulated_norm.to_bits(), observed.accumulated_norm.to_bits());
        for (a, b) in plain.sigma_max_history.iter().zip(&observed.sigma_max_history) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in plain.model.residues().iter().zip(observed.model.residues()) {
            assert_eq!((a.max_abs_diff(b)).to_bits(), 0.0f64.to_bits());
        }
        // One event per outer iteration, consistent with the outcome.
        assert_eq!(obs.0.len(), observed.iterations);
        let total: f64 = obs.0.iter().map(|e| e.norm_increment).sum();
        assert!((total - observed.accumulated_norm).abs() <= 1e-12 * observed.accumulated_norm);
        for (k, ev) in obs.0.iter().enumerate() {
            assert_eq!(ev.iteration, k + 1);
            assert_eq!(ev.sigma_before.to_bits(), observed.sigma_max_history[k].to_bits());
            assert!(ev.step > 0.0 && ev.step <= 1.0);
            assert!(ev.constraints >= 1);
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
            ) -> Result<(FrequencyGrid, Option<Vec<f64>>)> {
                self.refines.fetch_add(1, Ordering::Relaxed);
                self.inner.refine(pool, model, base, crossings)
            }
        }
        struct Steps(Vec<EnforcementIteration>);
        impl EnforcementObserver for Steps {
            fn on_enforcement_iteration(&mut self, ev: &EnforcementIteration) {
                self.0.push(*ev);
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
        let mut steps = Steps(Vec::new());
        let out = enforce_passivity(&model, &norm, 5000.0, &cfg, Some(&mut steps)).unwrap();
        assert!(out.iterations >= 1, "the invariant needs at least one iteration");
        assert_eq!(steps.0.len(), out.iterations);
        // Backtracking tries the steps 1, 1/2, 1/4, ... down to the one it
        // accepts: 1 + log2(1/step) candidates per iteration.
        let candidates: usize =
            steps.0.iter().map(|ev| 1 + (1.0 / ev.step).log2().round() as usize).sum();
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
        let norm = PerturbationNorm::from_gramians(vec![g], 1, 2).unwrap();
        let cfg = EnforcementConfig {
            sweep_points: 100,
            max_iterations: 3,
            qp: QpOptions { max_condition: f64::INFINITY, ..Default::default() },
            ..Default::default()
        };
        struct Steps(Vec<EnforcementIteration>);
        impl EnforcementObserver for Steps {
            fn on_enforcement_iteration(&mut self, ev: &EnforcementIteration) {
                self.0.push(*ev);
            }
        }
        let mut steps = Steps(Vec::new());
        match enforce_passivity(&model, &norm, 5000.0, &cfg, Some(&mut steps)) {
            Err(PassivityError::NotConverged { iterations, sigma_max, best, diagnostics }) => {
                assert_eq!(iterations, cfg.max_iterations);
                assert_eq!(steps.0.len(), cfg.max_iterations);
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
                let start_sigma = steps.0[0].sigma_before;
                assert!(
                    best_sigma <= sigma_max && best_sigma <= start_sigma,
                    "best-so-far ({best_sigma}) must be no worse than the start \
                     ({start_sigma}) or the end state ({sigma_max})"
                );
                // The post-mortem carries the trajectory tail and renders it.
                assert!(!diagnostics.sigma_tail.is_empty());
                assert_eq!(*diagnostics.sigma_tail.last().unwrap(), sigma_max);
                let rendered = diagnostics.to_string();
                assert!(rendered.contains("sigma tail"), "{rendered}");
            }
            Ok(out) => panic!(
                "the skewed norm should exhaust the budget, but converged in {} iterations",
                out.iterations
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
        let norm = PerturbationNorm::from_gramians(vec![g], 1, 2).unwrap();
        let cfg = EnforcementConfig {
            sweep_points: 100,
            max_iterations: 60,
            qp: QpOptions { max_condition: 1e6, ..Default::default() },
            ..Default::default()
        };
        let out = enforce_passivity(&model, &norm, 5000.0, &cfg, None)
            .expect("the damped loop must converge");
        assert!(out.report.passive);
        assert!(out.report.sigma_max <= 1.0 + 1e-9);
        // The damping actually engaged.
        assert_eq!(out.robustness.qp_damped_blocks, 1);
        assert!(out.robustness.qp_lambda_max > cfg.qp.regularization);
        assert!(out.robustness.qp_condition_max <= 1e6 * (1.0 + 1e-9));
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
        let a = enforce_passivity(&model, &norm, 5000.0, &robust, None).unwrap();
        let b = enforce_passivity(&model, &norm, 5000.0, &legacy, None).unwrap();
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.accumulated_norm.to_bits(), b.accumulated_norm.to_bits());
        for (x, y) in a.sigma_max_history.iter().zip(&b.sigma_max_history) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for (x, y) in a.model.residues().iter().zip(b.model.residues()) {
            assert_eq!((x.max_abs_diff(y)).to_bits(), 0.0f64.to_bits());
        }
        assert_eq!(a.robustness.qp_damped_blocks, 0);
    }

    #[test]
    fn norm_validation_and_evaluation() {
        let model = violating_one_port();
        let norm = PerturbationNorm::standard(&model).unwrap();
        assert_eq!(norm.ports(), 1);
        assert_eq!(norm.states(), 2);
        assert_eq!(norm.gramians().len(), 1);
        let v = norm.evaluate(&[1.0, 0.0]).unwrap();
        assert!(v > 0.0);
        assert!(norm.evaluate(&[1.0]).is_err());
        assert!(PerturbationNorm::from_gramians(vec![Mat::identity(2)], 2, 2).is_err());
        assert!(PerturbationNorm::from_gramians(vec![Mat::identity(3)], 1, 2).is_err());
        // Mismatched norm vs model is rejected by the loop.
        let other = violating_two_port();
        assert!(
            enforce_passivity(&other, &norm, 100.0, &EnforcementConfig::default(), None).is_err()
        );
        for band_edge in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(enforce_passivity(
                &model,
                &norm,
                band_edge,
                &EnforcementConfig::default(),
                None
            )
            .is_err());
        }
        let bad_cfg = EnforcementConfig { sweep_points: 3, ..Default::default() };
        assert!(enforce_passivity(&model, &norm, 100.0, &bad_cfg, None).is_err());
    }

    #[test]
    fn weighted_norm_changes_where_the_perturbation_lands() {
        // Weight element (0,0) enormously: the enforcement should prefer to
        // perturb it less than with the standard norm. We verify through the
        // low-frequency response deviation of the two passive models.
        let model = violating_two_port();
        let standard = PerturbationNorm::standard(&model).unwrap();
        let heavy = {
            let mut blocks = standard.gramians().to_vec();
            blocks[0] = blocks[0].scaled(100.0);
            PerturbationNorm::from_gramians(blocks, 2, 3).unwrap()
        };
        let cfg = EnforcementConfig { sweep_points: 150, max_iterations: 60, ..Default::default() };
        let out_std = enforce_passivity(&model, &standard, 6000.0, &cfg, None).unwrap();
        let out_w = enforce_passivity(&model, &heavy, 6000.0, &cfg, None).unwrap();
        assert!(out_std.report.passive && out_w.report.passive);
        let dev = |m: &PoleResidueModel| -> f64 {
            let mut acc: f64 = 0.0;
            for k in 1..40 {
                let w = k as f64 * 20.0;
                let a = m.evaluate_at_omega(w).unwrap()[(0, 0)];
                let b = model.evaluate_at_omega(w).unwrap()[(0, 0)];
                acc = acc.max((a - b).abs());
            }
            acc
        };
        assert!(
            dev(&out_w.model) <= dev(&out_std.model) + 1e-12,
            "heavily weighting element (0,0) must not increase its deviation"
        );
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
