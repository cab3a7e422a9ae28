//! The convex quadratic program of the perturbation step (eq. 9 of the
//! paper): minimize a block-diagonal Gramian-weighted norm of the output
//! matrix perturbation under the linearized passivity constraints.
//!
//! The problem is
//!
//! ```text
//! minimize    Σ_e  δc_e · G_e · δc_eᵀ
//! subject to  F · x ≤ g
//! ```
//!
//! with `x` stacking the per-element rows `δc_e` and each `G_e` symmetric
//! positive definite (a controllability Gramian, plain or sensitivity
//! weighted). The dual of this strictly convex QP is a bound-constrained
//! quadratic maximization solved here by Hildreth's coordinate ascent, which
//! is simple, allocation-light and well suited to the modest constraint
//! counts produced by the enforcement loop.

use crate::{PassivityError, Result};
use pim_linalg::lu::Lu;
use pim_linalg::Mat;

/// Options of the dual coordinate-ascent solver.
#[derive(Debug, Clone)]
pub struct QpOptions {
    /// Maximum number of dual sweeps.
    pub max_iterations: usize,
    /// Convergence threshold on the relative change of the dual variables.
    pub tolerance: f64,
    /// Relative Tikhonov regularization added to each Gramian block to keep
    /// the Hessian safely positive definite.
    pub regularization: f64,
    /// Condition cap for adaptive Tikhonov damping: Gramian blocks whose LU
    /// condition estimate exceeds this get their regularization escalated
    /// (×100 per step) until they comply, so a near-singular block damps the
    /// perturbation instead of blowing up the step. `f64::INFINITY` disables
    /// the adaptive path; well-conditioned blocks are factored bit-identically
    /// to the fixed-Tikhonov path either way.
    pub max_condition: f64,
}

impl Default for QpOptions {
    fn default() -> Self {
        QpOptions {
            max_iterations: 2000,
            tolerance: 1e-10,
            regularization: 1e-10,
            max_condition: 1e13,
        }
    }
}

/// Solution of the perturbation quadratic program.
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// The optimal perturbation vector (stacked per-element rows).
    pub x: Vec<f64>,
    /// Lagrange multipliers of the constraints.
    pub multipliers: Vec<f64>,
    /// Number of dual sweeps performed.
    pub iterations: usize,
    /// Objective value `xᵀHx` at the solution.
    pub objective: f64,
}

/// Pre-factored Gramian blocks of the QP Hessian.
///
/// The Gramian weights are fixed across the outer iterations of the
/// enforcement loop (the norm depends only on the poles and the sensitivity
/// weight, neither of which the perturbation changes), so the per-block LU
/// factorizations can be computed once and reused by every
/// [`solve_block_qp_factored`] call instead of being rebuilt from scratch
/// each iteration.
#[derive(Debug, Clone)]
pub struct BlockQpFactors {
    blocks: Vec<Mat>,
    factors: Vec<Lu<f64>>,
    n_block: usize,
    base_regularization: f64,
    max_condition: f64,
    /// Relative Tikhonov λ actually baked into each block's factorization
    /// (`== base_regularization` for well-conditioned blocks).
    applied: Vec<f64>,
    /// LU condition estimate of each block after damping.
    conditions: Vec<f64>,
}

/// Factors one block with a relative Tikhonov term `lambda`.
fn factor_block(b: &Mat, n_block: usize, lambda: f64) -> crate::Result<Lu<f64>> {
    let scale = b.trace().abs().max(1e-300) / n_block as f64;
    let reg = &Mat::identity(n_block).scaled(lambda * scale);
    Ok(Lu::new(&(b + reg))?)
}

/// Escalates `lambda` (×100 per step) until the block factors with a
/// condition estimate at or below `max_condition`, returning the factor, the
/// λ used and the final estimate.
fn factor_block_capped(
    b: &Mat,
    n_block: usize,
    mut lambda: f64,
    max_condition: f64,
) -> crate::Result<(Lu<f64>, f64, f64)> {
    let mut attempt = factor_block(b, n_block, lambda);
    for _ in 0..24 {
        let cond = match &attempt {
            Ok(lu) => lu.condition_estimate(),
            Err(_) => f64::INFINITY,
        };
        if cond <= max_condition {
            break;
        }
        lambda = lambda.max(1e-16) * 100.0;
        attempt = factor_block(b, n_block, lambda);
    }
    let lu = attempt?;
    let cond = lu.condition_estimate();
    Ok((lu, lambda, cond))
}

impl BlockQpFactors {
    /// Factors the Gramian blocks with the relative Tikhonov term
    /// `regularization` and adaptive damping: any block whose LU condition
    /// estimate exceeds `max_condition` gets its λ escalated until it
    /// complies. Well-conditioned blocks are factored bit-identically to the
    /// fixed-Tikhonov factorization (`max_condition = f64::INFINITY`).
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] on inconsistent block shapes
    /// and propagates factorization failures.
    pub fn new_adaptive(blocks: &[Mat], regularization: f64, max_condition: f64) -> Result<Self> {
        if blocks.is_empty() {
            return Err(PassivityError::InvalidInput(
                "at least one Gramian block is required".into(),
            ));
        }
        let n_block = blocks[0].rows();
        if blocks.iter().any(|b| !b.is_square() || b.rows() != n_block) {
            return Err(PassivityError::InvalidInput(
                "all Gramian blocks must be square and of identical size".into(),
            ));
        }
        // The Hessian of the primal is H = 2·blkdiag(G_e), so H⁻¹
        // applications reduce to per-block solves.
        let mut factors = Vec::with_capacity(blocks.len());
        let mut applied = Vec::with_capacity(blocks.len());
        let mut conditions = Vec::with_capacity(blocks.len());
        for b in blocks {
            let (lu, lambda, cond) =
                factor_block_capped(b, n_block, regularization, max_condition)?;
            factors.push(lu);
            applied.push(lambda);
            conditions.push(cond);
        }
        Ok(BlockQpFactors {
            blocks: blocks.to_vec(),
            factors,
            n_block,
            base_regularization: regularization,
            max_condition,
            applied,
            conditions,
        })
    }

    /// Total number of unknowns (`blocks · block size`).
    pub fn unknowns(&self) -> usize {
        self.blocks.len() * self.n_block
    }

    /// Largest relative Tikhonov λ baked into any block.
    pub fn max_applied_regularization(&self) -> f64 {
        self.applied.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Largest post-damping condition estimate across the blocks.
    pub fn max_condition_estimate(&self) -> f64 {
        self.conditions.iter().fold(0.0, |a, &b| a.max(b))
    }

    /// Number of blocks whose damping was escalated above the base λ.
    pub fn damped_blocks(&self) -> usize {
        self.applied.iter().filter(|&&l| l > self.base_regularization).count()
    }

    /// Divides the extra damping (above the base λ) of every escalated
    /// block by 10, re-escalating where the condition cap would break, and
    /// refactors the changed blocks. The enforcement loop calls it on every
    /// accepted improving step, so the bias vanishes as the loop converges.
    /// Returns `true` if any block changed. No-op (and bit-identity-safe)
    /// when nothing was ever escalated.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures.
    pub fn decay(&mut self) -> Result<bool> {
        const FACTOR: f64 = 10.0;
        let mut changed = false;
        for e in 0..self.blocks.len() {
            if self.applied[e] <= self.base_regularization {
                continue;
            }
            let target = (self.applied[e] / FACTOR).max(self.base_regularization);
            let (lu, lambda, cond) =
                factor_block_capped(&self.blocks[e], self.n_block, target, self.max_condition)?;
            // Never escalate past the current λ from inside a decay — that
            // would oscillate between a too-light and a too-heavy damping.
            if lambda < self.applied[e] {
                self.factors[e] = lu;
                self.applied[e] = lambda;
                self.conditions[e] = cond;
                changed = true;
            }
        }
        Ok(changed)
    }
}

/// Solves the block-diagonal Gramian-weighted QP with pre-factored blocks.
///
/// `f` and `g` define the inequality constraints `F·x ≤ g`.
/// `options.regularization` is **not** consulted here: the Tikhonov term is
/// baked into `factors` at [`BlockQpFactors::new_adaptive`] time (that is
/// the whole point of pre-factoring); only the iteration/tolerance options
/// apply.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] on dimension mismatches and
/// [`PassivityError::Linalg`] when a block solve fails.
pub fn solve_block_qp_factored(
    factors: &BlockQpFactors,
    f: &Mat,
    g: &[f64],
    options: &QpOptions,
) -> Result<QpSolution> {
    let n_block = factors.n_block;
    let n = factors.unknowns();
    if f.cols() != n {
        return Err(PassivityError::InvalidInput(format!(
            "constraint matrix has {} columns, expected {}",
            f.cols(),
            n
        )));
    }
    if f.rows() != g.len() {
        return Err(PassivityError::InvalidInput(format!(
            "constraint matrix has {} rows but g has {} entries",
            f.rows(),
            g.len()
        )));
    }
    let m = g.len();
    if m == 0 {
        return Ok(QpSolution {
            x: vec![0.0; n],
            multipliers: vec![],
            iterations: 0,
            objective: 0.0,
        });
    }

    // hinv_ft[:, r] = H^{-1} F^T e_r  (column per constraint), with H = 2G.
    let mut hinv_ft = Mat::zeros(n, m);
    let mut seg = vec![0.0; n_block];
    for r in 0..m {
        for (e, factor) in factors.factors.iter().enumerate() {
            for (k, s) in seg.iter_mut().enumerate() {
                *s = f[(r, e * n_block + k)];
            }
            let sol = factor.solve_vec(&seg)?;
            for k in 0..n_block {
                hinv_ft[(e * n_block + k, r)] = 0.5 * sol[k];
            }
        }
    }
    // Dual Hessian P = F H^{-1} F^T.
    let p = f.matmul(&hinv_ft)?;

    // Hildreth coordinate ascent on  max_{λ≥0} −½λᵀPλ − λᵀ(−g)  (with zero
    // primal linear term the dual linear coefficient is −g).
    let mut lambda = vec![0.0_f64; m];
    let mut iterations = 0;
    for sweep in 0..options.max_iterations {
        iterations = sweep + 1;
        let mut max_change = 0.0_f64;
        for i in 0..m {
            let pii = p[(i, i)];
            if pii <= 0.0 {
                continue;
            }
            // Stationarity of the dual in coordinate i: λ_i = −(g_i + Σ_{j≠i} P_ij λ_j)/P_ii.
            let mut acc = g[i];
            for j in 0..m {
                if j != i {
                    acc += p[(i, j)] * lambda[j];
                }
            }
            let new_l = (-acc / pii).max(0.0);
            max_change = max_change.max((new_l - lambda[i]).abs() * pii.sqrt());
            lambda[i] = new_l;
        }
        if max_change <= options.tolerance {
            break;
        }
    }

    // Primal recovery: x = −H⁻¹ Fᵀ λ.
    let mut x = vec![0.0_f64; n];
    for r in 0..m {
        // audit:allow(float-eq): multipliers are set to literal 0.0 when a constraint deactivates
        if lambda[r] == 0.0 {
            continue;
        }
        for k in 0..n {
            x[k] -= hinv_ft[(k, r)] * lambda[r];
        }
    }
    // Objective xᵀ (blkdiag G) x.
    let mut objective = 0.0;
    for (e, b) in factors.blocks.iter().enumerate() {
        let seg = &x[e * n_block..(e + 1) * n_block];
        let bs = b.matvec(seg)?;
        objective += seg.iter().zip(&bs).map(|(a, c)| a * c).sum::<f64>();
    }
    Ok(QpSolution { x, multipliers: lambda, iterations, objective })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The QP with fixed Tikhonov factors (no adaptive damping).
    fn solve_fixed(blocks: &[Mat], f: &Mat, g: &[f64]) -> Result<QpSolution> {
        let options = QpOptions::default();
        let factors = BlockQpFactors::new_adaptive(blocks, options.regularization, f64::INFINITY)?;
        solve_block_qp_factored(&factors, f, g, &options)
    }

    #[test]
    fn unconstrained_problem_returns_zero() {
        let blocks = vec![Mat::identity(2)];
        let f = Mat::zeros(0, 2);
        let sol = solve_fixed(&blocks, &f, &[]).unwrap();
        assert_eq!(sol.x, vec![0.0, 0.0]);
        assert_eq!((sol.objective).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn single_constraint_identity_hessian_matches_analytic_solution() {
        // min ||x||^2  s.t.  a·x <= -1  with a = [1, 1]: solution is the
        // projection x = -a/||a||^2 = [-0.5, -0.5].
        let blocks = vec![Mat::identity(1), Mat::identity(1)];
        let f = Mat::from_rows(&[&[1.0, 1.0]]);
        let sol = solve_fixed(&blocks, &f, &[-1.0]).unwrap();
        assert!((sol.x[0] + 0.5).abs() < 1e-8);
        assert!((sol.x[1] + 0.5).abs() < 1e-8);
        assert!((sol.objective - 0.5).abs() < 1e-7);
    }

    #[test]
    fn weighted_hessian_biases_solution_toward_cheap_directions() {
        // min x^T diag(10, 0.1) x  s.t.  x1 + x2 <= -1: most of the movement
        // must happen along the cheap coordinate x2.
        let blocks = vec![Mat::from_diag(&[10.0]), Mat::from_diag(&[0.1])];
        let f = Mat::from_rows(&[&[1.0, 1.0]]);
        let sol = solve_fixed(&blocks, &f, &[-1.0]).unwrap();
        assert!((sol.x[0] + sol.x[1] + 1.0).abs() < 1e-6, "constraint must be active");
        assert!(sol.x[1].abs() > 50.0 * sol.x[0].abs());
    }

    #[test]
    fn inactive_constraints_do_not_move_the_solution() {
        let blocks = vec![Mat::identity(2)];
        let f = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        // Both constraints are satisfied at x = 0 (g >= 0): optimum stays 0.
        let sol = solve_fixed(&blocks, &f, &[1.0, 2.0]).unwrap();
        assert!(sol.x.iter().all(|v| v.abs() < 1e-12));
        assert!(sol.multipliers.iter().all(|&l| l.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn multiple_active_constraints_are_satisfied() {
        let blocks = vec![Mat::identity(3)];
        let f = Mat::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0]]);
        let g = vec![-1.0, -0.5, -2.0];
        let sol = solve_fixed(&blocks, &f, &g).unwrap();
        let fx = f.matvec(&sol.x).unwrap();
        for (lhs, rhs) in fx.iter().zip(&g) {
            assert!(*lhs <= rhs + 1e-6, "constraint violated: {lhs} > {rhs}");
        }
    }

    #[test]
    fn adaptive_damping_caps_near_singular_blocks_and_decays() {
        // One healthy block, one near-singular block (condition ~1e12).
        let blocks = vec![Mat::identity(2), Mat::from_diag(&[1.0, 1e-12])];
        let mut factors = BlockQpFactors::new_adaptive(&blocks, 1e-10, 1e6).unwrap();
        assert_eq!(factors.damped_blocks(), 1);
        assert!(factors.max_condition_estimate() <= 1e6);
        assert!(factors.max_applied_regularization() > 1e-10);
        // Decay relaxes the damping only while the cap still holds.
        let lambda_before = factors.max_applied_regularization();
        factors.decay().unwrap();
        assert!(factors.max_applied_regularization() <= lambda_before);
        assert!(factors.max_condition_estimate() <= 1e6);
        // Decay never touches blocks that were never escalated.
        let mut plain = BlockQpFactors::new_adaptive(&blocks[..1], 1e-10, f64::INFINITY).unwrap();
        assert!(!plain.decay().unwrap());
    }

    #[test]
    fn adaptive_path_is_bit_identical_for_well_conditioned_blocks() {
        let blocks = vec![Mat::from_diag(&[2.0, 3.0]), Mat::identity(2)];
        let f = Mat::from_rows(&[&[1.0, 1.0, 0.5, -0.25]]);
        let g = [-1.0];
        let plain = BlockQpFactors::new_adaptive(&blocks, 1e-10, f64::INFINITY).unwrap();
        let adaptive = BlockQpFactors::new_adaptive(&blocks, 1e-10, 1e13).unwrap();
        assert_eq!(adaptive.damped_blocks(), 0);
        let opts = QpOptions::default();
        let a = solve_block_qp_factored(&plain, &f, &g, &opts).unwrap();
        let b = solve_block_qp_factored(&adaptive, &f, &g, &opts).unwrap();
        for (x, y) in a.x.iter().zip(&b.x) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn input_validation() {
        let blocks = vec![Mat::identity(2)];
        assert!(solve_fixed(&[], &Mat::zeros(1, 2), &[0.0]).is_err());
        assert!(solve_fixed(&blocks, &Mat::zeros(1, 3), &[0.0]).is_err());
        assert!(solve_fixed(&blocks, &Mat::zeros(2, 2), &[0.0]).is_err());
        let bad = vec![Mat::identity(2), Mat::identity(3)];
        assert!(solve_fixed(&bad, &Mat::zeros(1, 5), &[0.0]).is_err());
    }
}
