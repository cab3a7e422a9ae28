//! The convex quadratic program of the perturbation step (eq. 9 of the
//! paper): the smallest Gramian-weighted perturbation of the output matrix
//! that satisfies the linearized passivity constraints.
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
//! weighted: eq. 10–11 and 19–21).
//!
//! [`BlockQpFactors`] Cholesky-factors every damped block,
//! `G_e + λ_e·s_e·I = L_e·L_eᵀ`. In the whitened unknowns `y_e = L_eᵀ·x_e`
//! the objective is `‖y‖²` and the constraints read `F̃·y ≤ g` with
//! `F̃ = F·blkdiag(L_e⁻ᵀ)`: a least-distance problem.
//! [`solve_block_qp_factored`] scales the rows of `F̃` to unit length and
//! solves it exactly with the dual active-set method of Goldfarb and Idnani
//! ("A numerically stable dual method for solving strictly convex quadratic
//! programs", *Math. Programming* 27, 1983). From `y = 0`, the most violated
//! constraint enters the active set. When the step toward it would turn an
//! active multiplier negative, the step stops there and that constraint
//! leaves the set instead. The active normals are kept as orthonormal
//! columns `Q` with an upper-triangular `R` (`N = Q·R`): Gram–Schmidt
//! applied twice adds a column, Givens rotations remove one. A step costs
//! O(n·k) for `n` unknowns and `k` active constraints, plus an O(m·n) scan
//! for the next violated row; no m×m dual Hessian, no n×n matrix and no
//! normal-equations product is formed. The solution maps back as
//! `x_e = L_e⁻ᵀ·y_e`.
//!
//! The solve is exact up to rounding. [`QpSolution::iterations`] counts the
//! active-set steps, one per constraint added or dropped. The
//! [`QpSolution::multipliers`] satisfy the KKT conditions `2·G·x + Fᵀ·λ = 0`,
//! `λ ≥ 0` and `λ_i·(F·x − g)_i = 0`, with `G` the damped blocks.
//! Inconsistent constraints return [`PassivityError::InfeasibleQp`] and a
//! solve that reaches the step cap returns [`PassivityError::QpStepCap`];
//! neither returns a partial step.

use crate::{PassivityError, Result};
use pim_linalg::lu::Lu;
use pim_linalg::Mat;

/// Options of the perturbation QP: the Tikhonov damping of its Gramian
/// blocks, applied when [`BlockQpFactors`] factors them.
#[derive(Debug, Clone)]
pub struct QpOptions {
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
        QpOptions { regularization: 1e-10, max_condition: 1e13 }
    }
}

/// Solution of the perturbation quadratic program.
#[derive(Debug, Clone)]
pub struct QpSolution {
    /// The optimal perturbation vector (stacked per-element rows).
    pub x: Vec<f64>,
    /// Lagrange multipliers `λ ≥ 0` of the constraints, with
    /// `2·G·x + Fᵀ·λ = 0` for the damped blocks `G`; exactly zero for the
    /// constraints that are not active at the solution.
    pub multipliers: Vec<f64>,
    /// Number of active-set steps (constraints added plus dropped).
    pub iterations: usize,
    /// Objective value `Σ_e x_eᵀ·G_e·x_e` at the solution, with the
    /// undamped blocks.
    pub objective: f64,
}

/// Pre-factored Gramian blocks of the QP Hessian.
///
/// The Gramian weights are fixed across the outer iterations of the
/// enforcement loop (the norm depends only on the poles and the sensitivity
/// weight, neither of which the perturbation changes), so the per-block
/// Cholesky factors can be computed once and reused by every
/// [`solve_block_qp_factored`] call instead of being rebuilt from scratch
/// each iteration.
#[derive(Debug, Clone)]
pub struct BlockQpFactors {
    blocks: Vec<Mat>,
    /// Lower Cholesky factor `L_e` of each damped block.
    factors: Vec<Mat>,
    n_block: usize,
    base_regularization: f64,
    max_condition: f64,
    /// Relative Tikhonov λ actually baked into each block's factorization
    /// (`== base_regularization` for well-conditioned blocks).
    applied: Vec<f64>,
    /// LU condition estimate of each block after damping.
    conditions: Vec<f64>,
}

/// The block with a relative Tikhonov term `lambda` on its diagonal.
fn damped(b: &Mat, n_block: usize, lambda: f64) -> Mat {
    let scale = b.trace().abs().max(1e-300) / n_block as f64;
    b + &Mat::identity(n_block).scaled(lambda * scale)
}

/// Escalates `lambda` (×100 per step) until the damped block's LU condition
/// estimate is at or below `max_condition`, returning the Cholesky factor of
/// that damped block, the λ used and the final estimate.
fn factor_block_capped(
    b: &Mat,
    n_block: usize,
    mut lambda: f64,
    max_condition: f64,
) -> Result<(Mat, f64, f64)> {
    let mut matrix = damped(b, n_block, lambda);
    let mut attempt = Lu::new(&matrix);
    for _ in 0..24 {
        let cond = match &attempt {
            Ok(lu) => lu.condition_estimate(),
            Err(_) => f64::INFINITY,
        };
        if cond <= max_condition {
            break;
        }
        lambda = lambda.max(1e-16) * 100.0;
        matrix = damped(b, n_block, lambda);
        attempt = Lu::new(&matrix);
    }
    let cond = attempt?.condition_estimate();
    Ok((cholesky(&matrix)?, lambda, cond))
}

/// Lower Cholesky factor `L` of a symmetric positive definite matrix
/// (`A = L·Lᵀ`; only the lower triangle of `A` is read).
fn cholesky(a: &Mat) -> Result<Mat> {
    let n = a.rows();
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let s = a[(i, j)] - dot(&l.row(i)[..j], &l.row(j)[..j]);
            if i > j {
                l[(i, j)] = s / l[(j, j)];
            } else if s > 0.0 {
                l[(i, i)] = s.sqrt();
            } else {
                return Err(PassivityError::InvalidInput(
                    "a damped Gramian block is not positive definite".into(),
                ));
            }
        }
    }
    Ok(l)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
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
    /// or a damped block that is not positive definite, and propagates
    /// factorization failures.
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
        let mut factors = Vec::with_capacity(blocks.len());
        let mut applied = Vec::with_capacity(blocks.len());
        let mut conditions = Vec::with_capacity(blocks.len());
        for b in blocks {
            let (l, lambda, cond) = factor_block_capped(b, n_block, regularization, max_condition)?;
            factors.push(l);
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
            let (l, lambda, cond) =
                factor_block_capped(&self.blocks[e], self.n_block, target, self.max_condition)?;
            // Never escalate past the current λ from inside a decay — that
            // would oscillate between a too-light and a too-heavy damping.
            if lambda < self.applied[e] {
                self.factors[e] = l;
                self.applied[e] = lambda;
                self.conditions[e] = cond;
                changed = true;
            }
        }
        Ok(changed)
    }
}

/// A whitened row counts as violated when it exceeds its bound by more than
/// this fraction of `‖y‖ + |b_r|` (rows have unit length, so this is a
/// distance, well above the rounding of the dot product).
const FEASIBILITY_TOL: f64 = 1e-12;
/// A unit-length row whose component outside the active normals' span is
/// shorter than this depends on them linearly.
const DEPENDENT_TOL: f64 = 1e-12;
/// Active-set steps allowed per row and unknown before the solve gives up.
/// Exact arithmetic needs far fewer; only rounding can cycle.
const STEPS_PER_DIMENSION: usize = 10;

/// The active constraints of the least-distance problem: their unit normals
/// `N = Q·R` with orthonormal columns `Q` and upper-triangular `R`, and
/// their multipliers.
struct ActiveSet {
    n: usize,
    /// Orthonormal columns, column `j` at `q[j·n..(j+1)·n]`.
    q: Vec<f64>,
    /// Column `j` of `R` holds its `j + 1` upper-triangular entries.
    r: Vec<Vec<f64>>,
    /// Constraint row of each active column.
    rows: Vec<usize>,
    /// Multiplier of each active column.
    u: Vec<f64>,
}

impl ActiveSet {
    /// Splits `v` into its coordinates `d = Qᵀ·v` and its remainder
    /// `z = v − Q·d` outside the span of `Q`, by Gram–Schmidt applied twice.
    fn project(&self, v: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut z = v.to_vec();
        let mut d = vec![0.0; self.rows.len()];
        for _ in 0..2 {
            for (dj, col) in d.iter_mut().zip(self.q.chunks_exact(self.n)) {
                let c = dot(col, &z);
                for (zi, qi) in z.iter_mut().zip(col) {
                    *zi -= c * qi;
                }
                *dj += c;
            }
        }
        (d, z)
    }

    /// Solves `R·r = d` by back-substitution.
    fn solve_r(&self, d: &[f64]) -> Vec<f64> {
        let mut rem = d.to_vec();
        let mut r = vec![0.0; d.len()];
        for c in (0..d.len()).rev() {
            let col = &self.r[c];
            r[c] = rem[c] / col[c];
            for (ri, &rc) in rem[..c].iter_mut().zip(&col[..c]) {
                *ri -= rc * r[c];
            }
        }
        r
    }

    /// Appends the normal whose split is `(d, z)` with multiplier `u`.
    fn add(&mut self, row: usize, mut d: Vec<f64>, z: &[f64], u: f64) {
        let norm = dot(z, z).sqrt();
        self.q.extend(z.iter().map(|v| v / norm));
        d.push(norm);
        self.r.push(d);
        self.rows.push(row);
        self.u.push(u);
    }

    /// Removes active column `j`, restoring the triangular `R` with Givens
    /// rotations that are applied to the columns of `Q` as well. Returns the
    /// constraint row it held.
    fn remove(&mut self, j: usize) -> usize {
        let n = self.n;
        self.r.remove(j);
        self.u.remove(j);
        let row = self.rows.remove(j);
        for i in j..self.r.len() {
            // Column i now reaches one row below the diagonal.
            let (a, b) = (self.r[i][i], self.r[i][i + 1]);
            let h = a.hypot(b);
            let (c, s) = (a / h, b / h);
            for col in &mut self.r[i..] {
                let (x, y) = (col[i], col[i + 1]);
                col[i] = c * x + s * y;
                col[i + 1] = c * y - s * x;
            }
            self.r[i].truncate(i + 1);
            // The columns of Q from the removed one onwards move left.
            let (left, right) = self.q.split_at_mut((i + 1) * n);
            let qi = &mut left[i * n..];
            let qn = &mut right[..n];
            for (x, y) in qi.iter_mut().zip(qn.iter_mut()) {
                let (a, b) = (*x, *y);
                *x = c * a + s * b;
                *y = c * b - s * a;
            }
        }
        // R's last row is zero now: Q's last column no longer contributes.
        self.q.truncate(self.r.len() * n);
        row
    }
}

/// Solves the block-diagonal Gramian-weighted QP with pre-factored blocks.
///
/// `f` and `g` define the inequality constraints `F·x ≤ g`. The options are
/// not consulted here: the Tikhonov term is baked into `factors` at
/// [`BlockQpFactors::new_adaptive`] time (that is the whole point of
/// pre-factoring).
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] on dimension mismatches and
/// non-finite constraints, [`PassivityError::InfeasibleQp`] when no `x`
/// satisfies the constraints, and [`PassivityError::QpStepCap`] when the
/// active-set iteration reaches its step cap.
pub fn solve_block_qp_factored(
    factors: &BlockQpFactors,
    f: &Mat,
    g: &[f64],
    _options: &QpOptions,
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

    // Whitened unit rows a_r = F̃_r/ν_r with bounds b_r = g_r/ν_r, where
    // F̃_r = F_r·blkdiag(L_e⁻ᵀ) (forward substitution per block) and
    // ν_r = ‖F̃_r‖. A zero row constrains nothing when g_r ≥ 0.
    let mut a = vec![0.0; m * n];
    let mut b = vec![0.0; m];
    let mut scale = vec![0.0; m];
    let mut selectable = vec![true; m];
    for (r, row) in a.chunks_exact_mut(n).enumerate() {
        for (e, l) in factors.factors.iter().enumerate() {
            let seg = &mut row[e * n_block..(e + 1) * n_block];
            let rhs = &f.row(r)[e * n_block..(e + 1) * n_block];
            for i in 0..n_block {
                seg[i] = (rhs[i] - dot(&l.row(i)[..i], &seg[..i])) / l[(i, i)];
            }
        }
        let nu = dot(row, row).sqrt();
        if !(nu.is_finite() && g[r].is_finite()) {
            return Err(PassivityError::InvalidInput(format!("constraint {r} is not finite")));
        }
        if !(nu > 0.0) {
            if g[r] < 0.0 {
                return Err(PassivityError::InfeasibleQp { constraint: r });
            }
            selectable[r] = false;
            continue;
        }
        row.iter_mut().for_each(|v| *v /= nu);
        scale[r] = nu;
        b[r] = g[r] / nu;
    }

    // Goldfarb–Idnani on min ½‖y‖² s.t. a_rᵀy ≤ b_r, from the unconstrained
    // minimum y = 0.
    let mut y = vec![0.0; n];
    let mut active = ActiveSet { n, q: Vec::new(), r: Vec::new(), rows: Vec::new(), u: Vec::new() };
    let cap = STEPS_PER_DIMENSION * (m + n);
    let mut steps = 0;
    loop {
        // The most violated row enters (the first one on ties).
        let y_norm = dot(&y, &y).sqrt();
        let mut entering = None;
        let mut worst = 0.0;
        for (r, row) in a.chunks_exact(n).enumerate() {
            if !selectable[r] {
                continue;
            }
            let excess = dot(row, &y) - b[r];
            if excess > FEASIBILITY_TOL * (y_norm + b[r].abs()) && excess > worst {
                worst = excess;
                entering = Some(r);
            }
        }
        let Some(p) = entering else { break };
        let a_p = &a[p * n..(p + 1) * n];
        // The entering normal in the ≥ form of the method: −a_pᵀy ≥ −b_p.
        let normal: Vec<f64> = a_p.iter().map(|v| -v).collect();
        let mut u_p = 0.0;
        loop {
            steps += 1;
            if steps > cap {
                return Err(PassivityError::QpStepCap { steps: cap });
            }
            let (d, z) = active.project(&normal);
            // Dual direction: how the active multipliers change per unit of
            // u_p. The first one to reach zero bounds the step (t1).
            let dual = active.solve_r(&d);
            let mut t1 = f64::INFINITY;
            let mut blocking = None;
            for (j, (&rj, &uj)) in dual.iter().zip(&active.u).enumerate() {
                if rj > 0.0 && uj / rj < t1 {
                    t1 = uj / rj;
                    blocking = Some(j);
                }
            }
            // Primal direction z: the step that satisfies row p (t2), or
            // none when row p depends on the active rows.
            let zz = dot(&z, &z);
            let t2 = if zz.sqrt() > DEPENDENT_TOL {
                (dot(a_p, &y) - b[p]).max(0.0) / zz
            } else {
                f64::INFINITY
            };
            if t1.is_infinite() && t2.is_infinite() {
                return Err(PassivityError::InfeasibleQp { constraint: p });
            }
            let t = t1.min(t2);
            if t2.is_finite() {
                for (yi, zi) in y.iter_mut().zip(&z) {
                    *yi += t * zi;
                }
            }
            for (uj, rj) in active.u.iter_mut().zip(&dual) {
                *uj = (*uj - t * rj).max(0.0);
            }
            u_p += t;
            match blocking {
                Some(j) if t1 < t2 => selectable[active.remove(j)] = true,
                _ => {
                    active.add(p, d, &z, u_p);
                    selectable[p] = false;
                    break;
                }
            }
        }
    }

    // Back to the original unknowns: x_e = L_e⁻ᵀ·y_e.
    let mut x = vec![0.0; n];
    for (e, l) in factors.factors.iter().enumerate() {
        let mut rem = y[e * n_block..(e + 1) * n_block].to_vec();
        let seg = &mut x[e * n_block..(e + 1) * n_block];
        for i in (0..n_block).rev() {
            seg[i] = rem[i] / l[(i, i)];
            for (rk, lk) in rem[..i].iter_mut().zip(&l.row(i)[..i]) {
                *rk -= lk * seg[i];
            }
        }
    }
    // λ_r = 2·u_r/ν_r: the method's multipliers belong to the unit rows and
    // to the objective ½‖y‖².
    let mut multipliers = vec![0.0; m];
    for (&row, &u) in active.rows.iter().zip(&active.u) {
        multipliers[row] = 2.0 * u / scale[row];
    }
    // Objective xᵀ (blkdiag G) x.
    let mut objective = 0.0;
    for (e, blk) in factors.blocks.iter().enumerate() {
        let seg = &x[e * n_block..(e + 1) * n_block];
        let bs = blk.matvec(seg)?;
        objective += dot(seg, &bs);
    }
    Ok(QpSolution { x, multipliers, iterations: steps, objective })
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
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn single_constraint_identity_hessian_matches_analytic_solution() {
        // min ||x||^2  s.t.  a·x <= -1  with a = [1, 1]: solution is the
        // projection x = -a/||a||^2 = [-0.5, -0.5], with 2x + λa = 0.
        let blocks = vec![Mat::identity(1), Mat::identity(1)];
        let f = Mat::from_rows(&[&[1.0, 1.0]]);
        let sol = solve_fixed(&blocks, &f, &[-1.0]).unwrap();
        assert!((sol.x[0] + 0.5).abs() < 1e-8);
        assert!((sol.x[1] + 0.5).abs() < 1e-8);
        assert!((sol.objective - 0.5).abs() < 1e-7);
        assert!((sol.multipliers[0] - 1.0).abs() < 1e-8);
        assert_eq!(sol.iterations, 1);
    }

    #[test]
    fn weighted_hessian_biases_solution_toward_cheap_directions() {
        // min x^T diag(10, 0.1) x  s.t.  x1 + x2 <= -1: most of the movement
        // must happen along the cheap coordinate x2.
        let blocks = vec![Mat::from_diag(&[10.0]), Mat::from_diag(&[0.1])];
        let f = Mat::from_rows(&[&[1.0, 1.0]]);
        let sol = solve_fixed(&blocks, &f, &[-1.0]).unwrap();
        assert!((sol.x[0] + sol.x[1] + 1.0).abs() < 1e-12, "constraint must be active");
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
            assert!(*lhs <= rhs + 1e-12, "constraint violated: {lhs} > {rhs}");
        }
    }

    #[test]
    fn a_blocking_constraint_leaves_the_active_set() {
        // min ‖x‖² s.t. x1 ≤ −1, x2 ≤ −0.9, −x1 + x2 ≤ −0.1. Rows 0 and 1
        // enter first (most violated first), meeting at (−1, −0.9), where
        // row 2 is still violated. Adding it drives row 1's multiplier to
        // zero, so row 1 leaves: the optimum is x = (−1, −1.1) with rows 0
        // and 2 active, λ = (4.2, 0, 2.2).
        let blocks = vec![Mat::identity(2)];
        let f = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 1.0]]);
        let sol = solve_fixed(&blocks, &f, &[-1.0, -0.9, -0.1]).unwrap();
        assert!((sol.x[0] + 1.0).abs() < 1e-8 && (sol.x[1] + 1.1).abs() < 1e-8, "{:?}", sol.x);
        assert!((sol.multipliers[0] - 4.2).abs() < 1e-8);
        assert_eq!(sol.multipliers[1].to_bits(), 0.0f64.to_bits());
        assert!((sol.multipliers[2] - 2.2).abs() < 1e-8);
        assert_eq!(sol.iterations, 4, "add rows 0 and 1, drop row 1, add row 2");
    }

    #[test]
    fn contradictory_constraints_are_reported_infeasible() {
        // a·x ≤ −1 and −a·x ≤ −1 ask for a·x ≤ −1 and a·x ≥ 1 at once.
        let blocks = vec![Mat::identity(2)];
        let f = Mat::from_rows(&[&[1.0, 2.0], &[-1.0, -2.0]]);
        match solve_fixed(&blocks, &f, &[-1.0, -1.0]) {
            Err(PassivityError::InfeasibleQp { constraint }) => assert_eq!(constraint, 1),
            other => panic!("expected InfeasibleQp, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_row_is_infeasible_only_with_negative_headroom() {
        let blocks = vec![Mat::identity(2)];
        let f = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        match solve_fixed(&blocks, &f, &[-1.0, -1e-3]) {
            Err(PassivityError::InfeasibleQp { constraint }) => assert_eq!(constraint, 1),
            other => panic!("expected InfeasibleQp, got {other:?}"),
        }
        // With g ≥ 0 the zero row constrains nothing.
        let sol = solve_fixed(&blocks, &f, &[-1.0, 0.0]).unwrap();
        assert!((sol.x[0] + 1.0).abs() < 1e-12 && sol.x[1].abs() < 1e-12);
        assert_eq!(sol.multipliers[1].to_bits(), 0.0f64.to_bits());
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
        let nan = Mat::from_rows(&[&[f64::NAN, 1.0]]);
        assert!(matches!(solve_fixed(&blocks, &nan, &[0.0]), Err(PassivityError::InvalidInput(_))));
        let indefinite = vec![Mat::from_diag(&[1.0, -1.0])];
        assert!(matches!(
            BlockQpFactors::new_adaptive(&indefinite, 0.0, f64::INFINITY),
            Err(PassivityError::InvalidInput(_))
        ));
    }
}
