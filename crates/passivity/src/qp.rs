//! The convex quadratic program of the perturbation step (eq. 9 of the
//! paper): the smallest Gramian-weighted perturbation of the output matrix
//! that satisfies the linearized passivity constraints.
//!
//! The problem is
//!
//! ```text
//! minimize    Σ_e  δc_e · G · δc_eᵀ
//! subject to  F · x ≤ g
//! ```
//!
//! with `x` stacking the per-element rows `δc_e` and `G` one symmetric
//! positive definite `N × N` matrix that weights every element: the
//! elements of a common-pole fit share their realization, hence their
//! controllability Gramian, plain or sensitivity weighted (eq. 10–11 and
//! 19–21).
//!
//! [`BlockQpFactors`] Cholesky-factors the damped Gramian once,
//! `G + λ·s·I = L·Lᵀ`. In the whitened unknowns `y_e = Lᵀ·x_e` the
//! objective is `‖y‖²` and the constraints read `F̃·y ≤ g` with
//! `F̃ = F·(I ⊗ L⁻ᵀ)`: a least-distance problem.
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
//! `x_e = L⁻ᵀ·y_e`.
//!
//! The solve is exact up to rounding. [`QpSolution::iterations`] counts the
//! active-set steps, one per constraint added or dropped. The
//! [`QpSolution::multipliers`] satisfy the KKT conditions
//! `2·(I ⊗ G)·x + Fᵀ·λ = 0`, `λ ≥ 0` and `λ_i·(F·x − g)_i = 0`, with `G`
//! the damped Gramian. Inconsistent constraints return
//! [`PassivityError::InfeasibleQp`] and a solve that reaches the step cap
//! returns [`PassivityError::QpStepCap`]; neither returns a partial step.

use crate::{PassivityError, Result};
use pim_linalg::lu::Lu;
use pim_linalg::Mat;

/// Options of the perturbation QP: the Tikhonov damping of its Gramian,
/// applied when [`BlockQpFactors`] factors it.
#[derive(Debug, Clone)]
pub struct QpOptions {
    /// Relative Tikhonov regularization added to the Gramian to keep the
    /// Hessian safely positive definite.
    pub regularization: f64,
    /// Condition cap for adaptive Tikhonov damping: a Gramian whose LU
    /// condition estimate exceeds this gets its regularization escalated
    /// (×100 per step) until it complies, so a near-singular Gramian damps
    /// the perturbation instead of blowing up the step. `f64::INFINITY`
    /// disables the adaptive path; a well-conditioned Gramian is factored
    /// bit-identically to the fixed-Tikhonov path either way.
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
    /// `2·(I ⊗ G)·x + Fᵀ·λ = 0` for the damped Gramian `G`; exactly zero for
    /// the constraints that are not active at the solution.
    pub multipliers: Vec<f64>,
    /// Number of active-set steps (constraints added plus dropped).
    pub iterations: usize,
    /// Objective value `Σ_e x_eᵀ·G·x_e` at the solution, with the undamped
    /// Gramian.
    pub objective: f64,
}

/// The pre-factored Gramian of the QP Hessian `I ⊗ G`.
///
/// The Gramian is fixed across the outer iterations of the enforcement loop
/// (the norm depends only on the poles and the sensitivity weight, neither
/// of which the perturbation changes), so its Cholesky factor is computed
/// once and reused by every [`solve_block_qp_factored`] call instead of
/// being rebuilt from scratch each iteration.
#[derive(Debug, Clone)]
pub struct BlockQpFactors {
    gramian: Mat,
    /// Lower Cholesky factor `L` of the damped Gramian.
    factor: Mat,
    base_regularization: f64,
    max_condition: f64,
    /// Relative Tikhonov λ baked into the factorization
    /// (`== base_regularization` unless escalated).
    applied: f64,
}

/// The Gramian with a relative Tikhonov term `lambda` on its diagonal.
fn damped(g: &Mat, lambda: f64) -> Mat {
    let n = g.rows();
    let scale = g.trace().abs().max(1e-300) / n as f64;
    g + &Mat::identity(n).scaled(lambda * scale)
}

/// Escalates `lambda` (×100 per step) until the damped Gramian's LU
/// condition estimate is at or below `max_condition`, returning the Cholesky
/// factor of that damped Gramian and the λ used.
fn factor_capped(g: &Mat, mut lambda: f64, max_condition: f64) -> Result<(Mat, f64)> {
    let mut matrix = damped(g, lambda);
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
        matrix = damped(g, lambda);
        attempt = Lu::new(&matrix);
    }
    // A damped Gramian the LU still cannot factor fails here.
    attempt?;
    Ok((cholesky(&matrix)?, lambda))
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
                    "the damped Gramian is not positive definite".into(),
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
    /// Factors the Gramian with the relative Tikhonov term `regularization`
    /// and adaptive damping: if its LU condition estimate exceeds
    /// `max_condition`, λ is escalated until it complies. A well-conditioned
    /// Gramian is factored bit-identically to the fixed-Tikhonov
    /// factorization (`max_condition = f64::INFINITY`).
    ///
    /// # Errors
    ///
    /// Returns [`PassivityError::InvalidInput`] on an empty or non-square
    /// Gramian or a damped Gramian that is not positive definite, and
    /// propagates factorization failures.
    pub fn new_adaptive(gramian: &Mat, regularization: f64, max_condition: f64) -> Result<Self> {
        if !gramian.is_square() || gramian.rows() == 0 {
            return Err(PassivityError::InvalidInput(format!(
                "the Gramian must be square and non-empty, got {}x{}",
                gramian.rows(),
                gramian.cols()
            )));
        }
        let (factor, applied) = factor_capped(gramian, regularization, max_condition)?;
        Ok(BlockQpFactors {
            gramian: gramian.clone(),
            factor,
            base_regularization: regularization,
            max_condition,
            applied,
        })
    }

    /// Relative Tikhonov λ baked into the factorization.
    pub fn applied_regularization(&self) -> f64 {
        self.applied
    }

    /// Whether the damping was escalated above the base λ.
    pub fn is_damped(&self) -> bool {
        self.applied > self.base_regularization
    }

    /// Divides an escalated λ by 10 (never below the base λ),
    /// re-escalating where the condition cap would break, and refactors
    /// the Gramian. The enforcement loop calls it on every accepted
    /// improving step, so the bias vanishes as the loop converges. Returns
    /// `true` if the factor changed. No-op (and bit-identity-safe) when
    /// nothing was ever escalated.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures.
    pub fn decay(&mut self) -> Result<bool> {
        const FACTOR: f64 = 10.0;
        if !self.is_damped() {
            return Ok(false);
        }
        let target = (self.applied / FACTOR).max(self.base_regularization);
        let (factor, lambda) = factor_capped(&self.gramian, target, self.max_condition)?;
        // Never escalate past the current λ from inside a decay — that
        // would oscillate between a too-light and a too-heavy damping.
        if lambda >= self.applied {
            return Ok(false);
        }
        self.factor = factor;
        self.applied = lambda;
        Ok(true)
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

/// Solves the Gramian-weighted QP with the pre-factored Gramian.
///
/// `f` and `g` define the inequality constraints `F·x ≤ g`; the columns of
/// `f` are the segments `x_e`, `N` each. The options are not consulted
/// here: the Tikhonov term is baked into `factors` at
/// [`BlockQpFactors::new_adaptive`] time (that is the whole point of
/// pre-factoring). The solver whitens `F` in place, so this by-reference
/// entry clones it once; the enforcement loop hands its constraint matrix
/// over instead and holds no second `m × P²N` copy.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] on dimension mismatches (a
/// column count that is not a positive multiple of `N` included) and
/// non-finite constraints, [`PassivityError::InfeasibleQp`] when no `x`
/// satisfies the constraints, and [`PassivityError::QpStepCap`] when the
/// active-set iteration reaches its step cap.
pub fn solve_block_qp_factored(
    factors: &BlockQpFactors,
    f: &Mat,
    g: &[f64],
    _options: &QpOptions,
) -> Result<QpSolution> {
    solve_block_qp_in_place(factors, f.clone(), g)
}

/// [`solve_block_qp_factored`] on an owned constraint matrix, whose storage
/// becomes the whitened unit rows.
pub(crate) fn solve_block_qp_in_place(
    factors: &BlockQpFactors,
    mut f: Mat,
    g: &[f64],
) -> Result<QpSolution> {
    let l = &factors.factor;
    let n_block = l.rows();
    let n = f.cols();
    if n == 0 || !n.is_multiple_of(n_block) {
        return Err(PassivityError::InvalidInput(format!(
            "constraint matrix has {n} columns, expected a positive multiple of {n_block}"
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
    // F̃_r = F_r·(I ⊗ L⁻ᵀ) (forward substitution per segment, in place: entry
    // i is read before it is overwritten) and ν_r = ‖F̃_r‖. A zero row
    // constrains nothing when g_r ≥ 0.
    let a = f.as_mut_slice();
    let mut b = vec![0.0; m];
    let mut scale = vec![0.0; m];
    let mut selectable = vec![true; m];
    for (r, row) in a.chunks_exact_mut(n).enumerate() {
        for seg in row.chunks_exact_mut(n_block) {
            for i in 0..n_block {
                seg[i] = (seg[i] - dot(&l.row(i)[..i], &seg[..i])) / l[(i, i)];
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

    // Back to the original unknowns: x_e = L⁻ᵀ·y_e.
    let mut x = vec![0.0; n];
    for (seg, y_e) in x.chunks_exact_mut(n_block).zip(y.chunks_exact(n_block)) {
        let mut rem = y_e.to_vec();
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
    // Objective xᵀ·(I ⊗ G)·x.
    let mut objective = 0.0;
    for seg in x.chunks_exact(n_block) {
        objective += dot(seg, &factors.gramian.matvec(seg)?);
    }
    Ok(QpSolution { x, multipliers, iterations: steps, objective })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The QP with a fixed Tikhonov factor (no adaptive damping).
    fn solve_fixed(gramian: &Mat, f: &Mat, g: &[f64]) -> Result<QpSolution> {
        let options = QpOptions::default();
        let factors = BlockQpFactors::new_adaptive(gramian, options.regularization, f64::INFINITY)?;
        solve_block_qp_factored(&factors, f, g, &options)
    }

    #[test]
    fn unconstrained_problem_returns_zero() {
        let f = Mat::zeros(0, 2);
        let sol = solve_fixed(&Mat::identity(2), &f, &[]).unwrap();
        assert_eq!(sol.x, vec![0.0, 0.0]);
        assert_eq!((sol.objective).to_bits(), 0.0f64.to_bits());
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn single_constraint_identity_hessian_matches_analytic_solution() {
        // min ||x||^2  s.t.  a·x <= -1  with a = [1, 1]: solution is the
        // projection x = -a/||a||^2 = [-0.5, -0.5], with 2x + λa = 0. The
        // 1×1 Gramian weights two segments.
        let f = Mat::from_rows(&[&[1.0, 1.0]]);
        let sol = solve_fixed(&Mat::identity(1), &f, &[-1.0]).unwrap();
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
        let gramian = Mat::from_diag(&[10.0, 0.1]);
        let f = Mat::from_rows(&[&[1.0, 1.0]]);
        let sol = solve_fixed(&gramian, &f, &[-1.0]).unwrap();
        assert!((sol.x[0] + sol.x[1] + 1.0).abs() < 1e-12, "constraint must be active");
        assert!(sol.x[1].abs() > 50.0 * sol.x[0].abs());
    }

    #[test]
    fn inactive_constraints_do_not_move_the_solution() {
        let f = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        // Both constraints are satisfied at x = 0 (g >= 0): optimum stays 0.
        let sol = solve_fixed(&Mat::identity(2), &f, &[1.0, 2.0]).unwrap();
        assert!(sol.x.iter().all(|v| v.abs() < 1e-12));
        assert!(sol.multipliers.iter().all(|&l| l.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn multiple_active_constraints_are_satisfied() {
        let f = Mat::from_rows(&[&[1.0, 1.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 0.0, 1.0]]);
        let g = vec![-1.0, -0.5, -2.0];
        let sol = solve_fixed(&Mat::identity(3), &f, &g).unwrap();
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
        let f = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 1.0]]);
        let sol = solve_fixed(&Mat::identity(2), &f, &[-1.0, -0.9, -0.1]).unwrap();
        assert!((sol.x[0] + 1.0).abs() < 1e-8 && (sol.x[1] + 1.1).abs() < 1e-8, "{:?}", sol.x);
        assert!((sol.multipliers[0] - 4.2).abs() < 1e-8);
        assert_eq!(sol.multipliers[1].to_bits(), 0.0f64.to_bits());
        assert!((sol.multipliers[2] - 2.2).abs() < 1e-8);
        assert_eq!(sol.iterations, 4, "add rows 0 and 1, drop row 1, add row 2");
    }

    #[test]
    fn contradictory_constraints_are_reported_infeasible() {
        // a·x ≤ −1 and −a·x ≤ −1 ask for a·x ≤ −1 and a·x ≥ 1 at once.
        let f = Mat::from_rows(&[&[1.0, 2.0], &[-1.0, -2.0]]);
        match solve_fixed(&Mat::identity(2), &f, &[-1.0, -1.0]) {
            Err(PassivityError::InfeasibleQp { constraint }) => assert_eq!(constraint, 1),
            other => panic!("expected InfeasibleQp, got {other:?}"),
        }
    }

    #[test]
    fn a_zero_row_is_infeasible_only_with_negative_headroom() {
        let identity = Mat::identity(2);
        let f = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]);
        match solve_fixed(&identity, &f, &[-1.0, -1e-3]) {
            Err(PassivityError::InfeasibleQp { constraint }) => assert_eq!(constraint, 1),
            other => panic!("expected InfeasibleQp, got {other:?}"),
        }
        // With g ≥ 0 the zero row constrains nothing.
        let sol = solve_fixed(&identity, &f, &[-1.0, 0.0]).unwrap();
        assert!((sol.x[0] + 1.0).abs() < 1e-12 && sol.x[1].abs() < 1e-12);
        assert_eq!(sol.multipliers[1].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn adaptive_damping_caps_near_singular_blocks_and_decays() {
        // A near-singular Gramian (condition ~1e12).
        let gramian = Mat::from_diag(&[1.0, 1e-12]);
        // The LU condition estimate of the Gramian under the applied damping.
        let condition = |factors: &BlockQpFactors| {
            Lu::new(&damped(&gramian, factors.applied_regularization()))
                .unwrap()
                .condition_estimate()
        };
        let mut factors = BlockQpFactors::new_adaptive(&gramian, 1e-10, 1e6).unwrap();
        assert!(factors.is_damped());
        assert!(condition(&factors) <= 1e6);
        assert!(factors.applied_regularization() > 1e-10);
        // Decay relaxes the damping only while the cap still holds.
        let lambda_before = factors.applied_regularization();
        factors.decay().unwrap();
        assert!(factors.applied_regularization() <= lambda_before);
        assert!(condition(&factors) <= 1e6);
        // Decay never touches a Gramian that was never escalated.
        let mut plain = BlockQpFactors::new_adaptive(&gramian, 1e-10, f64::INFINITY).unwrap();
        assert!(!plain.is_damped());
        assert!(!plain.decay().unwrap());
    }

    #[test]
    fn adaptive_path_is_bit_identical_for_well_conditioned_blocks() {
        let gramian = Mat::from_diag(&[2.0, 3.0]);
        let f = Mat::from_rows(&[&[1.0, 1.0, 0.5, -0.25]]);
        let g = [-1.0];
        let plain = BlockQpFactors::new_adaptive(&gramian, 1e-10, f64::INFINITY).unwrap();
        let adaptive = BlockQpFactors::new_adaptive(&gramian, 1e-10, 1e13).unwrap();
        assert!(!adaptive.is_damped());
        let opts = QpOptions::default();
        let a = solve_block_qp_factored(&plain, &f, &g, &opts).unwrap();
        let b = solve_block_qp_factored(&adaptive, &f, &g, &opts).unwrap();
        for (x, y) in a.x.iter().zip(&b.x) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn input_validation() {
        let identity = Mat::identity(2);
        assert!(solve_fixed(&Mat::zeros(0, 0), &Mat::zeros(1, 2), &[0.0]).is_err());
        // Column counts that are not a positive multiple of N = 2.
        for cols in [0, 3] {
            assert!(matches!(
                solve_fixed(&identity, &Mat::zeros(1, cols), &[0.0]),
                Err(PassivityError::InvalidInput(_))
            ));
        }
        assert!(solve_fixed(&identity, &Mat::zeros(2, 2), &[0.0]).is_err());
        let not_square = Mat::zeros(2, 3);
        assert!(matches!(
            solve_fixed(&not_square, &Mat::zeros(1, 6), &[0.0]),
            Err(PassivityError::InvalidInput(_))
        ));
        let nan = Mat::from_rows(&[&[f64::NAN, 1.0]]);
        assert!(matches!(
            solve_fixed(&identity, &nan, &[0.0]),
            Err(PassivityError::InvalidInput(_))
        ));
        let indefinite = Mat::from_diag(&[1.0, -1.0]);
        assert!(matches!(
            BlockQpFactors::new_adaptive(&indefinite, 0.0, f64::INFINITY),
            Err(PassivityError::InvalidInput(_))
        ));
    }
}
