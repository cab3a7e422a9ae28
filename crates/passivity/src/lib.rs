//! # pim-passivity
//!
//! Passivity assessment and enforcement for scattering macromodels, as used
//! by the DATE 2014 sensitivity-weighted passivity enforcement reproduction:
//!
//! * [`check`] — Hamiltonian-matrix passivity test (imaginary eigenvalues
//!   locate the unit-singular-value crossings) and singular-value sweeps
//!   (`σ_i(jω)` versus frequency, Fig. 4 of the paper);
//! * [`constraints`] — linearization of the local constraints
//!   `σ_i(jω_ν) + δσ_i(jω_ν) ≤ 1` (eq. 8) with respect to a perturbation of
//!   the state-space output matrix `C`;
//! * [`qp`] — the convex quadratic program of eq. (9): minimize a
//!   Gramian-weighted norm of `δC` under the linear constraints, solved
//!   exactly as a least-distance problem in Cholesky-whitened coordinates by
//!   the Goldfarb–Idnani dual active-set method;
//! * [`enforce`] — the outer iterative perturbation loop. The loop is
//!   parameterized by the one Gramian, shared by every matrix element, that
//!   defines the perturbation norm, so the *same* code runs both the
//!   standard L2 enforcement (eq. 10)
//!   and the sensitivity-weighted enforcement of the paper (eq. 20–21, built
//!   by `pim-core`), and every run returns its own record: one
//!   [`enforce::EnforcementIteration`] per outer iteration, as
//!   [`enforce::EnforcementOutcome::trace`] or, when it fails, inside
//!   [`NotConvergedDiagnostics`];
//! * [`norm`] — the pluggable norm-construction layer: [`norm::NormKind`]
//!   names the norm families and [`norm::NormBuilder`] abstracts building a
//!   [`enforce::PerturbationNorm`] for a model;
//! * [`grid`] — the first-class sampling layer: [`grid::FrequencyGrid`]
//!   (sorted, deduplicated, provenance-tagged sweep points) and the
//!   pluggable [`grid::SamplingStrategy`] — [`grid::Adaptive`] (the
//!   default: bisection around Hamiltonian crossings and local σ maxima
//!   until the interpolation error falls below tolerance) and
//!   [`grid::FixedLog`] (no refinement, for audits) — that builds the
//!   enforcement working grid and refines every assessment.
//!
//! There is one way to assess, [`check::assess_with_sampling`] (with
//! [`check::assess_on`] as its fixed-grid audit form, and
//! [`check::assess_with_crossings`] as its form for a model whose
//! Hamiltonian crossings are already known), and one way to enforce,
//! [`enforce::enforce_passivity`].

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod check;
pub mod constraints;
pub mod enforce;
pub mod grid;
pub mod norm;
pub mod qp;

pub use check::{
    assess_on, assess_with_crossings, assess_with_sampling, hamiltonian_crossings,
    singular_value_sweep_with, PassivityReport, ViolationBand,
};
pub use enforce::{
    enforce_passivity, EnforcementConfig, EnforcementIteration, EnforcementOutcome,
    PerturbationNorm,
};
pub use grid::{Adaptive, FixedLog, FrequencyGrid, PointProvenance, SamplingStrategy};
pub use norm::{NormBuilder, NormKind};

use std::error::Error;
use std::fmt;

/// Post-mortem of a failed enforcement run, carried by
/// [`PassivityError::NotConverged`] so failures are debuggable without a
/// rerun: every iteration the run made, where the step control ended up,
/// and the worst singular value the run ended on when it ran out of budget
/// or stalled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NotConvergedDiagnostics {
    /// Consecutive bottomed-out-and-grew backtracking steps at exit (2 when
    /// the run stalled).
    pub bottomed_out: usize,
    /// Worst singular value at the end of the loop.
    pub sigma_max: f64,
    /// Audit `σ_max` of the best-so-far model, filled in by callers that
    /// audit the `best` model when the run fails (the pipeline does, on its
    /// contract audit grid; the raw loop leaves it `None`).
    pub best_sigma_max: Option<f64>,
    /// Every outer iteration of the run, in order: its length is the number
    /// of iterations performed.
    pub trace: Vec<enforce::EnforcementIteration>,
}

impl fmt::Display for NotConvergedDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The step of the last accepted perturbation (1.0 before any), and
        // the largest Tikhonov λ the adaptive QP damping applied.
        let last_step = self.trace.last().map_or(1.0, |it| it.step);
        write!(f, "bottomed-out x{}, last step {last_step}", self.bottomed_out)?;
        let qp_lambda_max = self.trace.iter().fold(0.0_f64, |max, it| max.max(it.qp_lambda));
        if qp_lambda_max > 0.0 {
            write!(f, ", qp lambda {qp_lambda_max:.1e}")?;
        }
        if let Some(s) = self.best_sigma_max {
            write!(f, ", best audit sigma {s:.6}")?;
        }
        // The tail of the σ_max trajectory, oldest first: the starting
        // σ_max of the last iterations, then the final one (8 entries at
        // most).
        let tail = self.trace.iter().map(|it| it.sigma_before).chain([self.sigma_max]);
        write!(f, "; sigma tail [")?;
        for (k, s) in tail.skip((self.trace.len() + 1).saturating_sub(8)).enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s:.6}")?;
        }
        write!(f, "]")
    }
}

/// Errors produced by the passivity tooling.
#[derive(Debug)]
pub enum PassivityError {
    /// The underlying linear algebra kernel failed.
    Linalg(pim_linalg::LinalgError),
    /// Model manipulation failed.
    StateSpace(pim_statespace::StateSpaceError),
    /// The input model or configuration is invalid.
    InvalidInput(String),
    /// The enforcement loop ran out of its iteration budget or stalled
    /// without producing a passive model.
    NotConverged {
        /// The most passive (lowest `σ_max`) model seen during the run, so
        /// a failed enforcement still yields its best iterate. Boxed to
        /// keep the error type small.
        best: Box<pim_statespace::PoleResidueModel>,
        /// Post-mortem of the failed run (its iterations, step control
        /// state and final `σ_max`).
        diagnostics: Box<NotConvergedDiagnostics>,
    },
    /// The linearized constraints of a perturbation step are inconsistent:
    /// no step satisfies them all.
    InfeasibleQp {
        /// The constraint row the QP solver could not satisfy together
        /// with the rows already active.
        constraint: usize,
    },
    /// The QP solver reached its cap on active-set steps without an
    /// optimum (only rounding can make it cycle).
    QpStepCap {
        /// The step cap that was reached.
        steps: usize,
    },
}

impl fmt::Display for PassivityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassivityError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            PassivityError::StateSpace(e) => write!(f, "model manipulation failure: {e}"),
            PassivityError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            PassivityError::NotConverged { diagnostics, .. } => write!(
                f,
                "passivity enforcement did not converge after {} iterations (sigma_max = {}; {diagnostics})",
                diagnostics.trace.len(),
                diagnostics.sigma_max
            ),
            PassivityError::InfeasibleQp { constraint } => write!(
                f,
                "the linearized passivity constraints are infeasible (row {constraint} conflicts with the active rows)"
            ),
            PassivityError::QpStepCap { steps } => {
                write!(f, "the perturbation QP reached its cap of {steps} active-set steps")
            }
        }
    }
}

impl Error for PassivityError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PassivityError::Linalg(e) => Some(e),
            PassivityError::StateSpace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pim_linalg::LinalgError> for PassivityError {
    fn from(e: pim_linalg::LinalgError) -> Self {
        PassivityError::Linalg(e)
    }
}

impl From<pim_statespace::StateSpaceError> for PassivityError {
    fn from(e: pim_statespace::StateSpaceError) -> Self {
        PassivityError::StateSpace(e)
    }
}

/// Result alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, PassivityError>;
