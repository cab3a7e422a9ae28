//! The enforcement recovery ladder and the accuracy contract.
//!
//! The weighted enforcement loop can run out of its iteration budget, or
//! stall, on hard boards. Instead of surfacing a bare `NotConverged` with a
//! best-so-far model stapled on, [`crate::pipeline::Pipeline::report`]
//! retries under an escalation policy — the **recovery ladder**:
//!
//! 1. [`RecoveryRung::Primary`] — the paper's sensitivity-weighted norm
//!    under the configured numerics (not a retry; the name of the happy
//!    path);
//! 2. [`RecoveryRung::Regularized`] — same norm, but the adaptive QP
//!    damping cap is tightened to `1e6` so near-singular Gramian blocks are
//!    Tikhonov-damped hard, and the iteration budget grows by 40;
//! 3. [`RecoveryRung::ReducedOrder`] — the weighted fit is redone two poles
//!    lower (never below order 6) and enforced under the weighted norm with
//!    the same damping and budget; fewer states shrink the constraint
//!    null-space that lets the loop walk in circles.
//!
//! A 100-board corpus ablation, re-run after the QP steps became exact,
//! keeps exactly these rungs: without the regularized rung boards 25 and 83
//! rise to certified but board 71 falls to diverged, and boards 26, 81 and
//! 90 are delivered only by the reduced-order rung (see EXPERIMENTS.md,
//! *Robust enforcement*). Observers see every rung as a
//! [`crate::observer::Stage::Recovery`] stage that starts and then
//! completes or fails (with its `NotConverged` diagnostics). The delivered
//! model — whatever rung produced it — always carries an
//! [`AccuracyContract`]: its σ_max on a dense audit grid it was never
//! constrained on, its target-impedance error, and the rung that produced
//! it.

use std::fmt;

/// The rung of the recovery ladder that produced a delivered model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// The primary sensitivity-weighted enforcement (no recovery needed).
    Primary,
    /// Same weighted norm with hard adaptive QP damping and an extended
    /// iteration budget.
    Regularized,
    /// Weighted refit at reduced order, enforced under the weighted norm.
    ReducedOrder,
}

impl RecoveryRung {
    /// Stable lowercase identifier (reports, fixtures, CLI).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::Primary => "primary",
            RecoveryRung::Regularized => "regularized",
            RecoveryRung::ReducedOrder => "reduced-order",
        }
    }
}

impl fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the accuracy contract attached to delivered models.
#[derive(Debug, Clone, PartialEq)]
pub struct ContractConfig {
    /// Audit-grid density as a multiple of the enforcement working sweep:
    /// the contract sweeps `sweep_points × audit_multiplier` fixed-log
    /// points the model was never constrained on (the corpus certification
    /// gate uses the same grid).
    pub audit_multiplier: usize,
    /// Passivity tolerance: the delivered model passes its audit when
    /// `audit σ_max ≤ 1 + sigma_tolerance`.
    pub sigma_tolerance: f64,
}

impl Default for ContractConfig {
    fn default() -> Self {
        ContractConfig { audit_multiplier: 16, sigma_tolerance: 1e-8 }
    }
}

/// The accuracy contract of a delivered model: what the pipeline measured
/// about it on grids it was never constrained on, and which recovery rung
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyContract {
    /// The recovery rung that produced the delivered model.
    pub rung: RecoveryRung,
    /// `σ_max` on the dense fixed-log audit grid.
    pub audit_sigma_max: f64,
    /// Number of audit-grid points swept.
    pub audit_points: usize,
    /// The passivity tolerance the contract was checked against.
    pub sigma_tolerance: f64,
    /// Relative RMS target-impedance error of the delivered model against
    /// the nominal (data-based) target impedance.
    pub impedance_error: f64,
}

impl AccuracyContract {
    /// The delivered model holds `σ_max ≤ 1 + tol` on the audit grid.
    pub fn passivity_ok(&self) -> bool {
        self.audit_sigma_max <= 1.0 + self.sigma_tolerance
    }
}

impl fmt::Display for AccuracyContract {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rung '{}', audit sigma_max {:.9} over {} points (tol 1+{:.0e}): {}, \
             impedance error {:.4}",
            self.rung,
            self.audit_sigma_max,
            self.audit_points,
            self.sigma_tolerance,
            if self.passivity_ok() { "passive" } else { "NOT passive" },
            self.impedance_error
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_display_reports_the_audit_verdict() {
        let mut contract = AccuracyContract {
            rung: RecoveryRung::Regularized,
            audit_sigma_max: 1.0,
            audit_points: 3200,
            sigma_tolerance: 1e-8,
            impedance_error: 0.2,
        };
        assert!(contract.passivity_ok());
        assert!(contract.to_string().contains("rung 'regularized'"));
        assert!(contract.to_string().contains(": passive, impedance error 0.2000"));
        contract.audit_sigma_max = 1.1;
        assert!(!contract.passivity_ok());
        assert!(contract.to_string().contains("NOT passive"));
    }
}
