//! The reduced-order retry and the accuracy contract.
//!
//! The weighted enforcement loop can run out of its iteration budget, or
//! stall, on hard boards. Instead of surfacing a bare `NotConverged` with a
//! best-so-far model stapled on, [`crate::pipeline::Pipeline::report`]
//! retries once: the weighted fit is redone two poles lower (never below
//! order 6) and enforced under the weighted norm, with the adaptive QP
//! damping cap tightened to `1e6` and the iteration budget grown by 40.
//! Fewer states shrink the constraint null-space that lets the loop walk in
//! circles. When the order cannot be reduced, or the retry fails too, the
//! primary pass's failure stands.
//!
//! On the 100-board corpus the retry delivers the ten boards whose primary
//! pass fails, and the paper board's retry needs both the cap and the extra
//! budget (see EXPERIMENTS.md, *Robust enforcement*). Observers see the
//! retry as a [`crate::observer::Stage::Recovery`] stage that starts and
//! then completes or fails (with its `NotConverged` diagnostics). The
//! delivered model — primary or retry — always carries an
//! [`AccuracyContract`]: its σ_max on a dense audit grid it was never
//! constrained on, its target-impedance error, and the [`RecoveryRung`]
//! that produced it.

use std::fmt;

/// The enforcement pass that produced a delivered model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RecoveryRung {
    /// The primary sensitivity-weighted enforcement (no recovery needed).
    Primary,
    /// Weighted refit at reduced order, enforced under the weighted norm
    /// with hard adaptive QP damping and an extended iteration budget.
    ReducedOrder,
}

impl RecoveryRung {
    /// Stable lowercase identifier (reports, fixtures, CLI).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryRung::Primary => "primary",
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
/// about it on grids it was never constrained on, and which enforcement
/// pass produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyContract {
    /// The enforcement pass that produced the delivered model.
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
            rung: RecoveryRung::ReducedOrder,
            audit_sigma_max: 1.0,
            audit_points: 3200,
            sigma_tolerance: 1e-8,
            impedance_error: 0.2,
        };
        assert!(contract.passivity_ok());
        assert!(contract.to_string().contains("rung 'reduced-order'"));
        assert!(contract.to_string().contains(": passive, impedance error 0.2000"));
        contract.audit_sigma_max = 1.1;
        assert!(!contract.passivity_ok());
        assert!(contract.to_string().contains("NOT passive"));
    }
}
