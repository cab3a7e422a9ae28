//! Pluggable construction of perturbation norms.
//!
//! The enforcement loop of [`crate::enforce`] is parameterized by a
//! [`PerturbationNorm`] — the Gramian, shared by every matrix element, that
//! weights the residue perturbation. This module makes the *construction* of that norm a
//! first-class, pluggable step: [`NormBuilder`] abstracts "given a macromodel,
//! build its perturbation norm", and [`NormKind`] names the families so that
//! diagnostics and observers can label which norm an enforcement run used.
//! The plain L2 norm of eq. (10)–(11) of the paper is
//! [`PerturbationNorm::standard`]; the sensitivity-weighted builder of
//! eq. (19)–(21) lives in `pim-core` (it needs the rational weighting model
//! `Ξ̃(s)` from `pim-vectfit`).

use crate::enforce::PerturbationNorm;
use crate::Result;
use pim_statespace::PoleResidueModel;
use std::fmt;

/// Identifies a perturbation-norm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NormKind {
    /// The standard (unweighted) L2 norm: the plain controllability
    /// Gramian.
    Standard,
    /// The paper's sensitivity-weighted norm: the cascade Gramian of
    /// `Ξ̃(s)·δS(s)`.
    SensitivityWeighted,
}

impl fmt::Display for NormKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormKind::Standard => f.write_str("standard"),
            NormKind::SensitivityWeighted => f.write_str("sensitivity-weighted"),
        }
    }
}

/// Builds a [`PerturbationNorm`] for a given macromodel.
///
/// Implementations capture whatever side information the norm family needs
/// (the standard norm needs none; the sensitivity-weighted norm carries the
/// weighting model `Ξ̃(s)`), and [`NormBuilder::build`] instantiates the
/// Gramian for the concrete model about to be enforced.
pub trait NormBuilder {
    /// The family this builder belongs to (used for diagnostics and
    /// observer labeling).
    fn kind(&self) -> NormKind;

    /// Builds the Gramian norm for `model`.
    ///
    /// # Errors
    ///
    /// Propagates realization and Lyapunov-solver failures.
    fn build(&self, model: &PoleResidueModel) -> Result<PerturbationNorm>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_kinds_display_distinctly() {
        let labels: Vec<String> = [NormKind::Standard, NormKind::SensitivityWeighted]
            .iter()
            .map(|k| k.to_string())
            .collect();
        assert_eq!(labels, ["standard", "sensitivity-weighted"]);
    }
}
