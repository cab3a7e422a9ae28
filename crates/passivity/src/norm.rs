//! Pluggable construction of perturbation norms.
//!
//! The enforcement loop of [`crate::enforce`] is parameterized by a
//! [`PerturbationNorm`] — the per-element Gramian blocks weighting the
//! residue perturbation. This module makes the *construction* of that norm a
//! first-class, pluggable step: [`NormBuilder`] abstracts "given a macromodel,
//! build its perturbation norm", [`NormKind`] names the families so that
//! diagnostics and observers can label which norm an enforcement run used,
//! and [`StandardNorm`] is the built-in builder of the plain L2 norm of
//! eq. (10)–(11) of the paper. The sensitivity-weighted builder of
//! eq. (19)–(21) lives in `pim-core` (it needs the rational weighting model
//! `Ξ̃(s)` from `pim-vectfit`), but it implements the same trait, so the
//! enforcement plumbing treats every family uniformly.

use crate::enforce::PerturbationNorm;
use crate::Result;
use pim_statespace::PoleResidueModel;
use std::fmt;

/// Identifies a perturbation-norm family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NormKind {
    /// The standard (unweighted) L2 norm: plain controllability Gramians.
    Standard,
    /// The paper's sensitivity-weighted norm: cascade Gramians of
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
/// Gramian blocks for the concrete model about to be enforced.
pub trait NormBuilder {
    /// The family this builder belongs to (used for diagnostics and
    /// observer labeling).
    fn kind(&self) -> NormKind;

    /// Builds the per-element Gramian norm for `model`.
    ///
    /// # Errors
    ///
    /// Propagates realization and Lyapunov-solver failures.
    fn build(&self, model: &PoleResidueModel) -> Result<PerturbationNorm>;
}

/// Builder of the standard (unweighted) L2 perturbation norm.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardNorm;

impl NormBuilder for StandardNorm {
    fn kind(&self) -> NormKind {
        NormKind::Standard
    }

    fn build(&self, model: &PoleResidueModel) -> Result<PerturbationNorm> {
        PerturbationNorm::standard(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_linalg::{CMat, Complex64, Mat};

    fn one_port() -> PoleResidueModel {
        let p = Complex64::new(-50.0, 1000.0);
        let r = Complex64::new(30.0, 12.0);
        PoleResidueModel::new(
            vec![p, p.conj()],
            vec![CMat::from_diag(&[r]), CMat::from_diag(&[r.conj()])],
            Mat::from_diag(&[0.85]),
        )
        .unwrap()
    }

    #[test]
    fn standard_builder_matches_the_direct_constructor() {
        let model = one_port();
        let built = StandardNorm.build(&model).unwrap();
        let direct = PerturbationNorm::standard(&model).unwrap();
        assert_eq!(StandardNorm.kind(), NormKind::Standard);
        assert_eq!(built.ports(), direct.ports());
        assert_eq!(built.states(), direct.states());
        for (a, b) in built.gramians().iter().zip(direct.gramians()) {
            assert_eq!((a.max_abs_diff(b)).to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn norm_kinds_display_distinctly() {
        let labels: Vec<String> = [NormKind::Standard, NormKind::SensitivityWeighted]
            .iter()
            .map(|k| k.to_string())
            .collect();
        assert_eq!(labels, ["standard", "sensitivity-weighted"]);
    }
}
