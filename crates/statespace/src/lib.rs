//! # pim-statespace
//!
//! Rational macromodel types for the DATE 2014 sensitivity-weighted passivity
//! enforcement reproduction: pole–residue models produced by Vector Fitting,
//! their real state-space realizations, controllability Gramians, and the
//! cascade (product) realizations needed by the sensitivity-weighted
//! perturbation norm (eq. 18–20 of the paper).
//!
//! The main types are:
//!
//! * [`PoleResidueModel`] — a multiport transfer matrix
//!   `S(s) = Σₙ Rₙ/(s − pₙ) + D` with poles shared by all matrix elements;
//! * [`StateSpace`] — a real `{A, B, C, D}` realization. One builder,
//!   [`StateSpace::from_real_coefficients`], assembles the real
//!   block-diagonal form of common-pole single-input functions (a 2×2 block
//!   `[[σ, ω], [−ω, σ]]` per conjugate pair); a single matrix element and
//!   the full multiport model (the `A_e ⊗ I_P` expansion of all its
//!   elements) are built from it, and so are the fitters' pole-relocation
//!   realizations in `pim-vectfit`;
//! * [`poles`] — [`PoleBlock`] and [`pole_blocks`], the real-block walk of a
//!   conjugate-symmetric pole list shared by the realizations, the fitters'
//!   least-squares bases and the enforcement's perturbation of `C`;
//! * [`gramian`] — controllability Gramians and the
//!   partitioned Gramian of a cascade `S_ij(s)·Ξ̃(s)`.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gramian;
pub mod pole_residue;
pub mod poles;
pub mod realization;

pub use pole_residue::PoleResidueModel;
pub use poles::{pole_blocks, PoleBlock};
pub use realization::StateSpace;

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or manipulating macromodels.
#[derive(Debug)]
pub enum StateSpaceError {
    /// The underlying linear algebra kernel failed.
    Linalg(pim_linalg::LinalgError),
    /// A data-handling operation failed.
    RfData(pim_rfdata::RfDataError),
    /// The model structure is invalid (mismatched sizes, unpaired complex
    /// poles, non-conjugate residues, ...).
    InvalidModel(String),
}

impl fmt::Display for StateSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateSpaceError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            StateSpaceError::RfData(e) => write!(f, "data handling failure: {e}"),
            StateSpaceError::InvalidModel(msg) => write!(f, "invalid model: {msg}"),
        }
    }
}

impl Error for StateSpaceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StateSpaceError::Linalg(e) => Some(e),
            StateSpaceError::RfData(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pim_linalg::LinalgError> for StateSpaceError {
    fn from(e: pim_linalg::LinalgError) -> Self {
        StateSpaceError::Linalg(e)
    }
}

impl From<pim_rfdata::RfDataError> for StateSpaceError {
    fn from(e: pim_rfdata::RfDataError) -> Self {
        StateSpaceError::RfData(e)
    }
}

/// Result alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, StateSpaceError>;
