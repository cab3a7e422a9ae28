//! # pim-vectfit
//!
//! Rational approximation engines for the DATE 2014 sensitivity-weighted
//! passivity enforcement reproduction:
//!
//! * [`vf::vector_fit`] — Vector Fitting of tabulated multiport frequency
//!   responses into a common-pole [`pim_statespace::PoleResidueModel`]
//!   (eq. 3–4 of the paper), with optional frequency-dependent weighting of
//!   the least-squares metric (eq. 6);
//! * [`magnitude::fit_magnitude`] — Magnitude Vector Fitting of squared
//!   magnitude samples (the sensitivity `|Ξ_k|²`, eq. 17) followed by
//!   spectral factorization into the stable, minimum-phase weighting model
//!   `Ξ̃(s)` of eq. (15)–(16);
//! * [`poles`] — initial pole placement heuristics and spectrum
//!   symmetrization helpers shared by both fitters.
//!
//! Both fitters keep their models in the real block-diagonal form of
//! [`pim_statespace::StateSpace::from_real_coefficients`] and walk their
//! poles with [`pim_statespace::pole_blocks`]. They relocate poles to the
//! zeros of that realization: the eigenvalues of `A − b·c/d`, read off
//! [`pim_linalg::schur::complex_schur`] of its real Hessenberg form.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod magnitude;
pub mod poles;
pub mod vf;

pub use magnitude::{fit_magnitude, MagnitudeFitConfig, SensitivityModel};
pub use vf::{vector_fit, VfConfig, VfResult};

use std::error::Error;
use std::fmt;

/// Errors produced by the fitting engines.
#[derive(Debug)]
pub enum VectFitError {
    /// The underlying linear algebra kernel failed.
    Linalg(pim_linalg::LinalgError),
    /// Input data handling failed.
    RfData(pim_rfdata::RfDataError),
    /// Model construction failed.
    StateSpace(pim_statespace::StateSpaceError),
    /// The configuration or the input samples are invalid.
    InvalidInput(String),
    /// The iteration did not produce a usable model.
    FitFailed(String),
}

impl fmt::Display for VectFitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VectFitError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            VectFitError::RfData(e) => write!(f, "data handling failure: {e}"),
            VectFitError::StateSpace(e) => write!(f, "model construction failure: {e}"),
            VectFitError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
            VectFitError::FitFailed(msg) => write!(f, "fit failed: {msg}"),
        }
    }
}

impl Error for VectFitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VectFitError::Linalg(e) => Some(e),
            VectFitError::RfData(e) => Some(e),
            VectFitError::StateSpace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pim_linalg::LinalgError> for VectFitError {
    fn from(e: pim_linalg::LinalgError) -> Self {
        VectFitError::Linalg(e)
    }
}

impl From<pim_rfdata::RfDataError> for VectFitError {
    fn from(e: pim_rfdata::RfDataError) -> Self {
        VectFitError::RfData(e)
    }
}

impl From<pim_statespace::StateSpaceError> for VectFitError {
    fn from(e: pim_statespace::StateSpaceError) -> Self {
        VectFitError::StateSpace(e)
    }
}

/// Result alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, VectFitError>;
