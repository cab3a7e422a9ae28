//! The unified workspace error type.
//!
//! Every component crate defines its own error enum (`LinalgError`,
//! `VectFitError`, `PassivityError`, ...). Downstream code that crosses
//! stage boundaries — build a scenario (`CircuitError`), fit it
//! (`VectFitError`), enforce passivity (`PassivityError`) — previously had
//! to erase them into `Box<dyn Error>`. [`PimError`] is the typed union:
//! `From` impls exist for every crate error, so `?` works across any
//! combination of stages, and [`CoreError`](pim_core::CoreError) is
//! *flattened* into the underlying component variant rather than nested.

use std::error::Error;
use std::fmt;

/// Unified error for the whole reproduction workspace.
#[derive(Debug)]
pub enum PimError {
    /// Linear algebra kernel failure (`pim-linalg`).
    Linalg(pim_linalg::LinalgError),
    /// Frequency-data handling failure (`pim-rfdata`).
    RfData(pim_rfdata::RfDataError),
    /// Model manipulation failure (`pim-statespace`).
    StateSpace(pim_statespace::StateSpaceError),
    /// Rational fitting failure (`pim-vectfit`).
    VectFit(pim_vectfit::VectFitError),
    /// Passivity assessment / enforcement failure (`pim-passivity`).
    Passivity(pim_passivity::PassivityError),
    /// PDN analysis failure (`pim-pdn`).
    Pdn(pim_pdn::PdnError),
    /// Synthetic circuit failure (`pim-circuit`).
    Circuit(pim_circuit::CircuitError),
    /// Invalid configuration or inconsistent inputs (any layer).
    InvalidInput(String),
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            PimError::RfData(e) => write!(f, "data handling failure: {e}"),
            PimError::StateSpace(e) => write!(f, "model manipulation failure: {e}"),
            PimError::VectFit(e) => write!(f, "rational fitting failure: {e}"),
            PimError::Passivity(e) => write!(f, "passivity failure: {e}"),
            PimError::Pdn(e) => write!(f, "pdn analysis failure: {e}"),
            PimError::Circuit(e) => write!(f, "circuit failure: {e}"),
            PimError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl Error for PimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PimError::Linalg(e) => Some(e),
            PimError::RfData(e) => Some(e),
            PimError::StateSpace(e) => Some(e),
            PimError::VectFit(e) => Some(e),
            PimError::Passivity(e) => Some(e),
            PimError::Pdn(e) => Some(e),
            PimError::Circuit(e) => Some(e),
            PimError::InvalidInput(_) => None,
        }
    }
}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for PimError {
            fn from(e: $ty) -> Self {
                PimError::$variant(e)
            }
        }
    };
}

impl_from!(Linalg, pim_linalg::LinalgError);
impl_from!(RfData, pim_rfdata::RfDataError);
impl_from!(StateSpace, pim_statespace::StateSpaceError);
impl_from!(VectFit, pim_vectfit::VectFitError);
impl_from!(Passivity, pim_passivity::PassivityError);
impl_from!(Pdn, pim_pdn::PdnError);
impl_from!(Circuit, pim_circuit::CircuitError);

impl From<pim_core::CoreError> for PimError {
    fn from(e: pim_core::CoreError) -> Self {
        use pim_core::CoreError;
        match e {
            CoreError::Linalg(e) => PimError::Linalg(e),
            CoreError::RfData(e) => PimError::RfData(e),
            CoreError::StateSpace(e) => PimError::StateSpace(e),
            CoreError::VectFit(e) => PimError::VectFit(e),
            CoreError::Passivity(e) => PimError::Passivity(e),
            CoreError::Pdn(e) => PimError::Pdn(e),
            CoreError::Circuit(e) => PimError::Circuit(e),
            CoreError::InvalidInput(msg) => PimError::InvalidInput(msg),
        }
    }
}

/// Result alias over [`PimError`] for downstream application code.
pub type Result<T> = std::result::Result<T, PimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_errors_flatten_into_component_variants() {
        let core = pim_core::CoreError::InvalidInput("bad".into());
        match PimError::from(core) {
            PimError::InvalidInput(msg) => assert_eq!(msg, "bad"),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        let core = pim_core::CoreError::Passivity(pim_passivity::PassivityError::NotConverged {
            iterations: 3,
            sigma_max: 1.2,
            best: None,
            diagnostics: Box::default(),
        });
        let err = PimError::from(core);
        assert!(matches!(err, PimError::Passivity(_)));
        assert!(err.to_string().contains("passivity failure"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn question_mark_works_across_stage_boundaries() {
        fn cross_stage() -> Result<usize> {
            // CircuitError and PassivityError in the same function body.
            let board = pim_circuit::standard_board()?;
            let kind = pim_passivity::NormKind::Standard;
            assert_eq!(kind.to_string(), "standard");
            Ok(board.ports())
        }
        assert_eq!(cross_stage().unwrap(), 8);
    }
}
