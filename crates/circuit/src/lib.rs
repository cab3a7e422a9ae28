//! # pim-circuit
//!
//! Frequency-domain circuit analysis and synthetic PDN generation for the
//! DATE 2014 sensitivity-weighted passivity enforcement reproduction.
//!
//! The paper's evaluation uses field-solver scattering data of a proprietary
//! Intel package PDN; this crate provides the substitute substrate described
//! in `DESIGN.md`:
//!
//! * [`mna`] — a nodal-admittance frequency-domain solver for RLCG netlists
//!   with ports, returning tabulated impedance or scattering parameters;
//! * [`board`] — a parametric plane-pair PDN generator (2-D RLGC cavity grid
//!   with via parasitics, die/decap/VRM port placement) whose scattering
//!   responses have the same qualitative structure as the paper's test case:
//!   smooth, low-loss, near-short at low frequency and mildly resonant toward
//!   the GHz range;
//! * [`generator`] — the seeded [`generator::BoardGenerator`]: samples the
//!   full board parameter space (grid size, port counts and placement, decap
//!   libraries with mixed ESL/ESR populations, multi-VRM feeds, package+die
//!   stacking) deterministically from a `(config, seed)` pair — the scenario
//!   source of the stress-corpus harness in `pim-core` — and defines
//!   [`generator::GeneratedBoard`], the board-plus-terminations record that
//!   `pim-core` builds every scenario from (presets write it literally).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod board;
pub mod generator;
pub mod mna;

pub use board::{PdnBoardSpec, StackStage, SyntheticPdn};
pub use generator::{
    default_decap_library, BoardGenerator, DecapPart, DieModel, GeneratedBoard, GeneratorConfig,
    VrmModel,
};
pub use mna::{Circuit, Element};

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving circuits.
#[derive(Debug)]
pub enum CircuitError {
    /// The underlying linear algebra kernel failed (singular nodal matrix).
    Linalg(pim_linalg::LinalgError),
    /// Frequency-data handling failed.
    RfData(pim_rfdata::RfDataError),
    /// The netlist or the analysis request is invalid.
    InvalidInput(String),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CircuitError::RfData(e) => write!(f, "data handling failure: {e}"),
            CircuitError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl Error for CircuitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CircuitError::Linalg(e) => Some(e),
            CircuitError::RfData(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pim_linalg::LinalgError> for CircuitError {
    fn from(e: pim_linalg::LinalgError) -> Self {
        CircuitError::Linalg(e)
    }
}

impl From<pim_rfdata::RfDataError> for CircuitError {
    fn from(e: pim_rfdata::RfDataError) -> Self {
        CircuitError::RfData(e)
    }
}

/// Result alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
