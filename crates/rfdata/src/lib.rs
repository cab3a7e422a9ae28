//! # pim-rfdata
//!
//! Frequency-domain port-parameter data handling for the DATE 2014
//! sensitivity-weighted passivity enforcement reproduction.
//!
//! The crate provides:
//!
//! * [`FrequencyGrid`] — logarithmic frequency sampling with an optional DC
//!   point, matching the sampling plan of the paper's test case
//!   (1 kHz – 2 GHz, logarithmic, DC included);
//! * [`NetworkData`] — tabulated multiport network parameters (scattering,
//!   admittance or impedance matrices versus frequency), convertible to
//!   impedance, plus the matrix conversions between the three
//!   representations;
//! * [`touchstone`] — Touchstone v1 reader/writer so synthetic data sets can
//!   be exported to and imported from standard EDA tooling;
//! * [`metrics`] — error norms between two tabulated responses (per
//!   frequency, RMS, relative), used to quantify macromodel accuracy.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod frequency;
pub mod metrics;
pub mod network;
pub mod touchstone;

pub use frequency::FrequencyGrid;
pub use network::{NetworkData, ParameterKind};

use std::error::Error;
use std::fmt;

/// Errors produced while building, converting or serializing port data.
#[derive(Debug)]
pub enum RfDataError {
    /// The underlying linear algebra kernel failed (singular conversion, ...).
    Linalg(pim_linalg::LinalgError),
    /// The data set is structurally inconsistent (mismatched lengths, empty).
    Inconsistent(String),
    /// A Touchstone file could not be parsed.
    Parse(String),
    /// An I/O error occurred while reading or writing a file.
    Io(std::io::Error),
}

impl fmt::Display for RfDataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RfDataError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            RfDataError::Inconsistent(msg) => write!(f, "inconsistent network data: {msg}"),
            RfDataError::Parse(msg) => write!(f, "touchstone parse error: {msg}"),
            RfDataError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for RfDataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RfDataError::Linalg(e) => Some(e),
            RfDataError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pim_linalg::LinalgError> for RfDataError {
    fn from(e: pim_linalg::LinalgError) -> Self {
        RfDataError::Linalg(e)
    }
}

impl From<std::io::Error> for RfDataError {
    fn from(e: std::io::Error) -> Self {
        RfDataError::Io(e)
    }
}

/// Result alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, RfDataError>;
