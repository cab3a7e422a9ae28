//! # pim-core
//!
//! The paper's primary contribution: **sensitivity-based weighting for
//! passivity enforcement of linear macromodels** (Ubolli, Grivet-Talocia,
//! Bandinu, Chinea — DATE 2014), together with the end-to-end PDN
//! macromodeling flow that exercises it.
//!
//! * [`weighting`] — builds the sensitivity-weighted perturbation norm of
//!   eq. (14)–(21): the sensitivity samples `Ξ_k` are turned into a stable
//!   minimum-phase weighting model `Ξ̃(s)` by Magnitude Vector Fitting, the
//!   cascade `S_ij(s)·Ξ̃(s)` of eq. (18) is realized for the shared
//!   per-element dynamics, and the `(1,1)` block of its controllability
//!   Gramian (eq. 19–20) becomes the one weight that every matrix element
//!   of the enforcement norm shares (eq. 21);
//! * [`pipeline`] — the staged, observable macromodeling pipeline: typed
//!   stage handles (`sensitivity → fit → weighting_model → assess →
//!   enforce`), each returning an owned artifact, the full
//!   [`pipeline::Pipeline::report`], plus the
//!   [`pipeline::Pipeline::sweep_with`] batch runner over
//!   [`scenario::ScenarioPreset`]s;
//! * [`flow`] — the flow configuration ([`flow::FlowConfig`], whose
//!   `enforcement.sampling` is the one sampling policy of assessment and
//!   enforcement), the [`flow::FlowReport`] and the evaluation types;
//! * [`observer`] — the [`observer::FlowObserver`] hook (stage boundaries +
//!   per-iteration enforcement events) and the recording
//!   [`observer::TraceObserver`];
//! * [`scenario`] — the synthetic reproduction test case: a plane-pair PDN
//!   board (from `pim-circuit`) with the nominal die / decap / VRM
//!   termination scheme of Sec. IV, sampled on the paper's 1 kHz – 2 GHz
//!   logarithmic grid with DC point, and the [`scenario::ScenarioPreset`]
//!   registry of named board shapes;
//! * [`corpus`] — the certification-gated stress corpus: seeded board
//!   generation (via `pim_circuit::generator`), parallel batch
//!   classification ([`corpus::Corpus`]) against a 16×-audit-grid passivity
//!   gate plus a weighted-beats-standard gate, and proptest-style greedy
//!   [`corpus::minimize`]-ation of failing scenarios into self-contained
//!   replayable text fixtures.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod corpus;
pub mod flow;
pub mod observer;
pub mod pipeline;
pub mod recovery;
pub mod scenario;
pub mod weighting;

pub use corpus::{
    corpus_flow_config, minimize, Corpus, CorpusCase, CorpusClass, CorpusConfig, CorpusVerdict,
    MinimizedFixture,
};
pub use flow::{FlowConfig, FlowReport, ModelEvaluation};
pub use observer::{FlowObserver, Stage, TraceObserver};
pub use pipeline::{
    AssessmentArtifact, FitArtifact, FitKind, Pipeline, SensitivityArtifact, SweepEntry,
};
pub use recovery::{AccuracyContract, ContractConfig, RecoveryRung};
pub use scenario::{ScenarioConfig, ScenarioPreset, StandardScenario};
pub use weighting::{sensitivity_weighted_norm, SensitivityWeightedNorm};

use std::error::Error;
use std::fmt;

/// Errors produced by the macromodeling flow.
#[derive(Debug)]
pub enum CoreError {
    /// Linear algebra kernel failure.
    Linalg(pim_linalg::LinalgError),
    /// Frequency-data handling failure.
    RfData(pim_rfdata::RfDataError),
    /// Model manipulation failure.
    StateSpace(pim_statespace::StateSpaceError),
    /// Rational fitting failure.
    VectFit(pim_vectfit::VectFitError),
    /// Passivity assessment / enforcement failure.
    Passivity(pim_passivity::PassivityError),
    /// PDN analysis failure.
    Pdn(pim_pdn::PdnError),
    /// Synthetic circuit failure.
    Circuit(pim_circuit::CircuitError),
    /// Invalid configuration or inconsistent inputs.
    InvalidInput(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::RfData(e) => write!(f, "data handling failure: {e}"),
            CoreError::StateSpace(e) => write!(f, "model manipulation failure: {e}"),
            CoreError::VectFit(e) => write!(f, "rational fitting failure: {e}"),
            CoreError::Passivity(e) => write!(f, "passivity failure: {e}"),
            CoreError::Pdn(e) => write!(f, "pdn analysis failure: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit failure: {e}"),
            CoreError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            CoreError::RfData(e) => Some(e),
            CoreError::StateSpace(e) => Some(e),
            CoreError::VectFit(e) => Some(e),
            CoreError::Passivity(e) => Some(e),
            CoreError::Pdn(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            CoreError::InvalidInput(_) => None,
        }
    }
}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for CoreError {
            fn from(e: $ty) -> Self {
                CoreError::$variant(e)
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

/// Result alias used by every fallible routine in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
