//! Workspace root crate: re-exports the component crates so that the
//! examples in `examples/` and the integration tests in `tests/` can use a
//! single dependency, and re-exports `pim-core`'s error as [`PimError`]:
//! it has a `From` impl for every component crate's error, so application
//! code can `?` across stage boundaries. See the individual crates for the
//! actual library API, `README.md` for the workspace layout, and `PAPER.md`
//! for the algorithm the workspace reproduces.
//!
//! # Example
//!
//! The staged [`Pipeline`](core_flow::Pipeline) is the primary entry point:
//! build a scenario (here the reduced synthetic PDN), then run exactly the
//! stages you need — each call returns an owned artifact and caches it, so
//! later stages (or a final [`report()`](core_flow::Pipeline::report)) reuse
//! the work.
//!
//! ```
//! use pim_repro::core_flow::{FitKind, FlowConfig, Pipeline, ScenarioPreset};
//! use pim_repro::vectfit::VfConfig;
//! use pim_repro::PimError;
//!
//! # fn main() -> Result<(), PimError> {
//! let scenario = ScenarioPreset::Reduced.build()?;
//!
//! // A light configuration for the doc test; FlowConfig::default() is the
//! // paper-faithful one. Its sweep grids are adaptive: they bisect toward
//! // violation bands narrower than the grid spacing.
//! let config = FlowConfig { vf: VfConfig { n_poles: 10, n_iterations: 3 }, ..Default::default() };
//! let mut pipeline = Pipeline::from_scenario(&scenario, config)?;
//!
//! // Sensitivity of the target impedance to scattering perturbations
//! // (eq. 5–6): large at low frequency, small at the top of the band.
//! let sensitivity = pipeline.sensitivity()?;
//! assert!(sensitivity.sensitivity[1] > *sensitivity.sensitivity.last().unwrap());
//!
//! // Sensitivity-weighted Vector Fitting of the scattering data.
//! let fit = pipeline.fit(FitKind::Weighted)?;
//! assert!(fit.result.rms_error.is_finite() && fit.result.rms_error < 0.1);
//!
//! // Hamiltonian passivity assessment of the fitted macromodel: the
//! // report records the provenance-tagged grid the sweep actually ran on.
//! let assessment = pipeline.assess()?;
//! assert!(assessment.report.sigma_max > 0.0);
//! assert!(!assessment.report.grid.is_empty());
//! # Ok(())
//! # }
//! ```
//!
//! The full flow — including the weighted residue-perturbation passivity
//! enforcement and the standard-norm baseline — is
//! [`core_flow::Pipeline::report`]
//! (`cargo run --release --example quickstart`), and
//! [`core_flow::Corpus::run`] classifies a batch of generated boards with
//! it.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pim_core::{CoreError as PimError, Result};

pub use pim_circuit as circuit;
pub use pim_core as core_flow;
pub use pim_linalg as linalg;
pub use pim_passivity as passivity;
pub use pim_pdn as pdn;
pub use pim_rfdata as rfdata;
pub use pim_runtime as runtime;
pub use pim_statespace as statespace;
pub use pim_vectfit as vectfit;
