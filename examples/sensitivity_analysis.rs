//! Sensitivity analysis of the loaded PDN (Fig. 3): the first-order
//! sensitivity of the target impedance is computed analytically (pipeline
//! sensitivity stage), verified by Monte Carlo, and fitted with Magnitude
//! Vector Fitting (pipeline weighting-model stage).
//!
//! Run with `cargo run --release --example sensitivity_analysis`.

use pim_repro::core_flow::{FlowConfig, Pipeline, ScenarioPreset};
use pim_repro::pdn::{monte_carlo_sensitivity, SensitivityOptions};
use pim_repro::PimError;

fn main() -> Result<(), PimError> {
    let sc = ScenarioPreset::Reduced.build()?;
    let mut pipeline = Pipeline::from_scenario(&sc, FlowConfig::default())?;
    let sensitivity = pipeline.sensitivity()?;
    let model = pipeline.weighting_model()?;
    let mc = monte_carlo_sensitivity(
        &sc.data,
        &sc.network,
        sc.observation_port,
        &SensitivityOptions { trials: 32, ..Default::default() },
    )?;
    println!(
        "{:>12} {:>14} {:>14} {:>14}",
        "freq (Hz)", "Xi analytic", "Xi MonteCarlo", "|Xi~| model"
    );
    for (k, &f) in sc.data.grid().freqs_hz().iter().enumerate().step_by(8) {
        // audit:allow(float-eq): the DC sample is stored as a literal 0.0 by the grid builder
        if f == 0.0 {
            continue;
        }
        let w = 2.0 * std::f64::consts::PI * f;
        println!(
            "{:>12.3e} {:>14.6e} {:>14.6e} {:>14.6e}",
            f,
            sensitivity.sensitivity[k],
            mc[k],
            model.evaluate_magnitude(w)?
        );
    }
    Ok(())
}
