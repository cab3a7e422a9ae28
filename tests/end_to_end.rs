//! Cross-crate integration tests: synthetic board -> data -> fit -> loaded
//! impedance, exercising every crate of the workspace together.

use pim_repro::circuit::board::build_board;
use pim_repro::circuit::PdnBoardSpec;
use pim_repro::core_flow::ScenarioPreset;
use pim_repro::passivity::check::assess_with_sampling;
use pim_repro::passivity::grid::{Adaptive, FrequencyGrid as SweepGrid};
use pim_repro::pdn::{analytic_sensitivity, target_impedance};
use pim_repro::rfdata::touchstone::{
    from_touchstone_string, to_touchstone_string, TouchstoneFormat,
};
use pim_repro::rfdata::FrequencyGrid;
use pim_repro::vectfit::{vector_fit, VfConfig};

#[test]
fn board_data_round_trips_through_touchstone() {
    let board = build_board(&PdnBoardSpec::default()).unwrap();
    let grid = FrequencyGrid::log_space(1e3, 2e9, 20).unwrap().with_dc();
    let data = board.circuit.scattering_parameters(&grid, 50.0).unwrap();
    let text = to_touchstone_string(&data, TouchstoneFormat::Ri);
    let back = from_touchstone_string(&text, data.ports()).unwrap();
    for k in 0..data.len() {
        assert!(back.matrix(k).max_abs_diff(data.matrix(k)) < 1e-9);
    }
}

#[test]
fn fitted_model_predicts_the_loaded_impedance() -> pim_repro::Result<()> {
    // The unified PimError lets `?` cross stage boundaries: scenario
    // construction (CoreError), fitting (VectFitError), assessment
    // (PassivityError) and impedance extraction (PdnError) below.
    let sc = ScenarioPreset::Reduced.build()?;
    let fit = vector_fit(&sc.data, None, &VfConfig { n_poles: 16, ..VfConfig::default() })?;
    assert!(fit.rms_error < 1e-2, "rms error {}", fit.rms_error);
    // The raw data is passive; the plain fit may still carry localized
    // passivity violations (this is precisely why the enforcement stage
    // exists), but its assessment must complete and report finite values.
    let rep = assess_with_sampling(
        pim_repro::runtime::global(),
        &fit.model,
        &SweepGrid::from_omegas(&sc.data.grid().omegas()),
        &Adaptive::default(),
    )?;
    assert!(rep.sigma_max.is_finite() && rep.sigma_max > 0.5);
    // The model-based loaded impedance follows the data-based one except
    // where the sensitivity amplifies the fitting error.
    let z_data = target_impedance(&sc.data, &sc.network, sc.observation_port)?;
    let sampled =
        fit.model.sample(sc.data.grid(), pim_repro::rfdata::ParameterKind::Scattering, 50.0)?;
    let z_model = target_impedance(&sampled, &sc.network, sc.observation_port)?;
    assert_eq!(z_model.values.len(), z_data.values.len());
    // At the top of the band (low sensitivity) the two agree tightly.
    let last = z_data.values.len() - 1;
    let rel = (z_model.values[last] - z_data.values[last]).abs() / z_data.values[last].abs();
    assert!(rel < 0.15, "high-frequency relative error {rel}");
    Ok(())
}

#[test]
fn sensitivity_profile_is_reproducible_across_scenario_sizes() {
    // The low-frequency sensitivity amplification must appear on every
    // preset, from the 3x3 minimal board to the paper-size one (structural
    // property, not a tuning accident).
    for preset in ScenarioPreset::ALL {
        let sc = preset.build().unwrap();
        let xi = analytic_sensitivity(&sc.data, &sc.network, sc.observation_port).unwrap();
        let contrast = xi[1] / xi[xi.len() - 1];
        assert!(contrast > 10.0, "{}: xi[1]/xi[last] = {contrast}", preset.name());
    }
}
