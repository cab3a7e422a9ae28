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
        &Adaptive,
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

/// The Hamiltonian witness brackets every unit crossing of `σ_max` that a
/// dense sweep sees. On fitted PDN models `A21 = Cᵀ·S⁻¹·C` exceeds `A12` by
/// 1e15 to 1e18; without balancing the two blocks the eigensolver moved 11 of
/// these 14 crossings of the reduced preset's standard fit off the
/// imaginary axis, past the crossing filter, and the adaptive sampling never
/// refined around them.
#[test]
fn hamiltonian_crossings_bracket_every_sweep_crossing() -> pim_repro::Result<()> {
    use pim_repro::core_flow::{FitKind, Pipeline};
    use pim_repro::passivity::check::{hamiltonian_crossings, singular_value_sweep_with};
    use pim_repro::statespace::StateSpace;

    let preset = ScenarioPreset::Reduced;
    let sc = preset.build()?;
    let fit = Pipeline::from_scenario(&sc, preset.flow_config())?.fit(FitKind::Standard)?;
    let model = &fit.result.model;
    let crossings = hamiltonian_crossings(&StateSpace::from_pole_residue(model)?)?;
    let points = 20_000;
    let top = 1.5 * sc.data.grid().max_omega();
    let omegas: Vec<f64> = (0..points).map(|k| top * (k as f64 + 0.5) / points as f64).collect();
    let sigmas = singular_value_sweep_with(pim_repro::runtime::global(), model, &omegas)?;
    let mut sign_changes = 0;
    for k in 1..points {
        if (sigmas[k - 1][0] > 1.0) != (sigmas[k][0] > 1.0) {
            sign_changes += 1;
            assert!(
                crossings.iter().any(|&w| (omegas[k - 1]..=omegas[k]).contains(&w)),
                "sigma_max crosses one in [{}, {}] rad/s but no Hamiltonian crossing lies there",
                omegas[k - 1],
                omegas[k]
            );
        }
    }
    assert!(sign_changes >= 10, "the fit must violate passivity: {sign_changes} crossings");
    Ok(())
}

/// The real Francis eigensolver behind `hamiltonian_crossings` against a
/// complex Schur oracle on the weighted fits of the presets the benchmark
/// runs: the balanced Hamiltonian is rebuilt from `hamiltonian_matrix`, its
/// complex Schur eigenvalues pass the same filter (|Re λ| ≤ 1e-4·|λ|) and
/// merge (1e-9 relative), and the two crossing lists agree in count and
/// within 1e-6 relative.
#[test]
fn hamiltonian_crossings_match_a_complex_schur_oracle() -> pim_repro::Result<()> {
    use pim_repro::core_flow::{FitKind, Pipeline};
    use pim_repro::linalg::schur::complex_schur;
    use pim_repro::passivity::check::{hamiltonian_crossings, hamiltonian_matrix};
    use pim_repro::statespace::StateSpace;

    let presets = [
        ScenarioPreset::Reduced,
        ScenarioPreset::DenseDecap,
        ScenarioPreset::BulkDecap,
        ScenarioPreset::Paper,
        ScenarioPreset::MultiVrm,
    ];
    for preset in presets {
        let sc = preset.build()?;
        let fit = Pipeline::from_scenario(&sc, preset.flow_config())?.fit(FitKind::Weighted)?;
        let sys = StateSpace::from_pole_residue(&fit.result.model)?;
        let mut m = hamiltonian_matrix(&sys)?;
        let n = m.rows() / 2;
        let (mut a12, mut a21) = (0.0_f64, 0.0_f64);
        for i in 0..n {
            for j in 0..n {
                a12 = a12.max(m[(i, n + j)].abs());
                a21 = a21.max(m[(n + i, j)].abs());
            }
        }
        let s = (0.5 * (a21 / a12).log2()).round().exp2();
        for i in 0..n {
            for j in 0..n {
                m[(i, n + j)] *= s;
                m[(n + i, j)] /= s;
            }
        }
        let mut oracle: Vec<f64> = complex_schur(&m.to_complex())?
            .eigenvalues()
            .into_iter()
            .filter(|e| e.im > 0.0 && e.re.abs() <= 1e-4 * e.abs())
            .map(|e| e.im)
            .collect();
        oracle.sort_by(f64::total_cmp);
        oracle.dedup_by(|w, last| (*w - *last).abs() <= 1e-9 * w.max(1.0));

        let crossings = hamiltonian_crossings(&sys)?;
        let name = preset.name();
        assert!(!oracle.is_empty(), "{name}: the weighted fit must cross one");
        assert_eq!(crossings.len(), oracle.len(), "{name}: {crossings:?} vs {oracle:?}");
        for (w, o) in crossings.iter().zip(&oracle) {
            assert!((w - o).abs() <= 1e-6 * o, "{name}: crossing {w} vs oracle {o}");
        }
    }
    Ok(())
}
