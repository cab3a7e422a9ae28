//! The synthetic reproduction scenario: board, data set and nominal
//! termination scheme matching Sec. IV of the paper.

use crate::{CoreError, Result};
use pim_circuit::board::{PdnBoardSpec, SyntheticPdn};
use pim_circuit::generator::{DecapPart, DieModel, GeneratedBoard, VrmModel};
use pim_pdn::{Termination, TerminationNetwork};
use pim_rfdata::{FrequencyGrid, NetworkData};

// The paper's band (Sec. IV: 1 kHz – 2 GHz), scattering reference
// resistance (50 Ω) and total switching current split across the die ports
// (1 A), the same for every scenario. The target impedance and the
// sensitivity divide the excitation by its own total, so no result depends
// on the current beyond rounding.
const F_MIN_HZ: f64 = 1e3;
const F_MAX_HZ: f64 = 2e9;
const Z_REF: f64 = 50.0;
const TOTAL_CURRENT: f64 = 1.0;

/// Parameters of a scenario: the board with its per-port electrical models
/// and its sample count. Every scenario is solved over the paper's
/// 1 kHz – 2 GHz band against a 50 Ω reference and loaded with its 1 A
/// switching current. Presets and corpus boards alike are built from this
/// record.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Board description (grid size, electrical parameters, port placement)
    /// with one decap model per decap port, the VRM model and the die block
    /// model.
    pub board: GeneratedBoard,
    /// Number of logarithmically spaced frequency samples (the DC point is
    /// added on top, as in the paper's data set).
    pub frequency_samples: usize,
}

/// The built-in scenario registry: named board/termination shapes the
/// pipeline can build and sweep without hand-assembling a
/// [`ScenarioConfig`].
///
/// `Reduced` and `Paper` are the historical test-size and paper-size
/// configurations; the others open scenario diversity (decap-dense boards,
/// multiple VRMs, a minimal smoke board) so batch runs exercise the
/// weighted-vs-standard comparison across structurally different PDNs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioPreset {
    /// The reduced test-size board (4×4 grid, 2 die + 1 decap + 1 VRM,
    /// 81 frequency samples).
    Reduced,
    /// The paper-size board (6×6 grid, 4 die + 3 decap + 1 VRM,
    /// 161 frequency samples) — the default [`PdnBoardSpec`].
    Paper,
    /// A densely decoupled board: the reduced 4×4 grid with three decap
    /// banks spread around the die instead of one.
    DenseDecap,
    /// A multi-VRM board: 5×5 grid fed by two VRM ports on opposite corners.
    MultiVrm,
    /// A bulk-regulation variant of the reduced board: large
    /// electrolytic-style decap banks, a weaker VRM and a heavier die load.
    BulkDecap,
    /// The minimal smoke board: a 3×3 grid with one die, one decap and one
    /// VRM port. Near-exact fits put its macromodels right on the passivity
    /// boundary, which used to break the Hamiltonian eigensolve's QR
    /// iteration at fitting orders around 18 (non-convergence); exceptional
    /// shifts after a stall fixed that, and the preset now runs the full
    /// flow end to end.
    Minimal,
}

impl ScenarioPreset {
    /// Every built-in preset, in registry order.
    pub const ALL: [ScenarioPreset; 6] = [
        ScenarioPreset::Reduced,
        ScenarioPreset::Paper,
        ScenarioPreset::DenseDecap,
        ScenarioPreset::MultiVrm,
        ScenarioPreset::BulkDecap,
        ScenarioPreset::Minimal,
    ];

    /// Stable lowercase identifier (for reports and CLI surfaces).
    pub fn name(self) -> &'static str {
        match self {
            ScenarioPreset::Reduced => "reduced",
            ScenarioPreset::Paper => "paper",
            ScenarioPreset::DenseDecap => "dense-decap",
            ScenarioPreset::MultiVrm => "multi-vrm",
            ScenarioPreset::BulkDecap => "bulk-decap",
            ScenarioPreset::Minimal => "minimal",
        }
    }

    /// The scenario configuration this preset stands for: a literal board
    /// with the paper's nominal terminations (Sec. IV) unless the preset
    /// overrides them, on the 1 kHz – 2 GHz band.
    pub fn config(self) -> ScenarioConfig {
        let mut decap = DecapPart { capacitance: 10e-6, esr: 3e-3, esl: 0.6e-9 };
        let mut vrm = VrmModel { resistance: 0.8e-3, inductance: 15e-9 };
        let mut die = DieModel { resistance: 30e-3, capacitance: 60e-9 };
        let mut frequency_samples = 80;
        let reduced = PdnBoardSpec {
            nx: 4,
            ny: 4,
            die_ports: vec![(1, 1), (2, 2)],
            decap_ports: vec![(0, 3)],
            vrm_ports: vec![(3, 0)],
            ..PdnBoardSpec::default()
        };
        let spec = match self {
            ScenarioPreset::Reduced => reduced,
            ScenarioPreset::Paper => {
                frequency_samples = 160;
                PdnBoardSpec::default()
            }
            // Three decap banks spread around the die instead of one.
            ScenarioPreset::DenseDecap => {
                PdnBoardSpec { decap_ports: vec![(0, 3), (3, 3), (0, 0)], ..reduced }
            }
            ScenarioPreset::MultiVrm => {
                // Two VRM phases: each leg is individually weaker than the
                // single nominal regulator.
                vrm = VrmModel { resistance: 1.5e-3, inductance: 22e-9 };
                PdnBoardSpec {
                    nx: 5,
                    ny: 5,
                    die_ports: vec![(2, 2), (2, 1)],
                    decap_ports: vec![(0, 4), (4, 4)],
                    vrm_ports: vec![(0, 0), (4, 0)],
                    ..PdnBoardSpec::default()
                }
            }
            ScenarioPreset::BulkDecap => {
                // Bulk electrolytic-style decoupling, a weaker regulator and
                // a heavier die load on the reduced board.
                decap = DecapPart { capacitance: 47e-6, esr: 8e-3, esl: 1.2e-9 };
                vrm = VrmModel { resistance: 2e-3, inductance: 40e-9 };
                die = DieModel { resistance: 50e-3, capacitance: 100e-9 };
                reduced
            }
            ScenarioPreset::Minimal => PdnBoardSpec {
                nx: 3,
                ny: 3,
                die_ports: vec![(1, 1)],
                decap_ports: vec![(0, 2)],
                vrm_ports: vec![(2, 0)],
                ..PdnBoardSpec::default()
            },
        };
        ScenarioConfig {
            board: GeneratedBoard {
                seed: 0,
                decap_models: vec![decap; spec.decap_ports.len()],
                spec,
                vrm,
                die,
            },
            frequency_samples,
        }
    }

    /// The recommended flow configuration for this preset:
    /// [`crate::flow::FlowConfig::default`], whose adaptive sampling suits
    /// every preset (all carry sharp resonances, and sub-grid violation
    /// bands were the root cause of the Fig. 5 anomaly).
    pub fn flow_config(self) -> crate::flow::FlowConfig {
        crate::flow::FlowConfig::default()
    }

    /// Builds the preset scenario.
    ///
    /// # Errors
    ///
    /// See [`StandardScenario::build`].
    pub fn build(self) -> Result<StandardScenario> {
        StandardScenario::build(self.config())
    }
}

/// The assembled reproduction scenario: the synthetic "field-solver" data set
/// and the nominal termination network.
#[derive(Debug, Clone)]
pub struct StandardScenario {
    /// The board the data was generated from.
    pub pdn: SyntheticPdn,
    /// Tabulated scattering parameters (the macromodeling input).
    pub data: NetworkData,
    /// The nominal termination scheme (decaps, VRM, die blocks, excitation).
    pub network: TerminationNetwork,
    /// The die port at which the target impedance is observed.
    pub observation_port: usize,
}

impl StandardScenario {
    /// Builds the scenario: builds the board, solves it over the frequency
    /// grid, and assembles the termination network following the paper's
    /// Sec. IV (RL at the VRM ports, one vendor-style decap model per decap
    /// port, series-RC die models carrying the total excitation split
    /// equally, observation at the first die port). This is the one
    /// assembler of presets and corpus boards alike.
    ///
    /// # Errors
    ///
    /// Propagates board construction, solver and termination assembly
    /// failures.
    pub fn build(config: ScenarioConfig) -> Result<Self> {
        let board = &config.board;
        let pdn = board.build()?;
        let grid =
            FrequencyGrid::log_space(F_MIN_HZ, F_MAX_HZ, config.frequency_samples)?.with_dc();
        let data = pdn.circuit.scattering_parameters(&grid, Z_REF)?;

        let mut terminations = vec![Termination::Open; pdn.ports()];
        for &p in &pdn.die_ports {
            terminations[p] = Termination::DieBlock {
                resistance: board.die.resistance,
                capacitance: board.die.capacitance,
            };
        }
        for (&p, model) in pdn.decap_ports.iter().zip(&board.decap_models) {
            terminations[p] = Termination::Decap {
                capacitance: model.capacitance,
                esr: model.esr,
                esl: model.esl,
            };
        }
        for &p in &pdn.vrm_ports {
            terminations[p] = Termination::SeriesRl {
                resistance: board.vrm.resistance,
                inductance: board.vrm.inductance,
            };
        }
        let observation_port = *pdn
            .die_ports
            .first()
            .ok_or_else(|| CoreError::InvalidInput("the board defines no die port".into()))?;
        let network = TerminationNetwork::new(terminations)?
            .with_excitation(pdn.die_ports.clone(), TOTAL_CURRENT)?;
        Ok(StandardScenario { pdn, data, network, observation_port })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_pdn::{analytic_sensitivity, target_impedance};

    #[test]
    fn reduced_scenario_builds_and_is_consistent() {
        let sc = ScenarioPreset::Reduced.build().unwrap();
        assert_eq!(sc.data.ports(), sc.pdn.ports());
        assert_eq!(sc.network.ports(), sc.data.ports());
        assert_eq!(sc.data.len(), ScenarioPreset::Reduced.config().frequency_samples + 1); // + DC
        assert_eq!((sc.data.grid().freqs_hz()[0]).to_bits(), 0.0f64.to_bits());
        assert!(sc.pdn.die_ports.contains(&sc.observation_port));
    }

    #[test]
    fn reduced_scenario_exhibits_the_paper_phenomenology() {
        let sc = ScenarioPreset::Reduced.build().unwrap();
        // Nominal target impedance: milliohm-level at low frequency (VRM
        // path), rising toward high frequency.
        let zt = target_impedance(&sc.data, &sc.network, sc.observation_port).unwrap();
        let mags = zt.magnitudes();
        assert!(mags[1] < 0.1, "low-frequency target impedance {}", mags[1]);
        assert!(mags[mags.len() - 1] > mags[1]);
        // The sensitivity must fall by orders of magnitude from the low end
        // of the band to the high end (Fig. 3 of the paper).
        let xi = analytic_sensitivity(&sc.data, &sc.network, sc.observation_port).unwrap();
        let low = xi[1];
        let high = xi[xi.len() - 1];
        assert!(low > 30.0 * high, "sensitivity contrast too small: low {low}, high {high}");
    }

    #[test]
    fn presets_build_and_keep_distinct_names() {
        let mut names = std::collections::BTreeSet::new();
        for preset in ScenarioPreset::ALL {
            assert!(names.insert(preset.name()), "duplicate preset name {}", preset.name());
        }
        assert_eq!(ScenarioPreset::Reduced.config().board.spec.nx, 4);
        assert_eq!(ScenarioPreset::Paper.config().board.spec.nx, 6);
        // The cheap presets must assemble; the paper-size board is built by
        // the end-to-end sensitivity test, which runs every preset.
        for preset in [
            ScenarioPreset::DenseDecap,
            ScenarioPreset::MultiVrm,
            ScenarioPreset::BulkDecap,
            ScenarioPreset::Minimal,
        ] {
            let sc = preset.build().unwrap();
            assert_eq!(sc.network.ports(), sc.data.ports());
            assert!(sc.pdn.die_ports.contains(&sc.observation_port));
        }
        assert_eq!(ScenarioPreset::DenseDecap.build().unwrap().pdn.decap_ports.len(), 3);
        assert_eq!(ScenarioPreset::MultiVrm.build().unwrap().pdn.vrm_ports.len(), 2);
        assert_eq!(ScenarioPreset::Minimal.build().unwrap().pdn.ports(), 3);
    }

    #[test]
    fn presets_recommend_the_adaptive_sampling_strategy() {
        let default = crate::flow::FlowConfig::default();
        assert_eq!(default.enforcement.sampling.name(), "adaptive");
        for preset in ScenarioPreset::ALL {
            let config = preset.flow_config();
            assert_eq!(config.enforcement.sampling.name(), "adaptive");
            // Everything else stays at the paper-faithful defaults.
            assert_eq!(config.enforcement.sweep_points, default.enforcement.sweep_points);
            assert_eq!(config.vf.n_poles, default.vf.n_poles);
        }
    }

    #[test]
    fn scenario_with_invalid_board_is_rejected() {
        let mut cfg = ScenarioPreset::Reduced.config();
        cfg.board.spec.die_ports = vec![];
        assert!(StandardScenario::build(cfg).is_err());
        let mut cfg = ScenarioPreset::Reduced.config();
        cfg.frequency_samples = 1;
        assert!(StandardScenario::build(cfg).is_err());
    }
}
