//! Parametric synthetic PDN board generator.
//!
//! The paper's test structure is "a single power domain at small form factor,
//! few layers package" known through field-solver scattering data. As
//! documented in `DESIGN.md`, this module provides the synthetic substitute:
//! a power/ground plane pair modelled as a 2-D grid of RLGC cells (the
//! standard cavity / transmission-plane model), with series via parasitics at
//! every port and a configurable placement of die, decoupling-capacitor and
//! VRM ports. Its scattering responses share the features that drive the
//! paper's phenomenology: smooth and low-loss over the band, collectively
//! near-open (capacitive) at low frequency — which makes `(I + S)` nearly
//! rank deficient and hence the loaded target impedance extremely sensitive
//! to scattering errors — and mildly resonant toward the GHz range.

use crate::mna::{Circuit, Element};
use crate::{CircuitError, Result};

/// One series stage of the package/die attachment stack: a ball, bump or
/// interposer level between the board plane and a die pad.
///
/// Cascading stages models the paper's "few layers package" vertically: each
/// stage adds a series L/R segment and, optionally, a package-level
/// decoupling capacitance at the intermediate node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackStage {
    /// Series inductance of the stage (henry, positive).
    pub inductance: f64,
    /// Series resistance of the stage (ohms, positive).
    pub resistance: f64,
    /// Decoupling capacitance from the intermediate node to the return plane
    /// (farad); `0.0` means no capacitor at this level.
    pub shunt_capacitance: f64,
}

/// Geometric and electrical parameters of the plane-pair PDN.
#[derive(Debug, Clone, PartialEq)]
pub struct PdnBoardSpec {
    /// Number of grid cells along x.
    pub nx: usize,
    /// Number of grid cells along y.
    pub ny: usize,
    /// Series inductance of one grid segment (henry).
    pub segment_inductance: f64,
    /// Series resistance of one grid segment (ohms).
    pub segment_resistance: f64,
    /// Plane-pair capacitance of one cell to the return plane (farad).
    pub cell_capacitance: f64,
    /// Dielectric loss conductance of one cell (siemens).
    pub cell_conductance: f64,
    /// Series inductance of every port via / ball / bump connection (henry).
    pub via_inductance: f64,
    /// Series resistance of every port via connection (ohms).
    pub via_resistance: f64,
    /// Grid coordinates `(ix, iy)` of the die (on-package) ports.
    pub die_ports: Vec<(usize, usize)>,
    /// Grid coordinates of the decoupling-capacitor ports.
    pub decap_ports: Vec<(usize, usize)>,
    /// Grid coordinates of the VRM port(s).
    pub vrm_ports: Vec<(usize, usize)>,
    /// Package+die attachment stack cascaded between the plane and every
    /// **die** pad (closest-to-plane stage first); decap and VRM ports always
    /// attach through their via parasitics alone. Empty (the default)
    /// reproduces the historical direct-attach boards bit for bit.
    pub die_stack: Vec<StackStage>,
}

impl Default for PdnBoardSpec {
    /// The paper-size board (6×6 cells, 4 die + 3 decap + 1 VRM ports): the
    /// synthetic stand-in for the paper's industrial test case.
    fn default() -> Self {
        PdnBoardSpec {
            nx: 6,
            ny: 6,
            segment_inductance: 0.3e-9,
            segment_resistance: 8e-3,
            cell_capacitance: 200e-12,
            cell_conductance: 5e-5,
            via_inductance: 0.1e-9,
            via_resistance: 4e-3,
            die_ports: vec![(2, 2), (3, 2), (2, 3), (3, 3)],
            decap_ports: vec![(0, 0), (5, 0), (0, 5)],
            vrm_ports: vec![(5, 5)],
            die_stack: Vec::new(),
        }
    }
}

/// A synthetic PDN: the circuit plus the port bookkeeping needed to assemble
/// the paper's nominal termination scheme (die / decap / VRM / open roles).
#[derive(Debug, Clone)]
pub struct SyntheticPdn {
    /// The RLCG netlist with one port per pad.
    pub circuit: Circuit,
    /// Port indices (into the scattering matrix) of the die ports.
    pub die_ports: Vec<usize>,
    /// Port indices of the decoupling-capacitor ports.
    pub decap_ports: Vec<usize>,
    /// Port indices of the VRM ports.
    pub vrm_ports: Vec<usize>,
}

impl SyntheticPdn {
    /// Total number of ports.
    pub fn ports(&self) -> usize {
        self.die_ports.len() + self.decap_ports.len() + self.vrm_ports.len()
    }
}

/// Builds the plane-pair PDN described by `spec`.
///
/// Ports are numbered die ports first, then decap ports, then VRM ports, in
/// the order given in the spec.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidInput`] for an empty grid, out-of-range
/// port coordinates, duplicated port locations or non-physical element
/// values.
pub fn build_board(spec: &PdnBoardSpec) -> Result<SyntheticPdn> {
    if spec.nx < 2 || spec.ny < 2 {
        return Err(CircuitError::InvalidInput("the plane grid must be at least 2x2".into()));
    }
    if spec.die_ports.is_empty() || spec.vrm_ports.is_empty() {
        return Err(CircuitError::InvalidInput(
            "the board needs at least one die port and one VRM port".into(),
        ));
    }
    let mut circuit = Circuit::new();
    // Allocate one node per grid point, row-major.
    let mut grid_nodes = vec![0usize; spec.nx * spec.ny];
    for node in grid_nodes.iter_mut() {
        *node = circuit.node();
    }
    let at = |ix: usize, iy: usize| grid_nodes[ix * spec.ny + iy];

    // Series segments along x and y.
    for ix in 0..spec.nx {
        for iy in 0..spec.ny {
            if ix + 1 < spec.nx {
                circuit.add(Element::Inductor {
                    a: at(ix, iy),
                    b: at(ix + 1, iy),
                    henry: spec.segment_inductance,
                    series_resistance: spec.segment_resistance,
                })?;
            }
            if iy + 1 < spec.ny {
                circuit.add(Element::Inductor {
                    a: at(ix, iy),
                    b: at(ix, iy + 1),
                    henry: spec.segment_inductance,
                    series_resistance: spec.segment_resistance,
                })?;
            }
            circuit.add(Element::Capacitor {
                a: at(ix, iy),
                b: 0,
                farad: spec.cell_capacitance,
                shunt_conductance: spec.cell_conductance,
            })?;
        }
    }

    // Port connections through via parasitics. Die ports additionally climb
    // the package+die stack: plane → stage 1 → … → stage n → via → pad.
    let mut seen = std::collections::BTreeSet::new();
    let connect_ports = |circuit: &mut Circuit,
                         coords: &[(usize, usize)],
                         stack: &[StackStage],
                         seen: &mut std::collections::BTreeSet<(usize, usize)>|
     -> Result<Vec<usize>> {
        let mut indices = Vec::with_capacity(coords.len());
        for &(ix, iy) in coords {
            if ix >= spec.nx || iy >= spec.ny {
                return Err(CircuitError::InvalidInput(format!(
                    "port location ({ix}, {iy}) outside the {}x{} grid",
                    spec.nx, spec.ny
                )));
            }
            if !seen.insert((ix, iy)) {
                return Err(CircuitError::InvalidInput(format!(
                    "port location ({ix}, {iy}) used more than once"
                )));
            }
            let mut attach = at(ix, iy);
            for stage in stack {
                let level = circuit.node();
                circuit.add(Element::Inductor {
                    a: level,
                    b: attach,
                    henry: stage.inductance,
                    series_resistance: stage.resistance,
                })?;
                if stage.shunt_capacitance > 0.0 {
                    circuit.add(Element::Capacitor {
                        a: level,
                        b: 0,
                        farad: stage.shunt_capacitance,
                        shunt_conductance: 0.0,
                    })?;
                } else if stage.shunt_capacitance < 0.0 {
                    return Err(CircuitError::InvalidInput(format!(
                        "stack stage shunt capacitance must be non-negative, got {}",
                        stage.shunt_capacitance
                    )));
                }
                attach = level;
            }
            let pad = circuit.node();
            circuit.add(Element::Inductor {
                a: pad,
                b: attach,
                henry: spec.via_inductance,
                series_resistance: spec.via_resistance,
            })?;
            indices.push(circuit.port_count());
            circuit.add_port(pad)?;
        }
        Ok(indices)
    };

    let die_ports = connect_ports(&mut circuit, &spec.die_ports, &spec.die_stack, &mut seen)?;
    let decap_ports = connect_ports(&mut circuit, &spec.decap_ports, &[], &mut seen)?;
    let vrm_ports = connect_ports(&mut circuit, &spec.vrm_ports, &[], &mut seen)?;

    Ok(SyntheticPdn { circuit, die_ports, decap_ports, vrm_ports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_rfdata::FrequencyGrid;

    fn small_spec() -> PdnBoardSpec {
        PdnBoardSpec {
            nx: 3,
            ny: 3,
            die_ports: vec![(1, 1)],
            decap_ports: vec![(0, 0)],
            vrm_ports: vec![(2, 2)],
            ..PdnBoardSpec::default()
        }
    }

    #[test]
    fn builds_and_counts_ports() {
        let pdn = build_board(&small_spec()).unwrap();
        assert_eq!(pdn.ports(), 3);
        assert_eq!(pdn.die_ports, vec![0]);
        assert_eq!(pdn.decap_ports, vec![1]);
        assert_eq!(pdn.vrm_ports, vec![2]);
        assert_eq!(pdn.circuit.port_count(), 3);
        // 9 grid nodes + 3 pads.
        assert_eq!(pdn.circuit.node_count(), 12);
    }

    #[test]
    fn default_board_matches_paper_structure() {
        let pdn = build_board(&PdnBoardSpec::default()).unwrap();
        assert_eq!(pdn.ports(), 8);
        assert_eq!(pdn.die_ports.len(), 4);
        assert_eq!(pdn.decap_ports.len(), 3);
        assert_eq!(pdn.vrm_ports.len(), 1);
    }

    #[test]
    fn scattering_is_smooth_passive_and_reciprocal() {
        let pdn = build_board(&small_spec()).unwrap();
        let grid = FrequencyGrid::log_space(1e3, 2e9, 30).unwrap().with_dc();
        let s = pdn.circuit.scattering_parameters(&grid, 50.0).unwrap();
        assert_eq!(s.ports(), 3);
        for k in 0..s.len() {
            let m = s.matrix(k);
            // Reciprocity of the RLC network.
            assert!((m[(0, 1)] - m[(1, 0)]).abs() < 1e-9);
            // Passivity of the raw data: all singular values at most one.
            let sv = pim_linalg::svd::singular_values(m).unwrap();
            assert!(sv[0] <= 1.0 + 1e-9, "sigma {} at sample {k}", sv[0]);
        }
        // Low-frequency behaviour: the plane pair ties all ports to one
        // almost-open capacitive node, so S approaches (2/P)·J − I — the
        // matrix whose eigenvalues are +1 (common mode) and −1 (P−1 times),
        // which is exactly what makes (I + S) ill conditioned and the loaded
        // impedance highly sensitive (Sec. II of the paper).
        let low = s.matrix(1);
        assert!((low[(0, 0)].re - (2.0 / 3.0 - 1.0)).abs() < 0.2, "S11 {}", low[(0, 0)].re);
        assert!((low[(0, 1)].re - 2.0 / 3.0).abs() < 0.2, "S12 {}", low[(0, 1)].re);
    }

    #[test]
    fn low_frequency_input_resistance_through_vrm_is_milliohms() {
        // Terminate nothing, but check the transfer impedance between a die
        // port and the VRM port at low frequency: it is dominated by the
        // spreading resistance of the plane (a few mΩ), which is what makes
        // the loaded target impedance small and extremely sensitive.
        let pdn = build_board(&small_spec()).unwrap();
        let z = pdn.circuit.port_impedance_at(2.0 * std::f64::consts::PI * 1e4).unwrap();
        let die = pdn.die_ports[0];
        let vrm = pdn.vrm_ports[0];
        // Difference between self and transfer impedance reflects the metal
        // path resistance/inductance, small but nonzero.
        let path = z[(die, die)] - z[(die, vrm)];
        assert!(path.abs() < 1.0, "path impedance unexpectedly large: {}", path.abs());
        assert!(path.abs() > 1e-4);
    }

    #[test]
    fn die_stack_cascades_under_die_pads_only() {
        let mut spec = small_spec();
        spec.die_stack = vec![
            StackStage { inductance: 0.2e-9, resistance: 2e-3, shunt_capacitance: 5e-9 },
            StackStage { inductance: 0.1e-9, resistance: 1e-3, shunt_capacitance: 0.0 },
        ];
        let stacked = build_board(&spec).unwrap();
        let flat = build_board(&small_spec()).unwrap();
        assert_eq!(stacked.ports(), flat.ports());
        // One die port, two stages: +2 intermediate nodes, +2 inductors and
        // +1 package capacitor over the flat board.
        assert_eq!(stacked.circuit.node_count(), flat.circuit.node_count() + 2);
        assert_eq!(stacked.circuit.elements().len(), flat.circuit.elements().len() + 3);
        // A pure series stack (no package decoupling) raises the die
        // self-inductance: at high frequency the die-port input impedance
        // magnitude must exceed the flat board's. (With a package capacitor
        // the comparison flips — that is what decoupling is for.)
        let mut series_only = small_spec();
        series_only.die_stack =
            vec![StackStage { inductance: 0.2e-9, resistance: 2e-3, shunt_capacitance: 0.0 }];
        let series_board = build_board(&series_only).unwrap();
        let omega = 2.0 * std::f64::consts::PI * 1e9;
        let z_stacked = series_board.circuit.port_impedance_at(omega).unwrap();
        let z_flat = flat.circuit.port_impedance_at(omega).unwrap();
        let die = series_board.die_ports[0];
        assert!(z_stacked[(die, die)].abs() > z_flat[(die, die)].abs());
        // Still passive data.
        let grid = FrequencyGrid::log_space(1e3, 2e9, 20).unwrap().with_dc();
        let s = stacked.circuit.scattering_parameters(&grid, 50.0).unwrap();
        for k in 0..s.len() {
            let sv = pim_linalg::svd::singular_values(s.matrix(k)).unwrap();
            assert!(sv[0] <= 1.0 + 1e-9, "sigma {} at sample {k}", sv[0]);
        }
        // Negative stack values are rejected.
        let mut bad = small_spec();
        bad.die_stack =
            vec![StackStage { inductance: 1e-9, resistance: 1e-3, shunt_capacitance: -1.0 }];
        assert!(build_board(&bad).is_err());
        let mut bad = small_spec();
        bad.die_stack =
            vec![StackStage { inductance: 0.0, resistance: 1e-3, shunt_capacitance: 0.0 }];
        assert!(build_board(&bad).is_err());
    }

    #[test]
    fn spec_validation() {
        let mut bad = small_spec();
        bad.nx = 1;
        assert!(build_board(&bad).is_err());
        let mut bad = small_spec();
        bad.die_ports = vec![];
        assert!(build_board(&bad).is_err());
        let mut bad = small_spec();
        bad.die_ports = vec![(9, 9)];
        assert!(build_board(&bad).is_err());
        let mut bad = small_spec();
        bad.decap_ports = vec![(1, 1)]; // same as the die port
        assert!(build_board(&bad).is_err());
    }
}
