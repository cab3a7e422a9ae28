//! Property-based tests of the seeded board generator: every board drawn
//! from the parameter space must be a well-formed [`SyntheticPdn`] —
//! in-bounds non-overlapping ports, positive element values, a connected
//! nodal network, port counts matching the spec — and regeneration from the
//! same `(config, seed)` pair must be bit-identical.

use pim_circuit::{BoardGenerator, Element, GeneratorConfig, SyntheticPdn};
use proptest::prelude::*;

/// Union-find connectivity check over the element graph (ground = node 0):
/// the MNA matrix of a disconnected netlist is singular, so every node must
/// reach ground through elements.
fn is_connected(pdn: &SyntheticPdn) -> bool {
    // `node_count()` counts non-ground nodes; indices run 0..=count with 0
    // as ground.
    let n = pdn.circuit.node_count() + 1;
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for element in pdn.circuit.elements() {
        let (a, b) = match *element {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Inductor { a, b, .. } => (a, b),
        };
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra] = rb;
    }
    let ground = find(&mut parent, 0);
    (0..n).all(|x| find(&mut parent, x) == ground)
}

/// Every element value a generated board may contain must be strictly
/// positive (shunt conductances may be zero).
fn elements_well_formed(pdn: &SyntheticPdn) -> Result<(), String> {
    for element in pdn.circuit.elements() {
        match *element {
            Element::Resistor { ohms, .. } => {
                if !(ohms > 0.0) {
                    return Err(format!("non-positive resistor {ohms}"));
                }
            }
            Element::Capacitor { farad, shunt_conductance, .. } => {
                if !(farad > 0.0) {
                    return Err(format!("non-positive capacitor {farad}"));
                }
                if !(shunt_conductance >= 0.0) {
                    return Err(format!("negative shunt conductance {shunt_conductance}"));
                }
            }
            Element::Inductor { henry, series_resistance, .. } => {
                if !(henry > 0.0) {
                    return Err(format!("non-positive inductor {henry}"));
                }
                if !(series_resistance > 0.0) {
                    return Err(format!("non-positive series resistance {series_resistance}"));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Seeds 0..256 across the 2×2..8×8 grid space: every draw builds a
    // well-formed, connected PDN whose port bookkeeping is consistent.
    #[test]
    fn generated_boards_are_well_formed(seed in 0usize..256) {
        let config = GeneratorConfig {
            nx: (2, 8),
            ny: (2, 8),
            ..GeneratorConfig::default()
        };
        let board = BoardGenerator::new(config.clone())
            .generate(seed as u64)
            .expect("every seed in the default space must generate");
        let spec = &board.spec;

        // Grid bounds honour the configured ranges.
        prop_assert!(spec.nx >= 2 && spec.nx <= 8);
        prop_assert!(spec.ny >= 2 && spec.ny <= 8);

        // Ports are in bounds and do not overlap across roles.
        let all: Vec<(usize, usize)> = spec
            .die_ports
            .iter()
            .chain(&spec.decap_ports)
            .chain(&spec.vrm_ports)
            .copied()
            .collect();
        for &(ix, iy) in &all {
            prop_assert!(ix < spec.nx && iy < spec.ny, "port ({ix},{iy}) off the grid");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert!(dedup.len() == all.len(), "overlapping port cells");

        // Role counts: at least one die, decap and VRM port each; one decap
        // model per decap port.
        prop_assert!(!spec.die_ports.is_empty());
        prop_assert!(!spec.decap_ports.is_empty());
        prop_assert!(!spec.vrm_ports.is_empty());
        prop_assert!(board.decap_models.len() == spec.decap_ports.len());

        // Electrical models are physical.
        for m in &board.decap_models {
            prop_assert!(m.capacitance > 0.0 && m.esr > 0.0 && m.esl > 0.0);
        }
        prop_assert!(board.vrm.resistance > 0.0 && board.vrm.inductance > 0.0);
        prop_assert!(board.die.resistance > 0.0 && board.die.capacitance > 0.0);

        // The built netlist: port counts match the spec, every element is
        // physical, and the nodal graph is connected (solvable MNA).
        let pdn = board.build().expect("generated spec must build");
        prop_assert!(pdn.die_ports.len() == spec.die_ports.len());
        prop_assert!(pdn.decap_ports.len() == spec.decap_ports.len());
        prop_assert!(pdn.vrm_ports.len() == spec.vrm_ports.len());
        prop_assert!(pdn.ports() == all.len());
        prop_assert!(pdn.circuit.port_count() == all.len());
        if let Err(msg) = elements_well_formed(&pdn) {
            prop_assert!(false, "{}", msg);
        }
        prop_assert!(is_connected(&pdn), "disconnected nodal network");

        // Determinism: the same (config, seed) pair regenerates the board
        // bit for bit.
        let again = BoardGenerator::new(config).generate(seed as u64).unwrap();
        prop_assert!(again == board, "regeneration is not bit-identical");
    }

    // A generated board stays solvable: one mid-band nodal solve per seed
    // must return finite scattering entries.
    #[test]
    fn generated_boards_solve_at_a_spot_frequency(seed in 0usize..64) {
        let board = BoardGenerator::new(GeneratorConfig::default()).generate(seed as u64).unwrap();
        let pdn = board.build().unwrap();
        let z = pdn.circuit.port_impedance_at(2.0 * std::f64::consts::PI * 1e8).unwrap();
        for i in 0..pdn.ports() {
            for j in 0..pdn.ports() {
                let entry = z[(i, j)];
                prop_assert!(
                    entry.re.is_finite() && entry.im.is_finite(),
                    "non-finite Z[{}, {}] = {:?}", i, j, entry
                );
            }
        }
    }

    // Seeded placement across larger grids keeps the die in the interior
    // region the generator promises (cells nearest the grid centre).
    #[test]
    fn seeded_placement_keeps_die_ports_off_the_corners(seed in 0usize..128) {
        let config = GeneratorConfig { nx: (4, 8), ny: (4, 8), ..GeneratorConfig::default() };
        let board = BoardGenerator::new(config).generate(seed as u64).unwrap();
        let spec = &board.spec;
        let corners = [
            (0, 0),
            (0, spec.ny - 1),
            (spec.nx - 1, 0),
            (spec.nx - 1, spec.ny - 1),
        ];
        for &die in &spec.die_ports {
            prop_assert!(!corners.contains(&die), "die port {die:?} on a corner");
        }
    }
}
