//! Frequency-domain nodal analysis of RLCG netlists with ports.

use crate::{CircuitError, Result};
use pim_linalg::lu::Lu;
use pim_linalg::{CMat, Complex64};
use pim_rfdata::network::z_to_s;
use pim_rfdata::{FrequencyGrid, NetworkData, ParameterKind};

/// A two-terminal circuit element. Node `0` is the ground reference; other
/// nodes are allocated by [`Circuit::node`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Element {
    /// Resistor in ohms.
    Resistor {
        /// First terminal node.
        a: usize,
        /// Second terminal node.
        b: usize,
        /// Resistance in ohms (must be positive).
        ohms: f64,
    },
    /// Capacitor in farad, with an optional parallel conductance (dielectric
    /// loss).
    Capacitor {
        /// First terminal node.
        a: usize,
        /// Second terminal node.
        b: usize,
        /// Capacitance in farad (must be positive).
        farad: f64,
        /// Parallel conductance in siemens (non-negative).
        shunt_conductance: f64,
    },
    /// Inductor in henry with a series resistance (the series resistance also
    /// keeps the DC point well defined).
    Inductor {
        /// First terminal node.
        a: usize,
        /// Second terminal node.
        b: usize,
        /// Inductance in henry (must be positive).
        henry: f64,
        /// Series resistance in ohms (must be positive).
        series_resistance: f64,
    },
}

impl Element {
    /// Branch admittance of the element at angular frequency `ω`.
    fn admittance(&self, omega: f64) -> Result<Complex64> {
        let jw = Complex64::from_imag(omega);
        match *self {
            Element::Resistor { ohms, .. } => {
                if !(ohms > 0.0) {
                    return Err(CircuitError::InvalidInput(format!(
                        "resistor must have positive resistance, got {ohms}"
                    )));
                }
                Ok(Complex64::from_real(1.0 / ohms))
            }
            Element::Capacitor { farad, shunt_conductance, .. } => {
                if !(farad > 0.0) || shunt_conductance < 0.0 {
                    return Err(CircuitError::InvalidInput(
                        "capacitor requires positive C and non-negative shunt conductance".into(),
                    ));
                }
                Ok(Complex64::new(shunt_conductance, omega * farad))
            }
            Element::Inductor { henry, series_resistance, .. } => {
                if !(henry > 0.0) || !(series_resistance > 0.0) {
                    return Err(CircuitError::InvalidInput(
                        "inductor requires positive L and positive series resistance".into(),
                    ));
                }
                let z = Complex64::from_real(series_resistance) + jw * henry;
                Ok(z.recip())
            }
        }
    }

    fn nodes(&self) -> (usize, usize) {
        match *self {
            Element::Resistor { a, b, .. }
            | Element::Capacitor { a, b, .. }
            | Element::Inductor { a, b, .. } => (a, b),
        }
    }
}

/// An RLCG netlist with externally accessible ports.
///
/// ```
/// use pim_circuit::{Circuit, Element};
///
/// # fn main() -> Result<(), pim_circuit::CircuitError> {
/// // A 25 Ω resistor to ground exposed as a 1-port.
/// let mut ckt = Circuit::new();
/// let n = ckt.node();
/// ckt.add(Element::Resistor { a: n, b: 0, ohms: 25.0 })?;
/// ckt.add_port(n)?;
/// let z = ckt.port_impedance_at(2.0 * std::f64::consts::PI * 1e6)?;
/// assert!((z[(0, 0)].re - 25.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    n_nodes: usize,
    elements: Vec<Element>,
    ports: Vec<usize>,
}

/// Node-to-ground conductance (numerical `gmin`) that keeps the nodal
/// matrix nonsingular at DC for floating nets.
const GMIN: f64 = 1e-12;

impl Circuit {
    /// Creates an empty circuit (ground node only).
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Allocates a new node and returns its index (`≥ 1`; `0` is ground).
    pub fn node(&mut self) -> usize {
        self.n_nodes += 1;
        self.n_nodes
    }

    /// Number of non-ground nodes.
    pub fn node_count(&self) -> usize {
        self.n_nodes
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The elements of the netlist.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Adds an element.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidInput`] when a terminal references a
    /// node that has not been allocated, both terminals coincide, or the
    /// element value is non-physical.
    pub fn add(&mut self, element: Element) -> Result<()> {
        let (a, b) = element.nodes();
        if a > self.n_nodes || b > self.n_nodes {
            return Err(CircuitError::InvalidInput(format!(
                "element references node {} but only {} nodes exist",
                a.max(b),
                self.n_nodes
            )));
        }
        if a == b {
            return Err(CircuitError::InvalidInput(
                "element terminals must be distinct nodes".into(),
            ));
        }
        // Validate the value eagerly by evaluating the admittance once.
        element.admittance(1.0)?;
        self.elements.push(element);
        Ok(())
    }

    /// Declares a port between `node` and ground.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidInput`] for unknown nodes, the ground
    /// node, or duplicate port nodes.
    pub fn add_port(&mut self, node: usize) -> Result<()> {
        if node == 0 || node > self.n_nodes {
            return Err(CircuitError::InvalidInput(format!(
                "port node {node} is not a valid non-ground node"
            )));
        }
        if self.ports.contains(&node) {
            return Err(CircuitError::InvalidInput(format!("node {node} is already a port")));
        }
        self.ports.push(node);
        Ok(())
    }

    /// Assembles the complex nodal admittance matrix at angular frequency `ω`.
    fn nodal_matrix(&self, omega: f64) -> Result<CMat> {
        let n = self.n_nodes;
        let mut y = CMat::zeros(n, n);
        for i in 0..n {
            y[(i, i)] = Complex64::from_real(GMIN);
        }
        for el in &self.elements {
            let (a, b) = el.nodes();
            let ya = el.admittance(omega)?;
            if a > 0 {
                y[(a - 1, a - 1)] += ya;
            }
            if b > 0 {
                y[(b - 1, b - 1)] += ya;
            }
            if a > 0 && b > 0 {
                y[(a - 1, b - 1)] -= ya;
                y[(b - 1, a - 1)] -= ya;
            }
        }
        Ok(y)
    }

    /// Open-circuit impedance matrix of the ports at angular frequency `ω`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidInput`] when no port is defined and
    /// propagates solver failures.
    pub fn port_impedance_at(&self, omega: f64) -> Result<CMat> {
        if self.ports.is_empty() {
            return Err(CircuitError::InvalidInput("the circuit defines no ports".into()));
        }
        let y = self.nodal_matrix(omega)?;
        let lu = Lu::new(&y)?;
        let p = self.ports.len();
        let mut z = CMat::zeros(p, p);
        for (col, &port_node) in self.ports.iter().enumerate() {
            // Inject 1 A into the port node, read the voltages at all ports.
            let mut rhs = vec![Complex64::ZERO; self.n_nodes];
            rhs[port_node - 1] = Complex64::ONE;
            let v = lu.solve_vec(&rhs)?;
            for (row, &other_node) in self.ports.iter().enumerate() {
                z[(row, col)] = v[other_node - 1];
            }
        }
        Ok(z)
    }

    /// Tabulates the scattering parameters (normalized to `z_ref`) over a
    /// frequency grid — the synthetic equivalent of the paper's field-solver
    /// output.
    ///
    /// # Errors
    ///
    /// See [`Circuit::port_impedance_at`]; the reference resistance must be
    /// positive.
    pub fn scattering_parameters(&self, grid: &FrequencyGrid, z_ref: f64) -> Result<NetworkData> {
        if !(z_ref > 0.0) {
            return Err(CircuitError::InvalidInput(format!(
                "reference resistance must be positive, got {z_ref}"
            )));
        }
        let mut matrices = Vec::with_capacity(grid.len());
        for &omega in &grid.omegas() {
            let z = self.port_impedance_at(omega)?;
            matrices.push(z_to_s(&z, z_ref)?);
        }
        Ok(NetworkData::new(grid.clone(), matrices, ParameterKind::Scattering, z_ref)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

    #[test]
    fn resistive_divider_impedance() {
        // Two 100 Ω resistors in parallel to ground at the same node: 50 Ω.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.add(Element::Resistor { a: n, b: 0, ohms: 100.0 }).unwrap();
        ckt.add(Element::Resistor { a: 0, b: n, ohms: 100.0 }).unwrap();
        ckt.add_port(n).unwrap();
        let z = ckt.port_impedance_at(0.0).unwrap();
        assert!((z[(0, 0)].re - 50.0).abs() < 1e-6);
    }

    #[test]
    fn series_rl_and_shunt_c_resonance() {
        // A series R-L feeding a shunt C: the port input impedance has a
        // series resonance at 1/sqrt(LC) where it reduces to approximately R.
        let r = 0.1;
        let l = 1e-9;
        let c = 1e-9;
        let mut ckt = Circuit::new();
        let mid = ckt.node();
        let inp = ckt.node();
        ckt.add(Element::Inductor { a: inp, b: mid, henry: l, series_resistance: r }).unwrap();
        ckt.add(Element::Capacitor { a: mid, b: 0, farad: c, shunt_conductance: 0.0 }).unwrap();
        ckt.add_port(inp).unwrap();
        let f0 = 1.0 / (TWO_PI * (l * c).sqrt());
        let z_res = ckt.port_impedance_at(TWO_PI * f0).unwrap()[(0, 0)];
        assert!((z_res.re - r).abs() < 0.02 * r, "Re(Z) at resonance: {}", z_res.re);
        assert!(z_res.im.abs() < 0.05, "Im(Z) at resonance: {}", z_res.im);
        // Far below resonance the capacitor dominates (capacitive phase).
        let z_lo = ckt.port_impedance_at(TWO_PI * f0 / 100.0).unwrap()[(0, 0)];
        assert!(z_lo.im < 0.0);
        // Far above, the inductor dominates.
        let z_hi = ckt.port_impedance_at(TWO_PI * f0 * 100.0).unwrap()[(0, 0)];
        assert!(z_hi.im > 0.0);
    }

    #[test]
    fn two_port_pi_network_matches_analytic_z_parameters() {
        // Pi network: Za from port1 to ground, Zb series, Zc from port2 to
        // ground, all resistive.
        let za = 100.0;
        let zb = 25.0;
        let zc = 100.0;
        let mut ckt = Circuit::new();
        let n1 = ckt.node();
        let n2 = ckt.node();
        ckt.add(Element::Resistor { a: n1, b: 0, ohms: za }).unwrap();
        ckt.add(Element::Resistor { a: n1, b: n2, ohms: zb }).unwrap();
        ckt.add(Element::Resistor { a: n2, b: 0, ohms: zc }).unwrap();
        ckt.add_port(n1).unwrap();
        ckt.add_port(n2).unwrap();
        let z = ckt.port_impedance_at(0.0).unwrap();
        let denom = za + zb + zc;
        assert!((z[(0, 0)].re - za * (zb + zc) / denom).abs() < 1e-6);
        assert!((z[(1, 1)].re - zc * (za + zb) / denom).abs() < 1e-6);
        assert!((z[(0, 1)].re - za * zc / denom).abs() < 1e-6);
        assert!((z[(0, 1)] - z[(1, 0)]).abs() < 1e-9, "reciprocity");
    }

    #[test]
    fn scattering_of_matched_load_is_small() {
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.add(Element::Resistor { a: n, b: 0, ohms: 50.0 }).unwrap();
        ckt.add_port(n).unwrap();
        let grid = FrequencyGrid::log_space(1e3, 1e9, 10).unwrap();
        let s = ckt.scattering_parameters(&grid, 50.0).unwrap();
        assert_eq!(s.kind(), ParameterKind::Scattering);
        for k in 0..s.len() {
            assert!(s.matrix(k)[(0, 0)].abs() < 1e-6);
        }
    }

    #[test]
    fn netlist_validation() {
        let mut ckt = Circuit::new();
        let n = ckt.node();
        assert!(ckt.add(Element::Resistor { a: n, b: n, ohms: 1.0 }).is_err());
        assert!(ckt.add(Element::Resistor { a: n, b: 7, ohms: 1.0 }).is_err());
        assert!(ckt.add(Element::Resistor { a: n, b: 0, ohms: -1.0 }).is_err());
        assert!(ckt
            .add(Element::Capacitor { a: n, b: 0, farad: 0.0, shunt_conductance: 0.0 })
            .is_err());
        assert!(ckt
            .add(Element::Inductor { a: n, b: 0, henry: 1e-9, series_resistance: 0.0 })
            .is_err());
        assert!(ckt.add_port(0).is_err());
        assert!(ckt.add_port(9).is_err());
        ckt.add_port(n).unwrap();
        assert!(ckt.add_port(n).is_err());
        assert_eq!(ckt.port_count(), 1);
        assert_eq!(ckt.node_count(), 1);
        // A circuit without ports cannot be solved for port parameters.
        let empty = Circuit::new();
        assert!(empty.port_impedance_at(1.0).is_err());
        // Reference resistance validation.
        let grid = FrequencyGrid::from_hz(vec![1.0]).unwrap();
        assert!(ckt.scattering_parameters(&grid, -1.0).is_err());
    }

    #[test]
    fn floating_node_is_kept_solvable_by_gmin() {
        // A port connected only through a capacitor: at DC the node would be
        // floating without gmin; the impedance must be finite and huge.
        let mut ckt = Circuit::new();
        let n = ckt.node();
        ckt.add(Element::Capacitor { a: n, b: 0, farad: 1e-9, shunt_conductance: 0.0 }).unwrap();
        ckt.add_port(n).unwrap();
        let z = ckt.port_impedance_at(0.0).unwrap();
        assert!(z[(0, 0)].re > 1e9 && z[(0, 0)].re.is_finite());
    }
}
