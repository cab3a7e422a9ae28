//! Loaded PDN impedance (eq. 2 of the paper) and the scalar target impedance.

use crate::{PdnError, Result, TerminationNetwork};
use pim_linalg::{CMat, Complex64};
use pim_rfdata::network::s_to_y;
use pim_rfdata::{NetworkData, ParameterKind};

/// The target impedance of a loaded PDN over frequency: the voltage observed
/// at an observation port for the nominal switching-current excitation.
#[derive(Debug, Clone)]
pub struct TargetImpedance {
    /// Frequencies in hertz (copied from the scattering data grid).
    pub freqs_hz: Vec<f64>,
    /// Complex target impedance `Z_PDN(jω_k)` in ohms.
    pub values: Vec<Complex64>,
    /// The observation port index.
    pub observation_port: usize,
}

impl TargetImpedance {
    /// Magnitudes `|Z_PDN|` in ohms.
    pub fn magnitudes(&self) -> Vec<f64> {
        self.values.iter().map(|z| z.abs()).collect()
    }
}

/// Computes the loaded impedance matrix of eq. (2) at a single frequency:
/// `Z = [R₀⁻¹(I − S)(I + S)⁻¹ + Y_L(jω)]⁻¹`.
///
/// # Errors
///
/// Returns [`PdnError::Linalg`] when either inversion is singular (an exactly
/// lossless short-circuited network at DC can trigger this).
pub fn loaded_impedance_matrix(
    scattering: &CMat,
    z_ref: f64,
    load_admittance: &CMat,
) -> Result<CMat> {
    if scattering.shape() != load_admittance.shape() {
        return Err(PdnError::InvalidInput(format!(
            "scattering matrix is {:?} but the load admittance is {:?}",
            scattering.shape(),
            load_admittance.shape()
        )));
    }
    let y_pdn = s_to_y(scattering, z_ref)?;
    let total = &y_pdn + load_admittance;
    Ok(total.inverse()?)
}

/// Checks the inputs shared by the target impedance and both sensitivity
/// estimators — scattering data, equal port counts, an observation port in
/// range and a defined excitation — and returns the Norton excitation
/// vector `J` with its total current.
pub(crate) fn excitation(
    data: &NetworkData,
    network: &TerminationNetwork,
    observation_port: usize,
) -> Result<(Vec<Complex64>, f64)> {
    if data.kind() != ParameterKind::Scattering {
        return Err(PdnError::InvalidInput("PDN analysis requires scattering parameters".into()));
    }
    if data.ports() != network.ports() {
        return Err(PdnError::InvalidInput(format!(
            "data has {} ports but the termination network has {}",
            data.ports(),
            network.ports()
        )));
    }
    if observation_port >= data.ports() {
        return Err(PdnError::InvalidInput(format!(
            "observation port {observation_port} out of range for {}-port data",
            data.ports()
        )));
    }
    let j = network.excitation_vector();
    let total_current: f64 = j.iter().map(|z| z.re).sum();
    if total_current <= 0.0 {
        return Err(PdnError::InvalidInput(
            "the termination network defines no excitation; call with_excitation first".into(),
        ));
    }
    Ok((j, total_current))
}

/// Computes the target impedance of a tabulated scattering data set under a
/// nominal termination network.
///
/// The observation port is where the voltage is read; the excitation is the
/// Norton current vector of the termination network (eq. 1), so the returned
/// quantity is `Z_PDN(jω_k) = Σ_j Z_kij · J_j / I_total` — for the paper's
/// normalized 1 A total excitation this is exactly the voltage at the
/// observation port.
///
/// # Errors
///
/// Returns [`PdnError::InvalidInput`] when the data is not in scattering
/// form, port counts mismatch, the observation port is out of range or no
/// port is excited.
pub fn target_impedance(
    data: &NetworkData,
    network: &TerminationNetwork,
    observation_port: usize,
) -> Result<TargetImpedance> {
    let (j, total_current) = excitation(data, network, observation_port)?;

    // Every frequency is an independent load-and-solve; the sweep runs on
    // the global pool with results collected by frequency index, so the
    // output is bit-identical to the serial loop for every `PIM_THREADS`
    // (when several frequencies fail, the error of the lowest index wins).
    let omegas = data.grid().omegas();
    let values: Vec<Complex64> = pim_runtime::global()
        .par_map(&omegas, |k, &omega| -> Result<Complex64> {
            let y_l = network.load_admittance(omega)?;
            let z = loaded_impedance_matrix(data.matrix(k), data.z_ref(), &y_l)?;
            // Voltage at the observation port for the Norton current
            // excitation.
            let mut v = Complex64::ZERO;
            for (col, jj) in j.iter().enumerate() {
                if *jj != Complex64::ZERO {
                    v += z[(observation_port, col)] * *jj;
                }
            }
            Ok(v.scale(1.0 / total_current))
        })
        .into_iter()
        .collect::<Result<_>>()?;
    Ok(TargetImpedance { freqs_hz: data.grid().freqs_hz().to_vec(), values, observation_port })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Termination;
    use pim_rfdata::network::z_to_s;
    use pim_rfdata::FrequencyGrid;

    const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// A 1-port PDN that is just a 0.1 Ω resistor to ground, observed under a
    /// die-block termination: the parallel combination is analytic.
    #[test]
    fn single_port_resistive_pdn_matches_analytic_parallel() {
        let grid = FrequencyGrid::log_space(1e3, 1e9, 40).unwrap();
        let r_pdn = 0.1;
        let mats: Vec<CMat> = grid
            .freqs_hz()
            .iter()
            .map(|_| z_to_s(&CMat::from_diag(&[c(r_pdn, 0.0)]), 50.0).unwrap())
            .collect();
        let data = NetworkData::new(grid.clone(), mats, ParameterKind::Scattering, 50.0).unwrap();
        let die = Termination::DieBlock { resistance: 0.05, capacitance: 100e-9 };
        let net =
            TerminationNetwork::new(vec![die]).unwrap().with_excitation(vec![0], 1.0).unwrap();
        let zt = target_impedance(&data, &net, 0).unwrap();
        for (k, &f) in grid.freqs_hz().iter().enumerate() {
            let omega = TWO_PI * f;
            let y_die = die.admittance(omega).unwrap();
            let expected = (Complex64::from_real(1.0 / r_pdn) + y_die).recip();
            assert!((zt.values[k] - expected).abs() < 1e-9 * expected.abs(), "mismatch at {f} Hz");
        }
        let mags = zt.magnitudes();
        let k_peak = (0..mags.len()).max_by(|&a, &b| mags[a].total_cmp(&mags[b])).unwrap();
        assert!(mags[k_peak] <= 0.1 + 1e-12);
        assert!(zt.freqs_hz[k_peak] >= 1e3);
        assert_eq!(mags.len(), 40);
    }

    /// A 2-port PDN: the transfer impedance from the excited port to the
    /// observation port through a known resistive divider.
    #[test]
    fn two_port_transfer_impedance() {
        // PDN: a T network of resistors; port 2 loaded with a 1 Ω resistor,
        // port 1 excited and observed.
        let grid = FrequencyGrid::from_hz(vec![1e6]).unwrap();
        // Z-parameters of a symmetric resistive network.
        let z = CMat::from_rows(&[&[c(0.5, 0.0), c(0.3, 0.0)], &[c(0.3, 0.0), c(0.5, 0.0)]]);
        let s = z_to_s(&z, 50.0).unwrap();
        let data = NetworkData::new(grid, vec![s], ParameterKind::Scattering, 50.0).unwrap();
        let net =
            TerminationNetwork::new(vec![Termination::Open, Termination::Resistor { ohms: 1.0 }])
                .unwrap()
                .with_excitation(vec![0], 1.0)
                .unwrap();
        let zt = target_impedance(&data, &net, 0).unwrap();
        // Analytic: Z_in with port 2 loaded by R_L:
        // Z = Z11 - Z12*Z21/(Z22 + R_L)
        let expected = 0.5 - 0.3 * 0.3 / (0.5 + 1.0);
        assert!((zt.values[0].re - expected).abs() < 1e-12);
        assert!(zt.values[0].im.abs() < 1e-12);
    }

    #[test]
    fn loaded_matrix_is_parallel_combination() {
        // S of a 25 Ω resistor, loaded with a 25 Ω resistor: 12.5 Ω.
        let s = z_to_s(&CMat::from_diag(&[c(25.0, 0.0)]), 50.0).unwrap();
        let y_l = CMat::from_diag(&[c(1.0 / 25.0, 0.0)]);
        let z = loaded_impedance_matrix(&s, 50.0, &y_l).unwrap();
        assert!((z[(0, 0)].re - 12.5).abs() < 1e-12);
        assert!(loaded_impedance_matrix(&s, 50.0, &CMat::zeros(2, 2)).is_err());
    }

    #[test]
    fn validation_errors() {
        let grid = FrequencyGrid::from_hz(vec![1.0]).unwrap();
        let s = CMat::zeros(1, 1);
        let data = NetworkData::new(grid.clone(), vec![s.clone()], ParameterKind::Scattering, 50.0)
            .unwrap();
        let net = TerminationNetwork::new(vec![Termination::Open]).unwrap();
        // No excitation declared.
        assert!(target_impedance(&data, &net, 0).is_err());
        let net = net.with_excitation(vec![0], 1.0).unwrap();
        // Observation port out of range.
        assert!(target_impedance(&data, &net, 3).is_err());
        // Port count mismatch.
        let net2 = TerminationNetwork::new(vec![Termination::Open, Termination::Open])
            .unwrap()
            .with_excitation(vec![0], 1.0)
            .unwrap();
        assert!(target_impedance(&data, &net2, 0).is_err());
        // Non-scattering data.
        let zdata = NetworkData::new(grid, vec![s], ParameterKind::Impedance, 50.0).unwrap();
        assert!(target_impedance(&zdata, &net, 0).is_err());
    }
}
