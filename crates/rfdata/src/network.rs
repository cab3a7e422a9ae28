//! Tabulated multiport network parameters and representation conversions.

use crate::{FrequencyGrid, Result, RfDataError};
use pim_linalg::{CMat, Complex64};

/// The representation in which a [`NetworkData`] set is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParameterKind {
    /// Scattering parameters, normalized to the reference resistance.
    Scattering,
    /// Short-circuit admittance parameters (siemens).
    Admittance,
    /// Open-circuit impedance parameters (ohms).
    Impedance,
}

impl std::fmt::Display for ParameterKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ParameterKind::Scattering => "S",
            ParameterKind::Admittance => "Y",
            ParameterKind::Impedance => "Z",
        };
        write!(f, "{s}")
    }
}

/// Tabulated frequency responses of a `P`-port linear network.
///
/// Stores one `P × P` complex matrix per frequency sample together with the
/// representation kind and the scattering reference resistance.
///
/// ```
/// use pim_linalg::{CMat, Complex64};
/// use pim_rfdata::{FrequencyGrid, NetworkData, ParameterKind};
///
/// # fn main() -> Result<(), pim_rfdata::RfDataError> {
/// // A matched one-port (zero reflection w.r.t. 50 Ω) is a frequency-
/// // independent 50 Ω resistor to ground.
/// let grid = FrequencyGrid::from_hz(vec![1e6, 1e7])?;
/// let s = CMat::from_diag(&[Complex64::ZERO]);
/// let data = NetworkData::new(grid, vec![s.clone(), s], ParameterKind::Scattering, 50.0)?;
/// let z = data.to_impedance()?;
/// assert!((z.matrix(0)[(0, 0)] - Complex64::from_real(50.0)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkData {
    grid: FrequencyGrid,
    matrices: Vec<CMat>,
    kind: ParameterKind,
    z_ref: f64,
}

impl NetworkData {
    /// Builds a data set from a frequency grid and per-frequency matrices.
    ///
    /// # Errors
    ///
    /// Returns [`RfDataError::Inconsistent`] when the number of matrices does
    /// not match the grid, matrices are not square, port counts differ across
    /// frequency, or the reference resistance is not positive.
    pub fn new(
        grid: FrequencyGrid,
        matrices: Vec<CMat>,
        kind: ParameterKind,
        z_ref: f64,
    ) -> Result<Self> {
        if matrices.len() != grid.len() {
            return Err(RfDataError::Inconsistent(format!(
                "expected {} matrices, got {}",
                grid.len(),
                matrices.len()
            )));
        }
        if matrices.is_empty() {
            return Err(RfDataError::Inconsistent("network data must not be empty".into()));
        }
        if !(z_ref > 0.0) || !z_ref.is_finite() {
            return Err(RfDataError::Inconsistent(format!(
                "reference resistance must be positive and finite, got {z_ref}"
            )));
        }
        let ports = matrices[0].rows();
        for (k, m) in matrices.iter().enumerate() {
            if !m.is_square() || m.rows() != ports {
                return Err(RfDataError::Inconsistent(format!(
                    "matrix at sample {k} has shape {:?}, expected {}x{}",
                    m.shape(),
                    ports,
                    ports
                )));
            }
        }
        Ok(NetworkData { grid, matrices, kind, z_ref })
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.matrices[0].rows()
    }

    /// Number of frequency samples.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// `true` when there are no samples (never true for constructed data).
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// The frequency grid.
    pub fn grid(&self) -> &FrequencyGrid {
        &self.grid
    }

    /// Representation kind of the stored matrices.
    pub fn kind(&self) -> ParameterKind {
        self.kind
    }

    /// Scattering reference resistance in ohms.
    pub fn z_ref(&self) -> f64 {
        self.z_ref
    }

    /// The matrix at frequency sample `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn matrix(&self, k: usize) -> &CMat {
        &self.matrices[k]
    }

    /// All matrices, in frequency order.
    pub fn matrices(&self) -> &[CMat] {
        &self.matrices
    }

    /// The `(i, j)` element across all frequencies.
    pub fn element(&self, i: usize, j: usize) -> Vec<Complex64> {
        self.matrices.iter().map(|m| m[(i, j)]).collect()
    }

    /// Applies `f` to every matrix, producing a new data set with the same
    /// grid, kind and reference.
    ///
    /// # Errors
    ///
    /// Propagates [`RfDataError`] from the closure.
    pub fn map_matrices<F>(&self, mut f: F) -> Result<NetworkData>
    where
        F: FnMut(usize, &CMat) -> Result<CMat>,
    {
        let mut out = Vec::with_capacity(self.matrices.len());
        for (k, m) in self.matrices.iter().enumerate() {
            out.push(f(k, m)?);
        }
        NetworkData::new(self.grid.clone(), out, self.kind, self.z_ref)
    }

    /// Converts to impedance parameters.
    ///
    /// # Errors
    ///
    /// Returns [`RfDataError::Linalg`] if a conversion matrix is singular
    /// (e.g. a short circuit has no impedance representation).
    pub fn to_impedance(&self) -> Result<NetworkData> {
        let matrices: Result<Vec<CMat>> = match self.kind {
            ParameterKind::Impedance => return Ok(self.clone()),
            ParameterKind::Scattering => {
                self.matrices.iter().map(|s| s_to_z(s, self.z_ref)).collect()
            }
            ParameterKind::Admittance => {
                self.matrices.iter().map(|y| y.inverse().map_err(Into::into)).collect()
            }
        };
        NetworkData::new(self.grid.clone(), matrices?, ParameterKind::Impedance, self.z_ref)
    }
}

/// Converts an impedance matrix to scattering with reference resistance `z_ref`:
/// `S = (Z − R₀I)(Z + R₀I)⁻¹`.
///
/// # Errors
///
/// Returns [`RfDataError::Linalg`] when `Z + R₀I` is singular.
pub fn z_to_s(z: &CMat, z_ref: f64) -> Result<CMat> {
    let n = z.rows();
    let r0 = CMat::identity(n).scaled_real(z_ref);
    let num = z - &r0;
    let den = z + &r0;
    Ok(num.matmul(&den.inverse()?)?)
}

/// Converts a scattering matrix to impedance: `Z = R₀(I + S)(I − S)⁻¹`.
///
/// # Errors
///
/// Returns [`RfDataError::Linalg`] when `I − S` is singular.
pub fn s_to_z(s: &CMat, z_ref: f64) -> Result<CMat> {
    let n = s.rows();
    let i = CMat::identity(n);
    let num = &i + s;
    let den = &i - s;
    Ok(num.matmul(&den.inverse()?)?.scaled_real(z_ref))
}

/// Converts a scattering matrix to admittance: `Y = R₀⁻¹(I − S)(I + S)⁻¹`.
///
/// This is the transformation entering the loaded PDN impedance of eq. (2) in
/// the paper.
///
/// # Errors
///
/// Returns [`RfDataError::Linalg`] when `I + S` is singular.
pub fn s_to_y(s: &CMat, z_ref: f64) -> Result<CMat> {
    let n = s.rows();
    let i = CMat::identity(n);
    let num = &i - s;
    let den = &i + s;
    Ok(num.matmul(&den.inverse()?)?.scaled_real(1.0 / z_ref))
}

/// Converts an admittance matrix to scattering: `S = (I − R₀Y)(I + R₀Y)⁻¹`.
///
/// # Errors
///
/// Returns [`RfDataError::Linalg`] when `I + R₀Y` is singular.
pub fn y_to_s(y: &CMat, z_ref: f64) -> Result<CMat> {
    let n = y.rows();
    let i = CMat::identity(n);
    let ry = y.scaled_real(z_ref);
    let num = &i - &ry;
    let den = &i + &ry;
    Ok(num.matmul(&den.inverse()?)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn sample_z() -> CMat {
        // A symmetric, strictly passive resistive 2-port impedance matrix
        // (both eigenvalues of the real part are positive).
        CMat::from_rows(&[
            &[c(83.33333333333333, 0.0), c(44.44444444444444, 0.0)],
            &[c(44.44444444444444, 0.0), c(83.33333333333333, 0.0)],
        ])
    }

    #[test]
    fn conversion_round_trips() {
        let z = sample_z();
        let s = z_to_s(&z, 50.0).unwrap();
        let z_back = s_to_z(&s, 50.0).unwrap();
        assert!(z_back.max_abs_diff(&z) < 1e-9);
        let y = s_to_y(&s, 50.0).unwrap();
        let s_back = y_to_s(&y, 50.0).unwrap();
        assert!(s_back.max_abs_diff(&s) < 1e-12);
        // Y must be the inverse of Z.
        let yz = y.matmul(&z).unwrap();
        assert!(yz.max_abs_diff(&CMat::identity(2)) < 1e-9);
    }

    #[test]
    fn matched_load_has_zero_reflection() {
        let z = CMat::from_diag(&[c(50.0, 0.0)]);
        let s = z_to_s(&z, 50.0).unwrap();
        assert!(s[(0, 0)].abs() < 1e-14);
    }

    #[test]
    fn network_data_construction_validation() {
        let grid = FrequencyGrid::from_hz(vec![1.0, 2.0]).unwrap();
        let m = CMat::identity(2);
        assert!(NetworkData::new(grid.clone(), vec![m.clone()], ParameterKind::Scattering, 50.0)
            .is_err());
        assert!(NetworkData::new(
            grid.clone(),
            vec![m.clone(), CMat::zeros(3, 3)],
            ParameterKind::Scattering,
            50.0
        )
        .is_err());
        assert!(NetworkData::new(
            grid.clone(),
            vec![m.clone(), m.clone()],
            ParameterKind::Scattering,
            -1.0
        )
        .is_err());
        let ok =
            NetworkData::new(grid, vec![m.clone(), m], ParameterKind::Scattering, 50.0).unwrap();
        assert_eq!(ok.ports(), 2);
        assert_eq!(ok.len(), 2);
        assert!(!ok.is_empty());
        assert_eq!(ok.kind(), ParameterKind::Scattering);
        assert_eq!((ok.z_ref()).to_bits(), 50.0f64.to_bits());
        assert_eq!(ok.element(0, 1), vec![Complex64::ZERO, Complex64::ZERO]);
    }

    #[test]
    fn scattering_data_converts_to_impedance() {
        let grid = FrequencyGrid::from_hz(vec![1e6, 1e7, 1e8]).unwrap();
        let z = sample_z();
        let s = z_to_s(&z, 50.0).unwrap();
        let data =
            NetworkData::new(grid, vec![s.clone(), s.clone(), s], ParameterKind::Scattering, 50.0)
                .unwrap();
        let z_data = data.to_impedance().unwrap();
        assert_eq!(z_data.kind(), ParameterKind::Impedance);
        assert!(z_data.matrix(1).max_abs_diff(&z) < 1e-9);
        // Already impedance: returned unchanged.
        assert!(z_data.to_impedance().unwrap().matrix(2).max_abs_diff(&z) < 1e-9);
    }

    #[test]
    fn map_matrices_applies_closure() {
        let grid = FrequencyGrid::from_hz(vec![1.0, 2.0]).unwrap();
        let d = NetworkData::new(
            grid,
            vec![CMat::identity(2), CMat::identity(2)],
            ParameterKind::Scattering,
            50.0,
        )
        .unwrap();
        let scaled = d.map_matrices(|_, m| Ok(m.scaled_real(0.5))).unwrap();
        assert!((scaled.matrix(0)[(0, 0)].re - 0.5).abs() < 1e-15);
    }

    #[test]
    fn short_circuit_has_no_impedance_representation() {
        // S = +I is an open circuit: I − S is singular, so Z does not
        // exist, while Y = 0 does.
        let grid = FrequencyGrid::from_hz(vec![1.0]).unwrap();
        let open = NetworkData::new(grid, vec![CMat::identity(1)], ParameterKind::Scattering, 50.0)
            .unwrap();
        assert!(open.to_impedance().is_err());
        let y = s_to_y(open.matrix(0), 50.0).unwrap();
        assert!(y[(0, 0)].abs() < 1e-14);
    }
}
