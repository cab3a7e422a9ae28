//! Pole–residue (partial fraction) macromodels with common poles.

use crate::{Result, StateSpaceError};
use pim_linalg::{CMat, Complex64, Mat};
use pim_rfdata::{FrequencyGrid, NetworkData, ParameterKind};

/// Relative tolerance used to decide whether a pole is real and whether two
/// poles form a complex-conjugate pair.
const PAIR_TOL: f64 = 1e-9;

/// A multiport pole–residue macromodel
/// `H(s) = Σₙ Rₙ / (s − pₙ) + D` (eq. 3 of the paper).
///
/// Conventions:
///
/// * all matrix elements share the same pole set (`poles`);
/// * complex poles appear in adjacent conjugate pairs `(p, p̄)` with the
///   positive-imaginary-part member first, and the residue matrix attached to
///   `p̄` is the complex conjugate of the one attached to `p`;
/// * the asymptotic term `D` is real, as required for a real-valued impulse
///   response.
///
/// ```
/// use pim_linalg::{CMat, Complex64, Mat};
/// use pim_statespace::PoleResidueModel;
///
/// # fn main() -> Result<(), pim_statespace::StateSpaceError> {
/// // H(s) = 2/(s+1) + 1  (single port, single real pole)
/// let model = PoleResidueModel::new(
///     vec![Complex64::new(-1.0, 0.0)],
///     vec![CMat::from_diag(&[Complex64::new(2.0, 0.0)])],
///     Mat::from_diag(&[1.0]),
/// )?;
/// let h0 = model.evaluate(Complex64::ZERO)?;
/// assert!((h0[(0, 0)].re - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PoleResidueModel {
    poles: Vec<Complex64>,
    residues: Vec<CMat>,
    d: Mat,
}

impl PoleResidueModel {
    /// Builds a model from poles, residue matrices and the constant term.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidModel`] when lengths mismatch,
    /// residues are not square or of inconsistent size, complex poles are not
    /// in adjacent conjugate pairs, or conjugate residues are inconsistent.
    pub fn new(poles: Vec<Complex64>, residues: Vec<CMat>, d: Mat) -> Result<Self> {
        if poles.len() != residues.len() {
            return Err(StateSpaceError::InvalidModel(format!(
                "{} poles but {} residue matrices",
                poles.len(),
                residues.len()
            )));
        }
        if !d.is_square() {
            return Err(StateSpaceError::InvalidModel("constant term D must be square".into()));
        }
        let ports = d.rows();
        for (n, r) in residues.iter().enumerate() {
            if r.shape() != (ports, ports) {
                return Err(StateSpaceError::InvalidModel(format!(
                    "residue {n} has shape {:?}, expected {}x{}",
                    r.shape(),
                    ports,
                    ports
                )));
            }
        }
        let model = PoleResidueModel { poles, residues, d };
        model.validate_pairing()?;
        Ok(model)
    }

    /// Checks the conjugate-pair structure of the pole/residue lists.
    fn validate_pairing(&self) -> Result<()> {
        let mut n = 0;
        while n < self.poles.len() {
            let p = self.poles[n];
            let scale = p.abs().max(1.0);
            if p.im.abs() <= PAIR_TOL * scale {
                n += 1;
                continue;
            }
            // Complex pole: its conjugate must follow.
            let q = *self.poles.get(n + 1).ok_or_else(|| {
                StateSpaceError::InvalidModel(format!(
                    "complex pole {p} at index {n} has no conjugate partner"
                ))
            })?;
            if (q - p.conj()).abs() > PAIR_TOL * scale {
                return Err(StateSpaceError::InvalidModel(format!(
                    "pole at index {} ({q}) is not the conjugate of the pole at index {n} ({p})",
                    n + 1
                )));
            }
            let r = &self.residues[n];
            let rc = &self.residues[n + 1];
            let diff = (rc - &r.conj()).max_abs();
            let rscale = r.max_abs().max(1.0);
            if diff > 1e-6 * rscale {
                return Err(StateSpaceError::InvalidModel(format!(
                    "residue at index {} is not the conjugate of the residue at index {n}",
                    n + 1
                )));
            }
            n += 2;
        }
        Ok(())
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.d.rows()
    }

    /// Number of poles (counting both members of complex pairs).
    pub fn order(&self) -> usize {
        self.poles.len()
    }

    /// The pole list (conjugate pairs adjacent).
    pub fn poles(&self) -> &[Complex64] {
        &self.poles
    }

    /// The residue matrices, aligned with [`PoleResidueModel::poles`].
    pub fn residues(&self) -> &[CMat] {
        &self.residues
    }

    /// The real constant (asymptotic) term `D`.
    pub fn d(&self) -> &Mat {
        &self.d
    }

    /// Returns `true` when the pole at `index` is (numerically) real.
    pub fn is_real_pole(&self, index: usize) -> bool {
        let p = self.poles[index];
        p.im.abs() <= PAIR_TOL * p.abs().max(1.0)
    }

    /// Returns `true` when every pole has a strictly negative real part.
    pub fn is_stable(&self) -> bool {
        self.poles.iter().all(|p| p.re < 0.0)
    }

    /// Evaluates the transfer matrix at a complex frequency `s`.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidModel`] if `s` coincides with a pole.
    pub fn evaluate(&self, s: Complex64) -> Result<CMat> {
        let ports = self.ports();
        let mut out = self.d.to_complex();
        for (p, r) in self.poles.iter().zip(&self.residues) {
            let den = s - *p;
            // audit:allow(float-eq): evaluation exactly on a pole must take the residue branch
            if den.abs() == 0.0 {
                return Err(StateSpaceError::InvalidModel(format!(
                    "evaluation point {s} coincides with pole {p}"
                )));
            }
            let inv = den.recip();
            for i in 0..ports {
                for j in 0..ports {
                    out[(i, j)] += r[(i, j)] * inv;
                }
            }
        }
        Ok(out)
    }

    /// Evaluates the transfer matrix at the real angular frequency `ω`
    /// (i.e. at `s = jω`).
    ///
    /// # Errors
    ///
    /// See [`PoleResidueModel::evaluate`].
    pub fn evaluate_at_omega(&self, omega: f64) -> Result<CMat> {
        self.evaluate(Complex64::from_imag(omega))
    }

    /// Samples the model over a frequency grid, producing a tabulated
    /// [`NetworkData`] set in the given representation kind.
    ///
    /// # Errors
    ///
    /// Propagates evaluation and data-construction failures.
    pub fn sample(
        &self,
        grid: &FrequencyGrid,
        kind: ParameterKind,
        z_ref: f64,
    ) -> Result<NetworkData> {
        let mut matrices = Vec::with_capacity(grid.len());
        for &omega in &grid.omegas() {
            matrices.push(self.evaluate_at_omega(omega)?);
        }
        Ok(NetworkData::new(grid.clone(), matrices, kind, z_ref)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn two_port_model() -> PoleResidueModel {
        // Poles: one real (-1e3), one complex pair (-2e3 ± j 5e3).
        let p = c(-2e3, 5e3);
        let r_real = CMat::from_fn(2, 2, |i, j| c(10.0 + (i + j) as f64, 0.0));
        let r_cplx = CMat::from_fn(2, 2, |i, j| c(3.0 - i as f64, 2.0 + j as f64));
        PoleResidueModel::new(
            vec![c(-1e3, 0.0), p, p.conj()],
            vec![r_real, r_cplx.clone(), r_cplx.conj()],
            Mat::from_fn(2, 2, |i, j| if i == j { 0.5 } else { 0.1 }),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let m = two_port_model();
        assert_eq!(m.ports(), 2);
        assert_eq!(m.order(), 3);
        assert!(m.is_stable());
        assert!(m.is_real_pole(0));
        assert!(!m.is_real_pole(1));
        assert_eq!(m.poles().len(), 3);
        assert_eq!(m.residues().len(), 3);
        assert_eq!((m.d()[(0, 0)]).to_bits(), 0.5f64.to_bits());
        // A right-half-plane pole makes the model unstable.
        let unstable =
            PoleResidueModel::new(vec![c(5.0, 0.0)], vec![CMat::identity(1)], Mat::identity(1))
                .unwrap();
        assert!(!unstable.is_stable());
    }

    #[test]
    fn invalid_models_are_rejected() {
        let p = c(-1.0, 2.0);
        let r = CMat::identity(1);
        // Missing conjugate partner.
        assert!(PoleResidueModel::new(vec![p], vec![r.clone()], Mat::identity(1)).is_err());
        // Wrong partner.
        assert!(PoleResidueModel::new(
            vec![p, c(-1.0, -3.0)],
            vec![r.clone(), r.clone()],
            Mat::identity(1)
        )
        .is_err());
        // Non-conjugate residues.
        let r2 = CMat::from_diag(&[c(1.0, 5.0)]);
        assert!(PoleResidueModel::new(
            vec![p, p.conj()],
            vec![r2.clone(), r2.clone()],
            Mat::identity(1)
        )
        .is_err());
        // Length mismatch.
        assert!(PoleResidueModel::new(vec![c(-1.0, 0.0)], vec![], Mat::identity(1)).is_err());
        // Non-square D.
        assert!(PoleResidueModel::new(vec![], vec![], Mat::zeros(1, 2)).is_err());
        // Residue size mismatch.
        assert!(PoleResidueModel::new(
            vec![c(-1.0, 0.0)],
            vec![CMat::identity(3)],
            Mat::identity(1)
        )
        .is_err());
    }

    #[test]
    fn evaluation_is_conjugate_symmetric_for_real_models() {
        let m = two_port_model();
        let s = c(0.0, 7.5e3);
        let h_pos = m.evaluate(s).unwrap();
        let h_neg = m.evaluate(s.conj()).unwrap();
        // H(conj(s)) = conj(H(s)) for real impulse responses.
        assert!(h_neg.max_abs_diff(&h_pos.conj()) < 1e-9);
    }

    #[test]
    fn evaluate_matches_manual_sum() {
        let m = two_port_model();
        let s = c(-50.0, 1234.0);
        let h = m.evaluate(s).unwrap();
        let mut manual = Complex64::from_real(m.d()[(0, 1)]);
        for (p, r) in m.poles().iter().zip(m.residues()) {
            manual += r[(0, 1)] / (s - *p);
        }
        assert!((h[(0, 1)] - manual).abs() < 1e-12);
    }

    #[test]
    fn evaluation_at_pole_fails() {
        let m = two_port_model();
        assert!(m.evaluate(c(-1e3, 0.0)).is_err());
    }

    #[test]
    fn sampling_produces_network_data() {
        let m = two_port_model();
        let grid = FrequencyGrid::log_space(1.0, 1e5, 20).unwrap().with_dc();
        let data = m.sample(&grid, ParameterKind::Scattering, 50.0).unwrap();
        assert_eq!(data.len(), 21);
        assert_eq!(data.ports(), 2);
        // DC value equals D + sum of R/|p| contributions (real).
        assert!(data.matrix(0)[(0, 0)].im.abs() < 1e-9);
    }
}
