//! Real state-space realizations of pole–residue macromodels.

use crate::poles::{pole_blocks, PoleBlock};
use crate::{PoleResidueModel, Result, StateSpaceError};
use pim_linalg::lu::Lu;
use pim_linalg::{CMat, Complex64, Mat};

/// A real state-space system `{A, B, C, D}` with transfer matrix
/// `H(s) = C(sI − A)⁻¹B + D` (eq. 7 of the paper).
///
/// ```
/// use pim_linalg::{Complex64, Mat};
/// use pim_statespace::StateSpace;
///
/// # fn main() -> Result<(), pim_statespace::StateSpaceError> {
/// // H(s) = 1/(s+2)
/// let sys = StateSpace::new(
///     Mat::from_diag(&[-2.0]),
///     Mat::col_vector(&[1.0]),
///     Mat::row_vector(&[1.0]),
///     Mat::from_diag(&[0.0]),
/// )?;
/// let h = sys.evaluate(Complex64::ZERO)?;
/// assert!((h[(0, 0)].re - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StateSpace {
    a: Mat,
    b: Mat,
    c: Mat,
    d: Mat,
}

impl StateSpace {
    /// Builds a system from its four matrices.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidModel`] when the dimensions are
    /// inconsistent (`A` square `n×n`, `B` `n×m`, `C` `p×n`, `D` `p×m`).
    pub fn new(a: Mat, b: Mat, c: Mat, d: Mat) -> Result<Self> {
        if !a.is_square() {
            return Err(StateSpaceError::InvalidModel(format!(
                "A must be square, got {:?}",
                a.shape()
            )));
        }
        let n = a.rows();
        if b.rows() != n {
            return Err(StateSpaceError::InvalidModel(format!(
                "B must have {n} rows, got {:?}",
                b.shape()
            )));
        }
        if c.cols() != n {
            return Err(StateSpaceError::InvalidModel(format!(
                "C must have {n} columns, got {:?}",
                c.shape()
            )));
        }
        if d.shape() != (c.rows(), b.cols()) {
            return Err(StateSpaceError::InvalidModel(format!(
                "D must be {}x{}, got {:?}",
                c.rows(),
                b.cols(),
                d.shape()
            )));
        }
        Ok(StateSpace { a, b, c, d })
    }

    /// State dimension `n`.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.c.rows()
    }

    /// The state matrix `A`.
    pub fn a(&self) -> &Mat {
        &self.a
    }

    /// The input matrix `B`.
    pub fn b(&self) -> &Mat {
        &self.b
    }

    /// The output matrix `C`.
    pub fn c(&self) -> &Mat {
        &self.c
    }

    /// The feedthrough matrix `D`.
    pub fn d(&self) -> &Mat {
        &self.d
    }

    /// Evaluates the transfer matrix at a complex frequency `s`.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::Linalg`] when `sI − A` is singular.
    pub fn evaluate(&self, s: Complex64) -> Result<CMat> {
        let n = self.order();
        let mut si_a = self.a.to_complex().scaled_real(-1.0);
        for i in 0..n {
            si_a[(i, i)] += s;
        }
        let lu = Lu::new(&si_a)?;
        let x = lu.solve(&self.b.to_complex())?;
        let mut h = self.c.to_complex().matmul(&x)?;
        h += &self.d.to_complex();
        Ok(h)
    }

    /// Evaluates the transfer matrix at `s = jω`.
    ///
    /// # Errors
    ///
    /// See [`StateSpace::evaluate`].
    pub fn evaluate_at_omega(&self, omega: f64) -> Result<CMat> {
        self.evaluate(Complex64::from_imag(omega))
    }

    /// Eigenvalues of `A` (the system poles).
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue solver failures.
    pub fn poles(&self) -> Result<Vec<Complex64>> {
        Ok(pim_linalg::eig::eigenvalues(&self.a)?)
    }

    /// `true` when every eigenvalue of `A` has a strictly negative real part.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue solver failures.
    pub fn is_stable(&self) -> Result<bool> {
        Ok(self.poles()?.iter().all(|p| p.re < 0.0))
    }

    /// Builds the single-input realization of `dᵢ + Σₙ rᵢₙ/(s − pₙ)`, one
    /// output `i` per row of `coefficients` (`k × n`) and entry of `d`
    /// (`k`), from `n` conjugate-symmetric poles (pairs adjacent) and the
    /// real coefficients of the residues: `coefficients[(i, m)] = Re r` at a
    /// real pole `m`, and `(coefficients[(i, m)], coefficients[(i, m + 1)])
    /// = (Re r, Im r)` at a pair `(p, p̄)` at indices `m, m + 1`, whose
    /// second residue is `r̄`. One row is the SISO case.
    ///
    /// A real pole is the state `(a, b, c) = (p, 1, Re r)`, and a pair
    /// `σ ± jω` the real block
    ///
    /// ```text
    /// A = [[σ, ω], [−ω, σ]],   b = [1, 0]ᵀ,   c = [2·Re r, 2·Im r]
    /// ```
    ///
    /// the form every model of the flow shares (eq. 3, 7 and 16 of the
    /// paper).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidModel`] when the sizes disagree or
    /// a complex pole has no adjacent conjugate partner.
    pub fn from_real_coefficients(
        poles: &[Complex64],
        coefficients: &Mat,
        d: &[f64],
    ) -> Result<StateSpace> {
        let n = poles.len();
        if coefficients.shape() != (d.len(), n) {
            return Err(StateSpaceError::InvalidModel(format!(
                "{n} poles and {} outputs need {n} coefficients per output, got {:?}",
                d.len(),
                coefficients.shape()
            )));
        }
        let mut a = Mat::zeros(n, n);
        let mut b = Mat::zeros(n, 1);
        let mut c = coefficients.clone();
        for block in pole_blocks(poles)? {
            match block {
                PoleBlock::Real(m) => {
                    a[(m, m)] = poles[m].re;
                    b[(m, 0)] = 1.0;
                }
                PoleBlock::Pair(m) => {
                    let (sigma, omega) = (poles[m].re, poles[m].im);
                    a[(m, m)] = sigma;
                    a[(m, m + 1)] = omega;
                    a[(m + 1, m)] = -omega;
                    a[(m + 1, m + 1)] = sigma;
                    b[(m, 0)] = 1.0;
                    for i in 0..d.len() {
                        c[(i, m)] = 2.0 * coefficients[(i, m)];
                        c[(i, m + 1)] = 2.0 * coefficients[(i, m + 1)];
                    }
                }
            }
        }
        StateSpace::new(a, b, c, Mat::col_vector(d))
    }

    /// Builds the full multiport realization of a pole–residue model with
    /// common poles: the single-input realization `(A_e, b_e, c_ij)` of
    /// every element `(i, j)` expanded as `A = A_e ⊗ I_P` and
    /// `B = b_e ⊗ I_P`, with row `i` of `C` holding `c_ij` at the states of
    /// input `j` (the standard Gilbert-style realization used by Vector
    /// Fitting).
    ///
    /// The state dimension is `order × ports`.
    ///
    /// # Errors
    ///
    /// Propagates model validation failures.
    pub fn from_pole_residue(model: &PoleResidueModel) -> Result<StateSpace> {
        let ports = model.ports();
        let elements: Vec<(usize, usize)> =
            (0..ports).flat_map(|i| (0..ports).map(move |j| (i, j))).collect();
        let d: Vec<f64> = elements.iter().map(|&(i, j)| model.d()[(i, j)]).collect();
        let e = StateSpace::from_real_coefficients(
            model.poles(),
            &residue_coefficients(model, &elements)?,
            &d,
        )?;
        let order = e.order();
        let n = order * ports;
        let mut a = Mat::zeros(n, n);
        let mut b = Mat::zeros(n, ports);
        let mut c = Mat::zeros(ports, n);
        for j in 0..ports {
            for s in 0..order {
                b[(s * ports + j, j)] = e.b[(s, 0)];
                // `A_e` is block diagonal in blocks of one and two states.
                for t in s.saturating_sub(1)..order.min(s + 2) {
                    a[(s * ports + j, t * ports + j)] = e.a[(s, t)];
                }
                for i in 0..ports {
                    c[(i, s * ports + j)] = e.c[(i * ports + j, s)];
                }
            }
        }
        StateSpace::new(a, b, c, model.d().clone())
    }

    /// Builds the single-input single-output realization of matrix element
    /// `(i, j)` of a pole–residue model
    /// ([`StateSpace::from_real_coefficients`] of its residues). The state
    /// dimension equals the model order (number of poles).
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidModel`] for out-of-range indices.
    pub fn from_pole_residue_element(
        model: &PoleResidueModel,
        i: usize,
        j: usize,
    ) -> Result<StateSpace> {
        let ports = model.ports();
        if i >= ports || j >= ports {
            return Err(StateSpaceError::InvalidModel(format!(
                "element ({i},{j}) out of range for a {ports}-port model"
            )));
        }
        StateSpace::from_real_coefficients(
            model.poles(),
            &residue_coefficients(model, &[(i, j)])?,
            &[model.d()[(i, j)]],
        )
    }

    /// Series (cascade) connection realizing the product `self(s) · other(s)`
    /// for two SISO systems, in the block form of eq. (18) of the paper:
    ///
    /// ```text
    /// [ A₁   b₁c₂ | b₁d₂ ]
    /// [ 0    A₂   | b₂   ]
    /// [ c₁   d₁c₂ | d₁d₂ ]
    /// ```
    ///
    /// where subscript 1 is `self` (e.g. `S_ij`) and 2 is `other` (e.g. the
    /// sensitivity macromodel `Ξ̃`). The first `n₁` states are those of
    /// `self`, which is what the partitioned Gramian of eq. (19) relies on.
    ///
    /// # Errors
    ///
    /// Returns [`StateSpaceError::InvalidModel`] if either system is not SISO.
    pub fn cascade_siso(&self, other: &StateSpace) -> Result<StateSpace> {
        if self.inputs() != 1 || self.outputs() != 1 || other.inputs() != 1 || other.outputs() != 1
        {
            return Err(StateSpaceError::InvalidModel(
                "cascade_siso requires two single-input single-output systems".into(),
            ));
        }
        let n1 = self.order();
        let n2 = other.order();
        let d1 = self.d[(0, 0)];
        let d2 = other.d[(0, 0)];
        let mut a = Mat::zeros(n1 + n2, n1 + n2);
        a.set_block(0, 0, &self.a);
        a.set_block(n1, n1, &other.a);
        // b1 * c2 block (n1 x n2)
        let b1c2 = self.b.matmul(&other.c)?;
        a.set_block(0, n1, &b1c2);
        let mut b = Mat::zeros(n1 + n2, 1);
        b.set_block(0, 0, &self.b.scaled(d2));
        b.set_block(n1, 0, &other.b);
        let mut c = Mat::zeros(1, n1 + n2);
        c.set_block(0, 0, &self.c);
        c.set_block(0, n1, &other.c.scaled(d1));
        let d = Mat::from_diag(&[d1 * d2]);
        StateSpace::new(a, b, c, d)
    }
}

/// The real coefficients of the residues of `model`'s elements, one row per
/// element: `Re r` at a real pole, `(Re r, Im r)` at a conjugate pair.
fn residue_coefficients(model: &PoleResidueModel, elements: &[(usize, usize)]) -> Result<Mat> {
    let residues = model.residues();
    let mut coefficients = Mat::zeros(elements.len(), model.order());
    for block in pole_blocks(model.poles())? {
        for (row, &(i, j)) in elements.iter().enumerate() {
            match block {
                PoleBlock::Real(m) => coefficients[(row, m)] = residues[m][(i, j)].re,
                PoleBlock::Pair(m) => {
                    coefficients[(row, m)] = residues[m][(i, j)].re;
                    coefficients[(row, m + 1)] = residues[m][(i, j)].im;
                }
            }
        }
    }
    Ok(coefficients)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn two_port_model() -> PoleResidueModel {
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
    fn construction_validation() {
        assert!(StateSpace::new(
            Mat::zeros(2, 3),
            Mat::zeros(2, 1),
            Mat::zeros(1, 2),
            Mat::zeros(1, 1)
        )
        .is_err());
        assert!(StateSpace::new(
            Mat::identity(2),
            Mat::zeros(3, 1),
            Mat::zeros(1, 2),
            Mat::zeros(1, 1)
        )
        .is_err());
        assert!(StateSpace::new(
            Mat::identity(2),
            Mat::zeros(2, 1),
            Mat::zeros(1, 3),
            Mat::zeros(1, 1)
        )
        .is_err());
        assert!(StateSpace::new(
            Mat::identity(2),
            Mat::zeros(2, 1),
            Mat::zeros(1, 2),
            Mat::zeros(2, 2)
        )
        .is_err());
    }

    #[test]
    fn real_coefficient_builder_realizes_the_partial_fractions() {
        let (p0, p) = (c(-3.0, 0.0), c(-0.5, 4.0));
        let (c0, c1, c2, d) = (1.5, -0.75, 2.25, 0.4);
        let coefficients = Mat::row_vector(&[c0, c1, c2]);
        let sys =
            StateSpace::from_real_coefficients(&[p0, p, p.conj()], &coefficients, &[d]).unwrap();
        for s in [c(0.0, 0.0), c(0.0, 4.0), c(2.0, -7.5), c(-1.0, 0.3)] {
            let want = Complex64::from_real(d)
                + Complex64::from_real(c0) / (s - p0)
                + c(c1, c2) / (s - p)
                + c(c1, -c2) / (s - p.conj());
            let got = sys.evaluate(s).unwrap()[(0, 0)];
            assert!((got - want).abs() < 1e-12 * want.abs().max(1.0), "at {s}: {got} vs {want}");
        }
        assert!(StateSpace::from_real_coefficients(&[p0], &coefficients, &[d]).is_err());
        assert!(StateSpace::from_real_coefficients(&[p], &Mat::row_vector(&[c1]), &[d]).is_err());
    }

    #[test]
    fn full_realization_matches_pole_residue_evaluation() {
        let model = two_port_model();
        let sys = StateSpace::from_pole_residue(&model).unwrap();
        assert_eq!(sys.order(), 3 * 2); // 3 scalar states x 2 ports
        assert_eq!(sys.inputs(), 2);
        assert_eq!(sys.outputs(), 2);
        for &omega in &[0.0, 1e2, 1e3, 7e3, 1e5] {
            let h_pr = model.evaluate_at_omega(omega).unwrap();
            let h_ss = sys.evaluate_at_omega(omega).unwrap();
            assert!(
                h_ss.max_abs_diff(&h_pr) < 1e-9 * h_pr.max_abs().max(1.0),
                "mismatch at omega={omega}"
            );
        }
        assert!(sys.is_stable().unwrap());
    }

    #[test]
    fn element_realization_matches_pole_residue_evaluation() {
        let model = two_port_model();
        for i in 0..2 {
            for j in 0..2 {
                let sys = StateSpace::from_pole_residue_element(&model, i, j).unwrap();
                assert_eq!(sys.order(), 3);
                for &omega in &[0.0, 3e3, 2e4] {
                    let h_pr = model.evaluate_at_omega(omega).unwrap()[(i, j)];
                    let h_ss = sys.evaluate_at_omega(omega).unwrap()[(0, 0)];
                    assert!((h_pr - h_ss).abs() < 1e-9 * h_pr.abs().max(1.0));
                }
            }
        }
        assert!(StateSpace::from_pole_residue_element(&model, 3, 0).is_err());
    }

    #[test]
    fn poles_of_realization_match_model_poles() {
        let model = two_port_model();
        let sys = StateSpace::from_pole_residue_element(&model, 0, 0).unwrap();
        let mut poles = sys.poles().unwrap();
        poles.sort_by(|a, b| a.im.total_cmp(&b.im));
        assert!((poles[0] - c(-2e3, -5e3)).abs() < 1e-6);
        assert!((poles[1] - c(-1e3, 0.0)).abs() < 1e-6);
        assert!((poles[2] - c(-2e3, 5e3)).abs() < 1e-6);
    }

    #[test]
    fn cascade_realizes_transfer_product() {
        let model = two_port_model();
        let s1 = StateSpace::from_pole_residue_element(&model, 0, 1).unwrap();
        // A simple weighting system: W(s) = (s + 100) / (s + 1000) realized directly.
        let w = StateSpace::new(
            Mat::from_diag(&[-1000.0]),
            Mat::col_vector(&[1.0]),
            Mat::row_vector(&[100.0 - 1000.0]),
            Mat::from_diag(&[1.0]),
        )
        .unwrap();
        let prod = s1.cascade_siso(&w).unwrap();
        assert_eq!(prod.order(), s1.order() + w.order());
        for &omega in &[0.0, 50.0, 500.0, 5e3, 5e4] {
            let h1 = s1.evaluate_at_omega(omega).unwrap()[(0, 0)];
            let h2 = w.evaluate_at_omega(omega).unwrap()[(0, 0)];
            let hp = prod.evaluate_at_omega(omega).unwrap()[(0, 0)];
            assert!((hp - h1 * h2).abs() < 1e-9 * (h1 * h2).abs().max(1.0));
        }
        // Non-SISO systems are rejected.
        let full = StateSpace::from_pole_residue(&model).unwrap();
        assert!(full.cascade_siso(&w).is_err());
    }
}
