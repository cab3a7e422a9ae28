//! Magnitude Vector Fitting and spectral factorization.
//!
//! The sensitivity of the PDN target impedance is known only through its
//! magnitude samples `Ξ_k` (it is defined as an expected error amplification,
//! eq. 5 of the paper). To use it as a frequency-dependent weight inside an
//! algebraic (Gramian-based) norm, the paper builds a stable, minimum-phase
//! rational model `Ξ̃(s)` whose magnitude matches the samples (eq. 15–17):
//!
//! 1. the squared magnitude `Ξ_k²` is fitted as a rational function of
//!    `x = ω²` (this is the Magnitude Vector Fitting step, references
//!    \[24\]–\[25\] of the paper);
//! 2. poles and zeros of the fitted spectral function are mapped back to the
//!    `s`-plane and the left-half-plane members are selected, yielding the
//!    minimum-phase spectral factor;
//! 3. the factor is converted to pole–residue form so that a state-space
//!    realization (eq. 16) is available for the cascade construction of
//!    eq. (18).

use crate::poles::{realization_zeros, symmetrize_spectrum};
use crate::{Result, VectFitError};
use pim_linalg::qr::lstsq_scaled;
use pim_linalg::{CMat, Complex64, Mat};
use pim_statespace::{pole_blocks, PoleBlock, PoleResidueModel, StateSpace};

/// Configuration of a magnitude fit.
#[derive(Debug, Clone)]
pub struct MagnitudeFitConfig {
    /// Order (number of poles) of the weighting model `Ξ̃(s)` — `n_w` in the
    /// paper (the test case uses 8).
    pub order: usize,
}

impl Default for MagnitudeFitConfig {
    fn default() -> Self {
        MagnitudeFitConfig { order: 8 }
    }
}

/// Pole-relocation iterations in the `x = ω²` domain.
const N_ITERATIONS: usize = 8;

/// Relative floor applied to the squared-magnitude samples (guards the
/// spectral factorization against a vanishing asymptotic term).
const FLOOR: f64 = 1e-8;

/// A stable, minimum-phase rational model of a magnitude response.
#[derive(Debug, Clone)]
pub struct SensitivityModel {
    model: PoleResidueModel,
}

impl SensitivityModel {
    /// The underlying single-port pole–residue model of `Ξ̃(s)`.
    pub fn model(&self) -> &PoleResidueModel {
        &self.model
    }

    /// A SISO state-space realization of `Ξ̃(s)` (eq. 16 of the paper).
    ///
    /// # Errors
    ///
    /// Propagates realization failures.
    pub fn state_space(&self) -> Result<StateSpace> {
        Ok(StateSpace::from_pole_residue_element(&self.model, 0, 0)?)
    }

    /// Magnitude `|Ξ̃(jω)|` of the model at the angular frequency `ω`.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures (never triggered for stable models and
    /// real frequencies).
    pub fn evaluate_magnitude(&self, omega: f64) -> Result<f64> {
        Ok(self.model.evaluate_at_omega(omega)?[(0, 0)].abs())
    }

    /// Number of poles of the weighting model.
    pub fn order(&self) -> usize {
        self.model.order()
    }
}

/// Fits a stable, minimum-phase rational model `Ξ̃(s)` such that
/// `|Ξ̃(jω_k)| ≈ ξ_k` for the given magnitude samples.
///
/// # Errors
///
/// Returns [`VectFitError::InvalidInput`] for malformed samples or
/// configuration, and [`VectFitError::FitFailed`] when the spectral
/// factorization cannot be completed.
///
/// ```
/// use pim_vectfit::{fit_magnitude, MagnitudeFitConfig};
///
/// # fn main() -> Result<(), pim_vectfit::VectFitError> {
/// // Magnitude of H(s) = 1e3/(s + 1e3): a first-order low-pass.
/// let omegas: Vec<f64> = (0..60).map(|k| 10f64.powf(1.0 + 0.1 * k as f64)).collect();
/// let mags: Vec<f64> = omegas.iter().map(|w| 1e3 / (w * w + 1e6_f64).sqrt()).collect();
/// let cfg = MagnitudeFitConfig { order: 2 };
/// let xi = fit_magnitude(&omegas, &mags, &cfg)?;
/// let err = (xi.evaluate_magnitude(1e3)? - 1.0 / 2f64.sqrt()).abs();
/// assert!(err < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn fit_magnitude(
    omegas: &[f64],
    magnitudes: &[f64],
    config: &MagnitudeFitConfig,
) -> Result<SensitivityModel> {
    if omegas.len() != magnitudes.len() {
        return Err(VectFitError::InvalidInput(format!(
            "{} frequencies but {} magnitude samples",
            omegas.len(),
            magnitudes.len()
        )));
    }
    if config.order == 0 {
        return Err(VectFitError::InvalidInput("order must be positive".into()));
    }
    if omegas.len() < 2 * config.order + 2 {
        return Err(VectFitError::InvalidInput(format!(
            "{} samples are not enough to identify an order-{} magnitude model",
            omegas.len(),
            config.order
        )));
    }
    if magnitudes.iter().any(|&m| !(m >= 0.0) || !m.is_finite()) {
        return Err(VectFitError::InvalidInput(
            "magnitude samples must be finite and non-negative".into(),
        ));
    }
    let max_mag = magnitudes.iter().fold(0.0_f64, |a, &b| a.max(b));
    // audit:allow(float-eq): an all-zero response cannot be magnitude-normalised
    if max_mag == 0.0 {
        return Err(VectFitError::InvalidInput("all magnitude samples are zero".into()));
    }

    // Work in x = ω² with the squared magnitude, floored for robustness.
    let xs_raw: Vec<f64> = omegas.iter().map(|w| w * w).collect();
    let floor_raw = FLOOR * max_mag * max_mag;
    let gs_raw: Vec<f64> = magnitudes.iter().map(|m| (m * m).max(floor_raw)).collect();
    let x_max = xs_raw.iter().fold(0.0_f64, |a, &b| a.max(b));
    let x_min_nz = xs_raw.iter().copied().filter(|&x| x > 0.0).fold(f64::INFINITY, f64::min);
    // audit:allow(float-eq): exact-zero maximum abscissa makes the log map degenerate
    if !x_max.is_finite() || x_max == 0.0 || !x_min_nz.is_finite() {
        return Err(VectFitError::InvalidInput(
            "frequency samples must span a positive band".into(),
        ));
    }

    // Normalize the abscissa and the magnitude so the regression columns are
    // O(1); the result is rescaled afterwards.
    let g_scale = gs_raw.iter().fold(0.0_f64, |a, &b| a.max(b));
    let xs: Vec<f64> = xs_raw.iter().map(|x| x / x_max).collect();
    let gs: Vec<f64> = gs_raw.iter().map(|g| g / g_scale).collect();
    let floor = floor_raw / g_scale;
    let x_min_n = x_min_nz / x_max;

    // The spectral function G(x) gets one x-domain pole per requested order:
    // each x-domain pole expands to a ± pair in s, of which the stable one is
    // kept, so the s-domain order equals the x-domain order.
    let m_order = config.order;
    // Initial x-domain poles: real, negative, log-spaced over the x band.
    let mut q: Vec<Complex64> = (0..m_order)
        .map(|k| {
            let t = if m_order == 1 { 0.5 } else { k as f64 / (m_order - 1) as f64 };
            let mag = 10f64.powf(x_min_n.log10() + (0.0 - x_min_n.log10()) * t);
            Complex64::new(-mag, 0.0)
        })
        .collect();

    for _ in 0..N_ITERATIONS {
        q = relocate_real_axis_poles(&xs, &gs, &q)?;
        // In the x = ω² domain the only forbidden pole locations are on the
        // positive real axis (where the data lives): a lightly damped s-plane
        // resonance maps to an x-domain pole with *positive* real part and
        // nonzero imaginary part, which is perfectly legitimate. Only real
        // positive poles are reflected.
        for pole in &mut q {
            // audit:allow(float-eq): real poles carry a bitwise-zero imaginary part by construction
            if pole.im == 0.0 && pole.re > 0.0 {
                pole.re = -pole.re;
            }
        }
    }

    // Final residue identification for G(x) = d + Σ r/(x - q).
    let (coeffs, d_fit) = identify_real_axis_residues(&xs, &gs, &q)?;
    let d_spec = if d_fit > floor { d_fit } else { floor };

    // Zeros of G(x) = d + c·(xI − A)⁻¹·b.
    let x_zeros = realization_zeros(&q, &coeffs, d_spec)?;

    // Undo the abscissa normalization, then map x-domain poles/zeros to the
    // stable / minimum-phase s-domain members:
    // x = -s²  ⇒  s = ±√(-x); keep the root with negative real part.
    let q_full: Vec<Complex64> = q.iter().map(|p| p.scale(x_max)).collect();
    let zeros_full: Vec<Complex64> = x_zeros.iter().map(|z| z.scale(x_max)).collect();
    let s_poles = map_to_stable_s(&q_full);
    let s_zeros = map_to_stable_s(&zeros_full);

    // Gain: match sqrt(G) against the unit-gain factor in a robust (median) way.
    let mut ratios: Vec<f64> = Vec::with_capacity(xs.len());
    for (k, &w) in omegas.iter().enumerate() {
        let s = Complex64::from_imag(w);
        let mut num = Complex64::ONE;
        for z in &s_zeros {
            num *= s - *z;
        }
        let mut den = Complex64::ONE;
        for p in &s_poles {
            den *= s - *p;
        }
        let unit = (num / den).abs();
        if unit > 0.0 && unit.is_finite() {
            ratios.push(gs_raw[k].sqrt() / unit);
        }
    }
    if ratios.is_empty() {
        return Err(VectFitError::FitFailed(
            "cannot determine the gain of the spectral factor".into(),
        ));
    }
    ratios.sort_by(f64::total_cmp);
    let gain = ratios[ratios.len() / 2];

    // Partial-fraction expansion of gain·Π(s−z)/Π(s−p).
    let model = expand_partial_fractions(gain, &s_zeros, &s_poles)?;
    Ok(SensitivityModel { model })
}

/// One pole-relocation step of the scalar real-axis (x-domain) fit.
fn relocate_real_axis_poles(xs: &[f64], gs: &[f64], q: &[Complex64]) -> Result<Vec<Complex64>> {
    let k_samples = xs.len();
    let n = q.len();
    let blocks = pole_blocks(q)?;
    // System: [phi, 1, -g*phi] [c; d; c~] = g  (all real).
    let mut a = Mat::zeros(k_samples, 2 * n + 1);
    let mut rhs = vec![0.0; k_samples];
    for k in 0..k_samples {
        // Relative (1/g) row weighting: the fit then tracks the magnitude in
        // relative terms over its whole dynamic range, which is what a
        // frequency-dependent weight needs (cf. Fig. 3 of the paper).
        let wk = 1.0 / gs[k];
        for blk in &blocks {
            match *blk {
                PoleBlock::Real(i) => {
                    let phi = 1.0 / (xs[k] - q[i].re);
                    a[(k, i)] = wk * phi;
                    a[(k, n + 1 + i)] = -gs[k] * wk * phi;
                }
                PoleBlock::Pair(i) => {
                    let s = Complex64::from_real(xs[k]);
                    let f1 = (s - q[i]).recip();
                    let f2 = (s - q[i + 1]).recip();
                    let phi = (f1 + f2).re;
                    let phi2 = ((f1 - f2) * Complex64::I).re;
                    a[(k, i)] = wk * phi;
                    a[(k, i + 1)] = wk * phi2;
                    a[(k, n + 1 + i)] = -gs[k] * wk * phi;
                    a[(k, n + 1 + i + 1)] = -gs[k] * wk * phi2;
                }
            }
        }
        a[(k, n)] = wk;
        rhs[k] = wk * gs[k];
    }
    let sol = lstsq_scaled(&a, &rhs, 1e-10)?;
    let sigma_res = &sol[n + 1..];

    // The new poles are the zeros of sigma(x) = 1 + c̃·(xI − A)⁻¹·b.
    let mut new_q = realization_zeros(q, sigma_res, 1.0)?;
    new_q.sort_by(|a, b| {
        (a.im.abs(), a.re).partial_cmp(&(b.im.abs(), b.re)).unwrap_or(std::cmp::Ordering::Equal)
    });
    // Re-pair after sorting (sorting may interleave pair members).
    Ok(symmetrize_spectrum(&new_q))
}

/// Residue identification with fixed x-domain poles. Returns the real
/// coefficient vector (aligned with the real-pair basis) and the constant
/// term.
fn identify_real_axis_residues(xs: &[f64], gs: &[f64], q: &[Complex64]) -> Result<(Vec<f64>, f64)> {
    let k_samples = xs.len();
    let n = q.len();
    let blocks = pole_blocks(q)?;
    let mut a = Mat::zeros(k_samples, n + 1);
    let mut rhs = vec![0.0; k_samples];
    for k in 0..k_samples {
        let wk = 1.0 / gs[k];
        for blk in &blocks {
            match *blk {
                PoleBlock::Real(i) => {
                    a[(k, i)] = wk / (xs[k] - q[i].re);
                }
                PoleBlock::Pair(i) => {
                    let s = Complex64::from_real(xs[k]);
                    let f1 = (s - q[i]).recip();
                    let f2 = (s - q[i + 1]).recip();
                    a[(k, i)] = wk * (f1 + f2).re;
                    a[(k, i + 1)] = wk * ((f1 - f2) * Complex64::I).re;
                }
            }
        }
        a[(k, n)] = wk;
        rhs[k] = 1.0;
    }
    let sol = lstsq_scaled(&a, &rhs, 1e-10)?;
    let d = sol[n];
    Ok((sol[..n].to_vec(), d))
}

/// Maps x-domain poles/zeros to their stable (left-half-plane) s-domain
/// counterparts through `s = −√(−x)`.
fn map_to_stable_s(xs: &[Complex64]) -> Vec<Complex64> {
    let mut out: Vec<Complex64> = xs.iter().map(|&x| -((-x).sqrt())).collect();
    // Guard: purely imaginary results (x real positive) are nudged into the
    // LHP so the factor stays strictly stable.
    for p in &mut out {
        if p.re > -1e-12 * p.abs().max(1.0) {
            p.re = -1e-6 * p.abs().max(1.0);
        }
    }
    symmetrize_spectrum(&out)
}

/// Expands `gain·Π(s−z)/Π(s−p)` into pole–residue form and packages it as a
/// single-port [`PoleResidueModel`].
fn expand_partial_fractions(
    gain: f64,
    zeros: &[Complex64],
    poles: &[Complex64],
) -> Result<PoleResidueModel> {
    // Separate poles that are numerically coincident to avoid division by zero.
    let mut p = poles.to_vec();
    for i in 0..p.len() {
        for j in 0..i {
            if (p[i] - p[j]).abs() < 1e-9 * p[i].abs().max(1e-30) {
                p[i].re *= 1.0 + 1e-6;
                p[i].im *= 1.0 - 1e-6;
            }
        }
    }
    let p = symmetrize_spectrum(&p);
    let d_term = if zeros.len() >= p.len() { gain } else { 0.0 };
    let mut residues = Vec::with_capacity(p.len());
    for (i, &pi) in p.iter().enumerate() {
        let mut num = Complex64::from_real(gain);
        for z in zeros {
            num *= pi - *z;
        }
        let mut den = Complex64::ONE;
        for (j, &pj) in p.iter().enumerate() {
            if j != i {
                den *= pi - pj;
            }
        }
        // audit:allow(float-eq): evaluation exactly on a pole must take the limit branch
        if den.abs() == 0.0 {
            return Err(VectFitError::FitFailed(
                "repeated poles in the spectral factor; partial fraction expansion failed".into(),
            ));
        }
        residues.push(num / den);
    }
    // Force exact conjugate symmetry / realness expected by the model type.
    let blocks = pole_blocks(&p)?;
    let mut res_mats = vec![CMat::zeros(1, 1); p.len()];
    for blk in &blocks {
        match *blk {
            PoleBlock::Real(i) => {
                res_mats[i][(0, 0)] = Complex64::from_real(residues[i].re);
            }
            PoleBlock::Pair(i) => {
                res_mats[i][(0, 0)] = residues[i];
                res_mats[i + 1][(0, 0)] = residues[i].conj();
            }
        }
    }
    Ok(PoleResidueModel::new(p, res_mats, Mat::from_diag(&[d_term]))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_omegas(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| 10f64.powf(lo.log10() + (hi.log10() - lo.log10()) * k as f64 / (n - 1) as f64))
            .collect()
    }

    #[test]
    fn fits_first_order_low_pass_magnitude() {
        let omegas = log_omegas(1.0, 1e6, 80);
        let mags: Vec<f64> = omegas.iter().map(|w| 2e3 / (w * w + 1e6_f64).sqrt()).collect();
        let cfg = MagnitudeFitConfig { order: 2 };
        let xi = fit_magnitude(&omegas, &mags, &cfg).unwrap();
        for (k, &w) in omegas.iter().enumerate() {
            let m = xi.evaluate_magnitude(w).unwrap();
            assert!(
                (m - mags[k]).abs() < 2e-2 * mags[0].max(mags[k]),
                "mismatch at w={w}: {m} vs {}",
                mags[k]
            );
        }
        assert!(xi.model().is_stable());
    }

    #[test]
    fn fits_band_limited_bump() {
        // |H| with a mild resonant bump, similar in shape to a PDN sensitivity.
        let omegas = log_omegas(1e2, 1e8, 120);
        let mags: Vec<f64> = omegas
            .iter()
            .map(|&w| {
                let s = Complex64::from_imag(w);
                let h = (s * 1e-5 + 1.0).recip() * 30.0
                    + ((s / 3e6) * (s / 3e6) + s / 3e6 * 0.6 + 1.0).recip() * 2.0;
                h.abs()
            })
            .collect();
        let cfg = MagnitudeFitConfig { order: 8 };
        let xi = fit_magnitude(&omegas, &mags, &cfg).unwrap();
        // A sensitivity weight only needs to track the magnitude shape, not
        // reproduce it exactly (the paper leaves the resonant spike of its
        // Fig. 3 unfitted); require a 20% relative match where it matters.
        let peak = mags.iter().fold(0.0_f64, |a, &b| a.max(b));
        for (k, &w) in omegas.iter().enumerate() {
            if mags[k] > 0.05 * peak {
                let m = xi.evaluate_magnitude(w).unwrap();
                assert!(
                    (m - mags[k]).abs() < 0.2 * mags[k],
                    "mismatch at w={w}: model {m} vs data {}",
                    mags[k]
                );
            }
        }
        assert!(xi.model().is_stable());
        assert_eq!(xi.order(), 8);
    }

    #[test]
    fn state_space_realization_matches_model() {
        let omegas = log_omegas(1.0, 1e5, 60);
        let mags: Vec<f64> = omegas.iter().map(|w| 50.0 / (w + 100.0)).collect();
        let cfg = MagnitudeFitConfig { order: 3 };
        let xi = fit_magnitude(&omegas, &mags, &cfg).unwrap();
        let ss = xi.state_space().unwrap();
        for &w in &[1.0, 57.0, 1e3, 9e4] {
            let a = xi.evaluate_magnitude(w).unwrap();
            let b = ss.evaluate_at_omega(w).unwrap()[(0, 0)].abs();
            assert!((a - b).abs() < 1e-9 * a.max(1.0));
        }
        assert!(ss.is_stable().unwrap());
    }

    #[test]
    fn result_is_minimum_phase_like() {
        // The magnitude of the fitted factor must not depend on which
        // (stable) spectral factor was chosen; verify |Ξ̃| matches the data
        // and all poles are strictly in the LHP.
        let omegas = log_omegas(10.0, 1e7, 100);
        let mags: Vec<f64> = omegas.iter().map(|&w| 5.0 / ((w / 1e3) + 1.0) + 0.2).collect();
        let cfg = MagnitudeFitConfig { order: 4 };
        let xi = fit_magnitude(&omegas, &mags, &cfg).unwrap();
        assert!(xi.model().poles().iter().all(|p| p.re < 0.0));
        let mid = 50;
        let m = xi.evaluate_magnitude(omegas[mid]).unwrap();
        assert!((m - mags[mid]).abs() < 0.1 * mags[mid]);
    }

    #[test]
    fn input_validation() {
        let omegas = log_omegas(1.0, 1e3, 30);
        let mags = vec![1.0; 30];
        let cfg = MagnitudeFitConfig::default();
        assert!(fit_magnitude(&omegas, &mags[..10], &cfg).is_err());
        assert!(fit_magnitude(&omegas, &vec![0.0; 30], &cfg).is_err());
        assert!(fit_magnitude(&omegas, &vec![-1.0; 30], &cfg).is_err());
        let cfg0 = MagnitudeFitConfig { order: 0 };
        assert!(fit_magnitude(&omegas, &mags, &cfg0).is_err());
        let cfg_big = MagnitudeFitConfig { order: 20 };
        assert!(fit_magnitude(&omegas, &mags, &cfg_big).is_err());
    }

    #[test]
    fn constant_magnitude_is_reproduced() {
        let omegas = log_omegas(1.0, 1e4, 40);
        let mags = vec![3.0; 40];
        let cfg = MagnitudeFitConfig { order: 2 };
        let xi = fit_magnitude(&omegas, &mags, &cfg).unwrap();
        for &w in &[2.0, 50.0, 5e3] {
            assert!((xi.evaluate_magnitude(w).unwrap() - 3.0).abs() < 0.05);
        }
    }
}
