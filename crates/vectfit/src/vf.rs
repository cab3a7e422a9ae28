//! Vector Fitting of tabulated multiport frequency responses.
//!
//! This is the classic pole-relocation algorithm of Gustavsen & Semlyen
//! (reference \[8\] of the paper) in its "fast" per-element QR-compressed form,
//! extended with the per-frequency weighting of eq. (6) that the paper uses to
//! embed the PDN sensitivity into the fitting metric.

use crate::poles::{flip_unstable, initial_poles, realization_zeros};
use crate::{Result, VectFitError};
use pim_linalg::qr::{lstsq_scaled, QrFactor};
use pim_linalg::{CMat, Complex64, Mat};
use pim_rfdata::NetworkData;
use pim_statespace::{pole_blocks, PoleBlock, PoleResidueModel};

/// Configuration of a Vector Fitting run.
///
/// The fit always starts from the log-spaced heuristic poles, reflects
/// unstable relocated poles into the left half plane, includes the constant
/// term `D`, and symmetrizes the residues and `D` (reciprocal networks).
#[derive(Debug, Clone)]
pub struct VfConfig {
    /// Model order (number of poles, counting both members of complex pairs).
    pub n_poles: usize,
    /// Number of pole-relocation iterations.
    pub n_iterations: usize,
}

impl Default for VfConfig {
    fn default() -> Self {
        VfConfig { n_poles: 12, n_iterations: 5 }
    }
}

/// Outcome of a Vector Fitting run.
#[derive(Debug, Clone)]
pub struct VfResult {
    /// The identified pole–residue macromodel.
    pub model: PoleResidueModel,
    /// Unweighted RMS fitting error over all entries and frequencies.
    pub rms_error: f64,
    /// Weighted RMS fitting error (equals `rms_error` for unit weights).
    pub weighted_rms_error: f64,
}

/// Fits a common-pole rational macromodel to tabulated frequency responses.
///
/// `weights`, when provided, must hold one non-negative value per frequency
/// sample; the least-squares metric becomes the weighted error of eq. (6).
///
/// # Errors
///
/// Returns [`VectFitError::InvalidInput`] for malformed configuration or
/// weights and propagates numerical failures of the underlying solvers.
///
/// ```
/// use pim_linalg::{CMat, Complex64};
/// use pim_rfdata::{FrequencyGrid, NetworkData, ParameterKind};
/// use pim_vectfit::{vector_fit, VfConfig};
///
/// # fn main() -> Result<(), pim_vectfit::VectFitError> {
/// // Samples of H(s) = 1/(s+100) on a small grid.
/// let grid = FrequencyGrid::log_space(1.0, 1e4, 40)?;
/// let mats: Vec<CMat> = grid
///     .omegas()
///     .iter()
///     .map(|&w| CMat::from_diag(&[(Complex64::new(100.0, w)).recip()]))
///     .collect();
/// let data = NetworkData::new(grid, mats, ParameterKind::Scattering, 50.0)?;
/// let cfg = VfConfig { n_poles: 3, n_iterations: 4 };
/// let fit = vector_fit(&data, None, &cfg)?;
/// assert!(fit.rms_error < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn vector_fit(
    data: &NetworkData,
    weights: Option<&[f64]>,
    config: &VfConfig,
) -> Result<VfResult> {
    let k_samples = data.len();
    let ports = data.ports();
    if config.n_poles == 0 {
        return Err(VectFitError::InvalidInput("n_poles must be positive".into()));
    }
    if 2 * k_samples < 2 * config.n_poles + 2 {
        return Err(VectFitError::InvalidInput(format!(
            "{} frequency samples are not enough to identify {} poles",
            k_samples, config.n_poles
        )));
    }
    let w: Vec<f64> = match weights {
        Some(w) => {
            if w.len() != k_samples {
                return Err(VectFitError::InvalidInput(format!(
                    "expected {} weights, got {}",
                    k_samples,
                    w.len()
                )));
            }
            if w.iter().any(|&x| !(x >= 0.0) || !x.is_finite()) {
                return Err(VectFitError::InvalidInput(
                    "weights must be finite and non-negative".into(),
                ));
            }
            w.to_vec()
        }
        None => vec![1.0; k_samples],
    };

    let omegas = data.grid().omegas();
    let w_min = omegas.iter().copied().find(|&x| x > 0.0).unwrap_or(1.0);
    let w_max = omegas.last().copied().unwrap_or(1.0).max(w_min * 10.0);
    let initial = initial_poles(w_min, w_max, config.n_poles)?;

    // Normalize the frequency axis so every regression column is O(1); the
    // huge dynamic range of PDN grids (kHz to GHz) would otherwise make the
    // least-squares systems badly scaled.
    let omega_scale = omegas.iter().copied().fold(0.0_f64, f64::max).max(f64::MIN_POSITIVE);
    let omegas_n: Vec<f64> = omegas.iter().map(|w| w / omega_scale).collect();
    let mut poles: Vec<Complex64> = initial.iter().map(|p| p.scale(1.0 / omega_scale)).collect();

    for _iter in 0..config.n_iterations {
        poles = relocate_poles(data, &omegas_n, &w, &poles)?;
        flip_unstable(&mut poles);
    }

    let model_n = identify_residues(data, &omegas_n, &w, &poles)?;
    // Undo the frequency normalization: s = ω_scale·s' maps poles and
    // residues by the same factor and leaves the constant term untouched.
    let model = PoleResidueModel::new(
        model_n.poles().iter().map(|p| p.scale(omega_scale)).collect(),
        model_n.residues().iter().map(|r| r.scaled_real(omega_scale)).collect(),
        model_n.d().clone(),
    )?;

    // Fitting errors.
    let mut sum_sq = 0.0;
    let mut sum_sq_w = 0.0;
    for (k, &omega) in omegas.iter().enumerate() {
        let h = model.evaluate_at_omega(omega)?;
        let diff = (&h - data.matrix(k)).frobenius_norm();
        sum_sq += diff * diff;
        sum_sq_w += w[k] * w[k] * diff * diff;
    }
    let denom = (k_samples * ports * ports) as f64;
    Ok(VfResult {
        model,
        rms_error: (sum_sq / denom).sqrt(),
        weighted_rms_error: (sum_sq_w / denom).sqrt(),
    })
}

/// Builds the real-coefficient partial-fraction basis at every frequency:
/// column `n` holds the basis function of real coefficient `n`.
fn build_basis(omegas: &[f64], poles: &[Complex64]) -> Result<CMat> {
    let blocks = pole_blocks(poles)?;
    let n = poles.len();
    let mut phi = CMat::zeros(omegas.len(), n);
    for (k, &omega) in omegas.iter().enumerate() {
        let s = Complex64::from_imag(omega);
        for blk in &blocks {
            match *blk {
                PoleBlock::Real(i) => {
                    phi[(k, i)] = (s - poles[i]).recip();
                }
                PoleBlock::Pair(i) => {
                    let a = (s - poles[i]).recip();
                    let b = (s - poles[i + 1]).recip();
                    phi[(k, i)] = a + b;
                    phi[(k, i + 1)] = (a - b) * Complex64::I;
                }
            }
        }
    }
    Ok(phi)
}

/// The weighted real regression block `[φ, 1]` shared by every matrix
/// element: the real parts of the basis columns of `phi` over the imaginary
/// parts, row `k` of each half scaled by `weights[k]`, and a last column
/// that carries the constant term in the real half only.
fn weighted_basis_block(phi: &CMat, weights: &[f64]) -> Mat {
    let (k_samples, n) = phi.shape();
    let mut a = Mat::zeros(2 * k_samples, n + 1);
    for (k, &wk) in weights.iter().enumerate() {
        for c in 0..n {
            let b = phi[(k, c)];
            a[(k, c)] = wk * b.re;
            a[(k_samples + k, c)] = wk * b.im;
        }
        a[(k, n)] = wk;
    }
    a
}

/// One pole-relocation step: identifies the residues of the scaling function
/// `σ(s) = 1 + Σ c̃ₙ φₙ(s)` by compressed least squares over every matrix
/// element, then returns the zeros of `σ` as the new pole set.
fn relocate_poles(
    data: &NetworkData,
    omegas: &[f64],
    weights: &[f64],
    poles: &[Complex64],
) -> Result<Vec<Complex64>> {
    let k_samples = omegas.len();
    let ports = data.ports();
    let n = poles.len();
    // The shared columns: one per basis function plus the constant term.
    let n_local = n + 1;
    let phi = build_basis(omegas, poles)?;

    // Compressed normal-block accumulation: for every element, QR-factor the
    // local problem `[phi, 1 | -h*phi] x = h` and keep only the rows that
    // couple to the shared sigma unknowns.
    //
    // The left block `[phi, 1]` is the same for every matrix element, so its
    // Householder reflectors are computed once and applied (`Qᵀ`) to each
    // element's sigma columns and right-hand side; only the trailing rows —
    // the residual after projecting out the shared columns — then need a
    // (much smaller) per-element QR. This produces bit-identical compressed
    // rows at roughly a third of the factorization work.
    let q1 = QrFactor::new(&weighted_basis_block(&phi, weights))?;
    let tail_rows = 2 * k_samples - n_local;

    let mut stacked = Mat::zeros(ports * ports * n, n);
    let mut stacked_rhs = vec![0.0; ports * ports * n];
    let mut colbuf = vec![0.0; 2 * k_samples];
    let mut tail = Mat::zeros(tail_rows, n + 1);
    for i in 0..ports {
        for j in 0..ports {
            let h = data.element(i, j);
            for c in 0..=n {
                if c < n {
                    // Sigma column c: -w·h·phi_c.
                    for k in 0..k_samples {
                        let hb = h[k] * phi[(k, c)];
                        colbuf[k] = -weights[k] * hb.re;
                        colbuf[k_samples + k] = -weights[k] * hb.im;
                    }
                } else {
                    // Right-hand side: w·h.
                    for k in 0..k_samples {
                        colbuf[k] = weights[k] * h[k].re;
                        colbuf[k_samples + k] = weights[k] * h[k].im;
                    }
                }
                q1.apply_qt_in_place(&mut colbuf);
                for r in 0..tail_rows {
                    tail[(r, c)] = colbuf[n_local + r];
                }
            }
            let r2 = QrFactor::new(&tail)?.r();
            // Rows 0..n of the tail factor are the rows n_local..n_local+n
            // of the full factorization: the sigma-only coupling block.
            let base = (i * ports + j) * n;
            for row in 0..n {
                for c in row..n {
                    stacked[(base + row, c)] = r2[(row, c)];
                }
                stacked_rhs[base + row] = r2[(row, n)];
            }
        }
    }
    let big = stacked;
    // A lightly regularized, column-equilibrated solve: when the data can be
    // fitted exactly with fewer poles than requested, the scaling-function
    // problem is rank deficient and the regularization picks the small-norm
    // solution (equivalent to leaving the surplus poles in place).
    let sigma_res = lstsq_scaled(&big, &stacked_rhs, 1e-10)?;

    // The new poles are the zeros of sigma(s) = 1 + c̃·(sI − A)⁻¹·b.
    let mut new_poles = realization_zeros(poles, &sigma_res, 1.0)?;
    // Keep a deterministic ordering: ascending |Im|, then ascending Re.
    sort_pole_pairs(&mut new_poles);
    Ok(new_poles)
}

/// Sorts a conjugate-symmetric pole list (pairs adjacent, positive imaginary
/// part first within a pair) by ascending imaginary magnitude.
fn sort_pole_pairs(poles: &mut Vec<Complex64>) {
    let blocks = pole_blocks(poles).unwrap_or_default();
    let mut groups: Vec<Vec<Complex64>> = Vec::new();
    for blk in blocks {
        match blk {
            PoleBlock::Real(i) => groups.push(vec![poles[i]]),
            PoleBlock::Pair(i) => {
                let p = if poles[i].im >= 0.0 { poles[i] } else { poles[i + 1] };
                groups.push(vec![p, p.conj()]);
            }
        }
    }
    groups.sort_by(|a, b| {
        let ka = (a[0].im.abs(), a[0].re);
        let kb = (b[0].im.abs(), b[0].re);
        ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
    });
    *poles = groups.into_iter().flatten().collect();
}

/// Final residue identification with fixed poles.
fn identify_residues(
    data: &NetworkData,
    omegas: &[f64],
    weights: &[f64],
    poles: &[Complex64],
) -> Result<PoleResidueModel> {
    let k_samples = omegas.len();
    let ports = data.ports();
    let n = poles.len();
    let phi = build_basis(omegas, poles)?;
    let blocks = pole_blocks(poles)?;

    // Shared regression matrix (identical for every element): the basis
    // functions plus the constant term.
    let qr = QrFactor::new(&weighted_basis_block(&phi, weights))?;

    let mut residues = vec![CMat::zeros(ports, ports); n];
    let mut d = Mat::zeros(ports, ports);
    for i in 0..ports {
        for j in 0..ports {
            let h = data.element(i, j);
            let mut rhs = vec![0.0; 2 * k_samples];
            for k in 0..k_samples {
                rhs[k] = weights[k] * h[k].re;
                rhs[k_samples + k] = weights[k] * h[k].im;
            }
            let x = qr.solve_least_squares(&rhs)?;
            for blk in &blocks {
                match *blk {
                    PoleBlock::Real(m) => {
                        residues[m][(i, j)] = Complex64::from_real(x[m]);
                    }
                    PoleBlock::Pair(m) => {
                        let r = Complex64::new(x[m], x[m + 1]);
                        residues[m][(i, j)] = r;
                        residues[m + 1][(i, j)] = r.conj();
                    }
                }
            }
            d[(i, j)] = x[n];
        }
    }

    for r in &mut residues {
        let sym = CMat::from_fn(ports, ports, |i, j| (r[(i, j)] + r[(j, i)]).scale(0.5));
        *r = sym;
    }
    d = Mat::from_fn(ports, ports, |i, j| 0.5 * (d[(i, j)] + d[(j, i)]));

    Ok(PoleResidueModel::new(poles.to_vec(), residues, d)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_rfdata::{FrequencyGrid, ParameterKind};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// A known 2-port rational function sampled on a grid.
    fn synthetic_data(grid: &FrequencyGrid) -> (PoleResidueModel, NetworkData) {
        let p1 = c(-2e4, 0.0);
        let p2 = c(-5e4, 3e5);
        let r1 = CMat::from_fn(2, 2, |i, j| c(1e4 * (1.0 + (i + j) as f64), 0.0));
        let r2 =
            CMat::from_fn(2, 2, |i, j| c(2e4 - 1e3 * (i + j) as f64, 5e3 * (1 + i + j) as f64));
        let d = Mat::from_fn(2, 2, |i, j| if i == j { 0.3 } else { 0.05 });
        let model =
            PoleResidueModel::new(vec![p1, p2, p2.conj()], vec![r1, r2.clone(), r2.conj()], d)
                .unwrap();
        let data = model.sample(grid, ParameterKind::Scattering, 50.0).unwrap();
        (model, data)
    }

    #[test]
    fn recovers_known_rational_function_exactly() {
        let grid = FrequencyGrid::log_space(1e2, 1e7, 80).unwrap().with_dc();
        let (reference, data) = synthetic_data(&grid);
        let cfg = VfConfig { n_poles: 3, n_iterations: 6 };
        let fit = vector_fit(&data, None, &cfg).unwrap();
        assert!(fit.rms_error < 1e-7, "rms error {}", fit.rms_error);
        assert!(fit.model.is_stable());
        assert_eq!(fit.model.order(), 3);
        // Poles must match the reference (sorted by imaginary part).
        let mut got: Vec<Complex64> = fit.model.poles().to_vec();
        let mut want: Vec<Complex64> = reference.poles().to_vec();
        let by_im_re =
            |a: &Complex64, b: &Complex64| a.im.total_cmp(&b.im).then(a.re.total_cmp(&b.re));
        got.sort_by(by_im_re);
        want.sort_by(by_im_re);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-3 * w.abs(), "pole mismatch: {g} vs {w}");
        }
    }

    #[test]
    fn fit_quality_improves_with_order_on_nonrational_data() {
        // Data with a frequency-dependent loss term that is not exactly
        // rational: higher order must fit at least as well.
        let grid = FrequencyGrid::log_space(1e3, 1e8, 60).unwrap();
        let mats: Vec<CMat> = grid
            .omegas()
            .iter()
            .map(|&w| {
                let s = Complex64::from_imag(w);
                let base = (s + 1e4).recip() * 1e4 + (s + 1e6).recip() * 5e5;
                let skin = Complex64::from_real(1.0 + (w / 1e8).sqrt() * 0.1);
                CMat::from_diag(&[base * skin.recip()])
            })
            .collect();
        let data = NetworkData::new(grid, mats, ParameterKind::Scattering, 50.0).unwrap();
        let cfg_lo = VfConfig { n_poles: 2, n_iterations: 5 };
        let cfg_hi = VfConfig { n_poles: 6, n_iterations: 5 };
        let e_lo = vector_fit(&data, None, &cfg_lo).unwrap().rms_error;
        let e_hi = vector_fit(&data, None, &cfg_hi).unwrap().rms_error;
        assert!(e_hi <= e_lo * 1.01, "order 6 ({e_hi}) should beat order 2 ({e_lo})");
        assert!(e_hi < 1e-3);
    }

    #[test]
    fn weighting_shifts_accuracy_toward_weighted_band() {
        // A 1-port response with two resonances; weight the low band heavily
        // and fit with an order too small to capture both: the low-frequency
        // band must then be fitted better than with uniform weights.
        let grid = FrequencyGrid::log_space(1e3, 1e9, 120).unwrap();
        let mats: Vec<CMat> = grid
            .omegas()
            .iter()
            .map(|&w| {
                let s = Complex64::from_imag(w);
                let h = (s + 1e4).recip() * 9e3
                    + ((s + 5e3) * (s + 2e8)).recip() * 4e11
                    + Complex64::from_real(0.05);
                CMat::from_diag(&[h])
            })
            .collect();
        let data = NetworkData::new(grid.clone(), mats, ParameterKind::Scattering, 50.0).unwrap();
        let weights: Vec<f64> =
            grid.freqs_hz().iter().map(|&f| if f < 1e6 { 100.0 } else { 1.0 }).collect();
        let cfg = VfConfig { n_poles: 2, n_iterations: 5 };
        let unweighted = vector_fit(&data, None, &cfg).unwrap();
        let weighted = vector_fit(&data, Some(&weights), &cfg).unwrap();
        // Compare low-frequency accuracy.
        let low_err = |m: &PoleResidueModel| -> f64 {
            grid.freqs_hz()
                .iter()
                .zip(grid.omegas())
                .filter(|(&f, _)| f < 1e6)
                .map(|(_, w)| {
                    (m.evaluate_at_omega(w).unwrap()[(0, 0)]
                        - data.matrix(grid.nearest_index(w / (2.0 * std::f64::consts::PI)))[(0, 0)])
                        .abs()
                })
                .fold(0.0_f64, f64::max)
        };
        let e_u = low_err(&unweighted.model);
        let e_w = low_err(&weighted.model);
        assert!(e_w < e_u, "weighted low-band error {e_w} must beat unweighted {e_u}");
    }

    #[test]
    fn input_validation() {
        let grid = FrequencyGrid::log_space(1e3, 1e6, 30).unwrap();
        let (_, data) = synthetic_data(&grid);
        let cfg = VfConfig { n_poles: 0, ..VfConfig::default() };
        assert!(vector_fit(&data, None, &cfg).is_err());
        let cfg = VfConfig { n_poles: 40, ..VfConfig::default() };
        assert!(vector_fit(&data, None, &cfg).is_err());
        let cfg = VfConfig::default();
        assert!(vector_fit(&data, Some(&[1.0, 2.0]), &cfg).is_err());
        let bad_w = vec![-1.0; data.len()];
        assert!(vector_fit(&data, Some(&bad_w), &cfg).is_err());
    }

    #[test]
    fn symmetry_enforcement_produces_symmetric_model() {
        let grid = FrequencyGrid::log_space(1e2, 1e7, 50).unwrap();
        let (_, mut data_vec) = synthetic_data(&grid);
        // Slightly break the symmetry of the data.
        data_vec = data_vec
            .map_matrices(|_, m| {
                let mut m2 = m.clone();
                m2[(0, 1)] += Complex64::new(1e-3, 0.0);
                Ok(m2)
            })
            .unwrap();
        let cfg = VfConfig { n_poles: 3, n_iterations: 4 };
        let fit = vector_fit(&data_vec, None, &cfg).unwrap();
        for r in fit.model.residues() {
            assert!((r[(0, 1)] - r[(1, 0)]).abs() < 1e-12);
        }
        assert!((fit.model.d()[(0, 1)] - fit.model.d()[(1, 0)]).abs() < 1e-12);
    }
}
