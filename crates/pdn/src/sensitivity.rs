//! First-order sensitivity of the PDN target impedance to perturbations of
//! the scattering samples (eq. 5 of the paper).
//!
//! The loaded impedance `Z = [R₀⁻¹(I−S)(I+S)⁻¹ + Y_L]⁻¹` is a nonlinear map
//! of the scattering matrix; small fitting errors `δS` are amplified into
//! target-impedance errors by its Jacobian. Differentiating the map gives the
//! closed form
//!
//! ```text
//! ∂Z_PDN/∂S_ab = (2/R₀) · [Z(I+S)⁻¹]_{ia} · [(I+S)⁻¹Z]_{bj}
//! ```
//!
//! for the observation element `(i, j)`, so a natural scalar sensitivity is
//! the root-sum-square of the Jacobian over all matrix entries — this is the
//! quantity `Ξ_k` that the paper extracts statistically through Gaussian
//! perturbations and uses as a frequency-dependent weight. A Monte Carlo
//! estimator matching the paper's definition is provided for validation.

use crate::rng::SplitMix64;
use crate::{PdnError, Result, TerminationNetwork};
use pim_linalg::{CMat, Complex64};
use pim_rfdata::NetworkData;

/// Options for the Monte Carlo sensitivity estimator.
#[derive(Debug, Clone)]
pub struct SensitivityOptions {
    /// Standard deviation of the Gaussian perturbations applied to the real
    /// and imaginary parts of every scattering entry.
    pub sigma: f64,
    /// Number of Monte Carlo trials per frequency.
    pub trials: usize,
    /// RNG seed (the estimator is deterministic for a fixed seed).
    pub seed: u64,
}

impl Default for SensitivityOptions {
    fn default() -> Self {
        SensitivityOptions { sigma: 1e-4, trials: 64, seed: 0x5EED_CAFE }
    }
}

/// Computes the analytic first-order sensitivity `Ξ_k` of the target
/// impedance (observed at `observation_port`, excited per the termination
/// network) with respect to independent perturbations of all scattering
/// entries, at every frequency of the data set.
///
/// The returned values have the meaning of eq. (5): the expected
/// target-impedance deviation per unit standard deviation of the scattering
/// perturbations, up to the constant factor that the paper absorbs into the
/// weights (only the frequency dependence matters for weighting).
///
/// # Errors
///
/// The input checks of [`crate::target_impedance`].
pub fn analytic_sensitivity(
    data: &NetworkData,
    network: &TerminationNetwork,
    observation_port: usize,
) -> Result<Vec<f64>> {
    let (j, total_current) = crate::impedance::excitation(data, network, observation_port)?;
    let ports = data.ports();
    let omegas = data.grid().omegas();
    let r0 = data.z_ref();
    let mut out = Vec::with_capacity(data.len());
    for (k, &omega) in omegas.iter().enumerate() {
        let s = data.matrix(k);
        let y_l = network.load_admittance(omega)?;
        let i_plus_s_inv = (&CMat::identity(ports) + s).inverse()?;
        // (I−S)(I+S)⁻¹ = (I+S)⁻¹(I−S): both factors are polynomials in S.
        let y_pdn = i_plus_s_inv.matmul(&(&CMat::identity(ports) - s))?.scaled_real(1.0 / r0);
        let z = (&y_pdn + &y_l).inverse()?;
        // Left and right factors of the Jacobian.
        let left = z.matmul(&i_plus_s_inv)?; // Z (I+S)^{-1}
        let right = i_plus_s_inv.matmul(&z)?; // (I+S)^{-1} Z

        // The observation is a weighted combination of matrix elements
        // (i, col) with weights J_col / I_total; accumulate the Jacobian of
        // that combination.
        let mut sum_sq = 0.0;
        for a in 0..ports {
            for b in 0..ports {
                let mut dz = Complex64::ZERO;
                for (col, jj) in j.iter().enumerate() {
                    if *jj != Complex64::ZERO {
                        dz += left[(observation_port, a)] * right[(b, col)] * *jj;
                    }
                }
                let dz = dz.scale(2.0 / (r0 * total_current));
                sum_sq += dz.abs_sq();
            }
        }
        out.push(sum_sq.sqrt());
    }
    Ok(out)
}

/// Monte Carlo estimate of the sensitivity, matching the statistical
/// definition of eq. (5): every scattering entry is perturbed by independent
/// zero-mean Gaussian noise of standard deviation `options.sigma` (applied to
/// real and imaginary parts), the target impedance is recomputed, and the
/// mean absolute deviation normalized by `sigma` is reported per frequency.
///
/// Every frequency draws from its **own** SplitMix64 stream, whose seed is
/// derived deterministically from `options.seed` and the frequency index.
/// That makes the per-frequency estimates independent of which thread runs
/// them: the estimator maps the frequencies in parallel on the
/// [`pim_runtime::global`] pool, and the result is bit-identical to the
/// serial evaluation for every `PIM_THREADS`.
///
/// # Errors
///
/// The input checks of [`crate::target_impedance`], then a non-positive
/// `sigma` or zero `trials`; singular loaded impedances inside a trial are
/// skipped.
pub fn monte_carlo_sensitivity(
    data: &NetworkData,
    network: &TerminationNetwork,
    observation_port: usize,
    options: &SensitivityOptions,
) -> Result<Vec<f64>> {
    monte_carlo_sensitivity_with(pim_runtime::global(), data, network, observation_port, options)
}

/// [`monte_carlo_sensitivity`] on an explicit [`pim_runtime::ThreadPool`]
/// (the determinism test suites compare pools of different sizes bit for
/// bit).
///
/// # Errors
///
/// See [`monte_carlo_sensitivity`]; when several frequencies fail, the error
/// of the lowest frequency index is reported regardless of scheduling order.
pub fn monte_carlo_sensitivity_with(
    pool: &pim_runtime::ThreadPool,
    data: &NetworkData,
    network: &TerminationNetwork,
    observation_port: usize,
    options: &SensitivityOptions,
) -> Result<Vec<f64>> {
    let (j, total_current) = crate::impedance::excitation(data, network, observation_port)?;
    if !(options.sigma > 0.0) || options.trials == 0 {
        return Err(PdnError::InvalidInput(
            "Monte Carlo sensitivity requires sigma > 0 and at least one trial".into(),
        ));
    }
    let nominal = crate::target_impedance(data, network, observation_port)?;
    let ports = data.ports();
    let omegas = data.grid().omegas();
    // One independent stream per frequency, seeded from a master stream in
    // frequency order.
    let seeds: Vec<u64> = {
        let mut master = SplitMix64::seed_from_u64(options.seed);
        (0..data.len()).map(|_| master.next_u64()).collect()
    };

    let per_frequency = |k: usize, &seed: &u64| -> Result<f64> {
        let y_l = network.load_admittance(omegas[k])?;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut acc = 0.0;
        let mut used = 0usize;
        for _ in 0..options.trials {
            let mut s = data.matrix(k).clone();
            for a in 0..ports {
                for b in 0..ports {
                    let dre: f64 = gaussian(&mut rng, options.sigma);
                    let dim: f64 = gaussian(&mut rng, options.sigma);
                    s[(a, b)] += Complex64::new(dre, dim);
                }
            }
            let z = match crate::loaded_impedance_matrix(&s, data.z_ref(), &y_l) {
                Ok(z) => z,
                Err(_) => continue,
            };
            let mut v = Complex64::ZERO;
            for (col, jj) in j.iter().enumerate() {
                if *jj != Complex64::ZERO {
                    v += z[(observation_port, col)] * *jj;
                }
            }
            let perturbed = v.scale(1.0 / total_current);
            acc += (perturbed - nominal.values[k]).abs();
            used += 1;
        }
        if used == 0 {
            return Err(PdnError::InvalidInput(format!(
                "all Monte Carlo trials failed at frequency index {k}"
            )));
        }
        Ok(acc / (used as f64 * options.sigma))
    };

    // Collected in frequency order, so the reported error is the lowest
    // failing frequency's.
    pool.par_map(&seeds, per_frequency).into_iter().collect()
}

/// Post-processes raw sensitivity samples into Vector Fitting weights:
/// normalizes to a unit maximum and applies a relative floor so that no
/// frequency is weighted exactly zero.
///
/// # Errors
///
/// Returns [`PdnError::InvalidInput`] for empty input, non-finite entries or
/// an all-zero profile.
pub fn sensitivity_to_weights(sensitivity: &[f64], floor: f64) -> Result<Vec<f64>> {
    if sensitivity.is_empty() {
        return Err(PdnError::InvalidInput("sensitivity profile is empty".into()));
    }
    if sensitivity.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(PdnError::InvalidInput(
            "sensitivity profile must be finite and non-negative".into(),
        ));
    }
    let max = sensitivity.iter().fold(0.0_f64, |a, &b| a.max(b));
    // audit:allow(float-eq): an all-zero sensitivity vector cannot be normalised
    if max == 0.0 {
        return Err(PdnError::InvalidInput("sensitivity profile is identically zero".into()));
    }
    let floor = floor.clamp(0.0, 1.0);
    Ok(sensitivity.iter().map(|&x| (x / max).max(floor)).collect())
}

/// Standard normal sample via Box–Muller on the self-contained [`SplitMix64`]
/// stream (`u1` is drawn from `(0, 1]`, so `ln(u1)` is always finite).
fn gaussian(rng: &mut SplitMix64, sigma: f64) -> f64 {
    let u1 = rng.next_open01();
    let u2 = rng.next_open01();
    sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Termination;
    use pim_rfdata::network::z_to_s;
    use pim_rfdata::{FrequencyGrid, ParameterKind};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// A 1-port resistive PDN loaded by a die block; the sensitivity is
    /// analytically tractable.
    fn resistive_case() -> (NetworkData, TerminationNetwork) {
        let grid = FrequencyGrid::log_space(1e4, 1e8, 25).unwrap();
        let mats: Vec<CMat> = grid
            .freqs_hz()
            .iter()
            .map(|_| z_to_s(&CMat::from_diag(&[c(0.2, 0.0)]), 50.0).unwrap())
            .collect();
        let data = NetworkData::new(grid, mats, ParameterKind::Scattering, 50.0).unwrap();
        let net = TerminationNetwork::new(vec![Termination::DieBlock {
            resistance: 0.05,
            capacitance: 47e-9,
        }])
        .unwrap()
        .with_excitation(vec![0], 1.0)
        .unwrap();
        (data, net)
    }

    #[test]
    fn analytic_sensitivity_matches_finite_differences() {
        let (data, net) = resistive_case();
        let xi = analytic_sensitivity(&data, &net, 0).unwrap();
        assert_eq!(xi.len(), data.len());
        // Finite-difference check at a few frequencies: perturb one entry of
        // S (real part), recompute the target impedance and compare the
        // magnitude of the change against the Jacobian-based prediction.
        let eps = 1e-7;
        for &k in &[0usize, 10, 24] {
            let nominal = crate::target_impedance(&data, &net, 0).unwrap().values[k];
            let perturbed_data = data
                .map_matrices(|idx, m| {
                    let mut m2 = m.clone();
                    if idx == k {
                        m2[(0, 0)] += Complex64::from_real(eps);
                    }
                    Ok(m2)
                })
                .unwrap();
            let perturbed = crate::target_impedance(&perturbed_data, &net, 0).unwrap().values[k];
            let fd = (perturbed - nominal).abs() / eps;
            // For a 1-port there is a single Jacobian entry, so Ξ equals its
            // magnitude (the perturbation direction only changes the phase).
            assert!(
                (fd - xi[k]).abs() < 1e-3 * xi[k].max(1e-12),
                "finite difference {fd} vs analytic {} at index {k}",
                xi[k]
            );
        }
    }

    #[test]
    fn monte_carlo_agrees_with_analytic_up_to_statistical_factor() {
        let (data, net) = resistive_case();
        let xi = analytic_sensitivity(&data, &net, 0).unwrap();
        let mc = monte_carlo_sensitivity(
            &data,
            &net,
            0,
            &SensitivityOptions { sigma: 1e-5, trials: 200, seed: 7 },
        )
        .unwrap();
        assert_eq!(mc.len(), xi.len());
        // The Monte Carlo estimator reports E{|ΔZ|}/σ for 2·P² independent
        // Gaussian components; it is proportional to the analytic
        // root-sum-square sensitivity with a distribution-dependent constant
        // close to one. Verify proportionality across frequency.
        let ratios: Vec<f64> = mc.iter().zip(&xi).map(|(m, a)| m / a).collect();
        let mean: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 0.5 && mean < 2.0, "unexpected mean ratio {mean}");
        for r in &ratios {
            assert!((r - mean).abs() < 0.35 * mean, "ratio {r} deviates from mean {mean}");
        }
    }

    #[test]
    fn sensitivity_rises_where_the_loading_feedback_is_strong() {
        // With a near-short VRM-like load, |S_loaded| errors are strongly
        // amplified at low frequency where the PDN impedance is tiny compared
        // to 50 Ω. The sensitivity profile must therefore decrease with
        // frequency once the decap takes over.
        let grid = FrequencyGrid::log_space(1e3, 1e9, 40).unwrap();
        let mats: Vec<CMat> = grid
            .freqs_hz()
            .iter()
            .map(|&f| {
                let omega = 2.0 * std::f64::consts::PI * f;
                // PDN looks like 1 mΩ + 100 nH in series: a near-short at
                // low frequency (strong feedback from the termination, hence
                // strong error amplification) that rises above the 50 Ω
                // reference level at the top of the band.
                let z = Complex64::from_real(1e-3) + Complex64::from_imag(omega * 100e-9);
                z_to_s(&CMat::from_diag(&[z]), 50.0).unwrap()
            })
            .collect();
        let data = NetworkData::new(grid, mats, ParameterKind::Scattering, 50.0).unwrap();
        let net = TerminationNetwork::new(vec![Termination::DieBlock {
            resistance: 0.1,
            capacitance: 1e-9,
        }])
        .unwrap()
        .with_excitation(vec![0], 1.0)
        .unwrap();
        let xi = analytic_sensitivity(&data, &net, 0).unwrap();
        // Low-frequency sensitivity must exceed the high-frequency one by a
        // large factor (this is the phenomenon motivating the paper).
        assert!(xi[0] > 10.0 * xi[xi.len() - 1], "xi[0]={} xi[last]={}", xi[0], xi[xi.len() - 1]);
    }

    #[test]
    fn weights_normalization_and_floor() {
        let w = sensitivity_to_weights(&[4.0, 2.0, 0.0], 0.1).unwrap();
        assert_eq!((w[0]).to_bits(), 1.0f64.to_bits());
        assert_eq!((w[1]).to_bits(), 0.5f64.to_bits());
        assert_eq!((w[2]).to_bits(), 0.1f64.to_bits());
        assert!(sensitivity_to_weights(&[], 0.0).is_err());
        assert!(sensitivity_to_weights(&[0.0, 0.0], 0.0).is_err());
        assert!(sensitivity_to_weights(&[1.0, f64::NAN], 0.0).is_err());
        assert!(sensitivity_to_weights(&[1.0, -2.0], 0.0).is_err());
    }

    #[test]
    fn monte_carlo_is_bit_identical_across_thread_counts() {
        let (data, net) = resistive_case();
        let opts = SensitivityOptions { sigma: 1e-5, trials: 32, seed: 11 };
        let serial =
            monte_carlo_sensitivity_with(&pim_runtime::ThreadPool::new(1), &data, &net, 0, &opts)
                .unwrap();
        for threads in [2usize, 8] {
            let pool = pim_runtime::ThreadPool::new(threads);
            let parallel = monte_carlo_sensitivity_with(&pool, &data, &net, 0, &opts).unwrap();
            assert_eq!(serial.len(), parallel.len());
            for (k, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads} index={k}: {a} vs {b}");
            }
        }
        // The global-pool entry point draws from the same per-frequency
        // streams.
        let global = monte_carlo_sensitivity(&data, &net, 0, &opts).unwrap();
        for (a, b) in serial.iter().zip(&global) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn estimator_validation() {
        let (data, net) = resistive_case();
        assert!(monte_carlo_sensitivity(
            &data,
            &net,
            0,
            &SensitivityOptions { sigma: 0.0, trials: 10, seed: 1 }
        )
        .is_err());
        assert!(monte_carlo_sensitivity(
            &data,
            &net,
            0,
            &SensitivityOptions { sigma: 1e-4, trials: 0, seed: 1 }
        )
        .is_err());
        assert!(analytic_sensitivity(&data, &net, 5).is_err());
        let bare = TerminationNetwork::new(vec![Termination::Open]).unwrap();
        assert!(analytic_sensitivity(&data, &bare, 0).is_err());
    }
}
