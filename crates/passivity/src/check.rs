//! Passivity assessment: Hamiltonian eigenvalue test and singular-value
//! sweeps.

use crate::grid::{FrequencyGrid, SamplingStrategy};
use crate::{PassivityError, Result};
use pim_linalg::eig::eigenvalues;
use pim_linalg::svd::{singular_values, svd};
use pim_linalg::Mat;
use pim_statespace::{PoleResidueModel, StateSpace};

/// A frequency band over which at least one singular value of the scattering
/// matrix exceeds one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViolationBand {
    /// Lower edge of the band (rad/s).
    pub omega_low: f64,
    /// Upper edge of the band (rad/s).
    pub omega_high: f64,
    /// Frequency of the worst violation inside the band (rad/s).
    pub omega_peak: f64,
    /// Largest singular value inside the band.
    pub sigma_peak: f64,
}

/// Summary of a passivity assessment.
#[derive(Debug, Clone)]
pub struct PassivityReport {
    /// `true` when the singular-value sweep found no singular value above
    /// one. The verdict rests on the sweep alone: the Hamiltonian crossings
    /// only steer where the sampling strategy places sweep points.
    pub passive: bool,
    /// Worst singular value found over the sweep.
    pub sigma_max: f64,
    /// Frequency (rad/s) at which the worst singular value occurs.
    pub omega_at_sigma_max: f64,
    /// Violation bands identified by the sweep.
    pub bands: Vec<ViolationBand>,
    /// Frequencies (rad/s) of unit-singular-value crossings reported by the
    /// Hamiltonian eigenvalue test.
    pub hamiltonian_crossings: Vec<f64>,
    /// The frequency grid the sweep actually ran on, with per-point
    /// provenance (seed / crossing refinement / adaptive bisection).
    pub grid: FrequencyGrid,
}

/// Builds the Hamiltonian matrix associated with the scattering state-space
/// model (reference \[14\] of the paper). Its purely imaginary eigenvalues are
/// the frequencies at which a singular value of `S(jω)` crosses one.
///
/// The assembly exploits the 2×2 block structure of the Hamiltonian,
///
/// ```text
/// M = [ A11   A12 ]      A11 = A − B·R⁻¹·Dᵀ·C,   A12 = −B·R⁻¹·Bᵀ,
///     [ A21  −A11ᵀ]      A21 = Cᵀ·S⁻¹·C,
/// ```
///
/// with `R = DᵀD − I` and `S = DDᵀ − I` both symmetric: the lower-right
/// block is the negated transpose of the upper-left one and is filled by a
/// copy instead of a second `N×N` matrix-product chain, and the blocks are
/// written straight into the `2N×2N` result. Every product runs on the
/// serial blocked kernel ([`Mat::matmul`]): at these sizes a parallel
/// split costs more than it saves.
///
/// # Errors
///
/// Returns [`PassivityError::InvalidInput`] when `DᵀD − I` is singular (a
/// singular value of the feedthrough matrix equals one, a degenerate
/// boundary case).
pub fn hamiltonian_matrix(sys: &StateSpace) -> Result<Mat> {
    let p = sys.outputs();
    if sys.inputs() != p {
        return Err(PassivityError::InvalidInput(
            "the Hamiltonian passivity test requires a square (P x P) transfer matrix".into(),
        ));
    }
    let n = sys.order();
    let a = sys.a();
    let b = sys.b();
    let c = sys.c();
    let d = sys.d();
    let dt = d.transpose();
    let dtd = dt.matmul(d)?;
    let ddt = d.matmul(&dt)?;
    let r = &dtd - &Mat::identity(p);
    let s = &ddt - &Mat::identity(p);
    let r_inv = r.inverse().map_err(|_| {
        PassivityError::InvalidInput(
            "DᵀD − I is singular: a feedthrough singular value equals one".into(),
        )
    })?;
    let s_inv = s.inverse().map_err(|_| {
        PassivityError::InvalidInput(
            "DDᵀ − I is singular: a feedthrough singular value equals one".into(),
        )
    })?;

    let br = b.matmul(&r_inv)?; // B (DᵀD − I)⁻¹
    let a11 = a - &br.matmul(&dt)?.matmul(c)?;
    let mut a12 = br.matmul(&b.transpose())?;
    a12.scale_in_place(-1.0);
    let a21 = c.transpose().matmul(&s_inv)?.matmul(c)?;

    let mut m = Mat::zeros(2 * n, 2 * n);
    m.set_block(0, 0, &a11);
    m.set_block(0, n, &a12);
    m.set_block(n, 0, &a21);
    // A22 = −A11ᵀ (R symmetric ⇒ (B·R⁻¹·Dᵀ·C)ᵀ = Cᵀ·D·R⁻¹·Bᵀ).
    for i in 0..n {
        for j in 0..n {
            m[(n + i, n + j)] = -a11[(j, i)];
        }
    }
    Ok(m)
}

/// Frequencies (rad/s, positive, sorted) at which a singular value of the
/// model crosses one, obtained as the purely imaginary eigenvalues of the
/// Hamiltonian matrix.
///
/// # Errors
///
/// See [`hamiltonian_matrix`]; eigenvalue solver failures are propagated.
pub fn hamiltonian_crossings(sys: &StateSpace) -> Result<Vec<f64>> {
    let mut m = hamiltonian_matrix(sys)?;
    // Balance the off-diagonal blocks before the eigensolve: the similarity
    // diag(I, s·I) scales `A12` by `s` and `A21` by `1/s` and keeps the
    // spectrum. On fitted PDN models `A21 = Cᵀ·S⁻¹·C` exceeds `A12` by 1e15
    // to 1e18, and unbalanced the QR iteration moves crossings off the
    // imaginary axis by up to 1e-3 relative, past the filter below. A power
    // of two keeps the scaling exact.
    let n = m.rows() / 2;
    let (mut a12, mut a21) = (0.0_f64, 0.0_f64);
    for i in 0..n {
        for j in 0..n {
            a12 = a12.max(m[(i, n + j)].abs());
            a21 = a21.max(m[(n + i, j)].abs());
        }
    }
    if a12 > 0.0 && a21 > 0.0 {
        let s = (0.5 * (a21 / a12).log2()).round().exp2();
        for i in 0..n {
            for j in 0..n {
                m[(i, n + j)] *= s;
                m[(n + i, j)] /= s;
            }
        }
    }
    let evs = eigenvalues(&m)?;
    // An eigenvalue is treated as (numerically) purely imaginary when its
    // real part is small *relative to its own magnitude*. The tolerance is
    // deliberately loose: for large, highly non-normal Hamiltonian matrices
    // the computed eigenvalues carry noticeable roundoff, and it is safer to
    // report a few extra candidate frequencies (the singular-value sweep
    // verifies them) than to miss a genuine crossing.
    let mut crossings: Vec<f64> =
        evs.iter().filter(|e| e.im > 0.0 && e.re.abs() <= 1e-4 * e.abs()).map(|e| e.im).collect();
    crossings.sort_by(f64::total_cmp);
    // Merge near-duplicates produced by the eigenvalue solver.
    let mut merged: Vec<f64> = Vec::with_capacity(crossings.len());
    for w in crossings {
        if merged.last().is_none_or(|&last| (w - last).abs() > 1e-9 * w.max(1.0)) {
            merged.push(w);
        }
    }
    Ok(merged)
}

/// Sweeps all singular values of `S(jω)` over the given angular frequencies
/// on `pool`. Returns one vector of descending singular values per
/// frequency.
///
/// Each frequency is an independent evaluate + SVD; results are collected by
/// frequency index, so the output is bit-identical for every pool size (the
/// determinism test suites compare pools of different sizes bit for bit).
///
/// # Errors
///
/// Propagates evaluation and SVD failures; when several frequencies fail,
/// the error of the lowest frequency index is reported regardless of
/// scheduling order.
pub fn singular_value_sweep_with(
    pool: &pim_runtime::ThreadPool,
    model: &PoleResidueModel,
    omegas: &[f64],
) -> Result<Vec<Vec<f64>>> {
    pool.par_map(omegas, |_, &omega| -> Result<Vec<f64>> {
        let s = model.evaluate_at_omega(omega).map_err(PassivityError::StateSpace)?;
        Ok(singular_values(&s)?)
    })
    .into_iter()
    .collect()
}

/// Assesses `model` sweeping **exactly** the given grid: the Hamiltonian
/// crossings still feed the report, but no refinement points are added.
/// This is the verification-grid entry point ("does the model hold up on a
/// grid it was *not* constrained on?"): [`assess_with_sampling`] on the
/// [`pim_runtime::global`] pool with [`crate::grid::FixedLog`].
///
/// # Errors
///
/// See [`assess_with_sampling`].
pub fn assess_on(model: &PoleResidueModel, grid: &FrequencyGrid) -> Result<PassivityReport> {
    assess_with_sampling(pim_runtime::global(), model, grid, &crate::grid::FixedLog)
}

/// The passivity assessment: computes the Hamiltonian crossings, then
/// refines, sweeps and reports with [`assess_with_crossings`]. The report is
/// bit-identical for every pool size.
///
/// # Errors
///
/// Propagates realization, eigenvalue, refinement and SVD failures.
pub fn assess_with_sampling(
    pool: &pim_runtime::ThreadPool,
    model: &PoleResidueModel,
    base: &FrequencyGrid,
    strategy: &dyn SamplingStrategy,
) -> Result<PassivityReport> {
    let crossings = hamiltonian_crossings(&StateSpace::from_pole_residue(model)?)?;
    assess_with_crossings(pool, model, &crossings, base, strategy)
}

/// The assessment of a model whose Hamiltonian crossings are already known
/// (for instance from an earlier report of the same model): lets `strategy`
/// refine `base` around `crossings` and sample `σ_max` on the refined grid
/// on `pool` (see [`SamplingStrategy::refine`]), and assembles the report,
/// which carries `crossings` as its [`PassivityReport::hamiltonian_crossings`].
/// No eigenproblem is solved, so the caller must pass the crossings of
/// `model` itself; the report then equals [`assess_with_sampling`]'s bit
/// for bit.
///
/// # Errors
///
/// Propagates refinement and SVD failures.
pub fn assess_with_crossings(
    pool: &pim_runtime::ThreadPool,
    model: &PoleResidueModel,
    crossings: &[f64],
    base: &FrequencyGrid,
    strategy: &dyn SamplingStrategy,
) -> Result<PassivityReport> {
    // The report only needs `σ_max` per point, and the strategy samples it
    // at every point of the grid it returns.
    let (grid, sigmas) = strategy.refine(pool, model, base, crossings)?;
    let mut sigma_max = 0.0;
    let mut omega_at = 0.0;
    for (k, &s) in sigmas.iter().enumerate() {
        if s > sigma_max {
            sigma_max = s;
            omega_at = grid.points()[k];
        }
    }

    // Violation bands from the sweep.
    let mut bands = Vec::new();
    let mut current: Option<ViolationBand> = None;
    for (k, &s) in sigmas.iter().enumerate() {
        if s > 1.0 {
            let w = grid.points()[k];
            match &mut current {
                Some(band) => {
                    band.omega_high = w;
                    if s > band.sigma_peak {
                        band.sigma_peak = s;
                        band.omega_peak = w;
                    }
                }
                None => {
                    current = Some(ViolationBand {
                        omega_low: w,
                        omega_high: w,
                        omega_peak: w,
                        sigma_peak: s,
                    });
                }
            }
        } else if let Some(band) = current.take() {
            bands.push(band);
        }
    }
    if let Some(band) = current.take() {
        bands.push(band);
    }

    // The passivity verdict is based on the singular-value sweep (refined
    // around the Hamiltonian candidate frequencies): the Hamiltonian
    // eigenvalues locate candidate crossings very reliably, but deciding
    // passivity purely from their imaginary-axis classification is too
    // sensitive to eigenvalue roundoff for large models.
    let passive = bands.is_empty() && sigma_max <= 1.0;
    Ok(PassivityReport {
        passive,
        sigma_max,
        omega_at_sigma_max: omega_at,
        bands,
        hamiltonian_crossings: crossings.to_vec(),
        grid,
    })
}

/// Largest singular value of the model's scattering matrix at one frequency,
/// together with the corresponding singular vectors (used by the constraint
/// linearization).
///
/// # Errors
///
/// Propagates evaluation and SVD failures.
pub fn sigma_max_at(model: &PoleResidueModel, omega: f64) -> Result<f64> {
    let s = model.evaluate_at_omega(omega).map_err(PassivityError::StateSpace)?;
    Ok(svd(&s)?.sigma_max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Adaptive, FixedLog};
    use pim_linalg::{CMat, Complex64};

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// The default assessment: adaptive refinement of `omegas` on the global
    /// pool.
    fn assess_default(model: &PoleResidueModel, omegas: &[f64]) -> PassivityReport {
        assess_with_sampling(
            pim_runtime::global(),
            model,
            &FrequencyGrid::from_omegas(omegas),
            &Adaptive,
        )
        .unwrap()
    }

    /// A clearly passive 1-port: S(s) = k/(s+a) with k < a and |D| < 1.
    fn passive_model() -> PoleResidueModel {
        PoleResidueModel::new(
            vec![c(-100.0, 0.0)],
            vec![CMat::from_diag(&[c(40.0, 0.0)])],
            Mat::from_diag(&[0.2]),
        )
        .unwrap()
    }

    /// A 1-port with a localized passivity violation: a resonant pair whose
    /// peak pushes the magnitude slightly above one.
    fn violating_model() -> PoleResidueModel {
        let p = c(-50.0, 1000.0);
        let r = c(30.0, 12.0);
        PoleResidueModel::new(
            vec![p, p.conj()],
            vec![CMat::from_diag(&[r]), CMat::from_diag(&[r.conj()])],
            Mat::from_diag(&[0.85]),
        )
        .unwrap()
    }

    #[test]
    fn passive_model_passes_all_tests() {
        let m = passive_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        assert!(hamiltonian_crossings(&sys).unwrap().is_empty());
        let omegas: Vec<f64> = (0..100).map(|k| k as f64 * 20.0).collect();
        let report = assess_default(&m, &omegas);
        assert!(report.passive);
        assert!(report.sigma_max <= 1.0);
        assert!(report.bands.is_empty());
    }

    #[test]
    fn violating_model_is_flagged_with_band_location() {
        let m = violating_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(!crossings.is_empty());
        // The violation must be near the resonance at 1000 rad/s.
        assert!(crossings.iter().any(|&w| (w - 1000.0).abs() < 300.0));
        let omegas: Vec<f64> = (1..400).map(|k| k as f64 * 5.0).collect();
        let report = assess_default(&m, &omegas);
        assert!(!report.passive);
        assert!(report.sigma_max > 1.0);
        assert!(!report.bands.is_empty());
        let band = report.bands[0];
        assert!(band.omega_peak > 500.0 && band.omega_peak < 1500.0);
        assert!(band.sigma_peak > 1.0);
        assert!(band.omega_low <= band.omega_peak && band.omega_peak <= band.omega_high);
    }

    #[test]
    fn sweep_matches_direct_evaluation() {
        let m = violating_model();
        let omegas = vec![0.0, 500.0, 1000.0, 2000.0];
        let sweep = singular_value_sweep_with(pim_runtime::global(), &m, &omegas).unwrap();
        assert_eq!(sweep.len(), 4);
        for (k, &w) in omegas.iter().enumerate() {
            let direct = sigma_max_at(&m, w).unwrap();
            assert!((sweep[k][0] - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn hamiltonian_crossings_match_sweep_crossings() {
        // The singular value of the violating model crosses 1 exactly at the
        // Hamiltonian crossing frequencies.
        let m = violating_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        for &w in &crossings {
            let s = sigma_max_at(&m, w).unwrap();
            assert!((s - 1.0).abs() < 1e-6, "sigma at crossing {w} is {s}");
        }
    }

    #[test]
    fn square_feedthrough_with_a_unit_singular_value_is_rejected() {
        // A 1-port whose D has a singular value exactly 1 makes the
        // Hamiltonian undefined.
        let m = PoleResidueModel::new(
            vec![c(-1.0, 0.0)],
            vec![CMat::from_diag(&[c(0.1, 0.0)])],
            Mat::from_diag(&[1.0]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        assert!(hamiltonian_matrix(&sys).is_err());
    }

    #[test]
    fn assess_on_sweeps_exactly_the_given_grid() {
        let m = violating_model();
        let omegas: Vec<f64> = (1..200).map(|k| k as f64 * 10.0).collect();
        let grid = FrequencyGrid::from_omegas(&omegas);
        let report = assess_on(&m, &grid).unwrap();
        // No refinement: the report grid is the input grid, point for point.
        assert_eq!(report.grid.points(), grid.points());
        assert!(!report.passive);
        // The default assessment refines around crossings, so its grid is
        // a strict superset and its peak estimate at least as good.
        let refined = assess_default(&m, &omegas);
        assert!(refined.grid.len() > grid.len());
        assert!(refined.sigma_max >= report.sigma_max);
        assert_eq!(refined.grid.count_of(crate::grid::PointProvenance::Seed), grid.len());
    }

    /// Given the model's own crossings, the known-crossings form reproduces
    /// the full assessment bit for bit under every strategy.
    #[test]
    fn known_crossings_reproduce_the_full_assessment() {
        let m = violating_model();
        let crossings = hamiltonian_crossings(&StateSpace::from_pole_residue(&m).unwrap()).unwrap();
        let pool = pim_runtime::ThreadPool::new(1);
        let base =
            FrequencyGrid::from_omegas(&(1..200).map(|k| k as f64 * 10.0).collect::<Vec<_>>());
        for strategy in [&FixedLog as &dyn SamplingStrategy, &Adaptive] {
            let full = assess_with_sampling(&pool, &m, &base, strategy).unwrap();
            let known = assess_with_crossings(&pool, &m, &crossings, &base, strategy).unwrap();
            assert_eq!(known.sigma_max.to_bits(), full.sigma_max.to_bits(), "{}", strategy.name());
            assert_eq!(known.omega_at_sigma_max.to_bits(), full.omega_at_sigma_max.to_bits());
            assert_eq!(known.passive, full.passive);
            assert_eq!(known.bands, full.bands);
            assert_eq!(known.hamiltonian_crossings, full.hamiltonian_crossings);
            assert_eq!(known.grid, full.grid);
        }
    }

    /// A passive model has no Hamiltonian crossings; every strategy must
    /// accept the empty crossing list.
    #[test]
    fn strategies_handle_a_model_without_crossings() {
        let m = passive_model();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(crossings.is_empty());
        let pool = pim_runtime::ThreadPool::new(1);
        let base =
            FrequencyGrid::from_omegas(&(0..60).map(|k| k as f64 * 20.0).collect::<Vec<_>>());
        for strategy in [&FixedLog as &dyn SamplingStrategy, &Adaptive] {
            let (refined, _) = strategy.refine(&pool, &m, &base, &crossings).unwrap();
            assert!(refined.len() >= base.len(), "{} shrank the grid", strategy.name());
            let report = assess_with_sampling(&pool, &m, &base, strategy).unwrap();
            assert!(report.passive, "{}: passive model misjudged", strategy.name());
        }
    }

    /// Near-degenerate (clustered) crossings: two resonant pairs whose
    /// violation bands nearly coincide produce crossings a fraction of a
    /// percent apart. The refinement must keep distinct points distinct,
    /// dedup the coincident ones, and the adaptive strategy must still
    /// resolve the merged peak.
    #[test]
    fn clustered_crossings_are_deduped_not_lost() {
        let p1 = c(-8.0, 1000.0);
        let p2 = c(-8.0, 1004.0);
        let r = c(9.0, 0.0);
        let m = PoleResidueModel::new(
            vec![p1, p1.conj(), p2, p2.conj()],
            vec![
                CMat::from_diag(&[r]),
                CMat::from_diag(&[r.conj()]),
                CMat::from_diag(&[r]),
                CMat::from_diag(&[r.conj()]),
            ],
            Mat::from_diag(&[0.2]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(crossings.len() >= 2, "expected a crossing cluster, got {crossings:?}");
        let spread = crossings.last().unwrap() - crossings.first().unwrap();
        assert!(spread < 0.1 * crossings[0], "crossings should be clustered, spread {spread}");
        let pool = pim_runtime::ThreadPool::new(1);
        // A coarse base that cannot see the cluster on its own.
        let base =
            FrequencyGrid::from_omegas(&(1..20).map(|k| k as f64 * 100.0).collect::<Vec<_>>());
        let report = assess_with_sampling(&pool, &m, &base, &Adaptive).unwrap();
        for w in report.grid.points().windows(2) {
            assert!(w[1] > w[0], "grid must stay strictly increasing after dedup");
        }
        assert!(report.grid.count_of(crate::grid::PointProvenance::Crossing) > 0);
        assert!(!report.passive);
        assert!(report.sigma_max > 1.0);
        assert!(
            (report.omega_at_sigma_max - 1000.0).abs() < 100.0,
            "peak must be located inside the cluster, got {}",
            report.omega_at_sigma_max
        );
    }

    /// A crossing at (numerically near) ω = 0: a model whose DC gain sits
    /// just above one. The ±0.1 % neighborhood and the ±5 % guard collapse
    /// toward zero without producing negative frequencies, and the
    /// assessment must classify the DC violation.
    #[test]
    fn crossing_at_dc_is_handled() {
        // S(0) = d + r/|p| = 0.6 + 0.45 > 1, decaying above ω ≈ |p|.
        let m = PoleResidueModel::new(
            vec![c(-50.0, 0.0)],
            vec![CMat::from_diag(&[c(22.5, 0.0)])],
            Mat::from_diag(&[0.6]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        let crossings = hamiltonian_crossings(&sys).unwrap();
        assert!(!crossings.is_empty(), "the DC violation must produce a crossing");
        let pool = pim_runtime::ThreadPool::new(1);
        let base = FrequencyGrid::from_omegas(
            &std::iter::once(0.0).chain((0..40).map(|k| 2.0 * 1.3f64.powi(k))).collect::<Vec<_>>(),
        );
        let report = assess_with_sampling(&pool, &m, &base, &Adaptive).unwrap();
        assert!(report.grid.points().iter().all(|&w| w >= 0.0));
        assert_eq!(report.grid.points()[0].to_bits(), 0.0f64.to_bits(), "DC point lost");
        assert!(!report.passive, "DC violation missed");
        assert!(
            report.omega_at_sigma_max < crossings[0],
            "the violation lives below the first crossing"
        );
    }

    #[test]
    fn multiport_passive_model() {
        // A diagonal 2-port with two passive reflection coefficients.
        let m = PoleResidueModel::new(
            vec![c(-200.0, 0.0)],
            vec![CMat::from_diag(&[c(50.0, 0.0), c(30.0, 0.0)])],
            Mat::from_diag(&[0.3, -0.2]),
        )
        .unwrap();
        let sys = StateSpace::from_pole_residue(&m).unwrap();
        assert!(hamiltonian_crossings(&sys).unwrap().is_empty());
        let omegas: Vec<f64> = (0..50).map(|k| k as f64 * 40.0).collect();
        let report = assess_default(&m, &omegas);
        assert!(report.passive);
    }
}
