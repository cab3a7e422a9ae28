//! First-class frequency grids and pluggable sampling strategies.
//!
//! Passivity assessment and enforcement are only as trustworthy as the
//! frequency grid the singular values are sampled on: a violation band
//! narrower than the grid spacing is invisible, and the Fig. 5 anomaly of
//! the reproduction traced back to exactly that (a band near
//! ω ≈ 7.04·10⁹ rad/s hiding between working-grid points for 12
//! enforcement iterations). This module turns the grid into a first-class
//! artifact and the *choice of where to sample* into a pluggable policy:
//!
//! * [`FrequencyGrid`] — a sorted, deduplicated list of angular frequencies
//!   (rad/s), each tagged with its [`PointProvenance`] (seed point, crossing
//!   refinement, adaptive bisection);
//! * [`SamplingStrategy`] — the policy trait: how to build the enforcement
//!   working grid, and how to refine a base grid for one assessment of a
//!   concrete model;
//! * [`FixedLog`] — no refinement: sample exactly the base grid (audits);
//! * [`Adaptive`] — the default: seeds the grid with midpoints / geometric
//!   means between consecutive Hamiltonian crossings plus ±0.1 %
//!   neighborhoods, then bisects intervals around the crossings and local
//!   `σ_max` maxima until the σ-interpolation error estimate falls below
//!   tolerance, evaluating the new points in parallel on a
//!   [`pim_runtime::ThreadPool`]. This is the strategy that exposes
//!   sub-grid violation bands (reported σ ≈ 1.36 where the fixed working
//!   sweep saw ≈ 1.006) and lets the enforcement constrain them away.
//!
//! This grid is a *sampling* artifact in rad/s; the tabulated-data grid in
//! hertz (with its DC bookkeeping) remains `pim_rfdata::FrequencyGrid`.
//!
//! ```
//! use pim_passivity::grid::{Adaptive, FrequencyGrid, SamplingStrategy};
//!
//! // The enforcement working grid of a 400-point sweep over a band that
//! // tops out at 1e10 rad/s: logarithmic plus the DC point.
//! let adaptive = Adaptive;
//! let grid = adaptive.working_grid(1e10, 400);
//! assert_eq!(grid.len(), 401);
//! assert_eq!(grid.points()[0], 0.0);
//! // The loop's convergence double-check grid is the same logarithmic grid,
//! // 4x denser (every strategy refines it like any other base grid).
//! assert_eq!(FrequencyGrid::enforcement_log(1e10, 4 * 400).len(), 1601);
//! // Strategies are compared by name in diagnostics.
//! assert_eq!(adaptive.name(), "adaptive");
//! // Grids canonicalize on construction: sorted, deduplicated.
//! let g = FrequencyGrid::from_omegas(&[3.0, 1.0, 2.0, 2.0]);
//! assert_eq!(g.points(), &[1.0, 2.0, 3.0]);
//! ```

use crate::check::sigma_max_at;
use crate::Result;
use pim_statespace::PoleResidueModel;
use std::fmt;

/// The most points a frequency grid of the flow may hold.
///
/// It sits far above every grid built today (the Paper preset's 6,400-point
/// audit, [`Adaptive`]'s 20,000-point cap). `pim_core`'s
/// `Pipeline::from_data` rejects an audit grid above it and
/// [`crate::enforce::enforce_passivity`] a `sweep_points` whose 4×
/// verification grid exceeds it, each with an `InvalidInput` error instead
/// of a failed allocation.
pub const MAX_GRID_POINTS: usize = 1 << 20;

/// How a grid point came to be part of a [`FrequencyGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointProvenance {
    /// Part of the seed (baseline) grid the strategy started from — data
    /// samples or the logarithmic enforcement sweep, including DC.
    Seed,
    /// Inserted between or around Hamiltonian unit-singular-value crossings.
    Crossing,
    /// Inserted by adaptive bisection around a σ-interpolation-error hotspot
    /// or a local `σ_max` maximum.
    Bisection,
}

/// A sorted, deduplicated set of angular frequencies (rad/s), each tagged
/// with the [`PointProvenance`] that produced it.
///
/// Construction canonicalizes: non-finite and negative values are dropped,
/// points are sorted ascending, and near-duplicates (within
/// `ε·max(|ω|, 1)`) collapse to the first occurrence. The canonical form is
/// what the singular-value sweeps consume, so two strategies that produce
/// the same point set produce bit-identical sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyGrid {
    points: Vec<f64>,
    provenance: Vec<PointProvenance>,
}

impl FrequencyGrid {
    /// Builds a grid from raw angular frequencies, tagging every point as
    /// [`PointProvenance::Seed`].
    pub fn from_omegas(omegas: &[f64]) -> Self {
        FrequencyGrid::from_tagged(omegas.iter().map(|&w| (w, PointProvenance::Seed)).collect())
    }

    /// Builds a grid from provenance-tagged points, canonicalizing exactly
    /// like the historical assessment code did: retain finite non-negative
    /// values, stable-sort ascending, deduplicate within
    /// `ε·max(|ω|, 1)` keeping the first occurrence.
    pub fn from_tagged(mut tagged: Vec<(f64, PointProvenance)>) -> Self {
        tagged.retain(|(w, _)| w.is_finite() && *w >= 0.0);
        tagged.sort_by(|a, b| a.0.total_cmp(&b.0));
        tagged.dedup_by(|a, b| (a.0 - b.0).abs() <= f64::EPSILON * a.0.abs().max(1.0));
        let (points, provenance) = tagged.into_iter().unzip();
        FrequencyGrid { points, provenance }
    }

    /// The logarithmic baseline grid of the enforcement loop: `n` points
    /// from `band_max_omega · 10⁻⁸` to `band_max_omega · 2` (one octave
    /// above the band), plus the DC point — the exact floating-point values
    /// the pre-redesign loop hard-coded.
    ///
    /// # Panics
    ///
    /// Panics when `band_max_omega` is not a positive finite number or
    /// `n < 2` (the enforcement loop validates both beforehand).
    pub fn enforcement_log(band_max_omega: f64, n: usize) -> Self {
        assert!(
            band_max_omega > 0.0 && band_max_omega.is_finite(),
            "enforcement_log requires a positive finite band edge"
        );
        assert!(n >= 2, "enforcement_log requires at least two points");
        let top = band_max_omega * 2.0;
        let bottom = band_max_omega * 1e-8;
        let mut tagged: Vec<(f64, PointProvenance)> = (0..n)
            .map(|k| {
                let w = 10f64.powf(
                    bottom.log10() + (top.log10() - bottom.log10()) * k as f64 / (n - 1) as f64,
                );
                (w, PointProvenance::Seed)
            })
            .collect();
        tagged.insert(0, (0.0, PointProvenance::Seed));
        FrequencyGrid::from_tagged(tagged)
    }

    /// The angular frequencies, ascending.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// One provenance tag per point, parallel to [`FrequencyGrid::points`].
    pub fn provenance(&self) -> &[PointProvenance] {
        &self.provenance
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the grid holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of points carrying the given provenance tag.
    pub fn count_of(&self, provenance: PointProvenance) -> usize {
        self.provenance.iter().filter(|&&p| p == provenance).count()
    }

    /// Iterates over `(ω, provenance)` pairs, ascending in ω.
    pub fn iter_tagged(&self) -> impl Iterator<Item = (f64, PointProvenance)> + '_ {
        self.points.iter().copied().zip(self.provenance.iter().copied())
    }

    /// Merges additional tagged points into this grid, returning the
    /// canonicalized union. Existing points keep priority on near-duplicate
    /// collisions (they sort first at equal values).
    #[must_use]
    pub fn merged_with(&self, extra: Vec<(f64, PointProvenance)>) -> Self {
        let mut tagged: Vec<(f64, PointProvenance)> = self.iter_tagged().collect();
        tagged.extend(extra);
        FrequencyGrid::from_tagged(tagged)
    }
}

/// A policy for where to sample singular values: how the enforcement
/// working grid is built, and how a base grid is refined for one
/// assessment of a concrete model.
///
/// Strategies must be [`Send`] + [`Sync`]: enforcement runs inside the
/// parallel preset sweeps of the pipeline, and the configuration (which
/// carries the strategy) is shared across workers.
pub trait SamplingStrategy: fmt::Debug + Send + Sync {
    /// Short stable identifier, used by diagnostics and reports.
    fn name(&self) -> &'static str;

    /// The enforcement working grid for the band `(0, band_max_omega]` with
    /// a budget of `sweep_points` baseline samples (plus DC). The default is
    /// the historical logarithmic grid.
    fn working_grid(&self, band_max_omega: f64, sweep_points: usize) -> FrequencyGrid {
        FrequencyGrid::enforcement_log(band_max_omega, sweep_points)
    }

    /// Refines `base` for one assessment of `model`, given the model's
    /// Hamiltonian unit-singular-value crossings (rad/s, ascending), and
    /// samples `σ_max` on `pool`.
    ///
    /// Returns the refined grid together with its `σ_max` samples, one per
    /// grid point, in grid order.
    ///
    /// # Errors
    ///
    /// Propagates model-evaluation and `σ_max` failures.
    fn refine(
        &self,
        pool: &pim_runtime::ThreadPool,
        model: &PoleResidueModel,
        base: &FrequencyGrid,
        crossings: &[f64],
    ) -> Result<(FrequencyGrid, Vec<f64>)>;
}

/// `σ_max` at every point of `omegas`, in order, evaluated on `pool`.
fn sample(
    pool: &pim_runtime::ThreadPool,
    model: &PoleResidueModel,
    omegas: &[f64],
) -> Result<Vec<f64>> {
    pool.par_map(omegas, |_, &w| sigma_max_at(model, w)).into_iter().collect()
}

/// No refinement: assessments sample exactly the base grid.
///
/// This is the cheapest strategy and the most honest about its blind spots:
/// whatever hides between base points stays hidden. Use it for quick scans
/// and as the baseline of grid-sensitivity experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedLog;

impl SamplingStrategy for FixedLog {
    fn name(&self) -> &'static str {
        "fixed-log"
    }

    fn refine(
        &self,
        pool: &pim_runtime::ThreadPool,
        model: &PoleResidueModel,
        base: &FrequencyGrid,
        _crossings: &[f64],
    ) -> Result<(FrequencyGrid, Vec<f64>)> {
        Ok((base.clone(), sample(pool, model, base.points())?))
    }
}

/// The crossing-derived seed points of an adaptive assessment, in the exact
/// historical insertion order: midpoints and geometric means between
/// consecutive Hamiltonian crossings, ±0.1 % neighborhoods around each
/// crossing, then ±5 % guards outside the outermost crossings.
fn crossing_points(crossings: &[f64]) -> Vec<(f64, PointProvenance)> {
    let mut extra = Vec::new();
    for pair in crossings.windows(2) {
        extra.push((0.5 * (pair[0] + pair[1]), PointProvenance::Crossing));
        extra.push(((pair[0] * pair[1]).max(0.0).sqrt(), PointProvenance::Crossing));
    }
    for &w in crossings {
        extra.push((w * 0.999, PointProvenance::Crossing));
        extra.push((w * 1.001, PointProvenance::Crossing));
    }
    if let Some(&last) = crossings.last() {
        extra.push((last * 1.05, PointProvenance::Crossing));
    }
    if let Some(&first) = crossings.first() {
        extra.push(((first * 0.95).max(0.0), PointProvenance::Crossing));
    }
    extra
}

/// Adaptive bisection, the default strategy: crossing refinement first,
/// then repeated bisection around the Hamiltonian crossings and the under-resolved local `σ_max`
/// maxima until the σ-interpolation error estimate falls below a relative
/// tolerance of 10⁻³.
///
/// Each round sweeps `σ_max` over the current grid on the given
/// [`pim_runtime::ThreadPool`] (one evaluate plus one values-only `σ_max`,
/// [`pim_linalg::svd::sigma_max`], per new point), then for
/// every interior point estimates the interpolation error — the gap between
/// the sampled `σ_max` and its log-frequency linear interpolation from the
/// two neighbors (the estimate concentrates exactly at under-resolved
/// extrema and crossing neighborhoods). Intervals flanking a point whose
/// error exceeds `10⁻³·max(1, σ)` — and where σ reaches 0.9 at the point
/// or a neighbor (sub-unit ripple far from the passivity boundary is not
/// worth resolving) — are bisected at their geometric midpoint. Rounds
/// stop when no interval qualifies, after 24 rounds, or at a hard cap of
/// 20 000 grid points.
///
/// The refinement is deterministic for every thread count: candidate
/// intervals are scanned in ascending frequency order and the midpoint
/// formulas depend only on the interval endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Adaptive;

/// Relative σ-interpolation error tolerance driving the bisection.
const TOLERANCE: f64 = 1e-3;
/// Only chase features whose σ exceeds this floor.
const SIGMA_FLOOR: f64 = 0.9;
/// Maximum number of bisection rounds per assessment.
const MAX_ROUNDS: usize = 24;
/// Hard cap on the refined grid size.
const MAX_POINTS: usize = 20_000;

impl Adaptive {
    /// Geometric midpoint of `(a, b)` (arithmetic when `a` is DC, where the
    /// geometric mean degenerates).
    fn midpoint(a: f64, b: f64) -> f64 {
        if a <= 0.0 {
            0.5 * b
        } else {
            (a * b).sqrt()
        }
    }

    /// `true` when the interval is still wide enough to split (relative
    /// resolution guard against refining forever at a smooth extremum).
    fn splittable(a: f64, b: f64) -> bool {
        b - a > 1e-9 * b.max(1.0)
    }
}

impl SamplingStrategy for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn refine(
        &self,
        pool: &pim_runtime::ThreadPool,
        model: &PoleResidueModel,
        base: &FrequencyGrid,
        crossings: &[f64],
    ) -> Result<(FrequencyGrid, Vec<f64>)> {
        refine_adaptive(pool, model, base, crossings, MAX_POINTS)
    }
}

/// The [`Adaptive`] refinement with a hard cap of `max_points` on the
/// refined grid size.
fn refine_adaptive(
    pool: &pim_runtime::ThreadPool,
    model: &PoleResidueModel,
    base: &FrequencyGrid,
    crossings: &[f64],
    max_points: usize,
) -> Result<(FrequencyGrid, Vec<f64>)> {
    // Seed with the crossing neighborhoods, so every Hamiltonian
    // crossing is resolved before the bisection starts.
    let mut grid = base.merged_with(crossing_points(crossings));
    let mut sigmas = sample(pool, model, grid.points())?;

    for _ in 0..MAX_ROUNDS {
        if grid.len() >= max_points {
            break;
        }
        let w = grid.points();
        // Collect the intervals to bisect, ascending, deduplicated by
        // construction (each interval is pushed at most twice and the
        // grid merge collapses identical midpoints).
        let mut splits: Vec<(f64, f64)> = Vec::new();
        let mark = |a: f64, b: f64, splits: &mut Vec<(f64, f64)>| {
            if Adaptive::splittable(a, b) {
                splits.push((a, b));
            }
        };
        for k in 1..w.len().saturating_sub(1) {
            let (s0, s1, s2) = (sigmas[k - 1], sigmas[k], sigmas[k + 1]);
            if s0.max(s1).max(s2) < SIGMA_FLOOR {
                continue;
            }
            // Log-frequency linear interpolation of σ at w[k] from the
            // neighbors (plain linear when the left neighbor is DC).
            let (x0, x1, x2) = if w[k - 1] > 0.0 {
                (w[k - 1].ln(), w[k].ln(), w[k + 1].ln())
            } else {
                (w[k - 1], w[k], w[k + 1])
            };
            let t = if x2 > x0 { (x1 - x0) / (x2 - x0) } else { 0.5 };
            let predicted = s0 + t * (s2 - s0);
            let interp_error = (s1 - predicted).abs();
            if interp_error > TOLERANCE * s1.abs().max(1.0) {
                mark(w[k - 1], w[k], &mut splits);
                mark(w[k], w[k + 1], &mut splits);
            }
        }
        if splits.is_empty() {
            break;
        }
        // An interval flanked by two qualifying points is pushed twice,
        // back to back — drop the duplicates so the budget below is
        // spent on distinct intervals only.
        splits.dedup();
        let budget = max_points.saturating_sub(grid.len());
        splits.truncate(budget);
        let new_points: Vec<f64> = splits.iter().map(|&(a, b)| Adaptive::midpoint(a, b)).collect();
        let refined =
            grid.merged_with(new_points.iter().map(|&w| (w, PointProvenance::Bisection)).collect());
        if refined.len() == grid.len() {
            break;
        }
        // Evaluate σ only at the genuinely new points, then rebuild the
        // σ array in grid order (old points keep their sampled values).
        // Keyed by the f64 bit pattern: exact lookup, and BTreeMap so no
        // nondeterministic-order container sits in the sampling layer
        // (the lookups below are keyed, but the invariant is cheap).
        let old: std::collections::BTreeMap<u64, f64> =
            grid.points().iter().zip(&sigmas).map(|(&w, &s)| (w.to_bits(), s)).collect();
        let missing: Vec<f64> =
            refined.points().iter().copied().filter(|w| !old.contains_key(&w.to_bits())).collect();
        let fresh = sample(pool, model, &missing)?;
        let fresh_map: std::collections::BTreeMap<u64, f64> =
            missing.iter().zip(&fresh).map(|(&w, &s)| (w.to_bits(), s)).collect();
        sigmas = refined
            .points()
            .iter()
            .map(|w| {
                old.get(&w.to_bits())
                    .or_else(|| fresh_map.get(&w.to_bits()))
                    .copied()
                    .expect("every refined grid point is either inherited or freshly sampled")
            })
            .collect();
        grid = refined;
    }
    Ok((grid, sigmas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_linalg::{CMat, Complex64, Mat};
    use pim_runtime::ThreadPool;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// A 1-port with a very sharp resonance: the σ peak is much narrower
    /// than any coarse log grid spacing.
    fn narrow_peak_model(omega0: f64, q_damping: f64) -> PoleResidueModel {
        let p = c(-q_damping, omega0);
        let r = c(0.9 * q_damping, 0.0);
        PoleResidueModel::new(
            vec![p, p.conj()],
            vec![CMat::from_diag(&[r]), CMat::from_diag(&[r.conj()])],
            Mat::from_diag(&[0.7]),
        )
        .unwrap()
    }

    #[test]
    fn canonicalization_sorts_dedups_and_drops_invalid() {
        let g = FrequencyGrid::from_tagged(vec![
            (3.0, PointProvenance::Seed),
            (f64::NAN, PointProvenance::Seed),
            (-1.0, PointProvenance::Seed),
            (1.0, PointProvenance::Seed),
            (1.0 + f64::EPSILON / 4.0, PointProvenance::Bisection),
            (2.0, PointProvenance::Crossing),
        ]);
        assert_eq!(g.points(), &[1.0, 2.0, 3.0]);
        // The near-duplicate collapsed to the first occurrence, keeping the
        // earlier point's provenance.
        assert_eq!(
            g.provenance(),
            &[PointProvenance::Seed, PointProvenance::Crossing, PointProvenance::Seed]
        );
        assert_eq!(g.count_of(PointProvenance::Crossing), 1);
        assert!(!g.is_empty());
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn enforcement_log_matches_the_historical_formula() {
        // The exact float expressions of the pre-redesign enforcement loop.
        let (band, n) = (1.2e10_f64, 200_usize);
        let top = band * 2.0;
        let bottom = band * 1e-8;
        let mut expected: Vec<f64> = (0..n)
            .map(|k| {
                10f64.powf(
                    bottom.log10() + (top.log10() - bottom.log10()) * k as f64 / (n - 1) as f64,
                )
            })
            .collect();
        expected.insert(0, 0.0);
        let grid = FrequencyGrid::enforcement_log(band, n);
        assert_eq!(grid.len(), expected.len());
        for (a, b) in grid.points().iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn crossing_refined_reproduces_the_historical_assessment_grid() {
        // The exact pre-redesign refinement code, inlined as the oracle.
        let omegas: Vec<f64> = (0..50).map(|k| k as f64 * 37.0).collect();
        let crossings = [400.0, 1000.0, 1010.0, 1500.0];
        let mut oracle: Vec<f64> = omegas.clone();
        for pair in crossings.windows(2) {
            oracle.push(0.5 * (pair[0] + pair[1]));
            oracle.push((pair[0] * pair[1]).max(0.0).sqrt());
        }
        for &w in &crossings {
            oracle.push(w * 0.999);
            oracle.push(w * 1.001);
        }
        oracle.push(crossings.last().unwrap() * 1.05);
        oracle.push((crossings.first().unwrap() * 0.95).max(0.0));
        oracle.retain(|w| w.is_finite() && *w >= 0.0);
        oracle.sort_by(f64::total_cmp);
        oracle.dedup_by(|a, b| (*a - *b).abs() <= f64::EPSILON * a.abs().max(1.0));

        let base = FrequencyGrid::from_omegas(&omegas);
        let refined = base.merged_with(crossing_points(&crossings));
        assert_eq!(refined.len(), oracle.len());
        for (a, b) in refined.points().iter().zip(&oracle) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        // Provenance: seeds plus crossing-derived points, no bisection.
        assert_eq!(refined.count_of(PointProvenance::Bisection), 0);
        assert!(refined.count_of(PointProvenance::Crossing) > 0);
    }

    #[test]
    fn fixed_log_is_a_passthrough() {
        let pool = ThreadPool::new(1);
        let model = narrow_peak_model(1000.0, 50.0);
        let base = FrequencyGrid::from_omegas(&[0.0, 10.0, 100.0]);
        let (refined, sigma) = FixedLog.refine(&pool, &model, &base, &[9.0, 11.0]).unwrap();
        assert_eq!(refined, base);
        assert_eq!(sigma.len(), base.len());
        for (&w, s) in base.points().iter().zip(sigma) {
            assert_eq!(s.to_bits(), sigma_max_at(&model, w).unwrap().to_bits(), "σ at {w}");
        }
        assert_eq!(FixedLog.name(), "fixed-log");
    }

    #[test]
    fn adaptive_resolves_a_sub_grid_violation_peak() {
        // Two nearby resonances: the σ>1 band is far narrower than the
        // 20-point log grid spacing and its peak sits away from crossing
        // midpoints, so only bisection can climb it.
        let p1 = c(-2e2, 1.0e6);
        let p2 = c(-6e2, 1.003e6);
        let (r1, r2) = (c(1.8e2, 0.0), c(2.4e2, 0.0));
        let model = PoleResidueModel::new(
            vec![p1, p1.conj(), p2, p2.conj()],
            vec![
                CMat::from_diag(&[r1]),
                CMat::from_diag(&[r1.conj()]),
                CMat::from_diag(&[r2]),
                CMat::from_diag(&[r2.conj()]),
            ],
            Mat::from_diag(&[0.7]),
        )
        .unwrap();
        let sys = pim_statespace::StateSpace::from_pole_residue(&model).unwrap();
        let crossings = crate::check::hamiltonian_crossings(&sys).unwrap();
        assert!(!crossings.is_empty(), "the violating band must produce crossings");
        let pool = ThreadPool::new(1);
        let base = FrequencyGrid::from_omegas(
            &(0..20).map(|k| 10f64.powf(4.0 + 4.0 * k as f64 / 19.0)).collect::<Vec<_>>(),
        );
        let sigma_on = |grid: &FrequencyGrid| {
            grid.points().iter().map(|&w| sigma_max_at(&model, w).unwrap()).fold(0.0_f64, f64::max)
        };
        let coarse_max = sigma_on(&base);
        let crossing_max = sigma_on(&base.merged_with(crossing_points(&crossings)));
        let (refined, sigma) = Adaptive.refine(&pool, &model, &base, &crossings).unwrap();
        let refined_max = sigma_on(&refined);
        // The handed-back samples are σ_max at every grid point, in order.
        assert_eq!(sigma.len(), refined.len());
        assert_eq!(sigma.iter().fold(0.0_f64, |a, &b| a.max(b)).to_bits(), refined_max.to_bits());
        // The true peak, located by brute force on a very dense local grid.
        let true_peak = (0..20_000)
            .map(|k| 0.99e6 + 20.0 * k as f64)
            .map(|w| sigma_max_at(&model, w).unwrap())
            .fold(0.0_f64, f64::max);
        assert!(true_peak > 1.3, "the synthetic band must violate strongly ({true_peak})");
        assert!(coarse_max < 1.0, "the coarse grid must miss the band ({coarse_max})");
        assert!(
            refined_max > 0.995 * true_peak,
            "adaptive refinement must resolve the peak ({refined_max} vs {true_peak})"
        );
        assert!(
            refined_max >= crossing_max,
            "adaptive ({refined_max}) must not be worse than crossing refinement ({crossing_max})"
        );
        assert!(refined.count_of(PointProvenance::Bisection) > 0);
        // Deterministic across thread counts (bit-identical grid).
        let wide = ThreadPool::new(4);
        let (again, _) = Adaptive.refine(&wide, &model, &base, &crossings).unwrap();
        assert_eq!(again.len(), refined.len());
        for (a, b) in again.points().iter().zip(refined.points()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adaptive_respects_the_point_cap_and_converges_on_smooth_models() {
        let pool = ThreadPool::new(1);
        // A clearly passive, smooth 1-port: nothing above the sigma floor,
        // so no refinement at all.
        let smooth = PoleResidueModel::new(
            vec![c(-100.0, 0.0)],
            vec![CMat::from_diag(&[c(40.0, 0.0)])],
            Mat::from_diag(&[0.2]),
        )
        .unwrap();
        let base = FrequencyGrid::from_omegas(
            &(0..40).map(|k| 10.0 * (k as f64 + 1.0)).collect::<Vec<_>>(),
        );
        let (refined, _) = Adaptive.refine(&pool, &smooth, &base, &[]).unwrap();
        assert_eq!(refined.len(), base.len(), "smooth sub-floor model needs no refinement");
        // The cap is a hard ceiling even for a violating model.
        let model = narrow_peak_model(1e6, 2e2);
        let wide_base = FrequencyGrid::from_omegas(
            &(0..20).map(|k| 10f64.powf(4.0 + 4.0 * k as f64 / 19.0)).collect::<Vec<_>>(),
        );
        let (refined, _) = refine_adaptive(&pool, &model, &wide_base, &[], 25).unwrap();
        assert!(refined.len() <= 25 + 2, "cap exceeded: {}", refined.len());
    }

    #[test]
    fn merged_with_keeps_existing_points_on_collision() {
        let base = FrequencyGrid::from_omegas(&[1.0, 2.0]);
        let merged = base.merged_with(vec![
            (2.0, PointProvenance::Bisection),
            (3.0, PointProvenance::Bisection),
        ]);
        assert_eq!(merged.points(), &[1.0, 2.0, 3.0]);
        assert_eq!(
            merged.provenance(),
            &[PointProvenance::Seed, PointProvenance::Seed, PointProvenance::Bisection]
        );
    }
}
