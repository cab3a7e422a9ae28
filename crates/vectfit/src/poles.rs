//! Initial pole placement and spectrum bookkeeping helpers for the fitters.

use crate::{Result, VectFitError};
use pim_linalg::Complex64;

/// Generates the standard Vector Fitting starting pole set: complex-conjugate
/// pairs whose imaginary parts are logarithmically spread over
/// `[ω_min, ω_max]` and whose real parts are `−β·ω` with the customary
/// `β = 1/100`. When `n_poles` is odd, one real pole at `−ω_min` is added.
///
/// # Errors
///
/// Returns [`VectFitError::InvalidInput`] for a non-positive frequency range
/// or `n_poles == 0`.
///
/// ```
/// use pim_vectfit::poles::initial_poles;
/// # fn main() -> Result<(), pim_vectfit::VectFitError> {
/// let poles = initial_poles(2.0 * std::f64::consts::PI * 1e3, 2.0 * std::f64::consts::PI * 2e9, 12)?;
/// assert_eq!(poles.len(), 12);
/// assert!(poles.iter().all(|p| p.re < 0.0));
/// # Ok(())
/// # }
/// ```
pub fn initial_poles(omega_min: f64, omega_max: f64, n_poles: usize) -> Result<Vec<Complex64>> {
    if n_poles == 0 {
        return Err(VectFitError::InvalidInput("n_poles must be positive".into()));
    }
    if !(omega_min > 0.0) || !(omega_max > omega_min) {
        return Err(VectFitError::InvalidInput(
            "initial_poles requires 0 < omega_min < omega_max".into(),
        ));
    }
    let mut poles = Vec::with_capacity(n_poles);
    let n_pairs = n_poles / 2;
    let has_real = n_poles % 2 == 1;
    if has_real {
        poles.push(Complex64::new(-omega_min, 0.0));
    }
    if n_pairs > 0 {
        let l0 = omega_min.log10();
        let l1 = omega_max.log10();
        for k in 0..n_pairs {
            let t = if n_pairs == 1 { 0.5 } else { k as f64 / (n_pairs - 1) as f64 };
            let beta = 10f64.powf(l0 + (l1 - l0) * t);
            let alpha = -beta / 100.0;
            poles.push(Complex64::new(alpha, beta));
            poles.push(Complex64::new(alpha, -beta));
        }
    }
    Ok(poles)
}

/// Rebuilds a conjugate-symmetric pole list from raw eigenvalues of a real
/// matrix: eigenvalues with negligible imaginary part become real poles, the
/// rest are paired into `(p, p̄)` with the positive-imaginary member first.
///
/// Raw eigenvalues of a real matrix are conjugate-symmetric only up to
/// roundoff; this helper restores the exact symmetry required by
/// [`pim_statespace::PoleResidueModel`].
pub fn symmetrize_spectrum(eigenvalues: &[Complex64]) -> Vec<Complex64> {
    let mut reals: Vec<f64> = Vec::new();
    let mut upper: Vec<Complex64> = Vec::new();
    let mut lower: Vec<Complex64> = Vec::new();
    for &ev in eigenvalues {
        let scale = ev.abs().max(1.0);
        if ev.im.abs() <= 1e-9 * scale {
            reals.push(ev.re);
        } else if ev.im > 0.0 {
            upper.push(ev);
        } else {
            lower.push(ev);
        }
    }
    // Pair each upper-half eigenvalue with its closest lower-half partner and
    // average them to restore exact conjugacy. Unmatched leftovers fall back
    // to real poles (their imaginary part is dropped).
    let mut out = Vec::with_capacity(eigenvalues.len());
    for r in &reals {
        out.push(Complex64::new(*r, 0.0));
    }
    let mut lower_used = vec![false; lower.len()];
    for u in upper {
        let mut best: Option<(usize, f64)> = None;
        for (idx, l) in lower.iter().enumerate() {
            if lower_used[idx] {
                continue;
            }
            let d = (u.conj() - *l).abs();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((idx, d));
            }
        }
        match best {
            Some((idx, _)) => {
                lower_used[idx] = true;
                let l = lower[idx];
                let avg = Complex64::new(0.5 * (u.re + l.re), 0.5 * (u.im - l.im));
                out.push(avg);
                out.push(avg.conj());
            }
            None => out.push(Complex64::new(u.re, 0.0)),
        }
    }
    for (idx, l) in lower.iter().enumerate() {
        if !lower_used[idx] {
            out.push(Complex64::new(l.re, 0.0));
        }
    }
    out
}

/// Reflects every unstable pole into the open left half plane (`Re ← −|Re|`),
/// the standard stabilization applied after each pole-relocation step.
pub fn flip_unstable(poles: &mut [Complex64]) {
    for p in poles {
        if p.re > 0.0 {
            p.re = -p.re;
        }
    }
}

/// Classification of a conjugate-symmetric pole list into scan-friendly
/// blocks: `Real(index)` or `Pair(index_of_upper_member)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoleBlock {
    /// A single real pole at the given index of the pole list.
    Real(usize),
    /// A complex-conjugate pair occupying indices `i` and `i + 1`.
    Pair(usize),
}

/// Walks a conjugate-symmetric pole list (pairs adjacent) and produces the
/// block structure used to build real-coefficient least squares bases.
///
/// # Errors
///
/// Returns [`VectFitError::InvalidInput`] if a complex pole has no adjacent
/// conjugate partner.
pub fn pole_blocks(poles: &[Complex64]) -> Result<Vec<PoleBlock>> {
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < poles.len() {
        let p = poles[i];
        let scale = p.abs().max(1.0);
        if p.im.abs() <= 1e-9 * scale {
            blocks.push(PoleBlock::Real(i));
            i += 1;
        } else {
            let q = poles.get(i + 1).copied().ok_or_else(|| {
                VectFitError::InvalidInput(format!("complex pole {p} has no conjugate partner"))
            })?;
            if (q - p.conj()).abs() > 1e-6 * scale {
                return Err(VectFitError::InvalidInput(format!(
                    "poles at indices {i} and {} are not a conjugate pair",
                    i + 1
                )));
            }
            blocks.push(PoleBlock::Pair(i));
            i += 2;
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_poles_structure() {
        let poles = initial_poles(1.0, 1e6, 13).unwrap();
        assert_eq!(poles.len(), 13);
        // One real pole (odd order), the rest conjugate pairs.
        let blocks = pole_blocks(&poles).unwrap();
        let reals = blocks.iter().filter(|b| matches!(b, PoleBlock::Real(_))).count();
        assert_eq!(reals, 1);
        assert!(poles.iter().all(|p| p.re < 0.0));
        // Imaginary parts span the band.
        let max_im = poles.iter().map(|p| p.im.abs()).fold(0.0_f64, f64::max);
        assert!((max_im - 1e6).abs() < 1.0);
        // Errors.
        assert!(initial_poles(0.0, 1.0, 4).is_err());
        assert!(initial_poles(1.0, 1.0, 4).is_err());
        assert!(initial_poles(1.0, 2.0, 0).is_err());
    }

    #[test]
    fn even_order_has_no_real_pole() {
        let poles = initial_poles(10.0, 1e4, 8).unwrap();
        let blocks = pole_blocks(&poles).unwrap();
        assert!(blocks.iter().all(|b| matches!(b, PoleBlock::Pair(_))));
        assert_eq!(poles.len(), 8);
    }

    #[test]
    fn symmetrize_recovers_pairs_from_noisy_spectrum() {
        let evs = vec![
            Complex64::new(-1.0, 2.0 + 1e-12),
            Complex64::new(-3.0, 1e-13),
            Complex64::new(-1.0 + 1e-12, -2.0),
        ];
        let sym = symmetrize_spectrum(&evs);
        assert_eq!(sym.len(), 3);
        let blocks = pole_blocks(&sym).unwrap();
        assert_eq!(blocks.len(), 2);
        // The pair is exactly conjugate after symmetrization.
        let pair_idx = sym.iter().position(|p| p.im > 0.0).unwrap();
        assert_eq!(sym[pair_idx + 1], sym[pair_idx].conj());
    }

    #[test]
    fn symmetrize_handles_unmatched_eigenvalues() {
        // A single complex eigenvalue without a partner degrades to real.
        let sym = symmetrize_spectrum(&[Complex64::new(-2.0, 5.0)]);
        assert_eq!(sym.len(), 1);
        assert_eq!((sym[0].im).to_bits(), 0.0f64.to_bits());
        let sym2 = symmetrize_spectrum(&[Complex64::new(-2.0, -5.0)]);
        assert_eq!((sym2[0].im).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn flip_unstable_reflects_into_lhp() {
        let mut poles = vec![Complex64::new(3.0, 4.0), Complex64::new(-1.0, 0.0)];
        flip_unstable(&mut poles);
        assert!(poles.iter().all(|p| p.re <= 0.0));
        assert_eq!((poles[0].im).to_bits(), 4.0f64.to_bits());
    }

    #[test]
    fn pole_blocks_rejects_malformed_lists() {
        assert!(pole_blocks(&[Complex64::new(-1.0, 2.0)]).is_err());
        assert!(pole_blocks(&[Complex64::new(-1.0, 2.0), Complex64::new(-1.0, 3.0)]).is_err());
    }
}
