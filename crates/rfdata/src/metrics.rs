//! Error metrics between tabulated frequency responses.
//!
//! These implement the unweighted error of eq. (4) in the paper, plus the
//! per-element / per-frequency diagnostics used in the evaluation figures.

use crate::{NetworkData, Result, RfDataError};
use pim_linalg::Complex64;

/// Per-frequency Frobenius error `E_k = ‖A_k − B_k‖_F` between two data sets.
///
/// # Errors
///
/// Returns [`RfDataError::Inconsistent`] when the two data sets have different
/// sample counts or port counts.
pub fn per_frequency_error(a: &NetworkData, b: &NetworkData) -> Result<Vec<f64>> {
    check_compatible(a, b)?;
    Ok((0..a.len())
        .map(|k| {
            let diff = a.matrix(k) - b.matrix(k);
            diff.frobenius_norm()
        })
        .collect())
}

/// Root-mean-square error over all frequencies and matrix entries
/// (the square root of eq. (4) normalized by the number of samples).
///
/// # Errors
///
/// See [`per_frequency_error`].
pub fn rms_error(a: &NetworkData, b: &NetworkData) -> Result<f64> {
    check_compatible(a, b)?;
    let p = a.ports() as f64;
    let k = a.len() as f64;
    let sum_sq: f64 = per_frequency_error(a, b)?.iter().map(|e| e * e).sum();
    Ok((sum_sq / (k * p * p)).sqrt())
}

/// Magnitude of a single element in decibels (convenience for plotting the
/// paper's Figures 1 and 6).
pub fn element_magnitude_db(data: &NetworkData, i: usize, j: usize) -> Vec<f64> {
    (0..data.len()).map(|k| 20.0 * data.matrix(k)[(i, j)].abs().max(1e-300).log10()).collect()
}

/// Phase of a single element in degrees.
pub fn element_phase_deg(data: &NetworkData, i: usize, j: usize) -> Vec<f64> {
    (0..data.len()).map(|k| data.matrix(k)[(i, j)].arg().to_degrees()).collect()
}

/// Relative RMS error between two complex response vectors (used for scalar
/// responses such as the PDN target impedance).
///
/// # Errors
///
/// Returns [`RfDataError::Inconsistent`] on length mismatch or an empty input.
pub fn relative_rms_error(reference: &[Complex64], candidate: &[Complex64]) -> Result<f64> {
    if reference.len() != candidate.len() || reference.is_empty() {
        return Err(RfDataError::Inconsistent(
            "relative_rms_error requires two equal-length non-empty vectors".into(),
        ));
    }
    let num: f64 = reference.iter().zip(candidate).map(|(r, c)| (*r - *c).abs_sq()).sum();
    let den: f64 = reference.iter().map(|r| r.abs_sq()).sum();
    // audit:allow(float-eq): exact-zero reference energy cannot be used as a divisor
    if den == 0.0 {
        return Err(RfDataError::Inconsistent("reference vector is identically zero".into()));
    }
    Ok((num / den).sqrt())
}

fn check_compatible(a: &NetworkData, b: &NetworkData) -> Result<()> {
    if a.len() != b.len() {
        return Err(RfDataError::Inconsistent(format!(
            "sample count mismatch: {} vs {}",
            a.len(),
            b.len()
        )));
    }
    if a.ports() != b.ports() {
        return Err(RfDataError::Inconsistent(format!(
            "port count mismatch: {} vs {}",
            a.ports(),
            b.ports()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrequencyGrid, ParameterKind};
    use pim_linalg::CMat;

    fn data_with_offset(offset: f64) -> NetworkData {
        let grid = FrequencyGrid::from_hz(vec![1.0, 2.0, 3.0]).unwrap();
        let matrices: Vec<CMat> = (0..3)
            .map(|k| {
                CMat::from_fn(2, 2, |i, j| {
                    Complex64::new(0.1 * (i + j) as f64 + 0.05 * k as f64 + offset, 0.02)
                })
            })
            .collect();
        NetworkData::new(grid, matrices, ParameterKind::Scattering, 50.0).unwrap()
    }

    #[test]
    fn zero_error_for_identical_data() {
        let a = data_with_offset(0.0);
        assert_eq!((rms_error(&a, &a).unwrap()).to_bits(), 0.0f64.to_bits());
        assert!(per_frequency_error(&a, &a)
            .unwrap()
            .iter()
            .all(|&e| e.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn constant_offset_error_is_exact() {
        let a = data_with_offset(0.0);
        let b = data_with_offset(0.01);
        // Every entry differs by exactly 0.01 in the real part.
        assert!((rms_error(&a, &b).unwrap() - 0.01).abs() < 1e-14);
        let per = per_frequency_error(&a, &b).unwrap();
        for e in per {
            assert!((e - 0.02).abs() < 1e-14); // sqrt(4 entries * 0.01^2)
        }
    }

    #[test]
    fn element_metrics() {
        let a = data_with_offset(0.0);
        let mag = element_magnitude_db(&a, 1, 1);
        assert_eq!(mag.len(), 3);
        let ph = element_phase_deg(&a, 1, 1);
        assert!(ph.iter().all(|p| p.abs() <= 180.0));
    }

    #[test]
    fn relative_rms_error_behaviour() {
        let r = vec![Complex64::new(1.0, 0.0), Complex64::new(0.0, 2.0)];
        let c = vec![Complex64::new(1.1, 0.0), Complex64::new(0.0, 2.0)];
        let e = relative_rms_error(&r, &c).unwrap();
        assert!((e - (0.01f64 / 5.0).sqrt()).abs() < 1e-12);
        assert_eq!((relative_rms_error(&r, &r).unwrap()).to_bits(), 0.0f64.to_bits());
        assert!(relative_rms_error(&r, &c[..1]).is_err());
        assert!(relative_rms_error(&[], &[]).is_err());
        let zeros = vec![Complex64::ZERO; 2];
        assert!(relative_rms_error(&zeros, &c).is_err());
    }

    #[test]
    fn incompatible_data_is_rejected() {
        let a = data_with_offset(0.0);
        let grid = FrequencyGrid::from_hz(vec![1.0, 2.0]).unwrap();
        let b = NetworkData::new(
            grid,
            vec![CMat::identity(2), CMat::identity(2)],
            ParameterKind::Scattering,
            50.0,
        )
        .unwrap();
        assert!(rms_error(&a, &b).is_err());
        let grid3 = FrequencyGrid::from_hz(vec![1.0, 2.0, 3.0]).unwrap();
        let c = NetworkData::new(
            grid3,
            vec![CMat::identity(3), CMat::identity(3), CMat::identity(3)],
            ParameterKind::Scattering,
            50.0,
        )
        .unwrap();
        assert!(per_frequency_error(&a, &c).is_err());
    }
}
