//! Frequency sampling grids.

use crate::{Result, RfDataError};

/// A sorted grid of frequency samples in hertz.
///
/// The paper's data set is tabulated "from 1 kHz to 2 GHz with logarithmic
/// sampling and including the DC point"; [`FrequencyGrid::log_space`] with
/// [`FrequencyGrid::with_dc`] reproduces exactly that sampling plan.
///
/// ```
/// use pim_rfdata::FrequencyGrid;
///
/// # fn main() -> Result<(), pim_rfdata::RfDataError> {
/// let grid = FrequencyGrid::log_space(1e3, 2e9, 200)?.with_dc();
/// assert_eq!(grid.len(), 201);
/// assert_eq!(grid.freqs_hz()[0], 0.0);
/// assert!((grid.freqs_hz()[1] - 1e3).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyGrid {
    freqs_hz: Vec<f64>,
}

impl FrequencyGrid {
    /// Builds a grid from an explicit list of frequencies (hertz).
    ///
    /// # Errors
    ///
    /// Returns [`RfDataError::Inconsistent`] if the list is empty, contains
    /// negative or non-finite values, or is not strictly increasing.
    pub fn from_hz(freqs_hz: Vec<f64>) -> Result<Self> {
        if freqs_hz.is_empty() {
            return Err(RfDataError::Inconsistent("frequency grid must not be empty".into()));
        }
        for (i, &f) in freqs_hz.iter().enumerate() {
            if !f.is_finite() || f < 0.0 {
                return Err(RfDataError::Inconsistent(format!(
                    "frequency sample {i} is invalid: {f}"
                )));
            }
            if i > 0 && f <= freqs_hz[i - 1] {
                return Err(RfDataError::Inconsistent(format!(
                    "frequency grid must be strictly increasing (sample {i})"
                )));
            }
        }
        Ok(FrequencyGrid { freqs_hz })
    }

    /// Logarithmically spaced grid of `n` points between `f_min` and `f_max`
    /// (both included, both in hertz).
    ///
    /// # Errors
    ///
    /// Returns [`RfDataError::Inconsistent`] for non-positive bounds,
    /// `f_min >= f_max`, or `n < 2`.
    pub fn log_space(f_min: f64, f_max: f64, n: usize) -> Result<Self> {
        if f_min <= 0.0 || f_max <= 0.0 || !f_min.is_finite() || !f_max.is_finite() {
            return Err(RfDataError::Inconsistent(
                "log_space requires strictly positive finite bounds".into(),
            ));
        }
        if f_min >= f_max || n < 2 {
            return Err(RfDataError::Inconsistent(
                "log_space requires f_min < f_max and at least two points".into(),
            ));
        }
        let l0 = f_min.log10();
        let l1 = f_max.log10();
        let freqs: Vec<f64> =
            (0..n).map(|k| 10f64.powf(l0 + (l1 - l0) * k as f64 / (n - 1) as f64)).collect();
        FrequencyGrid::from_hz(freqs)
    }

    /// Linearly spaced grid of `n` points between `f_min` and `f_max`.
    ///
    /// # Errors
    ///
    /// Returns [`RfDataError::Inconsistent`] for invalid bounds or `n < 2`.
    pub fn lin_space(f_min: f64, f_max: f64, n: usize) -> Result<Self> {
        if f_min < 0.0 || !f_min.is_finite() || !f_max.is_finite() || f_min >= f_max || n < 2 {
            return Err(RfDataError::Inconsistent(
                "lin_space requires 0 <= f_min < f_max and at least two points".into(),
            ));
        }
        let freqs: Vec<f64> =
            (0..n).map(|k| f_min + (f_max - f_min) * k as f64 / (n - 1) as f64).collect();
        FrequencyGrid::from_hz(freqs)
    }

    /// Returns a new grid with a DC (0 Hz) sample prepended, if not already
    /// present.
    pub fn with_dc(self) -> Self {
        if self.freqs_hz.first().copied() == Some(0.0) {
            return self;
        }
        let mut freqs = Vec::with_capacity(self.freqs_hz.len() + 1);
        freqs.push(0.0);
        freqs.extend(self.freqs_hz);
        FrequencyGrid { freqs_hz: freqs }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.freqs_hz.len()
    }

    /// `true` when the grid has no samples (never true for constructed grids).
    pub fn is_empty(&self) -> bool {
        self.freqs_hz.is_empty()
    }

    /// Frequencies in hertz.
    pub fn freqs_hz(&self) -> &[f64] {
        &self.freqs_hz
    }

    /// Angular frequencies `ω = 2πf` in rad/s.
    pub fn omegas(&self) -> Vec<f64> {
        self.freqs_hz.iter().map(|f| 2.0 * std::f64::consts::PI * f).collect()
    }

    /// Iterator over the frequencies in hertz.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.freqs_hz.iter()
    }

    /// Smallest non-zero frequency of the grid, if any.
    pub fn min_nonzero_hz(&self) -> Option<f64> {
        self.freqs_hz.iter().copied().find(|&f| f > 0.0)
    }

    /// Largest frequency of the grid.
    pub fn max_hz(&self) -> f64 {
        *self.freqs_hz.last().expect("grid is never empty")
    }

    /// Largest angular frequency `2π·f_max` of the grid in rad/s — the band
    /// edge the passivity-enforcement sweep grids are anchored to.
    /// Identical (to the bit) to the maximum of [`FrequencyGrid::omegas`].
    pub fn max_omega(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.max_hz()
    }

    /// Index of the sample closest to `f_hz`.
    pub fn nearest_index(&self, f_hz: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, &f) in self.freqs_hz.iter().enumerate() {
            let d = (f - f_hz).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Returns a decimated copy keeping every `step`-th sample (always keeps
    /// the first and last samples).
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn decimate(&self, step: usize) -> FrequencyGrid {
        assert!(step > 0, "decimation step must be positive");
        let n = self.freqs_hz.len();
        let mut freqs: Vec<f64> = self.freqs_hz.iter().copied().step_by(step).collect();
        if freqs.last() != self.freqs_hz.last() {
            freqs.push(self.freqs_hz[n - 1]);
        }
        FrequencyGrid { freqs_hz: freqs }
    }
}

impl<'a> IntoIterator for &'a FrequencyGrid {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.freqs_hz.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_space_endpoints_and_monotonicity() {
        let g = FrequencyGrid::log_space(1e3, 2e9, 101).unwrap();
        assert_eq!(g.len(), 101);
        assert!((g.freqs_hz()[0] - 1e3).abs() < 1e-6);
        assert!((g.max_hz() - 2e9).abs() < 1e-3);
        assert!(g.freqs_hz().windows(2).all(|w| w[1] > w[0]));
        // Log spacing: constant ratio.
        let r0 = g.freqs_hz()[1] / g.freqs_hz()[0];
        let r1 = g.freqs_hz()[50] / g.freqs_hz()[49];
        assert!((r0 - r1).abs() < 1e-9);
    }

    #[test]
    fn lin_space_and_with_dc() {
        let g = FrequencyGrid::lin_space(0.0, 10.0, 11).unwrap();
        assert_eq!((g.freqs_hz()[3]).to_bits(), 3.0f64.to_bits());
        let g2 = FrequencyGrid::log_space(1.0, 100.0, 3).unwrap().with_dc();
        assert_eq!(g2.len(), 4);
        assert_eq!((g2.freqs_hz()[0]).to_bits(), 0.0f64.to_bits());
        // Idempotent.
        assert_eq!(g2.clone().with_dc(), g2);
    }

    #[test]
    fn omegas_and_nearest() {
        let g = FrequencyGrid::from_hz(vec![0.0, 1.0, 10.0]).unwrap();
        let w = g.omegas();
        assert!((w[1] - 2.0 * std::f64::consts::PI).abs() < 1e-12);
        assert_eq!(g.nearest_index(8.0), 2);
        assert_eq!(g.nearest_index(0.4), 0);
        assert_eq!(g.min_nonzero_hz(), Some(1.0));
    }

    #[test]
    fn invalid_grids_are_rejected() {
        assert!(FrequencyGrid::from_hz(vec![]).is_err());
        assert!(FrequencyGrid::from_hz(vec![1.0, 1.0]).is_err());
        assert!(FrequencyGrid::from_hz(vec![2.0, 1.0]).is_err());
        assert!(FrequencyGrid::from_hz(vec![-1.0, 1.0]).is_err());
        assert!(FrequencyGrid::from_hz(vec![f64::NAN]).is_err());
        assert!(FrequencyGrid::log_space(0.0, 1.0, 10).is_err());
        assert!(FrequencyGrid::log_space(10.0, 1.0, 10).is_err());
        assert!(FrequencyGrid::log_space(1.0, 10.0, 1).is_err());
        assert!(FrequencyGrid::lin_space(5.0, 1.0, 10).is_err());
    }

    #[test]
    fn decimate_keeps_endpoints() {
        let g = FrequencyGrid::log_space(1e3, 1e9, 100).unwrap();
        let d = g.decimate(7);
        assert_eq!(d.freqs_hz()[0], g.freqs_hz()[0]);
        assert_eq!(d.max_hz(), g.max_hz());
        assert!(d.len() < g.len());
    }

    #[test]
    fn iteration() {
        let g = FrequencyGrid::from_hz(vec![1.0, 2.0, 3.0]).unwrap();
        let s: f64 = (&g).into_iter().sum();
        assert_eq!((s).to_bits(), 6.0f64.to_bits());
        assert_eq!(g.iter().count(), 3);
        assert!(!g.is_empty());
    }
}
