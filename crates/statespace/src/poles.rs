//! The real-block structure of a common-pole list.
//!
//! Every model of the flow stores its poles conjugate-symmetric, pairs
//! adjacent with the positive-imaginary member first. A real pole is one
//! real state; a pair `σ ± jω` is the 2×2 real block of
//! [`crate::StateSpace::from_real_coefficients`], and its two real
//! coefficients (or least-squares basis functions) sit at the pair's two
//! indices.

use crate::{Result, StateSpaceError};
use pim_linalg::Complex64;

/// One block of a conjugate-symmetric pole list: `Real(index)` or
/// `Pair(index_of_upper_member)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoleBlock {
    /// A single real pole at the given index of the pole list.
    Real(usize),
    /// A complex-conjugate pair occupying indices `i` and `i + 1`.
    Pair(usize),
}

/// Walks a conjugate-symmetric pole list (pairs adjacent) into its real
/// blocks. A pole is real when `|Im p| ≤ 1e-9·max(|p|, 1)`.
///
/// # Errors
///
/// Returns [`StateSpaceError::InvalidModel`] if a complex pole has no
/// adjacent conjugate partner.
///
/// ```
/// use pim_linalg::Complex64;
/// use pim_statespace::{pole_blocks, PoleBlock};
///
/// # fn main() -> Result<(), pim_statespace::StateSpaceError> {
/// let p = Complex64::new(-1.0, 3.0);
/// let blocks = pole_blocks(&[Complex64::new(-2.0, 0.0), p, p.conj()])?;
/// assert_eq!(blocks, [PoleBlock::Real(0), PoleBlock::Pair(1)]);
/// # Ok(())
/// # }
/// ```
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
                StateSpaceError::InvalidModel(format!("complex pole {p} has no conjugate partner"))
            })?;
            if (q - p.conj()).abs() > 1e-6 * scale {
                return Err(StateSpaceError::InvalidModel(format!(
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
    fn pole_blocks_rejects_malformed_lists() {
        assert!(pole_blocks(&[Complex64::new(-1.0, 2.0)]).is_err());
        assert!(pole_blocks(&[Complex64::new(-1.0, 2.0), Complex64::new(-1.0, 3.0)]).is_err());
    }
}
