//! Dense complex matrices stored in row-major order.

use crate::{Complex64, LinalgError, Mat, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major matrix of [`Complex64`] values.
///
/// ```
/// use pim_linalg::{CMat, Complex64};
///
/// let s = CMat::identity(2).scaled(Complex64::new(0.0, 1.0));
/// assert_eq!(s[(0, 0)], Complex64::new(0.0, 1.0));
/// assert_eq!(s.hermitian()[(0, 0)], Complex64::new(0.0, -1.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat { rows, cols, data: vec![Complex64::ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = Complex64::ONE;
        }
        m
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn<F: FnMut(usize, usize) -> Complex64>(
        rows: usize,
        cols: usize,
        mut f: F,
    ) -> Self {
        let mut m = CMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[Complex64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut m = CMat::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "inconsistent row length in from_rows");
            for (j, &v) in r.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[Complex64]) -> Self {
        let mut m = CMat::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a column vector (`n × 1`) from a slice.
    pub fn col_vector(v: &[Complex64]) -> Self {
        CMat { rows: v.len(), cols: 1, data: v.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Read-only access to the underlying row-major storage.
    pub fn as_slice(&self) -> &[Complex64] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [Complex64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[Complex64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable access to two distinct rows at once (used by the Givens
    /// rotation kernels of the Hessenberg/Schur iterations).
    ///
    /// # Panics
    ///
    /// Panics if `i == k` or either index is out of bounds.
    pub fn two_rows_mut(&mut self, i: usize, k: usize) -> (&mut [Complex64], &mut [Complex64]) {
        assert!(i != k && i < self.rows && k < self.rows, "two_rows_mut invalid row pair");
        let cols = self.cols;
        let (lo, hi) = if i < k { (i, k) } else { (k, i) };
        let (head, tail) = self.data.split_at_mut(hi * cols);
        let row_lo = &mut head[lo * cols..(lo + 1) * cols];
        let row_hi = &mut tail[..cols];
        if i < k {
            (row_lo, row_hi)
        } else {
            (row_hi, row_lo)
        }
    }

    /// Returns column `j` as an owned `Vec`.
    ///
    /// Prefer [`CMat::col_iter`] in hot paths: it visits the same entries
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<Complex64> {
        self.col_iter(j).collect()
    }

    /// Strided, allocation-free iterator over column `j` (top to bottom).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col_iter(&self, j: usize) -> impl ExactSizeIterator<Item = Complex64> + '_ {
        assert!(j < self.cols, "column index out of bounds");
        // `get` keeps the zero-row case (empty backing storage) a valid,
        // empty iterator instead of an out-of-range slice panic.
        self.data.get(j..).unwrap_or(&[]).iter().step_by(self.cols).copied()
    }

    /// Transpose (without conjugation).
    pub fn transpose(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Conjugate (Hermitian) transpose.
    pub fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMat {
        CMat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].conj())
    }

    /// Matrix product `self · rhs`.
    ///
    /// Computed by the same cache-blocked `axpy` kernel as
    /// [`Mat::matmul_into`](crate::Mat::matmul_into); use [`CMat::matmul_into`]
    /// to reuse an output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &CMat) -> Result<CMat> {
        let mut out = CMat::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self · rhs` written into a caller-provided output
    /// matrix (overwritten), avoiding the allocation of [`CMat::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the inner dimensions
    /// disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &CMat, out: &mut CMat) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "CMat::matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::DimensionMismatch {
                context: "CMat::matmul_into output",
                left: (self.rows, rhs.cols),
                right: out.shape(),
            });
        }
        out.data.fill(Complex64::ZERO);
        let (k_dim, n) = rhs.shape();
        if n == 0 || k_dim == 0 {
            return Ok(());
        }
        const KC: usize = 32;
        for kb in (0..k_dim).step_by(KC) {
            let k_end = (kb + KC).min(k_dim);
            for (a_row, out_row) in
                self.data.chunks_exact(self.cols).zip(out.data.chunks_exact_mut(n))
            {
                for (k, &aik) in a_row[kb..k_end].iter().enumerate() {
                    if aik == Complex64::ZERO {
                        continue;
                    }
                    let b_row = &rhs.data[(kb + k) * n..(kb + k + 1) * n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += aik * b;
                    }
                }
            }
        }
        Ok(())
    }

    /// Reference (naive triple-loop) product used as the oracle for the
    /// blocked kernel in tests.
    #[cfg(test)]
    pub(crate) fn matmul_naive(&self, rhs: &CMat) -> Result<CMat> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "CMat::matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = CMat::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `v.len() != cols`.
    pub fn matvec(&self, v: &[Complex64]) -> Result<Vec<Complex64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "CMat::matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![Complex64::ZERO; self.rows];
        for i in 0..self.rows {
            let mut acc = Complex64::ZERO;
            for j in 0..self.cols {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
        Ok(out)
    }

    /// Scales every entry by `k`, returning a new matrix.
    pub fn scaled(&self, k: Complex64) -> CMat {
        let mut out = self.clone();
        out.scale_in_place(k);
        out
    }

    /// Scales every entry by `k` in place (no allocation).
    pub fn scale_in_place(&mut self, k: Complex64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Scales every entry by a real factor, returning a new matrix.
    pub fn scaled_real(&self, k: f64) -> CMat {
        self.scaled(Complex64::from_real(k))
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> Complex64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v.abs_sq()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Extracts the block with top-left corner `(row, col)` and size `(nrows, ncols)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block exceeds the matrix bounds.
    pub fn block(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> CMat {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols, "block out of bounds");
        CMat::from_fn(nrows, ncols, |i, j| self[(row + i, col + j)])
    }

    /// Writes `block` into this matrix with top-left corner `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, row: usize, col: usize, block: &CMat) {
        assert!(
            row + block.rows <= self.rows && col + block.cols <= self.cols,
            "set_block out of bounds"
        );
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(row + i, col + j)] = block[(i, j)];
            }
        }
    }

    /// Real part as a real matrix.
    pub fn real(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].re)
    }

    /// Imaginary part as a real matrix.
    pub fn imag(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].im)
    }

    /// Inverse via LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a zero pivot is encountered.
    pub fn inverse(&self) -> Result<CMat> {
        crate::lu::cinverse(self)
    }

    /// Solves `self · X = B` via LU factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::DimensionMismatch`],
    /// or [`LinalgError::Singular`] as appropriate.
    pub fn solve(&self, b: &CMat) -> Result<CMat> {
        crate::lu::csolve(self, b)
    }

    /// Maximum absolute difference with another matrix of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &CMat) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(other.data.iter()).fold(0.0_f64, |m, (a, b)| m.max((*a - *b).abs()))
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = Complex64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &Complex64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut Complex64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "CMat add shape mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o += *r;
        }
        out
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "CMat sub shape mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o -= *r;
        }
        out
    }
}

impl Neg for &CMat {
    type Output = CMat;
    fn neg(self) -> CMat {
        self.scaled_real(-1.0)
    }
}

impl AddAssign<&CMat> for CMat {
    fn add_assign(&mut self, rhs: &CMat) {
        assert_eq!(self.shape(), rhs.shape(), "CMat add_assign shape mismatch");
        for (o, r) in self.data.iter_mut().zip(rhs.data.iter()) {
            *o += *r;
        }
    }
}

impl SubAssign<&CMat> for CMat {
    fn sub_assign(&mut self, rhs: &CMat) {
        assert_eq!(self.shape(), rhs.shape(), "CMat sub_assign shape mismatch");
        for (o, r) in self.data.iter_mut().zip(rhs.data.iter()) {
            *o -= *r;
        }
    }
}

impl Mul<Complex64> for &CMat {
    type Output = CMat;
    fn mul(self, k: Complex64) -> CMat {
        self.scaled(k)
    }
}

impl fmt::Display for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            let row: Vec<String> = (0..self.cols.min(8))
                .map(|j| format!("{:.3e}{:+.3e}i", self[(i, j)].re, self[(i, j)].im))
                .collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn constructors_and_indexing() {
        let a = CMat::from_rows(&[&[c(1.0, 1.0), c(2.0, 0.0)], &[c(0.0, -1.0), c(3.0, 0.5)]]);
        assert_eq!(a.shape(), (2, 2));
        assert_eq!(a[(1, 0)], c(0.0, -1.0));
        assert_eq!(a.col(1), vec![c(2.0, 0.0), c(3.0, 0.5)]);
        let i = CMat::identity(3);
        assert_eq!(i.trace(), c(3.0, 0.0));
        let d = CMat::from_diag(&[c(1.0, 2.0)]);
        assert_eq!(d[(0, 0)], c(1.0, 2.0));
    }

    #[test]
    fn hermitian_transpose_and_conj() {
        let a = CMat::from_rows(&[&[c(1.0, 1.0), c(2.0, -3.0)], &[c(0.0, 4.0), c(5.0, 0.0)]]);
        let h = a.hermitian();
        assert_eq!(h[(0, 1)], c(0.0, -4.0));
        assert_eq!(h[(1, 0)], c(2.0, 3.0));
        assert_eq!(a.transpose()[(0, 1)], c(0.0, 4.0));
        assert_eq!(a.conj()[(0, 0)], c(1.0, -1.0));
    }

    #[test]
    fn matmul_identity_and_products() {
        let a = CMat::from_rows(&[&[c(1.0, 1.0), c(2.0, 0.0)], &[c(0.0, -1.0), c(3.0, 0.5)]]);
        let i = CMat::identity(2);
        assert!(a.matmul(&i).unwrap().max_abs_diff(&a) < 1e-15);
        // (A A^H) must be Hermitian
        let aah = a.matmul(&a.hermitian()).unwrap();
        assert!(aah.max_abs_diff(&aah.hermitian()) < 1e-14);
        assert!(a.matmul(&CMat::zeros(3, 3)).is_err());
    }

    #[test]
    fn blocked_matmul_matches_naive_oracle() {
        for &(m, k, n) in &[(1, 1, 1), (2, 33, 5), (9, 40, 9), (7, 65, 3)] {
            let a = CMat::from_fn(m, k, |i, j| {
                c(((i * 31 + j * 17) % 13) as f64 - 6.0, ((i + 2 * j) % 5) as f64)
            });
            let b = CMat::from_fn(k, n, |i, j| {
                c(((i * 7 + j * 29) % 11) as f64 - 5.0, ((3 * i + j) % 7) as f64 - 3.0)
            });
            let fast = a.matmul(&b).unwrap();
            let slow = a.matmul_naive(&b).unwrap();
            assert!(fast.max_abs_diff(&slow) < 1e-12, "mismatch for {m}x{k}x{n}");
        }
        // Degenerate shapes produce empty results, not a panic.
        let empty = CMat::zeros(2, 3).matmul(&CMat::zeros(3, 0)).unwrap();
        assert_eq!(empty.shape(), (2, 0));
        let zero_k = CMat::zeros(2, 0).matmul(&CMat::zeros(0, 3)).unwrap();
        assert_eq!(zero_k.shape(), (2, 3));
        assert_eq!((zero_k.max_abs()).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn col_iter_two_rows_mut_and_scale_in_place() {
        let a = CMat::from_rows(&[&[c(1.0, 0.0), c(2.0, 1.0)], &[c(3.0, -1.0), c(4.0, 0.0)]]);
        let col: Vec<Complex64> = a.col_iter(1).collect();
        assert_eq!(col, vec![c(2.0, 1.0), c(4.0, 0.0)]);
        assert_eq!(a.row(1), &[c(3.0, -1.0), c(4.0, 0.0)]);
        let mut b = a.clone();
        {
            let (r1, r0) = b.two_rows_mut(1, 0);
            assert_eq!(r0[0], c(1.0, 0.0));
            assert_eq!(r1[0], c(3.0, -1.0));
            r1[0] = c(9.0, 9.0);
        }
        assert_eq!(b[(1, 0)], c(9.0, 9.0));
        let mut s = a.clone();
        s.scale_in_place(c(0.0, 1.0));
        assert!(s.max_abs_diff(&a.scaled(c(0.0, 1.0))) < 1e-15);
        // Zero-row matrices yield empty columns, not a slice panic.
        let empty = CMat::zeros(0, 2);
        assert_eq!(empty.col_iter(1).len(), 0);
        assert!(empty.col(1).is_empty());
    }

    #[test]
    fn matvec_and_scaling() {
        let a = CMat::identity(2).scaled(c(0.0, 2.0));
        let v = a.matvec(&[c(1.0, 0.0), c(0.0, 1.0)]).unwrap();
        assert_eq!(v[0], c(0.0, 2.0));
        assert_eq!(v[1], c(-2.0, 0.0));
        assert!(a.matvec(&[c(1.0, 0.0)]).is_err());
        assert_eq!(a.scaled_real(0.5)[(0, 0)], c(0.0, 1.0));
    }

    #[test]
    fn parts_roundtrip_and_norms() {
        let re = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let im = Mat::from_rows(&[&[-1.0, 0.0], &[0.5, 2.0]]);
        let a = CMat::from_fn(2, 2, |i, j| Complex64::new(re[(i, j)], im[(i, j)]));
        assert!(a.real().max_abs_diff(&re) < 1e-15);
        assert!(a.imag().max_abs_diff(&im) < 1e-15);
        assert!(a.frobenius_norm() > 0.0);
        assert!(a.max_abs() >= 4.0);
    }

    #[test]
    fn blocks_and_elementwise() {
        let a = CMat::identity(3);
        let b = a.block(1, 1, 2, 2);
        assert_eq!(b, CMat::identity(2));
        let mut m = CMat::zeros(3, 3);
        m.set_block(0, 1, &CMat::identity(2));
        assert_eq!(m[(1, 2)], Complex64::ONE);
        let s = &a + &a;
        assert_eq!(s[(0, 0)], c(2.0, 0.0));
        let d = &s - &a;
        assert!(d.max_abs_diff(&a) < 1e-15);
        assert_eq!((-&a)[(2, 2)], c(-1.0, 0.0));
        let mut t = a.clone();
        t += &a;
        t -= &a;
        assert!(t.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn display_does_not_panic() {
        let s = format!("{}", CMat::identity(2));
        assert!(s.contains("CMat 2x2"));
    }
}
