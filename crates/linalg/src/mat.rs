//! Dense matrices stored in row-major order, generic over the scalar field:
//! [`Mat`] holds `f64` entries and [`CMat`] holds [`Complex64`] entries.

use crate::{Complex64, LinalgError, Result};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Sub, SubAssign};

/// The scalar field of a [`Matrix`]: `f64` or [`Complex64`].
///
/// Beyond field arithmetic it carries only what the shared kernels need.
/// Each method is the plain `f64` operation or the [`Complex64`] method of
/// the same name, so a generic body computes exactly what a body written
/// for one field would.
pub trait Scalar:
    Copy
    + PartialEq
    + Sum
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// Modulus `|z|`.
    fn abs(self) -> f64;
    /// Squared modulus `|z|²`.
    fn abs_sq(self) -> f64;
    /// Complex conjugate; the identity on `f64`.
    fn conj(self) -> Self;
    /// Product with a real factor.
    fn scale(self, k: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline]
    fn abs_sq(self) -> f64 {
        self * self
    }
    #[inline]
    fn conj(self) -> f64 {
        self
    }
    #[inline]
    fn scale(self, k: f64) -> f64 {
        self * k
    }
}

impl Scalar for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    const ONE: Complex64 = Complex64::ONE;
    #[inline]
    fn abs(self) -> f64 {
        Complex64::abs(self)
    }
    #[inline]
    fn abs_sq(self) -> f64 {
        Complex64::abs_sq(self)
    }
    #[inline]
    fn conj(self) -> Complex64 {
        Complex64::conj(self)
    }
    #[inline]
    fn scale(self, k: f64) -> Complex64 {
        Complex64::scale(self, k)
    }
}

/// A dense, row-major matrix over the scalar field `T`.
///
/// The type is intentionally simple: it owns a `Vec<T>` and exposes the
/// operations the macromodeling flow needs (block access, products,
/// transposes, norms, LU solves). Indexing is via `m[(i, j)]`. Methods that
/// only one field has live in the `Matrix<f64>` and `Matrix<Complex64>`
/// impl blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

/// A dense, row-major matrix of `f64` values.
///
/// ```
/// use pim_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
pub type Mat = Matrix<f64>;

/// A dense, row-major matrix of [`Complex64`] values.
///
/// ```
/// use pim_linalg::{CMat, Complex64};
///
/// let s = CMat::identity(2).scaled(Complex64::new(0.0, 1.0));
/// assert_eq!(s[(0, 0)], Complex64::new(0.0, 1.0));
/// assert_eq!(s.hermitian()[(0, 0)], Complex64::new(0.0, -1.0));
/// ```
pub type CMat = Matrix<Complex64>;

/// Panel depth of the blocked product kernel [`Matrix::matmul_into`]: KC
/// rows of the right-hand side are streamed per output row. Blocking never
/// reorders the sum behind an output entry (its `k` terms are added in
/// increasing order whatever the panel depth), so one depth serves both
/// scalar fields.
const KC: usize = 64;

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn<F: FnMut(usize, usize) -> T>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Self::zeros(rows, cols);
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
    pub fn from_rows(rows: &[&[T]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut m = Self::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "inconsistent row length in from_rows");
            for (j, &v) in r.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[T]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a column vector (`n × 1`) from a slice.
    pub fn col_vector(v: &[T]) -> Self {
        Matrix { rows: v.len(), cols: 1, data: v.to_vec() }
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
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[T] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable access to two distinct rows at once (used by the Givens
    /// rotation kernels of the Hessenberg/Schur iterations).
    ///
    /// # Panics
    ///
    /// Panics if `i == k` or either index is out of bounds.
    pub fn two_rows_mut(&mut self, i: usize, k: usize) -> (&mut [T], &mut [T]) {
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
    /// Prefer [`Matrix::col_iter`] in hot paths: it visits the same entries
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<T> {
        self.col_iter(j).collect()
    }

    /// Strided, allocation-free iterator over column `j` (top to bottom).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col_iter(&self, j: usize) -> impl ExactSizeIterator<Item = T> + '_ {
        assert!(j < self.cols, "column index out of bounds");
        // `get` keeps the zero-row case (empty backing storage) a valid,
        // empty iterator instead of an out-of-range slice panic.
        self.data.get(j..).unwrap_or(&[]).iter().step_by(self.cols).copied()
    }

    /// Transpose (without conjugation).
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self · rhs`.
    ///
    /// The product is computed by a cache-blocked kernel operating on
    /// contiguous row panels (see [`Matrix::matmul_into`]); use the in-place
    /// variant to reuse an output buffer across repeated products.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Self) -> Result<Self> {
        let mut out = Self::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self · rhs` written into a caller-provided output
    /// matrix (overwritten), avoiding the allocation of [`Matrix::matmul`].
    ///
    /// The kernel walks `self` row by row and accumulates scaled rows of
    /// `rhs` into the output row (an `axpy` formulation: every output entry
    /// has its own accumulator, so the inner loop vectorizes), blocking the
    /// inner dimension so the touched panel of `rhs` stays cache-resident.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the inner dimensions
    /// disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matmul_into output",
                left: (self.rows, rhs.cols),
                right: out.shape(),
            });
        }
        out.data.fill(T::ZERO);
        let (k_dim, n) = rhs.shape();
        if n == 0 || k_dim == 0 {
            return Ok(());
        }
        // Panel sizes: KC rows of `rhs` (the k-panel) are streamed per output
        // row; blocking k keeps that panel in L1/L2 while every output row
        // revisits it.
        for kb in (0..k_dim).step_by(KC) {
            let k_end = (kb + KC).min(k_dim);
            for (a_row, out_row) in
                self.data.chunks_exact(self.cols).zip(out.data.chunks_exact_mut(n))
            {
                for (k, &aik) in a_row[kb..k_end].iter().enumerate() {
                    // An exact-zero multiplier adds nothing: skip its AXPY.
                    if aik == T::ZERO {
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
    pub(crate) fn matmul_naive(&self, rhs: &Self) -> Result<Self> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
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
    pub fn matvec(&self, v: &[T]) -> Result<Vec<T>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Matrix::matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![T::ZERO; self.rows];
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols.max(1))) {
            *o = row.iter().zip(v).map(|(&a, &b)| a * b).sum();
        }
        Ok(out)
    }

    /// Scales every entry by `k`, returning a new matrix.
    pub fn scaled(&self, k: T) -> Self {
        let mut out = self.clone();
        out.scale_in_place(k);
        out
    }

    /// Scales every entry by `k` in place (no allocation).
    pub fn scale_in_place(&mut self, k: T) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> T {
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
    pub fn block(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> Self {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols, "block out of bounds");
        Self::from_fn(nrows, ncols, |i, j| self[(row + i, col + j)])
    }

    /// Writes `block` into this matrix with top-left corner `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Self) {
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

    /// Inverse via LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a zero pivot is encountered.
    pub fn inverse(&self) -> Result<Self> {
        crate::lu::Lu::new(self)?.inverse()
    }

    /// Solves `self · X = B` via LU factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::DimensionMismatch`],
    /// or [`LinalgError::Singular`] as appropriate.
    pub fn solve(&self, b: &Self) -> Result<Self> {
        crate::lu::Lu::new(self)?.solve(b)
    }

    /// Maximum absolute difference with another matrix of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(other.data.iter()).fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

impl Matrix<f64> {
    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates a row vector (`1 × n`) from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    /// Converts into a complex matrix with zero imaginary part.
    pub fn to_complex(&self) -> CMat {
        CMat::from_fn(self.rows, self.cols, |i, j| Complex64::from_real(self[(i, j)]))
    }

    /// Returns `true` if the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Matrix<Complex64> {
    /// Conjugate (Hermitian) transpose.
    pub fn hermitian(&self) -> CMat {
        CMat::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise complex conjugate.
    pub fn conj(&self) -> CMat {
        CMat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].conj())
    }

    /// Scales every entry by a real factor, returning a new matrix.
    pub fn scaled_real(&self, k: f64) -> CMat {
        self.scaled(Complex64::from_real(k))
    }

    /// Real part as a real matrix.
    pub fn real(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].re)
    }

    /// Imaginary part as a real matrix.
    pub fn imag(&self) -> Mat {
        Mat::from_fn(self.rows, self.cols, |i, j| self[(i, j)].im)
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl<T: Scalar> Add for &Matrix<T> {
    type Output = Matrix<T>;
    fn add(self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl<T: Scalar> Sub for &Matrix<T> {
    type Output = Matrix<T>;
    fn sub(self, rhs: &Matrix<T>) -> Matrix<T> {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl<T: Scalar> AddAssign<&Matrix<T>> for Matrix<T> {
    fn add_assign(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "Matrix add shape mismatch");
        for (o, &r) in self.data.iter_mut().zip(rhs.data.iter()) {
            *o += r;
        }
    }
}

impl<T: Scalar> SubAssign<&Matrix<T>> for Matrix<T> {
    fn sub_assign(&mut self, rhs: &Matrix<T>) {
        assert_eq!(self.shape(), rhs.shape(), "Matrix sub shape mismatch");
        for (o, &r) in self.data.iter_mut().zip(rhs.data.iter()) {
            *o -= r;
        }
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
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.shape(), (2, 3));
        assert_eq!((a[(1, 2)]).to_bits(), 6.0f64.to_bits());
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.col(1), vec![2.0, 5.0]);
        let d = Mat::from_diag(&[1.0, 2.0]);
        assert_eq!((d[(1, 1)]).to_bits(), 2.0f64.to_bits());
        assert_eq!((d[(0, 1)]).to_bits(), 0.0f64.to_bits());
        assert_eq!((Mat::identity(3).trace()).to_bits(), 3.0f64.to_bits());
    }

    #[test]
    fn complex_constructors_and_indexing() {
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
    fn matmul_and_matvec() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[2.0, 1.0], &[4.0, 3.0]]));
        let v = a.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(v, vec![3.0, 7.0]);
        assert!(a.matmul(&Mat::zeros(3, 3)).is_err());
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn blocked_matmul_matches_naive_oracle() {
        // Exercise sizes around the KC=64 panel boundary plus odd shapes.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 64, 9), (10, 65, 130), (33, 200, 7)] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
            let b = Mat::from_fn(k, n, |i, j| ((i * 7 + j * 29) % 11) as f64 - 5.0);
            let fast = a.matmul(&b).unwrap();
            let slow = a.matmul_naive(&b).unwrap();
            assert!(fast.max_abs_diff(&slow) < 1e-12, "mismatch for {m}x{k}x{n}");
        }
    }

    #[test]
    fn complex_blocked_matmul_matches_naive_oracle() {
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
    fn matmul_into_reuses_buffer_and_validates_shape() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::identity(2);
        let mut out = Mat::filled(2, 2, 99.0);
        a.matmul_into(&b, &mut out).unwrap();
        assert!(out.max_abs_diff(&a) < 1e-15);
        let mut wrong = Mat::zeros(3, 2);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
        // Degenerate shapes produce empty results, not a panic.
        let empty = Mat::zeros(2, 3).matmul(&Mat::zeros(3, 0)).unwrap();
        assert_eq!(empty.shape(), (2, 0));
        let zero_k = Mat::zeros(2, 0).matmul(&Mat::zeros(0, 3)).unwrap();
        assert_eq!(zero_k.shape(), (2, 3));
        assert_eq!((zero_k.max_abs()).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn col_iter_and_scale_in_place() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let col: Vec<f64> = a.col_iter(2).collect();
        assert_eq!(col, vec![3.0, 6.0]);
        assert_eq!(a.col_iter(0).len(), 2);
        let mut b = a.clone();
        b.scale_in_place(2.0);
        assert!(b.max_abs_diff(&a.scaled(2.0)) < 1e-15);
        // Zero-row matrices yield empty columns, not a slice panic.
        let empty = Mat::zeros(0, 3);
        assert_eq!(empty.col_iter(2).len(), 0);
        assert!(empty.col(1).is_empty());
    }

    #[test]
    fn transpose_blocks_stacking() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!((t[(2, 1)]).to_bits(), 6.0f64.to_bits());
        let b = a.block(0, 1, 2, 2);
        assert_eq!(b, Mat::from_rows(&[&[2.0, 3.0], &[5.0, 6.0]]));
        // Stacking [a | a] with set_block.
        let mut h = Mat::zeros(2, 6);
        h.set_block(0, 0, &a);
        h.set_block(0, 3, &a);
        assert_eq!(h.block(0, 3, 2, 3), a);
        assert_eq!((h[(1, 5)]).to_bits(), 6.0f64.to_bits());
    }

    #[test]
    fn norms_and_symmetry() {
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!((a.max_abs()).to_bits(), 4.0f64.to_bits());
        assert!(a.is_symmetric(0.0));
        let b = Mat::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]);
        assert!(!b.is_symmetric(1e-12));
    }

    #[test]
    fn elementwise_ops() {
        let a = Mat::identity(2);
        let b = Mat::filled(2, 2, 2.0);
        let c = &a + &b;
        assert_eq!((c[(0, 0)]).to_bits(), 3.0f64.to_bits());
        let d = &c - &b;
        assert!(d.max_abs_diff(&a) < 1e-15);
        let e = a.scaled(3.0);
        assert_eq!((e[(1, 1)]).to_bits(), 3.0f64.to_bits());
        let mut f = a.clone();
        f += &b;
        f -= &b;
        assert!(f.max_abs_diff(&a) < 1e-15);
        assert_eq!((a.scaled(-1.0)[(0, 0)]).to_bits(), (-1.0f64).to_bits());
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
        assert_eq!(a.scaled_real(-1.0)[(2, 2)], c(-1.0, 0.0));
        let mut t = a.clone();
        t += &a;
        t -= &a;
        assert!(t.max_abs_diff(&a) < 1e-15);
    }
}
