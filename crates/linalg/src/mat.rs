//! Dense real (`f64`) matrices stored in row-major order.

use crate::{CMat, Complex64, LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major matrix of `f64` values.
///
/// The type is intentionally simple: it owns a `Vec<f64>` and exposes the
/// operations the macromodeling flow needs (block access, products,
/// transposes, norms). Indexing is via `m[(i, j)]`.
///
/// ```
/// use pim_linalg::Mat;
///
/// let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Mat::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Panel depth of the blocked product kernels: KC rows of the right-hand
/// side are streamed per output row. Shared between [`Mat::matmul_into`] and
/// [`Mat::par_matmul_into`] — the parallel kernel must block `k` identically
/// to stay bit-compatible with the serial one.
const KC: usize = 64;

/// Raw pointer into an output buffer, shared across panel tasks. Safety rests
/// on the panel decomposition: every task writes a disjoint set of columns.
struct PanelPtr(*mut f64);
// SAFETY: a raw `*mut f64` is only non-Send/non-Sync as a lint against
// unsynchronized sharing; `PanelPtr` is constructed exclusively inside
// `Mat::par_matmul_into` from `out.data.as_mut_ptr()`, which stays
// exclusively borrowed for the whole pool scope. The tasks sharing it write
// through disjoint column ranges `[j0, j1)` (see the panel proof at the
// `from_raw_parts_mut` below), never read each other's panels, and the
// scope joins every task before `out` is reborrowed — so cross-thread moves
// (Send) and shared references (Sync) cannot introduce a data race.
unsafe impl Send for PanelPtr {}
// SAFETY: see the Send impl directly above — `&PanelPtr` only ever hands
// tasks a pointer they offset into non-overlapping column panels.
unsafe impl Sync for PanelPtr {}

impl Mat {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)` index.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Mat::zeros(rows, cols);
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
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut m = Mat::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "inconsistent row length in from_rows");
            for (j, &v) in r.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Mat::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a column vector (`n × 1`) from a slice.
    pub fn col_vector(v: &[f64]) -> Self {
        Mat { rows: v.len(), cols: 1, data: v.to_vec() }
    }

    /// Creates a row vector (`1 × n`) from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Mat { rows: 1, cols: v.len(), data: v.to_vec() }
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
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned `Vec`.
    ///
    /// Prefer [`Mat::col_iter`] in hot paths: it visits the same entries
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        self.col_iter(j).collect()
    }

    /// Strided, allocation-free iterator over column `j` (top to bottom).
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    pub fn col_iter(&self, j: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        assert!(j < self.cols, "column index out of bounds");
        // `get` keeps the zero-row case (empty backing storage) a valid,
        // empty iterator instead of an out-of-range slice panic.
        self.data.get(j..).unwrap_or(&[]).iter().step_by(self.cols).copied()
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    ///
    /// The product is computed by a cache-blocked kernel operating on
    /// contiguous row panels (see [`Mat::matmul_into`]); use the in-place
    /// variant to reuse an output buffer across repeated products.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        let mut out = Mat::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self · rhs` written into a caller-provided output
    /// matrix (overwritten), avoiding the allocation of [`Mat::matmul`].
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
    pub fn matmul_into(&self, rhs: &Mat, out: &mut Mat) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Mat::matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(LinalgError::DimensionMismatch {
                context: "Mat::matmul_into output",
                left: (self.rows, rhs.cols),
                right: out.shape(),
            });
        }
        out.data.fill(0.0);
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
                    // audit:allow(float-eq): exact-zero multiplier skips a no-op AXPY; preserves bit-identical sums
                    if aik == 0.0 {
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

    /// Opt-in parallel variant of [`Mat::matmul_into`]: the blocked kernel is
    /// split over contiguous **column panels** of `rhs`/`out`, one
    /// work-stealing task per panel on the given pool.
    ///
    /// Restricting a panel to columns `[j0, j1)` leaves every output entry's
    /// accumulation chain untouched (the `k`-blocking is identical and the
    /// inner axpy visits the same `(k, j)` pairs in the same order), so the
    /// result is **bit-identical** to the serial [`Mat::matmul_into`] for
    /// every thread count — the parallel-vs-serial proptest suite pins this.
    /// On a serial pool (or when the output is too narrow to split) this
    /// delegates to the serial kernel.
    ///
    /// # Errors
    ///
    /// See [`Mat::matmul_into`].
    pub fn par_matmul_into(
        &self,
        rhs: &Mat,
        out: &mut Mat,
        pool: &pim_runtime::ThreadPool,
    ) -> Result<()> {
        let (k_dim, n) = rhs.shape();
        // Panels narrower than 16 columns don't amortize the task overhead.
        let panel_w = n.div_ceil(pool.threads() * 2).max(16);
        let panels = n.div_ceil(panel_w.max(1)).max(1);
        if pool.is_serial() || panels <= 1 {
            return self.matmul_into(rhs, out);
        }
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Mat::matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, n) {
            return Err(LinalgError::DimensionMismatch {
                context: "Mat::matmul_into output",
                left: (self.rows, n),
                right: out.shape(),
            });
        }
        out.data.fill(0.0);
        if k_dim == 0 || self.rows == 0 {
            return Ok(());
        }
        let base = PanelPtr(out.data.as_mut_ptr());
        pool.scope(|s| {
            for p in 0..panels {
                let j0 = p * panel_w;
                let j1 = ((p + 1) * panel_w).min(n);
                let base = &base;
                s.spawn(move || {
                    let width = j1 - j0;
                    for kb in (0..k_dim).step_by(KC) {
                        let k_end = (kb + KC).min(k_dim);
                        for (i, a_row) in self.data.chunks_exact(self.cols).enumerate() {
                            // SAFETY: disjointness + in-bounds proof.
                            // `out` is row-major `rows × n`, so row `i` spans
                            // `data[i*n .. (i+1)*n]`; this slice is its
                            // sub-range `[i*n + j0, i*n + j1)` with
                            // `width = j1 - j0 ≤ n - j0`, hence in bounds of
                            // the allocation `base` points to. Panel `p`
                            // owns columns `[p*panel_w, min((p+1)*panel_w, n))`:
                            // the half-open intervals for distinct `p` are
                            // pairwise disjoint, so for any two tasks and any
                            // rows `i`, `i'`, the index sets
                            // `{i*n + j0 .. i*n + j1}` never intersect across
                            // tasks. The mutable slices alias nothing: `out`
                            // stays exclusively borrowed for the whole
                            // `pool.scope`, which joins every task before
                            // returning, and within one task the slice is
                            // dropped before the next row's is formed.
                            let out_row = unsafe {
                                std::slice::from_raw_parts_mut(base.0.add(i * n + j0), width)
                            };
                            for (k, &aik) in a_row[kb..k_end].iter().enumerate() {
                                // audit:allow(float-eq): same exact-zero AXPY skip as the serial kernel, for bit parity
                                if aik == 0.0 {
                                    continue;
                                }
                                let b_row = &rhs.data[(kb + k) * n + j0..(kb + k) * n + j1];
                                for (o, &b) in out_row.iter_mut().zip(b_row) {
                                    *o += aik * b;
                                }
                            }
                        }
                    }
                });
            }
        });
        Ok(())
    }

    /// Reference (naive triple-loop) product used as the oracle for the
    /// blocked kernel in tests.
    #[cfg(test)]
    pub(crate) fn matmul_naive(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                context: "Mat::matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Mat::zeros(self.rows, rhs.cols);
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
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "Mat::matvec",
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols.max(1))) {
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        Ok(out)
    }

    /// Scales every entry by `k`, returning a new matrix.
    pub fn scaled(&self, k: f64) -> Mat {
        let mut out = self.clone();
        out.scale_in_place(k);
        out
    }

    /// Scales every entry by `k` in place (no allocation).
    pub fn scale_in_place(&mut self, k: f64) {
        for v in &mut self.data {
            *v *= k;
        }
    }

    /// Sum of diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
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
    pub fn block(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> Mat {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols, "block out of bounds");
        Mat::from_fn(nrows, ncols, |i, j| self[(row + i, col + j)])
    }

    /// Writes `block` into this matrix with top-left corner `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Mat) {
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

    /// Converts into a complex matrix with zero imaginary part.
    pub fn to_complex(&self) -> CMat {
        CMat::from_fn(self.rows, self.cols, |i, j| Complex64::from_real(self[(i, j)]))
    }

    /// Maximum absolute difference with another matrix of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff shape mismatch");
        self.data.iter().zip(other.data.iter()).fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
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

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "Mat add shape mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o += r;
        }
        out
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "Mat sub shape mismatch");
        let mut out = self.clone();
        for (o, r) in out.data.iter_mut().zip(rhs.data.iter()) {
            *o -= r;
        }
        out
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        self.scaled(-1.0)
    }
}

impl AddAssign<&Mat> for Mat {
    fn add_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "Mat add_assign shape mismatch");
        for (o, r) in self.data.iter_mut().zip(rhs.data.iter()) {
            *o += r;
        }
    }
}

impl SubAssign<&Mat> for Mat {
    fn sub_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "Mat sub_assign shape mismatch");
        for (o, r) in self.data.iter_mut().zip(rhs.data.iter()) {
            *o -= r;
        }
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, k: f64) -> Mat {
        self.scaled(k)
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows.min(10) {
            let row: Vec<String> =
                (0..self.cols.min(10)).map(|j| format!("{:>12.5e}", self[(i, j)])).collect();
            writeln!(f, "  [{}]", row.join(", "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn par_matmul_into_is_bit_identical_to_serial() {
        for threads in [1usize, 2, 8] {
            let pool = pim_runtime::ThreadPool::new(threads);
            // Sizes around the KC=64 depth and the 16-column panel floor.
            for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (17, 64, 40), (10, 65, 130), (33, 200, 70)] {
                let a = Mat::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
                let b = Mat::from_fn(k, n, |i, j| ((i * 7 + j * 29) % 11) as f64 - 5.0);
                let mut serial = Mat::zeros(m, n);
                a.matmul_into(&b, &mut serial).unwrap();
                let mut parallel = Mat::filled(m, n, 42.0);
                a.par_matmul_into(&b, &mut parallel, &pool).unwrap();
                for (x, y) in serial.as_slice().iter().zip(parallel.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} threads={threads}");
                }
            }
            // Shape validation matches the serial kernel on both paths.
            let a = Mat::zeros(2, 3);
            let mut narrow = Mat::zeros(2, 2);
            assert!(a.par_matmul_into(&Mat::zeros(4, 2), &mut narrow, &pool).is_err());
            assert!(a.par_matmul_into(&Mat::zeros(3, 120), &mut narrow, &pool).is_err());
            let mut wide = Mat::zeros(2, 120);
            a.par_matmul_into(&Mat::zeros(3, 120), &mut wide, &pool).unwrap();
            assert_eq!((wide.max_abs()).to_bits(), 0.0f64.to_bits());
        }
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
        let e = &a * 3.0;
        assert_eq!((e[(1, 1)]).to_bits(), 3.0f64.to_bits());
        let mut f = a.clone();
        f += &b;
        f -= &b;
        assert!(f.max_abs_diff(&a) < 1e-15);
        assert_eq!(((-&a)[(0, 0)]).to_bits(), (-1.0f64).to_bits());
    }

    #[test]
    fn display_does_not_panic() {
        let a = Mat::identity(3);
        let s = format!("{a}");
        assert!(s.contains("Mat 3x3"));
    }
}
