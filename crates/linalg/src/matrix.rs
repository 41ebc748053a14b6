//! A minimal row-major dense `f32` matrix.
//!
//! The neural-network crate and the quantizers only need a handful of operations:
//! construction, row access, matrix multiplication (optionally with a transposed
//! right-hand side), element-wise maps and reductions. All heavy operations are
//! parallelised over rows with rayon.

use rayon::prelude::*;

pub use crate::kernel_gemm::dot;
use crate::kernel_gemm::{self, PackedBt};

/// Output rows per pool task of `matmul` / `transpose_matmul`: two register tiles of
/// the backward kernel, which stream the other operand once per tile.
const ROW_BLOCK: usize = 8;

/// Rows of `A` per pool task of `A·Bᵀ`: eight two-row passes of the forward kernel.
const FORWARD_BLOCK: usize = 16;

/// Row-major dense matrix of `f32` values.
///
/// Invariant: `data.len() == rows * cols`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by stacking rows (all rows must have equal length).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "Matrix::from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
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

    /// The underlying flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies row `i` into a new `Vec`.
    pub fn row_to_vec(&self, i: usize) -> Vec<f32> {
        self.row(i).to_vec()
    }

    /// Iterator over row slices.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns a new matrix containing the selected rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Transposes the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Dense matrix multiplication `self * other`, parallelised over blocks of rows of
    /// `self`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions mismatch {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        // a(r, p) = self[r][p]: a row stride of `cols`, a term stride of 1.
        self.accumulate_products((self.cols, 1), other, self.rows)
    }

    /// Computes `self * other^T` without materialising the transpose.
    ///
    /// This is the hot path for linear layers where weights are stored as
    /// `(out_features, in_features)`; a layer that applies one weight many times packs
    /// it once and calls [`Matrix::matmul_packed_bt`].
    pub fn matmul_transpose_b(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b: inner dimensions mismatch {}x{} * ({}x{})^T",
            self.rows, self.cols, other.rows, other.cols
        );
        self.matmul_packed_bt(&PackedBt::new(&other.data, other.rows, other.cols))
    }

    /// `self * Bᵀ` for a `B` packed beforehand, parallelised over blocks of rows of
    /// `self`: the bits of [`Matrix::matmul_transpose_b`].
    ///
    /// # Panics
    /// Panics if `self.cols() != b.cols()`.
    pub fn matmul_packed_bt(&self, b: &PackedBt) -> Matrix {
        let (k, m) = (b.cols(), b.rows());
        assert_eq!(
            self.cols, k,
            "matmul_packed_bt: inner dimensions mismatch {}x{} * ({m}x{k})^T",
            self.rows, self.cols
        );
        let mut out = Matrix::zeros(self.rows, m);
        if m == 0 {
            return out;
        }
        out.data
            .par_chunks_mut(m * FORWARD_BLOCK)
            .enumerate()
            .for_each(|(block, out_rows)| {
                let rows = out_rows.len() / m;
                let a = &self.data[block * FORWARD_BLOCK * k..][..rows * k];
                kernel_gemm::abt_packed(a, rows, b, out_rows);
            });
        out
    }

    /// Computes `self^T * other` without materialising the transpose.
    ///
    /// Used by linear-layer backward passes (gradient w.r.t. weights).
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul: row counts mismatch ({}x{})^T * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        // a(r, p) = self[p][r]: output row r is column r of self.
        self.accumulate_products((1, self.cols), other, self.cols)
    }

    /// `rows × other.cols` outputs `Σ_p a(r, p) · other.row(p)` with `a(r, p)` in `self`
    /// at `strides`, blocks of [`ROW_BLOCK`] output rows on the pool.
    fn accumulate_products(&self, strides: (usize, usize), other: &Matrix, rows: usize) -> Matrix {
        let m = other.cols;
        let mut out = Matrix::zeros(rows, m);
        if m == 0 || other.rows == 0 {
            return out;
        }
        out.data
            .par_chunks_mut(m * ROW_BLOCK)
            .enumerate()
            .for_each(|(block, out_rows)| {
                let a = &self.data[block * ROW_BLOCK * strides.0..];
                kernel_gemm::accumulate_rows(a, strides, &other.data, m, out_rows);
            });
        out
    }

    /// Adds a row vector to every row of the matrix (broadcast add), in place.
    pub fn add_row_broadcast(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols, "add_row_broadcast: length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (r, &x) in row.iter_mut().zip(v.iter()) {
                *r += x;
            }
        }
    }

    /// Element-wise addition, in place.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Element-wise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        self.data.iter_mut().for_each(|x| *x = f(*x));
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Sum of every element.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of every element (0.0 for an empty matrix).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column-wise sums (length `cols`).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (s, &x) in sums.iter_mut().zip(row.iter()) {
                *s += x;
            }
        }
        sums
    }

    /// Column-wise means (length `cols`).
    pub fn col_means(&self) -> Vec<f32> {
        let mut sums = self.col_sums();
        let n = self.rows.max(1) as f32;
        for s in &mut sums {
            *s /= n;
        }
        sums
    }

    /// Per-row argmax (ties resolved to the first maximum). Rows with no comparable
    /// maximum — empty or all-NaN — deterministically map to 0 so one poisoned row
    /// cannot abort a whole batch; callers needing to distinguish that case should use
    /// [`crate::topk::argmax`] directly.
    pub fn row_argmax(&self) -> Vec<usize> {
        self.row_iter()
            .map(|r| crate::topk::argmax(r).unwrap_or(0))
            .collect()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_gemm::tests::{same, special};
    use proptest::prelude::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.as_slice().len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.row(0), &[1., 2., 3.]);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_bad_length_panics() {
        let _ = Matrix::from_vec(2, 3, vec![1., 2., 3.]);
    }

    #[test]
    fn from_rows_builds_expected_matrix() {
        let m = Matrix::from_rows(&[vec![1., 2.], vec![3., 4.]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32).collect());
        let expected = a.matmul(&b.transpose());
        let got = a.matmul_transpose_b(&b);
        assert_eq!(expected, got);
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_vec(4, 2, (0..8).map(|x| x as f32).collect());
        let b = Matrix::from_vec(4, 3, (0..12).map(|x| x as f32 * 0.5).collect());
        let expected = a.transpose().matmul(&b);
        let got = a.transpose_matmul(&b);
        for (x, y) in expected.as_slice().iter().zip(got.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    /// `Matrix::matmul` as it was before the output rows were blocked: one output row at
    /// a time, terms in ascending `p`, zero coefficients skipped.
    fn matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for p in 0..a.cols() {
                let av = a[(i, p)];
                if av == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    out[(i, j)] += av * b[(p, j)];
                }
            }
        }
        out
    }

    proptest! {
        /// The blocked backward products against their per-row loops: the same bits, for
        /// row counts on both sides of the block height, with zeros in `a` (so the skip
        /// is exercised — it is visible next to a non-finite `b`) and NaN, ±∞ and ±0.0 in
        /// both operands.
        #[test]
        fn blocked_backward_products_match_their_per_row_loops(
            n in 0usize..=19,
            k in 0usize..=70,
            m in 1usize..=40,
            seed in 0u64..1 << 40,
            zeros in prop::collection::vec(0usize..1 << 20, 0..24),
            specials in prop::collection::vec((0usize..1 << 20, 0u8..5), 0..8),
        ) {
            let mut rng = crate::rng::seeded(seed);
            let mut a = crate::rng::normal_matrix(&mut rng, n, k, 1.0);
            let mut b = crate::rng::normal_matrix(&mut rng, k, m, 1.0);
            for (i, &(at, class)) in specials.iter().enumerate() {
                let target = if i % 2 == 0 { a.as_mut_slice() } else { b.as_mut_slice() };
                if !target.is_empty() {
                    target[at % target.len()] = special(class);
                }
            }
            for &at in &zeros {
                if n * k > 0 {
                    a.as_mut_slice()[at % (n * k)] = 0.0;
                }
            }
            let want = matmul_oracle(&a, &b);
            let got = a.matmul(&b);
            prop_assert_eq!(got.shape(), (n, m));
            for (at, (&w, &g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                prop_assert!(same(w, g), "matmul {n}x{k}*{k}x{m} at {at}: {w:?} vs {g:?}");
            }
            // (k x n)^T * (k x m): the same sums, read down the columns of `at`.
            let at = a.transpose();
            let got = at.transpose_matmul(&b);
            prop_assert_eq!(got.shape(), (n, m));
            for (i, (&w, &g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                prop_assert!(same(w, g), "transpose_matmul ({k}x{n})^T*{k}x{m} at {i}: {w:?} vs {g:?}");
            }
        }
    }

    #[test]
    fn broadcast_add_and_scale() {
        let mut m = Matrix::zeros(2, 3);
        m.add_row_broadcast(&[1., 2., 3.]);
        m.scale(2.0);
        assert_eq!(m.row(0), &[2., 4., 6.]);
        assert_eq!(m.row(1), &[2., 4., 6.]);
    }

    #[test]
    fn col_sums_and_means() {
        let m = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(m.col_sums(), vec![4., 6.]);
        assert_eq!(m.col_means(), vec![2., 3.]);
    }

    #[test]
    fn select_rows_picks_rows_in_order() {
        let m = Matrix::from_vec(3, 2, vec![0., 1., 2., 3., 4., 5.]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[4., 5.]);
        assert_eq!(s.row(1), &[0., 1.]);
    }

    #[test]
    fn row_argmax_ties_take_first() {
        let m = Matrix::from_vec(2, 3, vec![1., 3., 3., 0., 0., 0.]);
        assert_eq!(m.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..13).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..13).map(|x| (x * 2) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }
}
