//! A small row-major `f32` matrix, sized for attention heads.

use crate::AttentionError;

/// A dense row-major matrix of `f32` values.
///
/// Sized for single attention heads (`s × d` with `s ≤ 4096`, `d = 64`
/// in the paper), so it favours simplicity over BLAS-grade performance.
///
/// # Example
///
/// ```
/// use sprint_attention::Matrix;
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.get(1, 0), 3.0);
/// let t = m.transposed();
/// assert_eq!(t.get(0, 1), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidDimension`] if either dimension
    /// is zero.
    pub fn zeros(rows: usize, cols: usize) -> Result<Self, AttentionError> {
        if rows == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "rows",
                value: rows,
            });
        }
        if cols == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "cols",
                value: cols,
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        })
    }

    /// Creates a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::EmptyInput`] for an empty slice and
    /// [`AttentionError::RaggedRows`] if rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, AttentionError> {
        let first = rows.first().ok_or(AttentionError::EmptyInput("rows"))?;
        let cols = first.len();
        if cols == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "cols",
                value: 0,
            });
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(AttentionError::RaggedRows {
                    expected: cols,
                    row: i,
                    found: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] if `data.len() != rows * cols`,
    /// or [`AttentionError::InvalidDimension`] for zero dimensions.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, AttentionError> {
        if rows == 0 || cols == 0 {
            return Err(AttentionError::InvalidDimension {
                name: if rows == 0 { "rows" } else { "cols" },
                value: 0,
            });
        }
        if data.len() != rows * cols {
            return Err(AttentionError::ShapeMismatch {
                op: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns the `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a mutable slice of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns column `c` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f32> {
        self.col_iter(c).collect()
    }

    /// Iterates over column `c` as a strided walk of the row-major
    /// buffer (one bounds check up front instead of one per element).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(c < self.cols, "column {c} out of bounds");
        self.data[c..].iter().step_by(self.cols).copied()
    }

    /// Returns the whole backing buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the matrix, returning its backing buffer (row-major).
    /// Pairs with [`crate::Workspace::recycle`] for buffer reuse.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Appends one row, growing the matrix in place (the row-major
    /// layout makes this a pure buffer extension — no element moves).
    /// This is the append-only growth path of the decode KV history.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] unless
    /// `row.len() == cols`.
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_attention::Matrix;
    ///
    /// # fn main() -> Result<(), sprint_attention::AttentionError> {
    /// let mut m = Matrix::from_rows(&[vec![1.0, 2.0]])?;
    /// m.push_row(&[3.0, 4.0])?;
    /// assert_eq!(m.shape(), (2, 2));
    /// assert_eq!(m.row(1), &[3.0, 4.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn push_row(&mut self, row: &[f32]) -> Result<(), AttentionError> {
        if row.len() != self.cols {
            return Err(AttentionError::ShapeMismatch {
                op: "push_row",
                left: (1, row.len()),
                right: (1, self.cols),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// An owned copy of the first `n` rows — the inverse of growing a
    /// matrix with [`Matrix::push_row`]. Decode callers use this to
    /// carve a prefill (or a full-prefix oracle history) out of a
    /// longer token stream.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidDimension`] for `n == 0` or
    /// `n > rows`.
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_attention::Matrix;
    ///
    /// # fn main() -> Result<(), sprint_attention::AttentionError> {
    /// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
    /// let p = m.prefix_rows(1)?;
    /// assert_eq!(p.shape(), (1, 2));
    /// assert_eq!(p.row(0), &[1.0, 2.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn prefix_rows(&self, n: usize) -> Result<Matrix, AttentionError> {
        if n == 0 || n > self.rows {
            return Err(AttentionError::InvalidDimension {
                name: "prefix rows",
                value: n,
            });
        }
        Matrix::from_vec(n, self.cols, self.data[..n * self.cols].to_vec())
    }

    /// Returns the transposed matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix {
            rows: self.cols,
            cols: self.rows,
            data: vec![0.0; self.data.len()],
        };
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] unless
    /// `self.cols() == rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, AttentionError> {
        if self.cols != rhs.rows {
            return Err(AttentionError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix {
            rows: self.rows,
            cols: rhs.cols,
            data: vec![0.0; self.rows * rhs.cols],
        };
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[r * rhs.cols..(r + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product against a transposed right-hand side:
    /// `self × rhsᵀ`, i.e. `out[i][j] = self.row(i) · rhs.row(j)`.
    ///
    /// Both operands are walked along their row-major rows — no
    /// materialized transpose — and the loop nest is tiled so a small
    /// block of `rhs` rows stays cache-hot across a block of `self`
    /// rows. This is the score kernel `Q × Kᵀ` of the attention path.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] unless
    /// `self.cols() == rhs.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_attention::Matrix;
    ///
    /// # fn main() -> Result<(), sprint_attention::AttentionError> {
    /// let a = Matrix::from_rows(&[vec![1.0, 2.0]])?;
    /// let b = Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]])?;
    /// let c = a.matmul_transposed(&b)?;
    /// assert_eq!(c.shape(), (1, 2));
    /// assert_eq!(c.get(0, 0), 11.0); // 1*3 + 2*4
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul_transposed(&self, rhs: &Matrix) -> Result<Matrix, AttentionError> {
        if self.cols != rhs.cols {
            return Err(AttentionError::ShapeMismatch {
                op: "matmul_transposed",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.rows)?;
        crate::simd::matmul_transposed_scaled_into(
            crate::simd::active_tier(),
            self,
            rhs,
            1.0,
            0..self.rows,
            0..rhs.rows,
            &mut out,
        );
        Ok(out)
    }

    /// Applies `f` to every element, returning a new matrix.
    #[must_use]
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Maximum absolute value over all elements (0.0 for all-zero data).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// Scalar-tier body of the region matmul: writes
/// `out[i][j] = scale * (a.row(i) · b.row(j))` for every `i` in `rows`
/// and `j` in `cols`, leaving the rest of `out` untouched (the pruned
/// path computes only the live region and masks the remainder). Tiered
/// callers go through [`crate::simd::matmul_transposed_scaled_into`],
/// which falls back to this function on the scalar tier.
///
/// Works directly on the row-major buffers with a four-lane inner loop
/// — the same reduction order as [`dot`], but with the row slices
/// hoisted so the bounds checks sit outside the MAC loop and the lanes
/// vectorize. `a`'s current row stays register/L1-hot while `b` streams
/// row-major (the cache-friendly `Q × Kᵀ` walk; `b` itself fits L2 at
/// every sequence length this repo models).
pub(crate) fn mt_scalar_into(
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    out: &mut Matrix,
) {
    debug_assert_eq!(a.cols, b.cols, "inner dimensions must agree");
    debug_assert!(rows.end <= a.rows && rows.end <= out.rows);
    debug_assert!(cols.end <= b.rows && cols.end <= out.cols);
    // Monomorphize the hot embedding sizes: a compile-time inner
    // dimension lets the MAC loop fully unroll and drop its bounds
    // checks (~3x on d = 64, the head size of every studied model).
    match a.cols {
        32 => mt_fixed::<32>(a, b, scale, rows, cols, out),
        64 => mt_fixed::<64>(a, b, scale, rows, cols, out),
        128 => mt_fixed::<128>(a, b, scale, rows, cols, out),
        _ => mt_generic(a, b, scale, rows, cols, out),
    }
}

/// [`mt_scalar_into`] body for a compile-time inner
/// dimension, register-blocked two query rows at a time: each `b` row
/// is loaded once per row *pair*, and the eight live lane accumulators
/// keep the FP pipelines full (~2x over the single-row walk). The
/// per-row reduction order is identical in the paired and single-row
/// tails, so results do not depend on row parity.
fn mt_fixed<const D: usize>(
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    out: &mut Matrix,
) {
    let out_cols = out.cols;
    let mut i = rows.start;
    while i + 2 <= rows.end {
        let a0: &[f32; D] = a.data[i * D..(i + 1) * D].try_into().expect("row of D");
        let a1: &[f32; D] = a.data[(i + 1) * D..(i + 2) * D]
            .try_into()
            .expect("row of D");
        let (o0, o1) = out.data[i * out_cols..(i + 2) * out_cols].split_at_mut(out_cols);
        for j in cols.clone() {
            let b_row: &[f32; D] = b.data[j * D..(j + 1) * D].try_into().expect("row of D");
            let mut l0 = [0.0f32; 4];
            let mut l1 = [0.0f32; 4];
            let mut c = 0;
            while c + 4 <= D {
                for t in 0..4 {
                    l0[t] += a0[c + t] * b_row[c + t];
                    l1[t] += a1[c + t] * b_row[c + t];
                }
                c += 4;
            }
            while c < D {
                l0[0] += a0[c] * b_row[c];
                l1[0] += a1[c] * b_row[c];
                c += 1;
            }
            o0[j] = scale * ((l0[0] + l0[1]) + (l0[2] + l0[3]));
            o1[j] = scale * ((l1[0] + l1[1]) + (l1[2] + l1[3]));
        }
        i += 2;
    }
    if i < rows.end {
        let a_row: &[f32; D] = a.data[i * D..(i + 1) * D].try_into().expect("row of D");
        let out_row = &mut out.data[i * out_cols..(i + 1) * out_cols];
        for j in cols.clone() {
            let b_row: &[f32; D] = b.data[j * D..(j + 1) * D].try_into().expect("row of D");
            let mut lanes = [0.0f32; 4];
            let mut c = 0;
            while c + 4 <= D {
                for t in 0..4 {
                    lanes[t] += a_row[c + t] * b_row[c + t];
                }
                c += 4;
            }
            while c < D {
                lanes[0] += a_row[c] * b_row[c];
                c += 1;
            }
            out_row[j] = scale * ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
        }
    }
}

/// [`mt_scalar_into`] body for arbitrary inner
/// dimensions. Same four-lane reduction order as [`dot`].
fn mt_generic(
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    rows: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    out: &mut Matrix,
) {
    let d = a.cols;
    let out_cols = out.cols;
    for i in rows {
        let a_row = &a.data[i * d..(i + 1) * d];
        let out_row = &mut out.data[i * out_cols..(i + 1) * out_cols];
        for j in cols.clone() {
            let b_row = &b.data[j * d..(j + 1) * d];
            out_row[j] = scale * dot(a_row, b_row);
        }
    }
}

/// Dot product of two equal-length slices, unrolled four wide so the
/// independent accumulators keep the FP pipeline full.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    let mut lanes = [0.0f32; 4];
    let mut chunks_a = a.chunks_exact(4);
    let mut chunks_b = b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        lanes[0] += ca[0] * cb[0];
        lanes[1] += ca[1] * cb[1];
        lanes[2] += ca[2] * cb[2];
        lanes[3] += ca[3] * cb[3];
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        lanes[0] += x * y;
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_has_requested_shape() {
        let m = Matrix::zeros(3, 5).unwrap();
        assert_eq!(m.shape(), (3, 5));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        assert!(Matrix::zeros(0, 3).is_err());
        assert!(Matrix::zeros(3, 0).is_err());
        assert!(Matrix::from_vec(2, 0, vec![]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, AttentionError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.transposed().get(2, 1), 6.0);
    }

    #[test]
    fn matmul_identity() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let id = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]).unwrap();
        assert_eq!(m.matmul(&id).unwrap(), m);
        assert_eq!(id.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3).unwrap();
        let b = Matrix::zeros(2, 3).unwrap();
        assert!(matches!(
            a.matmul(&b).unwrap_err(),
            AttentionError::ShapeMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.5, -1.0, 2.0],
            vec![3.0, 3.0, 3.0],
            vec![-1.0, 0.0, 0.0],
        ])
        .unwrap();
        let fused = a.matmul_transposed(&b).unwrap();
        let reference = a.matmul(&b.transposed()).unwrap();
        assert_eq!(fused.shape(), (2, 4));
        for r in 0..2 {
            for c in 0..4 {
                assert!((fused.get(r, c) - reference.get(r, c)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn matmul_transposed_rejects_mismatched_inner() {
        let a = Matrix::zeros(2, 3).unwrap();
        let b = Matrix::zeros(2, 4).unwrap();
        assert!(matches!(
            a.matmul_transposed(&b).unwrap_err(),
            AttentionError::ShapeMismatch {
                op: "matmul_transposed",
                ..
            }
        ));
    }

    #[test]
    fn matmul_transposed_partial_region_leaves_rest_untouched() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let b = a.clone();
        let mut out = Matrix::zeros(3, 3).unwrap();
        mt_scalar_into(&a, &b, 0.5, 0..2, 0..2, &mut out);
        assert!((out.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((out.get(1, 1) - 4.0).abs() < 1e-6);
        assert_eq!(out.get(2, 2), 0.0, "outside the region stays zero");
        assert_eq!(out.get(0, 2), 0.0);
    }

    #[test]
    fn col_iter_strides_the_buffer() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![2.0, 4.0, 6.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f32> = (0..7).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..7).map(|i| (i + 1) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0]]).unwrap();
        let n = m.map(f32::abs);
        assert_eq!(n.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn max_abs_finds_extreme() {
        let m = Matrix::from_rows(&[vec![1.0, -7.5, 3.0]]).unwrap();
        assert_eq!(m.max_abs(), 7.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2).unwrap();
        let _ = m.get(2, 0);
    }

    proptest! {
        #[test]
        fn prop_matmul_against_naive(
            a_rows in 1usize..5, inner in 1usize..5, b_cols in 1usize..5,
            seed in 0u64..1000
        ) {
            // Deterministic pseudo-random fill from the seed.
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                x ^= x >> 33;
                x = x.wrapping_mul(0xff51afd7ed558ccd);
                ((x >> 40) as f32 / 16777216.0) - 0.5
            };
            let a = Matrix::from_vec(a_rows, inner, (0..a_rows*inner).map(|_| next()).collect()).unwrap();
            let b = Matrix::from_vec(inner, b_cols, (0..inner*b_cols).map(|_| next()).collect()).unwrap();
            let c = a.matmul(&b).unwrap();
            for r in 0..a_rows {
                for cc in 0..b_cols {
                    let naive: f32 = (0..inner).map(|k| a.get(r, k) * b.get(k, cc)).sum();
                    prop_assert!((c.get(r, cc) - naive).abs() < 1e-4);
                }
            }
        }

        #[test]
        fn prop_matmul_transposed_against_naive(
            a_rows in 1usize..12, inner in 1usize..12, b_rows in 1usize..12,
            seed in 0u64..1000
        ) {
            let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(99);
            let mut next = || {
                x ^= x >> 33;
                x = x.wrapping_mul(0xff51afd7ed558ccd);
                ((x >> 40) as f32 / 16777216.0) - 0.5
            };
            let a = Matrix::from_vec(a_rows, inner, (0..a_rows*inner).map(|_| next()).collect()).unwrap();
            let b = Matrix::from_vec(b_rows, inner, (0..b_rows*inner).map(|_| next()).collect()).unwrap();
            let c = a.matmul_transposed(&b).unwrap();
            for r in 0..a_rows {
                for cc in 0..b_rows {
                    let naive: f32 = (0..inner).map(|k| a.get(r, k) * b.get(cc, k)).sum();
                    prop_assert!((c.get(r, cc) - naive).abs() < 1e-4);
                }
            }
        }

        #[test]
        fn prop_transpose_preserves_elements(rows in 1usize..6, cols in 1usize..6) {
            let data: Vec<f32> = (0..rows*cols).map(|i| i as f32).collect();
            let m = Matrix::from_vec(rows, cols, data).unwrap();
            let t = m.transposed();
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert_eq!(m.get(r, c), t.get(c, r));
                }
            }
        }
    }
}
