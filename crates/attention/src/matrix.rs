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

    /// The whole backing buffer in row-major order, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
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

    /// Matrix product `self × rhs`: each output row accumulates
    /// `self[r][k] · rhs.row(k)` in ascending `k`, one fused
    /// multiply-add per element, skipping zero coefficients — the AV
    /// stage's chain, so the naive reference kernels that call this stay
    /// bit-exact oracles of the fused ones.
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
                    *o = a.mul_add(b, *o);
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
            out.as_mut_slice(),
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

    /// Maximum absolute value over all elements (0.0 for all-zero data;
    /// NaN entries are ignored).
    pub fn max_abs(&self) -> f32 {
        max_abs(&self.data)
    }
}

/// `xs.iter().fold(0.0, |m, v| m.max(v.abs()))`, bit for bit: the
/// running maximum is never NaN and every `|v|` is `+0.0` or more, so
/// `f32::max` here is the select `|v| > m ? |v| : m` (a NaN `|v|`
/// loses), which [`fold_lanes`] may group freely.
fn max_abs(xs: &[f32]) -> f32 {
    fold_lanes(xs, 0.0, |m, v| if v.abs() > m { v.abs() } else { m })
}

/// `xs.iter().fold(init, f)` in eight independent lanes that each start
/// at `init`, the lanes then folded into the tail's fold: the serial
/// fold's bits whenever `f` is associative and commutative over the
/// values it meets, with `init` its identity (the NaN-ignoring `<` / `>`
/// selects of the maxima and minima here). Eight lanes of selects
/// vectorize; the serial fold is a latency chain.
pub(crate) fn fold_lanes(xs: &[f32], init: f32, f: impl Fn(f32, f32) -> f32) -> f32 {
    const LANES: usize = 8;
    let mut lanes = [init; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = f(*m, v);
        }
    }
    let tail = chunks.remainder().iter().fold(init, |m, &v| f(m, v));
    lanes.into_iter().fold(tail, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lane_parallel_max_abs_is_the_serial_fold_bit_for_bit() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -3.5,
            2.25,
            f32::MAX,
        ];
        let mut state = 0x9e37_79b9u32;
        for len in 0..=40usize {
            for round in 0..40 {
                let xs: Vec<f32> = (0..len)
                    .map(|t| {
                        state ^= state << 13;
                        state ^= state >> 17;
                        state ^= state << 5;
                        // Mostly specials in early rounds, plain values later.
                        if (state % 40) as usize >= round {
                            specials[(state >> 8) as usize % specials.len()]
                        } else {
                            (t as f32 - 20.0) * 0.37
                        }
                    })
                    .collect();
                let serial = xs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                assert_eq!(
                    max_abs(&xs).to_bits(),
                    serial.to_bits(),
                    "len {len}: {xs:?}"
                );
            }
        }
    }

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
        crate::simd::matmul_transposed_scaled_into(
            crate::SimdTier::Scalar,
            &a,
            &b,
            0.5,
            0..2,
            0..2,
            &mut out.as_mut_slice()[..2 * 3],
        );
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
        // Inner sizes below, at and past the 8- and 16-float chunks;
        // small integers keep every sum exact in any order.
        for d in [1usize, 7, 8, 9, 16, 23] {
            let a = Matrix::from_vec(1, d, (0..d).map(|i| i as f32).collect()).unwrap();
            let b = Matrix::from_vec(1, d, (0..d).map(|i| (i + 1) as f32).collect()).unwrap();
            let naive: f32 = (0..d).map(|i| (i * (i + 1)) as f32).sum();
            assert_eq!(a.matmul_transposed(&b).unwrap().get(0, 0), naive, "d {d}");
        }
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
