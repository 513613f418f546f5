//! Reusable scratch buffers for the fused attention kernels.

/// Per-pipeline scratch for the fused attention kernels: a probability
/// staging row, an integer accumulator row, and a pool of recyclable
/// matrix buffers, all grown on demand and reused across calls.
///
/// The fused kernels write scores and probabilities directly into
/// their output matrices, so the only per-query heap traffic left is
/// what a kernel genuinely returns (the [`crate::PruneDecision`]
/// vectors). A single `Workspace` threaded through a pipeline of
/// [`crate::dense_attention_with`] / [`crate::pruned_attention_with`] /
/// [`crate::quantized_attention_with`] calls supplies their output
/// matrices from the buffer pool and stages the quantized V-PU's
/// accumulation; [`Workspace::prob_row`] is a caller-side staging row
/// (the system pipeline's no-recompute softmax uses it).
///
/// **Pool contract.** The pool never affects results — a pooled buffer
/// is cleared and re-zeroed before reuse, so kernels are bit-identical
/// with or without recycling. Retention is bounded in both buffer
/// count (eight) and total floats (128 MiB), so a
/// long-lived pipeline (a serving loop, a decode session stepping
/// thousands of tokens) cannot accumulate memory; recycles beyond
/// either cap are dropped, never errors.
///
/// # Example
///
/// ```
/// use sprint_attention::{pruned_attention_with, AttentionConfig, Matrix, Workspace};
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let mut ws = Workspace::new();
/// // The same workspace serves any number of heads/layers:
/// for _ in 0..3 {
///     let (_out, _dec) =
///         pruned_attention_with(&q, &q, &q, &AttentionConfig::new(2), 0.0, None, &mut ws)?;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Workspace {
    prob_row: Vec<f32>,
    acc_row: Vec<i32>,
    /// The quantized kernels' kept-key lists (taken for the length of
    /// a call, put back on success).
    pub(crate) kept: crate::pruning::KeptLists,
    pool: Vec<Vec<f32>>,
    tier: crate::SimdTier,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace {
            prob_row: Vec::new(),
            acc_row: Vec::new(),
            kept: Default::default(),
            pool: Vec::new(),
            tier: crate::active_tier(),
        }
    }
}

/// Recycled matrix buffers kept per workspace. Three per kernel call
/// (scores, probs, output) plus headroom for a second head size.
const POOL_CAP: usize = 8;

/// Total floats the pool may retain across all of its buffers
/// (128 MiB). The count cap alone does not bound memory: a serving
/// run that once touched a long-context head would otherwise hoard up
/// to [`POOL_CAP`] sequence-squared buffers forever. Oversized
/// recycles are dropped instead; the cap still fits a full 4096-token
/// score matrix, so steady-state long-context loops keep their reuse.
const POOL_FLOAT_CAP: usize = 1 << 25;

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Creates a workspace pre-sized for `s_k` keys and `d_v` value
    /// columns, so the first call allocates nothing beyond its output
    /// matrices.
    pub fn with_capacity(s_k: usize, d_v: usize) -> Self {
        Workspace {
            prob_row: vec![0.0; s_k],
            acc_row: vec![0; d_v],
            ..Workspace::default()
        }
    }

    /// Forces the kernel tier every call through this workspace
    /// dispatches on. Requests are sanitized to what the host supports
    /// ([`crate::sanitize_tier`]), so forcing [`crate::SimdTier::Avx2`]
    /// on a non-AVX2 host silently runs scalar rather than faulting.
    pub fn set_simd_tier(&mut self, tier: crate::SimdTier) {
        self.tier = crate::sanitize_tier(tier);
    }

    /// The kernel tier this workspace dispatches on.
    pub fn simd_tier(&self) -> crate::SimdTier {
        self.tier
    }

    /// Returns a matrix's backing buffer to the workspace pool, so the
    /// next kernel call reuses warm memory instead of paying a fresh
    /// allocation (and its page faults). Recycling is optional — the
    /// kernels work identically without it — but a steady-state loop
    /// over heads that recycles its finished outputs runs with zero
    /// heap traffic in the float kernels.
    ///
    /// The pool is bounded in both buffer count and total bytes, so a
    /// long-running serving loop over mixed head sizes cannot
    /// accumulate memory: recycles beyond the caps are simply dropped.
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_attention::{dense_attention_with, AttentionConfig, Matrix, Workspace};
    ///
    /// # fn main() -> Result<(), sprint_attention::AttentionError> {
    /// let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
    /// let mut ws = Workspace::new();
    /// for _ in 0..10 {
    ///     let out = dense_attention_with(&q, &q, &q, &AttentionConfig::new(2), &mut ws)?;
    ///     // ... use out ...
    ///     ws.recycle(out.scores);
    ///     ws.recycle(out.probs);
    ///     ws.recycle(out.output);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    pub fn recycle(&mut self, m: crate::Matrix) {
        let buf = m.into_vec();
        let pooled: usize = self.pool.iter().map(Vec::capacity).sum();
        if self.pool.len() < POOL_CAP && pooled + buf.capacity() <= POOL_FLOAT_CAP {
            self.pool.push(buf);
        }
    }

    /// An all-zero `rows × cols` matrix, backed by a pooled buffer when
    /// one with enough capacity is available.
    ///
    /// # Errors
    ///
    /// Returns [`crate::AttentionError::InvalidDimension`] for zero
    /// dimensions (as [`crate::Matrix::zeros`] does).
    pub(crate) fn zeroed_matrix(
        &mut self,
        rows: usize,
        cols: usize,
    ) -> Result<crate::Matrix, crate::AttentionError> {
        self.filled_matrix(rows, cols, 0.0)
    }

    /// [`Workspace::zeroed_matrix`] with every entry set to `value`.
    ///
    /// # Errors
    ///
    /// As [`Workspace::zeroed_matrix`].
    pub(crate) fn filled_matrix(
        &mut self,
        rows: usize,
        cols: usize,
        value: f32,
    ) -> Result<crate::Matrix, crate::AttentionError> {
        let n = rows * cols;
        // On a miss, allocate fresh rather than consuming (and
        // reallocating) a pooled buffer that is too small — mixed-size
        // pipelines keep their small-buffer slots.
        let mut buf = match self.pool.iter().position(|b| b.capacity() >= n) {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        buf.clear();
        buf.resize(n, value);
        crate::Matrix::from_vec(rows, cols, buf)
    }

    /// Drops every buffer, returning the workspace to its freshly
    /// constructed state.
    ///
    /// Pipelines recovering from a fault in unrelated code (e.g. an
    /// engine shard whose mutex was poisoned by a panicking worker)
    /// reset rather than reason about which buffers the interrupted
    /// call left mid-write — the pool contract already guarantees a
    /// reset workspace produces bit-identical results, just with cold
    /// first allocations. A forced kernel tier survives the reset —
    /// recovery must not silently change which tier a pipeline runs.
    pub fn reset(&mut self) {
        *self = Workspace {
            tier: self.tier,
            ..Workspace::default()
        };
    }

    /// A zeroed probability staging row of length `n`.
    pub fn prob_row(&mut self, n: usize) -> &mut [f32] {
        self.prob_row.clear();
        self.prob_row.resize(n, 0.0);
        &mut self.prob_row
    }

    /// A zeroed integer accumulator row of length `n` (the quantized
    /// V-PU's 16-bit-bounded accumulation lives here before clamping).
    pub fn acc_row(&mut self, n: usize) -> &mut [i32] {
        self.acc_row.clear();
        self.acc_row.resize(n, 0);
        &mut self.acc_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_zeroed_between_uses() {
        let mut ws = Workspace::new();
        ws.prob_row(4)[2] = 7.0;
        assert_eq!(ws.prob_row(4), &[0.0; 4]);
        ws.acc_row(2)[1] = 5;
        assert_eq!(ws.acc_row(2), &[0; 2]);
    }

    #[test]
    fn recycled_buffers_come_back_zeroed() {
        let mut ws = Workspace::new();
        let mut m = ws.zeroed_matrix(4, 4).unwrap();
        m.row_mut(2).fill(7.0);
        ws.recycle(m);
        let again = ws.zeroed_matrix(4, 4).unwrap();
        assert!(again.as_slice().iter().all(|&x| x == 0.0));
        // A smaller request reuses the same capacity.
        let small = ws.zeroed_matrix(2, 2).unwrap();
        assert_eq!(small.shape(), (2, 2));
        assert!(small.as_slice().iter().all(|&x| x == 0.0));
        assert!(ws.zeroed_matrix(0, 3).is_err());
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        for _ in 0..20 {
            ws.recycle(crate::Matrix::zeros(2, 2).unwrap());
        }
        assert!(ws.pool.len() <= super::POOL_CAP);
    }

    #[test]
    fn pool_is_byte_bounded_across_a_long_mixed_run() {
        // Regression: the count cap alone let a serving run hoard up
        // to POOL_CAP huge buffers after one long-context head. The
        // byte cap bounds total retention no matter the mix.
        let mut ws = Workspace::new();
        let big_rows = 1 << 12; // 4096 x 4096 floats = half the cap
        for _ in 0..6 {
            ws.recycle(crate::Matrix::zeros(big_rows, big_rows).unwrap());
            ws.recycle(crate::Matrix::zeros(16, 16).unwrap());
        }
        let pooled: usize = ws.pool.iter().map(Vec::capacity).sum();
        assert!(
            pooled <= super::POOL_FLOAT_CAP,
            "pool retains {pooled} floats, cap {}",
            super::POOL_FLOAT_CAP
        );
        assert!(ws.pool.len() <= super::POOL_CAP);
        // Small buffers still pool once the run shrinks again.
        let mut small_ws = Workspace::new();
        small_ws.recycle(crate::Matrix::zeros(4, 4).unwrap());
        assert_eq!(small_ws.pool.len(), 1);
    }

    #[test]
    fn reset_returns_to_fresh_state() {
        let mut ws = Workspace::with_capacity(8, 8);
        ws.prob_row(8)[0] = 1.0;
        ws.acc_row(8)[0] = 1;
        ws.recycle(crate::Matrix::zeros(4, 4).unwrap());
        ws.reset();
        assert!(ws.pool.is_empty());
        assert_eq!(ws.prob_row.capacity(), 0);
        assert_eq!(ws.acc_row.capacity(), 0);
        // And it still works after the reset.
        assert_eq!(ws.prob_row(3), &[0.0; 3]);
    }

    #[test]
    fn forced_tier_is_sanitized_and_survives_reset() {
        let mut ws = Workspace::new();
        assert_eq!(ws.simd_tier(), crate::active_tier());
        ws.set_simd_tier(crate::SimdTier::Scalar);
        assert_eq!(ws.simd_tier(), crate::SimdTier::Scalar);
        ws.reset();
        assert_eq!(ws.simd_tier(), crate::SimdTier::Scalar);
        ws.set_simd_tier(crate::SimdTier::Avx2);
        // Sanitized: Avx2 only sticks on hosts that can run it.
        assert_eq!(ws.simd_tier(), crate::sanitize_tier(crate::SimdTier::Avx2));
    }

    #[test]
    fn rows_resize_on_demand() {
        let mut ws = Workspace::with_capacity(2, 2);
        assert_eq!(ws.prob_row(5).len(), 5);
        assert_eq!(ws.prob_row(1).len(), 1);
        assert_eq!(ws.acc_row(3).len(), 3);
    }
}
