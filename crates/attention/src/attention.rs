//! Dense, pruned and quantized self-attention (§II-A, §VI).
//!
//! These are the *fused* kernels: scores come from a cache-blocked
//! `Q × Kᵀ` ([`Matrix::matmul_transposed`]) written once per row,
//! softmax runs in place on matrix rows, and the post-prune `A × V`
//! product iterates only the kept indices of each [`PruneDecision`] —
//! the software mirror of the paper's "on-chip recomputation of the
//! surviving scores". Per-query staging lives in a reusable
//! [`Workspace`]; the naive originals survive in [`crate::reference`]
//! as the property-test oracle and bench baseline.

use crate::simd;
use crate::softmax::softmax_inplace_tier;
use crate::{quantize_matrix, AttentionError, Matrix, PruneDecision, SoftmaxLut, Workspace};

/// The "sufficiently large negative value" placed in padded positions
/// before the softmax (§II-C3). Passing it through softmax drives the
/// probability of padded positions to zero.
pub const MASK_NEG: f32 = -1.0e9;

/// Kept-fraction at or above which the pruned AV stage stops skipping
/// pruned keys and streams every key instead. At low sparsity the
/// per-key `p != 0` branch mispredicts and the strided skips defeat
/// hardware prefetch, making the "sparse" walk *slower* than dense
/// (BENCH_report.json showed `pruned/fused-rate50` behind
/// `dense/fused`). Visiting a pruned key multiplies its exactly-zero
/// probability into the accumulator — a bit-exact no-op for finite
/// values (`0.0 * v + acc == acc` since softmax probabilities are
/// non-negative), so the crossover never changes results; a regression
/// test pins both AV walks bit-identical.
pub(crate) const DENSE_AV_CROSSOVER: f32 = 0.35;

/// Configuration of one attention head.
///
/// # Example
///
/// ```
/// use sprint_attention::AttentionConfig;
///
/// let cfg = AttentionConfig::new(64);
/// assert!((cfg.scale() - 0.125).abs() < 1e-6); // 1/sqrt(64)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttentionConfig {
    d: usize,
    scale: f32,
}

impl AttentionConfig {
    /// Creates a head configuration with the conventional
    /// `1 / sqrt(d)` score scaling.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "embedding size must be non-zero");
        AttentionConfig {
            d,
            scale: 1.0 / (d as f32).sqrt(),
        }
    }

    /// Creates a head configuration with an explicit score scale.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero or the scale is not finite and positive.
    pub fn with_scale(d: usize, scale: f32) -> Self {
        assert!(d > 0, "embedding size must be non-zero");
        assert!(scale.is_finite() && scale > 0.0, "scale must be positive");
        AttentionConfig { d, scale }
    }

    /// Embedding size of the head.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Score scaling factor.
    pub fn scale(&self) -> f32 {
        self.scale
    }
}

/// A prefix padding mask: the first `live` tokens are real, the rest
/// are padding (the gray stripes of Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddingMask {
    total: usize,
    live: usize,
}

impl PaddingMask {
    /// Creates a mask of `total` tokens with the first `live` real.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidDimension`] if `live > total`
    /// or `total == 0`.
    pub fn new(total: usize, live: usize) -> Result<Self, AttentionError> {
        if total == 0 {
            return Err(AttentionError::InvalidDimension {
                name: "total",
                value: total,
            });
        }
        if live > total {
            return Err(AttentionError::InvalidDimension {
                name: "live",
                value: live,
            });
        }
        Ok(PaddingMask { total, live })
    }

    /// Mask with no padding.
    pub fn full(total: usize) -> Self {
        PaddingMask { total, live: total }
    }

    /// Whether token `i` is a real (non-padded) token.
    pub fn is_live(&self, i: usize) -> bool {
        i < self.live
    }

    /// Number of real tokens.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total sequence length including padding.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Fraction of the sequence that is padding.
    pub fn padded_fraction(&self) -> f64 {
        (self.total - self.live) as f64 / self.total as f64
    }
}

/// The full intermediate state of one attention head evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionOutput {
    /// Raw (scaled) scores `Q × Kᵀ`, `s_q × s_k`. Pruned/masked entries
    /// hold `f32::NEG_INFINITY`.
    pub scores: Matrix,
    /// Row-wise softmax probabilities, `s_q × s_k`.
    pub probs: Matrix,
    /// Attention values `probs × V`, `s_q × d_v`.
    pub output: Matrix,
}

pub(crate) fn check_shapes(q: &Matrix, k: &Matrix, v: &Matrix) -> Result<(), AttentionError> {
    if q.cols() != k.cols() {
        return Err(AttentionError::ShapeMismatch {
            op: "attention q/k embedding",
            left: q.shape(),
            right: k.shape(),
        });
    }
    if k.rows() != v.rows() {
        return Err(AttentionError::ShapeMismatch {
            op: "attention k/v sequence",
            left: k.shape(),
            right: v.shape(),
        });
    }
    Ok(())
}

/// The padding mask, when given, must cover exactly the key sequence.
pub(crate) fn validate_padding(
    k: &Matrix,
    padding: Option<&PaddingMask>,
) -> Result<(), AttentionError> {
    if let Some(p) = padding {
        if p.total() != k.rows() {
            return Err(AttentionError::ShapeMismatch {
                op: "padding mask",
                left: (p.total(), 1),
                right: (k.rows(), 1),
            });
        }
    }
    Ok(())
}

/// A decision slice, when given, must contain one decision of length
/// `s_k` per query.
pub(crate) fn validate_decisions(
    s_q: usize,
    s_k: usize,
    decisions: Option<&[PruneDecision]>,
) -> Result<(), AttentionError> {
    if let Some(ds) = decisions {
        if ds.len() != s_q {
            return Err(AttentionError::ShapeMismatch {
                op: "pruning decisions per query",
                left: (ds.len(), 1),
                right: (s_q, 1),
            });
        }
        if let Some(d) = ds.iter().find(|d| d.len() != s_k) {
            return Err(AttentionError::ShapeMismatch {
                op: "pruning decision length",
                left: (d.len(), 1),
                right: (s_k, 1),
            });
        }
    }
    Ok(())
}

/// Whether query `i` is a live (non-padded) query.
///
/// The padding mask describes the *key* sequence; queries share it in
/// the self-attention case (`s_q == s_k`). A query index beyond the
/// mask — possible only in cross-shaped calls where `s_q > s_k` — is
/// not covered by the mask and therefore live. (The seed implementation
/// clamped the query index against the key mask length, silently
/// marking trailing queries live or dead by whatever the last key's
/// state happened to be.)
pub(crate) fn query_is_live(i: usize, padding: Option<&PaddingMask>) -> bool {
    padding.map_or(true, |p| i >= p.total() || p.is_live(i))
}

/// `out += a * x` over equal-length rows (the sparse AV inner step).
/// The d = 64 case (every studied model) takes a fixed-size path so the
/// loop fully unrolls with no bounds checks.
#[inline]
pub(crate) fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    if let (Ok(o), Ok(xv)) = (
        <&mut [f32; 64]>::try_from(&mut *out),
        <&[f32; 64]>::try_from(x),
    ) {
        for t in 0..64 {
            o[t] += a * xv[t];
        }
        return;
    }
    for (o, &xv) in out.iter_mut().zip(x) {
        *o += a * xv;
    }
}

/// Reference dense self-attention in `f32`:
/// `softmax(scale · Q Kᵀ) × V`.
///
/// Output matrices come from the workspace's buffer pool (see
/// [`Workspace::recycle`]), the register-blocked `Q × Kᵀ` pass writes
/// the scores once, and the softmax runs in place on each
/// probability-matrix row.
///
/// # Errors
///
/// Returns [`AttentionError::ShapeMismatch`] when `Q`/`K` embedding
/// sizes differ or `K`/`V` sequence lengths differ.
pub fn dense_attention_with(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    ws: &mut Workspace,
) -> Result<AttentionOutput, AttentionError> {
    check_shapes(q, k, v)?;
    let tier = ws.simd_tier();
    let (s_q, s_k) = (q.rows(), k.rows());
    let d_v = v.cols();
    let mut scores = ws.zeroed_matrix(s_q, s_k)?;
    simd::matmul_transposed_scaled_into(tier, q, k, cfg.scale(), 0..s_q, 0..s_k, &mut scores);
    let mut probs = ws.zeroed_matrix(s_q, s_k)?;
    let mut output = ws.zeroed_matrix(s_q, d_v)?;
    for i in 0..s_q {
        let prow = probs.row_mut(i);
        prow.copy_from_slice(scores.row(i));
        softmax_inplace_tier(prow, tier);
    }
    // Dense rows have no pruned keys: stream every key rather than
    // branching on `p != 0` per key (the crossover's dense walk). The
    // matrix-level stage key-panels `V` across rows on the AVX2 tier;
    // each row remains the tier's one per-row accumulation chain.
    simd::av_rows(
        tier,
        &mut output,
        &probs,
        v.as_slice(),
        d_v,
        &vec![(s_k, false); s_q],
    );
    Ok(AttentionOutput {
        scores,
        probs,
        output,
    })
}

/// Runtime-pruned self-attention (Eq. 3): scores below `threshold` are
/// removed before the softmax; padded positions are removed everywhere.
///
/// Returns the attention state together with the per-query
/// [`PruneDecision`]s (padded keys count as pruned; padded queries get
/// an all-pruned decision and an all-zero output row, matching the
/// two-dimensional sequence reduction of §VI).
///
/// The fused flow per live query row: the blocked `Q × Kᵀ` pass has
/// already written the raw scores for the live region, the keep mask is
/// built in the workspace, pruned entries are masked to `-inf` in the
/// scores row, the masked softmax runs in place on the probability row,
/// and the value product accumulates **only the kept indices** — work
/// in the AV stage scales with the keep rate, the software counterpart
/// of SPRINT recomputing only the ~O(10%) surviving scores on chip.
///
/// # Errors
///
/// Shape errors as in [`dense_attention_with`]; additionally the
/// padding mask, when given, must cover exactly `k.rows()` tokens.
pub fn pruned_attention_with(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    threshold: f32,
    padding: Option<&PaddingMask>,
    ws: &mut Workspace,
) -> Result<(AttentionOutput, Vec<PruneDecision>), AttentionError> {
    check_shapes(q, k, v)?;
    validate_padding(k, padding)?;
    let tier = ws.simd_tier();
    let (s_q, s_k) = (q.rows(), k.rows());
    let live_k = padding.map_or(s_k, |p| p.live());
    let mut scores = ws.zeroed_matrix(s_q, s_k)?;
    // Blocked Q·Kᵀ over the live region only; padded rows/columns are
    // masked below without ever computing their dot products.
    match padding {
        None => {
            simd::matmul_transposed_scaled_into(
                tier,
                q,
                k,
                cfg.scale(),
                0..s_q,
                0..s_k,
                &mut scores,
            );
        }
        Some(p) => {
            let live_q = p.live().min(s_q);
            simd::matmul_transposed_scaled_into(
                tier,
                q,
                k,
                cfg.scale(),
                0..live_q,
                0..live_k,
                &mut scores,
            );
            if s_q > p.total() {
                // Queries beyond the key mask are live (see
                // `query_is_live`).
                simd::matmul_transposed_scaled_into(
                    tier,
                    q,
                    k,
                    cfg.scale(),
                    p.total()..s_q,
                    0..live_k,
                    &mut scores,
                );
            }
        }
    }
    let mut probs = ws.zeroed_matrix(s_q, s_k)?;
    let d_v = v.cols();
    let mut output = ws.zeroed_matrix(s_q, d_v)?;
    let mut decisions = Vec::with_capacity(s_q);
    // Per-row AV plans, filled as each row's keep rate becomes known;
    // `(0, _)` (padded queries) leaves the output row untouched.
    let mut av_plans = vec![(0usize, false); s_q];
    // Every padded query carries the same all-pruned decision; build it
    // once and share the storage (decision clones are Arc bumps).
    let mut all_pruned: Option<PruneDecision> = None;
    for (i, plan) in av_plans.iter_mut().enumerate() {
        if !query_is_live(i, padding) {
            // Padded query: everything pruned, zero prob/output rows.
            scores.row_mut(i).fill(f32::NEG_INFINITY);
            decisions.push(
                all_pruned
                    .get_or_insert_with(|| PruneDecision::new(vec![true; s_k]))
                    .clone(),
            );
            continue;
        }
        // One fused pass over the live keys: the pruned flag (Eq. 3,
        // `s < th` mirroring `PruneDecision::from_scores`), the -inf
        // masking of the scores row, and the staging of the masked row
        // as the probability row — the tiered `prune_mask_row` scan,
        // bit-identical across tiers. Padded keys (always pruned) are
        // handled by the `true`-initialized flag tail and a fill. The
        // flag vector becomes the returned decision — the only
        // per-query allocation left on this path.
        let srow = scores.row_mut(i);
        let prow = probs.row_mut(i);
        let mut flags = vec![true; s_k];
        let kept = simd::prune_mask_row(
            tier,
            &mut srow[..live_k],
            &mut prow[..live_k],
            &mut flags[..live_k],
            threshold,
        );
        srow[live_k..].fill(f32::NEG_INFINITY);
        // Padded keys get exactly zero probability; the exact softmax
        // runs in place over the live prefix only (-inf pruned entries
        // get zero — the masked softmax).
        prow[live_k..].fill(0.0);
        softmax_inplace_tier(&mut prow[..live_k], tier);
        // AV plan for this row. Below the crossover the walk skips
        // pruned (exactly-zero) probabilities so work scales with the
        // keep rate; at low sparsity it streams every live key instead
        // (see [`DENSE_AV_CROSSOVER`] — bit-identical either way).
        let skip_zero = (kept as f32) < DENSE_AV_CROSSOVER * live_k as f32;
        *plan = (live_k, skip_zero);
        decisions.push(PruneDecision::new(flags));
    }
    // AV over surviving keys, all rows in one matrix-level stage (the
    // AVX2 tier key-panels `V` across rows; padded queries keep a
    // `live == 0` plan and an untouched all-zero output row).
    simd::av_rows(tier, &mut output, &probs, v.as_slice(), d_v, &av_plans);
    Ok((
        AttentionOutput {
            scores,
            probs,
            output,
        },
        decisions,
    ))
}

/// Result of the quantized (hardware) attention datapath.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedAttentionOutput {
    /// Recomputed scores (dequantized from the 8-bit × 8-bit integer
    /// dot products). Pruned entries hold `f32::NEG_INFINITY`.
    pub scores: Matrix,
    /// 8-bit-resolution probabilities from the two-LUT softmax unit.
    pub probs: Matrix,
    /// Final attention values (16-bit accumulation, dequantized).
    pub output: Matrix,
}

/// The SPRINT on-chip digital datapath: 8-bit Q/K/V, 12-bit softmax
/// inputs via the two-LUT unit, 16-bit attention outputs (§VI).
///
/// When `decisions` is given (the binary pruning vectors coming back
/// from the in-memory thresholding), only kept keys are computed —
/// this is the "on-chip recompute" half of SPRINT. With `None`, the
/// full dense computation is performed in quantized arithmetic (the
/// iso-precision baseline accelerator).
///
/// Every stage walks one ascending list of kept keys per query row
/// (`None` is the list `0..s_k`): the QK-PU dot, the head-wide softmax
/// range, the two-LUT softmax and the V-PU accumulate all cost what
/// survived. `scores` and `probs` are still returned whole, `-inf` and
/// `0.0` at pruned positions.
///
/// # Errors
///
/// Shape errors as in [`dense_attention_with`]; a decision slice, when
/// given, must contain one decision of length `k.rows()` per query.
pub fn quantized_attention_with(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    decisions: Option<&[PruneDecision]>,
    ws: &mut Workspace,
) -> Result<QuantizedAttentionOutput, AttentionError> {
    check_shapes(q, k, v)?;
    let tier = ws.simd_tier();
    let (s_q, s_k) = (q.rows(), k.rows());
    validate_decisions(s_q, s_k, decisions)?;
    let mut kept = std::mem::take(&mut ws.kept);
    kept.fill(s_k, decisions)?;

    // 8-bit quantization of the operand matrices (per-tensor symmetric).
    let qq = quantize_matrix(q, 8)?;
    let qk = quantize_matrix(k, 8)?;
    let qv = quantize_matrix(v, 8)?;
    let score_lsb = qq.params().step() * qk.params().step() * cfg.scale();

    // Integer MAC: i8 x i8 accumulated in i32 (the QK-PU). The softmax
    // range is the largest finite score offset seen in this head.
    let mut scores = ws.filled_matrix(s_q, s_k, f32::NEG_INFINITY)?;
    let mut max_offset = 1.0f32;
    for i in 0..s_q {
        let q_codes = qq.code_row(i);
        max_offset = max_offset.max(quantized_score_row_into(
            kept.row(i),
            |j| simd::idot(tier, q_codes, qk.code_row(j)),
            score_lsb,
            scores.row_mut(i),
        ));
    }

    // Softmax with 12-bit inputs via the two-LUT unit, then the V-PU:
    // 8-bit probabilities x 8-bit values, accumulated per output row
    // in i32 and clamped to 16 bits at the end.
    let unit = SoftmaxLut::new(max_offset.max(1e-3))?;
    let mut probs = ws.zeroed_matrix(s_q, s_k)?;
    let d_v = v.cols();
    let out_lsb = qv.params().step() / 255.0;
    let mut output = ws.zeroed_matrix(s_q, d_v)?;
    let acc = ws.acc_row(d_v);
    for i in 0..s_q {
        softmax_vpu_row_into(
            &unit,
            kept.row(i),
            scores.row(i),
            probs.row_mut(i),
            |acc, p_code, j| simd::vpu_accumulate(tier, acc, p_code, qv.code_row(j)),
            out_lsb,
            acc,
            output.row_mut(i),
        );
    }
    ws.kept = kept;

    Ok(QuantizedAttentionOutput {
        scores,
        probs,
        output,
    })
}

/// Integer dot product (the QK-PU's i8 × i8 → i32 MAC chain), the
/// scalar tier of [`simd::idot`].
#[inline]
pub(crate) fn idot(a: &[i32], b: &[i32]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// One query's QK-PU score row over its kept keys: `srow[j]` gets the
/// dequantized integer MAC `dot(j)`, every other position stays as the
/// caller filled it (`-inf`). Returns the row's largest finite score
/// offset `max − s` (0 for a row with no finite score), which the
/// caller folds into the softmax range. With
/// [`softmax_vpu_row_into`], the code-level row core the batch kernel
/// and the single-query decode kernel share, so their bit-identical
/// contract holds by construction, not just by test.
pub(crate) fn quantized_score_row_into(
    kept: &[u32],
    dot: impl Fn(usize) -> i32,
    score_lsb: f32,
    srow: &mut [f32],
) -> f32 {
    let mut max = f32::NEG_INFINITY;
    for &j in kept {
        let score = dot(j as usize) as f32 * score_lsb;
        srow[j as usize] = score;
        max = max.max(score);
    }
    let mut offset = 0.0f32;
    if max != f32::NEG_INFINITY {
        for &j in kept {
            let score = srow[j as usize];
            if score != f32::NEG_INFINITY {
                offset = offset.max(max - score);
            }
        }
    }
    offset
}

/// One query's two-LUT softmax and V-PU accumulation over its kept
/// keys: 8-bit probabilities into `prow` (zero elsewhere, as the caller
/// zeroed it), then 8-bit probability codes × 8-bit value codes —
/// `accumulate(acc, p_code, j)` adds key `j`'s value row — summed in
/// `i32`, clamped to 16 bits and dequantized into `out_row`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn softmax_vpu_row_into(
    unit: &SoftmaxLut,
    kept: &[u32],
    srow: &[f32],
    prow: &mut [f32],
    mut accumulate: impl FnMut(&mut [i32], i32, usize),
    out_lsb: f32,
    acc: &mut [i32],
    out_row: &mut [f32],
) {
    let keys = kept.iter().map(|&j| j as usize);
    unit.probabilities_over(srow, prow, keys.clone());
    acc.fill(0);
    for j in keys {
        let p_code = (prow[j] * 255.0).round() as i32;
        if p_code != 0 {
            accumulate(acc, p_code, j);
        }
    }
    for (slot, &a) in out_row.iter_mut().zip(acc.iter()) {
        // Final attention value kept in 16 bits.
        let acc16 = a.clamp(i32::from(i16::MIN), i32::from(i16::MAX));
        *slot = acc16 as f32 * out_lsb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_qkv() -> (Matrix, Matrix, Matrix) {
        let q = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0, 0.0],
        ])
        .unwrap();
        let k = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let v = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        (q, k, v)
    }

    #[test]
    fn config_defaults_to_inverse_sqrt_scale() {
        let cfg = AttentionConfig::new(64);
        assert_eq!(cfg.d(), 64);
        assert!((cfg.scale() - 1.0 / 8.0).abs() < 1e-7);
        let explicit = AttentionConfig::with_scale(64, 1.0);
        assert_eq!(explicit.scale(), 1.0);
    }

    #[test]
    fn padding_mask_validation_and_queries() {
        assert!(PaddingMask::new(0, 0).is_err());
        assert!(PaddingMask::new(4, 5).is_err());
        let m = PaddingMask::new(8, 6).unwrap();
        assert!(m.is_live(5));
        assert!(!m.is_live(6));
        assert!((m.padded_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(PaddingMask::full(4).padded_fraction(), 0.0);
    }

    #[test]
    fn dense_attention_rows_are_distributions() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let out = dense_attention_with(&q, &k, &v, &AttentionConfig::new(4), ws).unwrap();
        for i in 0..3 {
            let sum: f32 = out.probs.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert_eq!(out.output.shape(), (3, 4));
    }

    /// A deterministic low-entropy matrix so both crossover branches
    /// are reachable by threshold choice alone.
    fn wavy(rows: usize, cols: usize, phase: f32) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|t| ((t as f32) * 0.37 + phase).sin())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn dense_av_crossover_is_bit_identical_to_the_sparse_walk() {
        // Satellite regression for the rate-50 inversion: above the
        // kept-fraction crossover the AV stage streams every key, and
        // that walk must be bit-identical to the skip walk it replaces.
        let cfg = AttentionConfig::new(16);
        let (q, k, v) = (wavy(12, 16, 0.0), wavy(20, 16, 1.0), wavy(20, 16, 2.0));
        for tier in [crate::SimdTier::Scalar, crate::SimdTier::Avx2] {
            let mut ws = Workspace::new();
            ws.set_simd_tier(tier);
            // Thresholds landing on both sides of the 35% crossover.
            for threshold in [-10.0f32, -0.05, 0.05, 0.2] {
                let (out, _dec) =
                    pruned_attention_with(&q, &k, &v, &cfg, threshold, None, &mut ws).unwrap();
                // Oracle: the tier's own per-key skip walk over the
                // kernel's probability rows (the tiers differ in the
                // AV tolerance class, so each tier is checked against
                // its own axpy chain).
                for i in 0..q.rows() {
                    let mut expected = vec![0.0f32; v.cols()];
                    for (&p, v_row) in out
                        .probs
                        .row(i)
                        .iter()
                        .zip(v.as_slice().chunks_exact(v.cols()))
                    {
                        if p != 0.0 {
                            crate::simd::axpy(ws.simd_tier(), &mut expected, p, v_row);
                        }
                    }
                    assert_eq!(
                        out.output
                            .row(i)
                            .iter()
                            .map(|x| x.to_bits())
                            .collect::<Vec<_>>(),
                        expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "tier {tier} threshold {threshold} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn dense_attention_prefers_aligned_key() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let out = dense_attention_with(&q, &k, &v, &AttentionConfig::new(4), ws).unwrap();
        // Query 0 aligns with key 0; its probability must dominate.
        assert!(out.probs.get(0, 0) > out.probs.get(0, 1));
        assert!(out.probs.get(0, 0) > out.probs.get(0, 2));
    }

    #[test]
    fn dense_attention_shape_errors() {
        let ws = &mut Workspace::new();
        let q = Matrix::zeros(2, 3).unwrap();
        let k = Matrix::zeros(2, 4).unwrap();
        let v = Matrix::zeros(2, 4).unwrap();
        assert!(dense_attention_with(&q, &k, &v, &AttentionConfig::new(3), ws).is_err());
        let k2 = Matrix::zeros(2, 3).unwrap();
        let v2 = Matrix::zeros(3, 3).unwrap();
        assert!(dense_attention_with(&q, &k2, &v2, &AttentionConfig::new(3), ws).is_err());
    }

    #[test]
    fn pruned_attention_with_low_threshold_matches_dense() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let dense = dense_attention_with(&q, &k, &v, &cfg, ws).unwrap();
        let (pruned, decisions) = pruned_attention_with(&q, &k, &v, &cfg, -1e30, None, ws).unwrap();
        for (i, d) in decisions.iter().enumerate().take(3) {
            assert!(d.kept_count() == 3, "nothing pruned");
            for j in 0..3 {
                assert!((dense.probs.get(i, j) - pruned.probs.get(i, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn pruned_attention_removes_low_scores() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::with_scale(4, 1.0);
        // Scores for query 0 are [1, 0, 0]; threshold 0.5 keeps only key 0.
        let (out, decisions) = pruned_attention_with(&q, &k, &v, &cfg, 0.5, None, ws).unwrap();
        assert_eq!(decisions[0].kept_indices(), vec![0]);
        assert!((out.probs.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(out.probs.get(0, 1), 0.0);
        assert_eq!(out.scores.get(0, 1), f32::NEG_INFINITY);
    }

    #[test]
    fn pruned_attention_respects_padding() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let pad = PaddingMask::new(3, 2).unwrap();
        let (out, decisions) =
            pruned_attention_with(&q, &k, &v, &cfg, -1e30, Some(&pad), ws).unwrap();
        // Key 2 is padding: pruned for every live query.
        assert!(decisions[0].is_pruned(2));
        assert!(decisions[1].is_pruned(2));
        // Query 2 is padding: fully pruned, zero output row.
        assert_eq!(decisions[2].kept_count(), 0);
        assert!(out.output.row(2).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pruned_attention_queries_beyond_key_mask_are_live() {
        let ws = &mut Workspace::new();
        // Regression: with s_q > s_k the query index used to be clamped
        // against the *key* mask length, so trailing queries inherited
        // the last key's padding state. Queries beyond the mask are not
        // covered by it and must be treated as live.
        let q = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.5, 0.5, 0.0, 0.0],
            vec![1.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let k = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap();
        let v = k.clone();
        let cfg = AttentionConfig::new(4);
        let pad = PaddingMask::new(3, 2).unwrap();
        let (out, decisions) =
            pruned_attention_with(&q, &k, &v, &cfg, -1e30, Some(&pad), ws).unwrap();
        // Queries 3 and 4 sit beyond the 3-token key mask: live, with
        // only the padded key pruned.
        for (i, d) in decisions.iter().enumerate().take(5).skip(3) {
            assert_eq!(d.kept_indices(), vec![0, 1], "query {i}");
            let sum: f32 = out.probs.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "query {i} row sums to {sum}");
        }
        // Queries inside the mask still follow it exactly.
        assert!(decisions[1].kept_count() > 0);
        assert_eq!(decisions[2].kept_count(), 0, "query 2 is padded");
        assert!(out.output.row(2).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn fused_variants_share_a_workspace() {
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let mut ws = Workspace::with_capacity(3, 4);
        let dense = dense_attention_with(&q, &k, &v, &cfg, &mut ws).unwrap();
        let (pruned, _) = pruned_attention_with(&q, &k, &v, &cfg, -1e30, None, &mut ws).unwrap();
        let hw = quantized_attention_with(&q, &k, &v, &cfg, None, &mut ws).unwrap();
        assert_eq!(dense.probs, pruned.probs, "unpruned path is dense");
        assert_eq!(hw.output.shape(), (3, 4));
    }

    #[test]
    fn pruned_attention_rejects_wrong_mask_length() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let pad = PaddingMask::new(5, 2).unwrap();
        assert!(pruned_attention_with(&q, &k, &v, &cfg, 0.0, Some(&pad), ws).is_err());
    }

    #[test]
    fn quantized_attention_tracks_dense_reference() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let dense = dense_attention_with(&q, &k, &v, &cfg, ws).unwrap();
        let hw = quantized_attention_with(&q, &k, &v, &cfg, None, ws).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (dense.probs.get(i, j) - hw.probs.get(i, j)).abs() < 0.03,
                    "probs diverge at ({i},{j})"
                );
            }
            for c in 0..4 {
                assert!(
                    (dense.output.get(i, c) - hw.output.get(i, c)).abs() < 0.05,
                    "outputs diverge at ({i},{c})"
                );
            }
        }
    }

    #[test]
    fn quantized_attention_honours_decisions() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let decisions = vec![
            PruneDecision::new(vec![false, true, true]),
            PruneDecision::new(vec![true, false, true]),
            PruneDecision::new(vec![false, false, true]),
        ];
        let hw = quantized_attention_with(&q, &k, &v, &cfg, Some(&decisions), ws).unwrap();
        assert_eq!(hw.scores.get(0, 1), f32::NEG_INFINITY);
        assert!((hw.probs.get(0, 0) - 1.0).abs() < 1e-3);
        assert_eq!(hw.probs.get(1, 0), 0.0);
    }

    #[test]
    fn quantized_attention_validates_decision_shape() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let bad_count = vec![PruneDecision::new(vec![false; 3])];
        assert!(quantized_attention_with(&q, &k, &v, &cfg, Some(&bad_count), ws).is_err());
        let bad_len = vec![
            PruneDecision::new(vec![false; 2]),
            PruneDecision::new(vec![false; 2]),
            PruneDecision::new(vec![false; 2]),
        ];
        assert!(quantized_attention_with(&q, &k, &v, &cfg, Some(&bad_len), ws).is_err());
    }
}
