//! Runtime-pruned and quantized self-attention (§II-A, §VI).
//!
//! These are the *fused* kernels. The float kernel
//! [`pruned_attention_with`] is the only one: dense attention is the
//! same kernel at `threshold = f32::MIN`, which prunes nothing. Its
//! scores come from the tiered, register-blocked `Q × Kᵀ` pass
//! (`simd::matmul_transposed_scaled_into`) written once per row; each
//! live row then runs one row stage (mask, softmax in place, AV-walk
//! choice) that the single-query decode kernel shares, and the
//! post-prune `A × V` product visits only the kept keys below the
//! crossover — the software mirror of the paper's "on-chip
//! recomputation of the surviving scores". Per-query staging lives in a
//! reusable [`Workspace`]; the naive originals survive in
//! [`crate::reference`] as the property-test oracle and bench baseline.

use std::ops::Range;

use crate::pruning::KeptLists;
use crate::simd;
use crate::softmax::softmax_inplace_tier;
use crate::{AttentionError, Matrix, PruneDecision, QuantParams, SimdTier, SoftmaxLut, Workspace};

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
const DENSE_AV_CROSSOVER: f32 = 0.35;

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

/// Runtime-pruned self-attention (Eq. 3): scores below `threshold` are
/// removed before the softmax; padded positions are removed everywhere.
///
/// Returns the attention state together with the per-query
/// [`PruneDecision`]s (padded keys count as pruned; padded queries get
/// an all-pruned decision and an all-zero output row, matching the
/// two-dimensional sequence reduction of §VI).
///
/// This is the row core [`pruned_attention_rows`] over every query row,
/// into three matrices from the workspace's pool. The fused flow per
/// live query row: the blocked `Q × Kᵀ` pass writes the raw scores for
/// the live region, one row stage (shared with
/// [`crate::pruned_attention_decode_with`]) masks pruned entries to
/// `-inf` and softmaxes the probability row in place, and the value
/// product accumulates **only the kept indices** — work in the AV
/// stage scales with the keep rate, the software counterpart of SPRINT
/// recomputing only the ~O(10%) surviving scores on chip.
/// `threshold = f32::MIN` keeps every finite score: that is dense
/// attention, the paper's unpruned baseline.
///
/// # Errors
///
/// Returns [`AttentionError::ShapeMismatch`] when `Q`/`K` embedding
/// sizes differ or `K`/`V` sequence lengths differ, and when the
/// padding mask, given, does not cover exactly `k.rows()` tokens.
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
    let mut out = ws.attention_output(q.rows(), k.rows(), v.cols())?;
    let mut all = AttentionRows {
        rows: 0..q.rows(),
        scores: out.scores.as_mut_slice(),
        probs: out.probs.as_mut_slice(),
        output: out.output.as_mut_slice(),
    };
    let tier = ws.simd_tier();
    let decisions = pruned_attention_rows(q, k, v, cfg, threshold, padding, tier, &mut all)?;
    Ok((out, decisions))
}

/// One block of query rows of an [`AttentionOutput`]: its rows `rows`
/// of the scores, probabilities and outputs, the unit
/// [`pruned_attention_rows`] writes. [`AttentionOutput::row_blocks`]
/// cuts them, so workers can each fill their own block of one output.
#[derive(Debug)]
pub struct AttentionRows<'a> {
    /// The query rows of the block.
    pub rows: Range<usize>,
    /// The block's scores, `rows.len() × s_k`.
    pub scores: &'a mut [f32],
    /// The block's probabilities, `rows.len() × s_k`.
    pub probs: &'a mut [f32],
    /// The block's attention values, `rows.len() × d_v`.
    pub output: &'a mut [f32],
}

impl AttentionOutput {
    /// The three matrices cut into consecutive row blocks. `blocks`
    /// must tile `0..s_q` from 0 in order, as
    /// [`sprint_parallel::weighted_ranges`] returns them.
    ///
    /// # Panics
    ///
    /// Panics if the blocks reach past the matrices' rows.
    pub fn row_blocks(&mut self, blocks: &[Range<usize>]) -> Vec<AttentionRows<'_>> {
        let (s_k, d_v) = (self.scores.cols(), self.output.cols());
        let scores = sprint_parallel::split_ranges_mut(self.scores.as_mut_slice(), blocks, s_k);
        let probs = sprint_parallel::split_ranges_mut(self.probs.as_mut_slice(), blocks, s_k);
        let output = sprint_parallel::split_ranges_mut(self.output.as_mut_slice(), blocks, d_v);
        blocks
            .iter()
            .zip(scores.into_iter().zip(probs).zip(output))
            .map(|(rows, ((scores, probs), output))| AttentionRows {
                rows: rows.clone(),
                scores,
                probs,
                output,
            })
            .collect()
    }
}

/// The float kernel's row-range core: [`pruned_attention_with`]
/// restricted to the query rows `block.rows`, written into that
/// block's slices, returning the block's decisions. Every element of
/// the block is overwritten (what the slices held before is never
/// read), and every stage is row-independent — the `Q × Kᵀ` pass over
/// the block's live rows, the row stage, the AV walk — so the blocks
/// of one [`AttentionOutput`] may run on different workers in any
/// order, and together they hold `pruned_attention_with`'s bits.
///
/// `tier` is sanitized to what the host supports, as
/// [`Workspace::set_simd_tier`] does.
///
/// # Errors
///
/// As [`pruned_attention_with`], and
/// [`AttentionError::ShapeMismatch`] when the block's rows reach past
/// `q` or its slices do not hold exactly its rows.
///
/// # Example
///
/// ```
/// use sprint_attention::{
///     pruned_attention_rows, pruned_attention_with, AttentionConfig, AttentionOutput, Matrix,
///     Workspace,
/// };
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]])?;
/// let cfg = AttentionConfig::new(2);
/// let mut ws = Workspace::new();
/// let (whole, want) = pruned_attention_with(&q, &q, &q, &cfg, 0.1, None, &mut ws)?;
/// let (scores, probs, output) = (Matrix::zeros(3, 3)?, Matrix::zeros(3, 3)?, Matrix::zeros(3, 2)?);
/// let mut out = AttentionOutput { scores, probs, output };
/// let mut decisions = Vec::new();
/// for mut block in out.row_blocks(&[0..1, 1..3]) {
///     let tier = ws.simd_tier();
///     decisions.extend(pruned_attention_rows(&q, &q, &q, &cfg, 0.1, None, tier, &mut block)?);
/// }
/// assert_eq!((out, decisions), (whole, want));
/// # Ok(())
/// # }
/// ```
#[allow(clippy::too_many_arguments)]
pub fn pruned_attention_rows(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    threshold: f32,
    padding: Option<&PaddingMask>,
    tier: SimdTier,
    block: &mut AttentionRows<'_>,
) -> Result<Vec<PruneDecision>, AttentionError> {
    check_shapes(q, k, v)?;
    validate_padding(k, padding)?;
    let tier = crate::sanitize_tier(tier);
    let (s_q, s_k, d_v) = (q.rows(), k.rows(), v.cols());
    let rows = block.rows.clone();
    if rows.end > s_q {
        return Err(AttentionError::InvalidDimension {
            name: "block rows end",
            value: rows.end,
        });
    }
    let n = rows.len();
    for (len, width) in [
        (block.scores.len(), s_k),
        (block.probs.len(), s_k),
        (block.output.len(), d_v),
    ] {
        if len != n * width {
            return Err(AttentionError::ShapeMismatch {
                op: "attention row block",
                left: (len, 1),
                right: (n * width, 1),
            });
        }
    }
    let live_k = padding.map_or(s_k, |p| p.live());
    // Blocked Q·Kᵀ over the block's live region only; padded rows and
    // columns are masked below without ever computing their dot
    // products.
    let mut qk = |region: Range<usize>, cols: Range<usize>| {
        if !region.is_empty() {
            let first = (region.start - rows.start) * s_k;
            let out = &mut block.scores[first..first + region.len() * s_k];
            simd::matmul_transposed_scaled_into(tier, q, k, cfg.scale(), region, cols, out);
        }
    };
    match padding {
        None => qk(rows.clone(), 0..s_k),
        Some(p) => {
            qk(rows.start..rows.end.min(p.live()), 0..live_k);
            // Queries beyond the key mask are live (see
            // `query_is_live`).
            qk(rows.start.max(p.total())..rows.end, 0..live_k);
        }
    }
    let mut decisions = Vec::with_capacity(n);
    // Per-row AV plans, filled as each row's keep rate becomes known;
    // `(0, _)` (padded queries) leaves the output row at zero.
    let mut av_plans = vec![(0usize, false); n];
    // Every padded query carries the same all-pruned decision; build it
    // once and share the storage (decision clones are Arc bumps).
    let mut all_pruned: Option<PruneDecision> = None;
    let row_parts = rows
        .zip(block.scores.chunks_exact_mut(s_k))
        .zip(block.probs.chunks_exact_mut(s_k))
        .zip(&mut av_plans);
    for (((i, srow), prow), plan) in row_parts {
        if !query_is_live(i, padding) {
            // Padded query: everything pruned, zero prob/output rows.
            srow.fill(f32::NEG_INFINITY);
            prow.fill(0.0);
            decisions.push(
                all_pruned
                    .get_or_insert_with(|| PruneDecision::new(vec![true; s_k]))
                    .clone(),
            );
            continue;
        }
        // The row stage over the live keys. Padded keys (always
        // pruned) get the `true`-initialized flag tail, a `-inf` score
        // and exactly zero probability. The flag vector becomes the
        // returned decision — the only per-query allocation left on
        // this path.
        let mut flags = vec![true; s_k];
        let skip_zero = prune_row(
            tier,
            &mut srow[..live_k],
            &mut prow[..live_k],
            &mut flags[..live_k],
            threshold,
        );
        srow[live_k..].fill(f32::NEG_INFINITY);
        prow[live_k..].fill(0.0);
        *plan = (live_k, skip_zero);
        decisions.push(PruneDecision::new(flags));
    }
    // AV over surviving keys, all the block's rows in one stage (the
    // AVX2 tier key-panels `V` across rows), each row's chain from
    // zero.
    block.output.fill(0.0);
    simd::av_rows(
        tier,
        block.output,
        block.probs,
        v.as_slice(),
        d_v,
        &av_plans,
    );
    Ok(decisions)
}

/// The float kernel's per-row stage, shared by the batch and the
/// decode kernel (so their bit-identical contract holds by
/// construction). Over one row's live keys: the tiered prune scan
/// (Eq. 3, `s < threshold` as in `PruneDecision::from_scores`) writes
/// the pruned flags, masks pruned scores to `-inf` and stages the masked
/// row as the probability row; the exact softmax runs there in place
/// (pruned entries get exactly zero). Returns the row's AV walk: `true`
/// to skip pruned (exactly-zero) probabilities, so work scales with the
/// keep rate, `false` at or above [`DENSE_AV_CROSSOVER`] to stream every
/// key — bit-identical either way.
pub(crate) fn prune_row(
    tier: simd::SimdTier,
    srow: &mut [f32],
    prow: &mut [f32],
    flags: &mut [bool],
    threshold: f32,
) -> bool {
    let kept = simd::prune_mask_row(tier, srow, prow, flags, threshold);
    softmax_inplace_tier(prow, tier);
    (kept as f32) < DENSE_AV_CROSSOVER * srow.len() as f32
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
/// This is the materialising view of the recompute: the row core of
/// [`quantized_attention_output_with`] (kept-ordered scores and
/// probabilities, see there) runs unchanged, and its compact rows are
/// scattered into the whole `s_q × s_k` `scores` and `probs` returned
/// here, `-inf` and `0.0` at pruned positions. Callers that only need
/// the output take [`quantized_attention_output_with`] and never build
/// the two matrices.
///
/// # Errors
///
/// Shape errors as in [`pruned_attention_with`]; a decision slice, when
/// given, must contain one decision of length `k.rows()` per query.
pub fn quantized_attention_with(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    decisions: Option<&[PruneDecision]>,
    ws: &mut Workspace,
) -> Result<QuantizedAttentionOutput, AttentionError> {
    let mut scores = ws.filled_matrix(q.rows(), k.rows(), f32::NEG_INFINITY)?;
    let mut probs = ws.zeroed_matrix(q.rows(), k.rows())?;
    let output = recompute(q, k, v, cfg, decisions, ws, Some((&mut scores, &mut probs)))?;
    Ok(QuantizedAttentionOutput {
        scores,
        probs,
        output,
    })
}

/// The SPRINT on-chip recompute (§VI), output only: the attention
/// values of [`quantized_attention_with`], bit for bit, without its
/// `s_q × s_k` score and probability matrices.
///
/// Every stage costs what survived the prune. Each query row's kept
/// keys (`None` keeps all) own one `f32` slot per key in one
/// kept-ordered buffer: the QK-PU writes the row's dequantized 8-bit
/// scores there in one dispatch, the head-wide softmax range is the
/// largest score offset of any row, the two-LUT softmax turns the
/// scores into 8-bit probabilities in place, and the V-PU accumulates
/// the row's value codes in one more dispatch. Quantization params
/// come from each whole tensor, codes only for the query rows that
/// keep a key and the keys up to the largest kept one. Both stages
/// split the query rows over the workspace's width
/// ([`Workspace::set_threads`]), which never changes a bit.
///
/// # Errors
///
/// As [`quantized_attention_with`].
///
/// # Example
///
/// ```
/// use sprint_attention::{
///     quantized_attention_output_with, quantized_attention_with, AttentionConfig, Matrix,
///     PruneDecision, Workspace,
/// };
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let q = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let cfg = AttentionConfig::new(2);
/// let decisions = [PruneDecision::new(vec![false, true]), PruneDecision::new(vec![true, true])];
/// let mut ws = Workspace::new();
/// let out = quantized_attention_output_with(&q, &q, &q, &cfg, Some(&decisions), &mut ws)?;
/// let full = quantized_attention_with(&q, &q, &q, &cfg, Some(&decisions), &mut ws)?;
/// assert_eq!(out, full.output);
/// assert!(out.row(1).iter().all(|&x| x == 0.0), "a row that keeps nothing");
/// # Ok(())
/// # }
/// ```
pub fn quantized_attention_output_with(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    decisions: Option<&[PruneDecision]>,
    ws: &mut Workspace,
) -> Result<Matrix, AttentionError> {
    recompute(q, k, v, cfg, decisions, ws, None)
}

/// The recompute's reusable state, taken from the [`Workspace`] for
/// the length of a call: the kept lists, the kept-ordered value buffer
/// (one `f32` per kept pair: scores, then probabilities) and the 8-bit
/// codes of the rows the call reads (`i8`, the `KvCache` page format).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecomputeScratch {
    kept: KeptLists,
    values: Vec<f32>,
    q_codes: Vec<i8>,
    k_codes: Vec<i8>,
    v_codes: Vec<i8>,
}

impl RecomputeScratch {
    /// What a single-query decode step uses: the kept list, the row's
    /// kept-ordered slots and the query's codes.
    pub(crate) fn decode_parts(&mut self) -> (&mut KeptLists, &mut Vec<f32>, &mut Vec<i8>) {
        (&mut self.kept, &mut self.values, &mut self.q_codes)
    }
}

/// Writes each row's kept-ordered values to its kept positions of the
/// dense `dest`.
fn scatter(dest: &mut Matrix, kept: &KeptLists, values: &[f32]) {
    for i in 0..dest.rows() {
        let row = dest.row_mut(i);
        for (&j, &x) in kept.row(i).iter().zip(&values[kept.span(i)]) {
            row[j as usize] = x;
        }
    }
}

/// The rows `rows` of a block, each with its kept-ordered slots cut in
/// turn from the block's `values`.
fn row_slots<'a>(
    kept: &'a KeptLists,
    rows: Range<usize>,
    mut values: &'a mut [f32],
) -> impl Iterator<Item = (usize, &'a mut [f32])> + 'a {
    rows.map(move |i| {
        let (row, rest) = std::mem::take(&mut values).split_at_mut(kept.row(i).len());
        values = rest;
        (i, row)
    })
}

/// The batch recompute's one pipeline. With `dense` (the score and
/// probability matrices of [`quantized_attention_with`], filled with
/// `-inf` and `0.0`) it scatters each stage's kept-ordered rows there
/// on the way.
fn recompute(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    decisions: Option<&[PruneDecision]>,
    ws: &mut Workspace,
    mut dense: Option<(&mut Matrix, &mut Matrix)>,
) -> Result<Matrix, AttentionError> {
    check_shapes(q, k, v)?;
    let tier = ws.simd_tier();
    let (s_q, s_k, d, d_v) = (q.rows(), k.rows(), q.cols(), v.cols());
    validate_decisions(s_q, s_k, decisions)?;
    let mut scratch = std::mem::take(&mut ws.recompute);
    let RecomputeScratch {
        kept,
        values,
        q_codes,
        k_codes,
        v_codes,
    } = &mut scratch;
    kept.fill(s_k, decisions)?;
    let kept = &*kept;

    // 8-bit per-tensor symmetric quantization: each tensor's params
    // from its whole range, codes only where the stages read them.
    let (qp, kp, vp) = (
        QuantParams::for_matrix(8, q)?,
        QuantParams::for_matrix(8, k)?,
        QuantParams::for_matrix(8, v)?,
    );
    q_codes.resize(s_q * d, 0);
    for i in (0..s_q).filter(|&i| !kept.row(i).is_empty()) {
        qp.quantize_i8_into(q.row(i), &mut q_codes[i * d..(i + 1) * d]);
    }
    let key_end = kept.key_end();
    k_codes.resize(key_end * d, 0);
    kp.quantize_i8_into(k.as_slice(), k_codes);
    v_codes.resize(key_end * d_v, 0);
    vp.quantize_i8_into(v.as_slice(), v_codes);
    let score_lsb = qp.step() * kp.step() * cfg.scale();
    values.resize(kept.spans(0..s_q).len(), 0.0);

    // Both stages split the query rows over the workspace's width,
    // balanced by kept keys (a padded row costs next to nothing). Rows
    // are independent, so the split never changes a bit.
    let blocks = sprint_parallel::weighted_ranges(s_q, ws.threads, |i| kept.row(i).len() + 1);
    let block_slots: Vec<Range<usize>> = blocks.iter().map(|r| kept.spans(r.clone())).collect();

    // The QK-PU, and per block the largest score offset of its rows:
    // an `f32::max` over finite offsets, the same whichever worker
    // folds which row.
    let key = |j: usize| &k_codes[j * d..(j + 1) * d];
    let mut parts: Vec<_> = blocks
        .iter()
        .cloned()
        .zip(sprint_parallel::split_ranges_mut(values, &block_slots, 1))
        .map(|(rows, slots)| (rows, slots, 1.0f32))
        .collect();
    sprint_parallel::fan_out(&mut parts, |_, (rows, slots, offset)| {
        for (i, row) in row_slots(kept, rows.clone(), slots) {
            let q_codes = &q_codes[i * d..(i + 1) * d];
            *offset = offset.max(score_row(tier, q_codes, kept.row(i), key, score_lsb, row));
        }
        Ok::<_, AttentionError>(())
    })?;
    let max_offset = parts.iter().fold(1.0f32, |m, part| m.max(part.2));
    if let Some((scores, _)) = dense.as_mut() {
        scatter(scores, kept, values);
    }

    // The two-LUT softmax in place, then the V-PU.
    let unit = SoftmaxLut::new(max_offset.max(1e-3))?;
    let out_lsb = vp.step() / 255.0;
    let mut output = ws.zeroed_matrix(s_q, d_v)?;
    let value = |j: usize| &v_codes[j * d_v..(j + 1) * d_v];
    let accs = ws.acc_rows(blocks.len(), d_v);
    let mut parts: Vec<_> = blocks
        .iter()
        .cloned()
        .zip(sprint_parallel::split_ranges_mut(values, &block_slots, 1))
        .zip(sprint_parallel::split_ranges_mut(
            output.as_mut_slice(),
            &blocks,
            d_v,
        ))
        .zip(accs.iter_mut())
        .collect();
    sprint_parallel::fan_out(&mut parts, |_, (((rows, slots), outs), acc)| {
        let rows = row_slots(kept, rows.clone(), slots).zip(outs.chunks_exact_mut(d_v));
        for ((i, row), out_row) in rows {
            output_row(tier, &unit, kept.row(i), row, value, out_lsb, acc, out_row);
        }
        Ok::<_, AttentionError>(())
    })?;
    if let Some((_, probs)) = dense {
        scatter(probs, kept, values);
    }
    ws.recompute = scratch;
    Ok(output)
}

/// The row core's first stage, shared by the batch and the decode
/// kernel (so their bit-identical contract holds by construction):
/// the QK-PU writes the dequantized score of each of the row's kept
/// keys to `row`, in kept order, and the row's largest score offset
/// `max − min` comes back (0 for a row that keeps nothing) for the
/// caller to fold into the softmax range.
pub(crate) fn score_row<'k>(
    tier: simd::SimdTier,
    q_codes: &[i8],
    kept: &[u32],
    key: impl Fn(usize) -> &'k [i8],
    score_lsb: f32,
    row: &mut [f32],
) -> f32 {
    if kept.is_empty() {
        return 0.0;
    }
    simd::qk_row(tier, q_codes, kept, key, score_lsb, row);
    // Subtracting from a fixed maximum is monotone, so the largest
    // offset is the one from the smallest score.
    let (lo, hi) = min_max(row);
    hi - lo
}

/// The smallest and largest entry of `row`, NaN ignored, by
/// [`crate::matrix::fold_lanes`] of the selects `v < lo ? v : lo` and
/// `v > hi ? v : hi`: the values of the `f32::min` / `f32::max` folds
/// (a score is never `-0.0`, so no zero's sign is in question).
fn min_max(row: &[f32]) -> (f32, f32) {
    use crate::matrix::fold_lanes;
    (
        fold_lanes(row, f32::INFINITY, |lo, v| if v < lo { v } else { lo }),
        fold_lanes(row, f32::NEG_INFINITY, |hi, v| if v > hi { v } else { hi }),
    )
}

/// The row core's second stage: the two-LUT softmax turns the row's
/// kept-ordered scores into 8-bit probabilities in place, the V-PU
/// sums 8-bit probability codes × 8-bit value codes in `i32` into
/// `acc`, and each sum is clamped to 16 bits and dequantized into
/// `out_row`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn output_row<'v>(
    tier: simd::SimdTier,
    unit: &SoftmaxLut,
    kept: &[u32],
    row: &mut [f32],
    value: impl Fn(usize) -> &'v [i8],
    out_lsb: f32,
    acc: &mut [i32],
    out_row: &mut [f32],
) {
    unit.probabilities_in_place(row, tier);
    simd::vpu_row(tier, acc, kept, row, value);
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

    /// Dense attention: the one float kernel with nothing pruned.
    fn dense_attention(
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        cfg: &AttentionConfig,
        ws: &mut Workspace,
    ) -> Result<AttentionOutput, AttentionError> {
        pruned_attention_with(q, k, v, cfg, f32::MIN, None, ws).map(|(out, _)| out)
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
        let out = dense_attention(&q, &k, &v, &AttentionConfig::new(4), ws).unwrap();
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
    fn the_row_split_recompute_is_bit_identical_at_every_width() {
        // 40 queries, the last 12 padded (all pruned); the live rows
        // keep between 0 and all 40 keys.
        let cfg = AttentionConfig::new(16);
        let (q, k, v) = (wavy(40, 16, 0.3), wavy(40, 16, 1.1), wavy(40, 16, 2.7));
        let decisions: Vec<PruneDecision> = (0..40)
            .map(|i| {
                PruneDecision::new(
                    (0..40)
                        .map(|j| i >= 28 || (i * 7 + j * 3) % (i % 5 + 2) != 0)
                        .collect(),
                )
            })
            .collect();
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for decided in [Some(&decisions[..]), None] {
            let mut ws = Workspace::new();
            let want = quantized_attention_with(&q, &k, &v, &cfg, decided, &mut ws).unwrap();
            for threads in 2..=4 {
                ws.set_threads(threads);
                let got = quantized_attention_with(&q, &k, &v, &cfg, decided, &mut ws).unwrap();
                assert_eq!(bits(&got.scores), bits(&want.scores), "{threads} threads");
                assert_eq!(bits(&got.probs), bits(&want.probs), "{threads} threads");
                assert_eq!(bits(&got.output), bits(&want.output), "{threads} threads");
                ws.recycle(got.scores);
                ws.recycle(got.probs);
                ws.recycle(got.output);
            }
        }
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
                // Oracle: the tier's skip walk over the kernel's
                // probability rows.
                for i in 0..q.rows() {
                    let mut expected = vec![0.0f32; v.cols()];
                    let (probs, d_v) = (out.probs.row(i), v.cols());
                    crate::simd::av_row(tier, &mut expected, probs, v.as_slice(), d_v, true);
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
        let out = dense_attention(&q, &k, &v, &AttentionConfig::new(4), ws).unwrap();
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
        assert!(dense_attention(&q, &k, &v, &AttentionConfig::new(3), ws).is_err());
        let k2 = Matrix::zeros(2, 3).unwrap();
        let v2 = Matrix::zeros(3, 3).unwrap();
        assert!(dense_attention(&q, &k2, &v2, &AttentionConfig::new(3), ws).is_err());
    }

    #[test]
    fn pruned_attention_with_low_threshold_matches_dense() {
        let ws = &mut Workspace::new();
        let (q, k, v) = small_qkv();
        let cfg = AttentionConfig::new(4);
        let dense = crate::reference::dense_attention_naive(&q, &k, &v, &cfg).unwrap();
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
        let dense = dense_attention(&q, &k, &v, &cfg, &mut ws).unwrap();
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
        let dense = dense_attention(&q, &k, &v, &cfg, ws).unwrap();
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
