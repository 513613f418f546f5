//! Single-query decode kernels and the paged, appendable KV cache.
//!
//! Autoregressive decode issues one query per step against a growing
//! key/value history. The kernels here are the single-query
//! counterparts of the fused batch kernels in [`crate::attention`]
//! (`*_decode_with` mirrors `*_with`), and [`KvCache`] is the
//! append-only history they run against: float K/V rows plus their
//! cached 8-bit quantizations, grown one token at a time and
//! requantized only when a new token widens the calibrated range.
//!
//! The storage is paged: rows live in fixed-size pages drawn from a
//! shared [`crate::PagePool`], so thousands of concurrent sessions can
//! share one exactly-accounted memory budget and an evicted session
//! returns whole pages to the pool (see `paged.rs`). Appends cross
//! page boundaries transparently; `push` semantics and the running-max
//! requantization contract are unchanged from the monolithic cache.
//!
//! **Equivalence contract.** Every decode kernel is bit-identical to
//! its batch sibling called with a one-row `Q` over the same history —
//! `tests/fused_equivalence.rs` and the engine's `decode.rs` suite pin
//! this. That is what lets a stateful decode session prove itself
//! against a fresh full-prefix oracle at every step, and what makes
//! eviction safe: a rehydrated cache rebuilt from the same rows is the
//! same cache, bit for bit.

use crate::attention::{
    check_shapes, quantized_score_row_into, softmax_vpu_row_into, DENSE_AV_CROSSOVER,
};
use crate::paged::{PageBuffers, PagePool, DEFAULT_PAGE_BYTES};
use crate::simd;
use crate::{
    dense_attention_with, quantize_matrix, AttentionConfig, AttentionError, Matrix, PruneDecision,
    QuantParams, SoftmaxLut, Workspace,
};

/// One page of history: a slice of the K/V rows and their codes, plus
/// the quantization parameters those codes were written under (always
/// equal to the cache-wide params — updated in place on requantize).
#[derive(Debug)]
struct Page {
    buf: PageBuffers,
    k_params: QuantParams,
    v_params: QuantParams,
}

/// The append-only key/value history of one decode session, stored in
/// fixed-size pages from a shared [`PagePool`].
///
/// Holds the float `K`/`V` rows **and** their 8-bit quantized codes,
/// maintained under the invariant that the cached codes always equal
/// `quantize_matrix(gather, 8)` over the full history: a pushed token
/// whose magnitude fits the calibrated range appends one quantized row
/// (`O(d)`); a token that widens the range forces a full
/// requantization (`O(s·d)`, rare — the range is a running maximum),
/// reported through [`KvDelta`] so callers can account the
/// recalibration.
///
/// Dropping the cache returns every page to its pool, which is how the
/// session layers evict a cold session without losing its (externally
/// retained) token history.
///
/// # Example
///
/// ```
/// use sprint_attention::{KvCache, Matrix};
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let k = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let mut cache = KvCache::new(&k, &k)?;
/// let delta = cache.push(&[0.5, -0.5], &[0.25, 0.25])?;
/// assert_eq!(cache.len(), 3);
/// assert!(!delta.requantized_k, "in-range token appends cheaply");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KvCache {
    pool: PagePool,
    d: usize,
    d_v: usize,
    tokens_per_page: usize,
    len: usize,
    pages: Vec<Page>,
    k_params: QuantParams,
    v_params: QuantParams,
    /// Running `max_abs` of the K / V history (append-only histories
    /// never shrink their range), so the per-push params check is
    /// `O(d)` instead of an `O(s·d)` full-history rescan.
    k_max_abs: f32,
    v_max_abs: f32,
}

/// What one [`KvCache::push`] had to do to keep the quantized images
/// exact: `false` flags mean the token's row was appended under the
/// existing params, `true` means the whole history was requantized
/// because the token widened the calibrated range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvDelta {
    /// The key history was requantized from scratch.
    pub requantized_k: bool,
    /// The value history was requantized from scratch.
    pub requantized_v: bool,
}

impl KvCache {
    /// Builds the cache from the prefill history in a private unbounded
    /// pool (for standalone use; sessions share a pool via
    /// [`KvCache::new_in`]). `k` and `v` must agree on the sequence
    /// length.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::ShapeMismatch`] when the sequence
    /// lengths differ; quantization errors otherwise.
    pub fn new(k: &Matrix, v: &Matrix) -> Result<Self, AttentionError> {
        KvCache::new_in(&PagePool::unbounded(DEFAULT_PAGE_BYTES), k, v)
    }

    /// Builds the cache from the prefill history, drawing pages from
    /// `pool`. On any error (including pool exhaustion part-way
    /// through the prefill) every page taken so far is returned to the
    /// pool.
    ///
    /// # Errors
    ///
    /// Shape and quantization errors as in [`KvCache::new`];
    /// [`AttentionError::PoolExhausted`] when a bounded pool cannot
    /// hold the prefill.
    pub fn new_in(pool: &PagePool, k: &Matrix, v: &Matrix) -> Result<Self, AttentionError> {
        if k.rows() != v.rows() {
            return Err(AttentionError::ShapeMismatch {
                op: "kv cache k/v sequence",
                left: k.shape(),
                right: v.shape(),
            });
        }
        let (d, d_v) = (k.cols(), v.cols());
        let k_max_abs = k.max_abs();
        let v_max_abs = v.max_abs();
        let k_params = QuantParams::for_max_abs(8, k_max_abs)?;
        let v_params = QuantParams::for_max_abs(8, v_max_abs)?;
        let mut cache = KvCache {
            pool: pool.clone(),
            d,
            d_v,
            tokens_per_page: pool.tokens_per_page(d, d_v),
            len: 0,
            pages: Vec::new(),
            k_params,
            v_params,
            k_max_abs,
            v_max_abs,
        };
        // Params are calibrated to the full prefill up front, so each
        // appended row quantizes exactly as a from-scratch
        // `quantize_matrix` of the whole history would (row-major,
        // per-element, same params).
        for t in 0..k.rows() {
            cache.append_row(k.row(t), v.row(t))?;
        }
        Ok(cache)
    }

    /// Appends one token's key and value rows, keeping the quantized
    /// images exactly equal to a from-scratch quantization of the
    /// grown history (requantizing only when the token widens the
    /// calibrated range). Appends cross page boundaries transparently,
    /// drawing a page from the pool when the last one is full.
    ///
    /// The push is atomic: both rows are validated — and the page, if
    /// one is needed, is acquired — before anything mutates, so on
    /// error (including [`AttentionError::PoolExhausted`]) the cache
    /// and its documented invariant are exactly as they were, and the
    /// push can be retried after the caller frees pool capacity.
    ///
    /// # Errors
    ///
    /// Shape errors for wrong row lengths; quantization errors for
    /// non-finite values; pool exhaustion when a bounded pool has no
    /// page for the boundary crossing.
    pub fn push(&mut self, k_row: &[f32], v_row: &[f32]) -> Result<KvDelta, AttentionError> {
        if k_row.len() != self.d {
            return Err(AttentionError::ShapeMismatch {
                op: "kv cache k row",
                left: (1, k_row.len()),
                right: (1, self.d),
            });
        }
        if v_row.len() != self.d_v {
            return Err(AttentionError::ShapeMismatch {
                op: "kv cache v row",
                left: (1, v_row.len()),
                right: (1, self.d_v),
            });
        }
        // All remaining fallible work up front: fold both rows into
        // candidate running maxima (the same fold [`Matrix::max_abs`]
        // performs, grouped over (prefix, new row) — `O(d)`, and
        // bit-identical to a from-scratch scan), derive both
        // quantizers, and acquire the page if this push crosses a
        // boundary. A non-finite value or an exhausted pool errors
        // *here*, before any mutation.
        let k_max = k_row.iter().fold(self.k_max_abs, |m, v| m.max(v.abs()));
        let v_max = v_row.iter().fold(self.v_max_abs, |m, v| m.max(v.abs()));
        let k_params = QuantParams::for_max_abs(8, k_max)?;
        let v_params = QuantParams::for_max_abs(8, v_max)?;
        self.append_row(k_row, v_row)?;
        self.k_max_abs = k_max;
        self.v_max_abs = v_max;
        let requantized_k = k_params != self.k_params;
        if requantized_k {
            self.requantize_k(k_params);
        } else {
            self.write_k_codes(self.len - 1, k_row);
        }
        let requantized_v = v_params != self.v_params;
        if requantized_v {
            self.requantize_v(v_params);
        } else {
            self.write_v_codes(self.len - 1, v_row);
        }
        Ok(KvDelta {
            requantized_k,
            requantized_v,
        })
    }

    /// Appends the float rows plus their codes under the *current*
    /// params (callers requantize afterwards if the params moved),
    /// drawing a page when the last one is full. The only fallible
    /// step is the pool allocation, and it happens before any
    /// mutation.
    fn append_row(&mut self, k_row: &[f32], v_row: &[f32]) -> Result<(), AttentionError> {
        if self.len == self.pages.len() * self.tokens_per_page {
            let buf = self.pool.allocate(self.d, self.d_v, self.tokens_per_page)?;
            self.pages.push(Page {
                buf,
                k_params: self.k_params,
                v_params: self.v_params,
            });
        }
        let slot = self.len % self.tokens_per_page;
        let page = self.pages.last_mut().expect("page just ensured");
        page.buf.k_floats[slot * self.d..(slot + 1) * self.d].copy_from_slice(k_row);
        page.buf.v_floats[slot * self.d_v..(slot + 1) * self.d_v].copy_from_slice(v_row);
        self.len += 1;
        self.write_k_codes(self.len - 1, k_row);
        self.write_v_codes(self.len - 1, v_row);
        Ok(())
    }

    fn write_k_codes(&mut self, j: usize, k_row: &[f32]) {
        let (p, slot) = (j / self.tokens_per_page, j % self.tokens_per_page);
        let params = self.k_params;
        let page = &mut self.pages[p];
        for (code, &x) in page.buf.k_codes[slot * self.d..(slot + 1) * self.d]
            .iter_mut()
            .zip(k_row)
        {
            *code = params.quantize(x) as i8;
        }
    }

    fn write_v_codes(&mut self, j: usize, v_row: &[f32]) {
        let (p, slot) = (j / self.tokens_per_page, j % self.tokens_per_page);
        let params = self.v_params;
        let page = &mut self.pages[p];
        for (code, &x) in page.buf.v_codes[slot * self.d_v..(slot + 1) * self.d_v]
            .iter_mut()
            .zip(v_row)
        {
            *code = params.quantize(x) as i8;
        }
    }

    /// Rewrites every key code under `params` (the token that widened
    /// the range is already stored as floats). Row-major over the
    /// occupied slots, so the result equals `quantize_matrix` of the
    /// gathered history bit for bit.
    fn requantize_k(&mut self, params: QuantParams) {
        self.k_params = params;
        for p in 0..self.pages.len() {
            let tokens = self.page_tokens(p);
            let d = self.d;
            let page = &mut self.pages[p];
            page.k_params = params;
            for (code, &x) in page.buf.k_codes[..tokens * d]
                .iter_mut()
                .zip(&page.buf.k_floats[..tokens * d])
            {
                *code = params.quantize(x) as i8;
            }
        }
    }

    /// [`KvCache::requantize_k`] for the value side.
    fn requantize_v(&mut self, params: QuantParams) {
        self.v_params = params;
        for p in 0..self.pages.len() {
            let tokens = self.page_tokens(p);
            let d_v = self.d_v;
            let page = &mut self.pages[p];
            page.v_params = params;
            for (code, &x) in page.buf.v_codes[..tokens * d_v]
                .iter_mut()
                .zip(&page.buf.v_floats[..tokens * d_v])
            {
                *code = params.quantize(x) as i8;
            }
        }
    }

    /// Occupied tokens in page `p` (all pages but the last are full).
    fn page_tokens(&self, p: usize) -> usize {
        (self.len - p * self.tokens_per_page).min(self.tokens_per_page)
    }

    /// Tokens in the history.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the history is empty (never true — construction
    /// requires a non-empty prefill — but conventional next to `len`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The key embedding width `d`.
    pub fn embed_dim(&self) -> usize {
        self.d
    }

    /// The value width `d_v`.
    pub fn value_dim(&self) -> usize {
        self.d_v
    }

    /// Key row `j` of the history.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    pub fn k_row(&self, j: usize) -> &[f32] {
        assert!(j < self.len, "kv row {j} out of bounds (len {})", self.len);
        let (p, slot) = (j / self.tokens_per_page, j % self.tokens_per_page);
        &self.pages[p].buf.k_floats[slot * self.d..(slot + 1) * self.d]
    }

    /// Value row `j` of the history.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    pub fn v_row(&self, j: usize) -> &[f32] {
        assert!(j < self.len, "kv row {j} out of bounds (len {})", self.len);
        let (p, slot) = (j / self.tokens_per_page, j % self.tokens_per_page);
        &self.pages[p].buf.v_floats[slot * self.d_v..(slot + 1) * self.d_v]
    }

    /// The cached 8-bit codes of key row `j` (equal to quantizing the
    /// row under [`KvCache::k_params`] at all times).
    pub fn k_code_row(&self, j: usize) -> &[i8] {
        let (p, slot) = (j / self.tokens_per_page, j % self.tokens_per_page);
        &self.pages[p].buf.k_codes[slot * self.d..(slot + 1) * self.d]
    }

    /// The cached 8-bit codes of value row `j`.
    pub fn v_code_row(&self, j: usize) -> &[i8] {
        let (p, slot) = (j / self.tokens_per_page, j % self.tokens_per_page);
        &self.pages[p].buf.v_codes[slot * self.d_v..(slot + 1) * self.d_v]
    }

    /// The quantizer behind the cached key codes (calibrated to the
    /// running key range).
    pub fn k_params(&self) -> QuantParams {
        self.k_params
    }

    /// The quantizer behind the cached value codes.
    pub fn v_params(&self) -> QuantParams {
        self.v_params
    }

    /// The running `max_abs` of the key history.
    pub fn k_max_abs(&self) -> f32 {
        self.k_max_abs
    }

    /// The running `max_abs` of the value history.
    pub fn v_max_abs(&self) -> f32 {
        self.v_max_abs
    }

    /// An owned contiguous copy of the key history (`s × d`) — the
    /// `O(s·d)` gather for consumers that need a [`Matrix`], e.g.
    /// (re)programming the in-memory pruner on recalibration.
    pub fn gather_k(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.len * self.d);
        for (p, page) in self.pages.iter().enumerate() {
            data.extend_from_slice(&page.buf.k_floats[..self.page_tokens(p) * self.d]);
        }
        Matrix::from_vec(self.len, self.d, data).expect("paged history is non-empty and exact")
    }

    /// An owned contiguous copy of the value history (`s × d_v`).
    pub fn gather_v(&self) -> Matrix {
        let mut data = Vec::with_capacity(self.len * self.d_v);
        for (p, page) in self.pages.iter().enumerate() {
            data.extend_from_slice(&page.buf.v_floats[..self.page_tokens(p) * self.d_v]);
        }
        Matrix::from_vec(self.len, self.d_v, data).expect("paged history is non-empty and exact")
    }

    /// Pages this cache currently holds.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }

    /// The pool this cache draws from.
    pub fn pool(&self) -> &PagePool {
        &self.pool
    }
}

impl Drop for KvCache {
    fn drop(&mut self) {
        for page in self.pages.drain(..) {
            self.pool.release(page.buf);
        }
    }
}

/// Checks that `q` is a single query row matching the history's
/// embedding.
fn check_decode_query(q: &Matrix, k: &Matrix) -> Result<(), AttentionError> {
    if q.rows() != 1 {
        return Err(AttentionError::ShapeMismatch {
            op: "decode query (one row expected)",
            left: q.shape(),
            right: (1, k.cols()),
        });
    }
    check_shapes(q, k, k)
}

/// [`check_decode_query`] against a paged cache (same error shapes and
/// op strings as the matrix form).
fn check_decode_query_cached(q: &Matrix, kv: &KvCache) -> Result<(), AttentionError> {
    if q.rows() != 1 {
        return Err(AttentionError::ShapeMismatch {
            op: "decode query (one row expected)",
            left: q.shape(),
            right: (1, kv.embed_dim()),
        });
    }
    if q.cols() != kv.embed_dim() {
        return Err(AttentionError::ShapeMismatch {
            op: "attention q/k embedding",
            left: q.shape(),
            right: (kv.len(), kv.embed_dim()),
        });
    }
    Ok(())
}

/// Single-query dense attention: one output row of
/// `softmax(scale · q Kᵀ) × V`, bit-identical to
/// [`dense_attention_with`] over the same one-row `Q` (it *is* that
/// call, with the intermediate matrices recycled into the workspace).
///
/// # Errors
///
/// Shape errors as in [`dense_attention_with`]; additionally `q` must
/// hold exactly one row.
pub fn dense_attention_decode_with(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &AttentionConfig,
    ws: &mut Workspace,
) -> Result<Vec<f32>, AttentionError> {
    check_decode_query(q, k)?;
    let out = dense_attention_with(q, k, v, cfg, ws)?;
    ws.recycle(out.scores);
    ws.recycle(out.probs);
    Ok(out.output.into_vec())
}

/// Single-query runtime-pruned attention reading K/V straight from a
/// paged [`KvCache`] — no gather: the output row plus the step's
/// [`PruneDecision`], bit-identical to
/// [`crate::pruned_attention_with`] over the same one-row `Q` and the
/// cache's gathered history without padding. The per-key score is the
/// same four-lane `dot` reduction the blocked `Q × Kᵀ` pass performs
/// for a one-row `Q`, and the mask/softmax/sparse-AV flow is the batch
/// kernel's, verbatim, over page-resident rows. `threshold ==
/// f32::MIN` reduces to the dense baseline with an all-kept decision —
/// the digital decode pipelines (Dense/Oracle) both route through
/// here.
///
/// # Errors
///
/// Shape errors as in [`crate::pruned_attention_with`]; additionally
/// `q` must hold exactly one row.
pub fn pruned_attention_decode_cached_with(
    q: &Matrix,
    kv: &KvCache,
    cfg: &AttentionConfig,
    threshold: f32,
    ws: &mut Workspace,
) -> Result<(Vec<f32>, PruneDecision), AttentionError> {
    check_decode_query_cached(q, kv)?;
    let tier = ws.simd_tier();
    let s_k = kv.len();
    let q_row = q.row(0);
    let mut scores = ws.zeroed_matrix(1, s_k)?;
    let mut probs = ws.zeroed_matrix(1, s_k)?;
    let mut output = vec![0.0f32; kv.value_dim()];
    let mut flags = vec![true; s_k];
    {
        let srow = scores.row_mut(0);
        for (j, slot) in srow.iter_mut().enumerate() {
            *slot = cfg.scale() * simd::dot(tier, q_row, kv.k_row(j));
        }
        let prow = probs.row_mut(0);
        let mut kept = 0usize;
        for ((flag, s), p) in flags.iter_mut().zip(srow.iter_mut()).zip(prow.iter_mut()) {
            let pruned = *s < threshold;
            *flag = pruned;
            kept += usize::from(!pruned);
            let masked = if pruned { f32::NEG_INFINITY } else { *s };
            *s = masked;
            *p = masked;
        }
        crate::softmax::softmax_inplace_tier(prow, tier);
        // Same kept-fraction crossover as the batch kernel: at low
        // sparsity stream every key (a visited zero probability is a
        // bit-exact no-op), below it skip pruned keys.
        let skip_zero = (kept as f32) < DENSE_AV_CROSSOVER * s_k as f32;
        for (j, &p) in prow.iter().enumerate() {
            if !skip_zero || p != 0.0 {
                simd::axpy(tier, &mut output, p, kv.v_row(j));
            }
        }
    }
    ws.recycle(scores);
    ws.recycle(probs);
    Ok((output, PruneDecision::new(flags)))
}

/// Single-query quantized (hardware-datapath) attention over a paged
/// [`KvCache`]: the on-chip recompute stage of one decode step.
///
/// Bit-identical to [`crate::quantized_attention_with`] called with
/// the same one-row `Q`, the cache's gathered float `K`/`V` and the
/// same decision — but the per-call `K`/`V` quantization (`O(s·d)`) is
/// replaced by the cache's incrementally maintained page-resident
/// codes, so a step costs `O(kept·d)` in the MAC stages plus the
/// unavoidable `O(s)` softmax staging. Only the query is quantized per
/// call (its DAC/datapath calibration is per-step by design).
///
/// # Errors
///
/// Shape errors as in [`crate::quantized_attention_with`];
/// additionally `q` must hold exactly one row.
pub fn quantized_attention_decode_with(
    q: &Matrix,
    kv: &KvCache,
    cfg: &AttentionConfig,
    decision: Option<&PruneDecision>,
    ws: &mut Workspace,
) -> Result<Vec<f32>, AttentionError> {
    check_decode_query_cached(q, kv)?;
    let tier = ws.simd_tier();
    let s_k = kv.len();
    if let Some(d) = decision {
        if d.len() != s_k {
            return Err(AttentionError::ShapeMismatch {
                op: "pruning decision length",
                left: (d.len(), 1),
                right: (s_k, 1),
            });
        }
    }

    let mut kept = std::mem::take(&mut ws.kept);
    kept.fill(s_k, decision.map(std::slice::from_ref))?;
    let kept_row = kept.row(0);

    // Per-step 8-bit query quantization; K/V codes come from the
    // cache's pages.
    let qq = quantize_matrix(q, 8)?;
    let score_lsb = qq.params().step() * kv.k_params().step() * cfg.scale();

    // The batch kernel's row core over this step's single row, each
    // key's codes read from its page: QK-PU MACs over kept keys, the
    // same per-call softmax range rule (largest finite score offset),
    // two-LUT softmax, V-PU.
    let q_codes = qq.code_row(0);
    let mut scores = ws.filled_matrix(1, s_k, f32::NEG_INFINITY)?;
    let max_offset = 1.0f32.max(quantized_score_row_into(
        kept_row,
        |j| simd::idot_i8(tier, q_codes, kv.k_code_row(j)),
        score_lsb,
        scores.row_mut(0),
    ));
    let unit = SoftmaxLut::new(max_offset.max(1e-3))?;
    let mut probs = ws.zeroed_matrix(1, s_k)?;
    let d_v = kv.value_dim();
    let mut output = vec![0.0f32; d_v];
    softmax_vpu_row_into(
        &unit,
        kept_row,
        scores.row(0),
        probs.row_mut(0),
        |acc, p_code, j| simd::vpu_accumulate_i8(tier, acc, p_code, kv.v_code_row(j)),
        kv.v_params().step() / 255.0,
        ws.acc_row(d_v),
        &mut output,
    );
    ws.kept = kept;
    ws.recycle(scores);
    ws.recycle(probs);
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dense_attention_with, pruned_attention_with, quantized_attention_with};

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / 8388608.0) - 1.0
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
    }

    fn one_row(m: &Matrix, r: usize) -> Matrix {
        Matrix::from_vec(1, m.cols(), m.row(r).to_vec()).unwrap()
    }

    /// A pool whose pages hold ~`tokens` tokens of a `(d, d_v)`
    /// layout, so small test histories still cross page boundaries.
    fn tiny_pool(tokens: usize, d: usize, d_v: usize) -> PagePool {
        PagePool::unbounded(tokens * 5 * (d + d_v))
    }

    /// The cache's codes must equal a from-scratch quantization of the
    /// gathered history — the paged form of the exactness invariant.
    fn assert_codes_exact(cache: &KvCache, label: &str) {
        let fresh_k = quantize_matrix(&cache.gather_k(), 8).unwrap();
        let fresh_v = quantize_matrix(&cache.gather_v(), 8).unwrap();
        assert_eq!(cache.k_params(), fresh_k.params(), "{label}: k params");
        assert_eq!(cache.v_params(), fresh_v.params(), "{label}: v params");
        for j in 0..cache.len() {
            let k_codes: Vec<i32> = cache.k_code_row(j).iter().map(|&c| i32::from(c)).collect();
            let v_codes: Vec<i32> = cache.v_code_row(j).iter().map(|&c| i32::from(c)).collect();
            assert_eq!(
                k_codes.as_slice(),
                fresh_k.code_row(j),
                "{label}: k row {j}"
            );
            assert_eq!(
                v_codes.as_slice(),
                fresh_v.code_row(j),
                "{label}: v row {j}"
            );
        }
    }

    #[test]
    fn kv_cache_tracks_from_scratch_quantization_across_page_boundaries() {
        let k_all = random_matrix(40, 16, 1);
        let v_all = random_matrix(40, 16, 2);
        // Five tokens per page: the 40-token history spans eight pages.
        let pool = tiny_pool(5, 16, 16);
        let mut cache = KvCache::new_in(
            &pool,
            &Matrix::from_vec(8, 16, k_all.as_slice()[..8 * 16].to_vec()).unwrap(),
            &Matrix::from_vec(8, 16, v_all.as_slice()[..8 * 16].to_vec()).unwrap(),
        )
        .unwrap();
        for t in 8..40 {
            cache.push(k_all.row(t), v_all.row(t)).unwrap();
            assert_codes_exact(&cache, &format!("t = {t}"));
            assert_eq!(cache.k_row(t), k_all.row(t), "float rows survive paging");
        }
        assert_eq!(cache.len(), 40);
        assert!(!cache.is_empty());
        assert_eq!(cache.pages(), 8);
        assert_eq!(pool.pages_in_use(), 8);
        assert_eq!(cache.gather_k().as_slice(), k_all.as_slice());
        assert_eq!(cache.gather_v().as_slice(), v_all.as_slice());
        drop(cache);
        assert_eq!(pool.pages_in_use(), 0, "dropping the cache frees its pages");
    }

    #[test]
    fn kv_cache_requantizes_when_the_range_widens() {
        let k = random_matrix(8, 8, 3);
        let mut cache = KvCache::new_in(&tiny_pool(3, 8, 8), &k, &k).unwrap();
        let wide: Vec<f32> = k.row(0).iter().map(|x| x * 5.0).collect();
        let delta = cache.push(&wide, k.row(1)).unwrap();
        assert!(delta.requantized_k, "5x token must widen the K range");
        assert!(!delta.requantized_v);
        assert_codes_exact(&cache, "after recalibration");
    }

    #[test]
    fn kv_cache_validates_shapes_and_failed_pushes_are_atomic() {
        let k = random_matrix(4, 8, 5);
        let v3 = random_matrix(3, 8, 6);
        assert!(KvCache::new(&k, &v3).is_err());
        let mut cache = KvCache::new(&k, &k).unwrap();
        // Either row mis-sized: nothing mutates (regression — a bad V
        // row used to leave K grown, breaking the quantized-image
        // invariant forever after).
        assert!(cache.push(&[0.0; 4], &[0.0; 8]).is_err());
        assert!(cache.push(&[0.0; 8], &[0.0; 4]).is_err());
        // A non-finite value fails the quantizer derivation — also
        // before anything mutates.
        let mut inf_row = [0.0f32; 8];
        inf_row[3] = f32::INFINITY;
        assert!(cache.push(&inf_row, &[0.0; 8]).is_err());
        assert!(cache.push(&[0.0; 8], &inf_row).is_err());
        assert_eq!(cache.len(), 4);
        // The cache is still fully usable and exact after the errors.
        let row = random_matrix(1, 8, 7);
        cache.push(row.row(0), row.row(0)).unwrap();
        assert_eq!(cache.len(), 5);
        assert_codes_exact(&cache, "after rejected pushes");
    }

    #[test]
    fn exhausted_pool_fails_the_push_atomically_and_retries_after_release() {
        let pool = PagePool::bounded(2 * 5 * 16, 3); // 2 tokens/page, 3 pages
        let k = random_matrix(4, 8, 9);
        let mut cache = KvCache::new_in(&pool, &k, &k).unwrap();
        let victim = KvCache::new_in(
            &pool,
            &k.prefix_rows(2).unwrap(),
            &k.prefix_rows(2).unwrap(),
        )
        .unwrap();
        assert_eq!(pool.pages_in_use(), 3, "pool fully committed");
        // The next push crosses a page boundary with nothing free:
        // atomic failure, cache untouched and still exact.
        let row = random_matrix(1, 8, 10);
        let err = cache.push(row.row(0), row.row(0)).unwrap_err();
        assert!(matches!(err, AttentionError::PoolExhausted { .. }));
        assert_eq!(cache.len(), 4, "failed push must not grow the cache");
        assert_codes_exact(&cache, "after exhaustion");
        // Evicting the other cache frees its page; the identical retry
        // now succeeds — the session layer's evict-then-retry loop.
        drop(victim);
        cache.push(row.row(0), row.row(0)).unwrap();
        assert_eq!(cache.len(), 5);
        assert_codes_exact(&cache, "after retry");
    }

    #[test]
    fn decode_kernels_match_their_batch_siblings() {
        let cfg = AttentionConfig::new(16);
        let k = random_matrix(48, 16, 7);
        let v = random_matrix(48, 16, 8);
        let q_all = random_matrix(4, 16, 9);
        // Paged storage (7 tokens/page) must not perturb a single bit.
        let kv = KvCache::new_in(&tiny_pool(7, 16, 16), &k, &v).unwrap();
        let mut ws = Workspace::new();
        let batch_ws = &mut Workspace::new();
        for r in 0..4 {
            let q1 = one_row(&q_all, r);
            // Dense.
            let dense_row = dense_attention_decode_with(&q1, &k, &v, &cfg, &mut ws).unwrap();
            let dense_full = dense_attention_with(&q1, &k, &v, &cfg, batch_ws).unwrap();
            assert_eq!(dense_row.as_slice(), dense_full.output.row(0));
            // Pruned, over the paged cache.
            let (pruned_row, decision) =
                pruned_attention_decode_cached_with(&q1, &kv, &cfg, 0.02, &mut ws).unwrap();
            let (pruned_full, decisions) =
                pruned_attention_with(&q1, &k, &v, &cfg, 0.02, None, batch_ws).unwrap();
            assert_eq!(pruned_row.as_slice(), pruned_full.output.row(0));
            assert_eq!(decision, decisions[0]);
            // Quantized, pruned and unpruned.
            for d in [None, Some(&decision)] {
                let hw_row = quantized_attention_decode_with(&q1, &kv, &cfg, d, &mut ws).unwrap();
                let hw_full = quantized_attention_with(
                    &q1,
                    &k,
                    &v,
                    &cfg,
                    d.map(std::slice::from_ref),
                    batch_ws,
                )
                .unwrap();
                assert_eq!(hw_row.as_slice(), hw_full.output.row(0), "query {r}");
            }
        }
    }

    #[test]
    fn decode_kernels_reject_multi_row_queries() {
        let cfg = AttentionConfig::new(8);
        let k = random_matrix(4, 8, 11);
        let q2 = random_matrix(2, 8, 12);
        let kv = KvCache::new(&k, &k).unwrap();
        let mut ws = Workspace::new();
        assert!(dense_attention_decode_with(&q2, &k, &k, &cfg, &mut ws).is_err());
        assert!(pruned_attention_decode_cached_with(&q2, &kv, &cfg, 0.0, &mut ws).is_err());
        assert!(quantized_attention_decode_with(&q2, &kv, &cfg, None, &mut ws).is_err());
        // Wrong decision length.
        let q1 = one_row(&q2, 0);
        let bad = PruneDecision::new(vec![false; 3]);
        assert!(quantized_attention_decode_with(&q1, &kv, &cfg, Some(&bad), &mut ws).is_err());
    }
}
