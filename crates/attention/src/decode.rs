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

use crate::attention::{output_row, prune_row, score_row};
use crate::paged::{PageBuffers, PagePool, DEFAULT_PAGE_BYTES};
use crate::simd;
use crate::{
    AttentionConfig, AttentionError, Matrix, PruneDecision, QuantParams, SoftmaxLut, Workspace,
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
        params.quantize_i8_into(
            k_row,
            &mut page.buf.k_codes[slot * self.d..(slot + 1) * self.d],
        );
    }

    fn write_v_codes(&mut self, j: usize, v_row: &[f32]) {
        let (p, slot) = (j / self.tokens_per_page, j % self.tokens_per_page);
        let params = self.v_params;
        let page = &mut self.pages[p];
        params.quantize_i8_into(
            v_row,
            &mut page.buf.v_codes[slot * self.d_v..(slot + 1) * self.d_v],
        );
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
            let buf = &mut page.buf;
            params.quantize_i8_into(&buf.k_floats[..tokens * d], &mut buf.k_codes[..tokens * d]);
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
            let buf = &mut page.buf;
            params.quantize_i8_into(
                &buf.v_floats[..tokens * d_v],
                &mut buf.v_codes[..tokens * d_v],
            );
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
        for block in self.v_pages() {
            data.extend_from_slice(block);
        }
        Matrix::from_vec(self.len, self.d_v, data).expect("paged history is non-empty and exact")
    }

    /// Each page's occupied value rows, one contiguous row-major block
    /// per page, in token order (every block but the last holds
    /// `tokens_per_page` rows).
    fn v_pages(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.pages
            .iter()
            .enumerate()
            .map(|(p, page)| &page.buf.v_floats[..self.page_tokens(p) * self.d_v])
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

/// Checks that `q` is a single query row matching the paged history's
/// embedding.
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

/// Single-query runtime-pruned attention reading K/V straight from a
/// paged [`KvCache`] — no gather: the output row plus the step's
/// [`PruneDecision`], bit-identical to
/// [`crate::pruned_attention_with`] over the same one-row `Q` and the
/// cache's gathered history without padding. The per-key score is the
/// same `dot` the blocked `Q × Kᵀ` pass computes for a one-row `Q`, the
/// row stage (mask, softmax, AV-walk choice) is the batch kernel's, and
/// the AV stage runs the batch kernel's row walk over each page's
/// contiguous `V` block in page order: that walk continues every
/// element's chain from `output`, so splitting it at page boundaries
/// moves no bit. `threshold == f32::MIN` reduces to the dense baseline
/// with an all-kept decision — the digital decode pipelines
/// (Dense/Oracle) both route through here.
///
/// # Errors
///
/// Shape errors as in [`crate::pruned_attention_with`]; additionally
/// `q` must hold exactly one row.
pub fn pruned_attention_decode_with(
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
    let srow = scores.row_mut(0);
    for (j, slot) in srow.iter_mut().enumerate() {
        *slot = cfg.scale() * simd::dot(tier, q_row, kv.k_row(j));
    }
    let prow = probs.row_mut(0);
    let skip_zero = prune_row(tier, srow, prow, &mut flags, threshold);
    for (page_probs, v_page) in prow.chunks(kv.tokens_per_page).zip(kv.v_pages()) {
        simd::av_row(tier, &mut output, page_probs, v_page, kv.d_v, skip_zero);
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
/// codes, so a step costs `O(kept·d)` in the MAC and softmax stages
/// plus the `O(s)` scan of the decision's flags. Only the query is
/// quantized per call (its DAC/datapath calibration is per-step by
/// design). The row core is the batch kernel's, over a kept-ordered
/// row of `kept` slots.
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

    // The batch kernel's row core over this step's single row, each
    // key's codes read from its page: only the query is quantized per
    // call; the softmax range follows the same per-call rule (the
    // row's largest score offset, at least 1).
    let mut scratch = std::mem::take(&mut ws.recompute);
    let (kept, values, q_codes) = scratch.decode_parts();
    kept.fill(s_k, decision.map(std::slice::from_ref))?;
    let kept_row = kept.row(0);
    let qp = QuantParams::for_matrix(8, q)?;
    q_codes.resize(q.cols(), 0);
    qp.quantize_i8_into(q.row(0), q_codes);
    let score_lsb = qp.step() * kv.k_params().step() * cfg.scale();
    values.resize(kept_row.len(), 0.0);
    let offset = score_row(
        tier,
        q_codes,
        kept_row,
        |j| kv.k_code_row(j),
        score_lsb,
        values,
    );
    let unit = SoftmaxLut::new(1.0f32.max(offset).max(1e-3))?;
    let d_v = kv.value_dim();
    let mut output = vec![0.0f32; d_v];
    output_row(
        tier,
        &unit,
        kept_row,
        values,
        |j| kv.v_code_row(j),
        kv.v_params().step() / 255.0,
        ws.acc_row(d_v),
        &mut output,
    );
    ws.recompute = scratch;
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pruned_attention_with, quantize_matrix, quantized_attention_with, SimdTier};

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
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cfg = AttentionConfig::new(16);
        let k = random_matrix(48, 16, 7);
        let q_all = random_matrix(4, 16, 9);
        // The float kernel walks V page by page: d_v = 64 takes the
        // AVX2 tier's register-resident row, 63 and 65 its generic
        // walk; pages of 1, 3 and 7 tokens cut the walk at every phase
        // of its eight-key chunks.
        for d_v in [63usize, 64, 65] {
            let v = random_matrix(48, d_v, 8);
            for tier in [SimdTier::Scalar, SimdTier::Avx2] {
                let mut ws = Workspace::new();
                ws.set_simd_tier(tier);
                let batch_ws = &mut Workspace::new();
                batch_ws.set_simd_tier(tier);
                for tokens in [1usize, 3, 7] {
                    let kv = KvCache::new_in(&tiny_pool(tokens, 16, d_v), &k, &v).unwrap();
                    assert_eq!(kv.pages(), 48usize.div_ceil(tokens));
                    for r in 0..4 {
                        let q1 = one_row(&q_all, r);
                        let (dense, _) =
                            pruned_attention_with(&q1, &k, &v, &cfg, f32::MIN, None, batch_ws)
                                .unwrap();
                        let mut sorted = dense.scores.row(0).to_vec();
                        sorted.sort_by(f32::total_cmp);
                        // Dense (what a Dense decode step runs), a cut
                        // keeping under 35 % of the keys (the skip walk)
                        // and one keeping over 35 % (the stream walk).
                        let cuts = [
                            (f32::MIN, 48..=48),
                            (sorted[38], 1..=16),
                            (sorted[19], 17..=48),
                        ];
                        for (threshold, kept) in cuts {
                            let what =
                                format!("{tier} d_v {d_v} page {tokens} q {r} th {threshold}");
                            let (row, decision) =
                                pruned_attention_decode_with(&q1, &kv, &cfg, threshold, &mut ws)
                                    .unwrap();
                            let (full, decisions) =
                                pruned_attention_with(&q1, &k, &v, &cfg, threshold, None, batch_ws)
                                    .unwrap();
                            assert!(kept.contains(&decision.kept_count()), "{what}");
                            assert_eq!(decision, decisions[0], "{what}");
                            assert_eq!(bits(&row), bits(full.output.row(0)), "{what}");
                        }
                    }
                }
            }
        }
        // The quantized kernel over a 7-token-page cache, pruned by the
        // float kernel's decision and unpruned.
        let v = random_matrix(48, 16, 8);
        let kv = KvCache::new_in(&tiny_pool(7, 16, 16), &k, &v).unwrap();
        let mut ws = Workspace::new();
        let batch_ws = &mut Workspace::new();
        for r in 0..4 {
            let q1 = one_row(&q_all, r);
            let (_, decision) =
                pruned_attention_decode_with(&q1, &kv, &cfg, 0.02, &mut ws).unwrap();
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
        for threshold in [f32::MIN, 0.0] {
            assert!(pruned_attention_decode_with(&q2, &kv, &cfg, threshold, &mut ws).is_err());
        }
        assert!(quantized_attention_decode_with(&q2, &kv, &cfg, None, &mut ws).is_err());
        // Wrong decision length.
        let q1 = one_row(&q2, 0);
        let bad = PruneDecision::new(vec![false; 3]);
        assert!(quantized_attention_decode_with(&q1, &kv, &cfg, Some(&bad), &mut ws).is_err());
    }
}
