//! Naive reference attention kernels.
//!
//! These are the original per-pair `dot` + `Matrix::set` implementations
//! the fused kernels in `crate::attention` replaced. They stay in-tree
//! for two jobs:
//!
//! 1. **oracle** — the property tests assert the fused kernels match
//!    these bit for bit on random inputs;
//! 2. **baseline** — the `attention_kernels` criterion bench measures
//!    the fused speedup against them (the before/after table in
//!    `BENCH_report.json`).
//!
//! They are *not* the hot path; nothing outside tests and benches
//! should call them. As the oracle they are pinned to the scalar
//! kernel tier throughout — the per-pair dots and the softmax run on
//! [`SimdTier::Scalar`], the probability × V product is
//! [`Matrix::matmul`]'s fused chain — so their outputs never change
//! with the process-wide [`crate::active_tier`], and they equal the
//! fused kernels' on every tier bit for bit.

use crate::simd::dot;
use crate::{
    quantize_matrix, softmax_inplace_tier, AttentionError, AttentionOutput, Matrix, PaddingMask,
    PruneDecision, QuantizedAttentionOutput, SimdTier, SoftmaxLut, MASK_NEG,
};

use crate::attention::{check_shapes, query_is_live, validate_decisions, validate_padding};

/// Naive dense attention: per-pair dot products, per-row allocations,
/// dense `probs × V`. Semantics identical to
/// [`crate::pruned_attention_with`] at `threshold = f32::MIN` (nothing
/// pruned, no padding), the one float kernel's dense case.
///
/// # Errors
///
/// Returns [`AttentionError::ShapeMismatch`] when `Q`/`K` embedding
/// sizes differ or `K`/`V` sequence lengths differ.
pub fn dense_attention_naive(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &crate::AttentionConfig,
) -> Result<AttentionOutput, AttentionError> {
    check_shapes(q, k, v)?;
    let (s_q, s_k) = (q.rows(), k.rows());
    let mut scores = Matrix::zeros(s_q, s_k)?;
    for i in 0..s_q {
        for j in 0..s_k {
            scores.set(
                i,
                j,
                cfg.scale() * dot(SimdTier::Scalar, q.row(i), k.row(j)),
            );
        }
    }
    let mut probs = Matrix::zeros(s_q, s_k)?;
    for i in 0..s_q {
        let mut p = scores.row(i).to_vec();
        softmax_inplace_tier(&mut p, SimdTier::Scalar);
        probs.row_mut(i).copy_from_slice(&p);
    }
    let output = probs.matmul(v)?;
    Ok(AttentionOutput {
        scores,
        probs,
        output,
    })
}

/// Naive runtime-pruned attention. Semantics identical to
/// [`crate::pruned_attention_with`] (including the corrected query-liveness
/// indexing for `s_q != s_k`).
///
/// # Errors
///
/// Same errors as [`crate::pruned_attention_with`].
pub fn pruned_attention_naive(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &crate::AttentionConfig,
    threshold: f32,
    padding: Option<&PaddingMask>,
) -> Result<(AttentionOutput, Vec<PruneDecision>), AttentionError> {
    check_shapes(q, k, v)?;
    validate_padding(k, padding)?;
    let (s_q, s_k) = (q.rows(), k.rows());
    let live_k = padding.map_or(s_k, |p| p.live());
    let mut scores = Matrix::zeros(s_q, s_k)?;
    let mut probs = Matrix::zeros(s_q, s_k)?;
    let mut decisions = Vec::with_capacity(s_q);
    for i in 0..s_q {
        if !query_is_live(i, padding) {
            // Padded query: everything pruned, zero output row.
            for j in 0..s_k {
                scores.set(i, j, f32::NEG_INFINITY);
            }
            decisions.push(PruneDecision::new(vec![true; s_k]));
            continue;
        }
        let mut row_scores = vec![0.0f32; s_k];
        for (j, rs) in row_scores.iter_mut().enumerate() {
            let key_live = padding.map_or(true, |p| p.is_live(j));
            *rs = if key_live {
                cfg.scale() * dot(SimdTier::Scalar, q.row(i), k.row(j))
            } else {
                MASK_NEG
            };
        }
        let mut decision = PruneDecision::from_scores(&row_scores, threshold);
        if let Some(p) = padding {
            decision.apply_padding(p.live());
        }
        for (j, s) in row_scores.iter().enumerate() {
            scores.set(
                i,
                j,
                if decision.is_pruned(j) {
                    f32::NEG_INFINITY
                } else {
                    *s
                },
            );
        }
        let mut p = row_scores.clone();
        for (s, j) in p.iter_mut().zip(0..s_k) {
            if decision.is_pruned(j) {
                *s = f32::NEG_INFINITY;
            }
        }
        // Normalize over the live keys only, as the fused kernel does:
        // the exponent pass's lane layout depends on the row length.
        p[live_k..].fill(0.0);
        softmax_inplace_tier(&mut p[..live_k], SimdTier::Scalar);
        probs.row_mut(i).copy_from_slice(&p);
        decisions.push(decision);
    }
    let output = probs.matmul(v)?;
    Ok((
        AttentionOutput {
            scores,
            probs,
            output,
        },
        decisions,
    ))
}

/// Naive quantized attention: per-pair integer MACs, per-row probability
/// allocation, per-element V-PU probability re-rounding. Semantics
/// identical to [`crate::quantized_attention_with`].
///
/// # Errors
///
/// Same errors as [`crate::quantized_attention_with`].
pub fn quantized_attention_naive(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    cfg: &crate::AttentionConfig,
    decisions: Option<&[PruneDecision]>,
) -> Result<QuantizedAttentionOutput, AttentionError> {
    check_shapes(q, k, v)?;
    let (s_q, s_k) = (q.rows(), k.rows());
    validate_decisions(s_q, s_k, decisions)?;

    // 8-bit quantization of the operand matrices (per-tensor symmetric).
    let qq = quantize_matrix(q, 8)?;
    let qk = quantize_matrix(k, 8)?;
    let qv = quantize_matrix(v, 8)?;
    let score_lsb = qq.params().step() * qk.params().step() * cfg.scale();

    let mut scores = Matrix::zeros(s_q, s_k)?;
    for i in 0..s_q {
        for j in 0..s_k {
            let kept = decisions.map_or(true, |ds| ds[i].is_kept(j));
            if !kept {
                scores.set(i, j, f32::NEG_INFINITY);
                continue;
            }
            // Integer MAC: i8 x i8 accumulated in i32 (the QK-PU).
            let acc: i32 = qq
                .code_row(i)
                .iter()
                .zip(qk.code_row(j))
                .map(|(&a, &b)| a * b)
                .sum();
            scores.set(i, j, acc as f32 * score_lsb);
        }
    }

    // Softmax with 12-bit inputs via the two-LUT unit.
    let mut max_offset = 1.0f32;
    for i in 0..s_q {
        let row = scores.row(i);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if max == f32::NEG_INFINITY {
            continue;
        }
        for &s in row {
            if s != f32::NEG_INFINITY {
                max_offset = max_offset.max(max - s);
            }
        }
    }
    let unit = SoftmaxLut::new(max_offset.max(1e-3))?;
    let mut probs = Matrix::zeros(s_q, s_k)?;
    for i in 0..s_q {
        let p = unit.probabilities(scores.row(i))?;
        probs.row_mut(i).copy_from_slice(&p);
    }

    // V-PU: 8-bit probabilities x 8-bit values, 16-bit accumulation.
    let out_lsb = qv.params().step() / 255.0;
    let mut output = Matrix::zeros(s_q, v.cols())?;
    for i in 0..s_q {
        for c in 0..v.cols() {
            let mut acc: i32 = 0;
            for j in 0..s_k {
                let p_code = (probs.get(i, j) * 255.0).round() as i32;
                if p_code == 0 {
                    continue;
                }
                acc += p_code * qv.code(j, c);
            }
            // Final attention value kept in 16 bits.
            let acc16 = acc.clamp(i32::from(i16::MIN), i32::from(i16::MAX));
            output.set(i, c, acc16 as f32 * out_lsb);
        }
    }

    Ok(QuantizedAttentionOutput {
        scores,
        probs,
        output,
    })
}
