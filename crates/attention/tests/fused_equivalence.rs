//! Property tests: the fused attention kernels must match the naive
//! reference implementations (ISSUE 2 satellite).
//!
//! Every fused kernel is compared against its counterpart in
//! `sprint_attention::reference` on random Q/K/V across sizes,
//! thresholds and padding splits, including the `threshold = -inf`
//! case where the pruned path must reduce to dense attention exactly.

use proptest::prelude::*;
use sprint_attention::reference::{
    dense_attention_naive, pruned_attention_naive, quantized_attention_naive,
};
use sprint_attention::{
    dense_attention_with, pruned_attention_with, quantized_attention_decode_with,
    quantized_attention_with, AttentionConfig, KvCache, Matrix, PaddingMask, PruneDecision,
    Workspace,
};

/// Deterministic pseudo-random matrix from a seed (splitmix-style).
fn random_matrix(rows: usize, cols: usize, seed: u64, amp: f32) -> Matrix {
    let mut x = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(0x2545f4914f6cdd1d);
    let mut next = move || {
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51afd7ed558ccd);
        x ^= x >> 29;
        amp * (((x >> 40) as f32 / 16777216.0) - 0.5)
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
}

fn assert_close(a: &Matrix, b: &Matrix, tol: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what} shapes");
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let (x, y) = (a.get(r, c), b.get(r, c));
            if x == f32::NEG_INFINITY || y == f32::NEG_INFINITY {
                assert_eq!(x, y, "{what} at ({r},{c}): {x} vs {y}");
            } else {
                assert!(
                    (x - y).abs() < tol,
                    "{what} diverges at ({r},{c}): {x} vs {y}"
                );
            }
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// One decision per query, cycling through the row shapes the kept-key
/// walk must get right: nothing kept, one key kept, every key kept,
/// keys kept only at and beyond `live`, and a seeded scatter.
fn mixed_decisions(s_q: usize, s_k: usize, live: usize, seed: u64) -> Vec<PruneDecision> {
    let scatter = random_matrix(s_q, s_k, seed ^ 0xdec1, 2.0);
    (0..s_q)
        .map(|i| {
            let pruned = (0..s_k)
                .map(|j| match i % 5 {
                    0 => true,
                    1 => j != (i * 7 + seed as usize) % s_k,
                    2 => false,
                    3 => j < live,
                    _ => scatter.get(i, j) < 0.4,
                })
                .collect();
            PruneDecision::new(pruned)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_quantized_kept_walk_matches_naive_bit_for_bit(
        s_q in 1usize..14,
        s_k in 1usize..18,
        d in 1usize..12,
        live_share in 0usize..5,
        dense in proptest::bool::ANY,
        seed in 0u64..400,
    ) {
        let q = random_matrix(s_q, d, seed, 2.0);
        let k = random_matrix(s_k, d, seed ^ 1, 2.0);
        let v = random_matrix(s_k, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let mixed = mixed_decisions(s_q, s_k, s_k * live_share / 4, seed);
        let decisions = (!dense).then_some(mixed.as_slice());
        let mut ws = Workspace::new();
        let fused = quantized_attention_with(&q, &k, &v, &cfg, decisions, &mut ws).unwrap();
        let naive = quantized_attention_naive(&q, &k, &v, &cfg, decisions).unwrap();
        // Pruned positions are filled, not computed: -inf scores and
        // +0.0 probabilities, the sign included.
        prop_assert_eq!(bits(&fused.scores), bits(&naive.scores));
        prop_assert_eq!(bits(&fused.probs), bits(&naive.probs));
        prop_assert_eq!(bits(&fused.output), bits(&naive.output));

        // The single-query kernel against the batch kernel over the
        // same one-row Q (the softmax range is per call), row by row,
        // through the workspace the batch call just used.
        let kv = KvCache::new(&k, &v).unwrap();
        for i in 0..s_q {
            let q1 = Matrix::from_vec(1, d, q.row(i).to_vec()).unwrap();
            let decision = decisions.map(|ds| &ds[i]);
            let step = quantized_attention_decode_with(&q1, &kv, &cfg, decision, &mut ws).unwrap();
            let batch = quantized_attention_with(
                &q1, &k, &v, &cfg, decision.map(std::slice::from_ref), &mut ws,
            ).unwrap();
            prop_assert_eq!(
                step.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                bits(&batch.output),
                "row {}", i
            );
        }
    }

    #[test]
    fn prop_dense_fused_matches_naive(
        s_q in 1usize..24,
        s_k in 1usize..24,
        d in 1usize..20,
        seed in 0u64..400,
    ) {
        let q = random_matrix(s_q, d, seed, 2.0);
        let k = random_matrix(s_k, d, seed ^ 1, 2.0);
        let v = random_matrix(s_k, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let fused = dense_attention_with(&q, &k, &v, &cfg, &mut Workspace::new()).unwrap();
        let naive = dense_attention_naive(&q, &k, &v, &cfg).unwrap();
        assert_close(&fused.scores, &naive.scores, 1e-5, "dense scores");
        assert_close(&fused.probs, &naive.probs, 1e-5, "dense probs");
        assert_close(&fused.output, &naive.output, 1e-5, "dense output");
    }

    #[test]
    fn prop_pruned_fused_matches_naive(
        s in 2usize..24,
        d in 1usize..20,
        threshold in -2.0f32..2.0,
        pad in 0usize..8,
        seed in 0u64..400,
    ) {
        let q = random_matrix(s, d, seed, 2.0);
        let k = random_matrix(s, d, seed ^ 1, 2.0);
        let v = random_matrix(s, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let live = s - pad.min(s - 1);
        let mask = PaddingMask::new(s, live).unwrap();
        let (fused, fd) = pruned_attention_with(&q, &k, &v, &cfg, threshold, Some(&mask), &mut Workspace::new()).unwrap();
        let (naive, nd) = pruned_attention_naive(&q, &k, &v, &cfg, threshold, Some(&mask)).unwrap();
        prop_assert_eq!(fd, nd, "decisions must be identical");
        assert_close(&fused.scores, &naive.scores, 1e-5, "pruned scores");
        assert_close(&fused.probs, &naive.probs, 1e-5, "pruned probs");
        assert_close(&fused.output, &naive.output, 1e-5, "pruned output");
    }

    #[test]
    fn prop_pruned_at_neg_inf_threshold_equals_dense(
        s in 1usize..20,
        d in 1usize..16,
        seed in 0u64..400,
    ) {
        let q = random_matrix(s, d, seed, 2.0);
        let k = random_matrix(s, d, seed ^ 1, 2.0);
        let v = random_matrix(s, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let dense = dense_attention_with(&q, &k, &v, &cfg, &mut Workspace::new()).unwrap();
        let (pruned, decisions) =
            pruned_attention_with(&q, &k, &v, &cfg, f32::NEG_INFINITY, None, &mut Workspace::new()).unwrap();
        for dec in &decisions {
            prop_assert_eq!(dec.kept_count(), s, "nothing pruned at -inf threshold");
        }
        // Same kernel, same region, no mask writes: bitwise equality.
        prop_assert_eq!(&pruned.scores, &dense.scores);
        prop_assert_eq!(&pruned.probs, &dense.probs);
        assert_close(&pruned.output, &dense.output, 1e-5, "output vs dense");
    }

    #[test]
    fn prop_fused_matches_naive_at_monomorphized_dims(
        s in 2usize..40,
        d_pick in 0usize..3,
        threshold in -2.0f32..2.0,
        pad in 0usize..10,
        seed in 0u64..200,
    ) {
        // The d = 32/64/128 kernels are separate monomorphized paths
        // (register-blocked two rows at a time, with a single-row tail
        // for odd row counts); their reduction order matches `dot`
        // exactly, so fused and naive must agree BITWISE here — scores,
        // probabilities and outputs alike. This is a *scalar-tier*
        // contract (the naive reference is scalar), so the workspace
        // pins SimdTier::Scalar; the AVX2 tier is pinned against the
        // scalar tier separately, by the simd differential harness.
        let d = [32usize, 64, 128][d_pick];
        let q = random_matrix(s, d, seed, 2.0);
        let k = random_matrix(s, d, seed ^ 1, 2.0);
        let v = random_matrix(s, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let live = s - pad.min(s - 1);
        let mask = PaddingMask::new(s, live).unwrap();
        let mut ws = Workspace::new();
        ws.set_simd_tier(sprint_attention::SimdTier::Scalar);
        let (fused, fd) =
            pruned_attention_with(&q, &k, &v, &cfg, threshold, Some(&mask), &mut ws).unwrap();
        let (naive, nd) = pruned_attention_naive(&q, &k, &v, &cfg, threshold, Some(&mask)).unwrap();
        prop_assert_eq!(fd, nd);
        prop_assert_eq!(&fused.scores, &naive.scores);
        prop_assert_eq!(&fused.probs, &naive.probs);
        prop_assert_eq!(&fused.output, &naive.output);
        let dense_fused = dense_attention_with(&q, &k, &v, &cfg, &mut ws).unwrap();
        let dense_naive = dense_attention_naive(&q, &k, &v, &cfg).unwrap();
        prop_assert_eq!(&dense_fused.scores, &dense_naive.scores);
        prop_assert_eq!(&dense_fused.probs, &dense_naive.probs);
        prop_assert_eq!(&dense_fused.output, &dense_naive.output);
    }

    #[test]
    fn prop_quantized_fused_matches_naive(
        s in 2usize..16,
        d in 1usize..12,
        prune_mod in 1usize..5,
        seed in 0u64..400,
    ) {
        let q = random_matrix(s, d, seed, 2.0);
        let k = random_matrix(s, d, seed ^ 1, 2.0);
        let v = random_matrix(s, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        // A deterministic decision pattern keeping every prune_mod-th key.
        let decisions: Vec<PruneDecision> = (0..s)
            .map(|i| {
                PruneDecision::new(
                    (0..s).map(|j| (i + j) % (prune_mod + 1) == prune_mod).collect(),
                )
            })
            .collect();
        let fused = quantized_attention_with(&q, &k, &v, &cfg, Some(&decisions), &mut Workspace::new()).unwrap();
        let naive = quantized_attention_naive(&q, &k, &v, &cfg, Some(&decisions)).unwrap();
        // The integer datapath is identical arithmetic: bitwise equality.
        prop_assert_eq!(&fused.scores, &naive.scores);
        prop_assert_eq!(&fused.probs, &naive.probs);
        prop_assert_eq!(&fused.output, &naive.output);
    }

    #[test]
    fn prop_workspace_reuse_is_transparent(
        s in 2usize..16,
        d in 1usize..12,
        threshold in -1.0f32..1.0,
        seed in 0u64..200,
    ) {
        // Running many heads through one workspace must give the same
        // results as fresh workspaces per call.
        let cfg = AttentionConfig::new(d);
        let mut ws = Workspace::new();
        for head in 0..3u64 {
            let q = random_matrix(s, d, seed ^ (head * 3), 2.0);
            let k = random_matrix(s, d, seed ^ (head * 3 + 1), 2.0);
            let v = random_matrix(s, d, seed ^ (head * 3 + 2), 1.0);
            let shared =
                sprint_attention::pruned_attention_with(&q, &k, &v, &cfg, threshold, None, &mut ws)
                    .unwrap();
            let fresh = pruned_attention_with(&q, &k, &v, &cfg, threshold, None, &mut Workspace::new()).unwrap();
            prop_assert_eq!(shared.0.probs, fresh.0.probs);
            prop_assert_eq!(shared.1, fresh.1);
        }
    }
}
