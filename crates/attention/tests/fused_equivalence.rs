//! Property tests: the fused attention kernels must match the naive
//! reference implementations bit for bit.
//!
//! Every fused kernel is compared against its counterpart in
//! `sprint_attention::reference` on random Q/K/V across sizes,
//! thresholds and padding splits. Dense attention is the one float
//! kernel at `threshold = f32::MIN`, checked against the naive dense
//! oracle, and `threshold = -inf` must reduce to it exactly.
//! The fused kernels run on the process tier and the references on the
//! scalar tier; the tiers agree bit for bit, so every comparison is
//! `to_bits()` equality.

use proptest::prelude::*;
use sprint_attention::reference::{
    dense_attention_naive, pruned_attention_naive, quantized_attention_naive,
};
use sprint_attention::{
    calibrate_threshold, pruned_attention_rows, pruned_attention_with,
    quantized_attention_decode_with, quantized_attention_output_with, quantized_attention_with,
    AttentionConfig, AttentionOutput, KvCache, Matrix, PaddingMask, PruneDecision, SimdTier,
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
        let (fused, decisions) =
            pruned_attention_with(&q, &k, &v, &cfg, f32::MIN, None, &mut Workspace::new()).unwrap();
        let naive = dense_attention_naive(&q, &k, &v, &cfg).unwrap();
        prop_assert!(decisions.iter().all(|d| d.kept_count() == s_k), "nothing pruned");
        prop_assert_eq!(bits(&fused.scores), bits(&naive.scores), "dense scores");
        prop_assert_eq!(bits(&fused.probs), bits(&naive.probs), "dense probs");
        prop_assert_eq!(bits(&fused.output), bits(&naive.output), "dense output");
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
        prop_assert_eq!(bits(&fused.scores), bits(&naive.scores), "pruned scores");
        prop_assert_eq!(bits(&fused.probs), bits(&naive.probs), "pruned probs");
        prop_assert_eq!(bits(&fused.output), bits(&naive.output), "pruned output");
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
        let dense = dense_attention_naive(&q, &k, &v, &cfg).unwrap();
        let (pruned, decisions) =
            pruned_attention_with(&q, &k, &v, &cfg, f32::NEG_INFINITY, None, &mut Workspace::new()).unwrap();
        for dec in &decisions {
            prop_assert_eq!(dec.kept_count(), s, "nothing pruned at -inf threshold");
        }
        // Finite scores pass the -inf cut unmasked: bitwise dense.
        prop_assert_eq!(bits(&pruned.scores), bits(&dense.scores), "scores vs dense");
        prop_assert_eq!(bits(&pruned.probs), bits(&dense.probs), "probs vs dense");
        prop_assert_eq!(bits(&pruned.output), bits(&dense.output), "output vs dense");
    }

    #[test]
    fn prop_fused_matches_naive_at_monomorphized_dims(
        s in 2usize..40,
        d_pick in 0usize..3,
        threshold in -2.0f32..2.0,
        pad in 0usize..10,
        seed in 0u64..200,
    ) {
        // The studied head sizes take the AVX2 tier's unrolled and
        // column-blocked score paths and its register-resident AV row;
        // every cell still reduces in the one `dot` order and every
        // output element in the one fused chain, so the fused kernels
        // on the process tier and the scalar naive reference agree
        // BITWISE — scores, probabilities and outputs alike.
        let d = [32usize, 64, 128][d_pick];
        let q = random_matrix(s, d, seed, 2.0);
        let k = random_matrix(s, d, seed ^ 1, 2.0);
        let v = random_matrix(s, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let live = s - pad.min(s - 1);
        let mask = PaddingMask::new(s, live).unwrap();
        let mut ws = Workspace::new();
        let (fused, fd) =
            pruned_attention_with(&q, &k, &v, &cfg, threshold, Some(&mask), &mut ws).unwrap();
        let (naive, nd) = pruned_attention_naive(&q, &k, &v, &cfg, threshold, Some(&mask)).unwrap();
        prop_assert_eq!(fd, nd);
        prop_assert_eq!(&fused.scores, &naive.scores);
        prop_assert_eq!(&fused.probs, &naive.probs);
        prop_assert_eq!(&fused.output, &naive.output);
        let (dense_fused, _) =
            pruned_attention_with(&q, &k, &v, &cfg, f32::MIN, None, &mut ws).unwrap();
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

/// Decisions of an engine-shaped head: the last fifth of the keys and
/// queries is padding (every flag pruned), every 11th live query keeps
/// nothing, and the other live queries keep about a quarter of the live
/// keys, scattered by a hash.
fn engine_decisions(s: usize, seed: u64) -> Vec<PruneDecision> {
    let live = s - s / 5;
    (0..s)
        .map(|i| {
            PruneDecision::new(
                (0..s)
                    .map(|j| {
                        let h = ((i * 7919 + j * 104_729) as u64 ^ seed)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        i >= live || j >= live || i % 11 == 3 || (h >> 60) >= 4
                    })
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn both_entry_points_match_naive_at_engine_shapes_on_both_tiers_and_widths() {
    // The register blocks the small proptest never fills: 16-code QK
    // chunks and their tails (d = 8, 63, 64, 65, 128), 64-column V-PU
    // blocks with and without a remainder, eight-probability code
    // chunks, eight-flag words with a ragged end (s = 17), and heads as
    // long as the engine's (s = 276, 512).
    let tiers = [
        sprint_attention::SimdTier::Scalar,
        sprint_attention::SimdTier::Avx2,
    ];
    for d in [8usize, 63, 64, 65, 128] {
        for s in [17usize, 276, 512] {
            let seed = (d * 1000 + s) as u64;
            let q = random_matrix(s, d, seed, 2.0);
            let k = random_matrix(s, d, seed ^ 1, 2.0);
            let v = random_matrix(s, d, seed ^ 2, 1.0);
            let cfg = AttentionConfig::new(d);
            let pruned = engine_decisions(s, seed);
            for decisions in [Some(pruned.as_slice()), None] {
                let naive = quantized_attention_naive(&q, &k, &v, &cfg, decisions).unwrap();
                let kept: usize =
                    decisions.map_or(s * s, |ds| ds.iter().map(|d| d.kept_count()).sum());
                let what = format!("d {d} s {s} kept {kept}");
                for tier in tiers {
                    for width in [1, 2] {
                        let mut ws = Workspace::new();
                        ws.set_simd_tier(tier);
                        ws.set_threads(width);
                        let full =
                            quantized_attention_with(&q, &k, &v, &cfg, decisions, &mut ws).unwrap();
                        assert_eq!(
                            bits(&full.scores),
                            bits(&naive.scores),
                            "scores, {what}, {tier} x{width}"
                        );
                        assert_eq!(
                            bits(&full.probs),
                            bits(&naive.probs),
                            "probs, {what}, {tier} x{width}"
                        );
                        assert_eq!(
                            bits(&full.output),
                            bits(&naive.output),
                            "output, {what}, {tier} x{width}"
                        );
                        let out =
                            quantized_attention_output_with(&q, &k, &v, &cfg, decisions, &mut ws)
                                .unwrap();
                        assert_eq!(
                            bits(&out),
                            bits(&naive.output),
                            "output-only, {what}, {tier} x{width}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn the_decode_kernel_equals_the_batch_kernel_row_by_row_at_engine_shapes() {
    // Sampled rows of a 276-key head (kept, empty and padded rows) on
    // both tiers, against the batch kernel over the same one-row Q.
    for d in [63usize, 64, 128] {
        let s = 276;
        let seed = d as u64;
        let q = random_matrix(s, d, seed, 2.0);
        let k = random_matrix(s, d, seed ^ 1, 2.0);
        let v = random_matrix(s, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let decisions = engine_decisions(s, seed);
        let kv = KvCache::new(&k, &v).unwrap();
        for tier in [
            sprint_attention::SimdTier::Scalar,
            sprint_attention::SimdTier::Avx2,
        ] {
            let mut ws = Workspace::new();
            ws.set_simd_tier(tier);
            for i in (0..s).step_by(17).chain([3, 14, s - 1]) {
                let q1 = Matrix::from_vec(1, d, q.row(i).to_vec()).unwrap();
                for decision in [Some(&decisions[i]), None] {
                    let step =
                        quantized_attention_decode_with(&q1, &kv, &cfg, decision, &mut ws).unwrap();
                    let batch = quantized_attention_output_with(
                        &q1,
                        &k,
                        &v,
                        &cfg,
                        decision.map(std::slice::from_ref),
                        &mut ws,
                    )
                    .unwrap();
                    assert_eq!(
                        step.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        bits(&batch),
                        "d {d} row {i} {tier} decided {}",
                        decision.is_some()
                    );
                }
            }
        }
    }
}

/// The row splits of `0..s_q` a caller may hand the row core: the
/// balanced ones at widths 1–4, and an uneven one of a one-row block, a
/// block that ends at `live_q`, and a one-row last block.
fn row_splits(s_q: usize, live_q: usize) -> Vec<Vec<std::ops::Range<usize>>> {
    let mut splits: Vec<_> = (1..=4)
        .map(|width| sprint_parallel::chunk_ranges(s_q, width))
        .collect();
    let mut cuts = vec![0, 1, live_q, s_q - 1, s_q];
    cuts.sort_unstable();
    cuts.dedup();
    splits.push(cuts.windows(2).map(|w| w[0]..w[1]).collect());
    splits
}

#[test]
fn the_row_core_over_any_split_is_the_whole_kernel_bit_for_bit() {
    // Shapes: padded self-shaped heads (a small one and the engine's
    // BERT-B s = 512 with 276 live), queries past the key mask
    // (`s_q > p.total()`), and an unpadded head with `s_q < s_k`. Each
    // at the dense threshold (`f32::MIN`, the stream AV walk) and at an
    // Oracle threshold that prunes four keys in five (the skip walk),
    // on both tiers, over every split of `row_splits` run as one
    // fan-out. The blocks start out NaN: the core must write every
    // element of its rows.
    let shapes: [(usize, usize, usize, Option<usize>); 4] = [
        (40, 40, 64, Some(29)),
        (512, 512, 64, Some(276)),
        (23, 16, 32, Some(11)),
        (9, 30, 65, None),
    ];
    for (s_q, s_k, d, live) in shapes {
        let seed = (s_q * 100 + s_k) as u64;
        let q = random_matrix(s_q, d, seed, 2.0);
        let k = random_matrix(s_k, d, seed ^ 1, 2.0);
        let v = random_matrix(s_k, d, seed ^ 2, 1.0);
        let cfg = AttentionConfig::new(d);
        let mask = live.map(|live| PaddingMask::new(s_k, live).unwrap());
        let live_q = live.map_or(s_q, |live| live.min(s_q));
        let (dense, _) =
            pruned_attention_with(&q, &k, &v, &cfg, f32::MIN, None, &mut Workspace::new()).unwrap();
        let oracle = calibrate_threshold(&dense.scores, 0.8).unwrap();
        for threshold in [f32::MIN, oracle] {
            for tier in [SimdTier::Scalar, SimdTier::Avx2] {
                let mut ws = Workspace::new();
                ws.set_simd_tier(tier);
                let (want, want_decisions) =
                    pruned_attention_with(&q, &k, &v, &cfg, threshold, mask.as_ref(), &mut ws)
                        .unwrap();
                for blocks in row_splits(s_q, live_q) {
                    let what = format!("s_q {s_q} s_k {s_k} d {d} {threshold} {tier} {blocks:?}");
                    let nan =
                        |rows, cols| Matrix::from_vec(rows, cols, vec![f32::NAN; rows * cols]);
                    let mut got = AttentionOutput {
                        scores: nan(s_q, s_k).unwrap(),
                        probs: nan(s_q, s_k).unwrap(),
                        output: nan(s_q, d).unwrap(),
                    };
                    let mut parts: Vec<_> = got
                        .row_blocks(&blocks)
                        .into_iter()
                        .map(|rows| (rows, Vec::new()))
                        .collect();
                    sprint_parallel::fan_out(&mut parts, |_, (rows, decisions)| {
                        let mask = mask.as_ref();
                        *decisions =
                            pruned_attention_rows(&q, &k, &v, &cfg, threshold, mask, tier, rows)?;
                        Ok::<_, sprint_attention::AttentionError>(())
                    })
                    .unwrap();
                    let decisions: Vec<_> = parts.into_iter().flat_map(|part| part.1).collect();
                    assert_eq!(decisions, want_decisions, "decisions, {what}");
                    assert_eq!(bits(&got.scores), bits(&want.scores), "scores, {what}");
                    assert_eq!(bits(&got.probs), bits(&want.probs), "probs, {what}");
                    assert_eq!(bits(&got.output), bits(&want.output), "output, {what}");
                }
            }
        }
    }
}

#[test]
fn the_row_core_rejects_a_block_that_does_not_fit() {
    let q = random_matrix(6, 8, 1, 2.0);
    let cfg = AttentionConfig::new(8);
    let mut out = Workspace::new().attention_output(6, 6, 8).unwrap();
    let tier = SimdTier::Scalar;
    let mut blocks = out.row_blocks(&[0..2, 2..6]);
    // Rows past `q`.
    blocks[1].rows = 4..8;
    let got = pruned_attention_rows(&q, &q, &q, &cfg, 0.0, None, tier, &mut blocks[1]);
    assert!(got.is_err(), "{got:?}");
    // Slices that do not hold the block's rows.
    blocks[0].rows = 0..3;
    let got = pruned_attention_rows(&q, &q, &q, &cfg, 0.0, None, tier, &mut blocks[0]);
    assert!(got.is_err(), "{got:?}");
}
