//! Arithmetic-layer invariants of the SPRINT datapath (ISSUE 1
//! satellite): exact softmax, the two-LUT hardware softmax, symmetric
//! quantization, and the pruning/dense equivalence at an all-keep
//! threshold.

use sprint_attention::{
    dense_attention_with, pruned_attention_with, quantize_matrix, softmax_exact, AttentionConfig,
    Matrix, QuantParams, SoftmaxLut, Workspace,
};

fn sample_matrix(rows: usize, cols: usize, amp: f32, phase: f32) -> Matrix {
    let data: Vec<Vec<f32>> = (0..rows)
        .map(|r| {
            (0..cols)
                .map(|c| amp * ((r * cols + c) as f32 * 0.7 + phase).sin())
                .collect()
        })
        .collect();
    Matrix::from_rows(&data).unwrap()
}

#[test]
fn softmax_exact_rows_sum_to_one() {
    for scores in [
        vec![0.0f32],
        vec![1.0, 2.0, 3.0, 4.0],
        vec![-30.0, 0.0, 30.0],
        (0..64).map(|i| (i as f32 * 0.37).cos() * 9.0).collect(),
    ] {
        let p = softmax_exact(&scores);
        assert_eq!(p.len(), scores.len());
        let sum: f32 = p.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-5,
            "softmax row sums to {sum}, not 1, for {scores:?}"
        );
        assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}

#[test]
fn softmax_lut_tracks_exact_within_tolerance() {
    let lut = SoftmaxLut::new(12.0).unwrap();
    let scores: Vec<f32> = (0..48).map(|i| ((i as f32) * 0.41).sin() * 5.0).collect();
    let exact = softmax_exact(&scores);
    let approx = lut.probabilities(&scores).unwrap();
    assert_eq!(exact.len(), approx.len());
    let sum: f32 = approx.iter().sum();
    assert!((sum - 1.0).abs() < 1e-3, "LUT probabilities sum to {sum}");
    for (i, (&e, &a)) in exact.iter().zip(&approx).enumerate() {
        assert!(
            (e - a).abs() < 0.02,
            "LUT diverges from exact at {i}: exact {e} vs lut {a}"
        );
    }
}

#[test]
fn quantize_dequantize_error_bounded_by_half_step() {
    for bits in [4u32, 8, 12] {
        let max_abs = 7.5f32;
        let p = QuantParams::for_range(bits, max_abs).unwrap();
        let half_step = p.step() / 2.0;
        for i in 0..1000 {
            let x = -max_abs + (2.0 * max_abs) * (i as f32 / 999.0);
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(
                err <= half_step * 1.0001,
                "{bits}-bit round trip error {err} exceeds step/2 {half_step} at {x}"
            );
        }
    }
}

#[test]
fn quantized_matrix_round_trip_stays_within_half_step() {
    let m = sample_matrix(6, 8, 3.0, 0.2);
    let qm = quantize_matrix(&m, 8).unwrap();
    let back = qm.to_matrix();
    let half_step = qm.params().step() / 2.0;
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            let err = (back.get(r, c) - m.get(r, c)).abs();
            assert!(err <= half_step * 1.0001, "cell ({r},{c}) error {err}");
        }
    }
}

#[test]
fn all_keep_pruned_attention_equals_dense() {
    let d = 8;
    let q = sample_matrix(5, d, 1.0, 0.0);
    let k = sample_matrix(5, d, 1.0, 1.3);
    let v = sample_matrix(5, d, 2.0, 2.6);
    let cfg = AttentionConfig::new(d);
    let dense = dense_attention_with(&q, &k, &v, &cfg, &mut Workspace::new()).unwrap();
    // A threshold of -inf keeps every key: the paper's pruned datapath
    // must then be bit-identical (same arithmetic) to the dense one.
    let (pruned, decisions) = pruned_attention_with(
        &q,
        &k,
        &v,
        &cfg,
        f32::NEG_INFINITY,
        None,
        &mut Workspace::new(),
    )
    .unwrap();
    for d in &decisions {
        assert_eq!(d.kept_count(), d.len(), "all-keep decision");
    }
    for r in 0..dense.output.rows() {
        for c in 0..dense.output.cols() {
            let delta = (dense.output.get(r, c) - pruned.output.get(r, c)).abs();
            assert!(delta < 1e-6, "output ({r},{c}) differs by {delta}");
        }
        for c in 0..dense.probs.cols() {
            let delta = (dense.probs.get(r, c) - pruned.probs.get(r, c)).abs();
            assert!(delta < 1e-6, "probs ({r},{c}) differs by {delta}");
        }
    }
}
