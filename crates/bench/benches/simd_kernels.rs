//! Criterion bench: the SIMD kernel tier vs the scalar specification
//! tier.
//!
//! Times the same fused kernels under a forced-`Scalar` and a
//! forced-`Avx2` workspace (the per-workspace knob the engine's
//! `simd_tier` builder drives), so the recorded ratio is exactly the
//! dispatch layer's win (the scalar float kernels pay a libm `fmaf`
//! call per fused step without target FMA): `simd/scalar/dense-fused` vs
//! `simd/avx2/dense-fused` (`pruned_attention_with` at
//! `threshold = f32::MIN`), the paper-default pruned head, and the
//! quantized single-query decode path over a paged KV history. The
//! `host/simd_avx2` flag row records whether the AVX2 rows were
//! actually measured (0 on hosts without AVX2+FMA, where the rows are
//! omitted and `report --check` skips the speedup floor). Run with
//! `-- --bench-json` to record the timings in `BENCH_report.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use sprint_attention::{
    calibrate_threshold, pruned_attention_with, quantized_attention_decode_with, AttentionConfig,
    KvCache, Matrix, PaddingMask, SimdTier, Workspace,
};
use sprint_bench::report::{Row, Unit};

const SEQ: usize = 512;
const DIM: usize = 64;

/// Deterministic pseudo-random matrix (no rand dependency in benches).
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

/// Threshold that prunes `rate` of this head's scores.
fn threshold_for(q: &Matrix, k: &Matrix, cfg: &AttentionConfig, rate: f64) -> f32 {
    let scores = q.matmul_transposed(k).unwrap().map(|s| s * cfg.scale());
    calibrate_threshold(&scores, rate).unwrap()
}

fn bench(c: &mut Criterion) {
    let cfg = AttentionConfig::new(DIM);
    let q = random_matrix(SEQ, DIM, 1, 2.0);
    let k = random_matrix(SEQ, DIM, 2, 2.0);
    let v = random_matrix(SEQ, DIM, 3, 1.0);
    let th_paper = threshold_for(&q, &k, &cfg, 0.746);
    let full = PaddingMask::full(SEQ);
    let q1 = random_matrix(1, DIM, 4, 2.0);
    let kv = KvCache::new(&k, &v).unwrap();

    let tiers: &[SimdTier] = if sprint_attention::avx2_available() {
        &[SimdTier::Scalar, SimdTier::Avx2]
    } else {
        &[SimdTier::Scalar]
    };

    let mut group = c.benchmark_group("simd");
    group.sample_size(10);
    for &tier in tiers {
        let mut ws = Workspace::with_capacity(SEQ, DIM);
        ws.set_simd_tier(tier);
        group.bench_function(&format!("{tier}/dense-fused"), |b| {
            b.iter(|| {
                let (out, decisions) =
                    pruned_attention_with(&q, &k, &v, &cfg, f32::MIN, None, &mut ws).unwrap();
                black_box(&decisions);
                black_box(&out.output);
                ws.recycle(out.scores);
                ws.recycle(out.probs);
                ws.recycle(out.output);
            })
        });
        group.bench_function(&format!("{tier}/pruned-fused"), |b| {
            b.iter(|| {
                let (out, decisions) =
                    pruned_attention_with(&q, &k, &v, &cfg, th_paper, Some(&full), &mut ws)
                        .unwrap();
                black_box(&decisions);
                ws.recycle(out.scores);
                ws.recycle(out.probs);
                ws.recycle(out.output);
            })
        });
        group.bench_function(&format!("{tier}/quantized-decode"), |b| {
            b.iter(|| {
                black_box(quantized_attention_decode_with(&q1, &kv, &cfg, None, &mut ws).unwrap())
            })
        });
    }
    group.finish();
}

/// Whether the AVX2 rows above were measured on real AVX2+FMA
/// hardware; `report --check` gates the simd speedup floor on it.
fn host_rows() -> Vec<Row> {
    let avx2 = u128::from(sprint_attention::avx2_available());
    vec![Row::value("host/simd_avx2", Unit::Flag, avx2, 1)]
}

criterion_group!(benches, bench);
sprint_bench::bench_main!(benches; host_rows());
