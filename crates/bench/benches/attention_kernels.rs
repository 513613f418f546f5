//! Criterion bench: fused attention kernels vs the naive originals.
//!
//! This is the before/after harness for the fused-kernel work: the
//! `naive/*` ids time the seed implementations preserved in
//! `sprint_attention::reference`, the `fused/*` ids time the shipping
//! kernel (`dense/fused` is `pruned_attention_with` at
//! `threshold = f32::MIN`, the dense computation every pipeline runs),
//! and the `fused/pruned/rate*` series shows the sparse-AV stage
//! scaling with the prune rate. `dense/fused` and `pruned/fused-rate50`
//! are sampled in alternation (see [`crossover_samples`]). Run with
//! `-- --bench-json` to record the timings in `BENCH_report.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

use sprint_attention::reference::{dense_attention_naive, pruned_attention_naive};
use sprint_attention::{
    calibrate_threshold, pruned_attention_with, AttentionConfig, Matrix, PaddingMask, Workspace,
};

const SEQ: usize = 512;
const DIM: usize = 64;
const SAMPLES: usize = 10;

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

/// Threshold that prunes `rate` of this head's live scores (the
/// calibrated stand-in for the learned `Th` of Eq. 3).
fn threshold_for(q: &Matrix, k: &Matrix, cfg: &AttentionConfig, rate: f64, live: usize) -> f32 {
    let scores = q.matmul_transposed(k).unwrap().map(|s| s * cfg.scale());
    let mut live_rows = Vec::with_capacity(live);
    for i in 0..live {
        live_rows.push(scores.row(i)[..live].to_vec());
    }
    calibrate_threshold(&Matrix::from_rows(&live_rows).unwrap(), rate).unwrap()
}

/// A matrix whose rows beyond `live` are zero (the padded tail).
fn padded_matrix(rows: usize, cols: usize, live: usize, seed: u64, amp: f32) -> Matrix {
    let mut m = random_matrix(rows, cols, seed, amp);
    for i in live..rows {
        m.row_mut(i).fill(0.0);
    }
    m
}

/// Samples of `dense/fused` and `pruned/fused-rate50`, the two rows
/// the crossover floor divides (`sprint_bench::report`). At a 50 % keep
/// rate the kernel streams every key, the dense run's exact work, so
/// their ratio sits near 1.0 and only a paired measurement resolves it
/// on a shared host: each round times both on one reused workspace, in
/// alternating order, so a slow spell or the cache the previous call
/// left lands on both rows alike.
fn crossover_samples(
    (q, k, v): (&Matrix, &Matrix, &Matrix),
    cfg: &AttentionConfig,
    th50: f32,
    ws: &mut Workspace,
) -> (Vec<u128>, Vec<u128>) {
    let full = PaddingMask::full(k.rows());
    let mut time = |threshold: f32, padding: Option<&PaddingMask>| {
        let start = Instant::now();
        let (out, decisions) = pruned_attention_with(q, k, v, cfg, threshold, padding, ws).unwrap();
        black_box(&decisions);
        ws.recycle(out.scores);
        ws.recycle(out.probs);
        ws.recycle(out.output);
        start.elapsed().as_nanos()
    };
    let (mut dense, mut rate50) = (Vec::new(), Vec::new());
    for round in 0..SAMPLES {
        if round % 2 == 0 {
            dense.push(time(f32::MIN, None));
            rate50.push(time(th50, Some(&full)));
        } else {
            rate50.push(time(th50, Some(&full)));
            dense.push(time(f32::MIN, None));
        }
    }
    (dense, rate50)
}

fn bench(c: &mut Criterion) {
    let cfg = AttentionConfig::new(DIM);
    let q = random_matrix(SEQ, DIM, 1, 2.0);
    let k = random_matrix(SEQ, DIM, 2, 2.0);
    let v = random_matrix(SEQ, DIM, 3, 1.0);
    let mut ws = Workspace::with_capacity(SEQ, DIM);
    let th50 = threshold_for(&q, &k, &cfg, 0.5, SEQ);
    let (dense, rate50) = crossover_samples((&q, &k, &v), &cfg, th50, &mut ws);

    let mut group = c.benchmark_group("dense");
    group.sample_size(SAMPLES);
    group.record_samples("fused", dense);
    group.bench_function("naive", |b| {
        b.iter(|| black_box(dense_attention_naive(&q, &k, &v, &cfg).unwrap()))
    });
    group.finish();

    // Paper defaults for BERT-B: 74.6% learned prune rate, 46% zero
    // padding (§VII); scores and the AV product only ever touch the
    // surviving live region.
    let live = (SEQ as f64 * (1.0 - 0.46)).round() as usize;
    let padding = PaddingMask::new(SEQ, live).unwrap();
    let qp = padded_matrix(SEQ, DIM, live, 4, 2.0);
    let kp = padded_matrix(SEQ, DIM, live, 5, 2.0);
    let vp = padded_matrix(SEQ, DIM, live, 6, 1.0);
    let th_paper = threshold_for(&qp, &kp, &cfg, 0.746, live);
    let mut group = c.benchmark_group("pruned");
    group.sample_size(SAMPLES);
    group.bench_function("fused", |b| {
        b.iter(|| {
            let (out, decisions) =
                pruned_attention_with(&qp, &kp, &vp, &cfg, th_paper, Some(&padding), &mut ws)
                    .unwrap();
            black_box(&decisions);
            // Steady-state pipeline: finished outputs feed the pool.
            ws.recycle(out.scores);
            ws.recycle(out.probs);
            ws.recycle(out.output);
        })
    });
    group.bench_function("naive", |b| {
        b.iter(|| {
            black_box(
                pruned_attention_naive(&qp, &kp, &vp, &cfg, th_paper, Some(&padding)).unwrap(),
            )
        })
    });
    // The fused AV stage scales with the keep rate (no padding here, so
    // the sweep isolates the prune-rate effect).
    group.record_samples("fused-rate50", rate50);
    let full = PaddingMask::full(SEQ);
    for rate in [0.746f64, 0.9] {
        let th = threshold_for(&q, &k, &cfg, rate, SEQ);
        group.bench_function(&format!("fused-rate{:.0}", rate * 100.0), |b| {
            b.iter(|| {
                let (out, decisions) =
                    pruned_attention_with(&q, &k, &v, &cfg, th, Some(&full), &mut ws).unwrap();
                black_box(&decisions);
                ws.recycle(out.scores);
                ws.recycle(out.probs);
                ws.recycle(out.output);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
sprint_bench::bench_main!(benches);
