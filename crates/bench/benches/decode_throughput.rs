//! Criterion bench: autoregressive decode throughput.
//!
//! Generates 64 tokens over a BERT-B-shaped head at a 512-token final
//! history (s = 512, d = 64, the paper's design-point noise) two ways:
//!
//! * `session/*` — one [`sprint_engine::DecodeSession`]: the prefill
//!   is programmed once, each step appends one crossbar column and one
//!   cached-quantized K/V row, and only the survivors recompute;
//! * `reprogram_per_step/*` — the naive baseline: a fresh full-prefix
//!   `Engine::run_head` per token, reprogramming the crossbars and
//!   requantizing the whole history every step.
//!
//! Both decode the same token stream with the same seeds. The ratio of
//! the two medians is the decode speedup (the session side must hold
//! ≥5x tokens/sec at s = 512); run with `-- --bench-json` to record
//! both in `BENCH_report.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use sprint_attention::Matrix;
use sprint_engine::{DecodeStep, Engine, HeadRequest, SessionRequest, SprintConfig};
use sprint_reram::NoiseModel;
use sprint_workloads::{HeadTrace, ModelConfig, TraceGenerator};

const TOTAL: usize = 512;
const DECODED: usize = 64;
const PREFILL: usize = TOTAL - DECODED;

fn stream() -> HeadTrace {
    let spec = ModelConfig::bert_base()
        .trace_spec()
        .with_seq_len(TOTAL)
        .with_padding(0.0);
    TraceGenerator::new(0xdec0).generate(&spec).expect("trace")
}

fn prefix(m: &Matrix, n: usize) -> Matrix {
    m.prefix_rows(n).expect("prefix")
}

fn bench(c: &mut Criterion) {
    let engine = Engine::builder(SprintConfig::medium())
        .noise(NoiseModel::default())
        .seed(7)
        .build()
        .expect("engine build");
    let trace = stream();
    let (pk, pv) = (prefix(trace.k(), PREFILL), prefix(trace.v(), PREFILL));

    let mut group = c.benchmark_group("decode_throughput");
    group.sample_size(10);

    group.bench_function(&format!("session/{DECODED}tok_s{TOTAL}"), |b| {
        b.iter(|| {
            let mut session = engine
                .open_session(
                    &SessionRequest::new(&pk, &pv, trace.config(), trace.threshold())
                        .with_head_id(1),
                )
                .expect("open session");
            let mut kept = 0usize;
            for t in PREFILL..TOTAL {
                let out = session
                    .step(&DecodeStep {
                        q: trace.q().row(t),
                        k: trace.k().row(t),
                        v: trace.v().row(t),
                    })
                    .expect("step");
                kept += out.decision.kept_count();
            }
            black_box(kept)
        })
    });

    group.bench_function(&format!("reprogram_per_step/{DECODED}tok_s{TOTAL}"), |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for t in PREFILL..TOTAL {
                let q1 = prefix(trace.q(), 1);
                let mut q1 = q1;
                q1.row_mut(0).copy_from_slice(trace.q().row(t));
                let hist_k = prefix(trace.k(), t + 1);
                let hist_v = prefix(trace.v(), t + 1);
                let out = engine
                    .run_head(
                        &HeadRequest::new(&q1, &hist_k, &hist_v, trace.config(), trace.threshold())
                            .with_head_id(1),
                    )
                    .expect("head");
                kept += out.decisions[0].kept_count();
            }
            black_box(kept)
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
sprint_bench::bench_main!(benches);
