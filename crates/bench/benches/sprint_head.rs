//! Criterion bench: one Sprint head end to end, at intra-head width 1
//! and 2.
//!
//! `Engine::run_head` on a BERT-base s = 512 head (276 live keys,
//! tiles of 128/128/20) under the default noise model: crossbar
//! programming, 276 analog thresholding rows, fetch accounting and the
//! 8-bit recompute kernel. The width is the `threads` of a one-head
//! `Engine::run_batch_report`: at width 2 the column tiles program and
//! prune on two workers (128 | 148 columns) and the recompute kernel
//! splits its rows by kept keys. Two rows, equal bits:
//!
//! * `sprint_head/bert_base_s512/width_1`
//! * `sprint_head/bert_base_s512/width_2`
//!
//! One sample is one head on a warm engine. Run with `-- --bench-json`
//! to record both in `BENCH_report.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use sprint_engine::{Engine, HeadRequest, SprintConfig};
use sprint_workloads::{ModelConfig, TraceGenerator};

const SEED: u64 = 20220930;

fn bench(c: &mut Criterion) {
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(512);
    let head = TraceGenerator::new(SEED).generate(&spec).expect("trace");
    let request = [HeadRequest::from_trace(&head)];
    let engine = Engine::builder(SprintConfig::medium())
        .seed(SEED)
        .build()
        .expect("engine");
    let (want, _) = engine.run_batch_report(1, &request).expect("head");

    let mut group = c.benchmark_group("sprint_head");
    group.sample_size(30);
    for width in [1, 2] {
        let (got, _) = engine.run_batch_report(width, &request).expect("head");
        assert_eq!(got, want, "width {width} moved a bit");
        group.bench_function(&format!("bert_base_s512/width_{width}"), |b| {
            b.iter(|| black_box(engine.run_batch_report(width, &request).expect("head")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
sprint_bench::bench_main!(benches);
