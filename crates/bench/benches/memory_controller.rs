//! Criterion bench: the memory controller's per-query accounting.
//!
//! `MemoryController::process_query` is the §V flow every served query
//! and decode step pays for: the CopyQ/ReadP handshake counted on every
//! channel, the on-chip look-up of the kept keys, and the per-channel
//! split of the fetches they miss, each counted against its bank's open
//! row. Two rows, on M-SPRINT's geometry, over the trace decisions of
//! the benchmark seed:
//!
//! * `memory/process_query/warm_prefill_s512` — every live row of one
//!   BERT-base s = 512 head (276 queries) through one controller, cold
//!   only for the first: the warm path of `Engine::run_head`;
//! * `memory/process_query/cold_decode_gpt2l` — the 384 decode steps
//!   t = 128..512 of one GPT-2-large stream, each over its t + 1 keys on
//!   a cold-reset controller: the path of `DecodeSession::step`.
//!
//! One sample is the whole sequence; divide by 276 or 384 for a query.
//! Run with `-- --bench-json` to record both in `BENCH_report.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use sprint_engine::SprintConfig;
use sprint_workloads::{ModelConfig, TraceGenerator};

const SEED: u64 = 20220930;

fn bench(c: &mut Criterion) {
    let mut mc = SprintConfig::medium()
        .memory_controller()
        .expect("controller");

    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(512);
    let head = TraceGenerator::new(SEED).generate(&spec).expect("trace");
    let live = head.live_tokens();
    let rows: Vec<Vec<bool>> = head.reference_decisions()[..live]
        .iter()
        .map(|d| d.as_slice()[..live].to_vec())
        .collect();

    let spec = ModelConfig::gpt2_large()
        .trace_spec()
        .with_seq_len(512)
        .with_padding(0.0);
    let stream = TraceGenerator::new(SEED).generate(&spec).expect("trace");
    let steps: Vec<Vec<bool>> = (128..512)
        .map(|t| stream.reference_decisions()[t].as_slice()[..=t].to_vec())
        .collect();

    let mut group = c.benchmark_group("memory");
    group.sample_size(50);
    group.bench_function("process_query/warm_prefill_s512", |b| {
        b.iter(|| {
            mc.reset_cold();
            for row in &rows {
                mc.process_query(row).expect("query");
            }
            black_box(mc.stats())
        })
    });
    group.bench_function("process_query/cold_decode_gpt2l", |b| {
        b.iter(|| {
            let mut fetched = 0;
            for step in &steps {
                mc.reset_cold();
                mc.process_query(step).expect("step");
                fetched += mc.stats().fetched_vectors;
            }
            black_box(fetched)
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
sprint_bench::bench_main!(benches);
