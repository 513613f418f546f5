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
//! Beside them, the head's recompute kernel alone, at width 1, on the
//! head's own decisions (`quantized_attention_output_with`: the QK-PU,
//! the two-LUT softmax and the V-PU over the kept pairs). `report
//! --check` holds it under a third of `width_1`:
//!
//! * `sprint_head/bert_base_s512/recompute`
//!
//! Beside them, the head's analog prune alone, at width 1: all 276
//! live query rows through one `InMemoryPruner::prune_rows_into` call.
//! The comparators need only decisions (Sprint) or also the
//! approximate scores (NoRecompute, `prune_query`), which run the read
//! noise's Box–Muller transform on every column:
//!
//! * `reram/prune_rows/bert_base_s512/decisions`
//! * `reram/prune_rows/bert_base_s512/scores`
//!
//! One sample is one head (or one head's recompute or prune) on a warm
//! engine. Run with `-- --bench-json` to record all five in
//! `BENCH_report.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;

use sprint_attention::{quantized_attention_output_with, Workspace};
use sprint_engine::{Engine, HeadRequest, SprintConfig};
use sprint_reram::InMemoryPruner;
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
    let decisions = Some(want[0].decisions.as_slice());
    let mut ws = Workspace::new();
    let (q, k, v, cfg) = (head.q(), head.k(), head.v(), head.config());
    let recomputed = quantized_attention_output_with(q, k, v, &cfg, decisions, &mut ws);
    assert_eq!(
        recomputed.expect("recompute"),
        want[0].output,
        "the head's own output"
    );
    group.bench_function("bert_base_s512/recompute", |b| {
        b.iter(|| {
            let out = quantized_attention_output_with(q, k, v, &cfg, decisions, &mut ws);
            ws.recycle(black_box(out.expect("recompute")));
        })
    });
    group.finish();

    let live = head.live_tokens();
    let q = head.q().prefix_rows(live).expect("live queries");
    let k = head.k().prefix_rows(live).expect("live keys");
    let scale = head.config().scale();
    let mut pruner = InMemoryPruner::new(&q, &k, scale, engine.noise(), SEED).expect("pruner");
    let spec = engine.threshold_spec();
    let mut flags = vec![vec![false; live]; live];
    let mut scores = vec![vec![0.0f32; live]; live];
    let mut group = c.benchmark_group("reram");
    group.sample_size(30);
    for with_scores in [false, true] {
        let name = if with_scores { "scores" } else { "decisions" };
        group.bench_function(&format!("prune_rows/bert_base_s512/{name}"), |b| {
            b.iter(|| {
                let mut rows: Vec<&mut [bool]> = flags.iter_mut().map(|f| &mut f[..]).collect();
                let mut approx: Vec<&mut [f32]> = scores.iter_mut().map(|s| &mut s[..]).collect();
                pruner
                    .prune_rows_into(
                        q.as_slice(),
                        head.threshold(),
                        &spec,
                        &mut rows,
                        with_scores.then_some(&mut approx[..]),
                    )
                    .expect("prune");
                black_box(&rows);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
sprint_bench::bench_main!(benches);
