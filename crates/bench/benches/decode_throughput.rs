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
//! ≥5x tokens/sec at s = 512).
//!
//! Beside them, what a rehydrated session pays for its crossbars over a
//! GPT-2-large 320-row history under the default noise (sampled in
//! alternation, see [`rebuild_samples`]):
//!
//! * `rebuild/fresh_gpt2l_h320` — `InMemoryPruner::new`, every cell's
//!   programming variation drawn and transformed;
//! * `rebuild/in_place_gpt2l_h320` — `InMemoryPruner::reprogram` of a
//!   pruner whose last 20 keys were appended after reads, as an evicted
//!   session's are: the 300 columns before them keep their weights.
//!
//! `report --check` holds `in_place` at most half of `fresh`. Run with
//! `-- --bench-json` to record all four rows in `BENCH_report.json`.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;

use sprint_attention::Matrix;
use sprint_engine::{DecodeStep, Engine, HeadRequest, SessionRequest, SprintConfig};
use sprint_reram::{InMemoryPruner, NoiseModel, ThresholdSpec};
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

/// History rows of the rebuild rows: about what a `decode_churn`
/// session holds when it resumes.
const HISTORY: usize = 320;
/// Of those, the keys appended one decode step at a time before the
/// in-place reprogram.
const APPENDED: usize = 20;
/// Samples of each rebuild row.
const REBUILD_SAMPLES: usize = 10;

/// Samples of `rebuild/fresh_gpt2l_h320` and
/// `rebuild/in_place_gpt2l_h320`, the two rows the rebuild floor
/// divides. A round times both, in alternating order, so a slow spell
/// lands on both alike. Before each in-place sample, untimed, the pruner
/// is programmed over the first 300 rows and then decodes the last 20 as
/// a session does (append the key, calibrate, threshold the query), so
/// every sample reprograms the same state; both pruners must then
/// threshold a query to the same bits.
fn rebuild_samples() -> (Vec<u128>, Vec<u128>) {
    let spec = ModelConfig::gpt2_large()
        .trace_spec()
        .with_seq_len(HISTORY)
        .with_padding(0.0);
    let trace = TraceGenerator::new(0x4e5).generate(&spec).expect("trace");
    let (k, q) = (trace.k(), trace.q());
    let d = k.cols();
    let q0 = Matrix::zeros(1, d).expect("placeholder query");
    let (scale, noise, seed) = (trace.config().scale(), NoiseModel::default(), 7);
    let first = k.prefix_rows(HISTORY - APPENDED).expect("prefix");
    let spec = ThresholdSpec::default();
    let mut in_place = InMemoryPruner::new(&q0, &first, scale, noise, seed).expect("pruner");
    let decode = |pruner: &mut InMemoryPruner| {
        pruner
            .reprogram(&q0, &first, scale, noise, seed)
            .expect("reprogram");
        for t in HISTORY - APPENDED..HISTORY {
            let history = || k.prefix_rows(t + 1).expect("history");
            pruner.extend_row(k.row(t), history).expect("append");
            let q1 = Matrix::from_vec(1, d, q.row(t).to_vec()).expect("query");
            pruner.calibrate_query(&q1, false).expect("calibrate");
            pruner
                .prune_query(q.row(t), trace.threshold(), &spec)
                .expect("prune");
        }
    };
    let time = |build: &mut dyn FnMut()| {
        let start = Instant::now();
        build();
        start.elapsed().as_nanos()
    };
    let (mut fresh, mut kept, mut built) = (Vec::new(), Vec::new(), None);
    for round in 0..REBUILD_SAMPLES {
        decode(&mut in_place);
        let mut build_fresh = || {
            built = Some(InMemoryPruner::new(&q0, k, scale, noise, seed).expect("pruner"));
        };
        let mut build_in_place = || {
            in_place
                .reprogram(&q0, k, scale, noise, seed)
                .expect("reprogram");
        };
        if round % 2 == 0 {
            fresh.push(time(&mut build_fresh));
            kept.push(time(&mut build_in_place));
        } else {
            kept.push(time(&mut build_in_place));
            fresh.push(time(&mut build_fresh));
        }
    }
    let mut built = built.expect("sampled");
    let row = q.row(HISTORY - 1);
    assert_eq!(
        built.prune_query(row, trace.threshold(), &spec),
        in_place.prune_query(row, trace.threshold(), &spec),
        "the in-place reprogram moved a bit"
    );
    (fresh, kept)
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

    let (fresh, in_place) = rebuild_samples();
    group.record_samples("rebuild/fresh_gpt2l_h320", fresh);
    group.record_samples("rebuild/in_place_gpt2l_h320", in_place);
    group.finish();
}

criterion_group!(benches, bench);
sprint_bench::bench_main!(benches);
