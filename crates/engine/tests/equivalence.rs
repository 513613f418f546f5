//! The engine's central contract: state reuse changes nothing.
//!
//! Every test compares [`sprint_engine::Engine`] — crossbars
//! reprogrammed in place, controller cold-reset, pooled scratch —
//! against [`sprint_engine::reference::run_head_frozen`], the frozen
//! pre-engine pipeline that rebuilds everything per call. Responses must be bit-identical
//! (`PartialEq` over output matrix, decisions and both stat blocks),
//! across all four execution modes, head shapes, and worker counts.

use sprint_attention::{Matrix, PaddingMask};
use sprint_engine::{
    derive_head_seed, reference, Engine, ExecutionMode, HeadRequest, HeadResponse, SprintConfig,
};
use sprint_reram::{NoiseModel, ThresholdSpec};
use sprint_workloads::{HeadTrace, ModelConfig, TraceGenerator};

fn trace(model: ModelConfig, seq: usize, seed: u64) -> HeadTrace {
    let spec = model.trace_spec().with_seq_len(seq);
    TraceGenerator::new(seed).generate(&spec).unwrap()
}

fn frozen(
    req: &HeadRequest,
    engine: &Engine,
    seed: u64,
    mode: ExecutionMode,
    spec: &ThresholdSpec,
) -> HeadResponse {
    reference::run_head_frozen(req, engine.config(), engine.noise(), seed, spec, mode).unwrap()
}

#[test]
fn engine_matches_seed_path_across_modes_and_reused_state() {
    // One engine executes a stream of heads of different models,
    // shapes and modes; every response must equal the fresh-state
    // seed pipeline's. Noise is ON, so pruner RNG state reuse bugs
    // cannot hide.
    let noise = NoiseModel::default();
    let engine = Engine::builder(SprintConfig::medium())
        .noise(noise)
        .seed(0x5eed ^ 0x1234)
        .build()
        .unwrap();
    let heads = [
        trace(ModelConfig::bert_base(), 96, 1),
        trace(ModelConfig::vit_base(), 64, 2),
        trace(ModelConfig::bert_base(), 48, 3),
    ];
    let spec = ThresholdSpec::default();
    let mut head_id = 0u64;
    for t in &heads {
        for mode in ExecutionMode::ALL {
            let req = HeadRequest::from_trace(t)
                .with_head_id(head_id)
                .with_mode(mode);
            let got = engine.run_head(&req).unwrap();
            let seed = derive_head_seed(engine.seed(), head_id);
            let want = frozen(&req, &engine, seed, mode, &spec);
            assert_eq!(got, want, "mode {mode:?}, head {head_id}");
            head_id += 1;
        }
    }
}

#[test]
fn engine_matches_seed_path_for_cross_shaped_heads() {
    // s_q != s_k: a 3-query "decode" step against a 64-key cache, and
    // the transposed case, both unpadded.
    let t = trace(ModelConfig::bert_base(), 64, 7);
    let q3 = {
        let mut m = Matrix::zeros(3, t.q().cols()).unwrap();
        for r in 0..3 {
            m.row_mut(r).copy_from_slice(t.q().row(r));
        }
        m
    };
    let engine = Engine::builder(SprintConfig::small())
        .noise(NoiseModel::default())
        .seed(99)
        .build()
        .unwrap();
    let spec = ThresholdSpec::default();
    for mode in ExecutionMode::ALL {
        let narrow = HeadRequest::new(&q3, t.k(), t.v(), t.config(), t.threshold()).with_mode(mode);
        let got = engine.run_head(&narrow).unwrap();
        let want = frozen(&narrow, &engine, derive_head_seed(99, 0), mode, &spec);
        assert_eq!(got, want, "narrow, mode {mode:?}");
        assert_eq!(got.output.rows(), 3);
        assert_eq!(got.decisions.len(), 3);

        let wide = HeadRequest::new(t.q(), &q3, &q3, t.config(), t.threshold()).with_mode(mode);
        let got = engine.run_head(&wide).unwrap();
        let want = frozen(&wide, &engine, derive_head_seed(99, 0), mode, &spec);
        assert_eq!(got, want, "wide, mode {mode:?}");
        assert_eq!(got.decisions[0].len(), 3);
    }
}

#[test]
fn engine_matches_seed_path_for_fully_padded_heads() {
    let t = trace(ModelConfig::bert_base(), 32, 9);
    let engine = Engine::builder(SprintConfig::small())
        .seed(5)
        .build()
        .unwrap();
    let spec = ThresholdSpec::default();
    let dead = PaddingMask::new(t.seq_len(), 0).unwrap();
    for mode in ExecutionMode::ALL {
        let req = HeadRequest::from_trace(&t)
            .with_padding(dead)
            .with_mode(mode);
        let got = engine.run_head(&req).unwrap();
        let want = frozen(&req, &engine, derive_head_seed(5, 0), mode, &spec);
        assert_eq!(got, want, "mode {mode:?}");
        assert!(got.output.as_slice().iter().all(|&x| x == 0.0));
    }
}

#[test]
fn engine_matches_seed_path_for_all_pruned_heads() {
    // A hugely negative comparator margin makes the analog threshold
    // unreachable: every key of every query is pruned in memory, the
    // recompute path sees only all-pruned decisions.
    let t = trace(ModelConfig::bert_base(), 48, 11);
    let spec = ThresholdSpec {
        score_bits: None,
        margin_fraction: -1.0e3,
    };
    let engine = Engine::builder(SprintConfig::small())
        .noise(NoiseModel::default())
        .threshold_spec(spec)
        .seed(13)
        .build()
        .unwrap();
    for mode in [ExecutionMode::Sprint, ExecutionMode::NoRecompute] {
        let req = HeadRequest::from_trace(&t).with_mode(mode);
        let got = engine.run_head(&req).unwrap();
        let want = frozen(&req, &engine, derive_head_seed(13, 0), mode, &spec);
        assert_eq!(got, want, "mode {mode:?}");
        assert!(
            got.decisions.iter().all(|d| d.kept_count() == 0),
            "{mode:?}"
        );
        assert_eq!(got.memory_stats.fetched_vectors, 0, "{mode:?}");
    }
}

#[test]
fn run_batch_is_worker_count_independent() {
    // The acceptance criterion: run_batch results depend only on the
    // batch, never on SPRINT_THREADS (which flows into the same
    // worker-count cap run_batch_threads sweeps here).
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(64);
    let heads = TraceGenerator::new(21).generate_many(&spec, 6).unwrap();
    let engine = Engine::builder(SprintConfig::small())
        .noise(NoiseModel::default())
        .seed(0xba7c4)
        // Explicit slots so the 2/4/8-worker sweeps genuinely run
        // concurrently even when available_parallelism is 1.
        .worker_slots(8)
        .build()
        .unwrap();
    let requests: Vec<HeadRequest> = heads.iter().map(HeadRequest::from_trace).collect();
    let one = engine.run_batch_threads(1, &requests).unwrap();
    for threads in [2usize, 4, 8] {
        let many = engine.run_batch_threads(threads, &requests).unwrap();
        assert_eq!(one, many, "{threads} workers");
    }
    // And each slot equals the single-head path seeded by position.
    for (i, req) in requests.iter().enumerate() {
        let single = engine
            .run_head_seeded(req, derive_head_seed(engine.seed(), i as u64))
            .unwrap();
        assert_eq!(single, one[i], "head {i}");
    }
}

#[test]
fn shim_seed_compatibility_via_raw_seeds() {
    // run_head_seeded with a raw seed reproduces what the pre-engine
    // pipeline built with (cfg, noise, seed) produced.
    let t = trace(ModelConfig::bert_base(), 80, 15);
    let engine = Engine::builder(SprintConfig::medium())
        .noise(NoiseModel::default())
        .build()
        .unwrap();
    let spec = ThresholdSpec::default();
    for (mode, raw_seed) in [
        (ExecutionMode::Sprint, 5u64),
        (ExecutionMode::NoRecompute, 777),
    ] {
        let req = HeadRequest::from_trace(&t).with_mode(mode);
        let got = engine.run_head_seeded(&req, raw_seed).unwrap();
        let want = frozen(&req, &engine, raw_seed, mode, &spec);
        assert_eq!(got, want, "mode {mode:?} seed {raw_seed}");
    }
}
