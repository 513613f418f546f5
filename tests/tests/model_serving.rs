//! Model-level serving contracts: `ModelServer` must be bit-identical
//! across worker counts and exactly equal to a sequential loop of
//! independent `run_head` calls folded through the public roll-up API
//! — for any profile shape, ragged layers included.

use proptest::prelude::*;

use sprint_engine::{
    Engine, ExecutionMode, HeadRequest, LayerReport, ModelProfile, ModelRequest, ModelResponse,
    ModelServer, PerfRollup, SprintConfig,
};
use sprint_reram::NoiseModel;
use sprint_workloads::{ModelConfig, ProxyTask, TraceGenerator};

/// The sequential per-head reference: walk the request's own
/// [`ModelRequest::head_plan`], run every head through `run_head`
/// independently, and fold the responses with the public
/// [`PerfRollup`] API. This is the loop `ModelServer::serve` replaces;
/// the server must match it bit for bit.
fn reference_serve(server: &ModelServer, request: &ModelRequest) -> ModelResponse {
    let engine = server.engine();
    let mode = request.mode_override().unwrap_or(engine.mode());
    let mut layers: Vec<LayerReport> = request
        .profile()
        .layer_seq_lens()
        .iter()
        .enumerate()
        .map(|(layer, &seq_len)| LayerReport {
            layer,
            seq_len,
            perf: PerfRollup::default(),
        })
        .collect();
    let mut total = PerfRollup::default();
    for plan in request.head_plan() {
        let trace = TraceGenerator::new(plan.trace_seed)
            .generate(&plan.spec)
            .unwrap();
        let mut head = HeadRequest::from_trace(&trace).with_head_id(plan.head_id);
        if let Some(mode) = request.mode_override() {
            head = head.with_mode(mode);
        }
        if let Some(spec) = request.threshold_spec_override() {
            head = head.with_threshold_spec(spec);
        }
        let response = engine.run_head(&head).unwrap();
        let mut rollup = PerfRollup::from_response(
            mode,
            engine.config(),
            request.profile().head_dim(),
            plan.spec.seq_len,
            trace.live_tokens(),
            &response,
        );
        if request.wants_accuracy() {
            let model = request.profile().source().unwrap();
            let task = ProxyTask::new(&trace, model, plan.task_seed).unwrap();
            rollup.record_score(task.evaluate(&response.output).unwrap());
        }
        layers[plan.layer].perf.merge(&rollup);
    }
    // Totals are defined as the merge of the layer reports, matching
    // the server's fold order exactly.
    for layer in &layers {
        total.merge(&layer.perf);
    }
    ModelResponse {
        model: request.profile().name().to_string(),
        mode,
        layers,
        total,
    }
}

fn server(slots: usize) -> ModelServer {
    ModelServer::new(
        Engine::builder(SprintConfig::small())
            .noise(NoiseModel::default())
            .seed(9)
            .worker_slots(slots)
            .build()
            .unwrap(),
    )
}

#[test]
fn serving_is_bit_identical_across_worker_counts() {
    // The acceptance contract: 1/2/4/8 workers and the sequential
    // per-head reference all produce the same ModelResponse, down to
    // the accuracy means (same fold order, same f64 sums).
    let server = server(8);
    let profile = ModelProfile::from_model(&ModelConfig::bert_base())
        .with_heads(2)
        .with_layer_seq_lens(vec![48, 32, 40]);
    let request = ModelRequest::new(profile).with_seed(21).with_accuracy(true);
    let reference = reference_serve(&server, &request);
    assert!(reference.total.accuracy().is_some());
    for workers in [1usize, 2, 4, 8] {
        let (responses, _) = server
            .serve_many_report(workers, std::slice::from_ref(&request))
            .unwrap();
        assert_eq!(
            responses,
            std::slice::from_ref(&reference),
            "workers = {workers}"
        );
    }
}

#[test]
fn repeated_serves_reuse_state_without_drift() {
    // A long-lived server must give the same answer on the hundredth
    // pass as on the first, whatever ran in between.
    let server = server(2);
    let profile = ModelProfile::from_model(&ModelConfig::vit_base())
        .with_layers(1)
        .with_heads(2)
        .with_seq_len(40);
    let request = ModelRequest::new(profile).with_seed(3);
    let first = server.serve(&request).unwrap();
    // Interleave unrelated traffic of different shapes and modes.
    for (i, mode) in ExecutionMode::ALL.iter().enumerate() {
        let other = ModelProfile::from_model(&ModelConfig::bert_base())
            .with_layers(1)
            .with_heads(1)
            .with_seq_len(24 + 8 * i);
        server
            .serve(
                &ModelRequest::new(other)
                    .with_seed(i as u64)
                    .with_mode(*mode),
            )
            .unwrap();
    }
    assert_eq!(server.serve(&request).unwrap(), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random model shapes — ragged per-layer sequence lengths
    /// included — the served aggregation equals the sum of independent
    /// `run_head` calls on energy, cycles, data movement and accuracy.
    #[test]
    fn prop_serve_equals_sum_of_independent_heads(
        model_idx in 0usize..4,
        heads in 1usize..3,
        seq_lens in proptest::collection::vec(24usize..56, 1..4),
        base_seed in 0u64..1000,
        workers in 1usize..5,
        mode_idx in 0usize..4,
    ) {
        let models = [
            ModelConfig::bert_base(),
            ModelConfig::vit_base(),
            ModelConfig::gpt2_large(),
            ModelConfig::albert_xl(),
        ];
        let profile = ModelProfile::from_model(&models[model_idx])
            .with_heads(heads)
            .with_layer_seq_lens(seq_lens.clone());
        let request = ModelRequest::new(profile)
            .with_seed(base_seed)
            .with_mode(ExecutionMode::ALL[mode_idx])
            .with_accuracy(true);
        let server = server(4);
        let (mut served, _) = server
            .serve_many_report(workers, std::slice::from_ref(&request))
            .unwrap();
        let served = served.remove(0);
        let reference = reference_serve(&server, &request);
        prop_assert_eq!(&served, &reference);
        // Aggregation sanity on top of equality: totals are the merge
        // of the layers, and every layer holds exactly `heads` heads.
        let mut merged = PerfRollup::default();
        for layer in &served.layers {
            prop_assert_eq!(layer.perf.heads, heads as u64);
            merged.merge(&layer.perf);
        }
        prop_assert_eq!(&merged, &served.total);
        prop_assert_eq!(served.layers.len(), seq_lens.len());
    }
}
