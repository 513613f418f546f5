//! Cross-crate integration: the full functional pipeline against the
//! analytical reference implementations.

use sprint_attention::{
    mean_abs_error, prune_set_overlap, pruned_attention_with, PruneDecision, Workspace,
};
use sprint_core::SprintConfig;
use sprint_engine::{
    Engine, ExecutionMode, HeadRequest, HeadResponse, ModelProfile, ModelRequest, ModelResponse,
    ModelServer,
};
use sprint_reram::{InMemoryPruner, NoiseModel, ThresholdSpec};
use sprint_workloads::{ModelConfig, TraceGenerator};

fn bert_trace(seq: usize, seed: u64) -> sprint_workloads::HeadTrace {
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
    TraceGenerator::new(seed).generate(&spec).unwrap()
}

/// One SPRINT-mode head through an engine built for `config`.
fn run_sprint(
    config: SprintConfig,
    noise: NoiseModel,
    seed: u64,
    trace: &sprint_workloads::HeadTrace,
) -> HeadResponse {
    let engine = Engine::builder(config)
        .noise(noise)
        .mode(ExecutionMode::Sprint)
        .seed(seed)
        .build()
        .unwrap();
    engine.run_head(&HeadRequest::from_trace(trace)).unwrap()
}

#[test]
fn margin_protects_reference_kept_set_across_the_stack() {
    // DESIGN.md invariant 3, end to end: with the 3-sigma margin, the
    // in-memory kept set is (nearly) a superset of the digital one, so
    // recompute can restore the reference output.
    let trace = bert_trace(96, 31);
    let live = trace.live_tokens();
    let noise = NoiseModel::default();
    let mut pruner = InMemoryPruner::new(
        &trace.q().prefix_rows(live).unwrap(),
        &trace.k().prefix_rows(live).unwrap(),
        trace.config().scale(),
        noise,
        77,
    )
    .unwrap();
    let spec = ThresholdSpec::analog_with_noise_margin(&noise);
    let mut worst_recall = 1.0f64;
    for i in 0..live {
        let outcome = pruner
            .prune_query(trace.q().row(i), trace.threshold(), &spec)
            .unwrap();
        // Digital reference on the live region.
        let reference = PruneDecision::new(
            (0..live)
                .map(|j| trace.reference_decisions()[i].is_pruned(j))
                .collect(),
        );
        let recall = prune_set_overlap(&reference, &outcome.decision);
        worst_recall = worst_recall.min(recall);
    }
    // The margin protects against analog noise; the 4-bit MSB
    // approximation itself can still flip a few borderline keys.
    assert!(worst_recall > 0.85, "worst per-query recall {worst_recall}");
}

#[test]
fn sprint_system_output_matches_runtime_pruning_reference() {
    let trace = bert_trace(96, 32);
    let out = run_sprint(SprintConfig::medium(), NoiseModel::default(), 5, &trace);
    let (reference, _) = pruned_attention_with(
        trace.q(),
        trace.k(),
        trace.v(),
        &trace.config(),
        trace.threshold(),
        Some(&trace.padding()),
        &mut Workspace::new(),
    )
    .unwrap();
    let mae = mean_abs_error(&out.output, &reference.output).unwrap();
    assert!(mae < 0.12, "recomputed output diverges: mae {mae}");
}

#[test]
fn memory_side_reuse_matches_trace_locality() {
    // The memory controller's reuse fraction should track the trace's
    // adjacent-query overlap statistic.
    let trace = bert_trace(128, 33);
    let out = run_sprint(SprintConfig::medium(), NoiseModel::ideal(), 5, &trace);
    let stats = out.memory_stats;
    let reuse =
        stats.reused_vectors as f64 / (stats.reused_vectors + stats.fetched_vectors).max(1) as f64;
    let overlap = trace.stats().mean_adjacent_overlap;
    assert!(
        (reuse - overlap).abs() < 0.15,
        "memory reuse {reuse} vs trace overlap {overlap}"
    );
}

#[test]
fn sprint_decisions_drive_both_memory_and_compute_consistently() {
    let trace = bert_trace(80, 34);
    let out = run_sprint(SprintConfig::small(), NoiseModel::ideal(), 9, &trace);
    // Every kept decision appears as either a fetch or a reuse in the
    // memory stats.
    let kept_total: u64 = out.decisions.iter().map(|d| d.kept_count() as u64).sum();
    assert_eq!(
        kept_total,
        out.memory_stats.fetched_vectors + out.memory_stats.reused_vectors,
        "memory accounting must cover exactly the kept set"
    );
    // And the ReRAM side thresholded every live query.
    assert_eq!(out.prune_stats.queries_pruned as usize, trace.live_tokens());
}

#[test]
fn model_server_serves_the_four_pipelines_end_to_end() {
    // One server, one model, all four pipelines side by side — the
    // model-level serving shape. The layers × heads decomposition is
    // the server's job now (no hand-rolled iteration here), and the
    // mode contrast must still show the paper's story at model
    // granularity: pruning cuts data movement, recompute restores
    // decision fidelity.
    let server = ModelServer::new(
        Engine::builder(SprintConfig::medium())
            .noise(NoiseModel::default())
            .seed(77)
            .build()
            .unwrap(),
    );
    let profile = ModelProfile::from_model(&ModelConfig::bert_base())
        .with_heads(2)
        .with_layer_seq_lens(vec![96, 64]); // ragged encoder stack
    let serve = |mode: ExecutionMode| -> ModelResponse {
        server
            .serve(
                &ModelRequest::new(profile.clone())
                    .with_seed(40)
                    .with_mode(mode)
                    .with_accuracy(true),
            )
            .unwrap()
    };
    let [dense, oracle, no_rec, sprint] = ExecutionMode::ALL.map(serve);

    // Data movement: the dense baseline touches every live key, SPRINT
    // fetches a fraction of them.
    let touched = |r: &ModelResponse| r.total.fetched_vectors + r.total.reused_vectors;
    assert!(
        touched(&dense) > touched(&sprint),
        "pruning cuts key traffic"
    );
    assert!(
        dense.total.bytes_fetched > sprint.total.bytes_fetched,
        "pruning cuts bytes moved"
    );
    assert!((dense.total.kept_fraction() - 1.0).abs() < 1e-12);
    assert!(oracle.total.kept_fraction() < 1.0, "oracle prunes");
    assert!(
        dense.total.energy.total() > sprint.total.energy.total(),
        "pruning cuts counted energy"
    );
    assert!(
        dense.total.cycles > sprint.total.cycles,
        "and counted latency"
    );

    // Fidelity: recompute restores the runtime-pruning decision level;
    // approximate analog scores alone agree less with the dense
    // predictions.
    let agreement = |r: &ModelResponse| r.total.accuracy().unwrap().agreement;
    assert!(
        agreement(&sprint) + 1e-9 >= agreement(&no_rec),
        "recompute agreement {} must not trail no-recompute {}",
        agreement(&sprint),
        agreement(&no_rec)
    );
    assert!(
        (agreement(&sprint) - agreement(&oracle)).abs() < 0.12,
        "SPRINT ({}) tracks runtime pruning ({})",
        agreement(&sprint),
        agreement(&oracle)
    );

    // Strict head-level recompute guard: for one head of the same
    // plan, the recomputed output must be strictly closer to the
    // oracle's than the raw analog scores are — a silently disabled
    // recompute stage cannot hide behind the aggregate agreement
    // means above.
    let plan = ModelRequest::new(profile.clone())
        .with_seed(40)
        .head_plan()
        .remove(0);
    let head_trace = TraceGenerator::new(plan.trace_seed)
        .generate(&plan.spec)
        .unwrap();
    let run_mode = |mode: ExecutionMode| {
        server
            .engine()
            .run_head(
                &HeadRequest::from_trace(&head_trace)
                    .with_head_id(plan.head_id)
                    .with_mode(mode),
            )
            .unwrap()
    };
    let oracle_out = run_mode(ExecutionMode::Oracle);
    let err_sprint =
        mean_abs_error(&run_mode(ExecutionMode::Sprint).output, &oracle_out.output).unwrap();
    let err_no_rec = mean_abs_error(
        &run_mode(ExecutionMode::NoRecompute).output,
        &oracle_out.output,
    )
    .unwrap();
    assert!(
        err_no_rec > err_sprint,
        "no-recompute ({err_no_rec}) must be strictly worse than recompute ({err_sprint})"
    );

    // The analog side thresholded every live query of every head, and
    // the digital baseline never touched the ReRAM pruner.
    assert_eq!(dense.total.queries_pruned, 0);
    let live = |s: usize| (s as f64 * (1.0 - 0.46f64)).round() as u64;
    assert_eq!(
        sprint.total.queries_pruned,
        2 * (live(96) + live(64)),
        "two heads per layer, every live query thresholded"
    );

    // Roll-up consistency: layers merge to the total.
    for r in [&dense, &oracle, &no_rec, &sprint] {
        assert_eq!(r.layers.len(), 2);
        assert_eq!(r.layers[0].seq_len, 96);
        assert_eq!(r.layers[1].seq_len, 64);
        let mut merged = sprint_engine::PerfRollup::default();
        for layer in &r.layers {
            merged.merge(&layer.perf);
        }
        assert_eq!(merged, r.total);
    }
}
