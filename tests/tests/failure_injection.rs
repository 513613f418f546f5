//! Failure injection: the stack must reject malformed inputs with
//! useful errors rather than panicking or silently mis-computing.

use sprint_attention::Matrix;
use sprint_core::SprintConfig;
use sprint_memory::{MemoryController, MemoryGeometry};
use sprint_reram::{InMemoryPruner, NoiseModel, ThresholdSpec};
use sprint_workloads::{TraceGenerator, TraceSpec};

#[test]
fn pruning_vector_length_drift_is_caught_at_the_controller() {
    let mut mc = MemoryController::new(
        MemoryGeometry::default(),
        sprint_energy::TimingParams::default(),
    )
    .unwrap();
    mc.process_query(&[false; 32]).unwrap();
    let err = mc.process_query(&[false; 33]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("length"), "unhelpful error: {msg}");
}

#[test]
fn pruner_rejects_mismatched_query_dimensions() {
    let k = Matrix::from_vec(8, 16, vec![0.1; 128]).unwrap();
    let q = Matrix::from_vec(4, 16, vec![0.1; 64]).unwrap();
    let mut pruner = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 1).unwrap();
    // Wrong-length query row.
    assert!(pruner
        .prune_query(&[0.0; 8], 0.0, &ThresholdSpec::default())
        .is_err());
    // Invalid quantization request.
    assert!(pruner
        .prune_query(&[0.0; 16], 0.0, &ThresholdSpec::quantized(0))
        .is_err());
}

#[test]
fn trace_generator_rejects_degenerate_specs() {
    let bad_specs = [
        TraceSpec {
            seq_len: 0,
            head_dim: 16,
            prune_rate: 0.5,
            padding_fraction: 0.0,
            target_overlap: 0.8,
        },
        TraceSpec {
            seq_len: 32,
            head_dim: 16,
            prune_rate: 1.0,
            padding_fraction: 0.0,
            target_overlap: 0.8,
        },
        TraceSpec {
            seq_len: 32,
            head_dim: 16,
            prune_rate: 0.5,
            padding_fraction: 1.5,
            target_overlap: 0.8,
        },
    ];
    for spec in bad_specs {
        assert!(
            TraceGenerator::new(1).generate(&spec).is_err(),
            "spec {spec:?} must be rejected"
        );
    }
}

#[test]
fn degenerate_configurations_still_simulate() {
    // A 1 KiB buffer (8 pairs) and a 1-token sequence must not panic
    // anywhere in the counting simulator.
    use sprint_core::counting::{simulate_head, ExecutionMode};
    use sprint_core::HeadProfile;
    let mut cfg = SprintConfig::small();
    cfg.onchip_kib = 1;
    let tiny = HeadProfile::synthetic(1, 1, 1.0, 1.0, 1);
    for mode in [
        ExecutionMode::Baseline,
        ExecutionMode::MaskOnly,
        ExecutionMode::PruningOnly,
        ExecutionMode::Sprint,
    ] {
        let perf = simulate_head(&tiny, &cfg, mode);
        assert!(perf.energy.total().as_pj() > 0.0, "{mode:?}");
    }
    let starved = HeadProfile::synthetic(512, 512, 0.5, 0.9, 2);
    let perf = simulate_head(&starved, &cfg, ExecutionMode::Sprint);
    assert!(perf.fetched_pairs > 0);
}

#[test]
fn fully_pruned_queries_flow_through_the_whole_stack() {
    // An in-memory threshold far above every score prunes everything;
    // the system must return all-zero outputs, not NaNs or panics.
    let spec = TraceSpec {
        seq_len: 24,
        head_dim: 16,
        prune_rate: 0.5,
        padding_fraction: 0.0,
        target_overlap: 0.8,
    };
    let trace = TraceGenerator::new(5).generate(&spec).unwrap();
    let mut pruner = InMemoryPruner::new(
        trace.q(),
        trace.k(),
        trace.config().scale(),
        NoiseModel::ideal(),
        7,
    )
    .unwrap();
    let out = pruner
        .prune_query(trace.q().row(0), 1e9, &ThresholdSpec::default())
        .unwrap();
    assert_eq!(out.decision.kept_count(), 0);
    let decisions: Vec<_> = (0..24)
        .map(|_| sprint_attention::PruneDecision::new(vec![true; 24]))
        .collect();
    let result = sprint_attention::quantized_attention_with(
        trace.q(),
        trace.k(),
        trace.v(),
        &trace.config(),
        Some(&decisions),
        &mut sprint_attention::Workspace::new(),
    )
    .unwrap();
    for i in 0..24 {
        assert!(
            result.output.row(i).iter().all(|x| x.is_finite()),
            "row {i} contains non-finite values"
        );
        assert!(result.output.row(i).iter().all(|&x| x == 0.0));
    }
}
