//! Fault-tolerant substrate, end to end: injected ReRAM faults must
//! degrade service gracefully — results stay bit-identical across
//! worker counts, no errors surface under non-Fail policies, and
//! unrepairable damage demotes to the exact digital pipeline instead
//! of corrupting outputs.

use sprint_core::SprintConfig;
use sprint_engine::{
    Engine, ExecutionMode, FaultPolicy, HeadRequest, ModelProfile, ModelRequest, ModelServer,
    SessionOpen, SessionTable, SprintError,
};
use sprint_reram::{FaultModel, NoiseModel, ReramError};
use sprint_tests::run_streams;
use sprint_workloads::{ModelConfig, TraceGenerator};

fn traces(n: usize, seq: usize) -> Vec<sprint_workloads::HeadTrace> {
    (0..n)
        .map(|i| {
            let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
            TraceGenerator::new(1000 + i as u64)
                .generate(&spec)
                .unwrap()
        })
        .collect()
}

fn engine_with(
    model: Option<FaultModel>,
    policy: FaultPolicy,
    mode: ExecutionMode,
    workers: usize,
) -> Engine {
    let mut b = Engine::builder(SprintConfig::medium())
        .noise(NoiseModel::default())
        .mode(mode)
        .seed(0xdead)
        .worker_slots(workers)
        .fault_policy(policy);
    if let Some(m) = model {
        b = b.fault_model(m);
    }
    b.build().unwrap()
}

#[test]
fn fault_policy_without_a_model_changes_nothing() {
    // The pinned contract: a fault-free engine is bit-identical to the
    // pre-fault pipeline no matter which policy it carries, and every
    // response reports a clean default fault record.
    let traces = traces(3, 48);
    let requests: Vec<HeadRequest> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| HeadRequest::from_trace(t).with_head_id(i as u64))
        .collect();
    let baseline = engine_with(None, FaultPolicy::default(), ExecutionMode::Sprint, 1)
        .run_batch(&requests)
        .unwrap();
    for policy in [
        FaultPolicy::Monitor,
        FaultPolicy::Retry { max_attempts: 5 },
        FaultPolicy::Remap {
            max_attempts: 2,
            spare_columns: 8,
        },
        FaultPolicy::Fail { max_attempts: 1 },
    ] {
        let responses = engine_with(None, policy, ExecutionMode::Sprint, 1)
            .run_batch(&requests)
            .unwrap();
        assert_eq!(responses, baseline, "policy {policy:?} altered results");
    }
    for response in &baseline {
        assert_eq!(response.faults, Default::default());
        assert!(!response.faults.degraded());
    }
}

#[test]
fn faulted_batches_are_bit_identical_across_1_2_4_8_workers() {
    // Fault state derives from each crossbar's construction-seed
    // identity, never from scheduling — so the same faulted batch must
    // produce the same bytes at every worker count.
    let model = FaultModel::uniform(0.05, 0xbad).unwrap();
    let traces = traces(6, 40);
    let requests: Vec<HeadRequest> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| HeadRequest::from_trace(t).with_head_id(i as u64))
        .collect();
    let reference = engine_with(
        Some(model),
        FaultPolicy::default(),
        ExecutionMode::Sprint,
        1,
    )
    .run_batch(&requests)
    .unwrap();
    let detected: u64 = reference.iter().map(|r| r.faults.faults_detected).sum();
    assert!(detected > 0, "a 5% fault rate must be visible to the scrub");
    for workers in [2usize, 4, 8] {
        let responses = engine_with(
            Some(model),
            FaultPolicy::default(),
            ExecutionMode::Sprint,
            workers,
        )
        .run_batch(&requests)
        .unwrap();
        assert_eq!(responses, reference, "diverged at {workers} workers");
    }
}

#[test]
fn unrepairable_faults_demote_to_the_exact_dense_pipeline() {
    // Every bitline faulty: repair cannot help, remapping cannot
    // absorb it, so the Demote ladder must fall back to on-chip dense
    // recomputation — bit-identical to a fault-free Dense engine —
    // with zero surfaced errors.
    let model = FaultModel::new(3).with_line_rates(1.0, 0.0).unwrap();
    let traces = traces(2, 32);
    for (i, trace) in traces.iter().enumerate() {
        let request = HeadRequest::from_trace(trace).with_head_id(i as u64);
        let demoted = engine_with(
            Some(model),
            FaultPolicy::Demote { max_attempts: 2 },
            ExecutionMode::Sprint,
            1,
        )
        .run_head(&request)
        .unwrap();
        assert!(demoted.faults.demoted, "head {i} must demote");
        assert!(demoted.faults.degraded());
        assert!(demoted.faults.faults_detected > 0);
        let dense = engine_with(None, FaultPolicy::default(), ExecutionMode::Dense, 1)
            .run_head(&request)
            .unwrap();
        assert_eq!(demoted.output, dense.output, "head {i} output");
        assert_eq!(demoted.decisions, dense.decisions, "head {i} decisions");
    }
}

#[test]
fn fail_policy_surfaces_the_first_faulty_site() {
    let model = FaultModel::new(3).with_line_rates(1.0, 0.0).unwrap();
    let trace = &traces(1, 24)[0];
    let err = engine_with(
        Some(model),
        FaultPolicy::Fail { max_attempts: 1 },
        ExecutionMode::Sprint,
        1,
    )
    .run_head(&HeadRequest::from_trace(trace))
    .unwrap_err();
    match err {
        SprintError::Reram(ReramError::ProgramFault { crossbar, .. }) => {
            assert_ne!(crossbar, 0, "the site names the faulty crossbar");
        }
        other => panic!("expected a ProgramFault, got {other}"),
    }
}

#[test]
fn remap_policy_substitutes_spares_without_demoting() {
    // A sparse column-fault population fits in the spare budget: the
    // engine must remap rather than demote, and still finish cleanly.
    let model = FaultModel::new(9).with_line_rates(0.05, 0.0).unwrap();
    let traces = traces(3, 40);
    let requests: Vec<HeadRequest> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| HeadRequest::from_trace(t).with_head_id(i as u64))
        .collect();
    let responses = engine_with(
        Some(model),
        FaultPolicy::Remap {
            max_attempts: 2,
            spare_columns: 64,
        },
        ExecutionMode::Sprint,
        1,
    )
    .run_batch(&requests)
    .unwrap();
    let remapped: u64 = responses.iter().map(|r| r.faults.remapped_columns).sum();
    assert!(remapped > 0, "5% column faults must exercise the spares");
    for response in &responses {
        assert!(!response.faults.demoted);
        assert!(response.output.as_slice().iter().all(|x| x.is_finite()));
    }
}

/// Decode streams of the given `(seq_len, prefill, mode)` shapes;
/// stream `i` decodes under head id `i`.
fn decode_streams(shapes: &[(usize, usize, Option<ExecutionMode>)]) -> Vec<SessionOpen> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(seq, prefill, mode))| {
            let spec = ModelConfig::bert_base()
                .trace_spec()
                .with_seq_len(seq)
                .with_padding(0.0);
            SessionOpen {
                trace: TraceGenerator::new(2000 + i as u64)
                    .generate(&spec)
                    .unwrap(),
                prefill,
                head_id: i as u64,
                mode,
                threshold_spec: None,
            }
        })
        .collect()
}

#[test]
fn faulted_decode_sessions_complete_and_are_thread_invariant() {
    // Mid-decode fault handling: every session must run to completion
    // under a nonzero fault rate, account its scrub findings, and stay
    // bit-identical across the threads sharing its table.
    let model = FaultModel::uniform(0.05, 0x5eed).unwrap();
    let streams = decode_streams(&[
        (32, 16, None),
        (24, 8, Some(ExecutionMode::NoRecompute)),
        (16, 12, Some(ExecutionMode::Dense)),
        (40, 1, None),
    ]);
    let engine = engine_with(Some(model), FaultPolicy::Monitor, ExecutionMode::Sprint, 1);
    let reference = run_streams(&engine, &SessionTable::new(None), &streams, 1);
    let detected: u64 = reference.iter().map(|(_, perf)| perf.faults_detected).sum();
    assert!(detected > 0);
    // Monitoring never demotes; the Dense session never scrubs.
    assert!(reference.iter().all(|(_, perf)| !perf.demoted));
    assert_eq!(reference[2].1.faults_detected, 0);
    for (steps, _) in &reference {
        assert!(steps.iter().all(|s| s.output.iter().all(|x| x.is_finite())));
    }
    for threads in [2usize, 4, 8] {
        let run = run_streams(&engine, &SessionTable::new(None), &streams, threads);
        assert_eq!(run, reference, "decode diverged at {threads} threads");
    }
}

#[test]
fn fully_faulted_decode_sessions_demote_and_match_dense() {
    // The graceful-degradation floor for decode: unrepairable faults
    // demote analog sessions mid-stream, after which every session must
    // end where the fault-free Dense decode of the same streams ends.
    let model = FaultModel::new(4).with_line_rates(1.0, 0.0).unwrap();
    let shapes = [(24, 10, None), (32, 16, None)];
    let faulted = engine_with(
        Some(model),
        FaultPolicy::Demote { max_attempts: 1 },
        ExecutionMode::Sprint,
        1,
    );
    let demoted = run_streams(
        &faulted,
        &SessionTable::new(None),
        &decode_streams(&shapes),
        2,
    );
    let dense_shapes = shapes.map(|(seq, prefill, _)| (seq, prefill, Some(ExecutionMode::Dense)));
    let dense_engine = engine_with(None, FaultPolicy::default(), ExecutionMode::Sprint, 1);
    let dense = run_streams(
        &dense_engine,
        &SessionTable::new(None),
        &decode_streams(&dense_shapes),
        2,
    );
    for (s, ((steps, perf), (dense_steps, _))) in demoted.iter().zip(&dense).enumerate() {
        assert!(perf.demoted, "session {s} must demote");
        assert!(perf.faults_detected > 0);
        assert_eq!(
            steps.last().unwrap().output,
            dense_steps.last().unwrap().output,
            "session {s} strays from the dense floor"
        );
    }
}

#[test]
fn model_serving_reports_fault_totals() {
    // The counters roll up through the model layer: a faulted Sprint
    // pass reports its scrub findings in the serving totals while a
    // digital pass on the same server stays clean.
    let model = FaultModel::uniform(0.05, 0xf00d).unwrap();
    let server = ModelServer::new(engine_with(
        Some(model),
        FaultPolicy::Monitor,
        ExecutionMode::Sprint,
        1,
    ));
    let profile = ModelProfile::from_model(&ModelConfig::bert_base())
        .with_layers(1)
        .with_heads(2)
        .with_seq_len(48);
    let requests = vec![
        ModelRequest::new(profile.clone()).with_mode(ExecutionMode::Sprint),
        ModelRequest::new(profile).with_mode(ExecutionMode::Dense),
    ];
    let responses = server.serve_many(&requests).unwrap();
    assert!(responses[0].total.faults_detected > 0);
    assert_eq!(responses[0].total.heads_demoted, 0);
    assert_eq!(responses[1].total.faults_detected, 0);
}
