//! The intra-head fan-out: one head's crossbar column tiles program and
//! prune on several workers, its recompute kernel splits the query
//! rows, and a digital head (Dense, Oracle, or a demoted Sprint head)
//! splits the float kernel's rows while block 0's part drives the
//! memory controller. Every width must give the same bits as width 1 —
//! outputs, decisions, hardware counters, fetch accounting and fault
//! records — because each tile draws from its own noise stream, rows
//! are independent, the softmax range is an order-free `f32::max`, and
//! the controller takes the live queries in order.
//!
//! Widths come from `Engine::run_batch_report(threads, [one head])`, so
//! the suite exercises the fan-out even under `SPRINT_THREADS=1`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sprint_attention::Matrix;
use sprint_engine::{Engine, ExecutionMode, FaultPolicy, HeadRequest, HeadResponse, SprintConfig};
use sprint_reram::{FaultModel, NoiseModel, ThresholdSpec};
use sprint_workloads::{HeadTrace, ModelConfig, TraceGenerator};

const MODES: [ExecutionMode; 4] = [
    ExecutionMode::Sprint,
    ExecutionMode::NoRecompute,
    ExecutionMode::Dense,
    ExecutionMode::Oracle,
];

fn trace(seq: usize, padding: Option<f64>, seed: u64) -> HeadTrace {
    let mut spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
    if let Some(fraction) = padding {
        spec = spec.with_padding(fraction);
    }
    TraceGenerator::new(seed).generate(&spec).unwrap()
}

fn engine(noise: NoiseModel, fault: Option<FaultModel>) -> Engine {
    let mut builder = Engine::builder(SprintConfig::medium())
        .noise(noise)
        .seed(0x5eed)
        .worker_slots(1);
    if let Some(model) = fault {
        builder = builder.fault_model(model).fault_policy(FaultPolicy::Remap {
            max_attempts: 2,
            spare_columns: 4096,
        });
    }
    builder.build().unwrap()
}

/// Every field of two responses, outputs compared bit for bit.
fn assert_same(got: &HeadResponse, want: &HeadResponse, label: &str) {
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.output), bits(&want.output), "{label}: output");
    assert_eq!(got.decisions, want.decisions, "{label}: decisions");
    assert_eq!(got.prune_stats, want.prune_stats, "{label}: prune_stats");
    assert_eq!(got.memory_stats, want.memory_stats, "{label}: memory_stats");
    assert_eq!(got.faults, want.faults, "{label}: faults");
}

/// One head at intra-head width `threads`.
fn run_wide(engine: &Engine, threads: usize, request: &HeadRequest) -> HeadResponse {
    let (mut out, _) = engine
        .run_batch_report(threads, std::slice::from_ref(request))
        .unwrap();
    out.remove(0)
}

/// `request` at widths 2, 3 and 4 against width 1, in every mode.
fn assert_width_invariant(engine: &Engine, request: &HeadRequest, label: &str) {
    for mode in MODES {
        let request = request.clone().with_mode(mode);
        let want = run_wide(engine, 1, &request);
        for threads in 2..=4 {
            let got = run_wide(engine, threads, &request);
            assert_same(&got, &want, &format!("{label} {mode:?} at {threads}"));
        }
    }
}

#[test]
fn every_width_gives_the_width_one_bits() {
    // live_k 276: BERT-B s = 512 with its padding (the prefill_sprint
    // shape; tiles 128/128/20). 48: one tile, never fans out. 257: the
    // last tile holds one column. 1024: eight tiles, cross-shaped so
    // the debug build stays quick.
    let padded = trace(512, None, 7);
    assert_eq!(padded.live_tokens(), 276);
    let short = trace(48, Some(0.0), 8);
    let ragged = trace(257, Some(0.0), 9);
    let long = trace(1024, Some(0.0), 10);
    let long_q = long.q().prefix_rows(24).unwrap();
    let requests = [
        ("live 276", HeadRequest::from_trace(&padded)),
        ("live 48", HeadRequest::from_trace(&short)),
        ("live 257", HeadRequest::from_trace(&ragged)),
        (
            "live 1024",
            HeadRequest::new(&long_q, long.k(), long.v(), long.config(), long.threshold()),
        ),
    ];
    let remapping = FaultModel::new(9).with_line_rates(0.05, 0.0).unwrap();
    for (noise, fault, name) in [
        (NoiseModel::ideal(), None, "ideal"),
        (NoiseModel::default(), None, "default noise"),
        (NoiseModel::default(), Some(remapping), "remapped faults"),
    ] {
        let engine = engine(noise, fault);
        for (shape, request) in &requests {
            assert_width_invariant(&engine, request, &format!("{name} {shape}"));
        }
        if fault.is_some() {
            let faults = run_wide(&engine, 3, &requests[0].1).faults;
            assert!(faults.remapped_columns > 0 && !faults.demoted, "{faults:?}");
        }
    }
}

#[test]
fn a_quantized_comparator_is_width_invariant_and_matches_a_fresh_pruner() {
    // Only a quantized comparator reads the provisioned full scale, so
    // only its heads run the full-scale scan (split over the tiles too).
    // Fig. 5's heads, each after an analog head that skipped the scan,
    // must equal a freshly built engine's (whose pruner is built with
    // the scan) at widths 1 and 2.
    let padded = trace(512, None, 11);
    let analog = trace(512, None, 12);
    let reused = engine(NoiseModel::default(), None);
    for bits in [1, 4, 5, 8] {
        let request =
            HeadRequest::from_trace(&padded).with_threshold_spec(ThresholdSpec::quantized(bits));
        for threads in [1, 2] {
            run_wide(&reused, threads, &HeadRequest::from_trace(&analog));
            let want = run_wide(&engine(NoiseModel::default(), None), threads, &request);
            let got = run_wide(&reused, threads, &request);
            assert_same(&got, &want, &format!("quantized({bits}) at {threads}"));
        }
    }
    let request = HeadRequest::from_trace(&padded).with_threshold_spec(ThresholdSpec::quantized(5));
    assert_width_invariant(&reused, &request, "quantized(5)");
}

#[test]
fn a_fault_demoted_sprint_head_splits_its_rows_at_every_width() {
    // Every bitline faulty: repair and remapping cannot help, so the
    // Sprint head demotes to the digital pipeline, which splits the
    // float kernel's rows over the head's width as a Dense head does.
    let model = FaultModel::new(3).with_line_rates(1.0, 0.0).unwrap();
    let engine = Engine::builder(SprintConfig::medium())
        .noise(NoiseModel::default())
        .seed(0x5eed)
        .worker_slots(1)
        .fault_model(model)
        .fault_policy(FaultPolicy::Demote { max_attempts: 2 })
        .build()
        .unwrap();
    let padded = trace(512, None, 14);
    let request = HeadRequest::from_trace(&padded).with_mode(ExecutionMode::Sprint);
    let want = run_wide(&engine, 1, &request);
    assert!(want.faults.demoted, "{:?}", want.faults);
    for threads in 2..=4 {
        let got = run_wide(&engine, threads, &request);
        assert_same(&got, &want, &format!("demoted at {threads}"));
    }
}

#[test]
fn a_panicking_fan_out_worker_reaches_the_caller_and_the_scratch_recovers() {
    // At width 2, part 1 panics in each fan-out of a head in turn,
    // after its work mutated the scratch: the five of a quantized
    // Sprint head (program, full-scale scan, prune, QK-PU rows,
    // softmax/V-PU rows) and the one of a Dense head (its row blocks;
    // block 0's part drives the controller). The panic reaches the
    // caller; the next head on the same engine recovers the poisoned
    // scratch and equals a fresh engine's.
    let padded = trace(512, None, 13);
    let sprint = HeadRequest::from_trace(&padded).with_threshold_spec(ThresholdSpec::quantized(6));
    let dense = HeadRequest::from_trace(&padded).with_mode(ExecutionMode::Dense);
    for (request, fan_outs) in [(sprint, 5), (dense, 1)] {
        let want = engine(NoiseModel::default(), None)
            .run_head(&request)
            .unwrap();
        let engine = engine(NoiseModel::default(), None);
        for stage in 0..fan_outs {
            sprint_parallel::inject_worker_panic(stage, 1);
            let caught = catch_unwind(AssertUnwindSafe(|| run_wide(&engine, 2, &request)));
            assert!(
                caught.is_err(),
                "stage {stage}: the panic must reach the caller"
            );
            assert_same(
                &engine.run_head(&request).unwrap(),
                &want,
                &format!("after stage {stage}"),
            );
            let wide = run_wide(&engine, 2, &request);
            assert_same(&wide, &want, &format!("wide after stage {stage}"));
        }
    }
}
