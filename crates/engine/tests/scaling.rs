//! Worker-scaling coverage for the sharded batch path.
//!
//! Wall-clock speedup only exists on hosts with free cores, so the
//! always-on tests here assert the *distribution* properties that
//! scaling rests on — every worker runs a balanced chunk, the
//! per-worker busy counters account for all the work, and the
//! parallel critical path shrinks with worker count — while the
//! wall-clock smoke test is `#[ignore]`d by default and additionally
//! skips itself on hosts with fewer than four available cores.

use std::time::Instant;

use sprint_engine::{
    DecodeLoop, DecodeTask, Engine, HeadRequest, ModelProfile, ModelRequest, ModelServer,
    SprintConfig,
};
use sprint_reram::NoiseModel;
use sprint_workloads::{ModelConfig, TraceGenerator};

fn engine(slots: usize) -> Engine {
    Engine::builder(SprintConfig::small())
        .noise(NoiseModel::ideal())
        .seed(17)
        .worker_slots(slots)
        .build()
        .unwrap()
}

fn traces(n: usize, seq: usize, seed: u64) -> Vec<sprint_workloads::HeadTrace> {
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
    TraceGenerator::new(seed).generate_many(&spec, n).unwrap()
}

#[test]
fn every_worker_runs_a_balanced_chunk() {
    let e = engine(4);
    // Large enough that each worker's chunk runs well past one
    // scheduler tick even in release builds — the busy counters read
    // /proc schedstat, which only updates at scheduling events, so a
    // sub-millisecond chunk can legitimately report zero.
    let heads = traces(32, 160, 40);
    let reqs: Vec<HeadRequest> = heads.iter().map(HeadRequest::from_trace).collect();
    let (_, report) = e.run_batch_report(4, &reqs).unwrap();
    assert_eq!(report.workers.len(), 4);
    assert_eq!(
        report.workers.iter().map(|w| w.items).sum::<usize>(),
        reqs.len(),
        "every request accounted to exactly one worker"
    );
    for stats in &report.workers {
        assert_eq!(stats.items, 8, "32 requests over 4 workers is 8 each");
        assert!(
            stats.busy_ns > 0,
            "worker {} reported no busy time",
            stats.worker
        );
        assert!(stats.wall_ns > 0);
    }
}

#[test]
fn critical_path_shrinks_with_worker_count() {
    // The critical path (busiest worker's CPU time) is the wall-clock
    // the distribution would take with one free core per worker — it
    // must shrink with workers even on a fully loaded host, because it
    // counts only executed cycles, never descheduled time.
    let e = engine(4);
    // Sized so each 4-worker chunk far exceeds the schedstat tick
    // granularity (see every_worker_runs_a_balanced_chunk).
    let heads = traces(32, 160, 41);
    let reqs: Vec<HeadRequest> = heads.iter().map(HeadRequest::from_trace).collect();
    let (_, one) = e.run_batch_report(1, &reqs).unwrap();
    let (_, four) = e.run_batch_report(4, &reqs).unwrap();
    assert!(one.critical_path_ns() > 0);
    // Generous bound: a quarter of the work plus 100% overhead slack.
    assert!(
        2 * four.critical_path_ns() <= one.critical_path_ns(),
        "4-worker critical path {} ns is not under half the 1-worker {} ns",
        four.critical_path_ns(),
        one.critical_path_ns()
    );
    // And the chunks are balanced: the busiest worker holds no more
    // than three times the average share of the total work (loose
    // because the tick-granular busy clock under-measures whichever
    // workers were context-switched least).
    let avg = four.total_busy_ns() / four.workers.len() as u128;
    assert!(
        four.critical_path_ns() <= 3 * avg,
        "busiest worker {} ns vs average {} ns",
        four.critical_path_ns(),
        avg
    );
    // The same contract one level up: a model pass's critical path
    // (serial stages plus the busiest worker of each fan-out).
    let server = ModelServer::new(e);
    let request = ModelRequest::new(
        ModelProfile::from_model(&ModelConfig::bert_base())
            .with_layers(4)
            .with_heads(8)
            .with_seq_len(160),
    )
    .with_seed(41);
    let request = std::slice::from_ref(&request);
    let (_, one) = server.serve_many_report(1, request).unwrap();
    let (_, four) = server.serve_many_report(4, request).unwrap();
    assert!(
        2 * four.critical_path_ns() <= one.critical_path_ns(),
        "4-worker serve critical path {} ns is not under half the 1-worker {} ns",
        four.critical_path_ns(),
        one.critical_path_ns()
    );
}

#[test]
fn serve_stats_localize_the_pass_stages() {
    let server = ModelServer::new(engine(4));
    let request = ModelRequest::new(
        ModelProfile::from_model(&ModelConfig::bert_base())
            .with_layers(2)
            .with_heads(4)
            .with_seq_len(48),
    )
    .with_seed(9);
    let (responses, stats) = server
        .serve_many_report(4, std::slice::from_ref(&request))
        .unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].total.heads, 8);
    assert_eq!(
        stats.batch.workers.iter().map(|w| w.items).sum::<usize>(),
        8,
        "the head batch fans out all layers x heads"
    );
    assert!(!stats.synth.workers.is_empty());
    // Busy counters are tick-granular and this pass is small, so
    // assert on the always-nonzero wall side of the per-worker stats
    // and on the serial stage timers instead of the busy deltas.
    assert!(stats.batch.workers.iter().all(|w| w.wall_ns > 0));
    assert!(stats.plan_ns > 0);
    assert!(stats.critical_path_ns() >= stats.batch.critical_path_ns());
    // The report path returns the same responses as the plain one.
    assert_eq!(responses, server.serve_many(&[request]).unwrap());
}

#[test]
fn decode_report_accounts_sessions_to_workers() {
    let e = engine(4);
    let task = DecodeTask {
        spec: ModelConfig::bert_base().trace_spec().with_seq_len(24),
        prefill: 16,
        mode: None,
        threshold_spec: None,
    };
    let report = DecodeLoop::new(&e).run_threads(2, &[task; 6]).unwrap();
    assert_eq!(report.workers.len(), 2);
    assert_eq!(report.workers.iter().map(|w| w.items).sum::<usize>(), 6);
    for stats in &report.workers {
        assert_eq!(stats.items, 3, "6 sessions over 2 workers is 3 each");
    }
}

#[test]
fn seed_collision_rejection_guards_the_public_batch_entries() {
    // Regression: duplicate effective head ids silently shared pruner
    // seeds. The public batch entries now reject them up front.
    let e = engine(2);
    let heads = traces(2, 32, 42);
    let tagged: Vec<HeadRequest> = heads
        .iter()
        .map(|t| HeadRequest::from_trace(t).with_head_id(3))
        .collect();
    assert!(e.run_batch(&tagged).is_err());
    assert!(e.run_batch_threads(2, &tagged).is_err());
    assert!(e.run_batch_report(2, &tagged).is_err());
    // Mode sweeps through the model server intentionally reuse head
    // ids across flattened passes and must keep working.
    let server = ModelServer::new(engine(2));
    let template = ModelRequest::new(
        ModelProfile::from_model(&ModelConfig::bert_base())
            .with_layers(1)
            .with_heads(2)
            .with_seq_len(32),
    )
    .with_seed(5);
    let out = server
        .serve_many(&[template.clone(), template])
        .expect("repeated templates share head ids by design");
    assert_eq!(out[0], out[1]);
}

/// Wall-clock speedup needs free cores; run with
/// `cargo test -p sprint-engine --test scaling -- --ignored` on a
/// multi-core host. Skips itself below 4 available cores.
#[test]
#[ignore = "wall-clock smoke test; needs a host with >= 4 free cores"]
fn four_workers_beat_one_on_wall_clock() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 4 {
        eprintln!("skipping: only {cores} available core(s); wall-clock scaling needs >= 4");
        return;
    }
    let e = engine(4);
    let heads = traces(64, 128, 43);
    let reqs: Vec<HeadRequest> = heads.iter().map(HeadRequest::from_trace).collect();
    // Warm the scratches so first-touch allocation is off the clock.
    e.run_batch_threads(1, &reqs).unwrap();
    let started = Instant::now();
    e.run_batch_threads(1, &reqs).unwrap();
    let one = started.elapsed();
    let started = Instant::now();
    e.run_batch_threads(4, &reqs).unwrap();
    let four = started.elapsed();
    // Generous margin: 4 workers must be at least ~1.7x faster.
    assert!(
        four.as_nanos() * 10 <= one.as_nanos() * 6,
        "4 workers took {four:?}, 1 worker took {one:?}: expected <= 0.6x"
    );
}
