//! The traced run: `--trace 1`. Reports the per-layer metrics.
//!
//! A traced run is one set-up, then the workload's loop for 0.4 of
//! `--seconds` with tracing off and for 0.4 with spans recorded around
//! every front-door call (their throughput ratio is the tracing
//! overhead), then the layer replays of `layers.rs`. Spans are kept in
//! memory and written to `benchmark/out/trace-<workload>.json` at exit.

mod layers;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use sprint_benchmark::cli::Args;
use sprint_benchmark::report::{Outcome, Values, PER_LAYER};
use sprint_benchmark::runner::{summarize, Recorder, Summary, Workload};
use sprint_benchmark::span::Tracer;
use sprint_benchmark::stats::{median, percentile};
use sprint_benchmark::workloads::decode_churn::{self, DecodeChurn};
use sprint_benchmark::workloads::http::{health_roundtrip_ms, scrape, server_layers};
use sprint_benchmark::workloads::http_decode::HttpDecode;
use sprint_benchmark::workloads::http_serve::{model_request, HttpServe};
use sprint_benchmark::workloads::prefill::{Prefill, HEADS};
use sprint_benchmark::{env, finish, parse_args, run_all};
use sprint_engine::{DecodeStep, ExecutionMode, SessionRequest};

/// Share of `--seconds` each of the two phases runs.
const PHASE_SHARE: f64 = 0.4;
/// Passes over the distinct heads in the prefill stage replay.
const REPLAY_PASSES: usize = 2;

/// The series of one `/metrics` scrape (empty for in-process workloads).
type Scrape = BTreeMap<String, f64>;

/// What a workload adds to the traced run: its calls into single layers.
trait Layers: Workload {
    /// Called between the untraced and the traced phase: the server's
    /// counters before the traced phase.
    fn before_traced(&mut self) -> Result<Scrape, String> {
        Ok(Scrape::new())
    }

    /// Called right after the traced phase: per-layer values from the
    /// layer adapter. Spans it records go into `tracer`.
    fn layers(
        &mut self,
        traced: &Summary,
        before: &Scrape,
        tracer: &mut Tracer,
        values: &mut Values,
    ) -> Result<(), String>;
}

fn p50(ns: &[f64]) -> Option<f64> {
    let mut sorted = ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    (!sorted.is_empty()).then(|| percentile(&sorted, 50.0))
}

fn mean(ns: &[f64]) -> Option<f64> {
    (!ns.is_empty()).then(|| ns.iter().sum::<f64>() / ns.len() as f64)
}

/// Engine-layer numbers from the spans the shared loops record.
fn front_door_spans(tracer: &Tracer, wall_ns: f64, values: &mut Values) {
    let mut put = |name: &'static str, ns: Option<f64>, unit_ns: f64| {
        if let Some(ns) = ns {
            values.insert(name, ns / unit_ns);
        }
    };
    put(
        "engine.run_head_ms",
        p50(&tracer.durations("engine.run_head")),
        1e6,
    );
    put(
        "engine.open_session_ms",
        mean(&tracer.durations("engine.open_session")),
        1e6,
    );
    put("engine.step_us", p50(&tracer.durations("engine.step")), 1e3);
    put(
        "engine.evict_us",
        mean(&tracer.durations("engine.evict")),
        1e3,
    );
    let resumes = tracer.durations("engine.resume_session");
    put("engine.resume_session_ms", p50(&resumes), 1e6);
    if !resumes.is_empty() {
        values.insert(
            "engine.rehydrate_share",
            resumes.iter().sum::<f64>() / wall_ns,
        );
    }
}

fn traced_run<W: Layers>(name: &'static str, args: &Args) -> Result<Outcome, String> {
    let mut workload = W::setup(name, args.seed)?;
    workload.prepare_checks()?;
    let seconds = args.timed_seconds() * PHASE_SHARE;
    let plain = summarize(&workload.run(seconds, false), W::PASS);
    let before = workload.before_traced()?;
    let recorders = workload.run(seconds, true);
    let traced = summarize(&recorders, W::PASS);
    let wall_ns = recorders
        .iter()
        .flat_map(|r| r.ops.last())
        .map(|op| op.end_ns)
        .max()
        .unwrap_or(1) as f64;
    let mut tracer = Tracer::new(Instant::now(), true);
    recorders
        .into_iter()
        .for_each(|r: Recorder| tracer.absorb(r.tracer));

    let mut values = Values::new();
    front_door_spans(&tracer, wall_ns, &mut values);
    workload.layers(&traced, &before, &mut tracer, &mut values)?;
    let verify_started = Instant::now();
    let sim = workload.verify(&mut values);
    values.insert("bench.verify_s", verify_started.elapsed().as_secs_f64());
    workload.teardown();
    let sim = sim.map_err(|e| format!("verify: {e}"))?;

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    if plain.attempted == 0 || traced.attempted == 0 {
        return Err("no operation completed in a timed phase".to_string());
    }
    let [q1, q2, q3] = traced.segment_quartiles;
    values.insert(
        "bench.whole_run_throughput_ops_s",
        traced.whole.throughput_ops_s,
    );
    values.insert("bench.whole_run_p50_ms", traced.whole.latency_p50_ms);
    values.insert("bench.latency_p90_ms", traced.quiet.latency_p90_ms);
    values.insert("bench.latency_p99_ms", traced.whole.latency_p99_ms);
    values.insert("bench.segment_iqr_share", (q3 - q1) / q2);
    values.insert(
        "bench.trace_overhead_share",
        1.0 - traced.quiet.throughput_ops_s / plain.quiet.throughput_ops_s,
    );
    values.insert("bench.failed_share", failed as f64 / attempted as f64);
    values.insert(
        "attention.simd_avx2",
        f64::from(u8::from(
            sprint_engine::active_tier() == sprint_engine::SimdTier::Avx2,
        )),
    );

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("trace-{name}.json"));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, tracer.to_json()))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!(
        "{name}: {} spans written to {}; untraced {:.2} 1/s, traced {:.2} 1/s; sim_digest {:016x}",
        tracer.spans().len(),
        file.display(),
        plain.quiet.throughput_ops_s,
        traced.quiet.throughput_ops_s,
        sim.digest
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    })
}

impl Layers for Prefill {
    /// The stage replay: next to each `engine.run_head` span, the head
    /// again from public layer calls; the replay's output bits and
    /// decisions must equal the engine's.
    fn layers(
        &mut self,
        _: &Summary,
        _: &Scrape,
        tracer: &mut Tracer,
        values: &mut Values,
    ) -> Result<(), String> {
        let mut stages = layers::HeadStages::new(&self.engine)?;
        let mut replay = Tracer::new(Instant::now(), true);
        for pass in 0..REPLAY_PASSES {
            for i in 0..HEADS {
                let op = (pass * HEADS + i) as u64;
                let span = replay.begin("replay.run_head", op);
                let response = self
                    .engine
                    .run_head(&self.request(i))
                    .map_err(|e| e.to_string())?;
                replay.end(span);
                let span = replay.begin("replay.stages", op);
                let (output, decisions) = match self.mode {
                    ExecutionMode::Sprint => {
                        stages.sprint(&self.engine, &self.traces[i], i as u64, &mut replay, op)?
                    }
                    _ => stages.dense(&self.traces[i], &mut replay, op)?,
                };
                replay.end(span);
                if output != response.output || decisions != response.decisions {
                    return Err(format!(
                        "the stage replay of head {i} differs from the engine"
                    ));
                }
            }
        }
        let heads = (REPLAY_PASSES * HEADS) as f64;
        let rows: f64 = self
            .traces
            .iter()
            .map(|t| t.live_tokens() as f64)
            .sum::<f64>()
            * REPLAY_PASSES as f64;
        let run_head = replay.total_ns("replay.run_head");
        let reram = replay.total_ns(layers::REPROGRAM) + replay.total_ns(layers::PRUNE_QUERY);
        let memory = replay.total_ns(layers::PROCESS_QUERY);
        let attention = replay.total_ns(layers::QUANTIZED) + replay.total_ns(layers::DENSE);
        if self.mode == ExecutionMode::Sprint {
            values.insert(
                "reram.reprogram_ms",
                replay.total_ns(layers::REPROGRAM) / heads / 1e6,
            );
            values.insert(
                "reram.prune_query_us",
                replay.total_ns(layers::PRUNE_QUERY) / rows / 1e3,
            );
            values.insert("reram.share_of_head", reram / run_head);
            values.insert(
                "attention.quantized_ms",
                replay.total_ns(layers::QUANTIZED) / heads / 1e6,
            );
        } else {
            values.insert(
                "attention.dense_ms",
                replay.total_ns(layers::DENSE) / heads / 1e6,
            );
        }
        values.insert("memory.process_query_us", memory / rows / 1e3);
        values.insert("memory.share_of_head", memory / run_head);
        values.insert("attention.share_of_head", attention / run_head);
        values.insert(
            "engine.unattributed_share",
            1.0 - (reram + memory + attention) / run_head,
        );
        tracer.absorb(replay);
        Ok(())
    }
}

impl Layers for DecodeChurn {
    /// Session 0 again, never evicted: once through `DecodeSession` and
    /// once from public layer calls; every output row must be equal.
    fn layers(
        &mut self,
        _: &Summary,
        _: &Scrape,
        tracer: &mut Tracer,
        values: &mut Values,
    ) -> Result<(), String> {
        let trace = &self.traces[0];
        let prefill = decode_churn::PREFILL;
        let k = trace.k().prefix_rows(prefill).map_err(|e| e.to_string())?;
        let v = trace.v().prefix_rows(prefill).map_err(|e| e.to_string())?;
        let request =
            SessionRequest::new(&k, &v, trace.config(), trace.threshold()).with_head_id(0);
        let mut session = self
            .engine
            .open_session(&request)
            .map_err(|e| e.to_string())?;
        let mut replay = Tracer::new(Instant::now(), true);
        layers::decode_session(
            &self.engine,
            trace,
            0,
            prefill,
            &mut replay,
            &mut |t, output| {
                let step = DecodeStep {
                    q: trace.q().row(t),
                    k: trace.k().row(t),
                    v: trace.v().row(t),
                };
                let response = session.step(&step).map_err(|e| e.to_string())?;
                if response.output != output {
                    return Err(format!(
                        "the stage replay of token {t} differs from the session"
                    ));
                }
                Ok(())
            },
        )?;
        let steps = (trace.seq_len() - prefill) as f64;
        let per_step_us = |name: &str| replay.total_ns(name) / steps / 1e3;
        values.insert("reram.extend_row_us", per_step_us(layers::EXTEND_ROW));
        values.insert("reram.prune_query_us", per_step_us(layers::PRUNE_QUERY));
        values.insert(
            "memory.process_query_us",
            per_step_us(layers::PROCESS_QUERY),
        );
        values.insert(
            "attention.decode_kernel_us",
            per_step_us(layers::DECODE_KERNEL),
        );
        tracer.absorb(replay);
        Ok(())
    }
}

/// The server-layer values both HTTP workloads share.
fn http_layers(
    client: &mut minihttp::Client,
    traced: &Summary,
    before: &Scrape,
    values: &mut Values,
) -> Result<(), String> {
    let (after, _) = scrape(client)?;
    server_layers(before, &after, traced.attempted, values);
    let scrapes = (0..20)
        .map(|_| scrape(client).map(|(_, ms)| ms))
        .collect::<Result<Vec<_>, _>>()?;
    values.insert("server.metrics_scrape_ms", median(&scrapes));
    values.insert("minihttp.health_roundtrip_ms", health_roundtrip_ms(client)?);
    values.insert(
        "server.queue_submit_drain_us",
        layers::queue_submit_drain_us(),
    );
    Ok(())
}

impl Layers for HttpServe {
    fn before_traced(&mut self) -> Result<Scrape, String> {
        Ok(scrape(&mut self.running.client())?.0)
    }

    fn layers(
        &mut self,
        traced: &Summary,
        before: &Scrape,
        _: &mut Tracer,
        values: &mut Values,
    ) -> Result<(), String> {
        http_layers(&mut self.running.client(), traced, before, values)?;
        let requests = self
            .bodies
            .iter()
            .map(|b| model_request(b))
            .collect::<Result<Vec<_>, _>>()?;
        let mut serve_ms = Vec::new();
        for i in 0..400 {
            let started = Instant::now();
            let response = self.twin.serve(&requests[i % requests.len()]);
            serve_ms.push(started.elapsed().as_secs_f64() * 1e3);
            response.map_err(|e| e.to_string())?;
        }
        let serve_ms = median(&serve_ms);
        values.insert("engine.serve_ms", serve_ms);
        values.insert("server.fabric_ms", traced.quiet.latency_p50_ms - serve_ms);
        values.insert("server.json_parse_us", layers::json_parse_us(&self.bodies));
        values.insert(
            "server.request_parse_us",
            layers::request_parse_us(&self.bodies),
        );
        values.insert(
            "server.response_render_us",
            layers::serve_render_us(&self.served),
        );
        values.insert(
            "minihttp.read_request_us",
            layers::read_request_us("/v1/serve", &self.bodies[0]),
        );
        Ok(())
    }
}

impl Layers for HttpDecode {
    fn before_traced(&mut self) -> Result<Scrape, String> {
        Ok(scrape(&mut self.running.client())?.0)
    }

    fn layers(
        &mut self,
        traced: &Summary,
        before: &Scrape,
        _: &mut Tracer,
        values: &mut Values,
    ) -> Result<(), String> {
        http_layers(&mut self.running.client(), traced, before, values)?;
        let body = r#"{"action":"step","session":12345}"#.to_string();
        values.insert(
            "server.json_parse_us",
            layers::json_parse_us(std::slice::from_ref(&body)),
        );
        values.insert(
            "server.response_render_us",
            layers::step_render_us(&self.twins[0].outputs),
        );
        values.insert(
            "minihttp.read_request_us",
            layers::read_request_us("/v1/decode", &body),
        );
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args(true) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let Some(name) = args.workload else {
        return run_all(&args);
    };
    print!(
        "{}",
        env::block(args.seed, args.timed_seconds(), args.smoke)
    );
    let outcome = match name {
        "prefill_sprint" | "prefill_dense" => traced_run::<Prefill>(name, &args),
        "decode_churn" => traced_run::<DecodeChurn>(name, &args),
        "http_serve" => traced_run::<HttpServe>(name, &args),
        _ => traced_run::<HttpDecode>(name, &args),
    };
    finish(name, outcome, &PER_LAYER, false)
}
