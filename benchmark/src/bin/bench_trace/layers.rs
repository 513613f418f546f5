//! The one file of the benchmark that calls into single layers
//! (`sprint-reram`, `sprint-memory`, the `sprint-attention` kernels, the
//! server's parser, queue and renderer, `minihttp::read_request`). When a
//! layer's API changes, this file changes and nothing else does.
//!
//! The replays compose a head, or a decode session, from public layer
//! calls in the engine's own order and return the output, so the caller
//! can assert that the stages timed here are the program's stages.

use std::io::Cursor;
use std::time::Instant;

use sprint_attention::{
    pruned_attention_with, quantized_attention_decode_with, quantized_attention_with, KvCache,
    Matrix, PagePool, PruneDecision, Workspace, DEFAULT_PAGE_BYTES,
};
use sprint_benchmark::span::Tracer;
use sprint_benchmark::stats::median;
use sprint_engine::{derive_head_seed, Engine, ModelResponse};
use sprint_memory::MemoryController;
use sprint_reram::InMemoryPruner;
use sprint_server::{protocol, AdmissionQueue, Json, ServeRequest};
use sprint_workloads::HeadTrace;

/// Span names of the stages of one head or one decode step.
pub const REPROGRAM: &str = "reram.reprogram";
pub const PRUNE_QUERY: &str = "reram.prune_query";
pub const EXTEND_ROW: &str = "reram.extend_row";
pub const PROCESS_QUERY: &str = "memory.process_query";
pub const QUANTIZED: &str = "attention.quantized";
pub const DENSE: &str = "attention.dense";
pub const DECODE_KERNEL: &str = "attention.decode_kernel";

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The substrate one engine worker reuses from head to head.
pub struct HeadStages {
    pruner: Option<InMemoryPruner>,
    controller: MemoryController,
    ws: Workspace,
}

impl HeadStages {
    /// # Errors
    ///
    /// The engine's memory geometry was refused.
    pub fn new(engine: &Engine) -> Result<Self, String> {
        let config = engine.config();
        let mut ws = Workspace::new();
        ws.set_simd_tier(engine.simd_tier());
        Ok(HeadStages {
            pruner: None,
            controller: MemoryController::new(config.memory_geometry(), config.timing)
                .map_err(text)?,
            ws,
        })
    }

    /// One Sprint-mode head in the engine's order: program the crossbars
    /// with the live region, threshold every live query in memory, drive
    /// each pruning vector through the memory controller, recompute the
    /// survivors on the 8-bit datapath.
    ///
    /// # Errors
    ///
    /// A layer refused its input.
    pub fn sprint(
        &mut self,
        engine: &Engine,
        trace: &HeadTrace,
        head_id: u64,
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<(Matrix, Vec<PruneDecision>), String> {
        let (q, k, v) = (trace.q(), trace.k(), trace.v());
        let (s_q, s_k, live) = (q.rows(), k.rows(), trace.live_tokens());
        let seed = derive_head_seed(engine.seed(), head_id);
        let scale = trace.config().scale();

        let span = tracer.begin(REPROGRAM, op);
        let q_live = q.prefix_rows(live).map_err(text)?;
        let k_live = k.prefix_rows(live).map_err(text)?;
        match self.pruner.as_mut() {
            Some(p) => p
                .reprogram(&q_live, &k_live, scale, engine.noise(), seed)
                .map_err(text)?,
            None => {
                self.pruner = Some(
                    InMemoryPruner::new(&q_live, &k_live, scale, engine.noise(), seed)
                        .map_err(text)?,
                )
            }
        }
        tracer.end(span);
        let pruner = self.pruner.as_mut().expect("programmed above");

        self.controller.reset_cold();
        let spec = engine.threshold_spec();
        let mut decisions = Vec::with_capacity(s_q);
        for i in 0..live {
            let span = tracer.begin(PRUNE_QUERY, op);
            let outcome = pruner
                .prune_query(q.row(i), trace.threshold(), &spec)
                .map_err(text)?;
            tracer.end(span);
            let mut pruned = vec![true; s_k];
            pruned[..live].copy_from_slice(outcome.decision.as_slice());
            let span = tracer.begin(PROCESS_QUERY, op);
            self.controller
                .process_query(&pruned[..live])
                .map_err(text)?;
            tracer.end(span);
            decisions.push(PruneDecision::new(pruned));
        }
        decisions.resize(s_q, PruneDecision::new(vec![true; s_k]));

        let span = tracer.begin(QUANTIZED, op);
        let out =
            quantized_attention_with(q, k, v, &trace.config(), Some(&decisions), &mut self.ws)
                .map_err(text)?;
        tracer.end(span);
        self.ws.recycle(out.scores);
        self.ws.recycle(out.probs);
        Ok((out.output, decisions))
    }

    /// One Dense-mode head: full-precision attention over the live
    /// region, then every live row's (all-kept) decision through the
    /// memory controller.
    ///
    /// # Errors
    ///
    /// A layer refused its input.
    pub fn dense(
        &mut self,
        trace: &HeadTrace,
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<(Matrix, Vec<PruneDecision>), String> {
        let live = trace.live_tokens();
        let span = tracer.begin(DENSE, op);
        let (out, decisions) = pruned_attention_with(
            trace.q(),
            trace.k(),
            trace.v(),
            &trace.config(),
            f32::MIN,
            Some(&trace.padding()),
            &mut self.ws,
        )
        .map_err(text)?;
        tracer.end(span);
        self.ws.recycle(out.scores);
        self.ws.recycle(out.probs);
        self.controller.reset_cold();
        for d in decisions.iter().take(live) {
            let span = tracer.begin(PROCESS_QUERY, op);
            self.controller
                .process_query(&d.as_slice()[..live])
                .map_err(text)?;
            tracer.end(span);
        }
        Ok((out.output, decisions))
    }
}

/// Told the token and output row of every replayed decode step; an error
/// stops the replay.
pub type ExpectStep<'a> = dyn FnMut(usize, &[f32]) -> Result<(), String> + 'a;

/// One Sprint-mode decode session, never evicted, in the session's own
/// order; `expect(t, output)` is called with every step's output row.
///
/// # Errors
///
/// A layer refused its input.
pub fn decode_session(
    engine: &Engine,
    trace: &HeadTrace,
    head_id: u64,
    prefill: usize,
    tracer: &mut Tracer,
    expect: &mut ExpectStep<'_>,
) -> Result<(), String> {
    let config = engine.config();
    let seed = derive_head_seed(engine.seed(), head_id);
    let spec = engine.threshold_spec();
    let pool = PagePool::unbounded(DEFAULT_PAGE_BYTES);
    let prefix = |m: &Matrix| m.prefix_rows(prefill).map_err(text);
    let mut kv = KvCache::new_in(&pool, &prefix(trace.k())?, &prefix(trace.v())?).map_err(text)?;
    let mut controller =
        MemoryController::new(config.memory_geometry(), config.timing).map_err(text)?;
    let mut ws = Workspace::new();
    ws.set_simd_tier(engine.simd_tier());
    let mut pruner: Option<InMemoryPruner> = None;
    for t in prefill..trace.seq_len() {
        let op = t as u64;
        let q_row = trace.q().row(t);
        kv.push(trace.k().row(t), trace.v().row(t)).map_err(text)?;
        let q1 = Matrix::from_vec(1, q_row.len(), q_row.to_vec()).map_err(text)?;
        match pruner.as_mut() {
            Some(p) => {
                let span = tracer.begin(EXTEND_ROW, op);
                p.extend_row(kv.k_row(kv.len() - 1), || kv.gather_k())
                    .map_err(text)?;
                tracer.end(span);
                p.calibrate_query(&q1, spec.score_bits.is_some())
                    .map_err(text)?;
            }
            None => {
                let k = kv.gather_k();
                let scale = trace.config().scale();
                pruner =
                    Some(InMemoryPruner::new(&q1, &k, scale, engine.noise(), seed).map_err(text)?);
            }
        }
        let p = pruner.as_mut().expect("built above");
        let span = tracer.begin(PRUNE_QUERY, op);
        let outcome = p
            .prune_query(q_row, trace.threshold(), &spec)
            .map_err(text)?;
        tracer.end(span);
        let span = tracer.begin(DECODE_KERNEL, op);
        let output = quantized_attention_decode_with(
            &q1,
            &kv,
            &trace.config(),
            Some(&outcome.decision),
            &mut ws,
        )
        .map_err(text)?;
        tracer.end(span);
        let span = tracer.begin(PROCESS_QUERY, op);
        controller.reset_cold();
        controller
            .process_query(outcome.decision.as_slice())
            .map_err(text)?;
        tracer.end(span);
        expect(t, &output)?;
    }
    Ok(())
}

/// Median time of `f` over `n` calls, in microseconds.
fn median_us<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|i| {
            let started = Instant::now();
            std::hint::black_box(f(i));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

const MICRO_REPEATS: usize = 2000;

/// Median microseconds of `Json::parse` over `bodies`, cycled.
pub fn json_parse_us(bodies: &[String]) -> f64 {
    median_us(MICRO_REPEATS, |i| Json::parse(&bodies[i % bodies.len()]))
}

/// Median microseconds of `ServeRequest::parse` + `to_model_request`.
pub fn request_parse_us(bodies: &[String]) -> f64 {
    let docs: Vec<Json> = bodies.iter().filter_map(|b| Json::parse(b).ok()).collect();
    median_us(MICRO_REPEATS, |i| {
        ServeRequest::parse(&docs[i % docs.len()]).map(|r| r.to_model_request())
    })
}

/// Median microseconds of rendering a serve response body.
pub fn serve_render_us(served: &[ModelResponse]) -> f64 {
    median_us(MICRO_REPEATS, |i| {
        protocol::response_json(&served[i % served.len()]).to_string()
    })
}

/// Median microseconds of rendering one decode step's output row as the
/// server does: shortest-round-trip floats in a JSON array.
pub fn step_render_us(outputs: &[Vec<f32>]) -> f64 {
    median_us(MICRO_REPEATS, |i| {
        let row = &outputs[i % outputs.len()];
        Json::Arr(row.iter().map(|&x| Json::Num(f64::from(x))).collect()).to_string()
    })
}

/// Median microseconds of one admission-queue submit plus the drain that
/// removes it, at the server's default capacities.
pub fn queue_submit_drain_us() -> f64 {
    let mut queue: AdmissionQueue<u64> = AdmissionQueue::new(32, 128);
    median_us(MICRO_REPEATS, |i| {
        let admitted = queue
            .submit(if i % 2 == 0 { "a" } else { "b" }, i as u64)
            .is_ok();
        (admitted, queue.drain(16).len())
    })
}

/// Median microseconds of `minihttp::read_request` over the bytes a
/// client sends for `POST path` with `body`.
pub fn read_request_us(path: &str, body: &str) -> f64 {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nx-tenant: a\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    median_us(MICRO_REPEATS, |_| {
        minihttp::read_request(&mut Cursor::new(raw.as_bytes())).is_ok_and(|r| r.is_some())
    })
}
