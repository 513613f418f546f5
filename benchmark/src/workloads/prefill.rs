//! `prefill_sprint` and `prefill_dense`: one `Engine::run_head` per
//! operation over 16 pre-synthesized BERT-base heads, cycled.

use std::time::Instant;

use sprint_engine::{Engine, ExecutionMode, HeadRequest, HeadResponse, PerfRollup};
use sprint_workloads::{HeadTrace, ModelConfig, TraceGenerator};

use super::{engine_builder, input_seed, mean_of, rollup_layers};
use crate::checks::{head_checksum, Digest};
use crate::reference::RelErr;
use crate::report::Values;
use crate::runner::{Recorder, Sim, Workload};

/// Distinct heads; enough that the per-head means move little with the
/// seed.
pub const HEADS: usize = 16;
const SEQ_LEN: usize = 512;
/// Largest relative L2 distance a Dense output row may have from the f64
/// reference (f32 arithmetic only).
const DENSE_TOLERANCE: f64 = 1e-5;

#[derive(Debug)]
pub struct Prefill {
    pub mode: ExecutionMode,
    pub engine: Engine,
    pub traces: Vec<HeadTrace>,
    /// Warm-up response of every head: what timed responses must equal.
    pub warm: Vec<HeadResponse>,
    sums: Vec<u64>,
    generate_ms: f64,
}

impl Prefill {
    pub fn request(&self, i: usize) -> HeadRequest<'_> {
        HeadRequest::from_trace(&self.traces[i]).with_head_id(i as u64)
    }
}

impl Workload for Prefill {
    const PASS: usize = HEADS;

    fn setup(name: &'static str, seed: u64) -> Result<Self, String> {
        let mode = match name {
            "prefill_sprint" => ExecutionMode::Sprint,
            _ => ExecutionMode::Dense,
        };
        let spec = ModelConfig::bert_base().trace_spec().with_seq_len(SEQ_LEN);
        let started = Instant::now();
        let traces = (0..HEADS as u64)
            .map(|i| TraceGenerator::new(input_seed(seed, 1, i)).generate(&spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("trace synthesis: {e}"))?;
        let generate_ms = started.elapsed().as_secs_f64() * 1e3 / HEADS as f64;
        let engine = engine_builder()
            .mode(mode)
            .build()
            .map_err(|e| e.to_string())?;
        let mut out = Prefill {
            mode,
            engine,
            traces,
            warm: Vec::new(),
            sums: Vec::new(),
            generate_ms,
        };
        for i in 0..HEADS {
            let response = out
                .engine
                .run_head(&out.request(i))
                .map_err(|e| e.to_string())?;
            out.sums.push(head_checksum(&response));
            out.warm.push(response);
        }
        Ok(out)
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Vec<Recorder> {
        let mut rec = Recorder::new(Instant::now(), seconds, 0, traced);
        for i in (0..HEADS).cycle() {
            let request = self.request(i);
            let response = rec.time(|tracer, op| {
                let span = tracer.begin("engine.run_head", op);
                let response = self.engine.run_head(&request);
                tracer.end(span);
                response
            });
            rec.check(response.is_ok_and(|r| head_checksum(&r) == self.sums[i]));
            if rec.expired() {
                break;
            }
        }
        vec![rec]
    }

    fn verify(&mut self, layers: &mut Values) -> Result<Sim, String> {
        let mut err = RelErr::default();
        let mut digest = Digest::default();
        let mut rollups = Vec::new();
        let mut rollup_ns = 0u128;
        let mut recall = (0u64, 0u64);
        for (trace, response) in self.traces.iter().zip(&self.warm) {
            let live = trace.live_tokens();
            let (d, d_v) = (trace.q().cols(), trace.v().cols());
            if response.output.as_slice()[live * d_v..]
                .iter()
                .any(|&x| x != 0.0)
            {
                return Err("a padded query row is not zero".to_string());
            }
            err.add_head(trace, response.output.as_slice());

            let started = Instant::now();
            let rollup = PerfRollup::from_response(
                self.mode,
                self.engine.config(),
                d,
                trace.seq_len(),
                live,
                response,
            );
            rollup_ns += started.elapsed().as_nanos();
            for w in [rollup.cycles, rollup.energy.total().as_pj().to_bits()] {
                digest.word(w);
            }
            digest.word(head_checksum(response));
            rollups.push(rollup);

            // Kept set against the trace's own exact-score decisions.
            for (ours, oracle) in response.decisions[..live]
                .iter()
                .zip(trace.reference_decisions())
            {
                recall.0 += ours.kept_overlap(oracle) as u64;
                recall.1 += oracle.kept_count() as u64;
            }
        }
        if self.mode == ExecutionMode::Dense && err.max() > DENSE_TOLERANCE {
            return Err(format!(
                "a Dense output row is {} from the f64 reference, above {DENSE_TOLERANCE}",
                err.max()
            ));
        }
        let mut total = PerfRollup::default();
        rollups.iter().for_each(|r| total.merge(r));
        let per_op = |x: u64| x as f64 / HEADS as f64;
        let prune = |f: fn(&HeadResponse) -> u64| mean_of(&self.warm, |r| f(r) as f64);
        layers.insert("workloads.generate_ms", self.generate_ms);
        layers.insert(
            "reram.in_memory_ops_per_op",
            prune(|r| r.prune_stats.in_memory_ops),
        );
        layers.insert(
            "reram.comparator_firings_per_op",
            prune(|r| r.prune_stats.comparator_firings),
        );
        layers.insert(
            "reram.recall_vs_oracle",
            recall.0 as f64 / recall.1.max(1) as f64,
        );
        rollup_layers(&total, HEADS, layers);
        layers.insert("engine.rollup_us", rollup_ns as f64 * 1e-3 / HEADS as f64);
        Ok(Sim {
            cycles_per_op: per_op(total.cycles),
            energy_nj_per_op: total.energy.total().as_nj() / HEADS as f64,
            rel_err: err.median(),
            digest: digest.0,
        })
    }
}
