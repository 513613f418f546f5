//! `decode_churn`: one decoded token per operation over 8 interleaved
//! sessions, with explicit evictions from a seeded churn schedule. An
//! operation is `DecodeSession::step` plus any `Engine::resume_session`
//! that step had to wait for.

use std::time::Instant;

use sprint_engine::{
    DecodeSession, DecodeStep, Engine, EvictedSession, SessionRequest, StepResponse,
};
use sprint_reram::NoiseModel;
use sprint_workloads::{ChurnEvent, ChurnSpec, HeadTrace, ModelConfig, TraceGenerator};

use super::{engine_builder, input_seed};
use crate::checks::{step_checksum, Digest};
use crate::reference::RelErr;
use crate::report::Values;
use crate::runner::{Recorder, Sim, Workload};

pub const SESSIONS: usize = 8;
pub const SEQ_LEN: usize = 512;
pub const PREFILL: usize = 128;
const EVICT_FRACTION: f64 = 0.05;

enum Slot {
    Unopened,
    Live(Box<DecodeSession>),
    Parked(Box<EvictedSession>),
}

/// Totals of one pass over the schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundTotals {
    pub steps: u64,
    pub rehydrations: u64,
    pub rehydrated_tokens: u64,
    pub recalibrations: u64,
}

#[derive(Debug)]
pub struct DecodeChurn {
    pub engine: Engine,
    pub traces: Vec<HeadTrace>,
    pub schedule: Vec<ChurnEvent>,
    /// Every step of the warm-up round, in schedule order: `(session,
    /// token, response)`. Timed steps must equal these.
    pub warm: Vec<(usize, usize, StepResponse)>,
    /// Checksums of `warm`, by session and token.
    sums: Vec<Vec<u64>>,
    pub totals: RoundTotals,
    generate_ms: f64,
    churn_schedule_ms: f64,
}

fn open(engine: &Engine, trace: &HeadTrace, id: usize) -> Result<DecodeSession, String> {
    let k = trace.k().prefix_rows(PREFILL).map_err(|e| e.to_string())?;
    let v = trace.v().prefix_rows(PREFILL).map_err(|e| e.to_string())?;
    let request =
        SessionRequest::new(&k, &v, trace.config(), trace.threshold()).with_head_id(id as u64);
    engine.open_session(&request).map_err(|e| e.to_string())
}

/// Plays `schedule` against `engine` round after round until `rec`
/// expires (`once`: exactly one round). `on_step(session, token,
/// response)` says whether the step's output is the expected one. Every
/// session is dropped before returning, so the page pool must be empty
/// afterwards.
fn play(
    engine: &Engine,
    traces: &[HeadTrace],
    schedule: &[ChurnEvent],
    once: bool,
    rec: &mut Recorder,
    on_step: &mut dyn FnMut(usize, usize, &StepResponse) -> bool,
) -> Result<RoundTotals, String> {
    let mut totals = RoundTotals::default();
    'rounds: loop {
        let mut slots: Vec<Slot> = (0..traces.len()).map(|_| Slot::Unopened).collect();
        let mut next = vec![PREFILL; traces.len()];
        for event in schedule {
            let s = event.session();
            let trace = &traces[s];
            match event {
                // Evicting a session that is not resident is a no-op.
                ChurnEvent::Evict { .. } if matches!(slots[s], Slot::Live(_)) => {
                    if let Slot::Live(session) = std::mem::replace(&mut slots[s], Slot::Unopened) {
                        let span = rec.tracer.begin("engine.evict", s as u64);
                        let stub = session.evict();
                        rec.tracer.end(span);
                        slots[s] = Slot::Parked(Box::new(stub));
                    }
                }
                ChurnEvent::Evict { .. } => {}
                ChurnEvent::Step { .. } => {
                    if matches!(slots[s], Slot::Unopened) {
                        let span = rec.tracer.begin("engine.open_session", s as u64);
                        let session = open(engine, trace, s)?;
                        rec.tracer.end(span);
                        slots[s] = Slot::Live(Box::new(session));
                    }
                    let t = next[s];
                    let step = DecodeStep {
                        q: trace.q().row(t),
                        k: trace.k().row(t),
                        v: trace.v().row(t),
                    };
                    let slot = &mut slots[s];
                    let response = rec.time(|tracer, op| -> Result<StepResponse, String> {
                        if let Slot::Parked(stub) = slot {
                            let span = tracer.begin("engine.resume_session", op);
                            let k = trace.k().prefix_rows(t).map_err(|e| e.to_string())?;
                            let v = trace.v().prefix_rows(t).map_err(|e| e.to_string())?;
                            let session = engine
                                .resume_session(stub, &k, &v)
                                .map_err(|e| e.to_string())?;
                            tracer.end(span);
                            *slot = Slot::Live(Box::new(session));
                        }
                        let Slot::Live(session) = slot else {
                            unreachable!("opened or resumed above")
                        };
                        let span = tracer.begin("engine.step", op);
                        let response = session.step(&step).map_err(|e| e.to_string());
                        tracer.end(span);
                        response
                    })?;
                    rec.check(on_step(s, t, &response));
                    totals.steps += 1;
                    next[s] = t + 1;
                    if next[s] == trace.seq_len() {
                        if let Slot::Live(session) = std::mem::replace(slot, Slot::Unopened) {
                            let perf = session.perf();
                            totals.rehydrations += perf.rehydrations;
                            totals.rehydrated_tokens += perf.rehydrated_tokens;
                            totals.recalibrations += perf.recalibrations;
                        }
                    }
                    if !once && rec.expired() {
                        break 'rounds;
                    }
                }
            }
        }
        if once {
            break;
        }
    }
    Ok(totals)
}

impl Workload for DecodeChurn {
    const PASS: usize = SESSIONS * (SEQ_LEN - PREFILL);

    fn setup(_name: &'static str, seed: u64) -> Result<Self, String> {
        let spec = ModelConfig::gpt2_large()
            .trace_spec()
            .with_seq_len(SEQ_LEN)
            .with_padding(0.0);
        let started = Instant::now();
        let traces = (0..SESSIONS as u64)
            .map(|i| TraceGenerator::new(input_seed(seed, 2, i)).generate(&spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("trace synthesis: {e}"))?;
        let generate_ms = started.elapsed().as_secs_f64() * 1e3 / SESSIONS as f64;
        let started = Instant::now();
        let schedule = TraceGenerator::new(input_seed(seed, 3, 0))
            .churn_schedule(&ChurnSpec::new(SESSIONS, SEQ_LEN - PREFILL, EVICT_FRACTION))
            .map_err(|e| format!("churn schedule: {e}"))?;
        let churn_schedule_ms = started.elapsed().as_secs_f64() * 1e3;
        let engine = engine_builder().build().map_err(|e| e.to_string())?;

        // The warm-up round: every distinct (session, token) once. The
        // schedule is the same in every later round, so each timed step
        // must reproduce its warm-up response bit for bit.
        let mut sums = vec![vec![0u64; SEQ_LEN]; SESSIONS];
        let mut warm = Vec::new();
        let mut warmup = Recorder::new(Instant::now(), f64::MAX, 0, false);
        let totals = play(
            &engine,
            &traces,
            &schedule,
            true,
            &mut warmup,
            &mut |s, t, r| {
                sums[s][t] = step_checksum(r);
                warm.push((s, t, r.clone()));
                true
            },
        )?;
        Ok(DecodeChurn {
            engine,
            traces,
            schedule,
            warm,
            sums,
            totals,
            generate_ms,
            churn_schedule_ms,
        })
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Vec<Recorder> {
        let mut rec = Recorder::new(Instant::now(), seconds, 0, traced);
        let sums = &self.sums;
        let played = play(
            &self.engine,
            &self.traces,
            &self.schedule,
            false,
            &mut rec,
            &mut |s, t, r| step_checksum(r) == sums[s][t],
        );
        if played.is_err() {
            // A step or resume the program refused: a failed operation.
            rec.failed += 1;
        }
        vec![rec]
    }

    fn verify(&mut self, layers: &mut Values) -> Result<Sim, String> {
        let pool = self.engine.kv_pool();
        if pool.pages_in_use() != 0 {
            return Err(format!("{} KV pages still in use", pool.pages_in_use()));
        }

        // Eviction must be invisible. That contract holds bit for bit
        // under the ideal noise model only (a rehydrated pruner restarts
        // its noise streams), so it is checked on an ideal-noise engine:
        // the churned schedule against sessions that are never evicted.
        let ideal = engine_builder()
            .noise(NoiseModel::ideal())
            .build()
            .map_err(|e| e.to_string())?;
        let steps_only: Vec<ChurnEvent> = self
            .schedule
            .iter()
            .copied()
            .filter(|e| matches!(e, ChurnEvent::Step { .. }))
            .collect();
        let mut twin = vec![vec![0u64; SEQ_LEN]; SESSIONS];
        let mut scratch = Recorder::new(Instant::now(), f64::MAX, 0, false);
        play(
            &ideal,
            &self.traces,
            &steps_only,
            true,
            &mut scratch,
            &mut |s, t, r| {
                twin[s][t] = step_checksum(r);
                true
            },
        )?;
        play(
            &ideal,
            &self.traces,
            &self.schedule,
            true,
            &mut scratch,
            &mut |s, t, r| step_checksum(r) == twin[s][t],
        )?;
        if scratch.failed != 0 {
            return Err(format!(
                "{} steps differ from the never-evicted twin under ideal noise",
                scratch.failed
            ));
        }
        if ideal.kv_pool().pages_in_use() != 0 {
            return Err("the twin engine's KV pool is not empty".to_string());
        }

        // The warm-up round of the engine under test: simulated
        // statistics, and each output against the single-query f64
        // reference over the history that step saw (tokens 0..=t).
        let mut err = RelErr::default();
        let mut digest = Digest::default();
        let mut sim_sums = (0u64, 0.0f64);
        let mut kept = (0u64, 0u64);
        let mut recall = (0u64, 0u64);
        let mut counts = [0u64; 5];
        for (s, t, r) in &self.warm {
            let (trace, t) = (&self.traces[*s], *t);
            err.add_step(trace, t, &r.output);
            digest.word(step_checksum(r));
            sim_sums.0 += r.perf.cycles;
            sim_sums.1 += r.perf.energy.total().as_nj();
            kept.0 += r.decision.kept_count() as u64;
            kept.1 += r.decision.len() as u64;
            let oracle = &trace.reference_decisions()[t].as_slice()[..=t];
            for (&ours, &theirs) in r.decision.as_slice().iter().zip(oracle) {
                recall.0 += u64::from(!ours && !theirs);
                recall.1 += u64::from(!theirs);
            }
            for (c, x) in counts.iter_mut().zip([
                r.prune_stats.in_memory_ops,
                r.prune_stats.comparator_firings,
                r.memory_stats.fetched_vectors,
                r.memory_stats.reused_vectors,
                r.memory_stats.bytes_fetched,
            ]) {
                *c += x;
            }
        }

        let steps = self.totals.steps as f64;
        let per_kop = |x: u64| x as f64 * 1e3 / steps;
        layers.insert("workloads.generate_ms", self.generate_ms);
        layers.insert("workloads.churn_schedule_ms", self.churn_schedule_ms);
        layers.insert("reram.in_memory_ops_per_op", counts[0] as f64 / steps);
        layers.insert("reram.comparator_firings_per_op", counts[1] as f64 / steps);
        layers.insert("reram.kept_fraction", kept.0 as f64 / kept.1 as f64);
        layers.insert(
            "reram.recall_vs_oracle",
            recall.0 as f64 / recall.1.max(1) as f64,
        );
        layers.insert("memory.fetched_vectors_per_op", counts[2] as f64 / steps);
        layers.insert("memory.reused_vectors_per_op", counts[3] as f64 / steps);
        layers.insert(
            "memory.reuse_fraction",
            counts[3] as f64 / (counts[2] + counts[3]).max(1) as f64,
        );
        layers.insert("memory.bytes_fetched_per_op", counts[4] as f64 / steps);
        layers.insert("attention.pool_peak_pages", pool.peak_pages() as f64);
        layers.insert("attention.pool_reused_pages", pool.reused_pages() as f64);
        layers.insert("attention.pool_pages_leaked", pool.pages_in_use() as f64);
        layers.insert(
            "engine.rehydrations_per_kop",
            per_kop(self.totals.rehydrations),
        );
        layers.insert(
            "engine.rehydrated_tokens_per_kop",
            per_kop(self.totals.rehydrated_tokens),
        );
        layers.insert(
            "engine.recalibrations_per_kop",
            per_kop(self.totals.recalibrations),
        );
        Ok(Sim {
            cycles_per_op: sim_sums.0 as f64 / steps,
            energy_nj_per_op: sim_sums.1 / steps,
            rel_err: err.median(),
            digest: digest.0,
        })
    }
}
