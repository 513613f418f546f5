//! Model-level serving: [`ModelServer`] over the [`Engine`], and the
//! interleaved decode driver [`DecodeLoop`].
//!
//! The [`Engine`] serves isolated heads; the evaluation — and any real
//! deployment — is model-shaped. [`ModelServer`] closes that gap: it
//! decomposes a [`ModelRequest`] (layers × heads, per-layer sequence
//! lengths, one shared base seed) into [`crate::HeadRequest`]s,
//! schedules them over the engine's pool of reset-reused worker
//! scratches via [`sprint_parallel`], and aggregates the responses
//! into a [`ModelResponse`] of per-layer and whole-model roll-ups.
//! The decomposition inherits [`Engine::run_batch`]'s determinism
//! guarantee: results are bit-identical across worker counts and equal
//! to a sequential per-head loop over the same
//! [`ModelRequest::head_plan`].
//!
//! Traffic — arrivals, admission, in-flight batching, latency
//! percentiles — is the HTTP server's job (`sprint_server`: its
//! admission queue and batcher call
//! [`ModelServer::serve_many_threads`]).

use std::time::Instant;

use sprint_energy::EnergyBreakdown;
use sprint_reram::ThresholdSpec;
use sprint_workloads::{ProxyTask, TaskScore, TraceGenerator, TraceSpec};

use crate::decode::SessionPerf;
use crate::engine::{derive_head_seed, BatchReport};
use crate::model::{HeadPlan, LayerReport, ModelRequest, ModelResponse, PerfRollup, TRACE_SALT};
use crate::sessions::{SessionOpen, SessionTable};
use crate::{Engine, ExecutionMode, HeadRequest, SprintError};

/// Per-stage execution accounting for one [`ModelServer::serve_many`]
/// pass ([`ModelServer::serve_many_report`]).
///
/// The serial stages (`plan_ns`, `score_ns`, `fold_ns`) are wall-clock
/// spans; the two fan-outs (`synth`, `batch`) carry full per-worker
/// [`BatchReport`]s. Together they answer "where did the pass
/// serialize": a large serial stage bounds scaling no matter how many
/// workers run, while an uneven fan-out shows up in the worker
/// counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Wall-clock nanoseconds decomposing passes into head plans
    /// (serial).
    pub plan_ns: u128,
    /// Trace-synthesis fan-out (deduplicated `(seed, spec)` pairs).
    pub synth: BatchReport,
    /// The engine head-batch fan-out.
    pub batch: BatchReport,
    /// Wall-clock nanoseconds scoring accuracy (≈0 when no pass asks
    /// for it; the scoring fan-out is timed as one span).
    pub score_ns: u128,
    /// Wall-clock nanoseconds folding head rollups into per-layer and
    /// per-model reports (serial).
    pub fold_ns: u128,
}

impl ServeStats {
    /// The pass's ideal wall-clock on a host with one free core per
    /// worker: the serial stages plus each fan-out's critical path.
    /// Comparing this across worker counts demonstrates (or refutes)
    /// scaling independent of how loaded the measuring machine is.
    pub fn critical_path_ns(&self) -> u128 {
        self.plan_ns
            + self.synth.critical_path_ns()
            + self.batch.critical_path_ns()
            + self.score_ns
            + self.fold_ns
    }
}

/// Serves whole forward passes over one [`Engine`].
///
/// The server owns nothing beyond the engine: all reusable substrate
/// state (pruner crossbars, memory controllers, attention scratch)
/// lives in the engine's worker slots and is recycled across passes,
/// so a long-running server allocates no per-request substrate.
///
/// # Example
///
/// ```
/// use sprint_engine::{Engine, ModelProfile, ModelRequest, ModelServer, SprintConfig};
/// use sprint_workloads::ModelConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let server = ModelServer::new(Engine::builder(SprintConfig::small()).seed(1).build()?);
/// let profile = ModelProfile::from_model(&ModelConfig::bert_base())
///     .with_layers(2)
///     .with_heads(2)
///     .with_layer_seq_lens(vec![48, 32]); // ragged layers are fine
/// let response = server.serve(&ModelRequest::new(profile).with_seed(7))?;
/// assert_eq!(response.layers.len(), 2);
/// assert_eq!(response.total.heads, 4);
/// assert!(response.total.energy.total().as_pj() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ModelServer {
    engine: Engine,
}

impl ModelServer {
    /// Wraps an engine. The engine's worker slots are the server's
    /// execution pool; its defaults (mode, noise, comparator, seed)
    /// apply to every pass that does not override them.
    pub fn new(engine: Engine) -> Self {
        ModelServer { engine }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Unwraps the server back into its engine.
    pub fn into_engine(self) -> Engine {
        self.engine
    }

    /// Serves one forward pass (fanned out across up to
    /// [`Engine::worker_slots`] workers).
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] for degenerate profiles or accuracy
    /// requests without a source model; substrate errors otherwise.
    pub fn serve(&self, request: &ModelRequest) -> Result<ModelResponse, SprintError> {
        self.serve_threads(sprint_parallel::max_threads(), request)
    }

    /// [`ModelServer::serve`] with an explicit worker-count cap (the
    /// determinism tests sweep this; production code should prefer
    /// `serve`).
    ///
    /// # Errors
    ///
    /// Same as [`ModelServer::serve`].
    pub fn serve_threads(
        &self,
        threads: usize,
        request: &ModelRequest,
    ) -> Result<ModelResponse, SprintError> {
        let mut responses = self.serve_many_threads(threads, std::slice::from_ref(request))?;
        Ok(responses.remove(0))
    }

    /// Serves several passes as one flattened head batch — the
    /// in-flight batching entry the HTTP server's batcher uses. Each pass
    /// keeps its own base seed, so the responses equal one
    /// [`ModelServer::serve`] call per request.
    ///
    /// # Errors
    ///
    /// The first failing request's error, in request order.
    pub fn serve_many(&self, requests: &[ModelRequest]) -> Result<Vec<ModelResponse>, SprintError> {
        self.serve_many_threads(sprint_parallel::max_threads(), requests)
    }

    /// [`ModelServer::serve_many`] with an explicit worker-count cap.
    ///
    /// # Errors
    ///
    /// Same as [`ModelServer::serve_many`].
    pub fn serve_many_threads(
        &self,
        threads: usize,
        requests: &[ModelRequest],
    ) -> Result<Vec<ModelResponse>, SprintError> {
        Ok(self.serve_many_report(threads, requests)?.0)
    }

    /// [`ModelServer::serve_many_threads`] with per-stage execution
    /// accounting: returns the responses together with a
    /// [`ServeStats`] locating where the pass spent its time (serial
    /// planning/scoring/folding vs. the synthesis and head-batch
    /// fan-outs, with per-worker counters for both).
    ///
    /// # Errors
    ///
    /// Same as [`ModelServer::serve_many`].
    #[allow(clippy::type_complexity)]
    pub fn serve_many_report(
        &self,
        threads: usize,
        requests: &[ModelRequest],
    ) -> Result<(Vec<ModelResponse>, ServeStats), SprintError> {
        // The explicit count governs every fan-out of the pass, not
        // just the engine batch — a caller asking for one worker gets
        // exactly one thread of synthesis and scoring too. It is NOT
        // clamped to `max_threads()`: an explicit request for N
        // workers must produce N workers (the engine batch still caps
        // at its slot count), otherwise worker sweeps silently
        // serialize on small hosts.
        let workers = threads.max(1);
        // 1. Decompose every pass into its deterministic head plan.
        let plan_started = Instant::now();
        let mut plans: Vec<(usize, HeadPlan)> = Vec::new();
        for (r, request) in requests.iter().enumerate() {
            request.profile().validate()?;
            if request.wants_accuracy() && request.profile().source().is_none() {
                return Err(SprintError::Request(format!(
                    "accuracy requested for '{}' but the profile has no source model",
                    request.profile().name()
                )));
            }
            plans.extend(request.head_plan().into_iter().map(|h| (r, h)));
        }
        let plan_ns = plan_started.elapsed().as_nanos();

        // 2. Synthesize the traces — deduplicated: passes that share a
        // base seed and layer shape (a mode sweep over one model, say)
        // name the same (trace_seed, spec) pairs, and a trace is a
        // pure function of that pair, so each unique pair is built
        // once. The fan-out stays bit-identical to a sequential loop.
        let synth_started = Instant::now();
        let mut trace_keys: Vec<(u64, TraceSpec)> = Vec::new();
        let mut trace_of: Vec<usize> = Vec::with_capacity(plans.len());
        for (_, plan) in &plans {
            let key = (plan.trace_seed, plan.spec);
            let idx = trace_keys
                .iter()
                .position(|k| *k == key)
                .unwrap_or_else(|| {
                    trace_keys.push(key);
                    trace_keys.len() - 1
                });
            trace_of.push(idx);
        }
        let (traces, synth_workers) = sprint_parallel::par_chunk_try_map_threads(
            workers,
            &trace_keys,
            |_, _, (seed, spec)| TraceGenerator::new(*seed).generate(spec),
        )?;
        let synth = BatchReport {
            wall_ns: synth_started.elapsed().as_nanos(),
            workers: synth_workers,
        };

        // 3. Stamp out head requests (borrowing the traces) and run
        // them as one sharded batch: worker `w` stays pinned to the
        // engine's scratch slot `w` for the whole batch. The unchecked
        // path is deliberate — mode sweeps flatten passes that reuse
        // head ids against a shared base seed, which the public
        // `run_batch` rejects as a seed collision.
        let head_requests: Vec<HeadRequest> = plans
            .iter()
            .zip(&trace_of)
            .map(|((r, plan), &t)| {
                let mut head = HeadRequest::from_trace(&traces[t]).with_head_id(plan.head_id);
                if let Some(mode) = requests[*r].mode_override() {
                    head = head.with_mode(mode);
                }
                if let Some(spec) = requests[*r].threshold_spec_override() {
                    head = head.with_threshold_spec(spec);
                }
                head
            })
            .collect();
        let (head_responses, batch) = self.engine.run_batch_sharded(workers, &head_requests)?;

        // 4. Score the passes that asked for accuracy. Tasks are
        // deduplicated like traces (a task is a pure function of its
        // trace, source model and task seed, and its construction runs
        // a dense reference pass — the expensive half); the per-head
        // evaluation still runs per response. Skipped entirely when no
        // pass wants accuracy.
        let score_started = Instant::now();
        let scores: Vec<Option<TaskScore>> = if requests.iter().any(ModelRequest::wants_accuracy) {
            let mut task_keys: Vec<(usize, u64, usize)> = Vec::new(); // (trace, seed, request)
            let mut task_of: Vec<Option<usize>> = Vec::with_capacity(plans.len());
            for ((r, plan), &t) in plans.iter().zip(&trace_of) {
                if !requests[*r].wants_accuracy() {
                    task_of.push(None);
                    continue;
                }
                let idx = task_keys
                    .iter()
                    .position(|&(kt, ks, kr)| {
                        kt == t
                            && ks == plan.task_seed
                            && requests[kr].profile().source() == requests[*r].profile().source()
                    })
                    .unwrap_or_else(|| {
                        task_keys.push((t, plan.task_seed, *r));
                        task_keys.len() - 1
                    });
                task_of.push(Some(idx));
            }
            let tasks =
                sprint_parallel::par_try_map_threads(workers, &task_keys, |&(t, seed, r)| {
                    let model = requests[r].profile().source().expect("checked above");
                    ProxyTask::new(&traces[t], model, seed)
                })?;
            let indices: Vec<usize> = (0..plans.len()).collect();
            sprint_parallel::par_try_map_threads(
                workers,
                &indices,
                |&i| -> Result<_, SprintError> {
                    match task_of[i] {
                        Some(t) => Ok(Some(tasks[t].evaluate(&head_responses[i].output)?)),
                        None => Ok(None),
                    }
                },
            )?
        } else {
            vec![None; plans.len()]
        };
        let score_ns = score_started.elapsed().as_nanos();

        // 5. Fold head rollups into per-layer and per-model reports.
        let fold_started = Instant::now();
        let mut out: Vec<ModelResponse> = requests
            .iter()
            .map(|request| ModelResponse {
                model: request.profile().name().to_string(),
                mode: request.mode_override().unwrap_or(self.engine.mode()),
                layers: request
                    .profile()
                    .layer_seq_lens()
                    .iter()
                    .enumerate()
                    .map(|(layer, &seq_len)| LayerReport {
                        layer,
                        seq_len,
                        perf: PerfRollup::default(),
                    })
                    .collect(),
                total: PerfRollup::default(),
            })
            .collect();
        for (((r, plan), &t), (response, score)) in plans
            .iter()
            .zip(&trace_of)
            .zip(head_responses.iter().zip(&scores))
        {
            let request = &requests[*r];
            let mut rollup = PerfRollup::from_response(
                request.mode_override().unwrap_or(self.engine.mode()),
                self.engine.config(),
                request.profile().head_dim(),
                plan.spec.seq_len,
                traces[t].live_tokens(),
                response,
            );
            if let Some(score) = score {
                rollup.record_score(*score);
            }
            out[*r].layers[plan.layer].perf.merge(&rollup);
        }
        // The model total is *defined* as the merge of the layer
        // reports (not a second per-head fold), so `Σ layers == total`
        // holds exactly — f64 addition groups the same way on both
        // sides.
        for response in &mut out {
            for layer in 0..response.layers.len() {
                let perf = response.layers[layer].perf;
                response.total.merge(&perf);
            }
        }
        let stats = ServeStats {
            plan_ns,
            synth,
            batch,
            score_ns,
            fold_ns: fold_started.elapsed().as_nanos(),
        };
        Ok((out, stats))
    }
}

/// One autoregressive decode task for the [`DecodeLoop`]: synthesize
/// a token stream, prefill a session with its head, and decode the
/// remaining tokens one step at a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeTask {
    /// The trace to synthesize the token stream from. `seq_len` is the
    /// *total* token count (prefill + decoded); the padding fraction
    /// is forced to zero — decode histories hold only real tokens.
    pub spec: TraceSpec,
    /// Tokens in the prefill (`1..spec.seq_len`); the rest decode.
    pub prefill: usize,
    /// Per-task [`ExecutionMode`] override.
    pub mode: Option<ExecutionMode>,
    /// Per-task comparator override.
    pub threshold_spec: Option<ThresholdSpec>,
}

/// The deterministic outcome of one decode session run by the
/// [`DecodeLoop`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The task's index in the submitted slice.
    pub session: usize,
    /// Prefill length.
    pub prefill: usize,
    /// Tokens decoded.
    pub tokens: u64,
    /// Fraction of considered scores kept across all steps.
    pub kept_fraction: f64,
    /// Summed recurring step energy.
    pub energy: EnergyBreakdown,
    /// Summed program-once energy (prefill write + appends +
    /// recalibrations).
    pub program_energy: EnergyBreakdown,
    /// Summed step latency in cycles.
    pub cycles: u64,
    /// Full requantize/reprogram events across the session.
    pub recalibrations: u64,
    /// ReRAM cell faults detected by the session's scrubs.
    pub faults_detected: u64,
    /// Write-verify reprogram retries spent repairing mid-session.
    pub fault_retries: u64,
    /// Whether the session demoted to the exact digital pipeline
    /// mid-decode (and stayed there; see [`crate::FaultPolicy`]).
    pub demoted: bool,
    /// The last decoded token's attention output row.
    pub final_output: Vec<f32>,
}

/// The outcome of one [`DecodeLoop::run`]: per-session reports (pure
/// functions of the tasks and the engine seed — bit-identical across
/// worker counts) plus wall-clock throughput.
#[derive(Debug, Clone)]
pub struct DecodeReport {
    /// One report per task, in task order.
    pub sessions: Vec<SessionReport>,
    /// Total tokens decoded across all sessions.
    pub tokens: u64,
    /// ReRAM cell faults detected across all sessions.
    pub faults_detected: u64,
    /// Sessions that demoted to the exact digital pipeline mid-decode.
    pub demoted_sessions: u64,
    /// KV-page eviction events across all sessions (zero for
    /// [`DecodeLoop::run`]; only [`DecodeLoop::run_churn`] evicts).
    pub evictions: u64,
    /// Session rehydrations across all sessions (zero for
    /// [`DecodeLoop::run`]).
    pub rehydrations: u64,
    /// History tokens replayed across all rehydrations.
    pub rehydrated_tokens: u64,
    /// Pages the engine's shared KV pool held when the run finished
    /// (zero once every session closed, unless other sessions share
    /// the pool).
    pub kv_pages_in_use: usize,
    /// The pool's lifetime peak resident page count.
    pub kv_pages_peak: usize,
    /// Wall-clock nanoseconds the run took.
    pub busy_ns: u128,
    /// Per-worker counters from the session fan-out (sessions are
    /// distributed by [`sprint_parallel::chunk_ranges`], so which
    /// worker ran a session is deterministic).
    pub workers: Vec<sprint_parallel::WorkerStats>,
}

impl DecodeReport {
    /// Decoded tokens per wall-clock second.
    pub fn tokens_per_s(&self) -> f64 {
        self.tokens as f64 / (self.busy_ns.max(1) as f64 / 1e9)
    }
}

/// Interleaves many concurrent [`crate::DecodeSession`]s over
/// [`sprint_parallel`] workers.
///
/// Sessions are mutually independent, so the loop fans one worker out
/// per session; session `i` derives its trace seed from
/// `engine_seed ^ TRACE_SALT` and its pruner seed from the engine seed
/// at head id `i` — the same derivation discipline as
/// [`Engine::run_batch`], so reports are **bit-identical across
/// worker counts** and across runs.
///
/// # Example
///
/// ```
/// use sprint_engine::{DecodeLoop, DecodeTask, Engine, SprintConfig};
/// use sprint_reram::NoiseModel;
/// use sprint_workloads::ModelConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = Engine::builder(SprintConfig::small())
///     .noise(NoiseModel::ideal())
///     .seed(4)
///     .build()?;
/// let task = DecodeTask {
///     spec: ModelConfig::bert_base().trace_spec().with_seq_len(24),
///     prefill: 16,
///     mode: None,
///     threshold_spec: None,
/// };
/// let report = DecodeLoop::new(&engine).run(&[task, task])?;
/// assert_eq!(report.sessions.len(), 2);
/// assert_eq!(report.tokens, 16); // 8 decoded tokens per session
/// // Same engine, same tasks, any worker count: identical reports.
/// let again = DecodeLoop::new(&engine).run_threads(1, &[task, task])?;
/// assert_eq!(report.sessions, again.sessions);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecodeLoop<'a> {
    engine: &'a Engine,
}

impl<'a> DecodeLoop<'a> {
    /// A loop decoding over `engine`'s defaults and seed.
    pub fn new(engine: &'a Engine) -> Self {
        DecodeLoop { engine }
    }

    /// Runs every task to completion, one session per task, fanned out
    /// across up to [`sprint_parallel::max_threads`] workers.
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] for a degenerate task (prefill outside
    /// `1..seq_len`); substrate errors otherwise. The first failing
    /// task's error wins, in task order.
    pub fn run(&self, tasks: &[DecodeTask]) -> Result<DecodeReport, SprintError> {
        self.run_threads(sprint_parallel::max_threads(), tasks)
    }

    /// [`DecodeLoop::run`] with an explicit worker-count cap (the
    /// determinism tests sweep this).
    ///
    /// # Errors
    ///
    /// Same as [`DecodeLoop::run`].
    pub fn run_threads(
        &self,
        threads: usize,
        tasks: &[DecodeTask],
    ) -> Result<DecodeReport, SprintError> {
        // One single-session chunk per task: a round-robin over one
        // session is that session run to completion.
        let singles: Vec<_> = (0..tasks.len()).map(|i| i..i + 1).collect();
        self.run_chunks(threads, tasks, &singles, 1)
    }

    /// Runs every task under a per-worker **residency cap**: at most
    /// `resident_cap` sessions per worker hold KV pages at once, the
    /// rest sit evicted (in the worker's own [`crate::SessionTable`])
    /// with only their stub and retained trace. Each worker serves its
    /// sessions one token per turn, round-robin; a turn on an evicted
    /// session transparently rehydrates it through the ordinary prefill
    /// path ([`Engine::resume_session`]), evicting its own least-recently
    /// used session first when the shared page pool is exhausted.
    ///
    /// Under an ideal noise model and no fault model, the per-session
    /// reports are **bit-identical** to [`DecodeLoop::run`] over the
    /// same tasks — eviction and rehydration are invisible in every
    /// output, decision and step-attributed perf number; only the
    /// churn counters ([`DecodeReport::evictions`],
    /// [`DecodeReport::rehydrations`]) and the separately-booked
    /// [`crate::SessionPerf::rehydration_energy`] differ. The counter
    /// *values* depend on the worker count (chunk boundaries move);
    /// the session reports do not.
    ///
    /// Size a bounded pool for at least `workers × resident_cap`
    /// resident sessions: a worker whose own resident set is empty
    /// cannot free pages held by other workers, so an undersized pool
    /// surfaces as the pool-exhausted error instead of deadlocking.
    ///
    /// # Errors
    ///
    /// Same as [`DecodeLoop::run`], plus the pool-exhausted error
    /// ([`SprintError::is_pool_exhausted`]) when eviction cannot free
    /// enough pages for the next turn.
    pub fn run_churn(
        &self,
        tasks: &[DecodeTask],
        resident_cap: usize,
    ) -> Result<DecodeReport, SprintError> {
        self.run_churn_threads(sprint_parallel::max_threads(), tasks, resident_cap)
    }

    /// [`DecodeLoop::run_churn`] with an explicit worker-count cap.
    ///
    /// # Errors
    ///
    /// Same as [`DecodeLoop::run_churn`].
    pub fn run_churn_threads(
        &self,
        threads: usize,
        tasks: &[DecodeTask],
        resident_cap: usize,
    ) -> Result<DecodeReport, SprintError> {
        // One chunk per worker, the same contiguous split `run` uses —
        // the chunk round-robins internally instead of finishing each
        // session before the next.
        let ranges = sprint_parallel::chunk_ranges(tasks.len(), threads.max(1));
        self.run_chunks(threads, tasks, &ranges, resident_cap.max(1))
    }

    /// Runs each of `ranges` as one [`DecodeLoop::churn_chunk`] over up
    /// to `threads` workers and folds the closed sessions into a report.
    fn run_chunks(
        &self,
        threads: usize,
        tasks: &[DecodeTask],
        ranges: &[std::ops::Range<usize>],
        cap: usize,
    ) -> Result<DecodeReport, SprintError> {
        for (i, task) in tasks.iter().enumerate() {
            if task.prefill == 0 || task.prefill >= task.spec.seq_len {
                return Err(SprintError::Request(format!(
                    "decode task {i}: prefill {} outside 1..{}",
                    task.prefill, task.spec.seq_len
                )));
            }
        }
        let started = Instant::now();
        // Honor the explicit count (sessions are independent; there is
        // no slot constraint to clamp against).
        let (chunks, workers) =
            sprint_parallel::par_chunk_try_map_threads(threads.max(1), ranges, |_, _, range| {
                self.churn_chunk(range.clone(), tasks, cap)
            })?;
        let busy_ns = started.elapsed().as_nanos().max(1);
        let closed: Vec<(SessionReport, SessionPerf)> = chunks.into_iter().flatten().collect();
        let sum = |count: fn(&SessionPerf) -> u64| closed.iter().map(|(_, perf)| count(perf)).sum();
        let pool = self.engine.kv_pool();
        Ok(DecodeReport {
            tokens: sum(|perf| perf.tokens),
            faults_detected: sum(|perf| perf.faults_detected),
            demoted_sessions: sum(|perf| u64::from(perf.demoted)),
            evictions: sum(|perf| perf.evictions),
            rehydrations: sum(|perf| perf.rehydrations),
            rehydrated_tokens: sum(|perf| perf.rehydrated_tokens),
            kv_pages_in_use: pool.pages_in_use(),
            kv_pages_peak: pool.peak_pages(),
            busy_ns,
            workers,
            sessions: closed.into_iter().map(|(report, _)| report).collect(),
        })
    }

    /// What task `i`'s session opens from: its synthesized token stream
    /// (the retained history every rehydration replays from), seeded
    /// and overridden as the task asks.
    fn session_open(&self, i: usize, task: &DecodeTask) -> Result<SessionOpen, SprintError> {
        let mut spec = task.spec;
        spec.padding_fraction = 0.0;
        let trace_seed = derive_head_seed(self.engine.seed() ^ TRACE_SALT, i as u64);
        Ok(SessionOpen {
            trace: TraceGenerator::new(trace_seed).generate(&spec)?,
            prefill: task.prefill,
            head_id: i as u64,
            mode: task.mode,
            threshold_spec: task.threshold_spec,
        })
    }

    /// Folds a finished session into its report.
    fn report(
        i: usize,
        task: &DecodeTask,
        perf: &SessionPerf,
        final_output: Vec<f32>,
    ) -> SessionReport {
        SessionReport {
            session: i,
            prefill: task.prefill,
            tokens: perf.tokens,
            kept_fraction: perf.kept_fraction(),
            energy: perf.energy,
            program_energy: perf.program_energy,
            cycles: perf.cycles,
            recalibrations: perf.recalibrations,
            faults_detected: perf.faults_detected,
            fault_retries: perf.fault_retries,
            demoted: perf.demoted,
            final_output,
        }
    }

    /// One worker's share of a run: round-robin one-token turns over
    /// `range`'s sessions through a [`SessionTable`] of its own capped
    /// at `cap` resident sessions — a worker evicts only its own
    /// sessions, in an order fixed by the turn sequence. Sessions open
    /// on their first turn and close on their last, freeing their
    /// pages. Returns each session's report and final accounting, in
    /// task order.
    fn churn_chunk(
        &self,
        range: std::ops::Range<usize>,
        tasks: &[DecodeTask],
        cap: usize,
    ) -> Result<Vec<(SessionReport, SessionPerf)>, SprintError> {
        let table = SessionTable::new(Some(cap));
        let mut ids: Vec<Option<u64>> = vec![None; range.len()];
        let mut closed: Vec<Option<(SessionReport, SessionPerf)>> = vec![None; range.len()];
        while closed.iter().any(Option::is_none) {
            for (s, i) in range.clone().enumerate() {
                if closed[s].is_some() {
                    continue;
                }
                let task = &tasks[i];
                let id = match ids[s] {
                    Some(id) => id,
                    None => *ids[s].insert(table.open(self.engine, self.session_open(i, task)?)?),
                };
                let response = table.step(self.engine, id)?;
                if response.position + 1 == task.spec.seq_len {
                    let perf = table.close(id)?;
                    closed[s] = Some((Self::report(i, task, &perf, response.output), perf));
                }
            }
        }
        Ok(closed.into_iter().flatten().collect())
    }
}

/// The nearest-rank percentile of an ascending-sorted slice: the
/// sample at rank `⌈pct/100 · n⌉`, no interpolation; `T::default()`
/// (zero) for an empty slice. The one estimator behind the server's
/// `/metrics` reservoir and the stress harness. Any percentile above
/// `100 · (1 − 1/n)` returns the sample **maximum**: over fewer than
/// 100 samples "p99" is simply the slowest one.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], pct: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExecutionMode, ModelProfile, SprintConfig};
    use sprint_reram::NoiseModel;
    use sprint_workloads::ModelConfig;

    fn server(slots: usize) -> ModelServer {
        ModelServer::new(
            Engine::builder(SprintConfig::small())
                .noise(NoiseModel::ideal())
                .seed(3)
                .worker_slots(slots)
                .build()
                .unwrap(),
        )
    }

    fn tiny_request() -> ModelRequest {
        ModelRequest::new(
            ModelProfile::from_model(&ModelConfig::bert_base())
                .with_layers(2)
                .with_heads(2)
                .with_layer_seq_lens(vec![40, 24]),
        )
        .with_seed(11)
    }

    #[test]
    fn serve_rolls_layers_into_totals() {
        let response = server(2).serve(&tiny_request()).unwrap();
        assert_eq!(response.model, "BERT-B");
        assert_eq!(response.mode, ExecutionMode::Sprint);
        assert_eq!(response.layers.len(), 2);
        assert_eq!(response.layers[0].seq_len, 40);
        assert_eq!(response.layers[1].seq_len, 24);
        let mut merged = PerfRollup::default();
        for layer in &response.layers {
            assert_eq!(layer.perf.heads, 2);
            assert!(layer.perf.cycles > 0);
            assert!(layer.perf.energy.total().as_pj() > 0.0);
            merged.merge(&layer.perf);
        }
        assert_eq!(merged, response.total);
        assert_eq!(response.total.heads, 4);
        // Sprint prunes: kept fraction strictly inside (0, 1).
        let kept = response.total.kept_fraction();
        assert!(kept > 0.0 && kept < 1.0, "kept fraction {kept}");
        assert!(response.total.queries_pruned > 0);
        assert_eq!(response.total.accuracy(), None, "accuracy off by default");
    }

    #[test]
    fn mode_override_moves_the_energy_ordering() {
        let s = server(2);
        let dense = s
            .serve(&tiny_request().with_mode(ExecutionMode::Dense))
            .unwrap();
        let sprint = s
            .serve(&tiny_request().with_mode(ExecutionMode::Sprint))
            .unwrap();
        assert!(dense.total.energy.total() > sprint.total.energy.total());
        assert!(dense.total.cycles > sprint.total.cycles);
        assert!(dense.total.bytes_fetched > sprint.total.bytes_fetched);
        assert_eq!(dense.total.queries_pruned, 0);
        assert!((dense.total.kept_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accuracy_requires_a_source_model() {
        let profile = ModelProfile::custom("free", 32, 1, vec![32], 0.7, 0.2, 0.8).unwrap();
        let err = server(1).serve(&ModelRequest::new(profile).with_accuracy(true));
        assert!(matches!(err, Err(SprintError::Request(_))));
    }

    #[test]
    fn accuracy_rollup_scores_every_head() {
        let response = server(2)
            .serve(
                &tiny_request()
                    .with_mode(ExecutionMode::Dense)
                    .with_accuracy(true),
            )
            .unwrap();
        let score = response.total.accuracy().expect("accuracy requested");
        // Dense output scores near the pinned BERT-B baseline and
        // agrees with itself.
        assert!(score.accuracy > 0.6, "accuracy {}", score.accuracy);
        assert_eq!(score.agreement, 1.0);
        for layer in &response.layers {
            assert!(layer.perf.accuracy().is_some());
        }
    }

    #[test]
    fn zero_head_requests_are_rejected() {
        let profile = ModelProfile::from_model(&ModelConfig::vit_base()).with_layers(0);
        let err = server(1).serve(&ModelRequest::new(profile));
        assert!(matches!(err, Err(SprintError::Request(_))));
    }

    #[test]
    fn serve_many_equals_independent_serves() {
        let s = server(4);
        let a = tiny_request();
        let b = tiny_request()
            .with_seed(29)
            .with_mode(ExecutionMode::Oracle);
        let together = s.serve_many(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(together[0], s.serve(&a).unwrap());
        assert_eq!(together[1], s.serve(&b).unwrap());
    }

    #[test]
    fn percentiles_saturate_to_max_at_small_sample_counts() {
        let six: [u128; 6] = [10, 20, 30, 40, 50, 60];
        // Nearest-rank: p50 of 6 samples is rank ceil(3) = sample 30.
        assert_eq!(nearest_rank(&six, 50.0), 30);
        // Anything above 100·(1 − 1/6) ≈ 83.3% collapses to the max.
        assert_eq!(nearest_rank(&six, 90.0), 60);
        assert_eq!(nearest_rank(&six, 99.0), 60);
        assert_eq!(nearest_rank(&six, 100.0), 60);
        assert_eq!(nearest_rank(&six, 0.0), 10);
        // 100+ samples resolve p99.
        let big: Vec<u128> = (1..=200).collect();
        assert_eq!(nearest_rank(&big, 99.0), 198);
        assert_eq!(nearest_rank::<u128>(&[], 50.0), 0);
    }

    #[test]
    fn decode_loop_reports_ragged_sessions_deterministically() {
        let engine = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .seed(21)
            .build()
            .unwrap();
        let tasks = churn_tasks();
        let loop_ = DecodeLoop::new(&engine);
        let reference = loop_.run_threads(1, &tasks).unwrap();
        assert_eq!(reference.sessions.len(), 3);
        assert_eq!(reference.tokens, 8 + 32 + 4);
        assert!(reference.tokens_per_s() > 0.0);
        assert_eq!(reference.sessions[0].tokens, 8);
        assert!(reference.sessions[0].kept_fraction < 1.0, "sprint prunes");
        assert!(
            (reference.sessions[2].kept_fraction - 1.0).abs() < 1e-12,
            "dense keeps everything"
        );
        for workers in [2usize, 4, 8] {
            let run = loop_.run_threads(workers, &tasks).unwrap();
            assert_eq!(run.sessions, reference.sessions, "workers = {workers}");
        }
    }

    fn churn_tasks() -> [DecodeTask; 3] {
        let base = ModelConfig::bert_base().trace_spec();
        [
            DecodeTask {
                spec: base.with_seq_len(24),
                prefill: 16,
                mode: None,
                threshold_spec: None,
            },
            DecodeTask {
                spec: base.with_seq_len(40),
                prefill: 8,
                mode: Some(ExecutionMode::Oracle),
                threshold_spec: None,
            },
            DecodeTask {
                spec: base.with_seq_len(16),
                prefill: 12,
                mode: Some(ExecutionMode::Dense),
                threshold_spec: None,
            },
        ]
    }

    #[test]
    fn churn_loop_is_bit_identical_to_the_never_evicted_twin() {
        use sprint_attention::PagePool;
        let tasks = churn_tasks();
        let twin_engine = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .seed(21)
            .build()
            .unwrap();
        let twin = DecodeLoop::new(&twin_engine)
            .run_threads(1, &tasks)
            .unwrap();
        assert_eq!(twin.evictions, 0);
        assert_eq!(twin.rehydrations, 0);

        // Small pages (4 tokens each at d = d_v = 64) so sessions span
        // many pages; residency cap 1 forces every round-robin turn to
        // evict and rehydrate.
        let engine = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .seed(21)
            .kv_pool(PagePool::unbounded(4 * 5 * 128))
            .build()
            .unwrap();
        let loop_ = DecodeLoop::new(&engine);
        for workers in [1usize, 2, 4] {
            let churn = loop_.run_churn_threads(workers, &tasks, 1).unwrap();
            assert_eq!(churn.sessions, twin.sessions, "workers = {workers}");
            if workers < tasks.len() {
                // A worker holding one session alone never exceeds the
                // cap, so only shared workers are forced to churn.
                assert!(churn.evictions > 0, "cap 1 over shared workers must churn");
                assert!(churn.rehydrations > 0);
                assert!(churn.rehydrated_tokens > 0);
            }
            assert_eq!(
                churn.kv_pages_in_use, 0,
                "every session closed; pages leaked"
            );
            assert!(churn.kv_pages_peak > 0);
        }
        assert_eq!(engine.kv_pool().pages_in_use(), 0);
    }

    #[test]
    fn churn_loop_serves_more_sessions_than_a_bounded_pool_holds() {
        use sprint_attention::PagePool;
        let tasks = churn_tasks();
        let twin_engine = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .seed(21)
            .build()
            .unwrap();
        let twin = DecodeLoop::new(&twin_engine)
            .run_threads(1, &tasks)
            .unwrap();

        // 12 pages of 4 tokens: the 40-token session alone needs 10,
        // so a cap-2 resident set (up to 16 pages) cannot fit — the
        // pool-exhausted retry path must evict mid-turn.
        let engine = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .seed(21)
            .kv_pool(PagePool::bounded(4 * 5 * 128, 12))
            .build()
            .unwrap();
        let churn = DecodeLoop::new(&engine)
            .run_churn_threads(1, &tasks, 2)
            .unwrap();
        assert_eq!(churn.sessions, twin.sessions);
        assert!(churn.evictions > 0);
        assert!(churn.kv_pages_peak <= 12, "bounded pool never overshoots");
        assert_eq!(engine.kv_pool().pages_in_use(), 0, "no accounting drift");
        assert_eq!(
            engine.kv_pool().free_pages(),
            engine.kv_pool().peak_pages(),
            "every allocated page returned to the free list"
        );
    }

    #[test]
    fn decode_loop_validates_prefill() {
        let engine = Engine::builder(SprintConfig::small()).build().unwrap();
        let spec = ModelConfig::bert_base().trace_spec().with_seq_len(8);
        for prefill in [0usize, 8, 9] {
            let task = DecodeTask {
                spec,
                prefill,
                mode: None,
                threshold_spec: None,
            };
            assert!(matches!(
                DecodeLoop::new(&engine).run(&[task]),
                Err(SprintError::Request(_))
            ));
        }
    }
}
