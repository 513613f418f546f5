//! Autoregressive decode sessions: incremental sparse attention with
//! cached substrate state.
//!
//! The engine's [`crate::Engine::run_head`] rebuilds (reprograms) the
//! analog substrate for every request — the right shape for
//! encoder-style workloads where each head is independent. Generative
//! decode is different: each new token issues **one** query against a
//! growing key/value history, and the crossbar's programmed K matrix,
//! the quantized K/V images and the memory-controller state are all
//! reusable across steps. A [`DecodeSession`] holds exactly that
//! state:
//!
//! * the programmed [`InMemoryPruner`] crossbars, grown in place via
//!   [`InMemoryPruner::extend_row`] (one appended column per token;
//!   full reprogram only on the rare quantizer recalibration);
//! * the append-only [`KvCache`] with incrementally maintained 8-bit
//!   K/V codes for the on-chip recompute stage;
//! * the per-step scratch ([`Workspace`], staging row, controller).
//!
//! **Oracle equivalence.** Under an ideal (noise-free) analog model,
//! every [`DecodeSession::step`] is bit-identical to a fresh
//! full-prefix [`crate::Engine::run_head`] over the same one-row query
//! and grown history, in all four [`ExecutionMode`]s —
//! `tests/tests/decode.rs` pins this step by step. Under a noisy
//! model the incremental path consumes its RNG streams in a different
//! order than a fresh build, so equivalence is distributional.

use sprint_attention::{
    pruned_attention_decode_with, quantized_attention_decode_with, AttentionConfig, KvCache,
    Matrix, PruneDecision, Workspace,
};
use sprint_energy::EnergyBreakdown;
use sprint_memory::{MemoryController, MemoryStats};
use sprint_reram::{FaultModel, InMemoryPruner, NoiseModel, PruneHardwareStats, ThresholdSpec};

use crate::cost::{count_queries, program_energy};
use crate::engine::derive_head_seed;
use crate::fault::fault_step;
use crate::query::{analog_rows, approx_output_row, fetch_stats};
use crate::{Engine, ExecutionMode, FaultPolicy, SprintConfig, SprintError};

/// The prefill of a decode session: the key/value history accumulated
/// before generation starts, plus the head configuration and the
/// engine-default overrides the session should run under.
///
/// Like [`crate::HeadRequest`], a `SessionRequest` borrows its
/// matrices; opening the session clones them into the session's
/// [`KvCache`].
#[derive(Debug, Clone)]
pub struct SessionRequest<'a> {
    k: &'a Matrix,
    v: &'a Matrix,
    config: AttentionConfig,
    threshold: f32,
    head_id: Option<u64>,
    mode: Option<ExecutionMode>,
    threshold_spec: Option<ThresholdSpec>,
}

impl<'a> SessionRequest<'a> {
    /// Builds a session request from the prefill K/V history (at least
    /// one token), the head configuration, and the learned pruning
    /// threshold in real score units.
    pub fn new(k: &'a Matrix, v: &'a Matrix, config: AttentionConfig, threshold: f32) -> Self {
        SessionRequest {
            k,
            v,
            config,
            threshold,
            head_id: None,
            mode: None,
            threshold_spec: None,
        }
    }

    /// Tags the session with a stable identity for deterministic seed
    /// derivation ([`crate::derive_head_seed`]), exactly as
    /// [`crate::HeadRequest::with_head_id`] does for heads. Untagged
    /// sessions use id 0.
    #[must_use]
    pub fn with_head_id(mut self, head_id: u64) -> Self {
        self.head_id = Some(head_id);
        self
    }

    /// Overrides the engine's default [`ExecutionMode`] for every step
    /// of this session.
    #[must_use]
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Overrides the engine's default comparator [`ThresholdSpec`] for
    /// every step of this session.
    #[must_use]
    pub fn with_threshold_spec(mut self, spec: ThresholdSpec) -> Self {
        self.threshold_spec = Some(spec);
        self
    }
}

/// One decode step: the new token's query, key and value rows.
///
/// The key/value rows join the session history *before* the query
/// attends, so the token sees itself — standard autoregressive
/// self-attention.
#[derive(Debug, Clone, Copy)]
pub struct DecodeStep<'a> {
    /// The new token's query row (`d` values).
    pub q: &'a [f32],
    /// The new token's key row (`d` values), appended to the history.
    pub k: &'a [f32],
    /// The new token's value row (`d_v` values), appended to the
    /// history.
    pub v: &'a [f32],
}

/// Per-step execution accounting: the energy/latency *delta* this step
/// added, with the program-once crossbar write cost reported
/// separately from the recurring step cost so amortization is visible.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepPerf {
    /// Recurring step energy (pruning, fetch, recompute, softmax, AV)
    /// by Table II category.
    pub energy: EnergyBreakdown,
    /// One-time programming energy charged this step: the K/V rows
    /// written to ReRAM (the whole prefill on the first step, one
    /// token afterwards, the full history again on a recalibration).
    pub program_energy: EnergyBreakdown,
    /// Step latency in cycles (worst-CORELET compute vs. memory
    /// stream, with the analog handshake floor).
    pub cycles: u64,
    /// Tokens whose K/V were written to the substrate this step.
    pub programmed_tokens: u64,
    /// Whether this step forced a full requantize + reprogram (a new
    /// token widened a quantizer's calibrated range).
    pub recalibrated: bool,
    /// ReRAM cell faults this step's scrub detected (zero without a
    /// fault model on the engine).
    pub faults_detected: u64,
    /// Write-verify reprogram retries spent repairing this step.
    pub fault_retries: u64,
    /// Whether this step demoted the session to the exact digital
    /// pipeline (the session stays demoted for all later steps).
    pub demoted: bool,
}

/// The outcome of one [`DecodeSession::step`] — the decode-shaped
/// sibling of [`crate::HeadResponse`], for a single query over the
/// current history.
#[derive(Debug, Clone, PartialEq)]
pub struct StepResponse {
    /// The token's position in the history (0-based; equals the
    /// history length before this step).
    pub position: usize,
    /// The attention output row (`d_v` values).
    pub output: Vec<f32>,
    /// The pruning decision over the full history (length
    /// `position + 1`).
    pub decision: PruneDecision,
    /// ReRAM-side operation counters for *this step only* (the delta
    /// over the session's long-lived pruner; zero in digital modes).
    pub prune_stats: PruneHardwareStats,
    /// Memory-controller statistics for this step.
    pub memory_stats: MemoryStats,
    /// Per-step energy/latency accounting.
    pub perf: StepPerf,
}

/// Cumulative session accounting: the sum of every step's [`StepPerf`]
/// plus pruning totals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionPerf {
    /// Decode steps served.
    pub tokens: u64,
    /// Summed recurring step energy.
    pub energy: EnergyBreakdown,
    /// Summed one-time programming energy (kept separate so the
    /// amortized write cost never hides in the step trend).
    pub program_energy: EnergyBreakdown,
    /// Summed step latency in cycles.
    pub cycles: u64,
    /// Total tokens written to the substrate (≥ history length;
    /// recalibrations rewrite the prefix).
    pub programmed_tokens: u64,
    /// Full requantize + reprogram events.
    pub recalibrations: u64,
    /// Scores surviving pruning, summed over steps.
    pub kept_scores: u64,
    /// Query × history-key pairs considered, summed over steps.
    pub score_pairs: u64,
    /// K/V vectors fetched from main memory.
    pub fetched_vectors: u64,
    /// K/V vectors reused on chip.
    pub reused_vectors: u64,
    /// Bytes moved over the memory channels.
    pub bytes_fetched: u64,
    /// ReRAM cell faults detected across all steps.
    pub faults_detected: u64,
    /// Write-verify reprogram retries spent repairing across all steps.
    pub fault_retries: u64,
    /// Whether the session demoted to the exact digital pipeline.
    pub demoted: bool,
    /// Times this session's KV pages were dropped back to the pool
    /// ([`DecodeSession::evict`]).
    pub evictions: u64,
    /// Times the session was rebuilt from its replayed history
    /// ([`Engine::resume_session`]).
    pub rehydrations: u64,
    /// History tokens replayed across all rehydrations.
    pub rehydrated_tokens: u64,
    /// Crossbar reprogramming energy paid at rehydration (kept apart
    /// from step-attributed `program_energy` so every step's perf stays
    /// bit-identical to a never-evicted twin's).
    pub rehydration_energy: EnergyBreakdown,
}

impl SessionPerf {
    /// Fraction of considered scores that survived pruning.
    pub fn kept_fraction(&self) -> f64 {
        self.kept_scores as f64 / self.score_pairs.max(1) as f64
    }

    /// Total energy including the program-once share.
    pub fn total_energy(&self) -> EnergyBreakdown {
        self.energy + self.program_energy
    }

    fn record(&mut self, response: &StepResponse, kept: u64) {
        self.tokens += 1;
        self.energy += response.perf.energy;
        self.program_energy += response.perf.program_energy;
        self.cycles += response.perf.cycles;
        self.programmed_tokens += response.perf.programmed_tokens;
        self.recalibrations += u64::from(response.perf.recalibrated);
        self.kept_scores += kept;
        self.score_pairs += response.decision.len() as u64;
        self.fetched_vectors += response.memory_stats.fetched_vectors;
        self.reused_vectors += response.memory_stats.reused_vectors;
        self.bytes_fetched += response.memory_stats.bytes_fetched;
        self.faults_detected += response.perf.faults_detected;
        self.fault_retries += response.perf.fault_retries;
        self.demoted |= response.perf.demoted;
    }
}

/// A stateful autoregressive decode session over the SPRINT substrate.
///
/// Opened with [`Engine::open_session`]; each [`DecodeSession::step`]
/// appends one token to the KV history and runs one-query SPRINT
/// attention against it — LZC-style in-memory thresholding over the
/// grown crossbars, selective fetch through the session's memory
/// controller, and on-chip recompute of the surviving scores — without
/// reprogramming or reallocating any substrate the previous steps
/// already built.
///
/// # Example
///
/// ```
/// use sprint_engine::{DecodeStep, Engine, SessionRequest, SprintConfig};
/// use sprint_reram::NoiseModel;
/// use sprint_workloads::{ModelConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = ModelConfig::bert_base().trace_spec().with_seq_len(32).with_padding(0.0);
/// let trace = TraceGenerator::new(3).generate(&spec)?;
/// let engine = Engine::builder(SprintConfig::small())
///     .noise(NoiseModel::ideal())
///     .seed(1)
///     .build()?;
/// // Prefill with the first 24 tokens, then decode the rest.
/// let (k, v) = (trace.k(), trace.v());
/// let prefill = |m: &sprint_attention::Matrix| {
///     sprint_attention::Matrix::from_vec(24, m.cols(), m.as_slice()[..24 * m.cols()].to_vec())
/// };
/// let (pk, pv) = (prefill(k)?, prefill(v)?);
/// let mut session = engine.open_session(
///     &SessionRequest::new(&pk, &pv, trace.config(), trace.threshold()).with_head_id(7),
/// )?;
/// for t in 24..32 {
///     let out = session.step(&DecodeStep { q: trace.q().row(t), k: k.row(t), v: v.row(t) })?;
///     assert_eq!(out.position, t);
///     assert_eq!(out.decision.len(), t + 1);
/// }
/// assert_eq!(session.history_len(), 32);
/// assert!(session.perf().kept_fraction() < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DecodeSession {
    params: SessionParams,
    kv: KvCache,
    pruner: Option<InMemoryPruner>,
    controller: Option<MemoryController>,
    ws: Workspace,
    /// Persistent 1×d staging for the step query.
    q_step: Option<Matrix>,
}

/// Everything a session is apart from its substrate: fixed at open
/// (but for the accounting and the sticky demotion), moved into the
/// [`EvictedSession`] stub by [`DecodeSession::evict`] and handed
/// back by [`Engine::resume_session`].
#[derive(Debug, Clone)]
struct SessionParams {
    config: SprintConfig,
    noise: NoiseModel,
    spec: ThresholdSpec,
    mode: ExecutionMode,
    seed: u64,
    attn: AttentionConfig,
    threshold: f32,
    perf: SessionPerf,
    fault_model: Option<FaultModel>,
    fault_policy: FaultPolicy,
    /// Sticky: once a step demotes the session, every later step runs
    /// the exact digital pipeline.
    demoted: bool,
}

/// A decode session with its pages dropped back to the pool: the
/// configuration, seed, accounting and lifecycle flags survive, and so
/// do its programmed crossbars (the session's [`InMemoryPruner`]); the
/// KV cache, controller and scratch do not.
///
/// Deliberately, **no quantizer state survives eviction** — no running
/// `max_abs`, no [`sprint_attention::QuantParams`]. [`Engine::resume_session`]
/// rebuilds all of it from the replayed token history, exactly as a
/// fresh prefill would, so the per-column running maxima are recomputed
/// from the rows themselves rather than restored from a pre-eviction
/// high-water mark (the running max over the same rows is the same max
/// — which is what keeps a rehydrated session bit-identical to a
/// never-evicted twin even when a recalibration straddles the
/// eviction).
///
/// The kept crossbars are only a cache of that rebuild: the resume
/// reprograms them in place ([`InMemoryPruner::reprogram`]) from the
/// requantized rows, and a column keeps its weights only when its new
/// codes equal its stored ones, code by code, and its noise draws start
/// where they did — the reseeded stream then replays the very draws
/// that produced those weights, so no bit can differ from a fresh
/// build. A parked analog session costs about 9 bytes per key element
/// (an `f64` weight and an `i8` code per crossbar cell), the size of
/// its `K` history in the crossbars' MSB image; a session that never
/// programmed, or that runs digitally, parks none.
///
/// The caller retains the token history (the serving layers keep the
/// per-session trace seed and token count; the engine keeps nothing).
#[derive(Debug)]
pub struct EvictedSession {
    params: SessionParams,
    /// The session had programmed its crossbars: its resume programs
    /// them again.
    had_pruner: bool,
    /// Those crossbars, for the resume to reprogram in place; `None`
    /// when the session runs digitally, or once a resume took them (a
    /// later resume of this stub then builds a fresh pruner).
    pruner: Option<InMemoryPruner>,
    history_len: usize,
    d: usize,
    d_v: usize,
}

impl EvictedSession {
    /// Tokens the session held when evicted — the number of history
    /// rows [`Engine::resume_session`] expects back.
    pub fn history_len(&self) -> usize {
        self.history_len
    }

    /// The mode the session ran (and will resume) under.
    pub fn mode(&self) -> ExecutionMode {
        self.params.mode
    }

    /// Cumulative accounting, carried across the eviction.
    pub fn perf(&self) -> &SessionPerf {
        &self.params.perf
    }
}

impl Engine {
    /// A fresh per-session workspace dispatching on the engine's SIMD
    /// kernel tier (sessions inherit the tier of the engine that opens
    /// or resumes them, exactly like worker scratches).
    fn session_workspace(&self) -> Workspace {
        let mut ws = Workspace::new();
        ws.set_simd_tier(self.simd_tier());
        ws
    }

    /// Opens a stateful [`DecodeSession`] seeded and configured from
    /// this engine's defaults (with the request's overrides), starting
    /// from the request's prefill history.
    ///
    /// The session owns its substrate (crossbars, controller,
    /// workspace) independently of the engine's worker slots, so any
    /// number of sessions decode concurrently without contending for
    /// engine scratch. The session seed is
    /// [`derive_head_seed`]`(engine_seed, head_id.unwrap_or(0))` —
    /// the same contract as [`Engine::run_head`] — which is what makes
    /// each step comparable to a fresh full-prefix `run_head` oracle
    /// carrying the same head id.
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] for an empty or shape-mismatched
    /// prefill; substrate errors otherwise.
    pub fn open_session(&self, request: &SessionRequest<'_>) -> Result<DecodeSession, SprintError> {
        if request.k.rows() != request.v.rows() {
            return Err(SprintError::Request(format!(
                "prefill key sequence {} does not match value sequence {}",
                request.k.rows(),
                request.v.rows()
            )));
        }
        Ok(DecodeSession {
            params: SessionParams {
                config: self.config().clone(),
                noise: self.noise(),
                spec: request.threshold_spec.unwrap_or(self.threshold_spec()),
                mode: request.mode.unwrap_or(self.mode()),
                seed: derive_head_seed(self.seed(), request.head_id.unwrap_or(0)),
                attn: request.config,
                threshold: request.threshold,
                perf: SessionPerf::default(),
                fault_model: self.fault_model(),
                fault_policy: self.fault_policy(),
                demoted: false,
            },
            kv: KvCache::new_in(self.kv_pool(), request.k, request.v)?,
            pruner: None,
            controller: None,
            ws: self.session_workspace(),
            q_step: None,
        })
    }

    /// Rebuilds an evicted session from its replayed token history
    /// (`k`/`v` must hold exactly the rows the session had when
    /// evicted — the serving layers re-synthesize them from the
    /// retained trace seed).
    ///
    /// The KV cache is requantized and, for analog sessions that had
    /// programmed crossbars, the stub's pruner is reprogrammed in place
    /// over the whole history — every code and quantizer value derived
    /// from the rows themselves (see [`EvictedSession`]). Only the
    /// columns whose codes or draws changed pay for their programming
    /// variation; the rest keep the weights a fresh build would draw
    /// for them, so the result is the fresh build's, bit for bit. A stub
    /// without a pruner builds a fresh one. The reprogram cost lands in
    /// [`SessionPerf::rehydration_energy`], so every subsequent step's
    /// [`StepPerf`] stays bit-identical to a never-evicted twin's.
    ///
    /// The KV cache is built first: on its error (e.g. the pool is
    /// still [`SprintError::is_pool_exhausted`]) the stub is unchanged
    /// and the resume can be retried after more eviction. A stub whose
    /// reprogram fails loses its crossbars and rebuilds them on retry.
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] when the history disagrees with the
    /// evicted geometry; pool exhaustion or substrate errors otherwise.
    pub fn resume_session(
        &self,
        stub: &mut EvictedSession,
        k: &Matrix,
        v: &Matrix,
    ) -> Result<DecodeSession, SprintError> {
        if k.rows() != stub.history_len || v.rows() != stub.history_len {
            return Err(SprintError::Request(format!(
                "rehydration history holds {}/{} rows, evicted session had {}",
                k.rows(),
                v.rows(),
                stub.history_len
            )));
        }
        if k.cols() != stub.d || v.cols() != stub.d_v {
            return Err(SprintError::Request(format!(
                "rehydration embedding {}x{} does not match evicted session {}x{}",
                k.cols(),
                v.cols(),
                stub.d,
                stub.d_v
            )));
        }
        let kv = KvCache::new_in(self.kv_pool(), k, v)?;
        let mut params = stub.params.clone();
        params.perf.rehydrations += 1;
        params.perf.rehydrated_tokens += stub.history_len as u64;
        let analog = params.mode.uses_in_memory_pruning() && !params.demoted;
        let mut pruner = None;
        if stub.had_pruner && analog {
            // Reprogram the crossbars from the replayed history with a
            // placeholder query: `calibrate_query` runs at the top of
            // every analog step and recomputes all query-side state,
            // so the placeholder never reaches a step's outcome.
            let q0 = Matrix::zeros(1, stub.d)?;
            let (scale, noise, seed) = (params.attn.scale(), params.noise, params.seed);
            let mut p = match stub.pruner.take() {
                Some(mut p) => {
                    p.reprogram(&q0, k, scale, noise, seed)?;
                    p
                }
                None => InMemoryPruner::new(&q0, k, scale, noise, seed)?,
            };
            params.perf.rehydration_energy +=
                program_energy(&params.config.energies, stub.history_len as u64, stub.d);
            if let Some(model) = params.fault_model {
                // A rebuild is a fresh program epoch: stamp the model
                // and scrub everything, as the first step would.
                let resolved = fault_step(&mut p, model, params.fault_policy, true, None)?;
                params.perf.faults_detected += resolved.faults_detected;
                params.perf.fault_retries += resolved.retries;
                if resolved.demoted {
                    params.demoted = true;
                    params.perf.demoted = true;
                }
            }
            pruner = Some(p);
        }
        Ok(DecodeSession {
            params,
            kv,
            pruner,
            controller: None,
            ws: self.session_workspace(),
            q_step: None,
        })
    }
}

impl DecodeSession {
    /// Tokens currently in the KV history (prefill + decoded).
    pub fn history_len(&self) -> usize {
        self.kv.len()
    }

    /// The mode every step of this session runs under.
    pub fn mode(&self) -> ExecutionMode {
        self.params.mode
    }

    /// Cumulative session accounting.
    pub fn perf(&self) -> &SessionPerf {
        &self.params.perf
    }

    /// Pages this session's KV cache currently holds.
    pub fn kv_pages(&self) -> usize {
        self.kv.pages()
    }

    /// Evicts the session: every KV page returns to the pool, the
    /// controller and scratch are dropped, and an [`EvictedSession`]
    /// stub survives with the configuration, seed, accounting and — for
    /// an analog session — the programmed crossbars that
    /// [`Engine::resume_session`] needs to rebuild the session,
    /// bit-identically, from the replayed history.
    pub fn evict(mut self) -> EvictedSession {
        self.params.perf.evictions += 1;
        let analog = self.params.mode.uses_in_memory_pruning() && !self.params.demoted;
        EvictedSession {
            history_len: self.kv.len(),
            d: self.kv.embed_dim(),
            d_v: self.kv.value_dim(),
            had_pruner: self.pruner.is_some(),
            pruner: self.pruner.take().filter(|_| analog),
            params: self.params,
        }
        // The partially-moved `self` drops here: the KvCache releases
        // its pages, the controller/workspace free their state.
    }

    /// Serves one decode step: appends the token's K/V to the history,
    /// thresholds its query against the grown crossbars (analog modes)
    /// or the digital score row (Dense/Oracle), drives the kept set
    /// through the memory controller, and recomputes the surviving
    /// scores on the cached 8-bit datapath.
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] for mis-sized rows; substrate errors
    /// otherwise.
    pub fn step(&mut self, step: &DecodeStep<'_>) -> Result<StepResponse, SprintError> {
        let d = self.kv.embed_dim();
        let d_v = self.kv.value_dim();
        if step.q.len() != d || step.k.len() != d {
            return Err(SprintError::Request(format!(
                "step q/k rows hold {}/{} values, history embedding is {d}",
                step.q.len(),
                step.k.len()
            )));
        }
        if step.v.len() != d_v {
            return Err(SprintError::Request(format!(
                "step v row holds {} values, history value width is {d_v}",
                step.v.len()
            )));
        }
        let position = self.kv.len();
        let kv_delta = self.kv.push(step.k, step.v)?;
        let s = self.kv.len();

        // Stage the query as a 1×d matrix (persistent buffer).
        let q1 = match &mut self.q_step {
            Some(m) => {
                m.row_mut(0).copy_from_slice(step.q);
                &*m
            }
            None => &*self.q_step.insert(Matrix::from_vec(1, d, step.q.to_vec())?),
        };

        let mut perf = StepPerf::default();
        let analog = self.params.mode.uses_in_memory_pruning() && !self.params.demoted;
        if analog {
            // Grow (or first-build) the programmed crossbars.
            let needs_full_scale = self.params.spec.score_bits.is_some();
            let reprogrammed = match self.pruner.as_mut() {
                Some(p) => {
                    // The new key row comes straight from page storage;
                    // the O(s·d) gather is only paid on the rare
                    // recalibrating reprogram.
                    let kv = &self.kv;
                    let reprogrammed = p.extend_row(kv.k_row(s - 1), || kv.gather_k())?;
                    p.calibrate_query(q1, needs_full_scale)?;
                    perf.recalibrated |= reprogrammed;
                    perf.programmed_tokens += if reprogrammed { s as u64 } else { 1 };
                    reprogrammed
                }
                None => {
                    // First step: program the whole history once
                    // (the prefill's program-once cost).
                    perf.programmed_tokens += s as u64;
                    self.pruner = Some(InMemoryPruner::new(
                        q1,
                        &self.kv.gather_k(),
                        self.params.attn.scale(),
                        self.params.noise,
                        self.params.seed,
                    )?);
                    false
                }
            };
            // K/V quantizer recalibration also rewrites the stored
            // images.
            if (kv_delta.requantized_k || kv_delta.requantized_v) && !perf.recalibrated {
                perf.recalibrated = true;
                perf.programmed_tokens = perf.programmed_tokens.max(s as u64);
            }
            if let Some(model) = self.params.fault_model {
                let pruner = self.pruner.as_mut().expect("pruner installed above");
                // Stamp only tiles that never saw the model (stamping
                // clears the remap set); scrub everything after a build
                // or reprogram, only the appended column otherwise.
                let stamp = pruner.fault_model().is_none();
                let key = (!(stamp || reprogrammed)).then_some(s - 1);
                let resolved = fault_step(pruner, model, self.params.fault_policy, stamp, key)?;
                perf.faults_detected = resolved.faults_detected;
                perf.fault_retries = resolved.retries;
                if resolved.demoted {
                    // Graceful degradation: this step and every later
                    // one run the exact digital pipeline.
                    self.params.demoted = true;
                    perf.demoted = true;
                }
            }
        }
        let (output, decision, prune_stats) = if analog && !self.params.demoted {
            let pruner = self.pruner.as_mut().expect("pruner installed above");
            let before = pruner.stats();
            let (threshold, spec) = (self.params.threshold, &self.params.spec);
            let (output, decision) = if self.params.mode == ExecutionMode::Sprint {
                let decision = analog_rows(pruner, step.q, threshold, spec, s, None)?.remove(0);
                let output = quantized_attention_decode_with(
                    q1,
                    &self.kv,
                    &self.params.attn,
                    Some(&decision),
                    &mut self.ws,
                )?;
                (output, decision)
            } else {
                // No recompute: softmax directly over the
                // approximate analog scores of the kept keys.
                let tier = self.ws.simd_tier();
                let row = self.ws.prob_row(s);
                let scores = Some(&mut *row);
                let decision = analog_rows(pruner, step.q, threshold, spec, s, scores)?.remove(0);
                let mut out = vec![0.0f32; d_v];
                let kv = &self.kv;
                approx_output_row(row, tier, |j| kv.v_row(j), &mut out);
                (out, decision)
            };
            (output, decision, pruner.stats().delta_since(&before))
        } else {
            // Dense / Oracle — or an analog session that faults have
            // demoted. Recalibrations of the cached K/V images are
            // free here (nothing further is programmed), so the
            // programming perf fields stay zero.
            let threshold = if self.params.mode == ExecutionMode::Dense || self.params.demoted {
                f32::MIN
            } else {
                self.params.threshold
            };
            let (output, decision) = pruned_attention_decode_with(
                q1,
                &self.kv,
                &self.params.attn,
                threshold,
                &mut self.ws,
            )?;
            (output, decision, PruneHardwareStats::default())
        };

        // The head pipeline's fetch accounting and price over one
        // query; the crossbar writes are kept apart.
        let config = &self.params.config;
        let decisions = std::slice::from_ref(&decision);
        let memory_stats = fetch_stats(&mut self.controller, config, decisions, s)?;
        let (counts, cycles, kept) = count_queries(
            self.params.mode,
            config,
            d,
            s,
            decisions,
            &memory_stats,
            &prune_stats,
        );
        perf.energy = counts.energy(&config.energies);
        perf.cycles = cycles;
        perf.program_energy = program_energy(&config.energies, perf.programmed_tokens, d);
        let response = StepResponse {
            position,
            output,
            decision,
            prune_stats,
            memory_stats,
            perf,
        };
        self.params.perf.record(&response, kept);
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HeadRequest;
    use sprint_workloads::{ModelConfig, TraceGenerator};

    fn trace(seq: usize, seed: u64) -> sprint_workloads::HeadTrace {
        let spec = ModelConfig::bert_base()
            .trace_spec()
            .with_seq_len(seq)
            .with_padding(0.0);
        TraceGenerator::new(seed).generate(&spec).unwrap()
    }

    fn prefix(m: &Matrix, n: usize) -> Matrix {
        m.prefix_rows(n).unwrap()
    }

    fn engine(mode: ExecutionMode) -> Engine {
        Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .mode(mode)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn session_steps_are_well_formed_and_accounted() {
        let t = trace(40, 5);
        for mode in ExecutionMode::ALL {
            let e = engine(mode);
            let (pk, pv) = (prefix(t.k(), 24), prefix(t.v(), 24));
            let mut session = e
                .open_session(&SessionRequest::new(&pk, &pv, t.config(), t.threshold()))
                .unwrap();
            assert_eq!(session.mode(), mode);
            for step in 24..40 {
                let out = session
                    .step(&DecodeStep {
                        q: t.q().row(step),
                        k: t.k().row(step),
                        v: t.v().row(step),
                    })
                    .unwrap();
                assert_eq!(out.position, step, "{mode:?}");
                assert_eq!(out.decision.len(), step + 1);
                assert_eq!(out.output.len(), t.v().cols());
                assert!(out.perf.cycles > 0);
                assert!(out.memory_stats.queries == 1);
                if mode.uses_in_memory_pruning() {
                    assert_eq!(out.prune_stats.queries_pruned, 1);
                    assert!(out.perf.programmed_tokens >= 1);
                } else {
                    assert_eq!(out.prune_stats, PruneHardwareStats::default());
                    assert_eq!(out.perf.programmed_tokens, 0);
                }
            }
            assert_eq!(session.history_len(), 40);
            let perf = session.perf();
            assert_eq!(perf.tokens, 16);
            assert!(perf.energy.total().as_pj() > 0.0);
            if mode.uses_in_memory_pruning() {
                // Prefill programmed once (24 tokens at step 0) plus
                // one token per later step, modulo recalibrations.
                assert!(perf.programmed_tokens >= 39);
                assert!(perf.program_energy.total().as_pj() > 0.0);
            }
            if mode != ExecutionMode::Dense {
                assert!(perf.kept_fraction() < 1.0);
            }
        }
    }

    #[test]
    fn session_inherits_engine_defaults_and_overrides() {
        let t = trace(16, 7);
        let e = engine(ExecutionMode::Sprint);
        let (pk, pv) = (prefix(t.k(), 8), prefix(t.v(), 8));
        let base = SessionRequest::new(&pk, &pv, t.config(), t.threshold());
        assert_eq!(e.open_session(&base).unwrap().mode(), ExecutionMode::Sprint);
        let s = e
            .open_session(&base.clone().with_mode(ExecutionMode::Oracle))
            .unwrap();
        assert_eq!(s.mode(), ExecutionMode::Oracle);
    }

    #[test]
    fn mis_sized_steps_and_prefills_are_rejected() {
        let t = trace(16, 9);
        let e = engine(ExecutionMode::Sprint);
        let (pk, pv) = (prefix(t.k(), 8), prefix(t.v(), 7));
        assert!(matches!(
            e.open_session(&SessionRequest::new(&pk, &pv, t.config(), 0.0)),
            Err(SprintError::Request(_))
        ));
        let pv = prefix(t.v(), 8);
        let mut session = e
            .open_session(&SessionRequest::new(&pk, &pv, t.config(), 0.0))
            .unwrap();
        let short = vec![0.0f32; 3];
        let ok_q = t.q().row(8);
        assert!(session
            .step(&DecodeStep {
                q: &short,
                k: t.k().row(8),
                v: t.v().row(8)
            })
            .is_err());
        assert!(session
            .step(&DecodeStep {
                q: ok_q,
                k: t.k().row(8),
                v: &short
            })
            .is_err());
        // A well-formed step still works afterwards.
        assert!(session
            .step(&DecodeStep {
                q: ok_q,
                k: t.k().row(8),
                v: t.v().row(8)
            })
            .is_ok());
    }

    #[test]
    fn a_resume_on_kept_crossbars_steps_as_one_on_fresh_crossbars() {
        // Row 30's key is amplified, so the step that appends it
        // recalibrates and reprograms the whole history: the evicted
        // crossbars then hold columns from two full programs and columns
        // appended after reads. Resuming the stub reprograms them in
        // place; resuming it again, its crossbars taken by the first
        // resume, builds fresh ones. Every later step must agree, under
        // the default noise and with write-verify retries in the history.
        let t = trace(48, 17);
        let mut k = t.k().clone();
        k.row_mut(30).iter_mut().for_each(|x| *x *= 4.0);
        let v = t.v();
        let transient = FaultModel::new(5).with_transient_rate(0.02).unwrap();
        for fault in [None, Some(transient)] {
            let mut builder = Engine::builder(SprintConfig::small())
                .noise(NoiseModel::default())
                .seed(11);
            if let Some(model) = fault {
                let policy = FaultPolicy::Retry { max_attempts: 4 };
                builder = builder.fault_model(model).fault_policy(policy);
            }
            let e = builder.build().unwrap();
            let (pk, pv) = (prefix(&k, 20), prefix(v, 20));
            let request = SessionRequest::new(&pk, &pv, t.config(), t.threshold()).with_head_id(2);
            let step = |session: &mut DecodeSession, i: usize| {
                let row = DecodeStep {
                    q: t.q().row(i),
                    k: k.row(i),
                    v: v.row(i),
                };
                session.step(&row).unwrap()
            };
            let mut session = e.open_session(&request).unwrap();
            let recalibrations = (20..36)
                .filter(|&i| step(&mut session, i).perf.recalibrated)
                .count();
            assert!(recalibrations > 0, "row 30 must recalibrate");
            let mut stub = session.evict();
            let (hk, hv) = (prefix(&k, 36), prefix(v, 36));
            let mut kept = e.resume_session(&mut stub, &hk, &hv).unwrap();
            assert!(stub.had_pruner && stub.pruner.is_none());
            let mut fresh = e.resume_session(&mut stub, &hk, &hv).unwrap();
            for i in 36..48 {
                let label = format!("fault {fault:?}, step {i}");
                assert_eq!(step(&mut kept, i), step(&mut fresh, i), "{label}");
            }
            assert_eq!(kept.perf(), fresh.perf());
            if fault.is_some() {
                assert!(kept.perf().fault_retries > 0, "retries in the history");
            }
        }
    }

    #[test]
    fn session_step_matches_fresh_head_oracle_spot_check() {
        // The full four-mode sweep lives in tests/tests/decode.rs;
        // this in-crate spot check keeps the contract close to the
        // implementation.
        let t = trace(32, 13);
        let e = engine(ExecutionMode::Sprint);
        let (pk, pv) = (prefix(t.k(), 20), prefix(t.v(), 20));
        let mut session = e
            .open_session(&SessionRequest::new(&pk, &pv, t.config(), t.threshold()).with_head_id(3))
            .unwrap();
        for step in 20..32 {
            let out = session
                .step(&DecodeStep {
                    q: t.q().row(step),
                    k: t.k().row(step),
                    v: t.v().row(step),
                })
                .unwrap();
            let hist_k = prefix(t.k(), step + 1);
            let hist_v = prefix(t.v(), step + 1);
            let q1 = prefix(t.q(), 1); // placeholder shape, replaced below
            let mut q_row = q1;
            q_row.row_mut(0).copy_from_slice(t.q().row(step));
            let oracle = e
                .run_head(
                    &HeadRequest::new(&q_row, &hist_k, &hist_v, t.config(), t.threshold())
                        .with_head_id(3),
                )
                .unwrap();
            assert_eq!(out.output.as_slice(), oracle.output.row(0), "step {step}");
            assert_eq!(out.decision, oracle.decisions[0]);
            assert_eq!(out.prune_stats, oracle.prune_stats);
            assert_eq!(out.memory_stats, oracle.memory_stats);
        }
    }
}
