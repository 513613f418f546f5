//! The reusable serving engine over pruning, memory and recompute.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Instant;

use sprint_attention::{
    pruned_attention_rows, quantized_attention_output_with, Matrix, PagePool, PruneDecision,
    SimdTier, Workspace, DEFAULT_PAGE_BYTES,
};
use sprint_memory::MemoryController;
use sprint_reram::{FaultModel, InMemoryPruner, NoiseModel, ThresholdSpec, ARRAY_COLS};

use crate::fault::fault_step;
use crate::query::{account, analog_rows, approx_output_row, cold_controller, fetch_stats};
use crate::{
    ExecutionMode, FaultPolicy, FaultReport, HeadRequest, HeadResponse, SprintConfig, SprintError,
};

/// Derives the per-head pruner seed from the engine's base seed and a
/// stable head identity (splitmix64-style mixing).
///
/// [`Engine::run_batch`] seeds head `i` with
/// `derive_head_seed(engine_seed, head_id.unwrap_or(i))`, so results
/// depend only on the batch contents and positions — never on the
/// worker count or scheduling order.
pub fn derive_head_seed(base_seed: u64, head_id: u64) -> u64 {
    let mut z = base_seed ^ head_id.wrapping_add(1).wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Per-worker execution accounting for one batch fan-out
/// ([`Engine::run_batch_report`]).
///
/// `wall_ns` is the whole fan-out's wall-clock span; `workers` holds
/// one [`sprint_parallel::WorkerStats`] per worker that ran a chunk.
/// On a time-shared host the per-worker `busy_ns` counters (thread
/// CPU time on Linux) stay meaningful even when wall-clock cannot
/// improve: an even `busy_ns` spread across workers shows the batch
/// was distributed, and [`BatchReport::critical_path_ns`] is the
/// wall-clock the same distribution would take with one free core per
/// worker. A worker's `busy_ns` is its own thread's: the CPU time of
/// the scoped helpers a wide head starts inside itself (see
/// [`Engine::run_batch_report`]'s per-head width) is in no worker's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Wall-clock nanoseconds for the whole fan-out.
    pub wall_ns: u128,
    /// Per-worker counters, indexed by worker (chunk) number.
    pub workers: Vec<sprint_parallel::WorkerStats>,
}

impl BatchReport {
    /// The parallel critical path: the busiest worker's `busy_ns`.
    /// This is the batch's ideal wall-clock on a host with one free
    /// core per worker, so `critical_path_ns(4 workers)` shrinking
    /// toward a quarter of `critical_path_ns(1 worker)` demonstrates
    /// scaling independent of how loaded the measuring machine is.
    pub fn critical_path_ns(&self) -> u128 {
        self.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0)
    }

    /// Total `busy_ns` across every worker (the work done; the
    /// parallel overhead is this minus the single-worker busy time).
    pub fn total_busy_ns(&self) -> u128 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }
}

/// Rejects batches where two requests resolve to the same effective
/// head id (`head_id.unwrap_or(position)`) and would therefore
/// silently share a pruner seed — correlated noise draws masquerading
/// as independent heads. Reports the first colliding pair.
fn reject_duplicate_head_ids(requests: &[HeadRequest]) -> Result<(), SprintError> {
    let mut seen: HashMap<u64, usize> = HashMap::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let id = request.head_id().unwrap_or(i as u64);
        if let Some(first) = seen.insert(id, i) {
            return Err(SprintError::Request(format!(
                "requests {first} and {i} share effective head id {id} \
                 (head_id, or batch position when untagged) and would \
                 silently receive identical pruner seeds; tag them with \
                 distinct head ids"
            )));
        }
    }
    Ok(())
}

/// Locks a scratch slot, recovering from a poisoned mutex: a panic in
/// one worker must not take down unrelated callers, so the scratch is
/// reset to its freshly-built state (every field rebuilds lazily on
/// next use) and the poison flag is cleared. The engine's kernel tier
/// is re-applied to the fresh workspace — recovery must not silently
/// change which tier a pipeline runs.
fn lock_scratch(slot: &Mutex<HeadScratch>, tier: SimdTier) -> MutexGuard<'_, HeadScratch> {
    match slot.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut guard = poisoned.into_inner();
            *guard = HeadScratch::new(tier);
            slot.clear_poison();
            guard
        }
    }
}

/// Builder for [`Engine`] (see [`Engine::builder`]).
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: SprintConfig,
    noise: NoiseModel,
    threshold_spec: ThresholdSpec,
    mode: ExecutionMode,
    seed: u64,
    worker_slots: usize,
    fault_model: Option<FaultModel>,
    fault_policy: FaultPolicy,
    kv_pool: Option<PagePool>,
    simd_tier: Option<SimdTier>,
}

impl EngineBuilder {
    /// Sets the analog noise model (default: the paper's
    /// 5-bit-equivalent [`NoiseModel::default`]).
    #[must_use]
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Sets the analog comparator configuration (default:
    /// [`ThresholdSpec::default`] — pure analog comparison, no margin).
    #[must_use]
    pub fn threshold_spec(mut self, spec: ThresholdSpec) -> Self {
        self.threshold_spec = spec;
        self
    }

    /// Sets the default [`ExecutionMode`] (default:
    /// [`ExecutionMode::Sprint`]); individual requests may override it.
    #[must_use]
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the base seed for per-head seed derivation (default: 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the number of concurrent worker scratch slots (default:
    /// [`sprint_parallel::max_threads`]). [`Engine::run_batch`] never
    /// uses more workers than slots.
    #[must_use]
    pub fn worker_slots(mut self, slots: usize) -> Self {
        self.worker_slots = slots.max(1);
        self
    }

    /// Attaches a hard-fault model (default: none). With a model
    /// attached, every analog head's crossbars are stamped with it,
    /// scrubbed after programming, and recovered per the engine's
    /// [`FaultPolicy`]; the outcome lands in
    /// [`crate::HeadResponse::faults`]. Fault state is a pure function
    /// of crossbar identity (the per-head construction seed), so
    /// results stay bit-identical across worker counts.
    #[must_use]
    pub fn fault_model(mut self, fault: FaultModel) -> Self {
        self.fault_model = Some(fault);
        self
    }

    /// Sets the recovery policy applied when a scrub finds faults
    /// (default: [`FaultPolicy::default`] — bounded repair, then
    /// demotion to the exact digital pipeline). Ignored without a
    /// fault model.
    #[must_use]
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Forces the SIMD kernel tier every workspace owned by this
    /// engine (worker scratches and decode sessions) dispatches on
    /// (default: [`sprint_attention::active_tier`] — the fastest tier
    /// the host supports, or the `SPRINT_SIMD` environment override).
    /// Requests are sanitized to host support, so forcing
    /// [`SimdTier::Avx2`] on a non-AVX2 host runs scalar rather than
    /// faulting. The differential test harness pins forced-`scalar`
    /// and forced-`avx2` engines against each other with this knob.
    #[must_use]
    pub fn simd_tier(mut self, tier: SimdTier) -> Self {
        self.simd_tier = Some(tier);
        self
    }

    /// Sets the shared KV page pool every decode session opened on
    /// this engine draws from (default: an unbounded private pool with
    /// [`DEFAULT_PAGE_BYTES`] pages). A bounded pool turns session
    /// opens and steps into capacity-checked allocations that fail
    /// with a retryable pool-exhausted error — the signal the serving
    /// layers use to evict cold sessions.
    #[must_use]
    pub fn kv_pool(mut self, pool: PagePool) -> Self {
        self.kv_pool = Some(pool);
        self
    }

    /// Builds the engine, validating the hardware configuration
    /// eagerly (the memory controller for scratch slot 0 is
    /// constructed up front so configuration errors surface here, not
    /// on the first request).
    ///
    /// # Errors
    ///
    /// Propagates memory geometry/timing validation errors.
    pub fn build(self) -> Result<Engine, SprintError> {
        let tier = sprint_attention::sanitize_tier(
            self.simd_tier.unwrap_or_else(sprint_attention::active_tier),
        );
        let mut scratches: Vec<Mutex<HeadScratch>> = (0..self.worker_slots)
            .map(|_| Mutex::new(HeadScratch::new(tier)))
            .collect();
        scratches[0].get_mut().expect("fresh mutex").controller =
            Some(self.config.memory_controller()?);
        Ok(Engine {
            config: self.config,
            noise: self.noise,
            threshold_spec: self.threshold_spec,
            mode: self.mode,
            seed: self.seed,
            scratches,
            fault_model: self.fault_model,
            fault_policy: self.fault_policy,
            kv_pool: self
                .kv_pool
                .unwrap_or_else(|| PagePool::unbounded(DEFAULT_PAGE_BYTES)),
            simd_tier: tier,
            next_slot: AtomicUsize::new(0),
        })
    }
}

/// Live-region staging buffers kept per worker scratch. Two per head
/// (Q and K); anything beyond that is transient and returned to the
/// allocator so a long serving run cannot accumulate buffers.
const MAT_POOL_CAP: usize = 4;

/// Per-worker reusable substrate state. Everything heavy a head needs
/// — pruner crossbars, the memory controller, attention workspace,
/// live-region staging buffers, the shared all-pruned padded-row
/// decision — lives here and is recycled across heads, so steady-state
/// execution re-allocates none of it.
#[derive(Debug, Default)]
struct HeadScratch {
    ws: Workspace,
    pruner: Option<InMemoryPruner>,
    controller: Option<MemoryController>,
    /// Backing buffers for the live-region Q/K submatrices.
    mat_pool: Vec<Vec<f32>>,
    /// Cached all-pruned decision shared by every padded query.
    all_pruned: Option<PruneDecision>,
}

impl HeadScratch {
    /// An empty scratch whose workspace dispatches on `tier`.
    fn new(tier: SimdTier) -> Self {
        let mut scratch = HeadScratch::default();
        scratch.ws.set_simd_tier(tier);
        scratch
    }

    /// The shared all-pruned decision of length `len` (one allocation
    /// per length change; every padded row clones the same storage).
    fn all_pruned(&mut self, len: usize) -> PruneDecision {
        match &self.all_pruned {
            Some(d) if d.len() == len => d.clone(),
            _ => {
                let d = PruneDecision::new(vec![true; len]);
                self.all_pruned = Some(d.clone());
                d
            }
        }
    }

    /// A matrix holding the first `rows` rows of `src`, backed by a
    /// pooled buffer.
    fn live_submatrix(&mut self, src: &Matrix, rows: usize) -> Result<Matrix, SprintError> {
        let cols = src.cols();
        let mut buf = self.mat_pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(&src.as_slice()[..rows * cols]);
        Ok(Matrix::from_vec(rows, cols, buf)?)
    }
}

/// Returns a matrix's backing buffer to a scratch's pool (bounded:
/// excess buffers are dropped rather than hoarded across a serving run).
fn recycle(pool: &mut Vec<Vec<f32>>, m: Matrix) {
    if pool.len() < MAT_POOL_CAP {
        pool.push(m.into_vec());
    }
}

/// The unified SPRINT serving engine.
///
/// One engine owns every reusable piece of substrate state — ReRAM
/// pruner crossbars, the extended memory controller, attention
/// [`Workspace`]s and output-buffer pools, per-head decision scratch —
/// and exposes the whole pipeline behind two calls:
/// [`Engine::run_head`] for a single head and [`Engine::run_batch`]
/// for a fan-out over [`sprint_parallel`] workers. Steady-state head
/// execution reuses the engine's buffers instead of rebuilding the
/// substrate per call, and results are bit-identical to the
/// build-everything-fresh reference path
/// ([`crate::reference::run_head_frozen`]) regardless of how many
/// heads ran before or how many workers execute a batch.
///
/// # Example
///
/// ```
/// use sprint_engine::{Engine, ExecutionMode, HeadRequest, SprintConfig};
/// use sprint_reram::NoiseModel;
/// use sprint_workloads::{ModelConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = ModelConfig::vit_base().trace_spec().with_seq_len(48);
/// let trace = TraceGenerator::new(3).generate(&spec)?;
/// let engine = Engine::builder(SprintConfig::small())
///     .noise(NoiseModel::ideal())
///     .mode(ExecutionMode::Sprint)
///     .seed(1)
///     .build()?;
/// let out = engine.run_head(&HeadRequest::from_trace(&trace))?;
/// assert_eq!(out.output.rows(), 48);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Engine {
    config: SprintConfig,
    noise: NoiseModel,
    threshold_spec: ThresholdSpec,
    mode: ExecutionMode,
    seed: u64,
    scratches: Vec<Mutex<HeadScratch>>,
    fault_model: Option<FaultModel>,
    fault_policy: FaultPolicy,
    kv_pool: PagePool,
    /// The sanitized SIMD kernel tier every workspace this engine owns
    /// dispatches on (see [`EngineBuilder::simd_tier`]).
    simd_tier: SimdTier,
    /// Rotates overflow callers (more concurrent `run_head`s than
    /// slots) across blocking locks — see [`Engine::with_scratch`].
    next_slot: AtomicUsize,
}

impl Engine {
    /// Starts building an engine for the given hardware configuration,
    /// with the paper's defaults for everything else (5-bit-equivalent
    /// noise, analog comparison, [`ExecutionMode::Sprint`], seed 0).
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_engine::{Engine, ExecutionMode, SprintConfig};
    /// use sprint_reram::NoiseModel;
    ///
    /// # fn main() -> Result<(), sprint_engine::SprintError> {
    /// let engine = Engine::builder(SprintConfig::medium())
    ///     .noise(NoiseModel::ideal())
    ///     .mode(ExecutionMode::Oracle)
    ///     .seed(42)
    ///     .worker_slots(2)
    ///     .build()?;
    /// assert_eq!(engine.mode(), ExecutionMode::Oracle);
    /// assert_eq!(engine.worker_slots(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder(config: SprintConfig) -> EngineBuilder {
        EngineBuilder {
            config,
            noise: NoiseModel::default(),
            threshold_spec: ThresholdSpec::default(),
            mode: ExecutionMode::Sprint,
            seed: 0,
            worker_slots: sprint_parallel::max_threads(),
            fault_model: None,
            fault_policy: FaultPolicy::default(),
            kv_pool: None,
            simd_tier: None,
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &SprintConfig {
        &self.config
    }

    /// The analog noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// The default analog comparator configuration.
    pub fn threshold_spec(&self) -> ThresholdSpec {
        self.threshold_spec
    }

    /// The default execution mode.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The base seed for per-head seed derivation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The attached hard-fault model, if any.
    pub fn fault_model(&self) -> Option<FaultModel> {
        self.fault_model
    }

    /// The fault-recovery policy (meaningful only with a fault model).
    pub fn fault_policy(&self) -> FaultPolicy {
        self.fault_policy
    }

    /// The shared KV page pool decode sessions draw from (see
    /// [`EngineBuilder::kv_pool`]).
    pub fn kv_pool(&self) -> &PagePool {
        &self.kv_pool
    }

    /// Number of worker scratch slots (the concurrency cap of
    /// [`Engine::run_batch`]).
    pub fn worker_slots(&self) -> usize {
        self.scratches.len()
    }

    /// The sanitized SIMD kernel tier this engine's workspaces
    /// dispatch on (see [`EngineBuilder::simd_tier`]).
    pub fn simd_tier(&self) -> SimdTier {
        self.simd_tier
    }

    /// Runs one head with the engine defaults (and the request's
    /// overrides). The pruner seed is derived from the engine seed and
    /// the request's head id (batch position 0 when untagged), so
    /// `run_head(&r)` equals `run_batch(&[r])[0]`.
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] for malformed requests; substrate
    /// errors otherwise.
    pub fn run_head(&self, request: &HeadRequest) -> Result<HeadResponse, SprintError> {
        self.run_head_seeded(
            request,
            derive_head_seed(self.seed, request.head_id().unwrap_or(0)),
        )
    }

    /// [`Engine::run_head`] with an explicit raw pruner seed (no
    /// derivation). This is the oracle-compatibility entry: the
    /// equivalence tests use it to reproduce the frozen pre-engine
    /// pipeline's outputs bit-for-bit.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_head`].
    pub fn run_head_seeded(
        &self,
        request: &HeadRequest,
        seed: u64,
    ) -> Result<HeadResponse, SprintError> {
        let threads = sprint_parallel::max_threads();
        self.with_scratch(|scratch| self.run_on_scratch(scratch, request, seed, threads))
    }

    /// Runs a batch of heads, fanned out across up to
    /// [`Engine::worker_slots`] [`sprint_parallel`] workers
    /// (`SPRINT_THREADS` caps them too, via
    /// [`sprint_parallel::max_threads`]).
    ///
    /// Results are returned in request order and are bit-identical
    /// across worker counts: head `i` is seeded with
    /// [`derive_head_seed`]`(engine_seed, head_id.unwrap_or(i))` and
    /// every worker's scratch produces fresh-state-identical results.
    /// On failure the reported error is that of the lowest-indexed
    /// failing request.
    ///
    /// # Example
    ///
    /// ```
    /// use sprint_engine::{Engine, HeadRequest, SprintConfig};
    /// use sprint_workloads::{ModelConfig, TraceGenerator};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let spec = ModelConfig::bert_base().trace_spec().with_seq_len(48);
    /// let heads = TraceGenerator::new(1).generate_many(&spec, 3)?;
    /// let engine = Engine::builder(SprintConfig::small()).seed(5).build()?;
    /// let requests: Vec<HeadRequest> = heads.iter().map(HeadRequest::from_trace).collect();
    /// let responses = engine.run_batch(&requests)?;
    /// assert_eq!(responses.len(), 3);
    /// // Untagged requests are seeded by batch position, so position
    /// // 0 matches a solo run_head (which uses id 0); to make every
    /// // response solo-reproducible, tag requests with_head_id.
    /// assert_eq!(responses[0], engine.run_head(&requests[0])?);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// The first (by request index) error produced;
    /// [`SprintError::Request`] when two requests share an effective
    /// head id (`head_id.unwrap_or(position)`), which would silently
    /// give them identical pruner seeds.
    pub fn run_batch(&self, requests: &[HeadRequest]) -> Result<Vec<HeadResponse>, SprintError> {
        Ok(self
            .run_batch_report(sprint_parallel::max_threads(), requests)?
            .0)
    }

    /// [`Engine::run_batch`] over an explicit worker count (clamped to
    /// `1..=worker_slots`, so zero runs single-threaded rather than
    /// panicking), with per-worker execution accounting: returns the
    /// responses together with a [`BatchReport`] holding the fan-out's
    /// wall-clock span and each worker's item/busy-time counters. Each
    /// head runs at width `threads / requests.len()` inside itself
    /// (ARCHITECTURE.md, "Intra-head fan-out"). The scaling benches and
    /// the thread-independence tests sweep widths through this;
    /// `run_batch` is this at the default width, minus the report.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::run_batch`].
    #[allow(clippy::type_complexity)]
    pub fn run_batch_report(
        &self,
        threads: usize,
        requests: &[HeadRequest],
    ) -> Result<(Vec<HeadResponse>, BatchReport), SprintError> {
        reject_duplicate_head_ids(requests)?;
        self.run_batch_sharded(threads, requests)
    }

    /// The sharded batch executor behind every batch entry point.
    ///
    /// Work is distributed by [`sprint_parallel::chunk_ranges`] —
    /// request `i`'s worker is a pure function of `(len, workers)` —
    /// and worker `w` locks scratch slot `w` for each of its items, so
    /// on the batch hot path no two workers ever touch the same
    /// mutex: each shard's crossbars, workspace and memory controller
    /// stay pinned to one thread for the whole batch instead of
    /// ping-ponging through the old try-lock sweep. Seeding is
    /// per-item (`derive_head_seed(seed, head_id.unwrap_or(i))`), so
    /// results stay bit-identical across worker counts.
    ///
    /// This path deliberately skips the duplicate-head-id check:
    /// [`crate::ModelServer`] flattens mode-comparison passes that
    /// *intentionally* reuse head ids against a shared base seed.
    /// Public entry points go through [`Engine::run_batch_report`],
    /// which rejects duplicates first.
    #[allow(clippy::type_complexity)]
    pub(crate) fn run_batch_sharded(
        &self,
        threads: usize,
        requests: &[HeadRequest],
    ) -> Result<(Vec<HeadResponse>, BatchReport), SprintError> {
        let workers = threads.min(self.scratches.len()).max(1);
        let per_head = threads / requests.len().max(1);
        let wall = Instant::now();
        let (responses, worker_stats) =
            sprint_parallel::par_chunk_try_map_threads(workers, requests, |worker, i, request| {
                let seed = derive_head_seed(self.seed, request.head_id().unwrap_or(i as u64));
                let mut scratch = lock_scratch(&self.scratches[worker], self.simd_tier);
                self.run_on_scratch(&mut scratch, request, seed, per_head)
            })?;
        Ok((
            responses,
            BatchReport {
                wall_ns: wall.elapsed().as_nanos(),
                workers: worker_stats,
            },
        ))
    }

    /// Claims a worker scratch for a single-head call. The sweep
    /// try-locks for a free slot (recovering any poisoned one it
    /// finds); callers beyond the slot count fall back to a blocking
    /// lock on a rotating slot instead of spinning. Batch execution
    /// does not come through here — [`Engine::run_batch_sharded`] pins
    /// each worker to its own slot.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut HeadScratch) -> R) -> R {
        for slot in &self.scratches {
            match slot.try_lock() {
                Ok(mut scratch) => return f(&mut scratch),
                Err(TryLockError::Poisoned(poisoned)) => {
                    let mut scratch = poisoned.into_inner();
                    *scratch = HeadScratch::new(self.simd_tier);
                    slot.clear_poison();
                    return f(&mut scratch);
                }
                Err(TryLockError::WouldBlock) => {}
            }
        }
        let i = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.scratches.len();
        let mut scratch = lock_scratch(&self.scratches[i], self.simd_tier);
        f(&mut scratch)
    }

    /// The mode-dispatched head pipeline over one worker's scratch. A
    /// head whose live keys span two or more column tiles runs at width
    /// `threads` (at least 1), in every mode; a narrower head runs at
    /// width 1, on the caller's thread alone.
    fn run_on_scratch(
        &self,
        scratch: &mut HeadScratch,
        request: &HeadRequest,
        seed: u64,
        threads: usize,
    ) -> Result<HeadResponse, SprintError> {
        let live = validate_request(request)?;
        let width = if live.1 > ARRAY_COLS {
            threads.max(1)
        } else {
            1
        };
        match request.mode_override().unwrap_or(self.mode) {
            ExecutionMode::Sprint => self.run_analog(scratch, request, seed, width, true, live),
            ExecutionMode::NoRecompute => {
                self.run_analog(scratch, request, seed, width, false, live)
            }
            ExecutionMode::Dense => self.run_digital(scratch, request, f32::MIN, live, width),
            ExecutionMode::Oracle => {
                self.run_digital(scratch, request, request.threshold(), live, width)
            }
        }
    }

    /// The analog pipeline (Sprint / NoRecompute): in-memory
    /// thresholding over the live region, selective fetch through the
    /// memory controller, then either the 8-bit recompute datapath or
    /// the approximate-score softmax. Programming, thresholding and the
    /// recompute kernel split their work over `width` workers.
    fn run_analog(
        &self,
        scratch: &mut HeadScratch,
        request: &HeadRequest,
        seed: u64,
        width: usize,
        recompute: bool,
        live: (usize, usize),
    ) -> Result<HeadResponse, SprintError> {
        let (live_q, live_k) = live;
        let (q, k, v) = (request.q(), request.k(), request.v());
        let (s_q, s_k) = (q.rows(), k.rows());
        if live_q == 0 || live_k == 0 {
            // Nothing live: no thresholding, no fetches, zero output.
            return empty_response(scratch, s_q, s_k, v.cols());
        }

        // In-memory pruning over the live region only (the 2-D
        // reduction filters padded rows/columns before memory ever
        // sees them). The pruner crossbars are reprogrammed in place —
        // bit-identical to fresh construction, without the per-head
        // allocations. Only a quantized-score comparator reads the
        // provisioned full scale, so only such a head pays its scan.
        let spec = &request
            .threshold_spec_override()
            .unwrap_or(self.threshold_spec);
        let q_live = scratch.live_submatrix(q, live_q)?;
        let k_live = scratch.live_submatrix(k, live_k)?;
        let scale = request.config().scale();
        let pruner = match &mut scratch.pruner {
            Some(p) => {
                p.set_threads(width);
                p.reprogram_keys(&k_live, scale, self.noise, seed)?;
                p.calibrate_query(&q_live, spec.score_bits.is_some())?;
                p
            }
            None => {
                let fresh = InMemoryPruner::new(&q_live, &k_live, scale, self.noise, seed)?;
                let p = scratch.pruner.insert(fresh);
                p.set_threads(width);
                p
            }
        };
        recycle(&mut scratch.mat_pool, q_live);
        recycle(&mut scratch.mat_pool, k_live);

        // Fault handling: with a model attached, stamp it onto the
        // freshly programmed crossbars (clearing the previous head's
        // remaps), scrub every key, then run the recovery ladder.
        let mut faults = FaultReport::default();
        if let Some(model) = self.fault_model {
            faults = fault_step(pruner, model, self.fault_policy, true, None)?;
            if faults.demoted {
                // Graceful degradation: serve the head through the
                // exact on-chip pipeline instead, keeping the analog
                // work already spent (programming, scrub reads, repair
                // writes) visible in the hardware stats.
                let prune_stats = pruner.stats();
                let mut response = self.run_digital(scratch, request, f32::MIN, live, width)?;
                response.prune_stats = prune_stats;
                response.faults = faults;
                return Ok(response);
            }
        }
        // Every live row's analog decision over the full key sequence,
        // in one pruner call; without recompute the approximate scores
        // (staged in the workspace's probability row, one row per live
        // query) become the output rows.
        let threshold = request.threshold();
        let q_rows = &q.as_slice()[..live_q * q.cols()];
        let mut approx = None;
        let mut decisions = if recompute {
            analog_rows(pruner, q_rows, threshold, spec, s_k, None)?
        } else {
            let tier = scratch.ws.simd_tier();
            let rows = scratch.ws.prob_row(live_q * s_k);
            let decisions = analog_rows(pruner, q_rows, threshold, spec, s_k, Some(&mut *rows))?;
            let mut out = Matrix::zeros(s_q, v.cols())?;
            for (i, row) in rows.chunks_exact_mut(s_k).enumerate() {
                approx_output_row(row, tier, |j| v.row(j), out.row_mut(i));
            }
            approx = Some(out);
            decisions
        };
        decisions.reserve(s_q - live_q);
        let prune_stats = pruner.stats();
        let memory_stats = fetch_stats(&mut scratch.controller, &self.config, &decisions, live_k)?;
        for _ in live_q..s_q {
            decisions.push(scratch.all_pruned(s_k));
        }

        let output = match approx {
            Some(out) => out,
            None => {
                // On-chip recompute: full-precision (8-bit datapath)
                // scores for every surviving key.
                scratch.ws.set_threads(width);
                quantized_attention_output_with(
                    q,
                    k,
                    v,
                    &request.config(),
                    Some(&decisions),
                    &mut scratch.ws,
                )?
            }
        };

        Ok(HeadResponse {
            output,
            decisions,
            prune_stats,
            memory_stats,
            faults,
        })
    }

    /// The digital pipeline (Dense / Oracle): full-precision pruned
    /// attention over the live region, with the resulting kept sets
    /// driven through the memory controller for fetch/reuse
    /// accounting. `threshold == f32::MIN` reduces to the dense
    /// baseline.
    ///
    /// The float kernel's row core runs on `width` blocks of query rows
    /// in one fan-out, balanced by live keys. The part holding block 0
    /// drives the controller through its decisions as soon as they
    /// exist, and after the join the caller drives the rest, so the
    /// controller still takes every live query in order.
    fn run_digital(
        &self,
        scratch: &mut HeadScratch,
        request: &HeadRequest,
        threshold: f32,
        (live_q, live_k): (usize, usize),
        width: usize,
    ) -> Result<HeadResponse, SprintError> {
        let (q, k, v) = (request.q(), request.k(), request.v());
        let (padding, cfg) = (request.padding(), request.config());
        let s_q = q.rows();
        let tier = scratch.ws.simd_tier();
        let mut out = scratch.ws.attention_output(s_q, k.rows(), v.cols())?;
        // A live row costs its live keys; a padded row only its fill.
        let blocks =
            sprint_parallel::weighted_ranges(s_q, width, |i| if i < live_q { live_k } else { 1 });
        let mut controller = if live_q > 0 && live_k > 0 {
            Some(cold_controller(&mut scratch.controller, &self.config)?)
        } else {
            None
        };
        let mut parts: Vec<_> = out
            .row_blocks(&blocks)
            .into_iter()
            .map(|rows| (rows, Vec::new(), None))
            .collect();
        parts[0].2 = controller.as_deref_mut();
        sprint_parallel::fan_out(&mut parts, |_, (rows, decisions, controller)| {
            let live_rows = rows.rows.end.min(live_q).saturating_sub(rows.rows.start);
            *decisions =
                pruned_attention_rows(q, k, v, &cfg, threshold, padding.as_ref(), tier, rows)?;
            if let Some(controller) = controller {
                account(controller, &decisions[..live_rows], live_k)?;
            }
            Ok::<_, SprintError>(())
        })?;
        let decisions: Vec<PruneDecision> = parts.into_iter().flat_map(|part| part.1).collect();
        let memory_stats = match controller {
            Some(controller) => {
                let first = blocks[0].end.min(live_q);
                account(controller, &decisions[first..live_q], live_k)?;
                controller.stats()
            }
            None => sprint_memory::MemoryStats::default(),
        };
        scratch.ws.recycle(out.scores);
        scratch.ws.recycle(out.probs);

        Ok(HeadResponse {
            output: out.output,
            decisions,
            prune_stats: sprint_reram::PruneHardwareStats::default(),
            memory_stats,
            faults: FaultReport::default(),
        })
    }
}

/// A zero response for heads with no live region at all: every
/// decision all-pruned, all-zero output, idle hardware.
fn empty_response(
    scratch: &mut HeadScratch,
    s_q: usize,
    s_k: usize,
    d_v: usize,
) -> Result<HeadResponse, SprintError> {
    let decisions = (0..s_q).map(|_| scratch.all_pruned(s_k)).collect();
    Ok(HeadResponse {
        output: Matrix::zeros(s_q, d_v)?,
        decisions,
        prune_stats: sprint_reram::PruneHardwareStats::default(),
        memory_stats: sprint_memory::MemoryStats::default(),
        faults: FaultReport::default(),
    })
}

/// Shared request validation: shapes, padding coverage, the
/// no-padded-cross-heads rule. Returns `(live_q, live_k)`.
pub(crate) fn validate_request(request: &HeadRequest) -> Result<(usize, usize), SprintError> {
    let (q, k, v) = (request.q(), request.k(), request.v());
    if q.cols() != k.cols() {
        return Err(SprintError::Request(format!(
            "query embedding {} does not match key embedding {}",
            q.cols(),
            k.cols()
        )));
    }
    if k.rows() != v.rows() {
        return Err(SprintError::Request(format!(
            "key sequence {} does not match value sequence {}",
            k.rows(),
            v.rows()
        )));
    }
    match request.padding() {
        None => Ok((q.rows(), k.rows())),
        Some(p) => {
            if p.total() != k.rows() {
                return Err(SprintError::Request(format!(
                    "padding mask covers {} tokens but the key sequence holds {}",
                    p.total(),
                    k.rows()
                )));
            }
            if q.rows() != k.rows() {
                return Err(SprintError::Request(format!(
                    "padded requests must be self-shaped: s_q = {} vs s_k = {}",
                    q.rows(),
                    k.rows()
                )));
            }
            Ok((p.live().min(q.rows()), p.live()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprint_attention::AttentionConfig;
    use sprint_workloads::{ModelConfig, TraceGenerator};

    fn trace(seq: usize, seed: u64) -> sprint_workloads::HeadTrace {
        let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq);
        TraceGenerator::new(seed).generate(&spec).unwrap()
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
    fn simd_tier_knob_is_sanitized_and_survives_poison_recovery() {
        let default_tier = engine(ExecutionMode::Sprint).simd_tier();
        assert_eq!(default_tier, sprint_attention::active_tier());
        let forced = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .simd_tier(SimdTier::Scalar)
            .build()
            .unwrap();
        assert_eq!(forced.simd_tier(), SimdTier::Scalar);
        for slot in &forced.scratches {
            assert_eq!(slot.lock().unwrap().ws.simd_tier(), SimdTier::Scalar);
        }
        // An Avx2 request only sticks where the host supports it.
        let avx2 = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .simd_tier(SimdTier::Avx2)
            .build()
            .unwrap();
        assert_eq!(
            avx2.simd_tier(),
            sprint_attention::sanitize_tier(SimdTier::Avx2)
        );
        // Poison recovery rebuilds scratches on the engine's tier, not
        // the process default.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = forced.scratches[0].lock().unwrap();
            panic!("worker dies mid-head");
        }));
        let guard = lock_scratch(&forced.scratches[0], forced.simd_tier);
        assert_eq!(guard.ws.simd_tier(), SimdTier::Scalar);
    }

    #[test]
    fn seed_derivation_is_stable_and_spreads() {
        assert_eq!(derive_head_seed(1, 2), derive_head_seed(1, 2));
        assert_ne!(derive_head_seed(1, 2), derive_head_seed(1, 3));
        assert_ne!(derive_head_seed(1, 2), derive_head_seed(2, 2));
    }

    #[test]
    fn run_head_equals_batch_position_zero() {
        let t = trace(64, 5);
        let e = engine(ExecutionMode::Sprint);
        let single = e.run_head(&HeadRequest::from_trace(&t)).unwrap();
        let batch = e.run_batch(&[HeadRequest::from_trace(&t)]).unwrap();
        assert_eq!(single, batch[0]);
    }

    #[test]
    fn head_ids_decouple_seed_from_batch_position() {
        let t = trace(64, 6);
        // With noise, different seeds give different decisions often
        // enough; with the same head id the position must not matter.
        let e_noisy = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::default())
            .seed(3)
            .build()
            .unwrap();
        let alone = e_noisy
            .run_batch(&[HeadRequest::from_trace(&t).with_head_id(42)])
            .unwrap();
        let shifted = e_noisy
            .run_batch(&[
                HeadRequest::from_trace(&t),
                HeadRequest::from_trace(&t).with_head_id(42),
            ])
            .unwrap();
        assert_eq!(alone[0], shifted[1], "head id pins the seed");
    }

    #[test]
    fn all_modes_produce_well_formed_responses() {
        let t = trace(64, 7);
        for mode in ExecutionMode::ALL {
            let e = engine(mode);
            let out = e.run_head(&HeadRequest::from_trace(&t)).unwrap();
            assert_eq!(out.output.rows(), t.seq_len(), "{mode:?}");
            assert_eq!(out.decisions.len(), t.seq_len(), "{mode:?}");
            // Padded queries: all-pruned decisions sharing one
            // allocation, zero output rows.
            for i in t.live_tokens()..t.seq_len() {
                assert_eq!(out.decisions[i].kept_count(), 0, "{mode:?} row {i}");
                assert!(out.output.row(i).iter().all(|&x| x == 0.0));
                assert!(PruneDecision::shares_storage(
                    &out.decisions[t.live_tokens()],
                    &out.decisions[i]
                ));
            }
            if mode.uses_in_memory_pruning() {
                assert_eq!(out.prune_stats.queries_pruned as usize, t.live_tokens());
            } else {
                assert_eq!(out.prune_stats.queries_pruned, 0);
            }
            assert_eq!(out.memory_stats.queries as usize, t.live_tokens());
        }
    }

    #[test]
    fn ideal_sprint_decisions_agree_with_the_digital_reference() {
        // With ideal analog hardware the only divergence from the
        // trace's digital decisions is the 4-bit MSB approximation; the
        // kept sets must still agree on the overwhelming majority.
        let t = trace(64, 17);
        let out = engine(ExecutionMode::Sprint)
            .run_head(&HeadRequest::from_trace(&t))
            .unwrap();
        let (live, reference) = (t.live_tokens(), t.reference_decisions());
        let agree = (0..live * live)
            .map(|pair| (pair / live, pair % live))
            .filter(|&(i, j)| out.decisions[i].is_pruned(j) == reference[i].is_pruned(j))
            .count();
        let rate = agree as f64 / (live * live) as f64;
        assert!(rate > 0.9, "decision agreement {rate}");
    }

    #[test]
    fn dense_mode_keeps_every_live_key() {
        let t = trace(48, 8);
        let out = engine(ExecutionMode::Dense)
            .run_head(&HeadRequest::from_trace(&t))
            .unwrap();
        let live = t.live_tokens();
        for d in out.decisions.iter().take(live) {
            assert_eq!(d.kept_count(), live);
        }
        // Oracle prunes strictly more than dense.
        let oracle = engine(ExecutionMode::Oracle)
            .run_head(&HeadRequest::from_trace(&t))
            .unwrap();
        let oracle_kept: usize = oracle.decisions.iter().map(|d| d.kept_count()).sum();
        assert!(oracle_kept < live * live);
    }

    #[test]
    fn cross_shaped_heads_run_unpadded_and_reject_padding() {
        let t = trace(64, 9);
        let live = t.live_tokens();
        // A 1-query decode step against the full key cache.
        let q1 = {
            let mut m = Matrix::zeros(1, t.q().cols()).unwrap();
            m.row_mut(0).copy_from_slice(t.q().row(0));
            m
        };
        let e = engine(ExecutionMode::Sprint);
        let req = HeadRequest::new(&q1, t.k(), t.v(), t.config(), t.threshold());
        let out = e.run_head(&req).unwrap();
        assert_eq!(out.output.rows(), 1);
        assert_eq!(out.decisions.len(), 1);
        assert_eq!(out.decisions[0].len(), t.seq_len());
        let padded =
            req.with_padding(sprint_attention::PaddingMask::new(t.seq_len(), live).unwrap());
        assert!(matches!(e.run_head(&padded), Err(SprintError::Request(_))));
    }

    #[test]
    fn malformed_requests_are_rejected_up_front() {
        let q = Matrix::zeros(4, 8).unwrap();
        let k = Matrix::zeros(6, 16).unwrap();
        let v = Matrix::zeros(5, 16).unwrap();
        let e = engine(ExecutionMode::Sprint);
        let bad_embed = HeadRequest::new(&q, &k, &v, AttentionConfig::new(8), 0.0);
        assert!(matches!(
            e.run_head(&bad_embed),
            Err(SprintError::Request(_))
        ));
        let k2 = Matrix::zeros(6, 8).unwrap();
        let bad_kv = HeadRequest::new(&q, &k2, &v, AttentionConfig::new(8), 0.0);
        assert!(matches!(e.run_head(&bad_kv), Err(SprintError::Request(_))));
        let bad_mask = HeadRequest::new(&q, &k2, &k2, AttentionConfig::new(8), 0.0)
            .with_padding(sprint_attention::PaddingMask::new(4, 2).unwrap());
        assert!(matches!(
            e.run_head(&bad_mask),
            Err(SprintError::Request(_))
        ));
    }

    #[test]
    fn scratch_pools_stay_bounded_over_a_long_mixed_run() {
        // Regression: the live-submatrix pool grew by two buffers per
        // head shape forever. Serve many heads of varying sizes and
        // assert every worker scratch stays at the cap.
        let e = engine(ExecutionMode::Sprint);
        for round in 0..12 {
            let t = trace(24 + 8 * (round % 4), 100 + round as u64);
            e.run_head(&HeadRequest::from_trace(&t)).unwrap();
        }
        for slot in &e.scratches {
            let scratch = slot.lock().unwrap();
            assert!(
                scratch.mat_pool.len() <= MAT_POOL_CAP,
                "mat pool grew to {}",
                scratch.mat_pool.len()
            );
        }
    }

    #[test]
    fn duplicate_head_ids_are_rejected() {
        let t = trace(32, 30);
        let e = engine(ExecutionMode::Sprint);
        // Two requests tagged with the same id.
        let err = e.run_batch(&[
            HeadRequest::from_trace(&t).with_head_id(7),
            HeadRequest::from_trace(&t).with_head_id(7),
        ]);
        let msg = match err {
            Err(SprintError::Request(msg)) => msg,
            other => panic!("expected a request error, got {other:?}"),
        };
        assert!(msg.contains("head id 7"), "{msg}");
        assert!(msg.contains("requests 0 and 1"), "{msg}");
        // An explicit id colliding with an untagged request's position:
        // position 1 is effective id 1, same as with_head_id(1).
        let err = e.run_batch(&[
            HeadRequest::from_trace(&t).with_head_id(1),
            HeadRequest::from_trace(&t),
        ]);
        assert!(matches!(err, Err(SprintError::Request(_))));
        // Distinct effective ids still run.
        let ok = e.run_batch(&[
            HeadRequest::from_trace(&t).with_head_id(5),
            HeadRequest::from_trace(&t),
        ]);
        assert_eq!(ok.unwrap().len(), 2);
    }

    #[test]
    fn poisoned_scratch_recovers_instead_of_panicking() {
        let e = engine(ExecutionMode::Sprint);
        // Poison every slot: a worker panics while holding the lock.
        for slot in &e.scratches {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = slot.lock().unwrap();
                panic!("worker dies mid-head");
            }));
            assert!(result.is_err());
            assert!(slot.is_poisoned());
        }
        // Unrelated callers must not inherit the panic: the scratch is
        // reset and the head runs bit-identically to a fresh engine.
        let t = trace(48, 31);
        let recovered = e.run_head(&HeadRequest::from_trace(&t)).unwrap();
        let fresh = engine(ExecutionMode::Sprint)
            .run_head(&HeadRequest::from_trace(&t))
            .unwrap();
        assert_eq!(recovered, fresh);
        // A single-head call claims — and recovers — the first slot.
        assert!(!e.scratches[0].is_poisoned());
        // The blocking-fallback path recovers too.
        for slot in &e.scratches {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = slot.lock().unwrap();
                panic!("again");
            }));
        }
        let guard = lock_scratch(&e.scratches[0], e.simd_tier);
        drop(guard);
        assert!(!e.scratches[0].is_poisoned());
    }

    #[test]
    fn batch_report_accounts_every_request_to_one_worker() {
        let spec = ModelConfig::bert_base().trace_spec().with_seq_len(48);
        let heads = TraceGenerator::new(33).generate_many(&spec, 10).unwrap();
        let e = Engine::builder(SprintConfig::small())
            .noise(NoiseModel::ideal())
            .seed(11)
            .worker_slots(4)
            .build()
            .unwrap();
        let requests: Vec<HeadRequest> = heads.iter().map(HeadRequest::from_trace).collect();
        let (reference, report1) = e.run_batch_report(1, &requests).unwrap();
        assert_eq!(report1.workers.len(), 1);
        assert_eq!(report1.workers[0].items, requests.len());
        for workers in [2usize, 4] {
            let (responses, report) = e.run_batch_report(workers, &requests).unwrap();
            assert_eq!(responses, reference, "bit-identical at {workers} workers");
            assert_eq!(report.workers.len(), workers);
            assert_eq!(
                report.workers.iter().map(|w| w.items).sum::<usize>(),
                requests.len()
            );
            for (w, stats) in report.workers.iter().enumerate() {
                assert_eq!(stats.worker, w);
                assert!(stats.items > 0, "worker {w} ran nothing");
            }
            assert!(report.critical_path_ns() <= report.total_busy_ns());
        }
    }

    #[test]
    fn fully_padded_heads_return_zero_work() {
        let t = trace(32, 10);
        let req = HeadRequest::from_trace(&t)
            .with_padding(sprint_attention::PaddingMask::new(t.seq_len(), 0).unwrap());
        for mode in ExecutionMode::ALL {
            let out = engine(mode).run_head(&req).unwrap();
            assert!(out.output.as_slice().iter().all(|&x| x == 0.0), "{mode:?}");
            assert!(out.decisions.iter().all(|d| d.kept_count() == 0));
            assert_eq!(out.memory_stats.queries, 0);
            assert_eq!(out.prune_stats.queries_pruned, 0);
        }
    }
}
