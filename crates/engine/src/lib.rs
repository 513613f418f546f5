//! `sprint-engine` — the unified session/serving API of the SPRINT
//! reproduction.
//!
//! The paper's headline claim is *synergy*: in-ReRAM MSB pruning
//! (§III), DRAM-side access scheduling (§V) and on-chip 8-bit
//! recomputation (§VI) operating as one pipeline. This crate is that
//! pipeline's front door — one [`Engine`], built once per hardware
//! configuration via [`Engine::builder`], that owns every piece of
//! reusable substrate state and executes a stream of attention heads
//! through it:
//!
//! * [`Engine::run_head`] — one [`HeadRequest`] in, one
//!   [`HeadResponse`] out, with the pruner crossbars reprogrammed in
//!   place, the memory controller cold-reset, and all attention
//!   scratch pooled — steady-state execution rebuilds none of the
//!   substrate;
//! * [`Engine::run_batch`] — the same over a request slice, fanned out
//!   across [`sprint_parallel`] workers with deterministic,
//!   thread-count-independent per-head seeding ([`derive_head_seed`]);
//! * [`ModelServer`] — model-level serving: a [`ModelRequest`]
//!   (layers × heads, per-layer sequence lengths, shared base seed)
//!   decomposed into head requests, scheduled over the engine's worker
//!   pool, and aggregated into per-layer / whole-model
//!   [`ModelResponse`] roll-ups (traffic — admission, batching,
//!   latency percentiles — is `sprint_server`'s queue and batcher on
//!   top of it);
//! * [`DecodeSession`] — autoregressive decode: a stateful session
//!   over programmed crossbars, an append-only KV cache and per-step
//!   scratch, serving one-query SPRINT attention per generated token
//!   without reprogramming ([`Engine::open_session`]); [`DecodeLoop`]
//!   interleaves many concurrent sessions over [`sprint_parallel`]
//!   with the same bit-identical-across-worker-counts seeding
//!   contract as `run_batch`;
//! * [`SessionTable`] — the one owner of decode-session residency
//!   (LRU eviction under a residency cap or page-pool pressure,
//!   transparent rehydration), called by [`DecodeLoop`] and by the
//!   HTTP server's `/v1/decode`;
//! * [`FaultPolicy`] / [`FaultReport`] — fault-tolerant serving over a
//!   faulty substrate: an engine built with a
//!   [`sprint_reram::FaultModel`] scrubs each head's programmed
//!   crossbars, repairs what write-verified retries can fix, and
//!   degrades gracefully (spare-column remap, or demotion to the exact
//!   digital pipeline) — every request completes, with the outcome
//!   accounted on its response;
//! * [`ExecutionMode`] — the four functional pipelines of Fig. 9
//!   (`Dense` baseline, `Oracle` runtime pruning, `NoRecompute`,
//!   full `Sprint`), replacing the pre-engine `recompute: bool` flag;
//! * [`SprintError`] — the one error type of the API, with `From`
//!   impls for every substrate error enum;
//! * [`SprintConfig`] — the S/M/L hardware configurations of Table I
//!   (moved here from `sprint-core`, which re-exports it);
//! * [`mod@cost`] — the §VII cost model: the one Table II charge sheet
//!   and per-query latency rule behind [`PerfRollup`], [`StepPerf`]
//!   and `sprint-core`'s figure drivers, and the token-to-CORELET
//!   mapping (token interleaving, Fig. 8) that rule rests on;
//! * [`mod@reference`] — the frozen pre-engine pipeline, kept as the
//!   oracle that the engine's state reuse is proven bit-identical
//!   against.
//!
//! # Example
//!
//! ```
//! use sprint_engine::{Engine, ExecutionMode, HeadRequest, SprintConfig};
//! use sprint_workloads::{ModelConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Synthesize two BERT-like heads and serve them as one batch.
//! let spec = ModelConfig::bert_base().trace_spec().with_seq_len(64);
//! let mut generator = TraceGenerator::new(7);
//! let heads = generator.generate_many(&spec, 2)?;
//!
//! let engine = Engine::builder(SprintConfig::medium())
//!     .mode(ExecutionMode::Sprint)
//!     .seed(42)
//!     .build()?;
//! let requests: Vec<HeadRequest> = heads.iter().map(HeadRequest::from_trace).collect();
//! let responses = engine.run_batch(&requests)?;
//! assert_eq!(responses.len(), 2);
//! assert!(responses[0].memory_stats.reused_vectors > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

/// The repository's `ARCHITECTURE.md`, embedded verbatim so its
/// determinism/seeding-contract code block compiles and runs as a
/// doctest of this crate (`cargo test --doc`) — the contract prose
/// cannot rot away from the implementation.
#[doc = include_str!("../../../ARCHITECTURE.md")]
mod architecture_contract {}

mod config;
pub mod cost;
mod decode;
mod engine;
mod error;
mod fault;
mod mode;
mod model;
pub mod reference;
mod request;
mod serve;
mod sessions;

pub use config::SprintConfig;
pub use decode::{
    DecodeSession, DecodeStep, EvictedSession, SessionPerf, SessionRequest, StepPerf, StepResponse,
};
pub use engine::{derive_head_seed, BatchReport, Engine, EngineBuilder};
pub use error::SprintError;
pub use fault::{FaultPolicy, FaultReport};
pub use mode::ExecutionMode;
pub use model::{HeadPlan, LayerReport, ModelProfile, ModelRequest, ModelResponse, PerfRollup};
pub use request::{HeadRequest, HeadResponse};
pub use serve::{
    nearest_rank, DecodeLoop, DecodeReport, DecodeTask, ModelServer, ServeStats, SessionReport,
};
pub use sessions::{SessionError, SessionOpen, SessionTable};
pub use sprint_attention::{active_tier, avx2_available, SimdTier};
