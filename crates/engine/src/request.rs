//! The request/response pair of the serving API.

use sprint_attention::{AttentionConfig, Matrix, PaddingMask, PruneDecision};
use sprint_memory::MemoryStats;
use sprint_reram::{PruneHardwareStats, ThresholdSpec};
use sprint_workloads::HeadTrace;

use crate::{ExecutionMode, FaultReport};

/// One attention head to execute: borrowed Q/K/V, the head
/// configuration, the learned pruning threshold, and optional
/// per-request overrides of the engine defaults.
///
/// Requests borrow their matrices — building one allocates nothing, so
/// a serving loop can stamp them out per incoming head. The usual
/// entry point is [`HeadRequest::from_trace`]; cross-shaped heads
/// (`s_q != s_k`, e.g. decode steps against a longer key cache) use
/// [`HeadRequest::new`] without padding.
///
/// # Example
///
/// ```
/// use sprint_engine::{ExecutionMode, HeadRequest};
/// use sprint_workloads::{ModelConfig, TraceGenerator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = ModelConfig::bert_base().trace_spec().with_seq_len(48);
/// let trace = TraceGenerator::new(1).generate(&spec)?;
/// let req = HeadRequest::from_trace(&trace)
///     .with_head_id(7)
///     .with_mode(ExecutionMode::Dense);
/// assert_eq!(req.head_id(), Some(7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HeadRequest<'a> {
    q: &'a Matrix,
    k: &'a Matrix,
    v: &'a Matrix,
    config: AttentionConfig,
    padding: Option<PaddingMask>,
    threshold: f32,
    head_id: Option<u64>,
    mode: Option<ExecutionMode>,
    threshold_spec: Option<ThresholdSpec>,
}

impl<'a> HeadRequest<'a> {
    /// Builds a request from raw matrices, without padding.
    ///
    /// `threshold` is the learned pruning threshold (Eq. 3's `Th`) in
    /// real score units.
    pub fn new(
        q: &'a Matrix,
        k: &'a Matrix,
        v: &'a Matrix,
        config: AttentionConfig,
        threshold: f32,
    ) -> Self {
        HeadRequest {
            q,
            k,
            v,
            config,
            padding: None,
            threshold,
            head_id: None,
            mode: None,
            threshold_spec: None,
        }
    }

    /// Builds a request from a synthesized [`HeadTrace`] — matrices,
    /// head configuration, padding mask and calibrated threshold all
    /// come from the trace.
    pub fn from_trace(trace: &'a HeadTrace) -> Self {
        HeadRequest {
            q: trace.q(),
            k: trace.k(),
            v: trace.v(),
            config: trace.config(),
            padding: Some(trace.padding()),
            threshold: trace.threshold(),
            head_id: None,
            mode: None,
            threshold_spec: None,
        }
    }

    /// Sets the prefix padding mask over the key sequence. Only valid
    /// for self-shaped heads (`s_q == s_k`); the engine rejects padded
    /// cross-shaped requests.
    #[must_use]
    pub fn with_padding(mut self, padding: PaddingMask) -> Self {
        self.padding = Some(padding);
        self
    }

    /// Tags the request with a stable head identity used for
    /// deterministic per-head seed derivation (see
    /// [`crate::derive_head_seed`]). Untagged requests fall back to
    /// their batch position.
    #[must_use]
    pub fn with_head_id(mut self, head_id: u64) -> Self {
        self.head_id = Some(head_id);
        self
    }

    /// Overrides the engine's default [`ExecutionMode`] for this
    /// request.
    #[must_use]
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Overrides the engine's default [`ThresholdSpec`] (analog
    /// comparator configuration) for this request.
    #[must_use]
    pub fn with_threshold_spec(mut self, spec: ThresholdSpec) -> Self {
        self.threshold_spec = Some(spec);
        self
    }

    /// Query matrix (`s_q × d`).
    pub fn q(&self) -> &'a Matrix {
        self.q
    }

    /// Key matrix (`s_k × d`).
    pub fn k(&self) -> &'a Matrix {
        self.k
    }

    /// Value matrix (`s_k × d_v`).
    pub fn v(&self) -> &'a Matrix {
        self.v
    }

    /// Head configuration (embedding size and score scale).
    pub fn config(&self) -> AttentionConfig {
        self.config
    }

    /// The prefix padding mask, if any.
    pub fn padding(&self) -> Option<PaddingMask> {
        self.padding
    }

    /// The learned pruning threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// The stable head identity, if tagged.
    pub fn head_id(&self) -> Option<u64> {
        self.head_id
    }

    /// The per-request mode override, if any.
    pub fn mode_override(&self) -> Option<ExecutionMode> {
        self.mode
    }

    /// The per-request threshold-spec override, if any.
    pub fn threshold_spec_override(&self) -> Option<ThresholdSpec> {
        self.threshold_spec
    }
}

/// The outcome of one head execution.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadResponse {
    /// Final attention values (`s_q × d_v`).
    pub output: Matrix,
    /// The pruning decisions actually applied, one per query. Padded
    /// queries share a single all-pruned decision (storage-shared
    /// clones; see [`PruneDecision`]).
    pub decisions: Vec<PruneDecision>,
    /// ReRAM-side operation counters (zero for the digital
    /// [`ExecutionMode::Dense`] / [`ExecutionMode::Oracle`] modes).
    pub prune_stats: PruneHardwareStats,
    /// Memory-controller statistics (fetches, reuse, commands).
    pub memory_stats: MemoryStats,
    /// Fault-handling outcome (all-zero unless the engine has a
    /// [`sprint_reram::FaultModel`] attached and the scrub found
    /// faults; see [`crate::FaultPolicy`]).
    pub faults: FaultReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_overrides_stack() {
        let m = Matrix::zeros(2, 4).unwrap();
        let req = HeadRequest::new(&m, &m, &m, AttentionConfig::new(4), 0.5)
            .with_head_id(3)
            .with_mode(ExecutionMode::Oracle)
            .with_threshold_spec(ThresholdSpec::quantized(4))
            .with_padding(PaddingMask::new(2, 1).unwrap());
        assert_eq!(req.head_id(), Some(3));
        assert_eq!(req.mode_override(), Some(ExecutionMode::Oracle));
        assert_eq!(
            req.threshold_spec_override(),
            Some(ThresholdSpec::quantized(4))
        );
        assert_eq!(req.padding().unwrap().live(), 1);
        assert_eq!(req.threshold(), 0.5);
    }
}
