//! Model-level requests and responses for [`crate::ModelServer`].
//!
//! The paper's evaluation (§VII, Figs. 10–12) is *model*-level: energy
//! and latency are reported per workload (BERT-L, GPT-2, ViT at their
//! SQuAD/GLUE/WikiText sequence lengths), not per head. The types here
//! describe one full forward pass — a [`ModelProfile`] naming the
//! layers × heads grid and per-layer sequence lengths — and the
//! roll-ups the server aggregates head responses into: per-layer
//! [`LayerReport`]s and a whole-model [`PerfRollup`] of energy,
//! latency, data movement and (optionally) proxy-task accuracy.

use sprint_energy::EnergyBreakdown;
use sprint_reram::ThresholdSpec;
use sprint_workloads::{ModelConfig, TaskScore, TraceSpec};

use crate::cost::{query_cycles, worst_corelet_load, OpCounts};
use crate::{derive_head_seed, ExecutionMode, HeadResponse, SprintConfig, SprintError};

/// Salt mixed into the base seed for trace synthesis (distinct from
/// the pruner-seed stream, so traces and analog noise are independent).
/// Shared with the decode loop so decode traces ride the same stream
/// discipline.
pub(crate) const TRACE_SALT: u64 = 0x7ace;
/// Salt mixed into the base seed for proxy-task construction.
const TASK_SALT: u64 = 0x7a51;

/// The layers × heads shape of one served model.
///
/// A profile names the grid the server decomposes a forward pass into:
/// `layer_seq_lens.len()` layers of `heads` attention heads each, every
/// head synthesized from the same pruning/padding/locality statistics.
/// Per-layer sequence lengths may be ragged (encoder stacks that
/// shorten the sequence, staged decoding, mixed-resolution vision
/// towers).
///
/// # Example
///
/// ```
/// use sprint_engine::ModelProfile;
/// use sprint_workloads::ModelConfig;
///
/// // Two BERT-like layers of 2 heads, scaled down for a quick run.
/// let profile = ModelProfile::from_model(&ModelConfig::bert_base())
///     .with_layers(2)
///     .with_heads(2)
///     .with_seq_len(48);
/// assert_eq!(profile.layers(), 2);
/// assert_eq!(profile.head_count(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelProfile {
    name: String,
    head_dim: usize,
    heads: usize,
    layer_seq_lens: Vec<usize>,
    prune_rate: f64,
    padding_fraction: f64,
    target_overlap: f64,
    source: Option<ModelConfig>,
}

impl ModelProfile {
    /// Builds the profile of one studied workload: `model.layers`
    /// layers × `model.heads` heads at the model's default sequence
    /// length and statistics. The source model is retained, which is
    /// what lets [`crate::ModelRequest::with_accuracy`] pin the proxy
    /// task to the paper's baseline metric.
    pub fn from_model(model: &ModelConfig) -> Self {
        ModelProfile {
            name: model.name.to_string(),
            head_dim: model.head_dim,
            heads: model.heads.max(1),
            layer_seq_lens: vec![model.seq_len; model.layers.max(1)],
            prune_rate: model.pruning_rate,
            padding_fraction: model.padding_fraction,
            target_overlap: model.adjacent_overlap,
            source: Some(model.clone()),
        }
    }

    /// Builds a free-form profile (no source model, so accuracy
    /// evaluation is unavailable; everything else works).
    ///
    /// # Errors
    ///
    /// [`SprintError::Request`] for an empty layer list, zero heads,
    /// zero head dimension, or a zero sequence length.
    pub fn custom(
        name: impl Into<String>,
        head_dim: usize,
        heads: usize,
        layer_seq_lens: Vec<usize>,
        prune_rate: f64,
        padding_fraction: f64,
        target_overlap: f64,
    ) -> Result<Self, SprintError> {
        let profile = ModelProfile {
            name: name.into(),
            head_dim,
            heads,
            layer_seq_lens,
            prune_rate,
            padding_fraction,
            target_overlap,
            source: None,
        };
        profile.validate()?;
        Ok(profile)
    }

    /// Shape validation, shared by [`ModelProfile::custom`] and the
    /// server (the `with_*` builders defer it, so a profile mangled
    /// after construction still fails with a request-level error).
    pub(crate) fn validate(&self) -> Result<(), SprintError> {
        if self.layer_seq_lens.is_empty() || self.heads == 0 || self.head_dim == 0 {
            return Err(SprintError::Request(format!(
                "model profile '{}' is degenerate: {} layers x {} heads, d = {}",
                self.name,
                self.layer_seq_lens.len(),
                self.heads,
                self.head_dim
            )));
        }
        if let Some(&s) = self.layer_seq_lens.iter().find(|&&s| s == 0) {
            return Err(SprintError::Request(format!(
                "model profile '{}' has a zero-length layer (s = {s})",
                self.name
            )));
        }
        Ok(())
    }

    /// Returns the profile with every layer at `seq_len`.
    #[must_use]
    pub fn with_seq_len(mut self, seq_len: usize) -> Self {
        for s in &mut self.layer_seq_lens {
            *s = seq_len;
        }
        self
    }

    /// Returns the profile with explicit (possibly ragged) per-layer
    /// sequence lengths; the layer count becomes `seq_lens.len()`.
    /// Shape validation happens when the profile is served.
    #[must_use]
    pub fn with_layer_seq_lens(mut self, seq_lens: Vec<usize>) -> Self {
        self.layer_seq_lens = seq_lens;
        self
    }

    /// Returns the profile truncated or extended (repeating the last
    /// layer's sequence length) to `layers` layers.
    #[must_use]
    pub fn with_layers(mut self, layers: usize) -> Self {
        let last = self.layer_seq_lens.last().copied().unwrap_or(0);
        self.layer_seq_lens.resize(layers, last);
        self
    }

    /// Returns the profile with `heads` attention heads per layer.
    #[must_use]
    pub fn with_heads(mut self, heads: usize) -> Self {
        self.heads = heads;
        self
    }

    /// Display name of the profiled model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attention layers.
    pub fn layers(&self) -> usize {
        self.layer_seq_lens.len()
    }

    /// Attention heads per layer.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Total heads in one forward pass (`layers × heads`).
    pub fn head_count(&self) -> usize {
        self.layer_seq_lens.len() * self.heads
    }

    /// Per-head embedding size.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Per-layer sequence lengths, one entry per layer.
    pub fn layer_seq_lens(&self) -> &[usize] {
        &self.layer_seq_lens
    }

    /// The studied workload this profile came from, when built with
    /// [`ModelProfile::from_model`].
    pub fn source(&self) -> Option<&ModelConfig> {
        self.source.as_ref()
    }

    /// The [`TraceSpec`] every head of `layer` is synthesized from.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn layer_spec(&self, layer: usize) -> TraceSpec {
        TraceSpec {
            seq_len: self.layer_seq_lens[layer],
            head_dim: self.head_dim,
            prune_rate: self.prune_rate,
            padding_fraction: self.padding_fraction,
            target_overlap: self.target_overlap,
        }
    }
}

/// One full forward pass to serve: a [`ModelProfile`] plus the shared
/// base seed and the per-request overrides of the server's engine
/// defaults.
///
/// # Example
///
/// ```
/// use sprint_engine::{ExecutionMode, ModelProfile, ModelRequest};
/// use sprint_workloads::ModelConfig;
///
/// let profile = ModelProfile::from_model(&ModelConfig::vit_base())
///     .with_layers(1)
///     .with_heads(2)
///     .with_seq_len(32);
/// let request = ModelRequest::new(profile)
///     .with_seed(9)
///     .with_mode(ExecutionMode::Oracle);
/// assert_eq!(request.head_plan().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRequest {
    profile: ModelProfile,
    base_seed: u64,
    mode: Option<ExecutionMode>,
    threshold_spec: Option<ThresholdSpec>,
    accuracy: bool,
}

impl ModelRequest {
    /// Builds a request for one forward pass of `profile` (base seed 0,
    /// engine-default mode and comparator, accuracy evaluation off).
    pub fn new(profile: ModelProfile) -> Self {
        ModelRequest {
            profile,
            base_seed: 0,
            mode: None,
            threshold_spec: None,
            accuracy: false,
        }
    }

    /// Sets the shared base seed all per-(layer, head) seeds derive
    /// from (see [`ModelRequest::head_plan`]).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides the engine's default [`ExecutionMode`] for every head
    /// of this pass.
    #[must_use]
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Overrides the engine's default comparator [`ThresholdSpec`] for
    /// every head of this pass.
    #[must_use]
    pub fn with_threshold_spec(mut self, spec: ThresholdSpec) -> Self {
        self.threshold_spec = Some(spec);
        self
    }

    /// Enables proxy-task accuracy roll-ups. Requires a profile built
    /// with [`ModelProfile::from_model`] (the task pins the paper's
    /// baseline metric); roughly doubles the per-head cost (each task
    /// runs a dense reference pass).
    #[must_use]
    pub fn with_accuracy(mut self, on: bool) -> Self {
        self.accuracy = on;
        self
    }

    /// The served profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The shared base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The pass-wide mode override, if any.
    pub fn mode_override(&self) -> Option<ExecutionMode> {
        self.mode
    }

    /// The pass-wide comparator override, if any.
    pub fn threshold_spec_override(&self) -> Option<ThresholdSpec> {
        self.threshold_spec
    }

    /// Whether accuracy roll-ups were requested.
    pub fn wants_accuracy(&self) -> bool {
        self.accuracy
    }

    /// The deterministic decomposition of this request into per-head
    /// work, in (layer, head) order.
    ///
    /// Every seed is a pure function of the base seed and the head's
    /// grid position (`id = layer·heads + head` mixed through
    /// [`derive_head_seed`]), so the plan — and therefore every trace,
    /// pruner seed and proxy task downstream — is bit-identical no
    /// matter how many workers execute it or what else the server is
    /// doing. This is the contract the serving equivalence tests pin.
    pub fn head_plan(&self) -> Vec<HeadPlan> {
        let mut plan = Vec::with_capacity(self.profile.head_count());
        for layer in 0..self.profile.layers() {
            let spec = self.profile.layer_spec(layer);
            for head in 0..self.profile.heads() {
                let id = (layer * self.profile.heads() + head) as u64;
                plan.push(HeadPlan {
                    layer,
                    head,
                    head_id: derive_head_seed(self.base_seed, id),
                    trace_seed: derive_head_seed(self.base_seed ^ TRACE_SALT, id),
                    task_seed: derive_head_seed(self.base_seed ^ TASK_SALT, id),
                    spec,
                });
            }
        }
        plan
    }
}

/// One head's slot in a [`ModelRequest::head_plan`]: grid position,
/// derived seeds, and the trace spec to synthesize it from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadPlan {
    /// Layer index within the model.
    pub layer: usize,
    /// Head index within the layer.
    pub head: usize,
    /// Stable head identity passed to
    /// [`crate::HeadRequest::with_head_id`] (pins the pruner seed).
    pub head_id: u64,
    /// Seed of the [`sprint_workloads::TraceGenerator`] that
    /// synthesizes this head's Q/K/V.
    pub trace_seed: u64,
    /// Seed of the head's proxy task (when accuracy is requested).
    pub task_seed: u64,
    /// The synthesis spec (the profile's statistics at this layer's
    /// sequence length).
    pub spec: TraceSpec,
}

/// Aggregated execution metrics of a set of heads: counted energy and
/// latency (Table II unit energies over the *actually executed*
/// pruning decisions), memory-controller data movement, pruning
/// totals, and optional proxy-task accuracy means.
///
/// Roll-ups add: a layer's rollup is the [`PerfRollup::merge`] of its
/// heads, the model total the merge of its layers. The property tests
/// pin `serve() == Σ run_head()` through this type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfRollup {
    /// Heads aggregated.
    pub heads: u64,
    /// Counted latency in cycles (heads execute back-to-back on one
    /// accelerator, so cycles add across heads and layers).
    pub cycles: u64,
    /// Counted energy by category (Table II units).
    pub energy: EnergyBreakdown,
    /// K/V vectors fetched from main memory (zero when the engine was
    /// built with memory accounting off).
    pub fetched_vectors: u64,
    /// K/V vectors reused on chip via spatial locality.
    pub reused_vectors: u64,
    /// Bytes moved over the memory channels.
    pub bytes_fetched: u64,
    /// Queries thresholded in ReRAM (zero in the digital modes).
    pub queries_pruned: u64,
    /// Scores surviving pruning, summed over live queries.
    pub kept_scores: u64,
    /// Live query × live key pairs (the kept-fraction denominator).
    pub live_pairs: u64,
    /// ReRAM cell faults detected by post-program scrubs (zero without
    /// an attached [`sprint_reram::FaultModel`]).
    pub faults_detected: u64,
    /// Write-verify reprogram retries spent repairing faulty columns.
    pub fault_retries: u64,
    /// Faulty key columns routed to spare columns after repair.
    pub remapped_columns: u64,
    /// Heads demoted to the exact digital pipeline by the engine's
    /// [`crate::FaultPolicy`].
    pub heads_demoted: u64,
    accuracy_sum: f64,
    perplexity_sum: f64,
    agreement_sum: f64,
    scored_heads: u64,
}

impl PerfRollup {
    /// Counts one executed head into a fresh rollup.
    ///
    /// Energy and latency follow the paper's counting methodology
    /// (operation counts × Table II unit energies), but the counts are
    /// grounded in the head's *actual* outputs: kept sets come from
    /// `response.decisions`, data movement from the memory controller,
    /// analog operation counts from the pruner. The category split
    /// matches Fig. 13 (`sprint_energy::Category`).
    ///
    /// `live` is the head's live-token count and `seq_len` its full
    /// padded length; `mode` must be the mode the head actually ran
    /// under.
    ///
    /// This is the execution-grounded producer for [`crate::cost`]; the
    /// profile-driven one (synthetic kept sets, the figure drivers) is
    /// `sprint-core::counting`.
    pub fn from_response(
        mode: ExecutionMode,
        config: &SprintConfig,
        head_dim: usize,
        seq_len: usize,
        live: usize,
        response: &HeadResponse,
    ) -> PerfRollup {
        let d_bits = (head_dim * 8) as u64;
        let cpt = head_dim.div_ceil(config.head_dim.max(1)) as u64;
        let cpp = config.cycles_per_pair();
        let corelets = config.corelets.max(1);

        let live_q = live.min(response.decisions.len());
        let decisions = &response.decisions[..live_q];
        let kept_scores: u64 = decisions.iter().map(|d| d.kept_count() as u64).sum();

        let mut counts = OpCounts {
            // Embeddings written to ReRAM once per head (Q, K, V).
            reram_write_bits: 3 * seq_len as u64 * d_bits,
            // Data movement: what the controller actually fetched, plus
            // the streamed query vectors.
            reram_read_bits: response.memory_stats.bytes_fetched * 8 + live as u64 * d_bits,
            onchip_write_bits: response.memory_stats.fetched_vectors * d_bits,
            // On-chip compute: which units run depends on the pipeline
            // (head totals: live×live dense pairs vs. summed kept scores).
            ..OpCounts::on_chip(mode, (live * live) as u64, kept_scores, cpt, d_bits)
        };
        // In-ReRAM pruning: the pruner's own operation counters plus
        // the CopyQ/ReadP command payloads (analog modes only; a head
        // demoted before its first query charges none of them).
        let p = &response.prune_stats;
        if p.queries_pruned > 0 {
            counts.in_memory_ops = p.in_memory_ops;
            counts.comparator_firings = p.comparator_firings;
            counts.command_bits = live as u64 * (head_dim as u64 * 4) + (live * live) as u64 / 8;
        }

        // Latency: the memory stream is query-averaged.
        let mean_fetch = if live_q > 0 {
            response
                .memory_stats
                .fetched_vectors
                .div_ceil(live_q as u64)
        } else {
            0
        };
        let mem = (mean_fetch as f64 * cpp).ceil() as u64;
        let mut loads = vec![0u64; corelets];
        let cycles = decisions
            .iter()
            .map(|d| {
                let worst = worst_corelet_load(d.iter_kept(), &mut loads);
                query_cycles(mode, live, worst, corelets, cpt, mem)
            })
            .sum();

        PerfRollup {
            heads: 1,
            cycles,
            energy: counts.energy(&config.energies),
            fetched_vectors: response.memory_stats.fetched_vectors,
            reused_vectors: response.memory_stats.reused_vectors,
            bytes_fetched: response.memory_stats.bytes_fetched,
            queries_pruned: p.queries_pruned,
            kept_scores,
            live_pairs: (live_q * live) as u64,
            faults_detected: response.faults.faults_detected,
            fault_retries: response.faults.retries,
            remapped_columns: response.faults.remapped_columns,
            heads_demoted: u64::from(response.faults.demoted),
            accuracy_sum: 0.0,
            perplexity_sum: 0.0,
            agreement_sum: 0.0,
            scored_heads: 0,
        }
    }

    /// Adds one head's proxy-task score to the accuracy means.
    pub fn record_score(&mut self, score: TaskScore) {
        self.accuracy_sum += score.accuracy;
        self.perplexity_sum += score.perplexity;
        self.agreement_sum += score.agreement;
        self.scored_heads += 1;
    }

    /// Accumulates another rollup into this one.
    pub fn merge(&mut self, other: &PerfRollup) {
        self.heads += other.heads;
        self.cycles += other.cycles;
        self.energy += other.energy;
        self.fetched_vectors += other.fetched_vectors;
        self.reused_vectors += other.reused_vectors;
        self.bytes_fetched += other.bytes_fetched;
        self.queries_pruned += other.queries_pruned;
        self.kept_scores += other.kept_scores;
        self.live_pairs += other.live_pairs;
        self.faults_detected += other.faults_detected;
        self.fault_retries += other.fault_retries;
        self.remapped_columns += other.remapped_columns;
        self.heads_demoted += other.heads_demoted;
        self.accuracy_sum += other.accuracy_sum;
        self.perplexity_sum += other.perplexity_sum;
        self.agreement_sum += other.agreement_sum;
        self.scored_heads += other.scored_heads;
    }

    /// Fraction of live scores that survived pruning.
    pub fn kept_fraction(&self) -> f64 {
        self.kept_scores as f64 / self.live_pairs.max(1) as f64
    }

    /// Fraction of on-chip K/V traffic served by reuse rather than
    /// fresh fetches.
    pub fn reuse_fraction(&self) -> f64 {
        self.reused_vectors as f64 / (self.reused_vectors + self.fetched_vectors).max(1) as f64
    }

    /// Mean proxy-task score over the scored heads, or `None` when
    /// accuracy evaluation was off.
    pub fn accuracy(&self) -> Option<TaskScore> {
        if self.scored_heads == 0 {
            return None;
        }
        let n = self.scored_heads as f64;
        Some(TaskScore {
            accuracy: self.accuracy_sum / n,
            perplexity: self.perplexity_sum / n,
            agreement: self.agreement_sum / n,
        })
    }
}

/// The roll-up of one layer of a served pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer index within the model.
    pub layer: usize,
    /// The layer's sequence length.
    pub seq_len: usize,
    /// Aggregated metrics of the layer's heads.
    pub perf: PerfRollup,
}

/// The aggregated outcome of one [`ModelRequest`]: per-layer reports
/// plus the whole-model [`PerfRollup`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResponse {
    /// The served model's display name.
    pub model: String,
    /// The mode every head of the pass executed under.
    pub mode: ExecutionMode,
    /// One report per layer, in layer order.
    pub layers: Vec<LayerReport>,
    /// Whole-model roll-up (the merge of all layer reports).
    pub total: PerfRollup,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> ModelProfile {
        ModelProfile::from_model(&ModelConfig::bert_base())
            .with_layers(2)
            .with_heads(3)
            .with_seq_len(32)
    }

    #[test]
    fn profile_builders_shape_the_grid() {
        let p = tiny_profile();
        assert_eq!(p.layers(), 2);
        assert_eq!(p.heads(), 3);
        assert_eq!(p.head_count(), 6);
        assert_eq!(p.layer_seq_lens(), &[32, 32]);
        let ragged = p.clone().with_layer_seq_lens(vec![32, 24, 16]);
        assert_eq!(ragged.layers(), 3);
        assert_eq!(ragged.layer_spec(1).seq_len, 24);
        assert_eq!(ragged.layer_spec(2).seq_len, 16);
        // Extending repeats the last layer's length.
        assert_eq!(
            ragged.with_layers(5).layer_seq_lens(),
            &[32, 24, 16, 16, 16]
        );
        assert!(p.source().is_some());
    }

    #[test]
    fn custom_profiles_validate() {
        assert!(ModelProfile::custom("ok", 16, 2, vec![32], 0.5, 0.0, 0.8).is_ok());
        assert!(ModelProfile::custom("no-layers", 16, 2, vec![], 0.5, 0.0, 0.8).is_err());
        assert!(ModelProfile::custom("no-heads", 16, 0, vec![32], 0.5, 0.0, 0.8).is_err());
        assert!(ModelProfile::custom("zero-seq", 16, 2, vec![32, 0], 0.5, 0.0, 0.8).is_err());
        assert!(ModelProfile::custom("zero-d", 0, 2, vec![32], 0.5, 0.0, 0.8).is_err());
    }

    #[test]
    fn head_plan_is_deterministic_and_position_keyed() {
        let req = ModelRequest::new(tiny_profile()).with_seed(5);
        let a = req.head_plan();
        let b = req.head_plan();
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        // Every head gets distinct seeds, and seeds differ from the
        // trace/task streams.
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.layer, i / 3);
            assert_eq!(p.head, i % 3);
            assert_ne!(p.head_id, p.trace_seed);
            assert_ne!(p.trace_seed, p.task_seed);
            for q in &a[..i] {
                assert_ne!(p.head_id, q.head_id);
                assert_ne!(p.trace_seed, q.trace_seed);
            }
        }
        // A different base seed moves every derived seed.
        let other = ModelRequest::new(tiny_profile()).with_seed(6).head_plan();
        assert!(a
            .iter()
            .zip(&other)
            .all(|(x, y)| x.head_id != y.head_id && x.trace_seed != y.trace_seed));
    }

    #[test]
    fn rollup_merge_adds_and_scores_average() {
        let mut a = PerfRollup {
            heads: 1,
            cycles: 10,
            kept_scores: 5,
            live_pairs: 10,
            fetched_vectors: 3,
            reused_vectors: 1,
            ..PerfRollup::default()
        };
        a.record_score(TaskScore {
            accuracy: 0.8,
            perplexity: 10.0,
            agreement: 0.9,
        });
        let mut b = a;
        b.record_score(TaskScore {
            accuracy: 0.6,
            perplexity: 20.0,
            agreement: 0.7,
        });
        a.merge(&b);
        assert_eq!(a.heads, 2);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.kept_scores, 10);
        assert!((a.kept_fraction() - 0.5).abs() < 1e-12);
        assert!((a.reuse_fraction() - 0.25).abs() < 1e-12);
        let score = a.accuracy().unwrap();
        assert!((score.accuracy - (0.8 + 0.8 + 0.6) / 3.0).abs() < 1e-12);
        assert_eq!(PerfRollup::default().accuracy(), None);
    }
}
