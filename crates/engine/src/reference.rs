//! The frozen pre-engine pipeline, kept as the equivalence oracle.
//!
//! [`run_head_frozen`] is the seed repository's per-head pipeline,
//! line for line: it builds a **fresh** pruner, memory
//! controller and workspace on every call and pays every per-head
//! allocation the engine now amortizes. The equivalence tests prove
//! that [`crate::Engine`] — with its reprogrammed crossbars, cold-reset
//! controller and pooled scratch — produces bit-identical
//! [`HeadResponse`]s, no matter how many heads of whatever shapes ran
//! through it before.
//!
//! The digital modes ([`crate::ExecutionMode::Dense`] /
//! [`crate::ExecutionMode::Oracle`]) reproduce the pre-engine accuracy
//! drivers: a direct `pruned_attention_with` call with `f32::MIN` or the
//! learned threshold respectively.

use sprint_attention::{
    pruned_attention_with, quantized_attention_with, softmax_inplace, Matrix, PruneDecision,
    Workspace,
};
use sprint_reram::{InMemoryPruner, NoiseModel, ThresholdSpec};

use crate::{
    engine::validate_request, ExecutionMode, FaultReport, HeadRequest, HeadResponse, SprintConfig,
    SprintError,
};

/// Runs one head through the pre-engine pipeline with every piece of
/// substrate state built from scratch.
///
/// For self-shaped, trace-driven requests in the
/// [`ExecutionMode::Sprint`] / [`ExecutionMode::NoRecompute`] modes
/// this is exactly the seed pipeline (its `recompute` flag mapped
/// onto the two modes); the generalizations the engine
/// added — cross-shaped unpadded heads, zero-live heads — are handled
/// by the same rules so the oracle covers the full request space.
///
/// # Errors
///
/// Same conditions as [`crate::Engine::run_head`].
pub fn run_head_frozen(
    request: &HeadRequest,
    config: &SprintConfig,
    noise: NoiseModel,
    seed: u64,
    spec: &ThresholdSpec,
    mode: ExecutionMode,
) -> Result<HeadResponse, SprintError> {
    let (live_q, live_k) = validate_request(request)?;
    let (q, k, v) = (request.q(), request.k(), request.v());
    let (s_q, s_k) = (q.rows(), k.rows());

    match mode {
        ExecutionMode::Dense | ExecutionMode::Oracle => {
            let threshold = match mode {
                ExecutionMode::Dense => f32::MIN,
                _ => request.threshold(),
            };
            let padding = request.padding();
            let (out, decisions) = pruned_attention_with(
                q,
                k,
                v,
                &request.config(),
                threshold,
                padding.as_ref(),
                &mut Workspace::new(),
            )?;
            let mut memory_stats = sprint_memory::MemoryStats::default();
            if live_q > 0 && live_k > 0 {
                let mut controller = config.memory_controller()?;
                controller.start_new_head();
                for d in decisions.iter().take(live_q) {
                    controller.process_query(&d.as_slice()[..live_k])?;
                }
                memory_stats = controller.stats();
            }
            Ok(HeadResponse {
                output: out.output,
                decisions,
                prune_stats: sprint_reram::PruneHardwareStats::default(),
                memory_stats,
                faults: FaultReport::default(),
            })
        }
        ExecutionMode::Sprint | ExecutionMode::NoRecompute => {
            let recompute = mode == ExecutionMode::Sprint;
            if live_q == 0 || live_k == 0 {
                let all_pruned = PruneDecision::new(vec![true; s_k]);
                return Ok(HeadResponse {
                    output: Matrix::zeros(s_q, v.cols())?,
                    decisions: (0..s_q).map(|_| all_pruned.clone()).collect(),
                    prune_stats: sprint_reram::PruneHardwareStats::default(),
                    memory_stats: sprint_memory::MemoryStats::default(),
                    faults: FaultReport::default(),
                });
            }

            // In-memory pruning over the live region only (the 2-D
            // reduction filters padded rows/columns before memory ever
            // sees them).
            let q_live = q.prefix_rows(live_q)?;
            let k_live = k.prefix_rows(live_k)?;
            let mut pruner =
                InMemoryPruner::new(&q_live, &k_live, request.config().scale(), noise, seed)?;

            let mut controller = config.memory_controller()?;
            controller.start_new_head();

            let threshold = request.threshold();
            let mut decisions = Vec::with_capacity(s_q);
            let mut approx_rows: Vec<Vec<f32>> = Vec::with_capacity(live_q);
            for i in 0..live_q {
                let outcome = pruner.prune_query(q_live.row(i), threshold, spec)?;
                // Extend the live-region decision to the full sequence:
                // padded keys are always pruned.
                let mut pruned = vec![true; s_k];
                for (j, flag) in pruned.iter_mut().enumerate().take(live_k) {
                    *flag = outcome.decision.is_pruned(j);
                }
                controller.process_query(&pruned[..live_k])?;
                let mut row = vec![f32::NEG_INFINITY; s_k];
                for j in 0..live_k {
                    if !pruned[j] {
                        row[j] = outcome.approx_scores[j];
                    }
                }
                approx_rows.push(row);
                decisions.push(PruneDecision::new(pruned));
            }
            for _ in live_q..s_q {
                decisions.push(PruneDecision::new(vec![true; s_k]));
            }

            let mut ws = Workspace::new();
            let output = if recompute {
                // On-chip recompute: full-precision (8-bit datapath)
                // scores for every surviving key.
                quantized_attention_with(
                    q,
                    k,
                    v,
                    &request.config(),
                    Some(&decisions),
                    &mut Workspace::new(),
                )?
                .output
            } else {
                // No recompute: the approximate in-memory scores drive
                // the softmax and weighted sum directly. The workspace
                // stages each probability row; surviving keys
                // accumulate row-wise.
                let mut out = Matrix::zeros(s_q, v.cols())?;
                let prow = ws.prob_row(s_k);
                for (i, row) in approx_rows.iter().enumerate() {
                    prow.copy_from_slice(row);
                    softmax_inplace(prow);
                    let orow = out.row_mut(i);
                    for (j, &p) in prow.iter().enumerate() {
                        if p > 0.0 {
                            for (o, &vx) in orow.iter_mut().zip(v.row(j)) {
                                *o += p * vx;
                            }
                        }
                    }
                }
                out
            };

            Ok(HeadResponse {
                output,
                decisions,
                prune_stats: pruner.stats(),
                memory_stats: controller.stats(),
                faults: FaultReport::default(),
            })
        }
    }
}
