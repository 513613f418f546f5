//! The per-query pipeline of §V that [`crate::Engine::run_head`] and
//! [`crate::DecodeSession::step`] share: threshold a query in ReRAM,
//! then look its kept keys up on chip. A decode step is the same query
//! over a longer history; only the recompute kernels differ, because a
//! head's quantized softmax range spans the whole head.

use sprint_attention::{softmax_inplace_tier, PruneDecision, SimdTier};
use sprint_memory::{MemoryController, MemoryStats};
use sprint_reram::{InMemoryPruner, ThresholdSpec};

use crate::{SprintConfig, SprintError};

/// The analog rows of consecutive queries `q_rows`, thresholded by one
/// pruner call: the comparators test each query against the pruner's
/// keys; the rest of each `keys`-long decision (padding) stays pruned.
/// `scores` (one `keys`-long row per query), when given, receives the
/// approximate scores with every pruned position masked to `-inf`.
pub(crate) fn analog_rows(
    pruner: &mut InMemoryPruner,
    q_rows: &[f32],
    threshold: f32,
    spec: &ThresholdSpec,
    keys: usize,
    scores: Option<&mut [f32]>,
) -> Result<Vec<PruneDecision>, SprintError> {
    let live = pruner.keys();
    let n = q_rows.len() / pruner.embedding();
    let mut flags: Vec<Vec<bool>> = (0..n).map(|_| vec![true; keys]).collect();
    let mut rows: Vec<&mut [bool]> = flags.iter_mut().map(|f| &mut f[..live]).collect();
    match scores {
        None => pruner.prune_rows_into(q_rows, threshold, spec, &mut rows, None)?,
        Some(scores) => {
            let mut live_scores: Vec<&mut [f32]> = scores
                .chunks_exact_mut(keys)
                .map(|row| &mut row[..live])
                .collect();
            pruner.prune_rows_into(q_rows, threshold, spec, &mut rows, Some(&mut live_scores))?;
            for (row, pruned) in scores.chunks_exact_mut(keys).zip(&flags) {
                for (score, &p) in row.iter_mut().zip(pruned) {
                    if p {
                        *score = f32::NEG_INFINITY;
                    }
                }
            }
        }
    }
    Ok(flags.into_iter().map(PruneDecision::new).collect())
}

/// NoRecompute's output row: softmax over the masked approximate
/// `scores` in place, then each key with a positive probability adds
/// its value row `v_row(j)` into the zeroed `out`.
pub(crate) fn approx_output_row<'v>(
    scores: &mut [f32],
    tier: SimdTier,
    v_row: impl Fn(usize) -> &'v [f32],
    out: &mut [f32],
) {
    softmax_inplace_tier(scores, tier);
    for (j, &p) in scores.iter().enumerate() {
        if p > 0.0 {
            for (o, &vx) in out.iter_mut().zip(v_row(j)) {
                *o += p * vx;
            }
        }
    }
}

/// Fetch accounting over a decision slice: the controller in `slot`
/// (built over `config` on first use) is cold-reset and takes each
/// kept set over the first `live` keys. It shares no state with the
/// pruner, so this runs after the prune loop. Zeroed when nothing is
/// live.
pub(crate) fn fetch_stats(
    slot: &mut Option<MemoryController>,
    config: &SprintConfig,
    decisions: &[PruneDecision],
    live: usize,
) -> Result<MemoryStats, SprintError> {
    if decisions.is_empty() || live == 0 {
        return Ok(MemoryStats::default());
    }
    let controller = cold_controller(slot, config)?;
    account(controller, decisions, live)?;
    Ok(controller.stats())
}

/// The controller in `slot` (built over `config` on first use),
/// cold-reset for a new head.
pub(crate) fn cold_controller<'a>(
    slot: &'a mut Option<MemoryController>,
    config: &SprintConfig,
) -> Result<&'a mut MemoryController, SprintError> {
    let controller = match slot {
        Some(controller) => controller,
        None => slot.insert(config.memory_controller()?),
    };
    controller.reset_cold();
    Ok(controller)
}

/// Drives `controller` through each kept set over the first `live`
/// keys, in order (the controller's residency depends on the order).
pub(crate) fn account(
    controller: &mut MemoryController,
    decisions: &[PruneDecision],
    live: usize,
) -> Result<(), SprintError> {
    for d in decisions {
        controller.process_query(&d.as_slice()[..live])?;
    }
    Ok(())
}
