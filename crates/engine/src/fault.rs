//! Fault-recovery policy and degradation accounting for the engine.
//!
//! The substrate layer (`sprint-reram`) detects hard ReRAM faults —
//! [`sprint_reram::FaultModel`] injects them, scrub passes locate them,
//! write-verified reprogramming repairs the repairable ones. What to do
//! about the *residual* faults (stuck cells that no retry can fix) is a
//! serving-layer decision, and [`FaultPolicy`] names the options the
//! engine supports, in increasing order of intervention:
//!
//! 1. **Monitor** — count faults, serve the degraded analog result;
//! 2. **Retry** — repair with bounded write-verify retries, then serve
//!    with whatever remains;
//! 3. **Remap** — after repair, route residual faulty key columns to
//!    verified spare columns (their thresholding scores come from the
//!    digital shadow, modeling fault-free spares);
//! 4. **Demote** — after repair, fall back to the exact on-chip
//!    digital pipeline for the whole head (the `Dense` datapath), so
//!    the request completes with full accuracy at dense cost;
//! 5. **Fail** — after repair, surface the first residual fault as
//!    [`crate::SprintError::Reram`] with structured cell coordinates.
//!
//! Every policy except `Fail` guarantees the request **completes
//! without an error**: degradation is visible only in the
//! [`FaultReport`] attached to the response. Recovery is deterministic
//! — fault maps derive from crossbar identity (the construction seed),
//! never from scheduling — so responses stay bit-identical across
//! worker counts even with faults injected.

use sprint_reram::{FaultMap, InMemoryPruner, ReramError};

use crate::SprintError;

/// What the engine does about residual ReRAM faults found by the
/// post-program scrub of a head's crossbars (see the module docs for
/// the escalation ladder).
///
/// The default is `Demote { max_attempts: 3 }`: bounded repair, then
/// graceful degradation to the exact digital pipeline — every request
/// completes, accuracy is never silently lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Detect and count faults; serve the degraded analog result as-is
    /// (no repair, no fallback). The accuracy-vs-fault-rate sweeps run
    /// under this policy so the raw degradation stays measurable.
    Monitor,
    /// Repair faulty columns with up to `max_attempts` write-verify
    /// reprogram attempts each, then serve with whatever remains.
    Retry {
        /// Write-verify attempts per faulty column (≥ 1).
        max_attempts: u32,
    },
    /// Repair, then route residual faulty key columns to verified
    /// spare columns: their thresholding scores are substituted from
    /// the digital shadow. Falls back to demotion when more columns
    /// are faulty than spares exist.
    Remap {
        /// Write-verify attempts per faulty column (≥ 1).
        max_attempts: u32,
        /// Spare columns available per head's crossbar set.
        spare_columns: usize,
    },
    /// Repair, then demote the head to the exact on-chip digital
    /// pipeline (the `Dense` datapath) if any fault remains.
    Demote {
        /// Write-verify attempts per faulty column (≥ 1).
        max_attempts: u32,
    },
    /// Repair, then fail the request with
    /// [`sprint_reram::ReramError::ProgramFault`] carrying the first
    /// residual fault's cell coordinates.
    Fail {
        /// Write-verify attempts per faulty column (≥ 1).
        max_attempts: u32,
    },
}

impl Default for FaultPolicy {
    /// Bounded repair (3 attempts), then graceful degradation to the
    /// exact digital pipeline.
    fn default() -> Self {
        FaultPolicy::Demote { max_attempts: 3 }
    }
}

/// Per-head fault-handling outcome, attached to every
/// [`crate::HeadResponse`]. All-zero (the [`Default`]) when the engine
/// has no fault model or the scrub came back clean, so fault-free
/// responses compare equal to pre-fault-support ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultReport {
    /// Faulty cells the scrub detected (before repair).
    pub faults_detected: u64,
    /// Distinct key columns those cells live in.
    pub faulty_columns: u64,
    /// Write-verify reprogram retries spent repairing (beyond each
    /// column's first attempt).
    pub retries: u64,
    /// Exponential-backoff ticks consumed by those retries.
    pub backoff_ticks: u64,
    /// Key columns routed to spare columns after repair.
    pub remapped_columns: u64,
    /// Whether the head was demoted to the exact digital pipeline.
    pub demoted: bool,
    /// Set when residual faults were served as-is under
    /// `Monitor`/`Retry` (degraded analog scores reached the softmax).
    residual_faults: bool,
}

impl FaultReport {
    /// Whether this head served a degraded or fallback result (any
    /// fault survived to influence execution). Detection plus a fully
    /// successful repair does **not** count as degraded.
    pub fn degraded(&self) -> bool {
        self.demoted || self.remapped_columns > 0 || self.residual_faults
    }
}

/// Runs the policy ladder over a scrubbed fault map: repair (except
/// under `Monitor`), then resolve the residual per the policy. Returns
/// the filled report; `report.demoted` tells the caller to fall back
/// to the digital pipeline. `Fail` surfaces the first residual fault
/// as an error.
pub(crate) fn resolve_faults(
    pruner: &mut InMemoryPruner,
    policy: FaultPolicy,
    map: FaultMap,
) -> Result<FaultReport, SprintError> {
    let mut report = FaultReport {
        faults_detected: map.cell_count() as u64,
        faulty_columns: map.faulty_keys().len() as u64,
        ..FaultReport::default()
    };
    if map.is_clean() {
        return Ok(report);
    }
    let residual = match policy {
        FaultPolicy::Monitor => map,
        FaultPolicy::Retry { max_attempts }
        | FaultPolicy::Remap { max_attempts, .. }
        | FaultPolicy::Demote { max_attempts }
        | FaultPolicy::Fail { max_attempts } => {
            let outcome = pruner.repair(&map, max_attempts.max(1))?;
            report.retries = outcome.retries;
            report.backoff_ticks = outcome.backoff_ticks;
            outcome.remaining
        }
    };
    if residual.is_clean() {
        return Ok(report);
    }
    match policy {
        FaultPolicy::Monitor | FaultPolicy::Retry { .. } => {
            report.residual_faults = true;
        }
        FaultPolicy::Remap { spare_columns, .. } => {
            // Union with columns already remapped (a decode session
            // accumulates them across steps); a fresh head starts from
            // an empty set.
            let mut keys = pruner.remapped_keys();
            for j in residual.faulty_keys() {
                if !keys.contains(&j) {
                    keys.push(j);
                }
            }
            if keys.len() <= spare_columns {
                keys.sort_unstable();
                pruner.set_remapped(&keys)?;
                report.remapped_columns = keys.len() as u64;
            } else {
                report.demoted = true;
            }
        }
        FaultPolicy::Demote { .. } => report.demoted = true,
        FaultPolicy::Fail { .. } => {
            let site = residual.first_site().expect("residual map is not clean");
            return Err(SprintError::Reram(ReramError::ProgramFault {
                crossbar: site.crossbar,
                row: site.row,
                col: site.col,
            }));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_bounded_repair_then_demote() {
        assert_eq!(
            FaultPolicy::default(),
            FaultPolicy::Demote { max_attempts: 3 }
        );
    }

    #[test]
    fn default_report_is_clean_and_not_degraded() {
        let r = FaultReport::default();
        assert_eq!(r.faults_detected, 0);
        assert!(!r.degraded());
    }

    #[test]
    fn degraded_tracks_any_surviving_fault() {
        let mut r = FaultReport {
            retries: 4, // repaired: not degraded
            ..FaultReport::default()
        };
        assert!(!r.degraded());
        r.remapped_columns = 1;
        assert!(r.degraded());
        let demoted = FaultReport {
            demoted: true,
            ..FaultReport::default()
        };
        assert!(demoted.degraded());
    }
}
