//! The fault side of the key store: the fault model, scrub, repair and
//! the spare-column remap.

use super::{InMemoryPruner, ARRAY_COLS, ARRAY_ROWS};
use crate::{FaultMap, FaultModel, FaultSite, RepairOutcome, ReramError};

impl InMemoryPruner {
    /// Attaches (or detaches, with `None`) a hard-fault model, stamping
    /// it onto every crossbar tile. Attachment is retroactive and
    /// overlay-based: no noise draw is spent, so a detach restores
    /// fault-free behavior bit-for-bit. Changing the model also clears
    /// any spare-column remap, which was derived under the old fault
    /// pattern.
    pub fn set_fault_model(&mut self, fault: Option<FaultModel>) {
        self.fault = fault;
        self.remapped.clear();
        for row_arrays in &mut self.tiles {
            for arr in row_arrays {
                arr.set_fault_model(fault);
            }
        }
    }

    /// Scrubs the whole programmed key set: transposed-reads every key
    /// and compares the readout against the intended (write-verified)
    /// digital shadow, returning the map of every disagreeing cell.
    /// Each scanned key costs one transposed read in the hardware
    /// stats. Without a fault model the map is always clean.
    ///
    /// Scrubbing is only ever invoked explicitly by the layer above —
    /// programming and extending never scrub implicitly, so their
    /// hardware-stats contracts are unchanged.
    ///
    /// # Errors
    ///
    /// Propagates read errors (none occur on a consistent pruner).
    pub fn scrub(&mut self) -> Result<FaultMap, ReramError> {
        let mut sites = Vec::new();
        for j in 0..self.s {
            self.scrub_key_into(j, &mut sites)?;
        }
        Ok(FaultMap {
            keys_scanned: self.s,
            sites,
        })
    }

    /// Scrubs a single key (the decode path's per-append check).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] for a bad key index.
    pub fn scrub_key(&mut self, j: usize) -> Result<FaultMap, ReramError> {
        self.check_key(j)?;
        let mut sites = Vec::new();
        self.scrub_key_into(j, &mut sites)?;
        Ok(FaultMap {
            keys_scanned: 1,
            sites,
        })
    }

    /// Appends key `j`'s faulty cells (transposed readout vs. intended
    /// shadow) to `sites`, charging one transposed read.
    fn scrub_key_into(&mut self, j: usize, sites: &mut Vec<FaultSite>) -> Result<(), ReramError> {
        let slot = j % ARRAY_COLS;
        for (rt, arr) in self.tiles[j / ARRAY_COLS].iter().enumerate() {
            let read = arr.column_codes(slot)?;
            let intended = arr.intended_column(slot)?;
            for (r, (&got, &want)) in read.iter().zip(intended).enumerate() {
                if got != i32::from(want) {
                    sites.push(FaultSite {
                        crossbar: arr.identity(),
                        row: rt * ARRAY_ROWS + r,
                        col: j,
                    });
                }
            }
        }
        self.stats.transposed_reads += 1;
        Ok(())
    }

    /// Attempts to repair every faulty key in `map` by reprogramming
    /// its columns from the intended digital shadow with write-verify
    /// and bounded retry (`max_attempts` per column; backoff advances
    /// the program epoch, which re-rolls transient upsets). The
    /// returned outcome counts retries and deterministic backoff ticks
    /// and re-scrubs the touched keys into `remaining` — permanent
    /// faults survive and stay listed there.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] if `map` names a key
    /// this pruner does not hold.
    pub fn repair(
        &mut self,
        map: &FaultMap,
        max_attempts: u32,
    ) -> Result<RepairOutcome, ReramError> {
        let mut outcome = RepairOutcome::default();
        let faulty = map.faulty_keys();
        for &j in &faulty {
            self.check_key(j)?;
            let slot = j % ARRAY_COLS;
            for arr in self.tiles[j / ARRAY_COLS].iter_mut() {
                let intended = arr.intended_column(slot)?.to_vec();
                let program = arr.program_column_verified(slot, &intended, max_attempts)?;
                outcome.retries += u64::from(program.attempts.saturating_sub(1));
                outcome.backoff_ticks += program.backoff_ticks;
            }
        }
        outcome.remaining.keys_scanned = faulty.len();
        for &j in &faulty {
            self.scrub_key_into(j, &mut outcome.remaining.sites)?;
        }
        Ok(outcome)
    }

    /// Remaps `keys` to verified fault-free spare columns: their scores
    /// are thereafter routed from the exact digital shadow instead of
    /// the faulty analog columns ([`InMemoryPruner::prune_query`]
    /// substitutes them before the comparator). Replaces any previous
    /// remap; a full reprogram or fault-model change clears it.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::IndexOutOfRange`] if any key is out of
    /// range.
    pub fn set_remapped(&mut self, keys: &[usize]) -> Result<(), ReramError> {
        for &j in keys {
            self.check_key(j)?;
        }
        self.remapped = keys.iter().copied().collect();
        Ok(())
    }

    /// [`ReramError::IndexOutOfRange`] unless key `j` is programmed.
    fn check_key(&self, j: usize) -> Result<(), ReramError> {
        if j >= self.s {
            return Err(ReramError::IndexOutOfRange {
                what: "key",
                index: j,
                bound: self.s,
            });
        }
        Ok(())
    }
}
