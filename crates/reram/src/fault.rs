//! Hard-fault model for the ReRAM substrate.
//!
//! [`crate::NoiseModel`] covers the *soft* analog inaccuracies the
//! paper folds into a Gaussian (§III-A ①). Real crossbar deployments
//! additionally suffer *hard* device faults: cells stuck at the
//! highest (G-on) or lowest (G-off) conductance, whole bitline/wordline
//! defects, endurance wear that drifts the programmed level, and
//! transient program upsets that a rewrite clears. [`FaultModel`]
//! injects all of these deterministically.
//!
//! # Determinism contract
//!
//! Fault state is a **pure hash** of the fault seed, the owning
//! array's construction seed, the cell coordinates and (for transient
//! upsets) the column's program epoch. The model never draws from the
//! crossbar's noise RNG, so
//!
//! * attaching a fault model perturbs **zero** noise draws — a
//!   fault-free configuration is bit-identical with or without the
//!   model plumbed through, and
//! * the fault pattern depends only on crossbar *identity*, never on
//!   scheduling — the same head sees the same faults at any worker
//!   count.
//!
//! Fault sets are *nested* in the rate: every cell hashes to one
//! uniform draw, and a cell is faulty iff that draw falls below the
//! rate, so raising a rate only ever adds faults. Accuracy-vs-rate
//! sweeps are therefore monotone by construction.

use crate::ReramError;

/// splitmix64 finalizer: the same mixer the engine uses for head-seed
/// derivation, reused here so fault hashes are well distributed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_COLUMN: u64 = 0xc01;
const SALT_ROW: u64 = 0x501;
const SALT_CELL: u64 = 0xce11;
const SALT_TRANSIENT: u64 = 0x7a5;
const SALT_WEAR: u64 = 0x3ea;
const SALT_DRIFT: u64 = 0xd1f;

/// The fault state of one cell, resolved by [`FaultModel::cell_fault`].
///
/// Resolution priority: a column fault dominates a row fault, which
/// dominates a per-cell stuck fault, then a transient upset, then
/// wear. A cell reports at most one fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellFault {
    /// The cell operates normally.
    None,
    /// Stuck at the highest conductance: reads as the maximum code.
    StuckOn,
    /// Stuck at the lowest conductance (or on a dead line): reads 0.
    StuckOff,
    /// Endurance wear: the cell retains only this fraction of its
    /// programmed level (in `(0, 1]`). Small drifts round back to the
    /// intended digital code — they pass write-verify but still
    /// perturb the analog weight.
    Worn(f64),
    /// A transient program upset: the write did not take (reads 0),
    /// but reprogramming at a later epoch can clear it.
    Transient,
}

/// Deterministic, seed-derived hard-fault injector.
///
/// All rates are probabilities in `[0, 1]`; a model with every rate at
/// zero is *quiet* and injects nothing. See the module docs for the
/// determinism contract.
///
/// # Example
///
/// ```
/// use sprint_reram::{CellFault, FaultModel};
///
/// let quiet = FaultModel::new(1);
/// assert!(quiet.is_quiet());
/// assert_eq!(quiet.cell_fault(7, 0, 0, 0), CellFault::None);
///
/// let heavy = FaultModel::new(1).with_stuck_rates(0.5, 0.5).unwrap();
/// assert!(!heavy.is_quiet());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    stuck_on_rate: f64,
    stuck_off_rate: f64,
    column_rate: f64,
    row_rate: f64,
    wear_rate: f64,
    wear_drift: f64,
    transient_rate: f64,
    seed: u64,
}

fn validate_rate(name: &'static str, v: f64) -> Result<(), ReramError> {
    if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
        return Err(ReramError::InvalidParameter(format!(
            "{name} = {v} must be a probability in [0, 1]"
        )));
    }
    Ok(())
}

impl FaultModel {
    /// A quiet model (every rate zero) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultModel {
            stuck_on_rate: 0.0,
            stuck_off_rate: 0.0,
            column_rate: 0.0,
            row_rate: 0.0,
            wear_rate: 0.0,
            wear_drift: 0.0,
            transient_rate: 0.0,
            seed,
        }
    }

    /// A mixed fault population scaled by one knob, for sweeps: `rate`
    /// splits evenly between stuck-on and stuck-off cells, an eighth of
    /// it hits whole columns, a sixteenth whole rows, the full rate
    /// drives wear (30 % drift) and a quarter of it transient upsets.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] unless `rate` is a
    /// probability.
    pub fn uniform(rate: f64, seed: u64) -> Result<Self, ReramError> {
        validate_rate("rate", rate)?;
        FaultModel::new(seed)
            .with_stuck_rates(rate / 2.0, rate / 2.0)?
            .with_line_rates(rate / 8.0, rate / 16.0)?
            .with_wear(rate, 0.3)?
            .with_transient_rate(rate / 4.0)
    }

    /// Sets the per-cell stuck-at-G-on / stuck-at-G-off rates.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] for rates outside
    /// `[0, 1]` or summing above 1.
    pub fn with_stuck_rates(mut self, stuck_on: f64, stuck_off: f64) -> Result<Self, ReramError> {
        validate_rate("stuck_on_rate", stuck_on)?;
        validate_rate("stuck_off_rate", stuck_off)?;
        if stuck_on + stuck_off > 1.0 {
            return Err(ReramError::InvalidParameter(format!(
                "stuck rates {stuck_on} + {stuck_off} exceed 1"
            )));
        }
        self.stuck_on_rate = stuck_on;
        self.stuck_off_rate = stuck_off;
        Ok(self)
    }

    /// Sets the whole-column (bitline) and whole-row (wordline) fault
    /// rates. A faulty line reads 0 in every cell it crosses.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] for rates outside
    /// `[0, 1]`.
    pub fn with_line_rates(mut self, column: f64, row: f64) -> Result<Self, ReramError> {
        validate_rate("column_rate", column)?;
        validate_rate("row_rate", row)?;
        self.column_rate = column;
        self.row_rate = row;
        Ok(self)
    }

    /// Sets the endurance-wear rate and the maximum conductance drift
    /// of a worn cell (a worn cell retains between `1 - drift` and 1
    /// of its programmed level, the exact fraction hashed per cell).
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] for values outside
    /// `[0, 1]`.
    pub fn with_wear(mut self, rate: f64, drift: f64) -> Result<Self, ReramError> {
        validate_rate("wear_rate", rate)?;
        validate_rate("wear_drift", drift)?;
        self.wear_rate = rate;
        self.wear_drift = drift;
        Ok(self)
    }

    /// Sets the transient program-upset rate. Transient faults are
    /// re-rolled per program *epoch*, so a bounded reprogram-retry with
    /// backoff (which advances the epoch) can clear them.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] for a rate outside
    /// `[0, 1]`.
    pub fn with_transient_rate(mut self, rate: f64) -> Result<Self, ReramError> {
        validate_rate("transient_rate", rate)?;
        self.transient_rate = rate;
        Ok(self)
    }

    /// The seed this model hashes fault positions from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether every rate is zero (the model injects nothing).
    pub fn is_quiet(&self) -> bool {
        self.stuck_on_rate == 0.0
            && self.stuck_off_rate == 0.0
            && self.column_rate == 0.0
            && self.row_rate == 0.0
            && self.wear_rate == 0.0
            && self.transient_rate == 0.0
    }

    /// One well-mixed hash per (array, salt, a, b) site.
    fn site_hash(&self, array: u64, salt: u64, a: u64, b: u64) -> u64 {
        mix(self.seed
            ^ mix(array ^ 0xfa17_0000)
            ^ salt
            ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ b.wrapping_mul(0xff51_afd7_ed55_8ccd))
    }

    /// Resolves the fault state of cell `(row, col)` of the array with
    /// construction seed `array`, at program epoch `epoch`.
    ///
    /// Pure: same arguments, same answer — see the module docs.
    pub fn cell_fault(&self, array: u64, row: usize, col: usize, epoch: u64) -> CellFault {
        if self.is_quiet() {
            return CellFault::None;
        }
        if unit(self.site_hash(array, SALT_COLUMN, col as u64, 0)) < self.column_rate
            || unit(self.site_hash(array, SALT_ROW, row as u64, 0)) < self.row_rate
        {
            return CellFault::StuckOff;
        }
        let cell = unit(self.site_hash(array, SALT_CELL, row as u64, col as u64));
        if cell < self.stuck_on_rate {
            return CellFault::StuckOn;
        }
        if cell < self.stuck_on_rate + self.stuck_off_rate {
            return CellFault::StuckOff;
        }
        let t = self.site_hash(array, SALT_TRANSIENT, row as u64, col as u64);
        if unit(mix(t ^ epoch.wrapping_mul(0x2545_f491_4f6c_dd1d))) < self.transient_rate {
            return CellFault::Transient;
        }
        if unit(self.site_hash(array, SALT_WEAR, row as u64, col as u64)) < self.wear_rate {
            let d = unit(self.site_hash(array, SALT_DRIFT, row as u64, col as u64));
            return CellFault::Worn(1.0 - self.wear_drift * d);
        }
        CellFault::None
    }
}

/// The coordinates of one faulty cell, as detected by a scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Construction seed of the crossbar tile holding the cell (the
    /// tile's stable identity across reprogram/reset cycles).
    pub crossbar: u64,
    /// Wordline index within the logical key vector (0..d).
    pub row: usize,
    /// Logical key (bitline column) index within the pruner.
    pub col: usize,
}

/// The result of a scrub pass: every cell whose digital readout
/// disagrees with the intended (write-verified) codes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultMap {
    /// How many keys the scrub covered.
    pub keys_scanned: usize,
    /// Detected faulty cells, in (key, row) scan order.
    pub sites: Vec<FaultSite>,
}

impl FaultMap {
    /// Whether the scrub found no faults.
    pub fn is_clean(&self) -> bool {
        self.sites.is_empty()
    }

    /// Number of faulty cells.
    pub fn cell_count(&self) -> usize {
        self.sites.len()
    }

    /// The distinct faulty key indices, ascending.
    pub fn faulty_keys(&self) -> Vec<usize> {
        let mut keys: Vec<usize> = self.sites.iter().map(|s| s.col).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The first detected site, if any.
    pub fn first_site(&self) -> Option<FaultSite> {
        self.sites.first().copied()
    }
}

/// The outcome of a verified (bounded-retry) column program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramOutcome {
    /// Program attempts performed (at least 1).
    pub attempts: u32,
    /// Total deterministic backoff ticks spent between retries
    /// (attempt-counted: `2^(attempt-1)` per retry, never wall-clock).
    pub backoff_ticks: u64,
    /// Rows still reading back wrong after the final attempt.
    pub faulty_rows: Vec<usize>,
}

impl ProgramOutcome {
    /// Whether the final verify read back every row correctly.
    pub fn verified(&self) -> bool {
        self.faulty_rows.is_empty()
    }
}

/// The outcome of an [`crate::InMemoryPruner::repair`] pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairOutcome {
    /// Retry attempts spent beyond each column's first reprogram.
    pub retries: u64,
    /// Total deterministic backoff ticks spent across all retries.
    pub backoff_ticks: u64,
    /// Faults that survived every retry (permanent faults).
    pub remaining: FaultMap,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_model_never_faults() {
        let m = FaultModel::new(42);
        assert!(m.is_quiet());
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(m.cell_fault(7, r, c, 3), CellFault::None);
            }
        }
    }

    #[test]
    fn cell_fault_is_pure() {
        let m = FaultModel::uniform(0.3, 9).unwrap();
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(m.cell_fault(5, r, c, 2), m.cell_fault(5, r, c, 2));
            }
        }
    }

    #[test]
    fn fault_sets_nest_with_rate() {
        // A cell faulty at a low rate stays faulty at any higher rate:
        // the accuracy sweep's monotonicity rests on this.
        let low = FaultModel::new(3).with_stuck_rates(0.02, 0.02).unwrap();
        let high = FaultModel::new(3).with_stuck_rates(0.2, 0.2).unwrap();
        let mut low_faults = 0;
        for r in 0..64 {
            for c in 0..64 {
                let lf = low.cell_fault(11, r, c, 0);
                if lf != CellFault::None {
                    low_faults += 1;
                    assert_ne!(high.cell_fault(11, r, c, 0), CellFault::None);
                }
            }
        }
        assert!(low_faults > 0, "4% of 4096 cells should fault");
    }

    #[test]
    fn column_fault_kills_every_row() {
        let m = FaultModel::new(1).with_line_rates(1.0, 0.0).unwrap();
        for r in 0..8 {
            assert_eq!(m.cell_fault(2, r, 3, 0), CellFault::StuckOff);
        }
    }

    #[test]
    fn transient_depends_on_epoch_but_permanents_do_not() {
        let m = FaultModel::new(8)
            .with_stuck_rates(0.1, 0.1)
            .unwrap()
            .with_transient_rate(0.5)
            .unwrap();
        let mut epoch_sensitive = 0;
        for r in 0..32 {
            for c in 0..32 {
                let e0 = m.cell_fault(4, r, c, 0);
                let e1 = m.cell_fault(4, r, c, 1);
                if matches!(e0, CellFault::StuckOn | CellFault::StuckOff) {
                    assert_eq!(e0, e1, "permanent fault flipped with epoch");
                }
                if (e0 == CellFault::Transient) != (e1 == CellFault::Transient) {
                    epoch_sensitive += 1;
                }
            }
        }
        assert!(epoch_sensitive > 0, "transients must re-roll per epoch");
    }

    #[test]
    fn wear_drift_stays_in_band() {
        let m = FaultModel::new(2).with_wear(1.0, 0.25).unwrap();
        for r in 0..16 {
            match m.cell_fault(6, r, 0, 0) {
                CellFault::Worn(f) => assert!((0.75..=1.0).contains(&f), "retained {f}"),
                other => panic!("expected wear, got {other:?}"),
            }
        }
    }

    #[test]
    fn rates_are_validated() {
        assert!(FaultModel::new(0).with_stuck_rates(-0.1, 0.0).is_err());
        assert!(FaultModel::new(0).with_stuck_rates(0.6, 0.6).is_err());
        assert!(FaultModel::new(0).with_line_rates(1.1, 0.0).is_err());
        assert!(FaultModel::new(0).with_wear(0.5, f64::NAN).is_err());
        assert!(FaultModel::new(0).with_transient_rate(2.0).is_err());
        assert!(FaultModel::uniform(f64::INFINITY, 0).is_err());
        assert!(FaultModel::uniform(0.05, 0).is_ok());
    }

    #[test]
    fn fault_map_accessors() {
        let site = |col: usize, row: usize| FaultSite {
            crossbar: 9,
            row,
            col,
        };
        let map = FaultMap {
            keys_scanned: 4,
            sites: vec![site(3, 0), site(1, 2), site(3, 5)],
        };
        assert!(!map.is_clean());
        assert_eq!(map.cell_count(), 3);
        assert_eq!(map.faulty_keys(), vec![1, 3]);
        assert_eq!(map.first_site().unwrap().col, 3);
        assert!(FaultMap::default().is_clean());
    }
}
