//! ReRAM crossbar substrate for SPRINT's in-memory thresholding (§III).
//!
//! Implements the analog half of the paper's contribution:
//!
//! * the crossbar tile (crate-private) — Wan et al.'s transposable MLC
//!   ReRAM array \[141\]: analog vector-matrix multiplication (Eq. 2)
//!   with per-cell programming variation and per-operation read noise
//!   (*in-situ compute*), and the digital *transposed read* of one
//!   stored key vector;
//! * [`NoiseModel`] — calibrated to the "5-bit-equivalent output
//!   accuracy for a 64-tap dot product" measurement of Hu et al.;
//! * [`InMemoryPruner`] — the complete in-memory thresholding engine:
//!   4-bit MSB key storage, low-precision DAC query drive, analog
//!   scores, analog comparators with a safety margin, and the binary
//!   pruning vector sent back to the memory controller.
//!
//! # Example
//!
//! ```
//! use sprint_attention::Matrix;
//! use sprint_reram::{InMemoryPruner, NoiseModel, ThresholdSpec};
//!
//! # fn main() -> Result<(), sprint_reram::ReramError> {
//! let k = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![-1.0, 0.5]]).unwrap();
//! let q = Matrix::from_rows(&[vec![1.0, 0.2]]).unwrap();
//! let mut pruner = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::ideal(), 7)?;
//! let outcome = pruner.prune_query(q.row(0), 0.0, &ThresholdSpec::default())?;
//! assert_eq!(outcome.decision.len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod crossbar;
mod error;
mod fault;
mod noise;
mod pruner;

pub use error::ReramError;
pub use fault::{CellFault, FaultMap, FaultModel, FaultSite, ProgramOutcome, RepairOutcome};
pub use noise::NoiseModel;
pub use pruner::{
    InMemoryPruner, PruneHardwareStats, PruneOutcome, ThresholdSpec, ARRAY_COLS, ARRAY_ROWS,
};
