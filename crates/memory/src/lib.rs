//! The SPRINT memory subsystem (§V).
//!
//! Models the off-chip ReRAM main memory side of SPRINT:
//!
//! * [`MemoryGeometry`] — channel/bank/row layout with the paper's
//!   non-interleaved key organization: each key vector occupies one
//!   memory-mat column, and **adjacent key vectors are distributed
//!   across different channels** for bandwidth under spatially-local
//!   fetch patterns;
//! * [`Residency`] — the on-chip K/V buffer and its look-up tables
//!   (§VI), under SLD-pinned or plain LRU replacement
//!   ([`ResidencyPolicy`]): the one model of what a kept set must
//!   fetch. Looking a pruning vector's kept keys up in it is the
//!   spatial-locality detection of Eqs. 4–5, splitting them into
//!   *memory requests* (kept, not on chip) and *locality hits* (kept,
//!   already on chip);
//! * [`MemoryRequestGenerator`] — the per-channel MRG engine with its
//!   base register + shared up-counter address generation (the
//!   controller splits a query's fetched keys by channel into exactly
//!   the lists these walks emit, in one pass);
//! * [`MemoryController`] — the frontend of the
//!   threshold-fetch-compute flow over one unbounded [`Residency`]: per
//!   query it counts the `CopyQ`/`ReadP` thresholding handshake on
//!   every channel, the fetches and reuses, and each fetch against its
//!   bank's open row. A query costs its own work and allocates nothing
//!   once the controller is warm. Memory time is not simulated here:
//!   the engine's cost model prices it from these counts.
//!
//! # Example
//!
//! ```
//! use sprint_memory::{MemoryController, MemoryGeometry};
//! use sprint_energy::TimingParams;
//!
//! # fn main() -> Result<(), sprint_memory::MemoryError> {
//! let mut mc = MemoryController::new(MemoryGeometry::default(), TimingParams::default())?;
//! // Query 0 keeps keys 0 and 5; everything is a cold miss.
//! let mut pruned = vec![true; 8];
//! pruned[0] = false;
//! pruned[5] = false;
//! let outcome = mc.process_query(&pruned)?;
//! assert_eq!((outcome.fetched, outcome.reused), (2, 0));
//! assert_eq!(mc.fetched_keys(), [0, 5]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod buffers;
mod controller;
mod engines;
mod error;
mod layout;

pub use buffers::{Residency, ResidencyPolicy};
pub use controller::{MemoryController, MemoryStats, QueryOutcome};
pub use engines::{KeyAddress, MemoryRequestGenerator};
pub use error::MemoryError;
pub use layout::{KeyLocation, MemoryGeometry};
