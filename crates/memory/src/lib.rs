//! The SPRINT memory subsystem (§V).
//!
//! Models the off-chip ReRAM main memory side of SPRINT:
//!
//! * [`MemoryGeometry`] — channel/bank/row layout with the paper's
//!   non-interleaved key organization: each key vector occupies one
//!   memory-mat column, and **adjacent key vectors are distributed
//!   across different channels** for bandwidth under spatially-local
//!   fetch patterns;
//! * [`MemoryCommand`] — conventional ACT/PRE/RD/WR plus the paper's
//!   two new commands, [`MemoryCommand::CopyQ`] (ship query MSBs to the
//!   in-memory query buffer; sets a start bit to trigger thresholding)
//!   and [`MemoryCommand::ReadP`] (collect the binary pruning vector);
//! * [`TimingChecker`] — validates command streams against
//!   tRCD/tRP/tCL/tRRD/tFAW and the new `tAxTh` constraint between a
//!   triggering `CopyQ` and the earliest `ReadP`;
//! * [`Residency`] — the on-chip K/V buffer and its look-up tables
//!   (§VI), under SLD-pinned or plain LRU replacement
//!   ([`ResidencyPolicy`]): the one model of what a kept set must
//!   fetch. Looking a pruning vector's kept keys up in it is the
//!   spatial-locality detection of Eqs. 4–5, splitting them into
//!   *memory requests* (kept, not on chip) and *locality hits* (kept,
//!   already on chip);
//! * [`MemoryRequestGenerator`] — the per-channel MRG engine with its
//!   base register + shared up-counter address generation;
//! * [`ChannelScheduler`] and [`MemoryController`] — an FR-FCFS-style
//!   backend and the frontend orchestration of the
//!   threshold-fetch-compute flow over one unbounded [`Residency`],
//!   with cycle and energy accounting.
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
//! assert_eq!(outcome.fetched_keys, vec![0, 5]);
//! assert!(outcome.reused_keys.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod buffers;
mod command;
mod controller;
mod engines;
mod error;
mod layout;
mod scheduler;
mod timing;

pub use buffers::{Residency, ResidencyPolicy};
pub use command::{CommandTrace, MemoryCommand, TimedCommand};
pub use controller::{MemoryController, MemoryStats, QueryOutcome};
pub use engines::{KeyAddress, MemoryRequestGenerator};
pub use error::MemoryError;
pub use layout::{KeyLocation, MemoryGeometry};
pub use scheduler::{ChannelScheduler, ScheduleResult};
pub use timing::TimingChecker;
