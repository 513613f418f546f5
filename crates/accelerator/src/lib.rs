//! The SPRINT on-chip accelerator (§VI).
//!
//! The digital half of the paper is `N` CORELETs, each an independent
//! attention pipeline of a QK processing unit (1-D 64-way 8×8-bit
//! MAC), a softmax unit and a V processing unit, fed from banked K/V
//! buffers. This crate models the two structural pieces the
//! experiments study directly:
//!
//! * [`MappingPolicy`] / [`assign_tokens`] — sequential vs
//!   token-interleaved distribution of unpruned keys across CORELETs,
//!   and the imbalance statistics of Fig. 8;
//! * [`KvBuffer`] — the on-chip K/V buffer with LRU replacement and
//!   residency lookup (the per-CORELET "look-up-tables \[that\] record
//!   which key and value vectors are currently present on chip"), the
//!   subject of the residency ablation.
//!
//! There is no CORELET timing model here: per-query latency (worst
//! CORELET under token interleaving vs. the memory stream) is the
//! §VII counting rule, owned by `sprint_engine::cost`.
//!
//! # Example
//!
//! ```
//! use sprint_accelerator::{assign_tokens, imbalance_ratio, MappingPolicy};
//!
//! // Clustered kept keys: interleaving balances, sequential does not.
//! let kept: Vec<usize> = (40..72).collect();
//! let seq = assign_tokens(&kept, 4, MappingPolicy::Sequential, 128);
//! let int = assign_tokens(&kept, 4, MappingPolicy::Interleaved, 128);
//! assert!(imbalance_ratio(&seq) > imbalance_ratio(&int));
//! ```

mod buffers;
mod error;
mod mapping;

pub use buffers::{Eviction, KvBuffer};
pub use error::AcceleratorError;
pub use mapping::{assign_tokens, imbalance_ratio, mean_imbalance, MappingPolicy};
