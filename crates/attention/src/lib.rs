//! Self-attention math substrate for the SPRINT reproduction.
//!
//! Implements the arithmetic layer of the paper (§II-A background and the
//! §VI on-chip datapath): a small row-major [`Matrix`] type, symmetric
//! fixed-point quantization for the 8-bit QK/V datapath (12-bit softmax
//! inputs, 16-bit attention outputs), exact and hardware (two-LUT)
//! softmax, one float attention kernel (dense attention is its unpruned
//! case) with learned-threshold runtime pruning in the style of
//! LeOPArd, and the error and recall metrics used by the accuracy
//! studies of Figs. 5 and 9.
//!
//! # Example
//!
//! ```
//! use sprint_attention::{pruned_attention_with, AttentionConfig, Matrix, Workspace};
//!
//! # fn main() -> Result<(), sprint_attention::AttentionError> {
//! let d = 4;
//! let q = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]])?;
//! let k = q.clone();
//! let v = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]])?;
//! // Dense attention is the pruned kernel at a threshold that prunes nothing.
//! let cfg = AttentionConfig::new(d);
//! let (out, decisions) =
//!     pruned_attention_with(&q, &k, &v, &cfg, f32::MIN, None, &mut Workspace::new())?;
//! assert_eq!(out.output.rows(), 2);
//! assert!(decisions.iter().all(|d| d.kept_count() == 2));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod attention;
mod decode;
mod error;
mod fixed;
mod matrix;
mod metrics;
mod paged;
mod pruning;
pub mod reference;
pub mod simd;
mod softmax;
mod workspace;

pub use attention::{
    pruned_attention_rows, pruned_attention_with, quantized_attention_output_with,
    quantized_attention_with, AttentionConfig, AttentionOutput, AttentionRows, PaddingMask,
    QuantizedAttentionOutput, MASK_NEG,
};
pub use decode::{pruned_attention_decode_with, quantized_attention_decode_with, KvCache, KvDelta};
pub use error::AttentionError;
pub use fixed::{quantize_matrix, QuantParams, QuantizedMatrix};
pub use matrix::Matrix;
pub use metrics::{mean_abs_error, prune_set_overlap};
pub use paged::{PagePool, DEFAULT_PAGE_BYTES};
pub use pruning::{calibrate_threshold, pruning_stats, PruneDecision, PruningStats};
pub use simd::{active_tier, avx2_available, sanitize_tier, SimdTier};
pub use softmax::{softmax_exact, softmax_inplace, softmax_inplace_tier, SoftmaxLut};
pub use workspace::Workspace;
