//! Workload zoo and synthetic trace generation for the SPRINT
//! reproduction.
//!
//! The paper evaluates six fine-tuned transformer models plus two
//! synthetic long-sequence models (§VII). This crate provides:
//!
//! * [`ModelConfig`] — the eight studied workloads with the paper's
//!   sequence lengths, pruning rates, padding ratios and baseline
//!   accuracies;
//! * [`overlap`] — the exact Eq. (1) hypergeometric expectation of
//!   random adjacent-query overlap (the "Random" bars of Fig. 3);
//! * [`TraceGenerator`] — a synthetic Q/K/V generator calibrated to a
//!   target pruning rate and adjacent-query spatial locality, standing
//!   in for the fine-tuned checkpoints and datasets the paper uses
//!   (see DESIGN.md "Substitutions");
//! * [`ProxyTask`] — the accuracy-proxy task used by the Fig. 5 / Fig. 9
//!   studies;
//! * [`ArrivalSpec`] — synthetic Poisson request-arrival streams that
//!   drive traffic at the HTTP server (`examples/serve_http.rs`, the
//!   `stress_test` harness).
//!
//! # Example
//!
//! ```
//! use sprint_workloads::{ModelConfig, TraceGenerator};
//!
//! let model = ModelConfig::bert_base();
//! // Scale the sequence down for a quick demonstration:
//! let spec = model.trace_spec().with_seq_len(64);
//! let trace = TraceGenerator::new(42).generate(&spec).unwrap();
//! let masks = trace.reference_decisions();
//! assert_eq!(masks.len(), 64);
//! ```

#![warn(missing_docs)]

pub mod overlap;

mod models;
mod stats;
mod task;
mod trace;

pub use models::{Dataset, ModelConfig, ModelKind};
pub use task::{ProxyTask, TaskScore};
pub use trace::{
    Arrival, ArrivalShape, ArrivalSpec, ChurnEvent, ChurnSpec, HeadTrace, TraceGenerator, TraceSpec,
};
