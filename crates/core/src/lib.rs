//! SPRINT: sparse attention acceleration with synergistic in-memory
//! pruning and on-chip recomputation.
//!
//! This is the top-level crate of the reproduction: it assembles the
//! substrates (`sprint-reram`, `sprint-memory`, `sprint-attention`,
//! `sprint-workloads`, `sprint-energy`) and the engine's cost model
//! (`sprint_engine::cost`) into
//!
//! * [`SprintConfig`] — the S/M/L hardware configurations of Table I;
//! * [`HeadProfile`] / [`counting`] — the operation-counting
//!   performance and energy simulator of §VII, reproducing Figs. 1 and
//!   10–13 and Table III;
//! * [`experiments`] — one driver per paper table/figure, each
//!   emitting an [`ExperimentResult`] with the same rows/series the
//!   paper reports.
//!
//! # Example
//!
//! ```
//! use sprint_core::{ExecutionMode, HeadProfile, SprintConfig};
//!
//! // Count one BERT-like head on S-SPRINT vs its baseline.
//! let profile = HeadProfile::synthetic(128, 96, 0.25, 0.85, 7);
//! let cfg = SprintConfig::small();
//! let base = sprint_core::counting::simulate_head(&profile, &cfg, ExecutionMode::Baseline);
//! let sprint = sprint_core::counting::simulate_head(&profile, &cfg, ExecutionMode::Sprint);
//! assert!(sprint.energy.total() < base.energy.total());
//! assert!(sprint.cycles < base.cycles);
//! ```

pub mod ablations;
pub mod counting;
pub mod experiments;

mod accuracy;
mod ffn;
mod prior_art;
mod profile;
mod report;

pub use accuracy::{
    bit_sensitivity, evaluate_scenarios, mean_degradation, AccuracyScenario, ScenarioScores,
};
pub use counting::{ExecutionMode, HeadPerf};
pub use ffn::{end_to_end, EndToEnd, FfnConfig};
pub use prior_art::{sprint_metrics, AcceleratorMetrics, PriorArt};
pub use profile::{HeadProfile, SyntheticHeadSpec};
pub use report::{geomean, ExperimentResult};
// The hardware configuration and the error type live in
// `sprint-engine` (the serving front door); re-exported here for the
// experiment drivers' callers.
pub use sprint_engine::{SprintConfig, SprintError};
