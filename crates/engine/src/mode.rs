//! The functional execution modes of the engine.

/// How the engine executes a head — the four functional pipelines of
/// the paper's Fig. 9 evaluation, replacing the bare `recompute: bool`
/// flag of the pre-engine API.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExecutionMode {
    /// Full SPRINT: analog in-memory thresholding, SLD-driven
    /// selective fetch, and on-chip 8-bit recomputation of the
    /// surviving scores.
    #[default]
    Sprint,
    /// SPRINT without the recompute stage (Fig. 9's third bar): the
    /// approximate analog scores feed the softmax directly.
    NoRecompute,
    /// Dense baseline: no pruning at all — full-precision attention
    /// over the live region with padding masked (Fig. 9's first bar).
    Dense,
    /// Oracle runtime pruning: the learned threshold applied to
    /// *full-precision digital* scores (LeOPArd-style, Fig. 9's second
    /// bar) — the upper bound the analog path approximates.
    Oracle,
}

impl ExecutionMode {
    /// All four modes, in the paper's Fig. 9 bar order.
    pub const ALL: [ExecutionMode; 4] = [
        ExecutionMode::Dense,
        ExecutionMode::Oracle,
        ExecutionMode::NoRecompute,
        ExecutionMode::Sprint,
    ];

    /// Display label (the Fig. 9 bar names).
    pub fn label(self) -> &'static str {
        match self {
            ExecutionMode::Sprint => "SPRINT",
            ExecutionMode::NoRecompute => "SPRINT w/o Recompute",
            ExecutionMode::Dense => "Baseline",
            ExecutionMode::Oracle => "Runtime Pruning",
        }
    }

    /// Whether this mode runs the analog in-memory thresholding path
    /// (and therefore consumes per-head seed randomness).
    pub fn uses_in_memory_pruning(self) -> bool {
        matches!(self, ExecutionMode::Sprint | ExecutionMode::NoRecompute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_fig9_bars() {
        assert_eq!(ExecutionMode::Sprint.label(), "SPRINT");
        assert_eq!(ExecutionMode::Dense.label(), "Baseline");
        assert_eq!(ExecutionMode::Oracle.label(), "Runtime Pruning");
        assert_eq!(ExecutionMode::NoRecompute.label(), "SPRINT w/o Recompute");
    }

    #[test]
    fn only_analog_modes_use_seeds() {
        assert!(ExecutionMode::Sprint.uses_in_memory_pruning());
        assert!(ExecutionMode::NoRecompute.uses_in_memory_pruning());
        assert!(!ExecutionMode::Dense.uses_in_memory_pruning());
        assert!(!ExecutionMode::Oracle.uses_in_memory_pruning());
    }

    #[test]
    fn default_is_full_sprint() {
        assert_eq!(ExecutionMode::default(), ExecutionMode::Sprint);
        assert_eq!(ExecutionMode::ALL.len(), 4);
    }
}
