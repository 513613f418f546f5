//! Shared helpers for the SPRINT benchmark harness.
//!
//! The criterion benches (one per paper table/figure) and the `report`
//! binary both drive the experiment drivers in
//! [`sprint_core::experiments`]; this crate holds the scale presets
//! they share and [`report`], the owner of `BENCH_report.json`.

use sprint_core::experiments::Scale;

pub mod report;

/// The scale benches run at: large enough to show the paper's shapes,
/// small enough for criterion's repeated sampling.
pub fn bench_scale() -> Scale {
    Scale {
        seq_cap: 512,
        accuracy_seq: 96,
        seed: 0xbe4c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(bench_scale().seq_cap < Scale::full().seq_cap);
    }
}
