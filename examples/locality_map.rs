//! Spatial-locality visualization: the Fig. 2 pruning map and the
//! Fig. 3 overlap-vs-random comparison, plus a live walk of the memory
//! controller's spatial-locality split.
//!
//! ```sh
//! cargo run -p sprint-examples --example locality_map --release
//! ```

use sprint_core::experiments::{fig2, fig3, Scale};
use sprint_energy::TimingParams;
use sprint_memory::{MemoryController, MemoryGeometry};
use sprint_workloads::{ModelConfig, TraceGenerator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale {
        seq_cap: 512,
        accuracy_seq: 128,
        seed: 0x10c,
    };

    println!("{}", fig2(&scale)?);
    println!();
    println!("{}", fig3(&scale)?);

    // Walk the memory controller over a real trace to show what it
    // fetches and reuses query by query.
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(96);
    let trace = TraceGenerator::new(5).generate(&spec)?;
    let mut controller = MemoryController::new(MemoryGeometry::default(), TimingParams::default())?;
    println!("\nMemory controller on the first queries of a BERT-like head:");
    println!(
        "{:>6} {:>6} {:>8} {:>8}",
        "query", "kept", "fetches", "reuses"
    );
    for i in 0..8.min(trace.live_tokens()) {
        let pruned: Vec<bool> = (0..trace.seq_len())
            .map(|j| trace.reference_decisions()[i].is_pruned(j))
            .collect();
        let outcome = controller.process_query(&pruned)?;
        println!(
            "{:>6} {:>6} {:>8} {:>8}",
            i,
            trace.reference_decisions()[i].kept_count(),
            outcome.fetched_keys.len(),
            outcome.reused_keys.len()
        );
    }
    println!("\nafter the first query, fetches collapse to the few keys whose");
    println!("relevance just changed — the data reuse SPRINT's SLD engine banks on;");
    println!("a key that left the kept set and returns is still on chip, not refetched.");
    Ok(())
}
