//! The five workloads. Each generates its inputs from the seed and hands
//! the program only those inputs, through the repository's front-door API
//! (`Engine`, `DecodeSession`, `ModelServer`, `Server`, `minihttp::Client`,
//! `PerfRollup`).

use sprint_engine::{derive_head_seed, Engine, EngineBuilder, PerfRollup, SprintConfig};

use crate::report::Values;

pub mod decode_churn;
pub mod http;
pub mod http_decode;
pub mod http_serve;
pub mod prefill;

/// Seed of every engine under test. Fixed: `--seed` varies the inputs,
/// not the simulated hardware's noise streams' base.
pub const ENGINE_SEED: u64 = 42;

/// The `index`-th seed of input stream `stream` (trace seeds, schedules,
/// request seeds each have their own stream). `--seed` is the only
/// source of randomness; everything else is derived from it here.
pub fn input_seed(seed: u64, stream: u64, index: u64) -> u64 {
    derive_head_seed(derive_head_seed(seed, stream), index)
}

/// The engine every workload runs: `SprintConfig::medium()`, the default
/// noise model and SIMD tier, the fixed engine seed.
pub fn engine_builder() -> EngineBuilder {
    Engine::builder(SprintConfig::medium()).seed(ENGINE_SEED)
}

/// Mean of `f` over `items` (0 for none).
pub fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len().max(1) as f64
}

/// The kept fraction and memory-layer counts of `ops` heads rolled up
/// into `total`, per head.
pub fn rollup_layers(total: &PerfRollup, ops: usize, layers: &mut Values) {
    let per_op = |x: u64| x as f64 / ops as f64;
    layers.insert("reram.kept_fraction", total.kept_fraction());
    layers.insert(
        "memory.fetched_vectors_per_op",
        per_op(total.fetched_vectors),
    );
    layers.insert("memory.reused_vectors_per_op", per_op(total.reused_vectors));
    layers.insert("memory.reuse_fraction", total.reuse_fraction());
    layers.insert("memory.bytes_fetched_per_op", per_op(total.bytes_fetched));
}
