//! Cross-validation between the two simulation fidelities: the
//! operation-counting model (used for the paper's figures) and the
//! functional system running real data through the cycle-accounted
//! memory controller.

use sprint_core::counting::{simulate_head, ExecutionMode};
use sprint_core::{HeadProfile, SprintConfig};
use sprint_energy::Category;
use sprint_engine::{Engine, HeadRequest, PerfRollup};
use sprint_reram::NoiseModel;
use sprint_workloads::{ModelConfig, TraceGenerator};

#[test]
fn counting_and_functional_fetch_counts_agree_at_ample_capacity() {
    // With buffers larger than the live region, both models reduce to
    // pure SLD behaviour over the same decisions, so the fetch/reuse
    // split must agree closely (the functional run uses noisy analog
    // decisions; the counting model uses the digital reference).
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(96);
    let trace = TraceGenerator::new(0xcafe).generate(&spec).unwrap();
    let cfg = SprintConfig::large(); // 512 pairs >> 52 live tokens

    let engine = Engine::builder(cfg.clone())
        .noise(NoiseModel::ideal())
        .mode(sprint_engine::ExecutionMode::Sprint)
        .seed(3)
        .build()
        .unwrap();
    let functional = engine.run_head(&HeadRequest::from_trace(&trace)).unwrap();

    let profile = HeadProfile::from_trace(&trace);
    let counted = simulate_head(&profile, &cfg, ExecutionMode::Sprint);

    let f_fetched = functional.memory_stats.fetched_vectors as f64;
    let c_fetched = counted.fetched_pairs as f64;
    assert!(
        (f_fetched - c_fetched).abs() / c_fetched.max(1.0) < 0.25,
        "functional fetched {f_fetched} vs counted {c_fetched}"
    );

    let f_total = functional.memory_stats.fetched_vectors + functional.memory_stats.reused_vectors;
    let c_total = counted.fetched_pairs + counted.reused_pairs;
    assert!(
        (f_total as f64 - c_total as f64).abs() / (c_total.max(1) as f64) < 0.1,
        "total kept accesses: functional {f_total} vs counted {c_total}"
    );
}

#[test]
fn the_two_front_doors_price_the_same_decisions_identically() {
    // The figure driver (`simulate_head`) and the served system
    // (`PerfRollup::from_response`) are two count producers for one
    // cost model (`sprint_engine::cost`). Fed the *same* kept sets —
    // the engine's executed decisions, analog noise and all — they
    // must agree to the bit wherever they count the same thing.
    for (seq_len, cfg) in [
        (96, SprintConfig::large()),
        (200, SprintConfig::small()),
        (512, SprintConfig::medium()),
    ] {
        let spec = ModelConfig::bert_base().trace_spec().with_seq_len(seq_len);
        let trace = TraceGenerator::new(0xcafe).generate(&spec).unwrap();
        let engine = Engine::builder(cfg.clone())
            .mode(sprint_engine::ExecutionMode::Sprint)
            .seed(3)
            .build()
            .unwrap();
        let response = engine.run_head(&HeadRequest::from_trace(&trace)).unwrap();
        let executed = HeadProfile {
            seq_len,
            live: trace.live_tokens(),
            head_dim: trace.config().d(),
            kept_per_query: response
                .decisions
                .iter()
                .map(|d| d.kept_indices())
                .collect(),
        };

        let counted = simulate_head(&executed, &cfg, ExecutionMode::Sprint);
        let rolled = PerfRollup::from_response(
            sprint_engine::ExecutionMode::Sprint,
            &cfg,
            executed.head_dim,
            seq_len,
            executed.live,
            &response,
        );

        let at = format!("s = {seq_len} on {}", cfg.name);
        assert_eq!(counted.cycles, rolled.cycles, "{at}");
        assert_eq!(counted.fetched_pairs, rolled.fetched_vectors, "{at}");
        let pj = |c| (counted.energy.get(c).as_pj(), rolled.energy.get(c).as_pj());
        for category in Category::ALL {
            let (counted_pj, rolled_pj) = pj(category);
            if category == Category::OnChipWrite {
                // The open discrepancy (ARCHITECTURE.md, "Cost model"):
                // for the same fetched K/V pairs the figure driver
                // writes K and V (`fetched_pairs · 2 · d_bits`), the
                // roll-up one vector (`fetched_vectors · d_bits`).
                // Pinned so that fixing it is a deliberate re-baseline.
                assert_eq!(counted_pj.to_bits(), (2.0 * rolled_pj).to_bits(), "{at}");
            } else {
                assert_eq!(
                    counted_pj.to_bits(),
                    rolled_pj.to_bits(),
                    "{at}: {category}"
                );
            }
        }
    }
}

#[test]
fn unbounded_sld_pinned_residency_is_the_served_controllers_residency() {
    // The served controller is an unbounded SLD-pinned `Residency`:
    // replaying the decisions the engine executed through a fresh one
    // must land on the engine's own memory statistics.
    use sprint_memory::MemoryController;
    let cfg = SprintConfig::medium();
    for (model, seq_len) in [
        (ModelConfig::gpt2_large(), 256),
        (ModelConfig::bert_base(), 512),
    ] {
        let spec = model.trace_spec().with_seq_len(seq_len);
        let trace = TraceGenerator::new(0xcafe).generate(&spec).unwrap();
        let live = trace.live_tokens();
        for mode in [
            sprint_engine::ExecutionMode::Sprint,
            sprint_engine::ExecutionMode::Oracle,
            sprint_engine::ExecutionMode::Dense,
        ] {
            let engine = Engine::builder(cfg.clone())
                .mode(mode)
                .seed(3)
                .build()
                .unwrap();
            let response = engine.run_head(&HeadRequest::from_trace(&trace)).unwrap();

            let mut controller = MemoryController::new(cfg.memory_geometry(), cfg.timing).unwrap();
            for decision in response.decisions.iter().take(live) {
                controller
                    .process_query(&decision.as_slice()[..live])
                    .unwrap();
            }
            assert_eq!(
                controller.stats(),
                response.memory_stats,
                "{} s = {seq_len} {mode:?}",
                model.name
            );
        }
    }
}

#[test]
fn counting_compute_counts_match_reference_decisions_exactly() {
    let spec = ModelConfig::vit_base().trace_spec().with_seq_len(80);
    let trace = TraceGenerator::new(0xbeef).generate(&spec).unwrap();
    let profile = HeadProfile::from_trace(&trace);
    let counted = simulate_head(&profile, &SprintConfig::medium(), ExecutionMode::Sprint);
    let kept_total: u64 = trace
        .reference_decisions()
        .iter()
        .map(|d| d.kept_count() as u64)
        .sum();
    assert_eq!(counted.qk_dots, kept_total);
    assert_eq!(counted.vpu_dots, kept_total);
    assert_eq!(counted.softmax_ops, kept_total);
}

#[test]
fn cycle_level_memory_controller_sets_a_consistent_latency_floor() {
    // The counting model's per-query memory cycles must not be wildly
    // optimistic against the cycle-level controller: run the same
    // pruning vectors through `sprint-memory` and compare per-query
    // streaming time for the fetch-heavy first query.
    use sprint_memory::MemoryController;
    let spec = ModelConfig::bert_base().trace_spec().with_seq_len(96);
    let trace = TraceGenerator::new(0xfeed).generate(&spec).unwrap();
    let cfg = SprintConfig::small();
    let mut mc = MemoryController::new(cfg.memory_geometry(), cfg.timing).unwrap();
    let live = trace.live_tokens();
    let d0: Vec<bool> = (0..live)
        .map(|j| trace.reference_decisions()[0].is_pruned(j))
        .collect();
    let outcome = mc.process_query(&d0).unwrap();
    let kept0 = trace.reference_decisions()[0].kept_count() as f64;
    // Cycle-level cost of the cold query: thresholding handshake plus
    // the fetch stream. The counting model charges cpp cycles/pair.
    let cycle_cost = outcome.finish.as_u64() as f64;
    let counting_cost = kept0 * cfg.cycles_per_pair();
    assert!(
        cycle_cost > counting_cost * 0.5,
        "cycle-level {cycle_cost} vs counting {counting_cost}: counting must not be >2x optimistic"
    );
    assert!(
        cycle_cost < counting_cost * 40.0,
        "cycle-level {cycle_cost} should stay within an order of magnitude of counting {counting_cost}"
    );
}
