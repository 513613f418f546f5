//! Cross-crate property tests: invariants that span substrate
//! boundaries.

use proptest::prelude::*;

use sprint_energy::TimingParams;
use sprint_engine::cost::{assign_tokens, MappingPolicy};
use sprint_memory::{MemoryController, MemoryGeometry, MemoryRequestGenerator};
use sprint_workloads::{TraceGenerator, TraceSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Controller split -> per-channel MRG -> union must equal exactly
    /// the fetched set, with every key on its home channel.
    #[test]
    fn sld_and_mrg_compose_without_loss(
        prev in proptest::collection::vec(proptest::bool::ANY, 32..96),
        cur_bits in proptest::collection::vec(proptest::bool::ANY, 32..96),
    ) {
        let n = prev.len().min(cur_bits.len());
        let geometry = MemoryGeometry::default();
        let mut controller = MemoryController::new(geometry, TimingParams::default()).unwrap();
        controller.process_query(&prev[..n]).unwrap();
        let before = controller.stats().fetched_vectors;
        let outcome = controller.process_query(&cur_bits[..n]).unwrap();
        prop_assert_eq!(outcome.fetched, controller.fetched_keys().len());
        let mut requests = vec![false; n];
        for &j in controller.fetched_keys() {
            requests[j] = true;
        }
        let mut fetched = Vec::new();
        for ch in 0..geometry.channels {
            let mrg = MemoryRequestGenerator::new(ch, geometry).unwrap();
            for addr in mrg.generate(&requests) {
                prop_assert_eq!(addr.location.channel, addr.key % geometry.channels);
                fetched.push(addr.key);
            }
        }
        fetched.sort_unstable();
        // The controller's own per-channel split scheduled that many fetches.
        prop_assert_eq!(controller.stats().fetched_vectors - before, fetched.len() as u64);
        prop_assert_eq!(fetched, controller.fetched_keys());
    }

    /// Trace decisions assigned to CORELETs cover exactly the kept set
    /// regardless of policy, and interleaving is never less balanced.
    #[test]
    fn trace_masks_partition_over_corelets(seed in 0u64..50, corelets in 1usize..6) {
        let spec = TraceSpec {
            seq_len: 64,
            head_dim: 16,
            prune_rate: 0.7,
            padding_fraction: 0.2,
            target_overlap: 0.8,
        };
        let trace = TraceGenerator::new(seed).generate(&spec).unwrap();
        for d in trace.reference_decisions().iter().take(trace.live_tokens()) {
            let kept = d.kept_indices();
            for policy in [MappingPolicy::Sequential, MappingPolicy::Interleaved] {
                let a = assign_tokens(&kept, corelets, policy, spec.seq_len);
                let mut all: Vec<usize> = a.concat();
                all.sort_unstable();
                prop_assert_eq!(&all, &kept);
            }
        }
    }

    /// The trace generator respects its contract for arbitrary valid
    /// specs: pruning rate within tolerance, padded tail fully pruned.
    #[test]
    fn trace_generator_contract(
        seed in 0u64..30,
        prune in 0.3f64..0.9,
        pad in 0.0f64..0.6,
    ) {
        let spec = TraceSpec {
            seq_len: 96,
            head_dim: 16,
            prune_rate: prune,
            padding_fraction: pad,
            target_overlap: 0.8,
        };
        let trace = TraceGenerator::new(seed).generate(&spec).unwrap();
        let live = trace.live_tokens();
        prop_assert!((trace.stats().mean_prune_rate
            - (prune * live as f64 + (spec.seq_len - live) as f64) / spec.seq_len as f64)
            .abs() < 0.08);
        for d in trace.reference_decisions() {
            for j in live..spec.seq_len {
                prop_assert!(d.is_pruned(j));
            }
        }
    }
}
