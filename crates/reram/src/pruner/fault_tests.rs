//! Fault model, scrub, repair and remap tests of the pruner.

use super::tests::{digital_decision, random_matrix};
use super::*;
use crate::{FaultMap, FaultSite};
use proptest::prelude::*;

#[test]
fn quiet_fault_model_keeps_the_pruner_bit_identical() {
    let q = random_matrix(4, 64, 201);
    let k = random_matrix(96, 64, 202);
    let noise = NoiseModel::default();
    let mut plain = InMemoryPruner::new(&q, &k, 0.125, noise, 7).unwrap();
    let mut stamped = InMemoryPruner::new(&q, &k, 0.125, noise, 7).unwrap();
    stamped.set_fault_model(Some(FaultModel::new(55)));
    let spec = ThresholdSpec::default();
    for i in 0..q.rows() {
        let a = plain.prune_query(q.row(i), 0.02, &spec).unwrap();
        let b = stamped.prune_query(q.row(i), 0.02, &spec).unwrap();
        assert_eq!(a, b, "query {i}");
    }
    assert!(stamped.scrub().unwrap().is_clean());
}

#[test]
fn fault_free_scrub_is_clean_and_charges_reads() {
    let q = random_matrix(1, 32, 211);
    let k = random_matrix(20, 32, 212);
    let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 3).unwrap();
    let before = p.stats();
    let map = p.scrub().unwrap();
    assert!(map.is_clean());
    assert_eq!(map.keys_scanned, 20);
    assert_eq!(p.stats().delta_since(&before).transposed_reads, 20);
}

#[test]
fn repair_clears_transients_completely() {
    let q = random_matrix(1, 32, 221);
    let k = random_matrix(16, 32, 222);
    let fault = FaultModel::new(9).with_transient_rate(0.1).unwrap();
    let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 31).unwrap();
    p.set_fault_model(Some(fault));
    let map = p.scrub().unwrap();
    assert!(!map.is_clean(), "10% upsets over 512 cells must show");
    let outcome = p.repair(&map, 64).unwrap();
    assert!(
        outcome.remaining.is_clean(),
        "transients must clear: {:?}",
        outcome.remaining
    );
    assert!(outcome.retries > 0);
    assert!(p.scrub().unwrap().is_clean(), "repair persists");
}

#[test]
fn permanent_faults_survive_repair() {
    let q = random_matrix(1, 32, 231);
    let k = random_matrix(16, 32, 232);
    let fault = FaultModel::new(4).with_stuck_rates(0.1, 0.1).unwrap();
    let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 41).unwrap();
    p.set_fault_model(Some(fault));
    let map = p.scrub().unwrap();
    assert!(!map.is_clean());
    let outcome = p.repair(&map, 8).unwrap();
    assert_eq!(
        outcome.remaining.sites, map.sites,
        "stuck cells shrug off every retry"
    );
}

#[test]
fn dead_columns_flag_every_key() {
    let q = random_matrix(1, 32, 241);
    let k = random_matrix(24, 32, 242);
    let fault = FaultModel::new(6).with_line_rates(1.0, 0.0).unwrap();
    let mut p = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::default(), 51).unwrap();
    p.set_fault_model(Some(fault));
    let map = p.scrub().unwrap();
    assert_eq!(map.faulty_keys(), (0..24).collect::<Vec<_>>());
}

#[test]
fn remapped_keys_score_from_the_digital_shadow() {
    // Ideal noise: clean analog columns are exact, so once the
    // faulty keys are remapped the decision must equal the digital
    // reference despite heavy stuck faults.
    let q = random_matrix(4, 64, 251);
    let k = random_matrix(96, 64, 252);
    let fault = FaultModel::new(12).with_stuck_rates(0.1, 0.1).unwrap();
    let mut p = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::ideal(), 61).unwrap();
    p.set_fault_model(Some(fault));
    let map = p.scrub().unwrap();
    assert!(!map.is_clean());
    p.set_remapped(&map.faulty_keys()).unwrap();
    assert_eq!(p.remapped_keys(), map.faulty_keys());
    let spec = ThresholdSpec::default();
    for i in 0..q.rows() {
        let out = p.prune_query(q.row(i), 0.02, &spec).unwrap();
        let reference = digital_decision(&p, q.row(i), 0.02);
        assert_eq!(out.decision, reference, "query {i}");
    }
}

#[test]
fn scrub_key_and_repair_validate_indices() {
    let q = random_matrix(1, 16, 261);
    let k = random_matrix(8, 16, 262);
    let mut p = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 71).unwrap();
    assert!(p.scrub_key(8).is_err());
    assert!(p.scrub_key(7).unwrap().is_clean());
    assert!(p.set_remapped(&[8]).is_err());
    let bogus = FaultMap {
        keys_scanned: 1,
        sites: vec![FaultSite {
            crossbar: 0,
            row: 0,
            col: 9,
        }],
    };
    assert!(p.repair(&bogus, 2).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn prop_permanent_fault_maps_survive_reprogram_cycles(
        seed in 0u64..40,
        fault_seed in 0u64..40,
    ) {
        // The determinism contract: a permanent-fault map derives
        // from crossbar identity alone, so independently built
        // pruners agree and reprogram/reset cycles change nothing.
        let q = random_matrix(2, 64, seed ^ 0xaaaa);
        let k = random_matrix(160, 64, seed ^ 0xbbbb);
        let fault = FaultModel::new(fault_seed)
            .with_stuck_rates(0.05, 0.05).unwrap()
            .with_line_rates(0.05, 0.02).unwrap();
        let noise = NoiseModel::default();
        let mut a = InMemoryPruner::new(&q, &k, 0.125, noise, seed).unwrap();
        a.set_fault_model(Some(fault));
        let map = a.scrub().unwrap();
        let mut b = InMemoryPruner::new(&q, &k, 0.125, noise, seed).unwrap();
        b.set_fault_model(Some(fault));
        prop_assert_eq!(&map, &b.scrub().unwrap());
        a.reprogram(&q, &k, 0.125, noise, seed).unwrap();
        prop_assert_eq!(&map, &a.scrub().unwrap());
    }
}
