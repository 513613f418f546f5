//! Construction, query, extension and counter tests of the pruner.

use super::query::quantize_symmetric;
use super::*;
use crate::FaultModel;
use sprint_attention::quantize_matrix;

/// A deterministic pseudo-random matrix in [-1, 1].
pub(super) fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) as f32 / 8388608.0) - 1.0
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect()).unwrap()
}

/// The decision of the exact digital MSB scores at threshold `th`.
pub(super) fn digital_decision(pruner: &InMemoryPruner, q_row: &[f32], th: f32) -> PruneDecision {
    let exact = pruner.exact_msb_scores(q_row).unwrap();
    PruneDecision::from_scores(&exact, th)
}

#[test]
fn construction_validates_shapes_and_scale() {
    let k = random_matrix(8, 16, 1);
    let q_bad = random_matrix(4, 8, 2);
    assert!(InMemoryPruner::new(&q_bad, &k, 1.0, NoiseModel::ideal(), 0).is_err());
    let q = random_matrix(4, 16, 2);
    assert!(InMemoryPruner::new(&q, &k, 0.0, NoiseModel::ideal(), 0).is_err());
    assert!(InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 0).is_ok());
}

#[test]
fn ideal_analog_matches_digital_msb_decision() {
    // Invariant 2 of DESIGN.md.
    let q = random_matrix(6, 32, 3);
    let k = random_matrix(40, 32, 4);
    let mut pruner = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::ideal(), 5).unwrap();
    let spec = ThresholdSpec::default();
    for i in 0..q.rows() {
        let out = pruner.prune_query(q.row(i), 0.05, &spec).unwrap();
        let reference = digital_decision(&pruner, q.row(i), 0.05);
        assert_eq!(out.decision, reference, "query {i}");
    }
}

#[test]
fn tiling_covers_multiple_arrays() {
    // 300 keys -> 3 column tiles; d=128 -> 2 row tiles.
    let q = random_matrix(2, 128, 7);
    let k = random_matrix(300, 128, 8);
    let mut pruner = InMemoryPruner::new(&q, &k, 0.09, NoiseModel::ideal(), 9).unwrap();
    let out = pruner
        .prune_query(q.row(0), 0.0, &ThresholdSpec::default())
        .unwrap();
    assert_eq!(out.decision.len(), 300);
    // 3 col tiles x 2 row tiles analog ops for one query.
    assert_eq!(pruner.stats().in_memory_ops, 6);
    let reference = digital_decision(&pruner, q.row(0), 0.0);
    assert_eq!(out.decision, reference, "tiled must equal monolithic");
    // Each key's transposed read, row tiles in order, returns its
    // rounded MSB codes on both sides of every tile border.
    let qk = quantize_matrix(&k, 8).unwrap();
    for j in [0usize, 64, 127, 128, 299] {
        let stored: Vec<i32> = pruner.tiles[j / ARRAY_COLS]
            .iter()
            .flat_map(|arr| arr.column_codes(j % ARRAY_COLS).unwrap())
            .collect();
        let expected: Vec<i32> = (0..128).map(|c| qk.msb_rounded(j, c)).collect();
        assert_eq!(stored, expected, "key {j}");
    }
}

#[test]
fn noise_margin_protects_kept_keys() {
    // Invariant 3: with a 3-sigma margin, in-memory pruning keeps
    // (almost surely) every key the digital threshold keeps.
    let q = random_matrix(8, 64, 11);
    let k = random_matrix(128, 64, 12);
    let noise = NoiseModel::default();
    let mut pruner = InMemoryPruner::new(&q, &k, 0.125, noise, 13).unwrap();
    let spec = ThresholdSpec::analog_with_noise_margin(&noise);
    for i in 0..q.rows() {
        let th = 0.02f32;
        let out = pruner.prune_query(q.row(i), th, &spec).unwrap();
        let reference = digital_decision(&pruner, q.row(i), th);
        for j in 0..reference.len() {
            if reference.is_kept(j) {
                assert!(
                    out.decision.is_kept(j),
                    "query {i} falsely pruned key {j} despite margin"
                );
            }
        }
    }
}

#[test]
fn margin_increases_kept_count() {
    let q = random_matrix(4, 32, 21);
    let k = random_matrix(64, 32, 22);
    let mut a = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::ideal(), 23).unwrap();
    let mut b = InMemoryPruner::new(&q, &k, 0.176, NoiseModel::ideal(), 23).unwrap();
    let no_margin = a
        .prune_query(q.row(0), 0.05, &ThresholdSpec::default())
        .unwrap();
    let with_margin = b
        .prune_query(
            q.row(0),
            0.05,
            &ThresholdSpec {
                score_bits: None,
                margin_fraction: 0.05,
            },
        )
        .unwrap();
    assert!(with_margin.decision.kept_count() >= no_margin.decision.kept_count());
}

#[test]
fn fewer_score_bits_degrade_the_decision() {
    // The Fig. 5 mechanism: coarse score quantization makes the
    // pruning decision diverge from the reference.
    let q = random_matrix(16, 64, 31);
    let k = random_matrix(96, 64, 32);
    let divergence = |bits: u32| -> usize {
        let mut pruner = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::ideal(), 33).unwrap();
        let spec = ThresholdSpec::quantized(bits);
        let mut diffs = 0;
        for i in 0..q.rows() {
            let th = 0.03f32;
            let out = pruner.prune_query(q.row(i), th, &spec).unwrap();
            let reference = digital_decision(&pruner, q.row(i), th);
            diffs += (0..reference.len())
                .filter(|&j| out.decision.is_pruned(j) != reference.is_pruned(j))
                .count();
        }
        diffs
    };
    let coarse = divergence(1);
    let four = divergence(4);
    let fine = divergence(10);
    assert!(
        coarse > four,
        "1-bit ({coarse}) must diverge more than 4-bit ({four})"
    );
    assert!(
        four >= fine,
        "4-bit ({four}) must diverge at least as much as 10-bit ({fine})"
    );
}

#[test]
fn stats_accumulate_per_query() {
    let q = random_matrix(3, 64, 51);
    let k = random_matrix(128, 64, 52);
    let mut pruner = InMemoryPruner::new(&q, &k, 0.125, NoiseModel::ideal(), 53).unwrap();
    let spec = ThresholdSpec::default();
    for i in 0..3 {
        pruner.prune_query(q.row(i), 0.0, &spec).unwrap();
    }
    let stats = pruner.stats();
    assert_eq!(stats.queries_pruned, 3);
    assert_eq!(stats.comparator_firings, 3 * 128);
    assert_eq!(stats.in_memory_ops, 3, "one 64x128 tile per query");
    assert_eq!(stats.dac_conversions, 3 * 64);
}

#[test]
fn prune_query_validates_inputs() {
    let q = random_matrix(1, 16, 61);
    let k = random_matrix(8, 16, 62);
    let mut pruner = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 63).unwrap();
    assert!(pruner
        .prune_query(&[0.0; 8], 0.0, &ThresholdSpec::default())
        .is_err());
    assert!(pruner
        .prune_query(q.row(0), 0.0, &ThresholdSpec::quantized(0))
        .is_err());
    assert!(pruner
        .prune_query(q.row(0), 0.0, &ThresholdSpec::quantized(17))
        .is_err());
    // Caller-owned rows must cover exactly the stored keys.
    let spec = ThresholdSpec::default();
    let (mut flags, mut scores) = ([false; 8], [0.0f32; 8]);
    assert!(pruner
        .prune_rows_into(q.row(0), 0.0, &spec, &mut [&mut flags[..7]], None)
        .is_err());
    assert!(pruner
        .prune_rows_into(
            q.row(0),
            0.0,
            &spec,
            &mut [&mut flags],
            Some(&mut [&mut scores[..7]])
        )
        .is_err());
    pruner
        .prune_rows_into(
            q.row(0),
            0.0,
            &spec,
            &mut [&mut flags],
            Some(&mut [&mut scores]),
        )
        .unwrap();
    let outcome = pruner.prune_query(q.row(0), 0.0, &spec).unwrap();
    assert_eq!(outcome.decision.as_slice(), flags);
    assert_eq!(outcome.approx_scores, scores);
}

#[test]
fn reprogram_is_bit_identical_to_fresh_construction() {
    // The serving-engine contract: a pruner reused across heads of
    // different shapes produces exactly the outputs a freshly built
    // pruner would, noise draws included.
    let noise = NoiseModel::default();
    let heads = [
        (random_matrix(6, 32, 3), random_matrix(40, 32, 4), 0.176f32),
        (random_matrix(4, 128, 5), random_matrix(300, 128, 6), 0.09),
        (random_matrix(8, 64, 7), random_matrix(96, 64, 8), 0.125),
    ];
    let mut reused = InMemoryPruner::new(&heads[0].0, &heads[0].1, heads[0].2, noise, 999).unwrap();
    for (i, (q, k, scale)) in heads.iter().enumerate() {
        let seed = 50 + i as u64;
        reused.reprogram(q, k, *scale, noise, seed).unwrap();
        let mut fresh = InMemoryPruner::new(q, k, *scale, noise, seed).unwrap();
        let spec = ThresholdSpec::default();
        for r in 0..q.rows() {
            let a = reused.prune_query(q.row(r), 0.02, &spec).unwrap();
            let b = fresh.prune_query(q.row(r), 0.02, &spec).unwrap();
            assert_eq!(a, b, "head {i} query {r}");
        }
        assert_eq!(reused.stats(), fresh.stats(), "head {i}");
        assert_eq!(reused.keys(), k.rows());
        assert_eq!(reused.embedding(), k.cols());
    }
}

/// Rows-at-once over `threads` workers, against the one-row loop
/// of a width-1 twin: flags, approximate scores and counters.
fn assert_rows_call_matches_the_row_loop(
    q: &Matrix,
    k: &Matrix,
    noise: NoiseModel,
    spec: ThresholdSpec,
    setup: impl Fn(&mut InMemoryPruner),
    label: &str,
) {
    let s = k.rows();
    let mut serial = InMemoryPruner::new(q, k, 0.125, noise, 17).unwrap();
    setup(&mut serial);
    let mut want_flags = vec![vec![false; s]; q.rows()];
    let mut want_scores = vec![vec![0.0f32; s]; q.rows()];
    for (i, (f, a)) in want_flags.iter_mut().zip(&mut want_scores).enumerate() {
        serial
            .prune_rows_into(q.row(i), 0.02, &spec, &mut [f], Some(&mut [a]))
            .unwrap();
    }
    for threads in 1..=4 {
        let mut wide = InMemoryPruner::new(q, k, 0.5, NoiseModel::ideal(), 3).unwrap();
        wide.set_threads(threads);
        wide.reprogram(q, k, 0.125, noise, 17).unwrap();
        setup(&mut wide);
        let mut flags = vec![vec![true; s]; q.rows()];
        let mut scores = vec![vec![0.0f32; s]; q.rows()];
        let mut flag_rows: Vec<&mut [bool]> = flags.iter_mut().map(|f| &mut f[..]).collect();
        let mut score_rows: Vec<&mut [f32]> = scores.iter_mut().map(|a| &mut a[..]).collect();
        wide.prune_rows_into(
            q.as_slice(),
            0.02,
            &spec,
            &mut flag_rows,
            Some(&mut score_rows),
        )
        .unwrap();
        assert_eq!(flags, want_flags, "{label} at {threads} threads");
        let bits = |rows: &[Vec<f32>]| -> Vec<Vec<u32>> {
            rows.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(&scores),
            bits(&want_scores),
            "{label} at {threads} threads"
        );
        assert_eq!(wide.stats(), serial.stats(), "{label} at {threads} threads");
        assert_eq!(
            wide.full_scale_codes.to_bits(),
            serial.full_scale_codes.to_bits(),
            "{label} at {threads} threads"
        );
    }
}

#[test]
fn the_tile_parallel_rows_call_equals_the_one_row_loop() {
    // 48 keys: one tile; 257: the last tile holds one column; 276:
    // tiles of 128/128/20; d = 128 merges two row tiles per key.
    for (s, d) in [(48usize, 64usize), (257, 64), (276, 64), (276, 128)] {
        let q = random_matrix(9, d, 40 + s as u64);
        let k = random_matrix(s, d, 41 + s as u64);
        for (noise, name) in [
            (NoiseModel::ideal(), "ideal"),
            (NoiseModel::default(), "default"),
        ] {
            for spec in [ThresholdSpec::default(), ThresholdSpec::quantized(5)] {
                let label = format!("s {s} d {d} {name} {spec:?}");
                assert_rows_call_matches_the_row_loop(&q, &k, noise, spec, |_| {}, &label);
            }
        }
        // Spare-column substitutes on both sides of a tile border,
        // under a stuck-cell fault overlay.
        let remap = |p: &mut InMemoryPruner| {
            p.set_fault_model(Some(FaultModel::uniform(0.02, 7).unwrap()));
            p.set_remapped(&[0, s / 2, s - 1]).unwrap();
        };
        let label = format!("s {s} d {d} remapped");
        assert_rows_call_matches_the_row_loop(
            &q,
            &k,
            NoiseModel::default(),
            ThresholdSpec::default(),
            remap,
            &label,
        );
    }
}

#[test]
fn the_rows_call_validates_its_rows() {
    let q = random_matrix(2, 16, 61);
    let k = random_matrix(8, 16, 62);
    let mut pruner = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 63).unwrap();
    let spec = ThresholdSpec::default();
    let (mut a, mut b) = ([false; 8], [false; 8]);
    assert!(pruner
        .prune_rows_into(&q.as_slice()[..16], 0.0, &spec, &mut [&mut a, &mut b], None)
        .is_err());
    let mut scores = [0.0f32; 8];
    assert!(pruner
        .prune_rows_into(
            q.as_slice(),
            0.0,
            &spec,
            &mut [&mut a, &mut b],
            Some(&mut [&mut scores])
        )
        .is_err());
    pruner
        .prune_rows_into(q.as_slice(), 0.0, &spec, &mut [], None)
        .unwrap_err();
    pruner
        .prune_rows_into(&[], 0.0, &spec, &mut [], None)
        .unwrap();
    assert_eq!(pruner.stats().queries_pruned, 0);
}

/// The rows `0..n` of `m` as an owned matrix.
fn prefix(m: &Matrix, n: usize) -> Matrix {
    m.prefix_rows(n).unwrap()
}

#[test]
fn extend_matches_fresh_construction_at_every_length() {
    // The decode contract: growing the programmed key set one row
    // at a time (plus per-step query calibration) is bit-identical
    // to rebuilding the pruner over each prefix, ideal-noise-wise.
    // 300 keys at d = 128 crosses both column- and row-tile
    // boundaries along the way.
    let q_all = random_matrix(48, 128, 71);
    let k_all = random_matrix(300, 128, 72);
    let noise = NoiseModel::ideal();
    let spec = ThresholdSpec::quantized(6); // exercises the full scale
    let start = 260;
    let mut grown =
        InMemoryPruner::new(&prefix(&q_all, 1), &prefix(&k_all, start), 0.09, noise, 5).unwrap();
    for s in start + 1..=300 {
        let q_row = Matrix::from_vec(1, 128, q_all.row(s - start).to_vec()).unwrap();
        let k = prefix(&k_all, s);
        let before = grown.stats();
        let reprogrammed = grown.extend_row(k.row(s - 1), || k.clone()).unwrap();
        grown.calibrate_query(&q_row, true).unwrap();
        let mut fresh = InMemoryPruner::new(&q_row, &k, 0.09, noise, 5).unwrap();
        let a = grown.prune_query(q_row.row(0), 0.02, &spec).unwrap();
        let b = fresh.prune_query(q_row.row(0), 0.02, &spec).unwrap();
        assert_eq!(a, b, "s = {s}");
        assert_eq!(grown.keys(), s);
        let base = if reprogrammed {
            PruneHardwareStats::default()
        } else {
            before
        };
        assert_eq!(
            grown.stats().delta_since(&base),
            fresh.stats(),
            "s = {s} stats delta"
        );
    }
}

#[test]
fn extend_recalibrates_when_a_key_widens_the_range() {
    let q = random_matrix(1, 32, 81);
    let k = random_matrix(64, 32, 82);
    let noise = NoiseModel::ideal();
    let mut grown = InMemoryPruner::new(&q, &k, 0.176, noise, 9).unwrap();
    // Append a key 3x beyond anything seen: the shared quantizer
    // must re-cover the range, forcing a full reprogram.
    let mut widened = k.as_slice().to_vec();
    widened.extend(k.row(0).iter().map(|x| x * 3.0));
    let k_wide = Matrix::from_vec(65, 32, widened).unwrap();
    assert!(
        grown.extend_row(k_wide.row(64), || k_wide.clone()).unwrap(),
        "range grew: must reprogram"
    );
    grown.calibrate_query(&q, true).unwrap();
    let mut fresh = InMemoryPruner::new(&q, &k_wide, 0.176, noise, 9).unwrap();
    let spec = ThresholdSpec::default();
    let a = grown.prune_query(q.row(0), 0.02, &spec).unwrap();
    let b = fresh.prune_query(q.row(0), 0.02, &spec).unwrap();
    assert_eq!(a, b);
    // An in-range append afterwards goes back to the cheap path
    // and never gathers the history.
    let appended = grown.extend_row(k.row(1), || unreachable!("in-range append"));
    assert!(!appended.unwrap());
    assert_eq!(grown.keys(), 66);
}

#[test]
fn extend_validates_inputs() {
    let q = random_matrix(1, 16, 91);
    let k = random_matrix(8, 16, 92);
    let mut p = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 3).unwrap();
    // Wrong embedding.
    assert!(p.extend_row(&[0.5; 8], || unreachable!()).is_err());
    // A widening row whose history is not the grown geometry.
    let wide = [1e3f32; 16];
    assert!(p.extend_row(&wide, || k.clone()).is_err());
    assert!(p.extend_row(&wide, || random_matrix(9, 8, 93)).is_err());
    assert_eq!(p.keys(), 8, "a rejected row appends nothing");
    // Query calibration validates the embedding too.
    assert!(p.calibrate_query(&random_matrix(1, 8, 95), false).is_err());
}

#[test]
fn stats_delta_saturates_and_subtracts() {
    let a = PruneHardwareStats {
        in_memory_ops: 5,
        comparator_firings: 100,
        dac_conversions: 64,
        transposed_reads: 2,
        queries_pruned: 3,
    };
    let b = PruneHardwareStats {
        in_memory_ops: 7,
        comparator_firings: 150,
        dac_conversions: 128,
        transposed_reads: 2,
        queries_pruned: 4,
    };
    let d = b.delta_since(&a);
    assert_eq!(d.in_memory_ops, 2);
    assert_eq!(d.comparator_firings, 50);
    assert_eq!(d.queries_pruned, 1);
    // Saturation after a counter reset (recalibration event).
    let z = PruneHardwareStats::default().delta_since(&a);
    assert_eq!(z, PruneHardwareStats::default());
}

#[test]
fn quantize_symmetric_is_sane() {
    assert_eq!(quantize_symmetric(0.0, 100.0, 4), 0.0);
    // Saturation at the full scale.
    let sat = quantize_symmetric(1e9, 100.0, 4);
    assert!((sat - 100.0).abs() < 100.0 / 7.0);
    // 1-bit quantization collapses to {-fs, 0, fs}.
    let one = quantize_symmetric(30.0, 100.0, 1);
    assert!(one == 0.0 || (one - 100.0).abs() < 1e-9);
}
