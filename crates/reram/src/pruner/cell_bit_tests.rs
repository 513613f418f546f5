//! MLC-depth tests of the pruner: validation, calibration, noise.

use super::tests::random_matrix;
use super::*;

#[test]
fn cell_bits_are_validated() {
    let q = random_matrix(2, 16, 1);
    let k = random_matrix(8, 16, 2);
    assert!(InMemoryPruner::with_cell_bits(&q, &k, 0.25, NoiseModel::ideal(), 3, 0).is_err());
    assert!(InMemoryPruner::with_cell_bits(&q, &k, 0.25, NoiseModel::ideal(), 3, 9).is_err());
    let p = InMemoryPruner::with_cell_bits(&q, &k, 0.25, NoiseModel::ideal(), 3, 6).unwrap();
    assert_eq!(p.cell_bits(), 6);
}

#[test]
fn default_constructor_uses_four_bit_cells() {
    let q = random_matrix(2, 16, 4);
    let k = random_matrix(8, 16, 5);
    let p = InMemoryPruner::new(&q, &k, 0.25, NoiseModel::ideal(), 6).unwrap();
    assert_eq!(p.cell_bits(), 4);
}

/// The full scale as it was calibrated before the integer walk:
/// every sampled row's exact scores, each rounded to `f32` and
/// converted back to code units, scanned for the largest.
fn full_scale_by_float_scan(p: &InMemoryPruner, q: &Matrix) -> f64 {
    let mut observed = 0.0f64;
    for i in 0..q.rows().min(128) {
        for sc in p.exact_msb_scores(q.row(i)).unwrap() {
            observed = observed.max((sc as f64 / p.score_lsb).abs());
        }
    }
    (observed * 4.0).max(p.d as f64)
}

#[test]
fn integer_full_scale_calibration_equals_the_float_scan() {
    // d = 128 merges two row tiles per key; 140 query rows exceed
    // the 128-row sample; 200 keys span two column tiles.
    for d in [64usize, 128] {
        let q = random_matrix(140, d, 21);
        let k = random_matrix(200, d, 22);
        for cell_bits in 2..=8 {
            let build = || {
                InMemoryPruner::with_cell_bits(&q, &k, 0.11, NoiseModel::default(), 5, cell_bits)
                    .unwrap()
            };
            let mut calibrated = build();
            let mut scanned = build();
            scanned.full_scale_codes = full_scale_by_float_scan(&scanned, &q);
            assert_eq!(
                calibrated.full_scale_codes.to_bits(),
                scanned.full_scale_codes.to_bits(),
                "d {d} cell_bits {cell_bits}"
            );
            let spec = ThresholdSpec::quantized(4);
            for i in [0, 77, 139] {
                assert_eq!(
                    calibrated.prune_query(q.row(i), 0.02, &spec).unwrap(),
                    scanned.prune_query(q.row(i), 0.02, &spec).unwrap(),
                    "d {d} cell_bits {cell_bits} query {i}"
                );
            }
        }
    }
}

#[test]
fn more_cell_bits_approximate_the_full_score_better_under_ideal_analog() {
    // With noise held at zero, deeper cells keep more of the code
    // and the in-memory score converges on the full 8-bit score.
    let q = random_matrix(8, 32, 7);
    let k = random_matrix(48, 32, 8);
    let exact_full: Vec<f32> = {
        // Full-precision digital reference through the same
        // quantizers (8-bit codes).
        let p8 = InMemoryPruner::with_cell_bits(&q, &k, 0.18, NoiseModel::ideal(), 9, 8).unwrap();
        p8.exact_msb_scores(q.row(0)).unwrap()
    };
    let err_of = |bits: u32| -> f64 {
        let p = InMemoryPruner::with_cell_bits(&q, &k, 0.18, NoiseModel::ideal(), 9, bits).unwrap();
        let approx = p.exact_msb_scores(q.row(0)).unwrap();
        approx
            .iter()
            .zip(&exact_full)
            .map(|(a, e)| ((a - e).abs()) as f64)
            .sum::<f64>()
            / approx.len() as f64
    };
    let e2 = err_of(2);
    let e4 = err_of(4);
    let e6 = err_of(6);
    assert!(e2 > e4, "2-bit err {e2} must exceed 4-bit err {e4}");
    assert!(e4 > e6, "4-bit err {e4} must exceed 6-bit err {e6}");
}

#[test]
fn deeper_cells_carry_more_noise() {
    // The robustness half of the section III trade-off: beyond the
    // 4-bit design point, the effective noise model degrades.
    let q = random_matrix(4, 64, 11);
    let k = random_matrix(96, 64, 12);
    let spread_of = |bits: u32| -> f64 {
        let mut p =
            InMemoryPruner::with_cell_bits(&q, &k, 0.125, NoiseModel::default(), 13, bits).unwrap();
        let exact = p.exact_msb_scores(q.row(0)).unwrap();
        let mut sq = 0.0f64;
        let n = 20;
        for _ in 0..n {
            let out = p
                .prune_query(q.row(0), 0.0, &ThresholdSpec::default())
                .unwrap();
            for (a, e) in out.approx_scores.iter().zip(&exact) {
                sq += ((a - e) as f64).powi(2);
            }
        }
        (sq / (n * exact.len()) as f64).sqrt()
    };
    let s4 = spread_of(4);
    let s7 = spread_of(7);
    assert!(
        s7 > 1.5 * s4,
        "7-bit cells ({s7}) must be noisier than 4-bit cells ({s4})"
    );
}
