//! The comparator's decision path against the transform-always path.
//!
//! A prune call that only needs decisions brackets each noisy score and
//! runs the Box–Muller transform only where the bracket straddles the
//! cut; a call that also wants the approximate scores transforms every
//! column. Two pruners built alike must flag every key alike either
//! way, and — because the decision path still draws every uniform —
//! their streams must stay in step, so a second call agrees too.

use sprint_attention::Matrix;
use sprint_reram::{FaultModel, InMemoryPruner, NoiseModel, ThresholdSpec};

/// Query rows per prune call.
const ROWS: usize = 5;

/// A deterministic pseudo-random `rows × cols` matrix in [-1, 1), a
/// tenth of it exactly zero (zero codes skip their programming
/// transform).
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(17);
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state % 10 == 0 {
                0.0
            } else {
                (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

struct Case {
    noise: NoiseModel,
    score_bits: Option<u32>,
    d: usize,
    keys: usize,
    cell_bits: u32,
    remap: bool,
}

impl Case {
    fn pruner(&self, q: &Matrix, k: &Matrix, threads: usize) -> InMemoryPruner {
        let scale = 1.0 / (self.d as f32).sqrt();
        let mut pruner =
            InMemoryPruner::with_cell_bits(q, k, scale, self.noise, 7, self.cell_bits).unwrap();
        if self.remap {
            pruner.set_fault_model(Some(FaultModel::uniform(0.02, 5).unwrap()));
            let faulty = pruner.scrub().unwrap().faulty_keys();
            // Every other faulty key remapped: the rest stay analog.
            let remapped: Vec<usize> = faulty.iter().copied().step_by(2).collect();
            assert!(!remapped.is_empty(), "the fault model must fault keys");
            pruner.set_remapped(&remapped).unwrap();
        }
        pruner.set_threads(threads);
        pruner
    }

    /// Every key's flag for the staged rows, with or without the
    /// approximate scores.
    fn prune(&self, pruner: &mut InMemoryPruner, q: &Matrix, th: f32, scores: bool) -> Vec<bool> {
        let spec = ThresholdSpec {
            score_bits: self.score_bits,
            margin_fraction: 0.0,
        };
        let mut flags = vec![vec![false; self.keys]; ROWS];
        let mut approx = vec![vec![0.0f32; self.keys]; ROWS];
        let mut rows: Vec<&mut [bool]> = flags.iter_mut().map(|f| &mut f[..]).collect();
        let mut approx_rows: Vec<&mut [f32]> = approx.iter_mut().map(|a| &mut a[..]).collect();
        pruner
            .prune_rows_into(
                q.as_slice(),
                th,
                &spec,
                &mut rows,
                scores.then_some(&mut approx_rows[..]),
            )
            .unwrap();
        flags.concat()
    }

    fn check(&self, seed: u64) {
        let label = format!(
            "d {} keys {} cell_bits {} score_bits {:?} remap {} noise {:?}",
            self.d, self.keys, self.cell_bits, self.score_bits, self.remap, self.noise
        );
        let q = random_matrix(ROWS, self.d, seed);
        let k = random_matrix(self.keys, self.d, seed + 1);
        let mut always = self.pruner(&q, &k, 1);
        // The cut at the median exact score of the first row, so many
        // keys sit near it.
        let mut exact = always.exact_msb_scores(q.row(0)).unwrap();
        exact.sort_by(f32::total_cmp);
        let th = exact[exact.len() / 2];
        let mut deciders: Vec<_> = [1, 2].map(|t| self.pruner(&q, &k, t)).into();
        for call in 0..2 {
            let want = self.prune(&mut always, &q, th, true);
            assert!(
                want.contains(&true) && want.contains(&false),
                "{label}: a one-sided cut tests nothing"
            );
            for (width, decider) in [1, 2].iter().zip(deciders.iter_mut()) {
                let got = self.prune(decider, &q, th, false);
                assert_eq!(got, want, "{label}: width {width}, call {call}");
                assert_eq!(decider.stats(), always.stats(), "{label}: width {width}");
            }
        }
    }
}

#[test]
fn decisions_equal_the_transform_always_path() {
    let noises = [
        NoiseModel::ideal(),
        NoiseModel::default(),
        NoiseModel::equivalent_bits(2).unwrap(),
        NoiseModel::from_sigmas(0.05, 0.05).unwrap(),
    ];
    let mut seed = 0;
    for noise in noises {
        for (b, score_bits) in [None, Some(4), Some(8)].into_iter().enumerate() {
            for (i, d) in [64, 96, 128].into_iter().enumerate() {
                for (j, keys) in [48, 128, 276, 1024].into_iter().enumerate() {
                    seed += 1;
                    Case {
                        noise,
                        score_bits,
                        d,
                        keys,
                        // Each key count meets both depths (over d) and
                        // both remaps (over score_bits).
                        cell_bits: if (i + j) % 2 == 0 { 4 } else { 6 },
                        remap: (b + j) % 2 == 0,
                    }
                    .check(seed);
                }
            }
        }
    }
}
