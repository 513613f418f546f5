//! Exact and hardware (two look-up table) softmax.
//!
//! The SPRINT softmax unit takes 12-bit inputs and produces 8-bit
//! probabilities, computing the exponent with the two-LUT method used by
//! A3 and LeOPArd ("we use a two look-up-tables method for exponent
//! calculation", §VI): the negative offset from the row maximum is split
//! into a coarse and a fine part, each indexing a 64-entry table, and
//! the two table outputs are multiplied.

use crate::{AttentionError, SimdTier};

/// Numerically-stable exact softmax over a slice.
///
/// Returns an empty vector for empty input. Entries equal to
/// `f32::NEG_INFINITY` (pruned or masked positions) receive exactly
/// zero probability.
///
/// # Example
///
/// ```
/// use sprint_attention::softmax_exact;
///
/// let p = softmax_exact(&[1.0, 1.0, f32::NEG_INFINITY]);
/// assert!((p[0] - 0.5).abs() < 1e-6);
/// assert_eq!(p[2], 0.0);
/// ```
pub fn softmax_exact(scores: &[f32]) -> Vec<f32> {
    let mut out = scores.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Numerically-stable exact softmax computed in place, with no
/// allocation.
///
/// Entries equal to `f32::NEG_INFINITY` (pruned or masked positions)
/// become exactly zero; a row that is entirely `-inf` becomes all-zero
/// (the convention of [`softmax_exact`]). This is the fused-kernel
/// primitive: the caller supplies the row (typically a matrix row) and
/// it is overwritten with the probabilities.
///
/// # Example
///
/// ```
/// use sprint_attention::softmax_inplace;
///
/// let mut row = [1.0, 1.0, f32::NEG_INFINITY];
/// softmax_inplace(&mut row);
/// assert!((row[0] - 0.5).abs() < 1e-6);
/// assert_eq!(row[2], 0.0);
/// ```
pub fn softmax_inplace(row: &mut [f32]) {
    softmax_inplace_tier(row, crate::active_tier());
}

/// [`softmax_inplace`] dispatching every stage — max scan, exponent
/// pass, normalization — on an explicit kernel tier. Every tier gives
/// the same bits (see [`crate::simd`]): the exponent pass is one
/// polynomial `exp` eight lanes at a time. Masked `-inf` entries
/// become exactly `0.0`, and a row that is entirely `-inf` is
/// all-zero.
pub fn softmax_inplace_tier(row: &mut [f32], tier: crate::SimdTier) {
    if row.is_empty() {
        return;
    }
    let max = crate::simd::row_max(tier, row);
    if max == f32::NEG_INFINITY {
        // Every position masked: define the output as all-zero.
        row.fill(0.0);
        return;
    }
    let sum = crate::simd::exp_rows(tier, row, max);
    crate::simd::scale_row(tier, row, 1.0 / sum);
}

/// The SPRINT hardware softmax unit: 12-bit inputs, two 64-entry
/// exponent LUTs, 8-bit probability outputs.
///
/// The unit receives score offsets from the running row maximum as
/// non-negative 12-bit fixed-point magnitudes `u = (max − s) / step`.
/// `u` is split as `u = hi · 64 + lo`; `exp(−u·step)` is approximated by
/// `coarse[hi] · fine[lo]`, with both tables storing 8-bit fractions.
///
/// # Example
///
/// ```
/// use sprint_attention::SoftmaxLut;
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let unit = SoftmaxLut::new(16.0)?;
/// let probs = unit.probabilities(&[2.0, 2.0, -6.0])?;
/// assert!((probs[0] - 0.5).abs() < 0.01);
/// assert!(probs[2] < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxLut {
    /// Real score range covered by the 12-bit input (max − min).
    range: f32,
    /// The real value of one 12-bit input step, `range / 4096`.
    step: f32,
    /// Coarse exponent table: `exp(-(i * 64) * step)`, 8-bit fraction.
    coarse: [u8; LUT_ENTRIES],
    /// Fine exponent table: `exp(-i * step)`, 8-bit fraction.
    fine: [u8; LUT_ENTRIES],
}

/// Entries per LUT ("2EA of 64B LUTs" in Table I: 64 bytes = 64 8-bit
/// entries each).
const LUT_ENTRIES: usize = 64;
/// Total 12-bit input codes (LUT_ENTRIES²).
const INPUT_CODES: usize = LUT_ENTRIES * LUT_ENTRIES;

impl SoftmaxLut {
    /// Builds the two LUTs for inputs covering a score offset range of
    /// `range` (offsets beyond it saturate to probability ≈ 0).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidQuantization`] unless `range` is
    /// positive and finite.
    pub fn new(range: f32) -> Result<Self, AttentionError> {
        if !(range.is_finite() && range > 0.0) {
            return Err(AttentionError::InvalidQuantization(format!(
                "softmax range {range} must be positive and finite"
            )));
        }
        let step = range / INPUT_CODES as f32;
        let to_u8 = |x: f32| -> u8 { (x * 255.0).round().clamp(0.0, 255.0) as u8 };
        let coarse =
            std::array::from_fn(|i| to_u8((-(i as f32) * LUT_ENTRIES as f32 * step).exp()));
        let fine = std::array::from_fn(|i| to_u8((-(i as f32) * step).exp()));
        Ok(SoftmaxLut {
            range,
            step,
            coarse,
            fine,
        })
    }

    /// The real value of one 12-bit input step.
    pub fn step(&self) -> f32 {
        self.step
    }

    /// The score-offset range covered by the unit.
    pub fn range(&self) -> f32 {
        self.range
    }

    /// Looks up `exp(−offset)` for a non-negative real offset, exactly
    /// as the hardware would: quantize to 12 bits, split into two
    /// 6-bit indices, multiply the 8-bit table outputs.
    ///
    /// Returns a fraction in `[0, 1]` with ~8 bits of precision.
    pub fn exp_neg(&self, offset: f32) -> f32 {
        debug_assert!(offset >= -1e-6, "offset {offset} must be non-negative");
        let code = (round_half_up(offset / self.step) as usize).min(INPUT_CODES - 1);
        let hi = code / LUT_ENTRIES;
        let lo = code % LUT_ENTRIES;
        // 8-bit x 8-bit multiply -> 16-bit product, kept as fraction.
        let product = self.coarse[hi] as u32 * self.fine[lo] as u32;
        product as f32 / (255.0 * 255.0)
    }

    /// Computes 8-bit-equivalent softmax probabilities for a score row.
    ///
    /// `f32::NEG_INFINITY` entries (pruned/masked) get zero probability.
    /// This models the full unit: streaming max, two-LUT exponent,
    /// FIFO accumulation, and the final division (two divider lanes in
    /// hardware; arithmetic here is sequential but bit-equivalent).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::EmptyInput`] for an empty score row.
    pub fn probabilities(&self, scores: &[f32]) -> Result<Vec<f32>, AttentionError> {
        let mut out = vec![0.0; scores.len()];
        self.probabilities_into(scores, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`SoftmaxLut::probabilities`]: writes the 8-bit
    /// probabilities into `out` (typically a probability-matrix row).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::EmptyInput`] for an empty score row and
    /// [`AttentionError::ShapeMismatch`] if `out` has a different length.
    pub fn probabilities_into(
        &self,
        scores: &[f32],
        out: &mut [f32],
    ) -> Result<(), AttentionError> {
        if scores.is_empty() {
            return Err(AttentionError::EmptyInput("softmax scores"));
        }
        if scores.len() != out.len() {
            return Err(AttentionError::ShapeMismatch {
                op: "softmax probabilities",
                left: (scores.len(), 1),
                right: (out.len(), 1),
            });
        }
        out.copy_from_slice(scores);
        self.probabilities_in_place(out, crate::active_tier());
        Ok(())
    }

    /// [`SoftmaxLut::probabilities`] over `row` in place: the scores
    /// become their 8-bit probabilities. Four passes: the row maximum;
    /// the two-LUT exponents ([`crate::simd`], eight lanes at a time on
    /// AVX2); their sum in row order (the FIFO accumulator); the
    /// divider's element-wise normalisation. A `-inf` score adds
    /// exactly `0.0` to the sum and divides to `0.0`, so a row holding
    /// only its kept scores gets, at each kept position, the bits a
    /// whole row with `-inf` at the pruned ones gets. Every tier gives
    /// the same bits.
    pub(crate) fn probabilities_in_place(&self, row: &mut [f32], tier: SimdTier) {
        let max = row_max(row);
        let mut sum = 0.0f32;
        if max != f32::NEG_INFINITY {
            crate::simd::lut_exps(tier, self, row, max);
            sum = row.iter().fold(0.0, |sum, &e| sum + e);
        }
        if sum == 0.0 {
            row.fill(0.0);
            return;
        }
        crate::simd::lut_normalize(tier, row, sum);
    }

    /// The exponent the unit gives score `s` against the row maximum
    /// `max`: exactly `0.0` for a `-inf` score, else
    /// [`SoftmaxLut::exp_neg`] of the offset.
    #[inline]
    pub(crate) fn exp_score(&self, max: f32, s: f32) -> f32 {
        if s == f32::NEG_INFINITY {
            0.0
        } else {
            self.exp_neg(max - s)
        }
    }

    /// The 12-bit input step and the coarse and fine tables.
    pub(crate) fn tables(&self) -> (f32, &[u8; LUT_ENTRIES], &[u8; LUT_ENTRIES]) {
        (self.step, &self.coarse, &self.fine)
    }
}

/// The largest entry of `row`, NaN ignored (`-inf` for an empty or
/// all-NaN row), by [`crate::matrix::fold_lanes`] of the select
/// `v > m ? v : m`. The value is the `f32::max` fold's; only the sign
/// of a zero maximum may differ, which no exponent sees (`±0 − s` is
/// `−s` for every other `s`, and a zero offset codes to 0 either way).
fn row_max(row: &[f32]) -> f32 {
    crate::matrix::fold_lanes(row, f32::NEG_INFINITY, |m, v| if v > m { v } else { m })
}

/// The divider's 8-bit probability for exponent `e` of a row summing
/// to `sum`: `round(e / sum · 255) / 255`.
#[inline]
pub(crate) fn divide8(e: f32, sum: f32) -> f32 {
    code8(e / sum * 255.0) as f32 / 255.0
}

/// The V-PU's 8-bit code of a two-LUT probability `p`: `round(p · 255)`
/// (for the probabilities [`divide8`] emits, the divider's code).
#[inline]
pub(crate) fn prob_code(p: f32) -> i32 {
    code8(p * 255.0) as i32
}

/// An 8-bit code: `y.round()` for `y` in `[0, 255]`, saturated to
/// `0..=255` elsewhere (NaN to 0), the width of the divider's output
/// and of the V-PU's probability port.
#[inline]
fn code8(y: f32) -> u32 {
    round_half_up(y).min(255)
}

/// `y.round()` for `y ≥ 0` (ties away from zero), saturated to `u32`:
/// `0` for NaN and negative `y`, [`u32::MAX`] from `2³²` up, exactly
/// what `y.round() as u32` gives there. Below `2²⁴` the truncation and
/// the fraction `y − trunc(y)` are exact; above it `y` is an integer.
/// Unlike `f32::round` (a libm call on baseline x86-64) this is a
/// convert, a subtract and a compare.
#[inline]
fn round_half_up(y: f32) -> u32 {
    let whole = y as u32;
    whole.saturating_add(u32::from(y - whole as f32 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_softmax_is_distribution() {
        let p = softmax_exact(&[0.1, 2.0, -1.0, 0.5]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn exact_softmax_handles_extremes() {
        assert!(softmax_exact(&[]).is_empty());
        let all_masked = softmax_exact(&[f32::NEG_INFINITY; 3]);
        assert_eq!(all_masked, vec![0.0; 3]);
        // Large values do not overflow thanks to max subtraction.
        let p = softmax_exact(&[1000.0, 999.0]);
        assert!((p[0] - 1.0 / (1.0 + (-1.0f32).exp())).abs() < 1e-5);
    }

    #[test]
    fn exact_softmax_shift_invariant() {
        let a = softmax_exact(&[0.0, 1.0, 2.0]);
        let b = softmax_exact(&[10.0, 11.0, 12.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn masked_softmax_zeroes_dropped_positions() {
        // Masking is a `-inf` score: it gets exactly zero probability,
        // the kept positions renormalize among themselves.
        let mut row = [1.0, f32::NEG_INFINITY, 1.0];
        softmax_inplace(&mut row);
        assert_eq!(row[1], 0.0);
        assert!((row[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn inplace_softmax_matches_exact() {
        let scores = [0.3f32, -1.2, 2.5, f32::NEG_INFINITY, 0.0];
        let reference = softmax_exact(&scores);
        let mut row = scores;
        softmax_inplace(&mut row);
        for (a, b) in row.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-7);
        }
        let mut empty: [f32; 0] = [];
        softmax_inplace(&mut empty);
    }

    #[test]
    fn lut_probabilities_into_matches_allocating_variant() {
        let unit = SoftmaxLut::new(16.0).unwrap();
        let scores = [1.5, 0.2, f32::NEG_INFINITY, 3.0];
        let reference = unit.probabilities(&scores).unwrap();
        let mut out = [0.0f32; 4];
        unit.probabilities_into(&scores, &mut out).unwrap();
        assert_eq!(out.to_vec(), reference);
        let mut wrong = [0.0f32; 3];
        assert!(unit.probabilities_into(&scores, &mut wrong).is_err());
    }

    #[test]
    fn lut_rejects_bad_range() {
        assert!(SoftmaxLut::new(0.0).is_err());
        assert!(SoftmaxLut::new(f32::NAN).is_err());
        assert!(SoftmaxLut::new(-3.0).is_err());
    }

    #[test]
    fn lut_exp_matches_reference_within_8bit() {
        let unit = SoftmaxLut::new(16.0).unwrap();
        for i in 0..200 {
            let x = i as f32 * 0.05;
            let approx = unit.exp_neg(x);
            let exact = (-x).exp();
            // Two chained 8-bit roundings + input quantization.
            assert!(
                (approx - exact).abs() < 0.02,
                "x={x} approx={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn lut_probabilities_close_to_exact() {
        let unit = SoftmaxLut::new(16.0).unwrap();
        let scores = [1.5, 0.2, -0.7, 3.0, -2.0];
        let hw = unit.probabilities(&scores).unwrap();
        let sw = softmax_exact(&scores);
        for (h, s) in hw.iter().zip(&sw) {
            assert!((h - s).abs() < 0.02, "hw={h} sw={s}");
        }
    }

    #[test]
    fn lut_handles_pruned_entries() {
        let unit = SoftmaxLut::new(16.0).unwrap();
        let p = unit.probabilities(&[1.0, f32::NEG_INFINITY, 1.0]).unwrap();
        assert_eq!(p[1], 0.0);
        assert!((p[0] - 0.5).abs() < 0.01);
        let all = unit.probabilities(&[f32::NEG_INFINITY; 4]).unwrap();
        assert_eq!(all, vec![0.0; 4]);
        assert!(unit.probabilities(&[]).is_err());
    }

    #[test]
    fn rounding_half_up_is_libm_round_on_a_bit_pattern_sample() {
        // Every 97th f32 bit pattern: NaNs, ±0, ±inf, subnormals, ties.
        let specials = [
            0.5f32,
            1.5,
            2.5,
            254.5,
            255.5,
            0.499_999_97,
            4_194_303.5,
            4_294_967_296.0,
        ];
        let sample = (0..=u32::MAX / 97).map(|k| f32::from_bits(k * 97));
        for y in sample.chain(specials) {
            assert_eq!(round_half_up(y), y.round() as u32, "{y:e}");
        }
    }

    #[test]
    fn the_divider_and_the_code_port_round_as_the_unit_did() {
        // The probabilities the unit can emit: e / sum for every 8-bit
        // product over a spread of sums, against the `f32::round` form.
        let unit = SoftmaxLut::new(7.0).unwrap();
        for offset in 0..4096 {
            let e = unit.exp_neg(offset as f32 * unit.step());
            for sum in [e, 1.0, 1.7, 13.3, 270.0] {
                let sum = sum.max(e).max(f32::MIN_POSITIVE);
                let p = divide8(e, sum);
                assert_eq!(p.to_bits(), ((e / sum * 255.0).round() / 255.0).to_bits());
                assert_eq!(prob_code(p), (p * 255.0).round() as i32);
            }
        }
    }

    #[test]
    fn lut_tables_are_64_bytes_each() {
        let unit = SoftmaxLut::new(8.0).unwrap();
        // Table I: "2EA of 64B LUTs".
        assert_eq!(unit.coarse.len(), 64);
        assert_eq!(unit.fine.len(), 64);
    }

    proptest! {
        #[test]
        fn prop_exact_softmax_distribution(scores in proptest::collection::vec(-20.0f32..20.0, 1..64)) {
            let p = softmax_exact(&scores);
            let sum: f32 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }

        #[test]
        fn prop_lut_probabilities_near_exact(scores in proptest::collection::vec(-6.0f32..6.0, 2..32)) {
            let unit = SoftmaxLut::new(16.0).unwrap();
            let hw = unit.probabilities(&scores).unwrap();
            let sw = softmax_exact(&scores);
            for (h, s) in hw.iter().zip(&sw) {
                prop_assert!((h - s).abs() < 0.03);
            }
        }

        #[test]
        fn prop_lut_exp_monotone_nonincreasing(a in 0.0f32..15.0, b in 0.0f32..15.0) {
            // The two-LUT product is monotone up to the 8-bit table
            // rounding: at coarse-index boundaries the product can
            // glitch upward by about one table step (~1/255). The
            // hardware has the same property; the bound is what we
            // assert.
            let unit = SoftmaxLut::new(16.0).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(unit.exp_neg(lo) >= unit.exp_neg(hi) - 1.5 / 255.0);
        }
    }
}
