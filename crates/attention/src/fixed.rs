//! Symmetric fixed-point quantization for the SPRINT digital datapath.
//!
//! The paper's accelerator "performs all the computations in 8-bit
//! precision, except Softmax with 12-bit inputs. For final attention
//! score, we employ 16-bit precision" (§VI). This module provides the
//! symmetric (zero-point-free) quantizer used for all of those widths.

use crate::{AttentionError, Matrix};

/// Parameters of a symmetric uniform quantizer.
///
/// A value `x` is represented as `round(x / scale)` clamped to the
/// signed `bits`-bit range. Symmetric quantization is the standard
/// choice for attention accelerators (A3, SpAtten, LeOPArd all use it)
/// because scores are roughly zero-centred.
///
/// # Example
///
/// ```
/// use sprint_attention::QuantParams;
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let p = QuantParams::for_range(8, 4.0)?; // 8-bit covering [-4, 4]
/// let q = p.quantize(1.0);
/// let back = p.dequantize(q);
/// assert!((back - 1.0).abs() <= p.step() / 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    bits: u32,
    scale: f32,
}

impl QuantParams {
    /// Creates quantizer parameters from a bit width and scale (the real
    /// value of one least-significant bit).
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidQuantization`] unless
    /// `1 <= bits <= 24` and `scale` is positive and finite.
    pub fn new(bits: u32, scale: f32) -> Result<Self, AttentionError> {
        if !(1..=24).contains(&bits) {
            return Err(AttentionError::InvalidQuantization(format!(
                "bit width {bits} outside 1..=24"
            )));
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(AttentionError::InvalidQuantization(format!(
                "scale {scale} must be positive and finite"
            )));
        }
        Ok(QuantParams { bits, scale })
    }

    /// Creates parameters whose representable range covers
    /// `[-max_abs, +max_abs]` with `bits` bits.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantParams::new`]; additionally `max_abs`
    /// must be positive and finite.
    pub fn for_range(bits: u32, max_abs: f32) -> Result<Self, AttentionError> {
        if !(max_abs.is_finite() && max_abs > 0.0) {
            return Err(AttentionError::InvalidQuantization(format!(
                "max_abs {max_abs} must be positive and finite"
            )));
        }
        let qmax = ((1i64 << (bits.min(24) - 1)) - 1) as f32;
        QuantParams::new(bits, max_abs / qmax)
    }

    /// Creates parameters calibrated to cover the dynamic range of `m`.
    ///
    /// # Errors
    ///
    /// Returns an error when the matrix is all-zero (no range to cover)
    /// or bits are out of range.
    pub fn for_matrix(bits: u32, m: &Matrix) -> Result<Self, AttentionError> {
        QuantParams::for_max_abs(bits, m.max_abs())
    }

    /// Creates parameters for a known dynamic-range maximum — exactly
    /// the policy [`QuantParams::for_matrix`] applies after scanning a
    /// matrix (an all-zero tensor, `max_abs == 0.0`, quantizes exactly
    /// with any scale). Incremental callers that maintain a *running*
    /// maximum over append-only data (the decode KV cache, the
    /// pruner's extend path) use this to derive bit-identical params
    /// without rescanning the history.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuantParams::for_range`] (non-finite
    /// maxima are rejected).
    pub fn for_max_abs(bits: u32, max_abs: f32) -> Result<Self, AttentionError> {
        if max_abs == 0.0 {
            return QuantParams::new(bits, 1.0);
        }
        QuantParams::for_range(bits, max_abs)
    }

    /// The bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The real value of one quantization step.
    pub fn step(&self) -> f32 {
        self.scale
    }

    /// Largest representable integer code.
    pub fn qmax(&self) -> i32 {
        ((1i64 << (self.bits - 1)) - 1) as i32
    }

    /// Smallest representable integer code (symmetric: `-qmax`).
    pub fn qmin(&self) -> i32 {
        -self.qmax()
    }

    /// Quantizes a real value to an integer code with
    /// round-to-nearest-even and saturation (NaN quantizes to 0).
    ///
    /// Up to 23 bits this clamps first and rounds with the float add
    /// trick: rounding is monotone and the bounds are integers, so
    /// clamping before rounding gives the same code, and adding and
    /// subtracting `1.5·2²³` rounds any `|y| ≤ 2²²` to the nearest
    /// integer, ties to even, in the default rounding mode. Unlike
    /// `round_ties_even` (a libm call per element on baseline x86-64),
    /// the add vectorizes. The 24-bit range exceeds the trick's exact
    /// span and keeps the library rounding.
    #[inline]
    pub fn quantize(&self, x: f32) -> i32 {
        const ROUNDER: f32 = 12_582_912.0; // 1.5 · 2²³
        let y = x / self.scale;
        if self.bits > 23 {
            let q = y.round_ties_even() as i64;
            return q.clamp(self.qmin() as i64, self.qmax() as i64) as i32;
        }
        let qmax = self.qmax() as f32;
        // `f32::clamp` without its bounds assertion; NaN passes through.
        let clamped = if y < -qmax {
            -qmax
        } else if y > qmax {
            qmax
        } else {
            y
        };
        ((clamped + ROUNDER) - ROUNDER) as i32
    }

    /// [`QuantParams::quantize`] over a slice into `i8` codes, for
    /// widths up to 8 bits (`codes` and `src` pair up to the shorter).
    /// The same clamp and add trick, but the code is read off the
    /// rounded sum's bits: `clamped + 1.5·2²³` lies in the binade of
    /// unit spacing above `2²³`, so its bits minus the rounder's are
    /// the code, and the loop vectorizes without a float-to-integer
    /// conversion (NaN still gives 0).
    pub(crate) fn quantize_i8_into(&self, src: &[f32], codes: &mut [i8]) {
        const ROUNDER: f32 = 12_582_912.0; // 1.5 · 2²³
        debug_assert!(self.bits <= 8, "{}-bit codes do not fit i8", self.bits);
        let qmax = self.qmax() as f32;
        for (code, &x) in codes.iter_mut().zip(src) {
            let y = x / self.scale;
            let clamped = if y < -qmax {
                -qmax
            } else if y > qmax {
                qmax
            } else {
                y
            };
            let t = clamped + ROUNDER;
            let q = (t.to_bits() as i32).wrapping_sub(ROUNDER.to_bits() as i32);
            *code = if t.is_nan() { 0 } else { q as i8 };
        }
    }

    /// Reconstructs the real value of an integer code.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }
}

/// A matrix quantized to integer codes with shared [`QuantParams`].
///
/// This is the at-rest format of Q/K/V data in SPRINT's ReRAM: 8-bit
/// codes whose rounded upper four bits
/// ([`QuantizedMatrix::msb_rounded`]) are what the pruner's crossbar
/// tiles compute on in memory (§III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i32>,
    params: QuantParams,
}

impl QuantizedMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The shared quantizer parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Integer code at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn code(&self, r: usize, c: usize) -> i32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.codes[r * self.cols + c]
    }

    /// Row `r` of integer codes.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn code_row(&self, r: usize) -> &[i32] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Appends one row of values, quantized **with the existing
    /// params** — no recalibration. Values beyond the calibrated range
    /// saturate, so callers growing a matrix whose dynamic range may
    /// widen (the decode KV cache) must compare
    /// [`QuantParams::for_matrix`] over the grown data and requantize
    /// from scratch when the params change; `sprint_attention::KvCache`
    /// wraps exactly that policy.
    ///
    /// # Errors
    ///
    /// Returns [`AttentionError::InvalidQuantization`] unless
    /// `row.len() == cols`.
    pub fn push_row(&mut self, row: &[f32]) -> Result<(), AttentionError> {
        if row.len() != self.cols {
            return Err(AttentionError::InvalidQuantization(format!(
                "pushed row holds {} values, matrix has {} columns",
                row.len(),
                self.cols
            )));
        }
        self.codes
            .extend(row.iter().map(|&x| self.params.quantize(x)));
        self.rows += 1;
        Ok(())
    }

    /// Reconstructs the real-valued matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.codes
                .iter()
                .map(|&q| self.params.dequantize(q))
                .collect(),
        )
        .expect("shape preserved by construction")
    }

    /// The *rounded* MSB nibble: `round(code / 16)` clamped to the
    /// signed 4-bit range.
    ///
    /// Plain truncation (`code >> 4`) biases every stored value toward
    /// −∞ by up to 15 codes, which systematically over-prunes near the
    /// threshold; rounding at write time (one adder in the MSB/LSB
    /// split path) keeps the in-memory approximation zero-mean. The
    /// signed residual `code − 16·msb` lies in `[-8, 7]` and still
    /// fits the 4-bit LSB cell.
    pub fn msb_rounded(&self, r: usize, c: usize) -> i32 {
        let code = self.code(r, c);
        // Round half away from zero, then clamp to the cell range.
        let rounded = if code >= 0 {
            (code + 8) / 16
        } else {
            (code - 8) / 16
        };
        rounded.clamp(-8, 7)
    }
}

/// Quantizes a matrix to `bits`-bit codes calibrated to its own range.
///
/// # Errors
///
/// Propagates [`QuantParams`] validation errors.
///
/// # Example
///
/// ```
/// use sprint_attention::{Matrix, quantize_matrix};
///
/// # fn main() -> Result<(), sprint_attention::AttentionError> {
/// let m = Matrix::from_rows(&[vec![0.5, -1.0, 0.25]])?;
/// let q = quantize_matrix(&m, 8)?;
/// let back = q.to_matrix();
/// assert!((back.get(0, 1) - -1.0).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn quantize_matrix(m: &Matrix, bits: u32) -> Result<QuantizedMatrix, AttentionError> {
    let params = QuantParams::for_matrix(bits, m)?;
    Ok(QuantizedMatrix {
        rows: m.rows(),
        cols: m.cols(),
        codes: m.as_slice().iter().map(|&x| params.quantize(x)).collect(),
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parameter_validation() {
        assert!(QuantParams::new(0, 1.0).is_err());
        assert!(QuantParams::new(25, 1.0).is_err());
        assert!(QuantParams::new(8, 0.0).is_err());
        assert!(QuantParams::new(8, f32::NAN).is_err());
        assert!(QuantParams::new(8, -1.0).is_err());
        assert!(QuantParams::new(8, 0.25).is_ok());
    }

    #[test]
    fn eight_bit_range_is_symmetric() {
        let p = QuantParams::for_range(8, 1.0).unwrap();
        assert_eq!(p.qmax(), 127);
        assert_eq!(p.qmin(), -127);
        assert_eq!(p.quantize(10.0), 127, "saturates above range");
        assert_eq!(p.quantize(-10.0), -127, "saturates below range");
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let p = QuantParams::for_range(8, 4.0).unwrap();
        for i in -100..=100 {
            let x = i as f32 * 0.037;
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(err <= p.step() / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn matrix_quantization_covers_range() {
        let m = Matrix::from_rows(&[vec![3.0, -3.0, 1.5, 0.0]]).unwrap();
        let q = quantize_matrix(&m, 8).unwrap();
        assert_eq!(q.code(0, 0), 127);
        assert_eq!(q.code(0, 1), -127);
        assert_eq!(q.code(0, 3), 0);
    }

    #[test]
    fn all_zero_matrix_quantizes_without_error() {
        let m = Matrix::zeros(2, 2).unwrap();
        let q = quantize_matrix(&m, 8).unwrap();
        assert!(q.code_row(0).iter().all(|&c| c == 0));
        assert_eq!(q.to_matrix(), m);
    }

    #[test]
    fn value_helpers_round_trip() {
        let p = QuantParams::for_range(12, 2.0).unwrap();
        let x = p.dequantize(p.quantize(0.5));
        assert!((x - 0.5).abs() < 2.0 / 2047.0);
    }

    /// The library rounding the add trick replaces, as it stood.
    fn quantize_with_libm(p: &QuantParams, x: f32) -> i32 {
        let q = (x / p.step()).round_ties_even() as i64;
        q.clamp(p.qmin() as i64, p.qmax() as i64) as i32
    }

    /// Every `stride`-th f32 bit pattern (NaNs, ±0, ±inf and
    /// subnormals included), quantized both ways for each width and
    /// scale; returns the mismatches and the points checked.
    fn sweep_bit_patterns(stride: u32) -> (u64, u64) {
        const BITS: [u32; 4] = [4, 8, 16, 23];
        const SCALES: [f32; 6] = [1.0, 0.007_812_5, 3.7e-3, 1.7e3, 1e-30, 3.1e7];
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per = (u32::MAX / stride) / threads as u32 + 1;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u32)
                .map(|t| {
                    scope.spawn(move || {
                        let (mut bad, mut seen) = (0u64, 0u64);
                        for bits in BITS {
                            for scale in SCALES {
                                let p = QuantParams::new(bits, scale).unwrap();
                                for k in (t * per)..((t + 1) * per).min(u32::MAX / stride + 1) {
                                    let x = f32::from_bits(k * stride);
                                    bad += u64::from(p.quantize(x) != quantize_with_libm(&p, x));
                                    seen += 1;
                                }
                            }
                        }
                        (bad, seen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        })
    }

    #[test]
    fn the_add_trick_matches_libm_rounding_on_a_bit_pattern_sample() {
        let (bad, seen) = sweep_bit_patterns(65_537);
        assert_eq!(bad, 0, "{bad} of {seen} points differ");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full bit-pattern sweep; run in release with --include-ignored"
    )]
    fn the_add_trick_matches_libm_rounding_on_every_13th_bit_pattern() {
        let (bad, seen) = sweep_bit_patterns(13);
        assert!(seen > 7_900_000_000, "{seen} points");
        assert_eq!(bad, 0, "{bad} of {seen} points differ");
    }

    #[test]
    fn ties_round_to_even_and_edges_saturate() {
        let p = QuantParams::new(8, 1.0).unwrap();
        for (x, code) in [
            (0.5, 0),
            (1.5, 2),
            (2.5, 2),
            (-0.5, 0),
            (-2.5, -2),
            (126.5, 126),
            (127.5, 127),
            (-0.0, 0),
            (f32::NAN, 0),
            (f32::INFINITY, 127),
            (f32::NEG_INFINITY, -127),
        ] {
            assert_eq!(p.quantize(x), code, "{x}");
        }
        let wide = QuantParams::new(24, 1.0).unwrap();
        assert_eq!(wide.quantize(8_388_606.5), 8_388_606);
        assert_eq!(wide.quantize(1e9), wide.qmax());
        let top = QuantParams::new(23, 1.0).unwrap();
        assert_eq!(top.quantize(4_194_302.5), 4_194_302);
        assert_eq!(top.quantize(4_194_303.5), top.qmax());
    }

    #[test]
    fn slice_quantizer_gives_the_element_codes() {
        // Every 65537th bit pattern (NaNs, ±0, ±inf, subnormals) and the
        // ties around each code, through 1- to 8-bit quantizers.
        let mut xs: Vec<f32> = (0..=u32::MAX / 65_537)
            .map(|k| f32::from_bits(k * 65_537))
            .collect();
        xs.extend((-300..=300).map(|h| h as f32 * 0.5));
        for bits in 1..=8 {
            for scale in [1.0, 0.007_812_5, 3.7e-3, 1.7e3, 1e-30] {
                let p = QuantParams::new(bits, scale).unwrap();
                let mut codes = vec![0i8; xs.len()];
                p.quantize_i8_into(&xs, &mut codes);
                for (&x, &c) in xs.iter().zip(&codes) {
                    assert_eq!(c, p.quantize(x) as i8, "{bits} bits, scale {scale}, x {x}");
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_quantize_matches_libm_rounding(
            bits in 1u32..25,
            scale_exp in -40i32..40,
            x_bits in 0u32..u32::MAX,
        ) {
            let p = QuantParams::new(bits, 2f32.powi(scale_exp) * 1.37).unwrap();
            let x = f32::from_bits(x_bits);
            prop_assert_eq!(p.quantize(x), quantize_with_libm(&p, x));
        }

        #[test]
        fn prop_quantize_monotone(bits in 2u32..16, a in -10.0f32..10.0, b in -10.0f32..10.0) {
            let p = QuantParams::for_range(bits, 10.0).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p.quantize(lo) <= p.quantize(hi));
        }

        #[test]
        fn prop_round_trip_bounded(bits in 4u32..16, x in -8.0f32..8.0) {
            let p = QuantParams::for_range(bits, 8.0).unwrap();
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            prop_assert!(err <= p.step() / 2.0 + 1e-6);
        }
    }
}
