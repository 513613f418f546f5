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
    /// round-to-nearest-even and saturation.
    pub fn quantize(&self, x: f32) -> i32 {
        let q = (x / self.scale).round_ties_even() as i64;
        q.clamp(self.qmin() as i64, self.qmax() as i64) as i32
    }

    /// Reconstructs the real value of an integer code.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantize-dequantize round trip ("fake quantization").
    pub fn fake_quantize(&self, x: f32) -> f32 {
        self.dequantize(self.quantize(x))
    }
}

/// Quantizes a single value with `bits` covering `[-max_abs, max_abs]`.
///
/// Convenience wrapper over [`QuantParams::for_range`].
///
/// # Errors
///
/// Propagates parameter validation errors.
pub fn quantize_value(x: f32, bits: u32, max_abs: f32) -> Result<i32, AttentionError> {
    Ok(QuantParams::for_range(bits, max_abs)?.quantize(x))
}

/// Reconstructs a value quantized by [`quantize_value`].
///
/// # Errors
///
/// Propagates parameter validation errors.
pub fn dequantize(q: i32, bits: u32, max_abs: f32) -> Result<f32, AttentionError> {
    Ok(QuantParams::for_range(bits, max_abs)?.dequantize(q))
}

/// A matrix quantized to integer codes with shared [`QuantParams`].
///
/// This is the at-rest format of Q/K/V data in SPRINT's ReRAM: 8-bit
/// codes whose upper four bits (`msb_nibble`) live in the transposable
/// arrays and lower four (`lsb_nibble`) in standard arrays (§III-B).
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

    /// Splits an 8-bit code into its 4 most significant bits, re-signed.
    ///
    /// For an 8-bit code `q`, the MSB nibble is `q >> 4`, i.e. the value
    /// a 4-bit MLC ReRAM cell stores for in-memory thresholding. The
    /// reconstruction `(q >> 4) << 4` differs from `q` by at most 15
    /// codes — the approximation the in-memory compute sees.
    pub fn msb_nibble(&self, r: usize, c: usize) -> i32 {
        self.code(r, c) >> 4
    }

    /// The complementary low nibble such that
    /// `(msb << 4) + lsb == code` always holds.
    pub fn lsb_nibble(&self, r: usize, c: usize) -> i32 {
        self.code(r, c) - ((self.code(r, c) >> 4) << 4)
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

    /// The signed residual paired with [`QuantizedMatrix::msb_rounded`]:
    /// `code − 16·msb`, in `[-8, 8]` (clamping at the positive extreme
    /// widens it by one code, still within a 4-bit signed cell plus
    /// the shared sign).
    pub fn lsb_residual(&self, r: usize, c: usize) -> i32 {
        self.code(r, c) - 16 * self.msb_rounded(r, c)
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
            let err = (p.fake_quantize(x) - x).abs();
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
    fn nibble_split_reconstructs_code() {
        let m = Matrix::from_rows(&[vec![1.0, -0.37, 0.92, -1.0, 0.004]]).unwrap();
        let q = quantize_matrix(&m, 8).unwrap();
        for c in 0..5 {
            let msb = q.msb_nibble(0, c);
            let lsb = q.lsb_nibble(0, c);
            assert_eq!((msb << 4) + lsb, q.code(0, c));
            assert!((0..16).contains(&lsb), "lsb nibble {lsb} out of range");
            assert!((-8..8).contains(&msb), "msb nibble {msb} out of range");
        }
    }

    #[test]
    fn value_helpers_round_trip() {
        let q = quantize_value(0.5, 12, 2.0).unwrap();
        let x = dequantize(q, 12, 2.0).unwrap();
        assert!((x - 0.5).abs() < 2.0 / 2047.0);
    }

    proptest! {
        #[test]
        fn prop_quantize_monotone(bits in 2u32..16, a in -10.0f32..10.0, b in -10.0f32..10.0) {
            let p = QuantParams::for_range(bits, 10.0).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(p.quantize(lo) <= p.quantize(hi));
        }

        #[test]
        fn prop_round_trip_bounded(bits in 4u32..16, x in -8.0f32..8.0) {
            let p = QuantParams::for_range(bits, 8.0).unwrap();
            let err = (p.fake_quantize(x) - x).abs();
            prop_assert!(err <= p.step() / 2.0 + 1e-6);
        }

        #[test]
        fn prop_nibbles_recombine(x in -1.0f32..1.0) {
            let m = Matrix::from_rows(&[vec![x, 1.0]]).unwrap();
            let q = quantize_matrix(&m, 8).unwrap();
            prop_assert_eq!((q.msb_nibble(0, 0) << 4) + q.lsb_nibble(0, 0), q.code(0, 0));
        }
    }
}
