//! Analog noise model for ReRAM in-memory computing (§III-A ①).
//!
//! The paper lists thermal noise, temperature fluctuation, process
//! variation and coupling noise as the inaccuracies limiting in-memory
//! precision, and anchors the aggregate effect on the HP Labs
//! measurement that a 64-tap in-memory dot product delivers **5-bit
//! equivalent output accuracy** (Hu et al., DAC'16). This model folds
//! all per-operation effects into one additive Gaussian on the analog
//! output, parameterized as an equivalent ADC bit count, plus a static
//! per-cell programming variation applied by [`crate::CrossbarArray`].

use crate::ReramError;

/// Aggregate analog error model.
///
/// `relative_sigma` is the standard deviation of the additive output
/// noise as a fraction of the full-scale analog output;
/// `programming_sigma` is the relative standard deviation of each
/// cell's stored conductance (fixed at programming time).
///
/// # Example
///
/// ```
/// use sprint_reram::NoiseModel;
///
/// let hp = NoiseModel::equivalent_bits(5).unwrap();
/// let ideal = NoiseModel::ideal();
/// assert!(hp.relative_sigma() > ideal.relative_sigma());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    relative_sigma: f64,
    programming_sigma: f64,
}

impl NoiseModel {
    /// A noiseless model: analog compute equals digital compute
    /// exactly. Used by equivalence tests and ideal-hardware ablations.
    pub fn ideal() -> Self {
        NoiseModel {
            relative_sigma: 0.0,
            programming_sigma: 0.0,
        }
    }

    /// A model whose aggregate output error matches a `bits`-bit ADC:
    /// `sigma = 1 / (2^bits * sqrt(12))` of full scale (the RMS of a
    /// uniform quantization error of that width).
    ///
    /// `NoiseModel::equivalent_bits(5)` reproduces the paper's HP-Labs
    /// anchor and is the default used in the §VII evaluation.
    ///
    /// The per-cell **programming variation defaults to 1 %**
    /// (`programming_sigma = 0.01`, the write-variation figure the
    /// paper's robustness analysis assumes). Override it explicitly
    /// with [`NoiseModel::with_programming_sigma`] when composing with
    /// other non-idealities (e.g. a [`crate::FaultModel`]), so the two
    /// error sources stay separately attributable.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] unless `1 <= bits <= 16`.
    pub fn equivalent_bits(bits: u32) -> Result<Self, ReramError> {
        if !(1..=16).contains(&bits) {
            return Err(ReramError::InvalidParameter(format!(
                "equivalent bits {bits} outside 1..=16"
            )));
        }
        Ok(NoiseModel {
            relative_sigma: 1.0 / ((1u64 << bits) as f64 * 12f64.sqrt()),
            programming_sigma: 0.01,
        })
    }

    /// Builds a model from explicit sigmas.
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] if either sigma is
    /// negative or not finite.
    pub fn from_sigmas(relative_sigma: f64, programming_sigma: f64) -> Result<Self, ReramError> {
        for (name, v) in [
            ("relative_sigma", relative_sigma),
            ("programming_sigma", programming_sigma),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ReramError::InvalidParameter(format!(
                    "{name} = {v} must be finite and non-negative"
                )));
            }
        }
        Ok(NoiseModel {
            relative_sigma,
            programming_sigma,
        })
    }

    /// Returns this model with the per-cell programming variation
    /// replaced, keeping the output-noise sigma. Use this to override
    /// the 1 % default that [`NoiseModel::equivalent_bits`] bakes in:
    ///
    /// ```
    /// use sprint_reram::NoiseModel;
    ///
    /// let quiet_writes = NoiseModel::equivalent_bits(5)
    ///     .unwrap()
    ///     .with_programming_sigma(0.0)
    ///     .unwrap();
    /// assert_eq!(quiet_writes.programming_sigma(), 0.0);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ReramError::InvalidParameter`] if the sigma is
    /// negative or not finite.
    pub fn with_programming_sigma(self, programming_sigma: f64) -> Result<Self, ReramError> {
        NoiseModel::from_sigmas(self.relative_sigma, programming_sigma)
    }

    /// Output noise standard deviation as a fraction of full scale.
    pub fn relative_sigma(&self) -> f64 {
        self.relative_sigma
    }

    /// Per-cell programming variation (relative).
    pub fn programming_sigma(&self) -> f64 {
        self.programming_sigma
    }

    /// Whether this model introduces no error at all.
    pub fn is_ideal(&self) -> bool {
        self.relative_sigma == 0.0 && self.programming_sigma == 0.0
    }

    /// A conservative bound (3σ) on the output error for a given full
    /// scale, used to size the thresholding safety margin.
    pub fn margin_bound(&self, full_scale: f64) -> f64 {
        3.0 * self.relative_sigma * full_scale
    }
}

impl Default for NoiseModel {
    /// The paper's evaluation setting: 5-bit-equivalent output
    /// accuracy.
    fn default() -> Self {
        NoiseModel::equivalent_bits(5).expect("5 is a valid bit count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_is_exact() {
        let m = NoiseModel::ideal();
        assert!(m.is_ideal());
        assert_eq!(m.margin_bound(100.0), 0.0);
    }

    #[test]
    fn default_is_five_bit_equivalent() {
        let m = NoiseModel::default();
        let five = NoiseModel::equivalent_bits(5).unwrap();
        assert_eq!(m.relative_sigma(), five.relative_sigma());
    }

    #[test]
    fn sigma_halves_per_extra_bit() {
        let b4 = NoiseModel::equivalent_bits(4).unwrap();
        let b5 = NoiseModel::equivalent_bits(5).unwrap();
        assert!((b4.relative_sigma() / b5.relative_sigma() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn five_bit_sigma_matches_quantization_rms() {
        let m = NoiseModel::equivalent_bits(5).unwrap();
        // 1 / (32 * sqrt(12)) ≈ 0.009021.
        assert!((m.relative_sigma() - 0.009021).abs() < 1e-5);
    }

    #[test]
    fn parameter_validation() {
        assert!(NoiseModel::equivalent_bits(0).is_err());
        assert!(NoiseModel::equivalent_bits(17).is_err());
        assert!(NoiseModel::from_sigmas(-0.1, 0.0).is_err());
        assert!(NoiseModel::from_sigmas(0.0, f64::NAN).is_err());
        assert!(NoiseModel::from_sigmas(0.01, 0.02).is_ok());
    }

    #[test]
    fn equivalent_bits_defaults_one_percent_programming_sigma() {
        let m = NoiseModel::equivalent_bits(5).unwrap();
        assert_eq!(m.programming_sigma(), 0.01, "the documented default");
    }

    #[test]
    fn with_programming_sigma_overrides_only_that_knob() {
        let base = NoiseModel::equivalent_bits(5).unwrap();
        let overridden = base.with_programming_sigma(0.05).unwrap();
        assert_eq!(overridden.relative_sigma(), base.relative_sigma());
        assert_eq!(overridden.programming_sigma(), 0.05);
        assert!(base.with_programming_sigma(-0.01).is_err());
        assert!(base.with_programming_sigma(f64::INFINITY).is_err());
    }

    #[test]
    fn margin_bound_scales_with_full_scale() {
        let m = NoiseModel::from_sigmas(0.01, 0.0).unwrap();
        assert!((m.margin_bound(100.0) - 3.0).abs() < 1e-12);
        assert!((m.margin_bound(200.0) - 6.0).abs() < 1e-12);
    }
}
