//! Analog noise model for ReRAM in-memory computing (§III-A ①).
//!
//! The paper lists thermal noise, temperature fluctuation, process
//! variation and coupling noise as the inaccuracies limiting in-memory
//! precision, and anchors the aggregate effect on the HP Labs
//! measurement that a 64-tap in-memory dot product delivers **5-bit
//! equivalent output accuracy** (Hu et al., DAC'16). This model folds
//! all per-operation effects into one additive Gaussian on the analog
//! output, parameterized as an equivalent ADC bit count, plus a static
//! per-cell programming variation applied by the crossbar at write time.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::Rng;

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

/// The two uniforms of one Box–Muller draw, in stream order: `u1` in
/// `[f64::MIN_POSITIVE, 1)`, then `u2` in `[0, 1)`.
pub(crate) fn uniforms(rng: &mut StdRng) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// The Box–Muller standard normal of one uniform pair (no
/// `rand_distr` in the offline set): the radius `sqrt(-2·ln u1)` times
/// `cos(2π·u2)`.
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Top mantissa bits of `u1` that pick a bucket within a binade.
const RADIUS_MANTISSA_BITS: u32 = 6;
/// Binades of `u1` below 1 that the radius table covers:
/// `[2^-16, 1)`.
const RADIUS_BINADES: u64 = 16;
/// `u1.to_bits() >> (52 - RADIUS_MANTISSA_BITS)` of the table's first
/// bucket, the lower edge `2^-16`.
const RADIUS_FIRST_KEY: u64 = (1023 - RADIUS_BINADES) << RADIUS_MANTISSA_BITS;
/// Buckets in the table: 1024 `f32`, 4 KiB.
const RADIUS_BUCKETS: usize = (RADIUS_BINADES as usize) << RADIUS_MANTISSA_BITS;
/// The relative slack each bucket's bound carries over the radius at
/// its lower edge. It covers the `f32` rounding of the entry (2^-24)
/// and any few-ulp wobble of libm `ln` inside the bucket.
const RADIUS_SLACK: f64 = 1.0 / (1u64 << 20) as f64;

/// The bound outside the table: at least `√(−2·ln f64::MIN_POSITIVE)`
/// ≈ 37.64, the largest radius any `u1` reaches.
pub(crate) const RADIUS_CEILING: f64 = 38.0;

/// Each bucket's bound: the radius at the bucket's lower edge (the
/// radius falls as `u1` grows) times `1 + RADIUS_SLACK`, as `f32`.
fn radius_table() -> &'static [f32; RADIUS_BUCKETS] {
    static TABLE: OnceLock<[f32; RADIUS_BUCKETS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|i| {
            let key = RADIUS_FIRST_KEY + i as u64;
            let edge = f64::from_bits(key << (52 - RADIUS_MANTISSA_BITS));
            ((-2.0 * edge.ln()).sqrt() * (1.0 + RADIUS_SLACK)) as f32
        })
    })
}

/// An upper bound on the Box–Muller radius `sqrt(-2·ln u1)` as
/// [`box_muller`] rounds it, for any `u1` that [`uniforms`] draws
/// (`[f64::MIN_POSITIVE, 1)`), from `u1`'s exponent and top mantissa
/// bits alone. Since `|cos| ≤ 1` and a
/// rounded product is monotone, `|box_muller(u1, u2)| ≤
/// radius_bound(u1)` for every `u2`.
pub(crate) fn radius_bound(u1: f64) -> f64 {
    let key = u1.to_bits() >> (52 - RADIUS_MANTISSA_BITS);
    key.checked_sub(RADIUS_FIRST_KEY)
        .and_then(|i| radius_table().get(i as usize))
        .map_or(RADIUS_CEILING, |&r| f64::from(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_model_is_exact() {
        let m = NoiseModel::ideal();
        assert_eq!((m.relative_sigma(), m.programming_sigma()), (0.0, 0.0));
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

    /// `|box_muller(u1, u2)| ≤ radius_bound(u1)` at `u2` where the
    /// cosine is `±1` and in between.
    fn assert_bounded(u1: f64) {
        for u2 in [0.0, 0.125, 0.5, 0.875] {
            let n = box_muller(u1, u2);
            let bound = radius_bound(u1);
            assert!(n.abs() <= bound, "u1 {u1:e}, u2 {u2}: |{n}| > {bound}");
        }
    }

    fn assert_bounded_over_draws(seed: u64, draws: u64) {
        let mut rng = rand::SeedableRng::seed_from_u64(seed);
        for _ in 0..draws {
            let (u1, u2) = uniforms(&mut rng);
            let n = box_muller(u1, u2);
            assert!(n.abs() <= radius_bound(u1), "u1 {u1:e}, u2 {u2}: {n}");
        }
    }

    #[test]
    fn the_radius_bound_holds_at_every_bucket_edge() {
        for key in RADIUS_FIRST_KEY..RADIUS_FIRST_KEY + RADIUS_BUCKETS as u64 {
            let edge = f64::from_bits(key << (52 - RADIUS_MANTISSA_BITS));
            // The edge is its bucket's largest radius; the value just
            // below it belongs to the bucket (or the ceiling) below.
            assert_bounded(edge);
            assert_bounded(edge.next_down());
            // The bound is the edge's radius plus the slack, no looser.
            let radius = (-2.0 * edge.ln()).sqrt();
            assert!(radius_bound(edge) <= radius * (1.0 + 2.0 * RADIUS_SLACK));
        }
        assert_bounded(f64::MIN_POSITIVE);
        assert_bounded(1.0f64.next_down());
        assert!(RADIUS_CEILING >= (-2.0 * f64::MIN_POSITIVE.ln()).sqrt());
        assert_eq!(radius_bound(f64::MIN_POSITIVE), RADIUS_CEILING);
    }

    #[test]
    fn the_radius_bound_holds_over_a_million_draws() {
        assert_bounded_over_draws(1, 1_000_000);
    }

    #[test]
    #[ignore = "10^8 draws; run optimized: cargo test --release -p sprint-reram --lib -- --include-ignored"]
    fn the_radius_bound_holds_over_a_hundred_million_draws() {
        assert_bounded_over_draws(2, 100_000_000);
    }

    #[test]
    fn margin_bound_scales_with_full_scale() {
        let m = NoiseModel::from_sigmas(0.01, 0.0).unwrap();
        assert!((m.margin_bound(100.0) - 3.0).abs() < 1e-12);
        assert!((m.margin_bound(200.0) - 6.0).abs() < 1e-12);
    }
}
