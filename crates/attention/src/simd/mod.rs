//! Runtime-dispatched SIMD kernel tiers for the hot attention loops.
//!
//! Two tiers exist: [`SimdTier::Scalar`], the register-blocked Rust
//! that has always been here (and remains the reference oracle every
//! vector lane is differential-tested against), and
//! [`SimdTier::Avx2`], AVX2/FMA lanes for the fused `Q × Kᵀ`, softmax,
//! AV, and 8-bit QK-PU/V-PU paths. Tier selection is automatic at
//! runtime ([`active_tier`]) and overridable for testing via the
//! `SPRINT_SIMD={auto,scalar,avx2}` environment variable or
//! per-[`crate::Workspace`] / per-engine knobs.
//!
//! ## Equivalence contract
//!
//! | kernel family                         | cross-tier guarantee |
//! |---------------------------------------|----------------------|
//! | integer QK-PU / V-PU (`idot`, `idot_i8`, V-PU accumulate) | bit-identical |
//! | softmax `row_max` / `scale_row` stages | bit-identical |
//! | prune scan (`prune_mask_row`)         | bit-identical |
//! | float `Q × Kᵀ` / decode score dots    | ≤ 4 ULP (FMA reduction tree) |
//! | softmax exponent pass (`exp_rows`)    | ~1e-6 relative (polynomial exp + lane sums) |
//! | AV stage (`axpy`, `av_row`)           | ≤ 0.5 ULP per step (fused multiply-add) |
//!
//! Three kernel families diverge across tiers, all by bounded float
//! tolerance: the float dot (its FMA reduction tree reassociates the
//! sum), the softmax exponent pass (the AVX2 tier evaluates a
//! Cephes-style polynomial `exp` eight lanes at a time and sums
//! per-lane), and the AV stage (the AVX2 tier fuses each
//! multiply-add where the scalar tier rounds the product first — the
//! accumulation *order* is identical, so the drift is sub-ULP per
//! element). Masked `-inf` scores produce *exactly* `0.0` in every
//! tier, so pruning decisions and the sparse AV walk's `p == 0.0`
//! skips are tier-independent. Everything else either performs the
//! exact per-element operation order of the scalar tier or reduces an
//! order-free operation (integer add, max). The quantized SPRINT path
//! never touches `exp_rows` — its integer two-LUT softmax is
//! tier-independent, keeping that path bit-identical end to end.
//! `docs/simd.md` documents the contract and how to add a lane.
//!
//! A forced [`SimdTier::Avx2`] on a host without AVX2+FMA is sanitized
//! back to [`SimdTier::Scalar`] everywhere a tier enters the system
//! ([`active_tier`], [`crate::Workspace::set_simd_tier`]), so a tier
//! in flight is always safe to dispatch on.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::ops::Range;
use std::sync::OnceLock;

use crate::Matrix;

#[cfg(target_arch = "x86_64")]
mod avx2;

/// One kernel tier. The scalar tier is always available and is the
/// reference implementation; the AVX2 tier requires runtime-detected
/// AVX2 *and* FMA support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Portable register-blocked Rust — the reference oracle.
    Scalar,
    /// AVX2/FMA vector lanes (x86-64 hosts with both features).
    Avx2,
}

impl SimdTier {
    /// The tier's canonical lowercase name (`"scalar"` / `"avx2"`),
    /// matching the `SPRINT_SIMD` knob values.
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(target_arch = "x86_64")]
fn detect_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_avx2() -> bool {
    false
}

/// Whether this host can run the AVX2 tier (runtime detection of AVX2
/// *and* FMA — the float lanes use fused multiply-adds).
pub fn avx2_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect_avx2)
}

/// Clamps a requested tier to what the host supports: forcing
/// [`SimdTier::Avx2`] on a host without AVX2+FMA falls back to
/// [`SimdTier::Scalar`] rather than faulting. Every entry point that
/// accepts a tier sanitizes through here, so a tier in flight can
/// always be dispatched on safely.
pub fn sanitize_tier(tier: SimdTier) -> SimdTier {
    match tier {
        SimdTier::Avx2 if !avx2_available() => SimdTier::Scalar,
        t => t,
    }
}

/// Parses an `SPRINT_SIMD` knob value. `None` means "auto" (unset,
/// `auto`, or anything unrecognized).
fn parse_knob(raw: Option<&str>) -> Option<SimdTier> {
    match raw.map(|s| s.trim().to_ascii_lowercase()).as_deref() {
        Some("scalar") => Some(SimdTier::Scalar),
        Some("avx2") => Some(SimdTier::Avx2),
        _ => None,
    }
}

/// The process-wide default tier: `SPRINT_SIMD` when set (sanitized),
/// otherwise the fastest tier the host supports. Read once and cached;
/// freshly constructed [`crate::Workspace`]s and engines inherit it.
pub fn active_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let forced = parse_knob(std::env::var("SPRINT_SIMD").ok().as_deref());
        sanitize_tier(forced.unwrap_or(if avx2_available() {
            SimdTier::Avx2
        } else {
            SimdTier::Scalar
        }))
    })
}

/// Dot product of two equal-length float rows. Scalar: the four-lane
/// reduction of `crate::matrix`. AVX2: the FMA reduction (≤ 4 ULP).
pub(crate) fn dot(tier: SimdTier, a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::dot(a, b) };
    }
    let _ = tier;
    crate::matrix::dot(a, b)
}

/// Tiered `out[i][j] = scale * (a.row(i) · b.row(j))` over a region,
/// leaving the rest of `out` untouched. Scalar: the blocked kernels of
/// `crate::matrix`. AVX2: per-cell [`dot`] (≤ 4 ULP; decode ≡ batch by
/// construction in both tiers).
pub(crate) fn matmul_transposed_scaled_into(
    tier: SimdTier,
    a: &Matrix,
    b: &Matrix,
    scale: f32,
    rows: Range<usize>,
    cols: Range<usize>,
    out: &mut Matrix,
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; row accesses are bounds-checked.
        unsafe { avx2::matmul_transposed_scaled_into(a, b, scale, rows, cols, out) };
        return;
    }
    let _ = tier;
    crate::matrix::mt_scalar_into(a, b, scale, rows, cols, out);
}

/// Maximum of a row (`-inf` for an empty row). Bit-identical across
/// tiers for NaN-free rows.
pub(crate) fn row_max(tier: SimdTier, row: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && !row.is_empty() {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::row_max(row) };
    }
    let _ = tier;
    row.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// `row[t] *= factor` (the softmax normalization). Bit-identical
/// across tiers: element-wise multiply.
pub(crate) fn scale_row(tier: SimdTier, row: &mut [f32], factor: f32) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::scale_row(row, factor) };
        return;
    }
    let _ = tier;
    for s in row.iter_mut() {
        *s *= factor;
    }
}

/// The fused prune scan of one scores row (Eq. 3): per element,
/// `pruned = s < threshold`; pruned positions are masked to `-inf` in
/// both the scores row and the probability staging row; the decision
/// flag is written; the kept count is returned. Bit-identical across
/// tiers — comparison and select are exact (NaN scores compare false
/// and stay kept in both tiers).
pub(crate) fn prune_mask_row(
    tier: SimdTier,
    srow: &mut [f32],
    prow: &mut [f32],
    flags: &mut [bool],
    threshold: f32,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::prune_mask_row(srow, prow, flags, threshold) };
    }
    let _ = tier;
    let mut kept = 0usize;
    for ((flag, s), p) in flags.iter_mut().zip(srow.iter_mut()).zip(prow.iter_mut()) {
        let pruned = *s < threshold;
        *flag = pruned;
        kept += usize::from(!pruned);
        let masked = if pruned { f32::NEG_INFINITY } else { *s };
        *s = masked;
        *p = masked;
    }
    kept
}

/// The softmax exponent pass: `row[t] = exp(row[t] - max)`, returning
/// the sum of the exponentials. `-inf` entries (masked scores) become
/// exactly `0.0` in every tier. Scalar: sequential `f32::exp`. AVX2:
/// the polynomial [`avx2::exp_rows`] — tolerance class, ~1e-6
/// relative. `max` must be finite; callers handle the all-`-inf` row
/// before this.
pub(crate) fn exp_rows(tier: SimdTier, row: &mut [f32], max: f32) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::exp_rows(row, max) };
    }
    let _ = tier;
    let mut sum = 0.0f32;
    for s in row.iter_mut() {
        let e = if *s == f32::NEG_INFINITY {
            0.0
        } else {
            (*s - max).exp()
        };
        *s = e;
        sum += e;
    }
    sum
}

/// `out[t] += a * x[t]` (the sparse AV inner step over one V row).
/// AV tolerance class: the AVX2 tier fuses the multiply-add (≤ 0.5 ULP
/// per step vs the scalar tier's multiply-then-add), and within each
/// tier this is exactly the [`av_row`] per-element chain, so decode
/// and batch outputs agree bitwise per tier.
pub(crate) fn axpy(tier: SimdTier, out: &mut [f32], a: f32, x: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::axpy(out, a, x) };
        return;
    }
    let _ = tier;
    crate::attention::axpy(out, a, x);
}

/// One output row of the AV stage over a contiguous row-major `V`:
/// ascending-key accumulation, with `skip_zero` skipping exactly-zero
/// probabilities (the sparse pruned path) or visiting every key (the
/// dense-crossover path). AV tolerance class across tiers (the AVX2
/// tier uses one FMA per element, see [`axpy`]); the skip and stream
/// walks are bit-identical to each other within every tier.
pub(crate) fn av_row(
    tier: SimdTier,
    out: &mut [f32],
    probs: &[f32],
    v: &[f32],
    d_v: usize,
    skip_zero: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; trip counts are clamped to the slice lengths.
        unsafe { avx2::av_row(out, probs, v, d_v, skip_zero) };
        return;
    }
    let _ = tier;
    for (&p, v_row) in probs.iter().zip(v.chunks_exact(d_v)) {
        if !skip_zero || p != 0.0 {
            crate::attention::axpy(out, p, v_row);
        }
    }
}

/// The whole-matrix AV stage: row `i` of `out` accumulates
/// `probs.row(i)[..live] × V` for each plan `(live, skip_zero)`
/// (`live == 0` leaves the row untouched — padded queries). Every row
/// is bit-identical to a standalone [`av_row`] call on the same tier:
/// the AVX2 `d_v == 64` arm sweeps key panels across all rows so the
/// `V` panel stays L1-resident (spilling each row's partial sums
/// between panels, which is exact), every other combination simply
/// loops [`av_row`].
pub(crate) fn av_rows(
    tier: SimdTier,
    out: &mut Matrix,
    probs: &Matrix,
    v: &[f32],
    d_v: usize,
    plans: &[(usize, bool)],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && d_v == 64 && out.cols() == 64 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; plan bounds are debug-asserted and row accessors
        // bounds-check.
        unsafe { avx2::av_rows64(out, probs, v, plans) };
        return;
    }
    for (i, &(live, skip_zero)) in plans.iter().enumerate() {
        if live > 0 {
            av_row(
                tier,
                out.row_mut(i),
                &probs.row(i)[..live],
                v,
                d_v,
                skip_zero,
            );
        }
    }
}

/// Integer QK-PU dot over `i32` code rows (8-bit-range codes, whose
/// products cannot overflow the `i32` sum). Bit-identical across
/// tiers. Public for `sprint-reram`'s comparator calibration, which
/// walks the same codes; a forced [`SimdTier::Avx2`] on a host without
/// it takes the scalar arm.
pub fn idot(tier: SimdTier, a: &[i32], b: &[i32]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && avx2_available() {
        // SAFETY: AVX2+FMA were just confirmed; memory accesses are
        // slice-bounded.
        return unsafe { avx2::idot(a, b) };
    }
    let _ = tier;
    crate::attention::idot(a, b)
}

/// Integer QK-PU dot with the key side widened from cached `i8` page
/// codes (the decode path). Bit-identical across tiers.
pub(crate) fn idot_i8(tier: SimdTier, a: &[i32], b: &[i8]) -> i32 {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        return unsafe { avx2::idot_i8(a, b) };
    }
    let _ = tier;
    a.iter().zip(b).map(|(&x, &y)| x * i32::from(y)).sum()
}

/// One key's V-PU accumulation over `i32` value codes:
/// `acc[t] += p_code * codes[t]`. Bit-identical across tiers.
pub(crate) fn vpu_accumulate(tier: SimdTier, acc: &mut [i32], p_code: i32, codes: &[i32]) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::vpu_accumulate(acc, p_code, codes) };
        return;
    }
    let _ = tier;
    for (a, &vc) in acc.iter_mut().zip(codes) {
        *a += p_code * vc;
    }
}

/// [`vpu_accumulate`] over cached `i8` page codes (the decode V-PU).
/// Bit-identical across tiers.
pub(crate) fn vpu_accumulate_i8(tier: SimdTier, acc: &mut [i32], p_code: i32, codes: &[i8]) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 {
        debug_assert!(avx2_available(), "unsanitized Avx2 tier");
        // SAFETY: Avx2 tiers only exist after `sanitize_tier` confirmed
        // AVX2+FMA; memory accesses are slice-bounded.
        unsafe { avx2::vpu_accumulate_i8(acc, p_code, codes) };
        return;
    }
    let _ = tier;
    for (a, &vc) in acc.iter_mut().zip(codes) {
        *a += p_code * i32::from(vc);
    }
}

/// Distance between two floats in units in the last place, through the
/// standard monotone total order on the bit patterns. Equal bits give
/// 0; `+0.0`/`-0.0` are 1 apart; NaNs compare by bit pattern like any
/// other value. This is the measuring stick of the documented ≤ 4-ULP
/// float contract (`docs/simd.md`).
pub fn ulp_distance(a: f32, b: f32) -> u32 {
    fn key(x: f32) -> i64 {
        let b = x.to_bits();
        if b & 0x8000_0000 != 0 {
            -(i64::from(b & 0x7fff_ffff)) - 1
        } else {
            i64::from(b)
        }
    }
    key(a).abs_diff(key(b)).try_into().unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random floats in roughly [-1, 1).
    fn rand_f32(seed: u64, n: usize) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        (0..n)
            .map(|_| {
                x ^= x >> 33;
                x = x.wrapping_mul(0xFF51AFD7ED558CCD);
                ((x >> 40) as f32 / 8388608.0) - 1.0
            })
            .collect()
    }

    /// Deterministic pseudo-random 8-bit-range codes.
    fn rand_codes(seed: u64, n: usize) -> Vec<i32> {
        let mut x = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(3);
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                ((x >> 32) as i32 % 256) - 128
            })
            .collect()
    }

    /// The ≤ 4-ULP dot contract, measured at the accumulated magnitude
    /// `Σ|aᵢ·bᵢ|`: reassociating a sum perturbs it by a few ULP *of the
    /// terms being accumulated*, which equals a few ULP of the result
    /// except under cancellation (where no fixed result-relative bound
    /// exists for either tier).
    fn dot_close(s: f32, v: f32, a: &[f32], b: &[f32]) -> bool {
        let magnitude: f32 = a.iter().zip(b).map(|(&x, &y)| (x * y).abs()).sum();
        ulp_distance(s, v) <= 4 || (s - v).abs() <= 4.0 * f32::EPSILON * magnitude
    }

    /// Lengths crossing every remainder branch of the 8- and 16-wide
    /// loops: 0, 1, lane−1, lane, lane+1 for both widths, plus the
    /// studied head sizes.
    const TAIL_LENGTHS: &[usize] = &[
        0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 23, 24, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129,
    ];

    #[test]
    fn knob_parsing_recognizes_tiers_and_defaults_to_auto() {
        assert_eq!(parse_knob(Some("scalar")), Some(SimdTier::Scalar));
        assert_eq!(parse_knob(Some(" AVX2 ")), Some(SimdTier::Avx2));
        assert_eq!(parse_knob(Some("auto")), None);
        assert_eq!(parse_knob(Some("sse9")), None);
        assert_eq!(parse_knob(None), None);
    }

    #[test]
    fn sanitize_clamps_to_host_support() {
        assert_eq!(sanitize_tier(SimdTier::Scalar), SimdTier::Scalar);
        let forced = sanitize_tier(SimdTier::Avx2);
        if avx2_available() {
            assert_eq!(forced, SimdTier::Avx2);
        } else {
            assert_eq!(forced, SimdTier::Scalar);
        }
        assert_eq!(sanitize_tier(active_tier()), active_tier());
    }

    #[test]
    fn tier_names_round_trip_through_the_knob() {
        for tier in [SimdTier::Scalar, SimdTier::Avx2] {
            assert_eq!(parse_knob(Some(tier.name())), Some(tier));
            assert_eq!(format!("{tier}"), tier.name());
        }
    }

    #[test]
    fn ulp_distance_behaves_at_the_edges() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 1);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 3)), 3);
        assert_eq!(ulp_distance(-1.5, -1.5), 0);
        assert!(ulp_distance(1.0, -1.0) > 1_000_000);
    }

    #[test]
    fn tail_lengths_dot_within_ulp_budget() {
        if !avx2_available() {
            return;
        }
        for &n in TAIL_LENGTHS {
            let a = rand_f32(n as u64 + 1, n);
            let b = rand_f32(n as u64 + 1000, n);
            let scalar = dot(SimdTier::Scalar, &a, &b);
            let vector = dot(SimdTier::Avx2, &a, &b);
            assert!(
                dot_close(scalar, vector, &a, &b),
                "len {n}: scalar {scalar} vs avx2 {vector}"
            );
        }
    }

    #[test]
    fn tail_lengths_row_max_and_scale_are_bit_identical() {
        if !avx2_available() {
            return;
        }
        for &n in TAIL_LENGTHS {
            let mut row = rand_f32(n as u64 + 11, n);
            if n > 0 {
                row[n / 2] = f32::NEG_INFINITY; // masked entries appear in real rows
                assert_eq!(
                    row_max(SimdTier::Scalar, &row).to_bits(),
                    row_max(SimdTier::Avx2, &row).to_bits(),
                    "row_max len {n}"
                );
            }
            let mut scalar_row = row.clone();
            scale_row(SimdTier::Scalar, &mut scalar_row, 0.7311);
            scale_row(SimdTier::Avx2, &mut row, 0.7311);
            assert_eq!(
                scalar_row.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                row.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "scale_row len {n}"
            );
        }
    }

    #[test]
    fn tail_lengths_axpy_agrees_within_the_av_tolerance() {
        if !avx2_available() {
            return;
        }
        // The AVX2 arm fuses each multiply-add; versus the scalar
        // multiply-then-add that is at most 0.5 ULP of drift per step,
        // far inside 1e-6 relative for one step.
        for &n in TAIL_LENGTHS {
            let x = rand_f32(n as u64 + 21, n);
            let mut scalar_out = rand_f32(n as u64 + 22, n);
            let mut vector_out = scalar_out.clone();
            axpy(SimdTier::Scalar, &mut scalar_out, 0.4821, &x);
            axpy(SimdTier::Avx2, &mut vector_out, 0.4821, &x);
            // The drift is sub-ULP of the *operands* (O(1) here), so
            // the floor is operand-scale: cancellation can make the
            // result far smaller than the rounding error of one step.
            for (i, (&s, &v)) in scalar_out.iter().zip(vector_out.iter()).enumerate() {
                assert!(
                    (s - v).abs() <= 1e-6 * s.abs().max(1.0),
                    "axpy len {n} slot {i}: {s} vs {v}"
                );
            }
        }
    }

    #[test]
    fn tail_lengths_av_row_modes_agree_and_walks_match_within_tier() {
        if !avx2_available() {
            return;
        }
        // d_v sweeps the lane boundaries; 64 exercises the
        // register-resident specialization.
        for &d_v in &[1usize, 7, 8, 9, 16, 31, 33, 64, 100] {
            for keys in [0usize, 1, 3, 17] {
                let v = rand_f32(d_v as u64 * 31 + keys as u64, keys * d_v);
                let mut probs = rand_f32(d_v as u64 + keys as u64 + 5, keys);
                // Mix in exact zeros so skip_zero has something to skip.
                for p in probs.iter_mut().step_by(2) {
                    *p = 0.0;
                }
                let mut walks = Vec::new();
                for skip_zero in [true, false] {
                    let mut scalar_out = rand_f32(9, d_v);
                    let mut vector_out = scalar_out.clone();
                    av_row(
                        SimdTier::Scalar,
                        &mut scalar_out,
                        &probs,
                        &v,
                        d_v,
                        skip_zero,
                    );
                    av_row(SimdTier::Avx2, &mut vector_out, &probs, &v, d_v, skip_zero);
                    // Cross-tier: the AV tolerance class (FMA drift,
                    // operand-scale floor — see the axpy tail test).
                    for (i, (&s, &a)) in scalar_out.iter().zip(vector_out.iter()).enumerate() {
                        assert!(
                            (s - a).abs() <= 1e-5 * s.abs().max(1.0),
                            "av_row d_v {d_v} keys {keys} skip {skip_zero} slot {i}: {s} vs {a}"
                        );
                    }
                    walks.push((scalar_out, vector_out));
                }
                // Within each tier, the skip walk and the stream walk
                // visit the surviving keys in the same order with the
                // same arithmetic (a visited zero probability is an
                // exact no-op), so they must agree bit for bit.
                let (skip, stream) = (&walks[0], &walks[1]);
                for (tier_idx, tier) in ["scalar", "avx2"].iter().enumerate() {
                    let pick = |w: &(Vec<f32>, Vec<f32>)| {
                        if tier_idx == 0 {
                            w.0.clone()
                        } else {
                            w.1.clone()
                        }
                    };
                    assert_eq!(
                        pick(skip).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        pick(stream).iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{tier} skip vs stream, d_v {d_v} keys {keys}"
                    );
                }
            }
        }
    }

    #[test]
    fn av_rows_is_bitwise_the_per_row_walk_on_both_tiers() {
        // The matrix-level stage only re-tiles the sweep (key panels
        // with exact register spills between them); every row must
        // match a standalone av_row call bit for bit. Key counts cross
        // the 32-key panel boundary both ways, d_v == 64 exercises the
        // panel kernel and 16 the fallback loop; plans mix skip/stream
        // rows, short live prefixes and untouched (live == 0) rows.
        let tiers = if avx2_available() {
            vec![SimdTier::Scalar, SimdTier::Avx2]
        } else {
            vec![SimdTier::Scalar]
        };
        for &d_v in &[64usize, 16] {
            for keys in [1usize, 31, 32, 33, 64, 65, 100] {
                let rows = 5;
                let v = rand_f32(keys as u64 * 7 + d_v as u64, keys * d_v);
                let mut probs = Matrix::zeros(rows, keys).unwrap();
                for i in 0..rows {
                    let mut row = rand_f32(i as u64 * 13 + keys as u64, keys);
                    for p in row.iter_mut().step_by(3) {
                        *p = 0.0;
                    }
                    probs.row_mut(i).copy_from_slice(&row);
                }
                let plans: Vec<(usize, bool)> = vec![
                    (keys, true),
                    (keys, false),
                    (0, true),
                    (keys.min(17), true),
                    (keys, true),
                ];
                for &tier in &tiers {
                    let mut batched = Matrix::zeros(rows, d_v).unwrap();
                    av_rows(tier, &mut batched, &probs, &v, d_v, &plans);
                    for (i, &(live, skip_zero)) in plans.iter().enumerate() {
                        let mut single = vec![0.0f32; d_v];
                        if live > 0 {
                            av_row(tier, &mut single, &probs.row(i)[..live], &v, d_v, skip_zero);
                        }
                        assert_eq!(
                            batched
                                .row(i)
                                .iter()
                                .map(|x| x.to_bits())
                                .collect::<Vec<_>>(),
                            single.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            "{tier} d_v {d_v} keys {keys} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tail_lengths_integer_kernels_are_bit_identical() {
        if !avx2_available() {
            return;
        }
        for &n in TAIL_LENGTHS {
            let a = rand_codes(n as u64 + 41, n);
            let b = rand_codes(n as u64 + 42, n);
            let b8: Vec<i8> = b.iter().map(|&c| (c.clamp(-128, 127)) as i8).collect();
            assert_eq!(
                idot(SimdTier::Scalar, &a, &b),
                idot(SimdTier::Avx2, &a, &b),
                "idot len {n}"
            );
            assert_eq!(
                idot_i8(SimdTier::Scalar, &a, &b8),
                idot_i8(SimdTier::Avx2, &a, &b8),
                "idot_i8 len {n}"
            );
            let mut scalar_acc = rand_codes(n as u64 + 43, n);
            let mut vector_acc = scalar_acc.clone();
            vpu_accumulate(SimdTier::Scalar, &mut scalar_acc, 173, &b);
            vpu_accumulate(SimdTier::Avx2, &mut vector_acc, 173, &b);
            assert_eq!(scalar_acc, vector_acc, "vpu_accumulate len {n}");
            vpu_accumulate_i8(SimdTier::Scalar, &mut scalar_acc, 91, &b8);
            vpu_accumulate_i8(SimdTier::Avx2, &mut vector_acc, 91, &b8);
            assert_eq!(scalar_acc, vector_acc, "vpu_accumulate_i8 len {n}");
        }
    }

    #[test]
    fn tiered_matmul_region_matches_scalar_within_ulp() {
        if !avx2_available() {
            return;
        }
        for &d in &[31usize, 32, 33, 64, 100, 128] {
            let a = Matrix::from_vec(5, d, rand_f32(d as u64, 5 * d)).unwrap();
            let b = Matrix::from_vec(7, d, rand_f32(d as u64 + 7, 7 * d)).unwrap();
            let mut scalar_out = Matrix::zeros(5, 7).unwrap();
            let mut vector_out = Matrix::zeros(5, 7).unwrap();
            matmul_transposed_scaled_into(
                SimdTier::Scalar,
                &a,
                &b,
                0.125,
                0..4,
                0..6,
                &mut scalar_out,
            );
            matmul_transposed_scaled_into(
                SimdTier::Avx2,
                &a,
                &b,
                0.125,
                0..4,
                0..6,
                &mut vector_out,
            );
            for r in 0..5 {
                for c in 0..7 {
                    let (s, v) = (scalar_out.get(r, c), vector_out.get(r, c));
                    // 0.125 is a power of two: dividing it back out is
                    // exact, so the dot contract applies unchanged.
                    assert!(
                        dot_close(s / 0.125, v / 0.125, a.row(r), b.row(c)),
                        "d {d} cell ({r},{c}): {s} vs {v}"
                    );
                }
            }
            // Outside the region both stay zero.
            assert_eq!(vector_out.get(4, 6), 0.0);
            assert_eq!(scalar_out.get(4, 6), 0.0);
        }
    }

    proptest! {
        #[test]
        fn prop_dot_tiers_agree_within_ulp(
            len in 0usize..130,
            seed in 0u64..500,
        ) {
            if avx2_available() {
                let a = rand_f32(seed, len);
                let b = rand_f32(seed.wrapping_add(77), len);
                let s = dot(SimdTier::Scalar, &a, &b);
                let v = dot(SimdTier::Avx2, &a, &b);
                prop_assert!(
                    dot_close(s, v, &a, &b),
                    "len {} scalar {} avx2 {}", len, s, v
                );
            }
        }

        #[test]
        fn prop_elementwise_kernels_agree(
            len in 0usize..130,
            seed in 0u64..500,
            factor in -2.0f32..2.0,
        ) {
            if avx2_available() {
                let x = rand_f32(seed, len);
                let mut s_out = rand_f32(seed.wrapping_add(5), len);
                let mut v_out = s_out.clone();
                // axpy is the AV tolerance class: one fused
                // multiply-add per element on AVX2, ≤ 0.5 ULP of
                // drift per step vs multiply-then-add.
                axpy(SimdTier::Scalar, &mut s_out, factor, &x);
                axpy(SimdTier::Avx2, &mut v_out, factor, &x);
                for (&s, &v) in s_out.iter().zip(v_out.iter()) {
                    prop_assert!(
                        (s - v).abs() <= 1e-6 * s.abs().max(1.0),
                        "axpy {} vs {}", s, v
                    );
                }
                // scale_row stays bit-identical: same single multiply
                // per element in both tiers.
                let mut s_scaled = rand_f32(seed.wrapping_add(9), len);
                let mut v_scaled = s_scaled.clone();
                scale_row(SimdTier::Scalar, &mut s_scaled, factor);
                scale_row(SimdTier::Avx2, &mut v_scaled, factor);
                prop_assert_eq!(
                    s_scaled.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    v_scaled.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }

        #[test]
        fn prop_integer_kernels_bit_identical(
            len in 0usize..130,
            seed in 0u64..500,
            p_code in 0i32..256,
        ) {
            if avx2_available() {
                let a = rand_codes(seed, len);
                let b = rand_codes(seed.wrapping_add(13), len);
                let b8: Vec<i8> = b.iter().map(|&c| c as i8).collect();
                prop_assert_eq!(idot(SimdTier::Scalar, &a, &b), idot(SimdTier::Avx2, &a, &b));
                prop_assert_eq!(
                    idot_i8(SimdTier::Scalar, &a, &b8),
                    idot_i8(SimdTier::Avx2, &a, &b8)
                );
                let mut s_acc = rand_codes(seed.wrapping_add(29), len);
                let mut v_acc = s_acc.clone();
                vpu_accumulate(SimdTier::Scalar, &mut s_acc, p_code, &b);
                vpu_accumulate(SimdTier::Avx2, &mut v_acc, p_code, &b);
                prop_assert_eq!(&s_acc, &v_acc);
                vpu_accumulate_i8(SimdTier::Scalar, &mut s_acc, p_code, &b8);
                vpu_accumulate_i8(SimdTier::Avx2, &mut v_acc, p_code, &b8);
                prop_assert_eq!(&s_acc, &v_acc);
            }
        }

        #[test]
        fn prop_softmax_tiers_agree_with_exact_zeros_at_masks(
            len in 1usize..130,
            seed in 0u64..500,
            mask_every in 1usize..5,
        ) {
            if avx2_available() {
                let mut scalar_row = rand_f32(seed, len);
                for s in scalar_row.iter_mut().step_by(mask_every) {
                    *s = f32::NEG_INFINITY;
                }
                let mut vector_row = scalar_row.clone();
                crate::softmax::softmax_inplace_tier(&mut scalar_row, SimdTier::Scalar);
                crate::softmax::softmax_inplace_tier(&mut vector_row, SimdTier::Avx2);
                for (i, (&s, &v)) in scalar_row.iter().zip(&vector_row).enumerate() {
                    if s == 0.0 {
                        // Masked positions are exactly zero in every tier:
                        // the pruned AV walk's `p == 0.0` skip depends on it.
                        prop_assert_eq!(v.to_bits(), 0.0f32.to_bits(), "masked slot {}", i);
                    } else {
                        // Probabilities are tolerance-class across tiers
                        // (polynomial exp + reassociated sum, ~1e-6 rel).
                        prop_assert!(
                            (s - v).abs() <= 1e-5 * s.abs().max(1e-3),
                            "slot {}: scalar {} vs avx2 {}", i, s, v
                        );
                    }
                }
            }
        }

        #[test]
        fn prop_exp_rows_tiers_agree_and_sum_matches(
            len in 1usize..130,
            seed in 0u64..500,
        ) {
            if avx2_available() {
                let scores: Vec<f32> = rand_f32(seed, len).iter().map(|x| 6.0 * x).collect();
                let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut s_row = scores.clone();
                let mut v_row = scores.clone();
                let s_sum = exp_rows(SimdTier::Scalar, &mut s_row, max);
                let v_sum = exp_rows(SimdTier::Avx2, &mut v_row, max);
                prop_assert!((s_sum - v_sum).abs() <= 1e-4 * s_sum.max(1.0));
                for (i, (&s, &v)) in s_row.iter().zip(&v_row).enumerate() {
                    prop_assert!(
                        (s - v).abs() <= 2e-6 * s.max(1e-6),
                        "slot {}: scalar {} vs avx2 {}", i, s, v
                    );
                }
            }
        }
    }

    #[test]
    fn tail_lengths_exp_rows_zero_masked_slots_exactly() {
        if !avx2_available() {
            return;
        }
        for &n in TAIL_LENGTHS {
            if n == 0 {
                continue;
            }
            let mut row: Vec<f32> = rand_f32(n as u64 + 51, n).iter().map(|x| 3.0 * x).collect();
            // Masked scores, deep underflow, and a guaranteed max of 0.
            row[0] = 0.0;
            if n > 1 {
                row[1] = f32::NEG_INFINITY;
            }
            if n > 2 {
                row[2] = -120.0; // underflows expf: must be exactly 0.0
            }
            let mut v_row = row.clone();
            let s_sum = exp_rows(SimdTier::Scalar, &mut row, 0.0);
            let v_sum = exp_rows(SimdTier::Avx2, &mut v_row, 0.0);
            assert!(
                (s_sum - v_sum).abs() <= 1e-4 * s_sum.max(1.0),
                "sum len {n}"
            );
            if n > 1 {
                assert_eq!(v_row[1].to_bits(), 0.0f32.to_bits(), "-inf slot len {n}");
            }
            if n > 2 {
                assert_eq!(
                    v_row[2].to_bits(),
                    0.0f32.to_bits(),
                    "underflow slot len {n}"
                );
            }
            assert_eq!(v_row[0].to_bits(), 1.0f32.to_bits(), "exp(0) len {n}");
        }
    }

    #[test]
    fn avx2_exp_tracks_f32_exp_to_relative_tolerance() {
        if !avx2_available() {
            return;
        }
        // Sweep the softmax-relevant domain (offsets from the row max
        // are always ≤ 0) plus the positive side for completeness. The
        // sweep stops just above the underflow cutoff (-87.336): below
        // it the AVX2 lane flushes to exactly 0.0 by design while
        // scalar `exp` still emits ~1e-38 subnormals — an absolute
        // difference of one subnormal, covered by the tail test above.
        let mut worst = 0.0f32;
        for step in -3480..=300 {
            let x = step as f32 * 0.025;
            let mut row = [x; 8];
            exp_rows(SimdTier::Avx2, &mut row, 0.0);
            let exact = x.exp();
            let rel = if exact == 0.0 {
                row[0].abs()
            } else {
                (row[0] - exact).abs() / exact
            };
            worst = worst.max(rel);
        }
        assert!(worst <= 1e-6, "worst relative exp error {worst}");
    }

    #[test]
    fn avx2_matmul_cells_are_bitwise_equal_to_the_tier_dot() {
        if !avx2_available() {
            return;
        }
        // The decode ≡ batch contract inside the AVX2 tier: every cell
        // of the blocked matmul (dot4 lanes *and* remainder columns)
        // must equal a standalone tier `dot` bit for bit. Column counts
        // 1..=9 cross the 4-block boundary in every phase.
        for &d in &[31usize, 33, 64, 100] {
            for cols in 1usize..=9 {
                let a = Matrix::from_vec(3, d, rand_f32(d as u64 + 61, 3 * d)).unwrap();
                let b = Matrix::from_vec(cols, d, rand_f32(d as u64 + 62, cols * d)).unwrap();
                let mut out = Matrix::zeros(3, cols).unwrap();
                matmul_transposed_scaled_into(SimdTier::Avx2, &a, &b, 1.0, 0..3, 0..cols, &mut out);
                for r in 0..3 {
                    for c in 0..cols {
                        let cell = out.get(r, c);
                        let lone = dot(SimdTier::Avx2, a.row(r), b.row(c));
                        assert_eq!(
                            cell.to_bits(),
                            lone.to_bits(),
                            "d {d} cols {cols} cell ({r},{c}): {cell} vs {lone}"
                        );
                    }
                }
            }
        }
    }
}
